//! Integration tests for the `gaplan` CLI binary, driven over the sample
//! data files in `data/`.

use std::process::Command;

fn gaplan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gaplan"))
}

fn run(args: &[&str]) -> (bool, String) {
    let out = gaplan().args(args).output().expect("binary runs");
    let text = format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn strips_graphplan_solves_rover() {
    let (ok, text) = run(&["strips", "data/rover.strips", "--planner", "graphplan"]);
    assert!(ok, "{text}");
    assert!(text.contains("reaches goal: true"), "{text}");
    assert!(text.contains("send-photo") && text.contains("send-sample"));
}

#[test]
fn strips_bfs_and_hsp2_solve_rover() {
    for planner in ["bfs", "hsp2", "forward"] {
        let (ok, text) = run(&["strips", "data/rover.strips", "--planner", planner]);
        assert!(ok, "{planner}: {text}");
        assert!(text.contains("reaches goal: true"), "{planner}: {text}");
    }
}

#[test]
fn strips_ga_solves_rover() {
    let (ok, text) = run(&[
        "strips",
        "data/rover.strips",
        "--planner",
        "ga",
        "--pop",
        "100",
        "--gens",
        "60",
        "--phases",
        "3",
        "--seed",
        "7",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("solved=true"), "{text}");
}

#[test]
fn grid_ga_plans_pipeline() {
    let (ok, text) = run(&["grid", "data/pipeline.grid", "--planner", "ga", "--gens", "60", "--phases", "3"]);
    assert!(ok, "{text}");
    assert!(text.contains("reaches goal: true"), "{text}");
    assert!(text.contains("activity graph"), "{text}");
}

#[test]
fn grid_greedy_plans_pipeline() {
    let (ok, text) = run(&["grid", "data/pipeline.grid", "--planner", "greedy"]);
    assert!(ok, "{text}");
    assert!(text.contains("reaches goal: true"), "{text}");
}

#[test]
fn grid_simulation_with_overload_replans() {
    let (ok, text) = run(&[
        "grid",
        "data/pipeline.grid",
        "--planner",
        "greedy",
        "--simulate",
        "--overload",
        "orion:3:0.95",
        "--seed",
        "5",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("1 replans"), "{text}");
    assert!(text.contains("goal fitness 1.000"), "{text}");
}

#[test]
fn hanoi_subcommand_solves() {
    let (ok, text) = run(&["hanoi", "4", "--seed", "3"]);
    assert!(ok, "{text}");
    assert!(text.contains("solved=true"), "{text}");
    assert!(text.contains("optimal 15"), "{text}");
}

#[test]
fn tile_subcommand_solves() {
    let (ok, text) = run(&["tile", "3", "--crossover", "state-aware", "--seed", "4"]);
    assert!(ok, "{text}");
    assert!(text.contains("solved=true"), "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, text) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("usage"), "{text}");
}

/// Runs `args` and asserts a usage error: exit code 2, stderr naming
/// `needle` and showing the usage text.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = gaplan().args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error: {stderr}");
    assert!(stderr.contains(needle) && stderr.contains("usage"), "{args:?}: {stderr}");
}

#[test]
fn unparsable_flag_value_is_a_usage_error() {
    assert_usage_error(&["serve", "--target-ms", "5O"], "invalid value `5O` for --target-ms");
    assert_usage_error(&["serve", "--workers", "two"], "invalid value `two` for --workers");
    assert_usage_error(&["hanoi", "4", "--seed", "x"], "invalid value `x` for --seed");
    assert_usage_error(&["serve", "--target-ms"], "--target-ms needs a value");
}

#[test]
fn unknown_serve_flag_is_a_usage_error() {
    assert_usage_error(&["serve", "--taget-ms", "50"], "unknown serve flag `--taget-ms`");
    // Retired flags are refused, not silently ignored.
    for flag in ["--job-retries", "--codel-interval-ms", "--brownout-enter-ms", "--brownout-exit-ms"] {
        assert_usage_error(&["serve", "--target-ms", "50", flag, "10"], &format!("unknown serve flag `{flag}`"));
    }
}

#[test]
fn unknown_loadgen_and_chaosproxy_flags_are_usage_errors() {
    // Port 9 has no server: a usage error must come before any connect.
    let addr = ["loadgen", "--addr", "127.0.0.1:9"];
    assert_usage_error(&[&addr[..], &["--rat", "50"]].concat(), "unknown loadgen flag `--rat`");
    // The retired `--retry` is refused, not silently ignored.
    assert_usage_error(&[&addr[..], &["--retry"]].concat(), "unknown loadgen flag `--retry`");
    // A repeated flag or a stray argument is refused too.
    assert_usage_error(&[&addr[..], &["--jobs", "1", "--jobs", "2"]].concat(), "loadgen flag `--jobs` given twice");
    assert_usage_error(&[&addr[..], &["--jobs", "1", "2"]].concat(), "unexpected loadgen argument `2`");
    assert_usage_error(
        &["chaosproxy", "--upstream", "127.0.0.1:9", "--chaos-reset", "0.1"],
        "unknown chaosproxy flag `--chaos-reset`",
    );
}

#[test]
fn missing_file_fails_cleanly() {
    let (ok, text) = run(&["strips", "data/nonexistent.strips"]);
    assert!(!ok);
    assert!(text.contains("cannot read"), "{text}");
}

/// Wall-clock timings vary run to run; everything else must not.
fn strip_timings(stdout: &str) -> String {
    stdout
        .lines()
        .map(|l| match l.find(" in ") {
            Some(i) if l.ends_with('s') => &l[..i],
            _ => l,
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn checkpoint_flag_is_output_invariant_and_cleans_up() {
    let cp = std::env::temp_dir().join(format!("gaplan-cli-cp-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&cp);
    let args = ["hanoi", "4", "--gens", "20", "--pop", "40", "--seed", "6"];
    let plain = gaplan().args(args).output().expect("binary runs");
    let with_cp = gaplan().args(args).arg("--checkpoint").arg(&cp).output().expect("binary runs");
    assert!(plain.status.success() && with_cp.status.success());
    assert_eq!(
        strip_timings(&String::from_utf8_lossy(&plain.stdout)),
        strip_timings(&String::from_utf8_lossy(&with_cp.stdout)),
        "--checkpoint must not change planning output"
    );
    assert!(!cp.exists(), "completed run must remove its checkpoint file");
}
