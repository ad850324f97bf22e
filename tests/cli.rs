//! Integration tests for the `gaplan` CLI binary, driven over the sample
//! data files in `data/`.

use std::process::Command;

use ga_grid_planner::service::{BuiltProblem, GaOverrides, JobStatus, PlanResponse, ProblemSpec};

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

#[test]
fn planning_commands_refuse_unread_arguments() {
    assert_usage_error(&["tile", "3", "--cross", "state-aware"], "unknown tile flag `--cross`");
    assert_usage_error(&["strips", "data/rover.strips", "--planer", "bfs"], "unknown strips flag `--planer`");
    assert_usage_error(&["hanoi", "3", "--bogus", "1"], "unknown hanoi flag `--bogus`");
    assert_usage_error(&["hanoi", "3", "--seed", "1", "--seed", "2"], "hanoi flag `--seed` given twice");
    assert_usage_error(&["hanoi", "3", "4"], "unexpected hanoi argument `4`");
    assert_usage_error(&["hanoi", "3", "--disks", "4"], "unexpected hanoi argument `3`");
    assert_usage_error(&["grid", "data/pipeline.grid", "--simulat"], "unknown grid flag `--simulat`");
    let dsl = ["--domain", "examples/domains/logistics.gap", "--problem", "data/logistics-1.gap"];
    assert_usage_error(&[&["solve"], &dsl[..], &["--gen", "5"]].concat(), "unknown solve flag `--gen`");
    assert_usage_error(&[&["check"], &dsl[..], &["--pop", "5"]].concat(), "unknown check flag `--pop`");
    // Refused before any file is opened: a missing input is not reported,
    // and the trace file is never created.
    assert_usage_error(&["trace-report", "data/no-such.jsonl", "--tpo", "3"], "unknown trace-report flag `--tpo`");
    let trace = std::env::temp_dir().join(format!("gaplan-cli-refused-{}.jsonl", std::process::id()));
    let trace = trace.to_str().unwrap();
    assert_usage_error(&["hanoi", "3", "--trace", trace, "--bogus"], "unknown hanoi flag `--bogus`");
    assert!(!std::path::Path::new(trace).exists(), "a refused command must not open its trace");
}

#[test]
fn flags_a_command_does_not_use_are_still_accepted() {
    // GA flags under a baseline planner, simulator flags without
    // --simulate, and --print with --problem all parse and run.
    let ga = ["--pop", "10", "--gens", "2", "--phases", "1", "--seed", "3", "--islands", "1", "--no-succ-cache"];
    for args in [
        [&["strips", "data/rover.strips", "--planner", "bfs"], &ga[..]].concat(),
        [&["grid", "data/pipeline.grid", "--planner", "greedy", "--faults", "7", "--fault-rate", "0.2"], &ga[..]]
            .concat(),
        ["check", "--domain", "examples/domains/blocks.gap", "--problem", "data/blocks-2.gap", "--print"].to_vec(),
    ] {
        let (ok, text) = run(&args);
        assert!(ok, "{args:?}: {text}");
    }
}

/// The `generations=N` count `hanoi` reports.
fn reported_generations(text: &str) -> u32 {
    let rest = &text[text.find("generations=").expect("generation count printed") + "generations=".len()..];
    rest.split(' ').next().unwrap().parse().unwrap()
}

#[test]
fn hanoi_honours_gens_and_phases() {
    for (gens, phases) in [("3", "1"), ("4", "2")] {
        let (ok, text) = run(&["hanoi", "8", "--gens", gens, "--phases", phases]);
        assert!(ok, "{text}");
        let budget: u32 = gens.parse::<u32>().unwrap() * phases.parse::<u32>().unwrap();
        assert!(reported_generations(&text) <= budget, "--gens {gens} --phases {phases} ran past {budget}: {text}");
    }
}

#[test]
fn out_of_range_problems_exit_with_a_message_not_a_panic() {
    for (args, needle) in [
        (&["hanoi", "0"][..], "hanoi disks must be in 1..=20, got 0"),
        (&["hanoi", "40"], "hanoi disks must be in 1..=20, got 40"),
        (&["tile", "0"], "tile side must be in 2..=6, got 0"),
        (&["tile", "1"], "tile side must be in 2..=6, got 1"),
        (&["tile", "7"], "tile side must be in 2..=6, got 7"),
        // In range, but the default population past the genes limit.
        (&["hanoi", "15"], "genes per generation"),
        (&["hanoi", "4", "--gens", "70000"], "generations × phases"),
    ] {
        let out = gaplan().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A `serve` child on stdin/stdout with one worker.
struct Served {
    child: std::process::Child,
    replies: std::io::Lines<std::io::BufReader<std::process::ChildStdout>>,
}

impl Served {
    fn start() -> Self {
        let mut child = gaplan()
            .args(["serve", "--workers", "1"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("serve starts");
        let replies = std::io::BufRead::lines(std::io::BufReader::new(child.stdout.take().unwrap()));
        Served { child, replies }
    }

    /// Send one plan line and read its reply.
    fn plan(&mut self, id: u64, problem: &ProblemSpec, ga: Option<GaOverrides>) -> PlanResponse {
        use std::io::Write;
        let line = format!(
            r#"{{"cmd":"plan","id":{id},"problem":{},"ga":{}}}"#,
            serde_json::to_string(problem).unwrap(),
            serde_json::to_string(&ga).unwrap()
        );
        let stdin = self.child.stdin.as_mut().unwrap();
        writeln!(stdin, "{line}").and_then(|_| stdin.flush()).expect("write to serve");
        let reply = self.replies.next().expect("a reply").expect("readable reply");
        serde_json::from_str(&reply).unwrap_or_else(|e| panic!("bad reply {reply}: {e:?}"))
    }

    fn shutdown(mut self) {
        drop(self.child.stdin.take());
        assert!(self.child.wait().unwrap().success(), "serve exits cleanly at EOF");
    }
}

#[test]
fn cli_and_serve_plan_the_same_problem_the_same_way() {
    let ga = GaOverrides {
        population: Some(48),
        generations: Some(40),
        phases: Some(2),
        seed: Some(5),
        ..GaOverrides::default()
    };
    let flags = ["--pop", "48", "--gens", "40", "--phases", "2", "--seed", "5"];
    let mut served = Served::start();

    let text = std::fs::read_to_string("data/rover.strips").unwrap();
    let reply = served.plan(1, &ProblemSpec::Strips { text }, Some(ga));
    assert_eq!(reply.status, JobStatus::Done, "{reply:?}");
    let (ok, out) = run(&[&["strips", "data/rover.strips"], &flags[..]].concat());
    assert!(ok, "{out}");
    // Plan lines are `   N. op-name`.
    let cli_plan: Vec<&str> = out
        .lines()
        .filter_map(|l| l.trim_start().split_once(". ").filter(|(n, _)| n.parse::<usize>().is_ok()))
        .map(|(_, op)| op)
        .collect();
    assert!(!cli_plan.is_empty(), "{out}");
    assert_eq!(cli_plan, reply.plan, "CLI and service plans differ");

    let reply = served.plan(2, &ProblemSpec::Hanoi { disks: 4 }, Some(ga));
    assert_eq!(reply.status, JobStatus::Done, "{reply:?}");
    let (ok, out) = run(&[&["hanoi", "4"], &flags[..]].concat());
    assert!(ok, "{out}");
    let expect = format!("goal-fitness={:.3} generations=", reply.goal_fitness);
    assert!(out.contains(&expect), "{expect} missing: {out}");
    assert!(out.contains(&format!("plan-length={} ", reply.plan_len)), "plan_len {}: {out}", reply.plan_len);
    served.shutdown();
}

#[test]
fn serve_refuses_an_oversized_default_config_before_allocating() {
    let mut served = Served::start();
    let reply = served.plan(1, &ProblemSpec::Hanoi { disks: 20 }, None);
    assert_eq!(reply.status, JobStatus::Error, "{reply:?}");
    assert!(reply.error.as_deref().unwrap_or("").contains("genes per generation"), "{reply:?}");
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string(format!("/proc/{}/status", served.child.id())).unwrap();
        let hwm_kb: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM in /proc status");
        assert!(hwm_kb < 256 * 1024, "serve peaked at {hwm_kb} kB refusing Hanoi-20");
    }
    served.shutdown();
}

#[test]
fn cli_checkpoints_are_keyed_by_the_built_problem_signature() {
    use ga_grid_planner::durable::{save_snapshot, FsStorage, Storage};
    use ga_grid_planner::ga::{MultiPhase, MultiPhaseCheckpoint};
    use std::sync::Arc;

    let built = ProblemSpec::Hanoi { disks: 4 }.build().unwrap();
    let BuiltProblem::Hanoi { domain, .. } = &built else { unreachable!() };
    let ga = GaOverrides { population: Some(40), generations: Some(20), seed: Some(6), ..GaOverrides::default() };
    let cfg = ga.resolve(built.default_config()).unwrap();
    let args = ["hanoi", "4", "--pop", "40", "--gens", "20", "--seed", "6"];
    let plain = gaplan().args(args).output().expect("binary runs");
    let dir = std::env::temp_dir().join(format!("gaplan-cli-sig-{}", std::process::id()));
    let storage: Arc<dyn Storage> = Arc::new(FsStorage::new(&dir).unwrap());
    for (sig, resumes) in [(built.signature(), true), (built.signature() ^ 1, false)] {
        let mut first: Option<MultiPhaseCheckpoint> = None;
        MultiPhase::new(domain, cfg.clone())
            .with_problem_sig(sig)
            .run_checkpointed(None, 5, &mut |cp| {
                first.get_or_insert_with(|| cp.clone());
            })
            .unwrap();
        let json = serde_json::to_string(&first.expect("a checkpoint")).unwrap();
        save_snapshot(&storage, "cp.bin", json.as_bytes()).unwrap();
        let out = gaplan().args(args).arg("--checkpoint").arg(dir.join("cp.bin")).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.success(), resumes, "{stderr}");
        if resumes {
            assert!(stderr.contains("resuming from checkpoint"), "{stderr}");
            assert_eq!(
                strip_timings(&String::from_utf8_lossy(&out.stdout)),
                strip_timings(&String::from_utf8_lossy(&plain.stdout)),
                "a resumed run must print what an uninterrupted one does"
            );
        } else {
            assert!(stderr.contains("cannot resume"), "{stderr}");
            let _ = storage.remove("cp.bin");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
