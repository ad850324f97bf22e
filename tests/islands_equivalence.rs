//! Island-model differential tests at the CLI and library level.
//!
//! The determinism contract the island model must uphold:
//!
//! * `--islands 1` is the single-population path — not "close to", but
//!   byte-identical, even with migration flags supplied (migration never
//!   fires with one island).
//! * `K > 1` runs are bitwise-reproducible: same command, same bytes out,
//!   across separate invocations, and the same result from the library.
//!
//! Traces are compared after [`mask_trace`] (wall-clock fields and cache
//! counters blanked); stdout after scrubbing printed timings.
//! Everything else participates byte-for-byte.

use std::path::{Path, PathBuf};
use std::process::Command;

use ga_grid_planner::domains::Hanoi;
use ga_grid_planner::ga::{GaConfig, MultiPhase};
use ga_grid_planner::obs::golden::mask_trace;
use gaplan_core::Domain;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Blank `N.NNs` / `Nms` timing tokens in CLI stdout (same scrubber as the
/// cache-equivalence suite).
fn scrub_timing(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !b[i - 1].is_ascii_alphanumeric()) {
            let mut j = i;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.') {
                j += 1;
            }
            let unit = if b[j..].starts_with(b"ms") {
                2
            } else if b[j..].starts_with(b"s") && !b[j..].starts_with(b"site") {
                1
            } else {
                0
            };
            let after = j + unit;
            if unit > 0 && (after == b.len() || !b[after].is_ascii_alphanumeric()) {
                out.push('_');
                out.push_str(&s[j..after]);
                i = after;
                continue;
            }
        }
        out.push(b[i] as char);
        i += 1;
    }
    out
}

/// Run `gaplan <args> --trace <tmp>`, returning timing-scrubbed stdout and
/// the masked trace.
fn run(name: &str, args: &[&str]) -> (String, String) {
    let trace = std::env::temp_dir().join(format!("gaplan-islandseq-{name}-{}.jsonl", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_gaplan"))
        .args(args)
        .arg("--trace")
        .arg(&trace)
        .current_dir(repo_path(""))
        .output()
        .expect("gaplan binary runs");
    assert!(
        output.status.success(),
        "gaplan {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let raw = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&trace);
    (scrub_timing(&String::from_utf8_lossy(&output.stdout)), mask_trace(&raw))
}

fn assert_same(name: &str, (out_a, trace_a): &(String, String), (out_b, trace_b): &(String, String), what: &str) {
    assert_eq!(out_a, out_b, "`{name}` stdout diverged: {what}");
    if trace_a != trace_b {
        let at = trace_a.lines().zip(trace_b.lines()).position(|(a, b)| a != b);
        panic!(
            "`{name}` masked trace diverged ({what}); first differing line {at:?}\n  a: {}\n  b: {}",
            at.and_then(|i| trace_a.lines().nth(i)).unwrap_or("<line count differs>"),
            at.and_then(|i| trace_b.lines().nth(i)).unwrap_or("<line count differs>"),
        );
    }
}

/// `--islands 1` (with migration flags set, which must be inert) vs no
/// island flags at all.
fn assert_one_island_is_single_population(name: &str, args: &[&str]) {
    let plain = run(&format!("{name}-plain"), args);
    let mut one = args.to_vec();
    one.extend_from_slice(&["--islands", "1", "--migrate-every", "3", "--emigrants", "2"]);
    let islands = run(&format!("{name}-one"), &one);
    assert_same(name, &plain, &islands, "--islands 1 vs single-population");
}

#[test]
fn hanoi_one_island_matches_single_population() {
    assert_one_island_is_single_population(
        "hanoi",
        &["hanoi", "--disks", "4", "--pop", "60", "--gens", "20", "--phases", "2", "--seed", "11"],
    );
}

#[test]
fn tile_one_island_matches_single_population() {
    assert_one_island_is_single_population(
        "tile",
        &["tile", "3", "--pop", "60", "--gens", "15", "--phases", "2", "--seed", "7", "--crossover", "mixed"],
    );
}

#[test]
fn grid_one_island_matches_single_population() {
    let grid_file = repo_path("data/pipeline.grid");
    let grid_file = grid_file.to_str().expect("utf-8 path");
    assert_one_island_is_single_population(
        "grid",
        &["grid", grid_file, "--planner", "ga", "--pop", "60", "--gens", "10", "--phases", "2", "--seed", "5"],
    );
}

/// K=4: two separate invocations of the same command produce identical
/// bytes (stdout and masked trace), on a domain with migration actually
/// firing (gens 20 > migrate-every 5).
#[test]
fn four_islands_reproducible_across_invocations() {
    let args = [
        "hanoi",
        "--disks",
        "4",
        "--pop",
        "64",
        "--gens",
        "20",
        "--phases",
        "2",
        "--seed",
        "17",
        "--islands",
        "4",
        "--migrate-every",
        "5",
        "--emigrants",
        "2",
    ];
    let first = run("hanoi-k4-a", &args);
    let second = run("hanoi-k4-b", &args);
    assert!(first.1.contains("ga.migration"), "migration must fire in this configuration");
    assert_same("hanoi-k4", &first, &second, "two invocations of the same K=4 command");
}

/// K=4 at the library level: a repeated run reproduces itself bit for bit,
/// and its plan replays to the reported final state.
#[test]
fn four_islands_library_run_reproduces_itself_and_replays() {
    let hanoi = Hanoi::new(4);
    let cfg = GaConfig {
        population_size: 48,
        generations_per_phase: 15,
        max_phases: 2,
        initial_len: 16,
        max_len: 48,
        seed: 42,
        islands: 4,
        migration_interval: 5,
        emigrants: 2,
        ..GaConfig::default()
    };
    cfg.validate().expect("test config is valid");

    let first = MultiPhase::new(&hanoi, cfg.clone()).run();
    let again = MultiPhase::new(&hanoi, cfg).run();
    assert_eq!(format!("{first:?}"), format!("{again:?}"), "K=4 must reproduce itself");

    // Sanity: the plan executes from the initial state in this domain.
    let mut state = hanoi.initial_state();
    for &op in first.plan.ops() {
        state = hanoi.apply(&state, op);
    }
    assert_eq!(state, first.final_state);
}
