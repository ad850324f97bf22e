//! Overhead guard: instrumentation with no subscriber installed must cost
//! effectively nothing.
//!
//! Comparing two wall-clock runs of the same phase is too noisy for CI, so
//! the guard bounds the overhead analytically instead: measure the
//! per-callsite cost of a disabled `emit`, count how many instrumentation
//! callbacks one Hanoi phase actually triggers, and require the projected
//! total to stay under 2% of the measured phase time. The margin is so wide
//! (nanoseconds of checks against milliseconds of GA work) that a real
//! fast-path regression — say, formatting events before checking
//! `enabled()` — trips it immediately, while scheduler noise cannot.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gaplan_domains::Hanoi;
use gaplan_ga::{GaConfig, Phase};
use gaplan_obs::{Event, RecordingSubscriber};

fn phase_cfg() -> GaConfig {
    GaConfig {
        population_size: 200,
        generations_per_phase: 20,
        initial_len: 31,
        max_len: 155,
        seed: 1,
        ..GaConfig::default()
    }
}

/// Best-of-`runs` timing: the minimum is the least noisy estimator for a
/// deterministic workload.
fn best_of<F: FnMut()>(runs: usize, mut f: F) -> Duration {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
fn disabled_subscriber_overhead_is_under_two_percent_of_a_hanoi_phase() {
    assert!(!gaplan_obs::enabled(), "test requires no subscriber installed");
    let hanoi = Hanoi::new(5);

    // How many instrumentation callbacks does one phase trigger? Count
    // them with a recording subscriber (spans count enter + exit).
    let recorder = Arc::new(RecordingSubscriber::default());
    let callsites = {
        let _g = gaplan_obs::install(recorder.clone());
        Phase::new(&hanoi, phase_cfg()).run();
        recorder.lines().len() as u64
    };
    assert!(callsites >= 20, "a 20-generation phase should emit at least one event per generation, got {callsites}");

    // Per-callsite cost of the disabled fast path. The closure builds a
    // realistic event but must never run; black_box keeps the callsite from
    // being optimized out entirely.
    const ITERS: u64 = 1_000_000;
    let disabled_emit = best_of(5, || {
        for i in 0..ITERS {
            gaplan_obs::emit(|| {
                Event::new("guard.ev").u64("gen", black_box(i)).f64("best", black_box(0.5)).str("k", "v")
            });
        }
    });
    let per_call_ns = disabled_emit.as_nanos() as f64 / ITERS as f64;

    // Phase wall time with tracing off (warm run first).
    Phase::new(&hanoi, phase_cfg()).run();
    let phase_time = best_of(3, || {
        black_box(Phase::new(&hanoi, phase_cfg()).run());
    });

    let projected_overhead_ns = per_call_ns * callsites as f64;
    let budget_ns = phase_time.as_nanos() as f64 * 0.02;
    assert!(
        projected_overhead_ns < budget_ns,
        "disabled instrumentation projects to {projected_overhead_ns:.0} ns over {callsites} callsites \
         ({per_call_ns:.2} ns/call), which exceeds 2% of the {:.3} ms phase",
        phase_time.as_secs_f64() * 1e3
    );
}
