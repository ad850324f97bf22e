//! Multi-run executor: repeats a GA configuration across seeds (the paper:
//! "each run uses a different initial population") and aggregates the
//! reports. Runs are the unit of parallelism: they fan out over one scoped
//! thread per core, and each GA run is single-threaded.

use std::num::NonZeroUsize;
use std::time::Instant;

use gaplan_core::Domain;
use gaplan_ga::rng::derive_seed;
use gaplan_ga::{aggregate, AggregateReport, GaConfig, MultiPhase, RunReport, SeedStrategy};

/// Run `runs` independent multi-phase GA executions of `cfg` over `domain`,
/// with per-run seeds derived from `cfg.seed`, in parallel across runs.
/// Each run is a pure function of its seed, so results are identical to a
/// serial execution.
pub fn run_batch<D: Domain>(domain: &D, cfg: &GaConfig, runs: usize) -> (Vec<RunReport>, AggregateReport) {
    run_seeded(domain, cfg, runs, None)
}

/// [`run_batch`], with each run's initial population partly drawn from
/// `seeder`: a strategy and the fraction of the population it fills.
pub fn run_seeded<D: Domain>(
    domain: &D,
    cfg: &GaConfig,
    runs: usize,
    seeder: Option<&(SeedStrategy, f64)>,
) -> (Vec<RunReport>, AggregateReport) {
    assert!(runs > 0);
    let one_run = |i: usize| {
        let mut run_cfg = cfg.clone();
        run_cfg.seed = derive_seed(cfg.seed, i as u64 + 1);
        let start = Instant::now();
        let mut driver = MultiPhase::new(domain, run_cfg);
        if let Some((strategy, fraction)) = seeder {
            driver = driver.with_seeder(strategy.clone(), *fraction);
        }
        let result = driver.run();
        RunReport::from_result(&result, start.elapsed().as_secs_f64())
    };
    // One contiguous block of run indices per thread, joined in block
    // order, so reports come back in run order.
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get).min(runs);
    let block = runs.div_ceil(threads);
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let one_run = &one_run;
        let blocks: Vec<_> = (0..runs)
            .step_by(block)
            .map(|lo| scope.spawn(move || (lo..(lo + block).min(runs)).map(one_run).collect::<Vec<_>>()))
            .collect();
        blocks.into_iter().flat_map(|b| b.join().expect("an experiment run panicked")).collect()
    });
    let agg = aggregate(&reports, cfg.max_phases);
    (reports, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaplan_domains::Hanoi;

    fn cfg() -> GaConfig {
        GaConfig {
            population_size: 40,
            generations_per_phase: 30,
            max_phases: 3,
            initial_len: 31,
            max_len: 93,
            seed: 5,
            ..GaConfig::default()
        }
    }

    #[test]
    fn batch_produces_one_report_per_run() {
        let h = Hanoi::new(4);
        let (reports, agg) = run_batch(&h, &cfg(), 4);
        assert_eq!(reports.len(), 4);
        assert_eq!(agg.runs, 4);
        assert!(agg.avg_goal_fitness > 0.0);
    }

    #[test]
    fn batch_is_deterministic_modulo_time() {
        let h = Hanoi::new(4);
        let (a, _) = run_batch(&h, &cfg(), 3);
        let (b, _) = run_batch(&h, &cfg(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.goal_fitness, y.goal_fitness);
            assert_eq!(x.plan_len, y.plan_len);
            assert_eq!(x.generations, y.generations);
        }
    }

    #[test]
    fn runs_use_distinct_seeds() {
        let h = Hanoi::new(5);
        let (reports, _) = run_batch(&h, &cfg(), 4);
        // with distinct seeds, identical outcomes across all runs are
        // vanishingly unlikely
        let all_same =
            reports.windows(2).all(|w| w[0].plan_len == w[1].plan_len && w[0].goal_fitness == w[1].goal_fitness);
        assert!(!all_same);
    }
}
