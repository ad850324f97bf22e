//! Ext-G: population seeding strategies on Blocks World — the experiment
//! of Westerberg & Levine (paper ref. \[22\]), who found that "seeding
//! partial solutions and keeping some randomness in the initial population
//! appear to benefit GP performance" on Blocks World problems.

use gaplan_baselines::{greedy_best_first, GoalCount, SearchLimits};
use gaplan_domains::blocks_world;
use gaplan_ga::rng::derive_seed;
use gaplan_ga::{aggregate, GaConfig, MultiPhase, RunReport, SeedStrategy};
use std::time::Instant;

use crate::table::{f1, f3, TextTable};
use crate::ExpScale;

/// The Blocks World instance: 9 blocks in three towers, rearranged into
/// two interleaved towers (requires unstacking and careful ordering).
fn instance() -> gaplan_core::strips::StripsProblem {
    blocks_world(9, &vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]], &vec![vec![8, 4, 0, 6, 2], vec![5, 1, 7, 3]])
        .unwrap()
}

fn ga_cfg(scale: &ExpScale) -> GaConfig {
    GaConfig {
        population_size: 150,
        generations_per_phase: scale.gens(100),
        max_phases: 5,
        initial_len: 20,
        max_len: 100,
        seed: scale.seed,
        ..GaConfig::default()
    }
}

/// Ext-G: random vs greedy-walk vs biased-walk vs plan seeding.
pub fn ext_seeding(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let problem = instance();
    let mut t = TextTable::new(
        "Ext-G. Population seeding on 9-block Blocks World (3 towers -> 2 interleaved towers), multi-phase GA.",
        &["Seeding", "Avg Goal Fitness", "Avg Size", "Avg Gen of 1st Solution", "Solved Runs"],
    );

    // a reusable donor plan from the greedy baseline (the plan-reuse seed)
    let donor = greedy_best_first(&problem, &GoalCount, SearchLimits::default()).plan.map(|p| p.ops().to_vec());

    let strategies: Vec<(&str, Option<(SeedStrategy, f64)>)> = vec![
        ("none (random init)", None),
        ("greedy walks, 25%", Some((SeedStrategy::GreedyWalk, 0.25))),
        ("biased walks (0.7), 50%", Some((SeedStrategy::BiasedWalk { bias: 0.7 }, 0.5))),
        ("greedy-planner plan, 10%", donor.map(|p| (SeedStrategy::Plans(vec![p]), 0.1))),
    ];

    for (name, seeder) in strategies {
        let mut reports = Vec::with_capacity(runs);
        for run in 0..runs {
            let mut cfg = ga_cfg(scale);
            cfg.seed = derive_seed(scale.seed, run as u64 + 1);
            cfg.eval = gaplan_ga::EvalMode::Serial;
            let started = Instant::now();
            let mut driver = MultiPhase::new(&problem, cfg);
            if let Some((strategy, fraction)) = &seeder {
                driver = driver.with_seeder(strategy.clone(), *fraction);
            }
            let result = driver.run();
            reports.push(RunReport::from_result(&result, started.elapsed().as_secs_f64()));
        }
        let agg = aggregate(&reports, 5);
        t.row(vec![
            name.into(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            agg.avg_first_solution_gen.map_or("-".into(), f1),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_experiment_produces_four_rows() {
        let t = ext_seeding(&ExpScale::quick());
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let f: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
