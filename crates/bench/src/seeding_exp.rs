//! Ext-G: population seeding strategies on Blocks World — the experiment
//! of Westerberg & Levine (paper ref. \[22\]), who found that "seeding
//! partial solutions and keeping some randomness in the initial population
//! appear to benefit GP performance" on Blocks World problems.

use gaplan_baselines::{greedy_best_first, GoalCount, SearchLimits};
use gaplan_domains::blocks_world;
use gaplan_ga::SeedStrategy;
use gaplan_problem::GaOverrides;

use crate::runner::run_seeded;
use crate::table::{f1, f3, TextTable};
use crate::{strips, ExpScale};

/// Ext-G: random vs greedy-walk vs biased-walk vs plan seeding.
pub fn ext_seeding(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    // 9 blocks in three towers, rearranged into two interleaved towers
    // (requires unstacking and careful ordering).
    let towers = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]];
    let problem = blocks_world(9, &towers, &vec![vec![8, 4, 0, 6, 2], vec![5, 1, 7, 3]]).unwrap();
    // Run shape over the model's STRIPS defaults (one gene per ground
    // operation): 150 individuals, genomes of 20 genes capped at 100.
    let blocks =
        strips(problem, GaOverrides { population: Some(150), initial_len: Some(20), ..GaOverrides::default() });
    let problem = &blocks.domain;
    let cfg = scale.config(&blocks, |_| {});
    let mut t = TextTable::new(
        "Ext-G. Population seeding on 9-block Blocks World (3 towers -> 2 interleaved towers), multi-phase GA.",
        &["Seeding", "Avg Goal Fitness", "Avg Size", "Avg Gen of 1st Solution", "Solved Runs"],
    );

    // a reusable donor plan from the greedy baseline (the plan-reuse seed)
    let donor = greedy_best_first(problem, &GoalCount, SearchLimits::default()).plan.map(|p| p.ops().to_vec());

    let strategies: Vec<(&str, Option<(SeedStrategy, f64)>)> = vec![
        ("none (random init)", None),
        ("greedy walks, 25%", Some((SeedStrategy::GreedyWalk, 0.25))),
        ("biased walks (0.7), 50%", Some((SeedStrategy::BiasedWalk { bias: 0.7 }, 0.5))),
        ("greedy-planner plan, 10%", donor.map(|p| (SeedStrategy::Plans(vec![p]), 0.1))),
    ];

    for (name, seeder) in strategies {
        let (_, agg) = run_seeded(problem, &cfg, runs, seeder.as_ref());
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
