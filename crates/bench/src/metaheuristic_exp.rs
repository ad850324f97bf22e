//! Ext-H: GA vs simulated annealing vs (1+1)-EA at equal evaluation
//! budgets, all over the same indirect encoding — separating what the
//! *population + crossover* contribute from what the encoding contributes
//! (the paper's opening sentence puts GAs and simulated annealing in the
//! same toolbox; this measures the difference).

use gaplan_core::Domain;
use gaplan_ga::rng::derive_seed;
use gaplan_ga::{one_plus_one, simulated_annealing, AnnealConfig};

use crate::runner::run_batch;
use crate::table::{f1, f3, TextTable};
use crate::{hanoi, ExpScale};

fn anneal_rows<D: Domain>(
    t: &mut TextTable,
    domain: &D,
    ga_cfg: &gaplan_ga::GaConfig,
    evaluations: u64,
    runs: usize,
    scale: &ExpScale,
) {
    for (name, simulated) in [("simulated annealing", true), ("(1+1)-EA", false)] {
        let mut solved = 0usize;
        let mut fit = 0.0;
        let mut len = 0.0;
        for run in 0..runs {
            let cfg = AnnealConfig {
                evaluations,
                seed: derive_seed(scale.seed, 0xA0 + run as u64),
                ..AnnealConfig::default()
            };
            let r =
                if simulated { simulated_annealing(domain, ga_cfg, &cfg) } else { one_plus_one(domain, ga_cfg, &cfg) };
            solved += usize::from(r.best.solves());
            fit += r.best.fitness.goal;
            len += r.best.plan_len() as f64;
        }
        t.row(vec![name.into(), f3(fit / runs as f64), f1(len / runs as f64), format!("{solved}/{runs}")]);
    }
}

/// Ext-H1: 6-disk Hanoi at a 100k-evaluation budget (= pop 200 × 500 gens).
pub fn ext_metaheuristics_hanoi(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let hanoi = hanoi(6);
    let mut t = TextTable::new(
        "Ext-H1. Metaheuristics on the 6-disk Towers of Hanoi (equal evaluation budgets).",
        &["Method", "Avg Goal Fitness", "Avg Size", "Solved Runs"],
    );
    let ga_cfg = scale.config(&hanoi, |_| {});
    let (_, agg) = run_batch(&hanoi.domain, &ga_cfg, runs);
    t.row(vec![
        "GA multi-phase".into(),
        f3(agg.avg_goal_fitness),
        f1(agg.avg_plan_len),
        format!("{}/{}", agg.solved_runs, agg.runs),
    ]);
    let budget =
        (ga_cfg.population_size as u64) * u64::from(ga_cfg.generations_per_phase) * u64::from(ga_cfg.max_phases);
    anneal_rows(&mut t, &hanoi.domain, &ga_cfg, budget, runs, scale);
    t
}

/// Ext-H2: the Table-4 8-puzzle instance at the equivalent budget.
pub fn ext_metaheuristics_tile(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let tile = scale.tile(3);
    let mut t = TextTable::new(
        "Ext-H2. Metaheuristics on the Table-4 8-puzzle instance (equal evaluation budgets).",
        &["Method", "Avg Goal Fitness", "Avg Size", "Solved Runs"],
    );
    // The model's tile default crossover is the mixed one.
    let ga_cfg = scale.config(&tile, |_| {});
    let (_, agg) = run_batch(&tile.domain, &ga_cfg, runs);
    t.row(vec![
        "GA multi-phase (mixed)".into(),
        f3(agg.avg_goal_fitness),
        f1(agg.avg_plan_len),
        format!("{}/{}", agg.solved_runs, agg.runs),
    ]);
    let budget =
        (ga_cfg.population_size as u64) * u64::from(ga_cfg.generations_per_phase) * u64::from(ga_cfg.max_phases);
    anneal_rows(&mut t, &tile.domain, &ga_cfg, budget, runs, scale);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metaheuristic_tables_have_three_methods() {
        let s = ExpScale::quick();
        let h = ext_metaheuristics_hanoi(&s);
        assert_eq!(h.rows.len(), 3);
        let t = ext_metaheuristics_tile(&s);
        assert_eq!(t.rows.len(), 3);
        for row in h.rows.iter().chain(&t.rows) {
            let f: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
