//! Sliding-tile puzzle experiments: Tables 3–5 (§4.2).
//!
//! Instance choice: the paper's Figure 3(a) (reversed 15-puzzle) is
//! unsolvable by the Johnson & Story criterion, and the paper does not
//! state which instances its 50 runs used. We therefore use one *fixed*
//! uniformly-random solvable instance per board size ([`ExpScale::tile`]),
//! generated from the experiment master seed, so that runs differ only in
//! their GA seed — matching "each individual run of the GA was executed
//! using a different random seed".
//! Every cell runs the problem model's tile defaults: the Table 3 block and
//! `n² · log₂(n²)` as initial length (§4.2).

use gaplan_ga::CrossoverKind;

use crate::runner::run_batch;
use crate::table::{f2, f3, TextTable};
use crate::ExpScale;

/// Table 3: parameter settings for the Sliding-tile puzzle experiments.
pub fn table3(scale: &ExpScale) -> TextTable {
    let cfg = scale.tile(3).base;
    let mut t =
        TextTable::new("Table 3. Parameter settings for the Sliding-tile puzzle experiments.", &["Parameter", "Value"]);
    t.row(vec!["Population size".into(), cfg.population_size.to_string()]);
    t.row(vec!["Number of generations".into(), scale.gens(500).to_string()]);
    t.row(vec!["Crossover type".into(), "Random / State-aware / Mixed".into()]);
    t.row(vec!["Crossover rate".into(), format!("{}", cfg.crossover_rate)]);
    t.row(vec!["Mutation rate".into(), format!("{}", cfg.mutation_rate)]);
    t.row(vec!["Selection scheme".into(), "Tournament (2)".into()]);
    t.row(vec!["Weight of goal fitness".into(), format!("{}", cfg.weights.goal)]);
    t.row(vec!["Weight of cost fitness".into(), format!("{}", cfg.weights.cost)]);
    t.row(vec!["Board size (n)".into(), "3 and 4".into()]);
    t.row(vec!["Number of phases in multi-phase GA".into(), "5".into()]);
    t
}

/// Table 4: the three crossover mechanisms on 9 and 16 tiles — average goal
/// fitness, average solution size, number of runs (of 50) that found a
/// valid solution, and average wall-clock time per run.
pub fn table4(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(50);
    let mut t = TextTable::new(
        "Table 4. Experimental results for the Sliding-tile puzzle.",
        &[
            "Type of Crossover",
            "Number of Tiles",
            "Average Goal Fitness",
            "Average Size of Solution",
            "# Runs That Find a Valid Solution",
            "Average Time (seconds)",
        ],
    );
    for kind in [CrossoverKind::StateAware, CrossoverKind::Random, CrossoverKind::Mixed] {
        for n in [3usize, 4] {
            let tile = scale.tile(n);
            let cfg = scale.config(&tile, |c| c.crossover = kind);
            let (_, agg) = run_batch(&tile.domain, &cfg, runs);
            t.row(vec![
                kind.name().into(),
                (n * n).to_string(),
                f3(agg.avg_goal_fitness),
                f2(agg.avg_plan_len),
                format!("{}", agg.solved_runs),
                f2(agg.avg_seconds),
            ]);
        }
    }
    t
}

/// Table 5: the phase in which the first valid solution was found, per
/// crossover mechanism, for the 3×3 board.
pub fn table5(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(50);
    let tile = scale.tile(3);
    let mut t = TextTable::new(
        "Table 5. Runs finding a valid solution in each phase (3x3 board).",
        &["Phase", "Random", "State-aware", "Mixed"],
    );
    let mut histograms = Vec::new();
    let mut avg_first = Vec::new();
    for kind in [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed] {
        let cfg = scale.config(&tile, |c| c.crossover = kind);
        let (_, agg) = run_batch(&tile.domain, &cfg, runs);
        histograms.push(agg.solved_per_phase);
        avg_first.push(agg.avg_first_solution_gen);
    }
    let phases = histograms.iter().map(Vec::len).max().unwrap_or(0);
    for p in 0..phases {
        t.row(vec![
            (p + 1).to_string(),
            histograms[0].get(p).copied().unwrap_or(0).to_string(),
            histograms[1].get(p).copied().unwrap_or(0).to_string(),
            histograms[2].get(p).copied().unwrap_or(0).to_string(),
        ]);
    }
    // finer-grained than the paper: mean cumulative generation of the first
    // valid solution (our calibrated GA solves the 8-puzzle within phase 1
    // for every mechanism, so the generation count is what discriminates)
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |g| format!("{g:.1}"));
    t.row(vec!["avg gen of 1st solution".into(), fmt(avg_first[0]), fmt(avg_first[1]), fmt(avg_first[2])]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_quick_smoke_has_phase_rows() {
        let t = table5(&ExpScale::quick());
        assert_eq!(t.rows.len(), 6); // 5 phase rows + avg-generation row
                                     // phase counts sum to at most runs per column
        for col in 1..=3 {
            let total: usize = t.rows.iter().take(5).map(|r| r[col].parse::<usize>().unwrap()).sum();
            assert!(total <= 3);
        }
        assert_eq!(t.rows[5][0], "avg gen of 1st solution");
    }
}
