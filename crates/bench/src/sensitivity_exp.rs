//! Ext-F: sensitivity of the GA to its main knobs (mutation rate,
//! tournament size, state-match mode) on the 6-disk Towers of Hanoi.

use gaplan_ga::{CostFitnessMode, CrossoverKind, GoalEval, SelectionScheme, StateMatchMode};

use crate::runner::run_batch;
use crate::table::{f1, f3, TextTable};
use crate::{hanoi, ExpScale};

/// Mutation-rate sweep.
pub fn ext_mutation(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let hanoi = hanoi(6);
    let mut t = TextTable::new(
        "Ext-F1. Mutation-rate sensitivity (6-disk Hanoi, multi-phase, random crossover).",
        &["Mutation Rate", "Avg Goal Fitness", "Avg Size", "Solved Runs"],
    );
    for rate in [0.0, 0.001, 0.01, 0.05, 0.2] {
        let cfg = scale.config(&hanoi, |c| c.mutation_rate = rate);
        let (_, agg) = run_batch(&hanoi.domain, &cfg, runs);
        t.row(vec![
            format!("{rate}"),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

/// Selection-scheme sweep.
pub fn ext_selection(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let hanoi = hanoi(6);
    let mut t = TextTable::new(
        "Ext-F2. Selection-scheme sensitivity (6-disk Hanoi, multi-phase).",
        &["Selection", "Avg Goal Fitness", "Avg Size", "Solved Runs"],
    );
    for (name, sel) in [
        ("tournament(2)", SelectionScheme::Tournament(2)),
        ("tournament(4)", SelectionScheme::Tournament(4)),
        ("tournament(8)", SelectionScheme::Tournament(8)),
        ("roulette", SelectionScheme::Roulette),
        ("rank", SelectionScheme::Rank),
    ] {
        let cfg = scale.config(&hanoi, |c| c.selection = sel);
        let (_, agg) = run_batch(&hanoi.domain, &cfg, runs);
        t.row(vec![
            name.into(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

/// State-match-mode ablation for state-aware crossover (DESIGN.md note 6).
pub fn ext_state_match(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let hanoi = hanoi(6);
    let mut t = TextTable::new(
        "Ext-F3. State-match rule for state-aware crossover (6-disk Hanoi, multi-phase).",
        &["Match rule", "Avg Goal Fitness", "Avg Size", "Solved Runs"],
    );
    for (name, mode) in [("exact state", StateMatchMode::ExactState), ("valid-op set", StateMatchMode::ValidOpSet)] {
        let cfg = scale.config(&hanoi, |c| {
            c.crossover = CrossoverKind::StateAware;
            c.state_match = mode;
        });
        let (_, agg) = run_batch(&hanoi.domain, &cfg, runs);
        t.row(vec![
            name.into(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

/// Goal-evaluation semantics ablation: the strict final-state reading of
/// §3.3 versus the calibrated best-prefix reading (see EXPERIMENTS.md).
pub fn ext_goal_eval(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let tile = scale.tile(3);
    let mut t = TextTable::new(
        "Ext-F4. Goal-evaluation semantics (Table-4 8-puzzle instance, multi-phase, random crossover).",
        &["Semantics", "Avg Goal Fitness", "Avg Size", "Avg Generations", "Solved Runs"],
    );
    for (name, eval, trunc) in [
        ("final-state, full decode", GoalEval::FinalState, false),
        ("final-state, truncate at goal", GoalEval::FinalState, true),
        ("best-prefix, truncate at goal", GoalEval::BestPrefix, true),
    ] {
        let cfg = scale.config(&tile, |c| {
            c.crossover = CrossoverKind::Random;
            c.goal_eval = eval;
            c.truncate_at_goal = trunc;
        });
        let (_, agg) = run_batch(&tile.domain, &cfg, runs);
        t.row(vec![
            name.into(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            f1(agg.avg_generations),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

/// Elitism ablation: the reconstruction keeps one elite per generation; the
/// strict generational reading keeps none.
pub fn ext_elitism(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let hanoi = hanoi(6);
    let mut t = TextTable::new(
        "Ext-F5. Elitism (6-disk Hanoi, multi-phase, random crossover).",
        &["Elites", "Avg Goal Fitness", "Avg Size", "Avg Generations", "Solved Runs"],
    );
    for elites in [0usize, 1, 2, 10] {
        let cfg = scale.config(&hanoi, |c| c.elitism = elites);
        let (_, agg) = run_batch(&hanoi.domain, &cfg, runs);
        t.row(vec![
            elites.to_string(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            f1(agg.avg_generations),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

/// Eq. 2 reading ablation: linear length normalization vs the reciprocal
/// `1/len` (which creates the empty-plan attractor described in
/// `CostFitnessMode`).
pub fn ext_cost_fitness(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let tile = scale.tile(3);
    let mut t = TextTable::new(
        "Ext-F6. Cost-fitness reading of Eq. 2 (Table-4 8-puzzle instance, multi-phase).",
        &["F_cost", "Avg Goal Fitness", "Avg Size", "Solved Runs"],
    );
    for (name, mode) in [
        ("1 - len/MaxLen (linear)", CostFitnessMode::LinearLength),
        ("1/len (reciprocal)", CostFitnessMode::InverseLength),
        ("none (goal only)", CostFitnessMode::Zero),
    ] {
        let cfg = scale.config(&tile, |c| {
            c.crossover = CrossoverKind::Random;
            c.cost_fitness = mode;
        });
        let (_, agg) = run_batch(&tile.domain, &cfg, runs);
        t.row(vec![
            name.into(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_have_expected_row_counts() {
        let s = ExpScale::quick();
        assert_eq!(ext_mutation(&s).rows.len(), 5);
        assert_eq!(ext_selection(&s).rows.len(), 5);
        assert_eq!(ext_state_match(&s).rows.len(), 2);
        assert_eq!(ext_goal_eval(&s).rows.len(), 3);
        assert_eq!(ext_elitism(&s).rows.len(), 4);
        assert_eq!(ext_cost_fitness(&s).rows.len(), 3);
    }
}
