//! Towers of Hanoi experiments: Tables 1–2 (§4.1) and the Hanoi extension
//! experiments (crossover ablation, fitness-function ablation, phase-budget
//! sweep), all over the problem model's Hanoi defaults: the Table 1 block
//! and the optimal length `2^n − 1` as initial length (§4.1).

use gaplan_core::{Domain, OpId};
use gaplan_domains::Hanoi;
use gaplan_ga::CrossoverKind;

use crate::runner::run_batch;
use crate::table::{f1, f3, TextTable};
use crate::{hanoi, ExpScale};

/// Table 1: parameter settings used in the Towers of Hanoi experiments.
pub fn table1(scale: &ExpScale) -> TextTable {
    let cfg = hanoi(5).base;
    let mut t = TextTable::new(
        "Table 1. Parameter settings used in the Towers of Hanoi planning experiments.",
        &["Parameter", "Value"],
    );
    t.row(vec!["Population size".into(), cfg.population_size.to_string()]);
    t.row(vec!["Number of generations".into(), scale.gens(500).to_string()]);
    t.row(vec!["Crossover rate".into(), format!("{}", cfg.crossover_rate)]);
    t.row(vec!["Mutation rate".into(), format!("{}", cfg.mutation_rate)]);
    t.row(vec!["Selection scheme".into(), "Tournament (2)".into()]);
    t.row(vec!["Weight of goal fitness".into(), format!("{}", cfg.weights.goal)]);
    t.row(vec!["Weight of cost fitness".into(), format!("{}", cfg.weights.cost)]);
    t.row(vec!["Number of disks".into(), "5, 6, and 7".into()]);
    t.row(vec!["Number of phases in multi-phase GA".into(), "5".into()]);
    t
}

/// Table 2: single-phase vs multi-phase GA on 5/6/7 disks — average goal
/// fitness, average solution size, average generations to find a solution
/// (10 runs each in the paper).
pub fn table2(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let mut t = TextTable::new(
        "Table 2. Experimental results for the Towers of Hanoi problem.",
        &[
            "GA Type",
            "Number of Disks",
            "Average Goal Fitness",
            "Average Size of Solution",
            "Average Generations to Find a Solution",
            "Solved Runs",
        ],
    );
    for (ga_type, single) in [("Single-phase", true), ("Multi-phase", false)] {
        for n in [5usize, 6, 7] {
            let hanoi = hanoi(n);
            // The model's Hanoi default is the multi-phase run shape.
            let cfg = scale.config(&hanoi, |c| *c = if single { c.clone().single_phase() } else { c.clone() });
            let (_, agg) = run_batch(&hanoi.domain, &cfg, runs);
            t.row(vec![
                ga_type.into(),
                n.to_string(),
                f3(agg.avg_goal_fitness),
                f1(agg.avg_plan_len),
                f1(agg.avg_generations),
                format!("{}/{}", agg.solved_runs, agg.runs),
            ]);
        }
    }
    t
}

/// Ext-A: crossover ablation on Hanoi (the paper only ran random crossover
/// there; §4.2 showed the mechanisms differ on tiles).
pub fn ext_crossover_hanoi(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let hanoi = hanoi(6);
    let mut t = TextTable::new(
        "Ext-A. Crossover ablation on the 6-disk Towers of Hanoi (multi-phase).",
        &["Crossover", "Avg Goal Fitness", "Avg Size", "Avg Generations", "Solved Runs"],
    );
    for kind in [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed, CrossoverKind::TwoPoint] {
        let cfg = scale.config(&hanoi, |c| c.crossover = kind);
        let (_, agg) = run_batch(&hanoi.domain, &cfg, runs);
        t.row(vec![
            kind.name().into(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            f1(agg.avg_generations),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

/// A Hanoi wrapper with a configurable goal-fitness definition, for the
/// Ext-B fitness ablation (§4.1 closes: "good heuristic functions still
/// play important roles in improving the performance of our approach").
pub struct HanoiFitness {
    inner: Hanoi,
    variant: FitnessVariant,
}

/// Which goal-fitness definition to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitnessVariant {
    /// The paper's Eq. 5 (disk weight `2^i`).
    Weighted,
    /// Unweighted fraction of disks on the goal stake.
    Uniform,
    /// All-or-nothing: 1.0 iff goal.
    Exact,
}

impl HanoiFitness {
    /// Wrap an instance.
    pub fn new(n: usize, variant: FitnessVariant) -> Self {
        HanoiFitness { inner: Hanoi::new(n), variant }
    }
}

impl Domain for HanoiFitness {
    type State = <Hanoi as Domain>::State;

    fn initial_state(&self) -> Self::State {
        self.inner.initial_state()
    }
    fn num_operations(&self) -> usize {
        self.inner.num_operations()
    }
    fn valid_operations(&self, state: &Self::State, out: &mut Vec<OpId>) {
        self.inner.valid_operations(state, out)
    }
    fn apply(&self, state: &Self::State, op: OpId) -> Self::State {
        self.inner.apply(state, op)
    }
    fn goal_fitness(&self, state: &Self::State) -> f64 {
        match self.variant {
            FitnessVariant::Weighted => self.inner.goal_fitness(state),
            FitnessVariant::Uniform => {
                let on_goal = state.iter().filter(|&&p| p == self.inner.goal_peg()).count();
                on_goal as f64 / state.len() as f64
            }
            FitnessVariant::Exact => {
                if state.iter().all(|&p| p == self.inner.goal_peg()) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
    fn op_name(&self, op: OpId) -> String {
        self.inner.op_name(op)
    }
}

/// Ext-B: goal-fitness-function ablation on 6-disk Hanoi.
pub fn ext_fitness(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let n = 6;
    let mut t = TextTable::new(
        "Ext-B. Goal-fitness ablation on the 6-disk Towers of Hanoi (multi-phase, random crossover).",
        &["Goal fitness", "Avg Goal Fitness (own scale)", "Avg Size", "Solved Runs"],
    );
    for (name, variant) in [
        ("weighted (Eq. 5)", FitnessVariant::Weighted),
        ("uniform disks", FitnessVariant::Uniform),
        ("exact (0/1)", FitnessVariant::Exact),
    ] {
        let domain = HanoiFitness::new(n, variant);
        let cfg = scale.config(&hanoi(n), |_| {});
        let (_, agg) = run_batch(&domain, &cfg, runs);
        // the fitness column is each variant's own scale; the solved count
        // is the variant-independent comparison that matters
        t.row(vec![
            name.into(),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

/// Ext-C: phase-budget sweep on 6-disk Hanoi at a fixed total budget of 500
/// generations.
pub fn ext_phases(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let hanoi = hanoi(6);
    let mut t = TextTable::new(
        "Ext-C. Phase-count sweep on the 6-disk Towers of Hanoi (total budget 500 generations).",
        &["Phases x Gens", "Avg Goal Fitness", "Avg Size", "Avg Generations", "Solved Runs"],
    );
    for (phases, gens) in [(1u32, 500u32), (2, 250), (5, 100), (10, 50), (25, 20)] {
        let cfg = scale.config(&hanoi, |c| {
            c.max_phases = phases;
            c.generations_per_phase = gens;
            c.early_stop_on_solution = phases == 1;
        });
        let (_, agg) = run_batch(&hanoi.domain, &cfg, runs);
        t.row(vec![
            format!("{phases} x {gens}"),
            f3(agg.avg_goal_fitness),
            f1(agg.avg_plan_len),
            f1(agg.avg_generations),
            format!("{}/{}", agg.solved_runs, agg.runs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_paper_parameters() {
        let t = table1(&ExpScale::default());
        let s = t.render();
        assert!(s.contains("200"));
        assert!(s.contains("0.9"));
        assert!(s.contains("0.01"));
        assert!(s.contains("Tournament (2)"));
    }

    #[test]
    fn table2_quick_smoke() {
        let t = table2(&ExpScale::quick());
        assert_eq!(t.rows.len(), 6); // 2 GA types x 3 disk counts
                                     // goal fitness column parses as f64 in [0,1]
        for row in &t.rows {
            let f: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn fitness_variants_disagree_off_goal() {
        let w = HanoiFitness::new(4, FitnessVariant::Weighted);
        let u = HanoiFitness::new(4, FitnessVariant::Uniform);
        let e = HanoiFitness::new(4, FitnessVariant::Exact);
        let state = vec![1u8, 0, 0, 1]; // smallest + largest on B
        assert!(w.goal_fitness(&state) > u.goal_fitness(&state));
        assert_eq!(e.goal_fitness(&state), 0.0);
        let goal = vec![1u8; 4];
        assert_eq!(w.goal_fitness(&goal), 1.0);
        assert_eq!(u.goal_fitness(&goal), 1.0);
        assert_eq!(e.goal_fitness(&goal), 1.0);
    }
}
