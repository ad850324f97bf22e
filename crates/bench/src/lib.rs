#![warn(missing_docs)]

//! # gaplan-bench
//!
//! The experiment harness: one function per table and figure of the paper,
//! plus the extension experiments listed in DESIGN.md. The `tables` binary
//! is a thin CLI over this library; integration tests call the same
//! functions with reduced budgets.

pub mod baseline_exp;
pub mod chaos_exp;
pub mod figures;
pub mod grid_exp;
pub mod hanoi_exp;
pub mod history_exp;
pub mod metaheuristic_exp;
pub mod runner;
pub mod seeding_exp;
pub mod sensitivity_exp;
pub mod table;
pub mod tile_exp;

use gaplan_core::strips::StripsProblem;
use gaplan_domains::{Hanoi, SlidingTile};
use gaplan_ga::rng::derive_seed;
use gaplan_ga::GaConfig;
use gaplan_grid::GridWorld;
use gaplan_problem::{BuiltProblem, GaOverrides, ProblemSpec};
use table::TextTable;

/// An experiment: regenerate one table (or the figures) at a scale.
pub type Experiment = fn(&ExpScale) -> TextTable;

/// Every experiment `tables` can run, by name, in the order `all` runs
/// them. `history` comes last: it is the one experiment `all` leaves out,
/// since its per-generation rows are plot data rather than a result table.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("figures", figures::figures),
    ("table1", hanoi_exp::table1),
    ("table2", hanoi_exp::table2),
    ("table3", tile_exp::table3),
    ("table4", tile_exp::table4),
    ("table5", tile_exp::table5),
    ("ext-crossover-hanoi", hanoi_exp::ext_crossover_hanoi),
    ("ext-fitness", hanoi_exp::ext_fitness),
    ("ext-phases", hanoi_exp::ext_phases),
    ("ext-baselines-hanoi", baseline_exp::ext_baselines_hanoi),
    ("ext-baselines-tile", baseline_exp::ext_baselines_tile),
    ("ext-baselines-strips", baseline_exp::ext_baselines_strips),
    ("ext-grid", grid_exp::ext_grid),
    ("ext-grid-climate", grid_exp::ext_grid_climate),
    ("ext-chaos", chaos_exp::ext_chaos),
    ("ext-mutation", sensitivity_exp::ext_mutation),
    ("ext-selection", sensitivity_exp::ext_selection),
    ("ext-state-match", sensitivity_exp::ext_state_match),
    ("ext-goal-eval", sensitivity_exp::ext_goal_eval),
    ("ext-elitism", sensitivity_exp::ext_elitism),
    ("ext-cost-fitness", sensitivity_exp::ext_cost_fitness),
    ("ext-seeding", seeding_exp::ext_seeding),
    ("ext-metaheuristics-hanoi", metaheuristic_exp::ext_metaheuristics_hanoi),
    ("ext-metaheuristics-tile", metaheuristic_exp::ext_metaheuristics_tile),
    ("history", history_exp::history),
];

/// Names that stand for several experiments. A group named like an
/// experiment (`ext-grid`) takes precedence over it; `all` is every
/// registered experiment but `history`.
pub const GROUPS: &[(&str, &[&str])] = &[
    ("paper", &["figures", "table1", "table2", "table3", "table4", "table5"]),
    ("ext-baselines", &["ext-baselines-hanoi", "ext-baselines-tile", "ext-baselines-strips"]),
    (
        "ext-sensitivity",
        &["ext-mutation", "ext-selection", "ext-state-match", "ext-goal-eval", "ext-elitism", "ext-cost-fitness"],
    ),
    ("ext-grid", &["ext-grid", "ext-grid-climate"]),
    ("ext-metaheuristics", &["ext-metaheuristics-hanoi", "ext-metaheuristics-tile"]),
];

/// The experiments a `tables` command names, in run order: `all`, a
/// group's members, or the one experiment of that name. `None` for a name
/// that is none of these.
pub fn resolve(name: &str) -> Option<Vec<(&'static str, Experiment)>> {
    let find = |n: &str| EXPERIMENTS.iter().copied().find(|(e, _)| *e == n);
    if name == "all" {
        return Some(EXPERIMENTS.iter().copied().filter(|(e, _)| *e != "history").collect());
    }
    match GROUPS.iter().find(|(g, _)| *g == name) {
        Some((_, members)) => members.iter().map(|m| find(m)).collect(),
        None => find(name).map(|e| vec![e]),
    }
}

/// Shared experiment scaling knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExpScale {
    /// Runs per configuration (paper: 10 for Hanoi, 50 for tiles).
    pub runs: usize,
    /// Generation budget multiplier in (0, 1]; 1.0 reproduces the paper,
    /// smaller values give quick smoke runs.
    pub budget: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExpScale {
    fn default() -> Self {
        ExpScale {
            runs: 0, // 0 = per-experiment paper default
            budget: 1.0,
            seed: 0x1dd5_2003,
        }
    }
}

impl ExpScale {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ExpScale { runs: 3, budget: 0.2, seed: 0x1dd5_2003 }
    }

    /// Runs to execute, given the paper's default for this experiment.
    pub fn runs_or(&self, paper_default: usize) -> usize {
        if self.runs == 0 {
            paper_default
        } else {
            self.runs
        }
    }

    /// Scale a generation budget.
    pub fn gens(&self, paper_default: u32) -> u32 {
        ((f64::from(paper_default) * self.budget).round() as u32).max(5)
    }

    /// The GA config of one experiment cell: `vary` (the knobs the cell
    /// sets) on the problem's base config, then this scale's seed and
    /// generation budget — applied here once — through the problem model's
    /// size-checked [`GaOverrides::resolve`].
    pub fn config<D>(&self, problem: &Built<D>, vary: impl FnOnce(&mut GaConfig)) -> GaConfig {
        let mut cfg = problem.base.clone();
        vary(&mut cfg);
        let scaled = GaOverrides {
            generations: Some(self.gens(cfg.generations_per_phase)),
            seed: Some(self.seed),
            ..GaOverrides::default()
        };
        scaled.resolve(cfg).expect("experiment configs are within the problem model's limits")
    }

    /// The fixed `side`×`side` tile instance of Tables 4–5 for this master
    /// seed (see [`tile_exp`] for why the instance is fixed).
    pub fn tile(&self, side: usize) -> Built<SlidingTile> {
        let built = build(ProblemSpec::Tile { side, shuffle_seed: derive_seed(self.seed, 0xB0A7D + side as u64) });
        let base = built.default_config();
        let BuiltProblem::Tile { domain, .. } = built else { unreachable!("a tile spec builds a tile puzzle") };
        Built { domain, base }
    }
}

/// An experiment problem built through the problem model: the concrete
/// domain (so [`runner::run_batch`] and the baselines stay monomorphic) and
/// the config its cells start from.
pub struct Built<D> {
    /// The planning domain.
    pub domain: D,
    /// [`BuiltProblem::default_config`], under the experiment's run-shape
    /// overrides if it has any.
    pub base: GaConfig,
}

fn build(spec: ProblemSpec) -> BuiltProblem {
    spec.build().expect("experiment problems are in the model's range")
}

/// Towers of Hanoi with `disks` disks at the model's defaults.
pub fn hanoi(disks: usize) -> Built<Hanoi> {
    let built = build(ProblemSpec::Hanoi { disks });
    let base = built.default_config();
    let BuiltProblem::Hanoi { domain, .. } = built else { unreachable!("a Hanoi spec builds Hanoi") };
    Built { domain, base }
}

/// A generated STRIPS problem with `overrides` on the model's defaults.
pub fn strips(problem: StripsProblem, overrides: GaOverrides) -> Built<StripsProblem> {
    let built = BuiltProblem::Strips(Box::new(problem));
    let base = overrides.apply(built.default_config());
    let BuiltProblem::Strips(domain) = built else { unreachable!() };
    Built { domain: *domain, base }
}

/// An in-process grid world with `overrides` on the model's defaults.
pub fn grid(world: GridWorld, overrides: GaOverrides) -> Built<GridWorld> {
    let built = BuiltProblem::Grid(Box::new(world));
    let base = overrides.apply(built.default_config());
    let BuiltProblem::Grid(domain) = built else { unreachable!() };
    Built { domain: *domain, base }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_all_leaves_out_only_history() {
        for name in EXPERIMENTS.iter().map(|(n, _)| n).chain(GROUPS.iter().map(|(g, _)| g)) {
            assert!(resolve(name).is_some(), "{name} does not resolve");
        }
        let all: Vec<&str> = resolve("all").unwrap().iter().map(|(n, _)| *n).collect();
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).filter(|n| *n != "history").collect();
        assert_eq!(all, registered);
        assert_eq!(resolve("ext-grid").unwrap().len(), 2, "the ext-grid group shadows the experiment");
        assert!(resolve("no-such-table").is_none());
    }
}
