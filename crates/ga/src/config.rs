//! GA configuration: every knob from the paper's Tables 1 and 3 plus the
//! ambiguity-resolution and extension options called out in DESIGN.md.

use serde::{Deserialize, Serialize};

/// Which crossover mechanism to use (paper §3.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CrossoverKind {
    /// One-point crossover with independently chosen cut points on each
    /// parent. Cheap, but the suffix genes decode against a different state
    /// after the swap.
    #[default]
    Random,
    /// The paper's novel mechanism: the second parent's cut point is
    /// restricted to loci whose decode state *matches* the first cut's
    /// state, so the exchanged suffixes keep their meaning. When no matching
    /// locus exists the parents pass through unchanged.
    StateAware,
    /// Try state-aware; if no matching cut point exists, fall back to a
    /// random second cut point.
    Mixed,
    /// Extension (not in the paper): two-point crossover with independent
    /// cut pairs — included for ablation.
    TwoPoint,
}

impl CrossoverKind {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            CrossoverKind::Random => "random",
            CrossoverKind::StateAware => "state-aware",
            CrossoverKind::Mixed => "mixed",
            CrossoverKind::TwoPoint => "two-point",
        }
    }
}

/// How two decode states are considered "matching" for state-aware
/// crossover. The paper requires that "the same genetic code will be mapped
/// to the same sequence of operations from these two states".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum StateMatchMode {
    /// Full state identity (by signature). Sound and conservative: equal
    /// states trivially decode any suffix identically — but exact matches
    /// are so rare in large state spaces that state-aware crossover
    /// degenerates to no-op pass-through (measured in Ext-F3).
    ExactState,
    /// Match on the *valid-operation set* of the state. This satisfies the
    /// paper's wording for the immediately following gene (it maps to the
    /// same operation) though not transitively; matches are plentiful
    /// (e.g. tile boards share a valid-op set whenever the blank sits in
    /// the same cell class), which is what makes state-aware crossover an
    /// active operator. Default, per the EXPERIMENTS.md calibration.
    #[default]
    ValidOpSet,
}

/// Which state of the decoded plan the goal fitness `F_goal` scores.
///
/// The paper's §3.3 says the goal fitness "evaluates the quality of
/// matching between the final state of the solution and the goal state",
/// but is silent on whether a plan that *passes through* the goal counts as
/// a solution (its prefix trivially is one). The two readings differ
/// sharply in search dynamics — see EXPERIMENTS.md's calibration note.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GoalEval {
    /// Score the state after the last decoded operation (strict reading).
    #[default]
    FinalState,
    /// Score the best state visited along the plan. A plan passing through
    /// the goal then scores 1.0, and its prefix up to the goal hit is the
    /// reported solution (combine with `truncate_at_goal`).
    BestPrefix,
}

/// Parent-selection scheme (§3.4.1 uses tournament with size 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionScheme {
    /// Pick `k` individuals uniformly with replacement; the fittest wins.
    Tournament(u32),
    /// Fitness-proportional (roulette-wheel) selection. Extension.
    Roulette,
    /// Linear-rank selection. Extension.
    Rank,
}

impl Default for SelectionScheme {
    fn default() -> Self {
        SelectionScheme::Tournament(2) // paper: "Tournament (2)"
    }
}

/// Weights of the fitness components (paper Eq. 3–4). The match-fitness
/// component is identically 1 under indirect encoding, so only the goal and
/// cost weights matter (the paper drops the match term for the same reason).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitnessWeights {
    /// Weight of the goal fitness `F_goal`. Paper: 0.9.
    pub goal: f64,
    /// Weight of the cost fitness `F_cost`. Paper: 0.1.
    pub cost: f64,
}

impl Default for FitnessWeights {
    fn default() -> Self {
        FitnessWeights { goal: 0.9, cost: 0.1 }
    }
}

impl FitnessWeights {
    /// Validate: weights must be non-negative and sum to 1 (paper: "where
    /// w1 and w2 are weights and w1 + w2 = 1").
    pub fn validate(&self) -> Result<(), String> {
        if self.goal < 0.0 || self.cost < 0.0 {
            return Err(format!("negative fitness weight: goal={} cost={}", self.goal, self.cost));
        }
        if (self.goal + self.cost - 1.0).abs() > 1e-9 {
            return Err(format!("fitness weights must sum to 1 (goal={} cost={})", self.goal, self.cost));
        }
        Ok(())
    }
}

/// How the cost fitness `F_cost` is computed.
///
/// The paper's Eq. 2 (the unit-cost case) is illegible in the surviving
/// text. Two standard readings exist: `1/len` and `1 − len/MaxLen`. The
/// reciprocal reading creates an *empty-plan attractor*: near the goal, a
/// zero-length plan (cost fitness 1) outscores any plan that makes real
/// progress, so multi-phase search stalls — which contradicts the paper's
/// reported 92–96% tile solve rates. The linear reading has no such trap,
/// so it is the default; the reciprocal is kept and ablated (Ext-F5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CostFitnessMode {
    /// `F_cost = 1 − len/MaxLen` (clamped to `[0, 1]`): linear in plan
    /// length, normalized by the configured `MaxLen`.
    #[default]
    LinearLength,
    /// `F_cost = 1 / len(plan)`; an empty plan scores 1. See the enum docs
    /// for why this reading is rejected as the default.
    InverseLength,
    /// General-cost analogue used by the grid domain: `F_cost = 1 / (1 +
    /// total_cost)`, monotone decreasing in cost and equal to 1 at zero cost.
    InverseCost,
    /// Ignore cost entirely (`F_cost = 0`); used in ablations.
    Zero,
}

/// Full GA configuration.
///
/// Defaults reproduce the shared parameter block of the paper's Tables 1
/// and 3: population 200, 500 generations, crossover rate 0.9, mutation rate
/// 0.01, tournament(2), weights 0.9/0.1, 5 phases.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaConfig {
    /// Number of individuals per generation. Paper: 200.
    pub population_size: usize,
    /// Generations evolved within one phase. Paper: 500 single-phase, 100
    /// per phase in the multi-phase runs.
    pub generations_per_phase: u32,
    /// Maximum number of phases (paper: 5). `1` gives the single-phase GA.
    pub max_phases: u32,
    /// Crossover mechanism.
    pub crossover: CrossoverKind,
    /// Probability that a selected pair undergoes crossover. Paper: 0.9.
    pub crossover_rate: f64,
    /// Per-gene mutation probability. Paper: 0.01.
    pub mutation_rate: f64,
    /// Number of best individuals copied unchanged into the next
    /// generation. The paper does not state its elitism policy, but its
    /// reported convergence speeds (e.g. a valid 5-disk Hanoi solution after
    /// 43 generations on average) are unattainable when crossover at rate
    /// 0.9 can destroy every copy of the best individual; keeping one elite
    /// reproduces the paper's convergence regime (see EXPERIMENTS.md
    /// calibration note). Set to 0 for strict generational replacement.
    pub elitism: usize,
    /// Extension: probability (per individual) of a length mutation that
    /// inserts or deletes one gene. 0 disables (paper behaviour).
    pub length_mutation_rate: f64,
    /// Parent-selection scheme. Paper: tournament(2).
    pub selection: SelectionScheme,
    /// Fitness weights. Paper: goal 0.9, cost 0.1.
    pub weights: FitnessWeights,
    /// Cost-fitness mode (Eq. 2 by default).
    pub cost_fitness: CostFitnessMode,
    /// Nominal length of the randomly generated initial individuals (§3.2:
    /// "The lengths of the initial population of solutions are set to
    /// reasonable values" — the experiments use the optimal length for
    /// Hanoi and an `n² log n²` bound for the tile puzzle).
    pub initial_len: usize,
    /// Relative half-width of the initial length distribution: individual
    /// lengths are drawn uniformly from `[initial_len·(1−s), initial_len·(1+s)]`
    /// (clamped to `[1, max_len]`). A spread matters because plan length can
    /// only change through crossover cut points afterwards — with all-equal
    /// (say, odd) lengths, domains whose goal distance has a parity (the
    /// tile puzzle) start in a trap where no individual can end on the
    /// goal. Default 0.5.
    pub initial_len_spread: f64,
    /// Upper bound `MaxLen` on individual length (§3.1). Crossover children
    /// are truncated to this length.
    pub max_len: usize,
    /// How the goal fitness samples the decoded trajectory.
    pub goal_eval: GoalEval,
    /// If true, decoding stops as soon as the goal state is reached, so
    /// genes past the first goal hit are ignored. The paper's formal
    /// definition scores the *final* state, so this defaults to false; the
    /// toggle is ablated in EXPERIMENTS.md.
    pub truncate_at_goal: bool,
    /// State-matching rule for state-aware crossover.
    pub state_match: StateMatchMode,
    /// Stop a phase as soon as some individual solves the problem. The paper
    /// reports sub-budget generation counts for the single-phase GA
    /// (e.g. 42.9 avg for 5 disks) but phase-multiples for the multi-phase
    /// GA, so [`crate::MultiPhase`] sets this automatically; it is exposed
    /// for single-phase use.
    pub early_stop_on_solution: bool,
    /// Memoize `valid_operations` results in a shared [`SuccessorCache`]
    /// keyed by state signature. Pure optimization: decoded plans, fitness
    /// trajectories and traces are identical with the cache on or off.
    ///
    /// [`SuccessorCache`]: gaplan_core::SuccessorCache
    pub succ_cache: bool,
    /// Successor-cache capacity in entries (bounded; direct-mapped eviction
    /// beyond this).
    pub succ_cache_capacity: usize,
    /// Master RNG seed; every run derived from a config is reproducible.
    pub seed: u64,
    /// Number of islands (independently evolving sub-populations) per
    /// phase. `1` is the paper's single-population GA and the default; `K >
    /// 1` splits `population_size` into `K` equal blocks, each with its own
    /// seed-derived RNG stream, exchanging individuals by deterministic
    /// ring migration every [`GaConfig::migration_interval`] generations.
    pub islands: u32,
    /// Generations between migrations (ignored when `islands == 1`).
    pub migration_interval: u32,
    /// Individuals each island emits to its ring neighbour per migration
    /// (its top-E by fitness replace the neighbour's worst-E).
    pub emigrants: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population_size: 200,
            generations_per_phase: 100,
            max_phases: 5,
            crossover: CrossoverKind::Random,
            crossover_rate: 0.9,
            mutation_rate: 0.01,
            elitism: 1,
            length_mutation_rate: 0.0,
            selection: SelectionScheme::default(),
            weights: FitnessWeights::default(),
            cost_fitness: CostFitnessMode::default(),
            initial_len: 32,
            initial_len_spread: 0.5,
            max_len: 128,
            goal_eval: GoalEval::BestPrefix,
            truncate_at_goal: true,
            state_match: StateMatchMode::default(),
            early_stop_on_solution: false,
            succ_cache: true,
            succ_cache_capacity: gaplan_core::succ::DEFAULT_CAPACITY,
            seed: 0x9a_9a_9a,
            islands: 1,
            migration_interval: 10,
            emigrants: 2,
        }
    }
}

impl GaConfig {
    /// Validate parameter ranges; returns a human-readable error message.
    pub fn validate(&self) -> Result<(), String> {
        if self.population_size < 2 {
            return Err("population_size must be at least 2".into());
        }
        if self.elitism >= self.population_size {
            return Err(format!(
                "elitism ({}) must be smaller than the population ({})",
                self.elitism, self.population_size
            ));
        }
        if self.generations_per_phase == 0 {
            return Err("generations_per_phase must be positive".into());
        }
        if self.max_phases == 0 {
            return Err("max_phases must be positive".into());
        }
        for (name, v) in [
            ("crossover_rate", self.crossover_rate),
            ("mutation_rate", self.mutation_rate),
            ("length_mutation_rate", self.length_mutation_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if let SelectionScheme::Tournament(k) = self.selection {
            if k == 0 {
                return Err("tournament size must be positive".into());
            }
        }
        self.weights.validate()?;
        if self.initial_len == 0 {
            return Err("initial_len must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.initial_len_spread) {
            return Err(format!("initial_len_spread must be in [0, 1], got {}", self.initial_len_spread));
        }
        if self.max_len < self.initial_len {
            return Err(format!("max_len ({}) must be >= initial_len ({})", self.max_len, self.initial_len));
        }
        if self.islands == 0 {
            return Err("islands must be at least 1".into());
        }
        if self.islands > 1 {
            let k = self.islands as usize;
            if !self.population_size.is_multiple_of(k) {
                return Err(format!("population_size ({}) must be divisible by islands ({k})", self.population_size));
            }
            let per_island = self.population_size / k;
            if per_island < 2 {
                return Err(format!("per-island population ({per_island}) must be at least 2"));
            }
            if self.elitism >= per_island {
                return Err(format!(
                    "elitism ({}) must be smaller than the per-island population ({per_island})",
                    self.elitism
                ));
            }
            if self.migration_interval == 0 {
                return Err("migration_interval must be positive".into());
            }
            if self.emigrants >= per_island {
                return Err(format!(
                    "emigrants ({}) must be smaller than the per-island population ({per_island})",
                    self.emigrants
                ));
            }
        }
        Ok(())
    }

    /// The paper's single-phase configuration: one phase of 500 generations
    /// with early stopping at the first valid solution.
    pub fn single_phase(mut self) -> Self {
        self.max_phases = 1;
        self.generations_per_phase = 500;
        self.early_stop_on_solution = true;
        self
    }

    /// The paper's multi-phase configuration: up to 5 phases of 100
    /// generations each; each phase runs its full budget.
    pub fn multi_phase(mut self) -> Self {
        self.max_phases = 5;
        self.generations_per_phase = 100;
        self.early_stop_on_solution = false;
        self
    }

    /// Scale the per-run search budget (population × generations) by
    /// `factor`, clamped to `(0, 1]`, flooring both knobs so the result is
    /// still a valid GA: at least one generation per phase, and a
    /// population no smaller than 8 (and always larger than `elitism`, or
    /// [`GaConfig::validate`] would reject it). The GA is an anytime
    /// algorithm, so a scaled budget trades plan quality for latency —
    /// this is the knob the planning service's brownout controller turns
    /// under overload.
    pub fn scale_budget(&self, factor: f64) -> GaConfig {
        let f = factor.clamp(0.0, 1.0);
        let mut cfg = self.clone();
        let pop_floor = (self.elitism + 1).max(8).min(self.population_size.max(2));
        cfg.population_size = ((self.population_size as f64 * f) as usize).max(pop_floor);
        cfg.generations_per_phase = ((self.generations_per_phase as f64 * f) as u32).max(1);
        cfg
    }

    /// Stable 64-bit signature of every config field that can change a
    /// run's *result* — used (combined with the problem signature) as the
    /// planning service's plan-cache key. `succ_cache` and
    /// `succ_cache_capacity` are deliberately excluded: evaluation is
    /// deterministic by contract, so cached and uncached runs of the same
    /// config produce the same plan.
    pub fn signature(&self) -> u64 {
        let mut s = gaplan_core::sig::SigBuilder::new();
        s.tag("ga-config-v1");
        s.tag("pop").usize(self.population_size);
        s.tag("gens").u32(self.generations_per_phase);
        s.tag("phases").u32(self.max_phases);
        s.tag("xover").str(self.crossover.name());
        s.tag("xover-rate").f64(self.crossover_rate);
        s.tag("mut-rate").f64(self.mutation_rate);
        s.tag("elitism").usize(self.elitism);
        s.tag("len-mut").f64(self.length_mutation_rate);
        s.tag("select");
        match self.selection {
            SelectionScheme::Tournament(k) => s.str("tournament").u32(k),
            SelectionScheme::Roulette => s.str("roulette"),
            SelectionScheme::Rank => s.str("rank"),
        };
        s.tag("weights").f64(self.weights.goal).f64(self.weights.cost);
        s.tag("cost-fitness").u32(match self.cost_fitness {
            CostFitnessMode::LinearLength => 0,
            CostFitnessMode::InverseLength => 1,
            CostFitnessMode::InverseCost => 2,
            CostFitnessMode::Zero => 3,
        });
        s.tag("init-len").usize(self.initial_len).f64(self.initial_len_spread);
        s.tag("max-len").usize(self.max_len);
        s.tag("goal-eval").bool(self.goal_eval == GoalEval::BestPrefix);
        s.tag("truncate").bool(self.truncate_at_goal);
        s.tag("state-match").bool(self.state_match == StateMatchMode::ValidOpSet);
        s.tag("early-stop").bool(self.early_stop_on_solution);
        s.tag("seed").u64(self.seed);
        // Island knobs participate only when the model is actually on:
        // `islands == 1` must keep the signature every existing cache entry
        // and checkpoint was stamped with (migration knobs are inert there).
        if self.islands > 1 {
            s.tag("islands").u32(self.islands);
            s.tag("migrate-every").u32(self.migration_interval);
            s.tag("emigrants").usize(self.emigrants);
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_tables() {
        let c = GaConfig::default();
        assert_eq!(c.population_size, 200);
        assert_eq!(c.crossover_rate, 0.9);
        assert_eq!(c.mutation_rate, 0.01);
        assert_eq!(c.selection, SelectionScheme::Tournament(2));
        assert_eq!(c.weights.goal, 0.9);
        assert_eq!(c.weights.cost, 0.1);
        assert_eq!(c.max_phases, 5);
        c.validate().unwrap();
    }

    #[test]
    fn presets_configure_phases() {
        let s = GaConfig::default().single_phase();
        assert_eq!(s.max_phases, 1);
        assert_eq!(s.generations_per_phase, 500);
        assert!(s.early_stop_on_solution);
        let m = GaConfig::default().multi_phase();
        assert_eq!(m.max_phases, 5);
        assert_eq!(m.generations_per_phase, 100);
        assert!(!m.early_stop_on_solution);
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let c = GaConfig { crossover_rate: 1.5, ..GaConfig::default() };
        assert!(c.validate().is_err());
        let c = GaConfig { mutation_rate: -0.1, ..GaConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_weights() {
        let c = GaConfig { weights: FitnessWeights { goal: 0.5, cost: 0.1 }, ..GaConfig::default() };
        assert!(c.validate().is_err());
        let c = GaConfig { weights: FitnessWeights { goal: -0.5, cost: 1.5 }, ..GaConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_sizes() {
        let c = GaConfig { population_size: 1, ..GaConfig::default() };
        assert!(c.validate().is_err());
        let c = GaConfig { initial_len: 10, max_len: 5, ..GaConfig::default() };
        assert!(c.validate().is_err());
        let c = GaConfig { selection: SelectionScheme::Tournament(0), ..GaConfig::default() };
        assert!(c.validate().is_err());
        let c = GaConfig { elitism: 300, ..GaConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn scale_budget_shrinks_with_floors() {
        let base = GaConfig { population_size: 200, generations_per_phase: 100, ..GaConfig::default() };
        let half = base.scale_budget(0.5);
        assert_eq!(half.population_size, 100);
        assert_eq!(half.generations_per_phase, 50);
        assert!(half.validate().is_ok());
        // A tiny factor bottoms out at the floors, never at an invalid GA.
        let floor = base.scale_budget(0.001);
        assert_eq!(floor.generations_per_phase, 1);
        assert!(floor.population_size >= 8);
        assert!(floor.population_size > floor.elitism);
        assert!(floor.validate().is_ok());
        // Factor 1 (and anything above) is the identity on the budget.
        let same = base.scale_budget(1.5);
        assert_eq!(same.population_size, 200);
        assert_eq!(same.generations_per_phase, 100);
    }

    #[test]
    fn crossover_names() {
        assert_eq!(CrossoverKind::Random.name(), "random");
        assert_eq!(CrossoverKind::StateAware.name(), "state-aware");
        assert_eq!(CrossoverKind::Mixed.name(), "mixed");
        assert_eq!(CrossoverKind::TwoPoint.name(), "two-point");
    }

    #[test]
    fn signature_ignores_cache_knobs() {
        let base = GaConfig::default();
        let uncached = GaConfig { succ_cache: false, succ_cache_capacity: 8, ..base.clone() };
        assert_eq!(base.signature(), uncached.signature());
        let different = GaConfig { seed: base.seed + 1, ..base.clone() };
        assert_ne!(base.signature(), different.signature());
    }

    #[test]
    fn validate_rejects_bad_island_configs() {
        let ok = GaConfig { islands: 4, ..GaConfig::default() };
        ok.validate().unwrap();
        let c = GaConfig { islands: 0, ..GaConfig::default() };
        assert!(c.validate().is_err());
        // 200 % 3 != 0
        let c = GaConfig { islands: 3, ..GaConfig::default() };
        assert!(c.validate().is_err());
        // per-island population of 1
        let c = GaConfig { islands: 4, population_size: 4, ..GaConfig::default() };
        assert!(c.validate().is_err());
        // elitism must fit inside one island
        let c = GaConfig { islands: 4, population_size: 8, elitism: 2, ..GaConfig::default() };
        assert!(c.validate().is_err());
        let c = GaConfig { islands: 2, migration_interval: 0, ..GaConfig::default() };
        assert!(c.validate().is_err());
        // emigrants must leave at least one resident per island
        let c = GaConfig { islands: 2, population_size: 8, emigrants: 4, ..GaConfig::default() };
        assert!(c.validate().is_err());
        // all island knobs are inert at islands == 1
        let c = GaConfig { islands: 1, migration_interval: 0, emigrants: 10_000, ..GaConfig::default() };
        c.validate().unwrap();
    }

    #[test]
    fn signature_island_knobs() {
        let base = GaConfig::default();
        // islands == 1 keeps the pre-island signature regardless of the
        // (inert) migration knobs, so existing cache keys stay valid.
        let one = GaConfig { islands: 1, migration_interval: 99, emigrants: 7, ..base.clone() };
        assert_eq!(base.signature(), one.signature());
        // K > 1 changes results, so it must change the signature...
        let four = GaConfig { islands: 4, ..base.clone() };
        assert_ne!(base.signature(), four.signature());
        // ...and so do the migration knobs once islands are on.
        let faster = GaConfig { migration_interval: 5, ..four.clone() };
        assert_ne!(four.signature(), faster.signature());
        let heavier = GaConfig { emigrants: 5, ..four.clone() };
        assert_ne!(four.signature(), heavier.signature());
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = GaConfig::default().multi_phase();
        let json = serde_json::to_string(&c).unwrap();
        let back: GaConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.population_size, c.population_size);
        assert_eq!(back.crossover, c.crossover);
        assert_eq!(back.max_phases, c.max_phases);
    }
}
