//! `gaplan-problem` — the problem model the planning service, the `gaplan`
//! CLI and the `tables` harness all build through. A [`ProblemSpec`] is
//! range-checked and built into a [`BuiltProblem`], which owns the paper's
//! per-domain run shape ([`BuiltProblem::default_config`]) and a stable
//! [`BuiltProblem::signature`]; [`GaOverrides::resolve`] is the one
//! size-checked way a run's [`GaConfig`] is made from those defaults. DSL
//! pairs compile through a process-wide memo ([`ground`]).

#![warn(missing_docs)]

pub mod ground;

use std::sync::Arc;

use gaplan_core::strips::{parse_strips, StripsProblem};
use gaplan_core::{Budget, Domain, DynDomain, DynState, SigBuilder, StopCause, SuccessorCache};
use gaplan_domains::{Hanoi, SlidingTile};
use gaplan_ga::{CostFitnessMode, CrossoverKind, GaConfig, MultiPhase};
use gaplan_grid::{parse_grid, GridWorld};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A problem the service knows how to build, as it appears on the wire.
///
/// Externally tagged JSON, e.g. `{"Hanoi":{"disks":4}}` or
/// `{"Strips":{"text":"..."}}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProblemSpec {
    /// Towers of Hanoi with `disks` disks (three pegs).
    Hanoi {
        /// Number of disks.
        disks: usize,
    },
    /// A `side`×`side` sliding-tile puzzle, shuffled into a random solvable
    /// configuration derived deterministically from `shuffle_seed`.
    Tile {
        /// Board side length (3 → the 8-puzzle).
        side: usize,
        /// Seed for the solvable-instance shuffle.
        shuffle_seed: u64,
    },
    /// A STRIPS problem in the `gaplan-core` text format.
    Strips {
        /// Problem source text.
        text: String,
    },
    /// A grid workflow-planning problem in the `gaplan-grid` text format.
    Grid {
        /// World source text.
        text: String,
    },
    /// A typed `gaplan-lang` DSL pair: domain and problem source texts,
    /// compiled (parse → type check → ground) into a STRIPS problem.
    /// Grounding is memoized per source-text signature (see [`ground`]), so
    /// resubmitting a hot domain skips the compile.
    Dsl {
        /// Domain file source text.
        domain: String,
        /// Problem file source text.
        problem: String,
    },
    /// Fault-injection job for chaos testing the planning service: panics on
    /// the first `fail_attempts` execution attempts, then succeeds
    /// trivially. With `kill_worker` the panic is raised *outside* the
    /// worker's `catch_unwind`, killing the worker thread — exercising the
    /// supervisor's respawn path.
    Chaos {
        /// Attempts (0-based) that panic before one succeeds.
        fail_attempts: u32,
        /// Panic outside the catch, taking the whole worker thread down.
        kill_worker: bool,
    },
}

impl ProblemSpec {
    /// Build the concrete domain value. Errors are parse/validation
    /// messages, suitable as a reply's error text. Uncounted (see
    /// [`ProblemSpec::build_with`]).
    pub fn build(&self) -> Result<BuiltProblem, String> {
        self.build_with(false).0
    }

    /// [`ProblemSpec::build`], with the `Dsl` ground-memo lookup counted
    /// or not. A counted lookup reports whether it was a hit or a miss (see
    /// [`ground::ground_cached`]); the service counts one lookup per
    /// request this way and probes (cache-key computation) uncounted.
    pub fn build_with(&self, counted: bool) -> (Result<BuiltProblem, String>, Option<ground::GroundLookup>) {
        let built = match self {
            ProblemSpec::Hanoi { disks } if (1..=20).contains(disks) => {
                Ok(BuiltProblem::Hanoi { domain: Hanoi::new(*disks), disks: *disks })
            }
            ProblemSpec::Hanoi { disks } => Err(format!("hanoi disks must be in 1..=20, got {disks}")),
            ProblemSpec::Tile { side, shuffle_seed } if (2..=6).contains(side) => {
                let mut rng = StdRng::seed_from_u64(*shuffle_seed);
                Ok(BuiltProblem::Tile {
                    domain: SlidingTile::random_solvable(*side, &mut rng),
                    side: *side,
                    shuffle_seed: *shuffle_seed,
                })
            }
            ProblemSpec::Tile { side, .. } => Err(format!("tile side must be in 2..=6, got {side}")),
            ProblemSpec::Strips { text } => {
                parse_strips(text).map(|p| BuiltProblem::Strips(Box::new(p))).map_err(|e| e.to_string())
            }
            ProblemSpec::Grid { text } => {
                parse_grid(text).map(|w| BuiltProblem::Grid(Box::new(w))).map_err(|e| e.to_string())
            }
            ProblemSpec::Dsl { domain, problem } => {
                let (grounded, lookup) = ground::ground_cached(domain, problem, counted);
                return (grounded.map(BuiltProblem::Dsl), lookup);
            }
            ProblemSpec::Chaos { fail_attempts, kill_worker } => {
                Ok(BuiltProblem::Chaos { fail_attempts: *fail_attempts, kill_worker: *kill_worker })
            }
        };
        (built, None)
    }
}

/// A spec built into the concrete domain the GA runs against.
#[derive(Debug, Clone)]
pub enum BuiltProblem {
    /// Towers of Hanoi.
    Hanoi {
        /// The domain.
        domain: Hanoi,
        /// Disk count, retained for the signature.
        disks: usize,
    },
    /// Sliding-tile puzzle.
    Tile {
        /// The domain.
        domain: SlidingTile,
        /// Side length, retained for the signature.
        side: usize,
        /// Shuffle seed, retained for the signature.
        shuffle_seed: u64,
    },
    /// Parsed STRIPS problem.
    Strips(Box<StripsProblem>),
    /// Parsed (or in-process) grid world.
    Grid(Box<GridWorld>),
    /// A DSL pair compiled to ground STRIPS; the `Arc` is shared with the
    /// process-wide ground cache, so cloning a built problem is cheap.
    Dsl(Arc<StripsProblem>),
    /// Fault-injection job (see [`ProblemSpec::Chaos`]); handled specially
    /// by the service's worker, never cached.
    Chaos {
        /// Attempts (0-based) that panic before one succeeds.
        fail_attempts: u32,
        /// Panic outside the catch, killing the worker thread.
        kill_worker: bool,
    },
}

impl BuiltProblem {
    /// Stable signature of the *problem* (independent of GA config). For
    /// parameterised domains this hashes the generating parameters; for
    /// parsed domains it hashes the canonical problem structure, so two
    /// textually different but structurally identical files collide — which
    /// is exactly what the plan cache wants.
    pub fn signature(&self) -> u64 {
        match self {
            BuiltProblem::Hanoi { disks, .. } => {
                let mut s = SigBuilder::new();
                s.tag("hanoi-v1").usize(*disks);
                s.finish()
            }
            BuiltProblem::Tile { side, shuffle_seed, .. } => {
                let mut s = SigBuilder::new();
                s.tag("tile-v1").usize(*side).u64(*shuffle_seed);
                s.finish()
            }
            BuiltProblem::Strips(p) => p.signature(),
            BuiltProblem::Grid(w) => w.signature(),
            // Structural, like Strips: a DSL pair and a ground text file
            // that produce the same problem share one plan-cache slot.
            BuiltProblem::Dsl(p) => p.signature(),
            BuiltProblem::Chaos { fail_attempts, kill_worker } => {
                let mut s = SigBuilder::new();
                s.tag("chaos-v1").u32(*fail_attempts).bool(*kill_worker);
                s.finish()
            }
        }
    }

    /// The problem's GA defaults: the paper's run shape (see
    /// `base_config`) with the initial length its domain calls reasonable,
    /// multi-phase Hanoi, mixed crossover for tiles and cost-aware grid
    /// plans. Requests and CLI flags go on top through
    /// [`GaOverrides::resolve`].
    pub fn default_config(&self) -> GaConfig {
        match self {
            BuiltProblem::Hanoi { domain, .. } => base_config(domain.optimal_len()).multi_phase(),
            BuiltProblem::Tile { side, .. } => {
                let cells = (side * side) as f64;
                let mut cfg = base_config((cells * cells.log2()).ceil() as usize);
                cfg.crossover = CrossoverKind::Mixed;
                cfg
            }
            BuiltProblem::Strips(p) => base_config(16.max(Domain::num_operations(p.as_ref()))),
            BuiltProblem::Dsl(p) => base_config(16.max(Domain::num_operations(p.as_ref()))),
            BuiltProblem::Grid(_) => {
                let mut cfg = base_config(12);
                cfg.max_len = 32;
                cfg.cost_fitness = CostFitnessMode::InverseCost;
                cfg
            }
            BuiltProblem::Chaos { .. } => base_config(1),
        }
    }

    /// The planning domain behind an object-safe wrapper, or `None` for the
    /// [`BuiltProblem::Chaos`] pseudo-problem (which never plans).
    pub fn as_dyn(&self) -> Option<DynDomain<'_>> {
        match self {
            BuiltProblem::Hanoi { domain, .. } => Some(DynDomain::new(domain)),
            BuiltProblem::Tile { domain, .. } => Some(DynDomain::new(domain)),
            BuiltProblem::Strips(p) => Some(DynDomain::new(p.as_ref())),
            BuiltProblem::Grid(w) => Some(DynDomain::new(w.as_ref())),
            BuiltProblem::Dsl(p) => Some(DynDomain::new(p.as_ref())),
            BuiltProblem::Chaos { .. } => None,
        }
    }

    /// Run the multi-phase GA under `budget` and flatten the result into a
    /// domain-erased [`SolveOutcome`]. Equivalent to
    /// [`BuiltProblem::solve_with`] without a shared successor cache.
    pub fn solve(&self, cfg: &GaConfig, budget: Budget) -> SolveOutcome {
        self.solve_with(cfg, budget, None)
    }

    /// [`BuiltProblem::solve`], probing (and warming) `succ` — a successor
    /// cache shared across jobs and replans for the same problem. Every
    /// variant runs through one [`DynDomain`]-instantiated engine instead of
    /// a per-variant monomorphized copy.
    pub fn solve_with(
        &self,
        cfg: &GaConfig,
        budget: Budget,
        succ: Option<Arc<SuccessorCache<DynState>>>,
    ) -> SolveOutcome {
        match self.as_dyn() {
            Some(domain) => run_on(&domain, cfg, budget, succ),
            // Attempt accounting lives in the service's worker; reaching
            // the generic path means the injected fault budget is spent.
            None => SolveOutcome {
                solved: true,
                goal_fitness: 1.0,
                plan_names: Vec::new(),
                plan_ops: Vec::new(),
                total_generations: 0,
                stopped: None,
            },
        }
    }
}

/// The GA seed of every default config, and the `gaplan tile` shuffle seed
/// when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 2003;

/// The run shape every domain shares: [`GaConfig::default`]'s 200
/// individuals and 5 phases of 100 generations, [`DEFAULT_SEED`], and
/// `MaxLen` = 5 × the initial length.
fn base_config(initial_len: usize) -> GaConfig {
    GaConfig { initial_len, max_len: 5 * initial_len, seed: DEFAULT_SEED, ..GaConfig::default() }
}

fn run_on(
    domain: &DynDomain<'_>,
    cfg: &GaConfig,
    budget: Budget,
    succ: Option<Arc<SuccessorCache<DynState>>>,
) -> SolveOutcome {
    let mut mp = MultiPhase::new(domain, cfg.clone()).with_budget(budget);
    if let Some(cache) = succ {
        mp = mp.with_cache(cache);
    }
    let r = mp.run();
    SolveOutcome {
        solved: r.solved,
        goal_fitness: r.goal_fitness,
        plan_names: r.plan.ops().iter().map(|&op| domain.op_name(op)).collect(),
        plan_ops: r.plan.ops().iter().map(|op| op.0).collect(),
        total_generations: r.total_generations,
        stopped: r.stopped,
    }
}

/// Domain-erased summary of a finished (or budget-stopped) GA run.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Did the best plan reach the goal?
    pub solved: bool,
    /// Goal fitness of the best plan's final state.
    pub goal_fitness: f64,
    /// Human-readable operation names of the best plan.
    pub plan_names: Vec<String>,
    /// Raw operation ids of the best plan (for in-process callers that
    /// rebuild a [`gaplan_core::Plan`]).
    pub plan_ops: Vec<u32>,
    /// Generations evolved across all phases.
    pub total_generations: u32,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopCause>,
}

/// Most genes one generation may hold (`population × max_len`): 16 Mi,
/// above the default config of every Hanoi instance up to 14 disks. No
/// request, CLI run or experiment may claim more memory than this, since an
/// allocation failure is no panic a service worker can catch.
pub const MAX_GENES_PER_GENERATION: u64 = 1 << 24;

/// Most generations one run may take in total (`generations × phases`).
pub const MAX_TOTAL_GENERATIONS: u64 = 1 << 16;

/// GA overrides: a request's `ga` object, the CLI's GA flags, or an
/// experiment's run shape. Every field is optional; missing fields keep the
/// domain's default (see [`BuiltProblem::default_config`]).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GaOverrides {
    /// Population size per phase.
    pub population: Option<usize>,
    /// Generations per phase.
    pub generations: Option<u32>,
    /// Maximum number of phases.
    pub phases: Option<u32>,
    /// Initial genome length.
    pub initial_len: Option<usize>,
    /// Maximum genome length.
    pub max_len: Option<usize>,
    /// RNG seed.
    pub seed: Option<u64>,
}

impl GaOverrides {
    /// Apply the overrides on top of `cfg`, without the size limits (see
    /// [`GaOverrides::resolve`]). When `initial_len` is overridden but
    /// `max_len` is not, `max_len` is re-derived as `5 * initial_len`.
    pub fn apply(&self, mut cfg: GaConfig) -> GaConfig {
        if let Some(p) = self.population {
            cfg.population_size = p.max(2);
        }
        if let Some(g) = self.generations {
            cfg.generations_per_phase = g.max(1);
        }
        if let Some(p) = self.phases {
            cfg.max_phases = p.max(1);
        }
        if let Some(l) = self.initial_len {
            cfg.initial_len = l.max(1);
            if self.max_len.is_none() {
                cfg.max_len = cfg.initial_len.saturating_mul(5);
            }
        }
        if let Some(l) = self.max_len {
            cfg.max_len = l.max(cfg.initial_len);
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        cfg
    }

    /// The one way a run's [`GaConfig`] is made: [`GaOverrides::apply`]
    /// over `defaults`, refusing a config that fails
    /// [`GaConfig::validate`] or is larger than
    /// [`MAX_GENES_PER_GENERATION`] or [`MAX_TOTAL_GENERATIONS`]. Absent
    /// overrides resolve as `GaOverrides::default()`, so the limits hold
    /// for default configs too. The error names the limit.
    pub fn resolve(&self, defaults: GaConfig) -> Result<GaConfig, String> {
        let cfg = self.apply(defaults);
        let genes = (cfg.population_size as u64).saturating_mul(cfg.max_len as u64);
        if genes > MAX_GENES_PER_GENERATION {
            return Err(format!(
                "the GA config asks for {genes} genes per generation (population × max_len); \
                 the limit is {MAX_GENES_PER_GENERATION}"
            ));
        }
        let generations = u64::from(cfg.generations_per_phase) * u64::from(cfg.max_phases);
        if generations > MAX_TOTAL_GENERATIONS {
            return Err(format!(
                "the GA config asks for {generations} generations (generations × phases); \
                 the limit is {MAX_TOTAL_GENERATIONS}"
            ));
        }
        cfg.validate().map_err(|e| format!("invalid GA configuration: {e}"))?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_signature_distinguishes_parameters() {
        let h3 = ProblemSpec::Hanoi { disks: 3 }.build().unwrap();
        let h4 = ProblemSpec::Hanoi { disks: 4 }.build().unwrap();
        assert_ne!(h3.signature(), h4.signature());
        let t1 = ProblemSpec::Tile { side: 3, shuffle_seed: 1 }.build().unwrap();
        let t2 = ProblemSpec::Tile { side: 3, shuffle_seed: 2 }.build().unwrap();
        assert_ne!(t1.signature(), t2.signature());
        // Stable across builds.
        assert_eq!(h3.signature(), ProblemSpec::Hanoi { disks: 3 }.build().unwrap().signature());
    }

    #[test]
    fn overrides_rederive_max_len() {
        let cfg = GaOverrides { initial_len: Some(7), ..GaOverrides::default() }.apply(base_config(10));
        assert_eq!(cfg.initial_len, 7);
        assert_eq!(cfg.max_len, 35);
    }

    #[test]
    fn overrides_past_the_size_limits_are_refused() {
        let hanoi4 = ProblemSpec::Hanoi { disks: 4 }.build().unwrap().default_config();
        let err = GaOverrides { population: Some(4_000_000_000), ..GaOverrides::default() }
            .resolve(hanoi4.clone())
            .unwrap_err();
        assert!(err.contains("genes per generation") && err.contains(&MAX_GENES_PER_GENERATION.to_string()), "{err}");
        let err = GaOverrides { initial_len: Some(usize::MAX), ..GaOverrides::default() }
            .resolve(hanoi4.clone())
            .unwrap_err();
        assert!(err.contains("genes per generation"), "{err}");
        let err = GaOverrides { generations: Some(u32::MAX), phases: Some(u32::MAX), ..GaOverrides::default() }
            .resolve(hanoi4)
            .unwrap_err();
        assert!(err.contains("generations × phases") && err.contains(&MAX_TOTAL_GENERATIONS.to_string()), "{err}");
        // The largest in-tree request: Hanoi-10 at 400 × 5115 genes and
        // 400 generations × 5 phases.
        let hanoi10 = ProblemSpec::Hanoi { disks: 10 }.build().unwrap().default_config();
        let big =
            GaOverrides { population: Some(400), generations: Some(400), phases: Some(5), ..GaOverrides::default() };
        let cfg = big.resolve(hanoi10).unwrap();
        assert_eq!((cfg.population_size, cfg.max_len), (400, 5115));
    }

    #[test]
    fn bad_problem_reports_error() {
        assert!(ProblemSpec::Hanoi { disks: 0 }.build().is_err());
        assert!(ProblemSpec::Strips { text: "not a problem".into() }.build().is_err());
    }

    fn quick_cfg(built: &BuiltProblem) -> GaConfig {
        let mut cfg = built.default_config();
        cfg.population_size = 40;
        cfg.generations_per_phase = 30;
        cfg.max_phases = 2;
        cfg
    }

    #[test]
    fn dyn_dispatch_matches_typed_run() {
        // The service's single erased engine must reproduce the typed
        // engine's run exactly: same plan, same generation count.
        let built = ProblemSpec::Hanoi { disks: 3 }.build().unwrap();
        let cfg = quick_cfg(&built);
        let erased = built.solve(&cfg, Budget::unlimited());

        let typed = gaplan_domains::Hanoi::new(3);
        let r = MultiPhase::new(&typed, cfg).run();
        assert_eq!(erased.solved, r.solved);
        assert_eq!(erased.plan_ops, r.plan.ops().iter().map(|op| op.0).collect::<Vec<_>>());
        assert_eq!(erased.total_generations, r.total_generations);
        assert_eq!(erased.goal_fitness.to_bits(), r.goal_fitness.to_bits());
    }

    #[test]
    fn shared_succ_cache_preserves_results_across_jobs() {
        let built = ProblemSpec::Tile { side: 3, shuffle_seed: 4 }.build().unwrap();
        let cfg = quick_cfg(&built);
        let plain = built.solve(&cfg, Budget::unlimited());

        let cache = Arc::new(SuccessorCache::new(1 << 12));
        let cold = built.solve_with(&cfg, Budget::unlimited(), Some(Arc::clone(&cache)));
        let warm = built.solve_with(&cfg, Budget::unlimited(), Some(Arc::clone(&cache)));
        for run in [&cold, &warm] {
            assert_eq!(plain.plan_ops, run.plan_ops);
            assert_eq!(plain.total_generations, run.total_generations);
            assert_eq!(plain.goal_fitness.to_bits(), run.goal_fitness.to_bits());
        }
        assert!(cache.stats().hits > 0, "second job over the same problem must reuse successors");
    }

    /// The one place GA state crosses threads: the service hands every
    /// worker solving a recurring problem the same `Arc<SuccessorCache>`.
    /// Two threads released by one barrier solve Hanoi-4, a shuffled
    /// tile-4x4 (whose cache bypass reads counters the other thread also
    /// bumps) and a shipped DSL pair at the cold-mix budget, each with its
    /// own seeds, through one cache per problem. Every outcome equals a solo
    /// solve with no cache.
    #[test]
    fn concurrent_solves_through_one_shared_cache_match_solo_solves() {
        let problems: Vec<BuiltProblem> = [
            ProblemSpec::Hanoi { disks: 4 },
            ProblemSpec::Tile { side: 4, shuffle_seed: DEFAULT_SEED },
            ProblemSpec::Dsl {
                domain: include_str!("../../../examples/domains/logistics.gap").into(),
                problem: include_str!("../../../data/logistics-1.gap").into(),
            },
        ]
        .into_iter()
        .map(|spec| spec.build().unwrap())
        .collect();
        let caches: Vec<_> = problems.iter().map(|_| Arc::new(SuccessorCache::new(1 << 12))).collect();
        let cfg = |built: &BuiltProblem, seed: u64| {
            let budget = GaOverrides {
                population: Some(48),
                generations: Some(40),
                phases: Some(2),
                seed: Some(seed),
                ..GaOverrides::default()
            };
            budget.resolve(built.default_config()).unwrap()
        };
        let seeds = [[11, 12], [21, 22]];
        let barrier = std::sync::Barrier::new(seeds.len());
        let shared: Vec<Vec<(u64, usize, SolveOutcome)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = seeds
                .iter()
                .map(|thread_seeds| {
                    let (problems, caches, barrier) = (&problems, &caches, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut out = Vec::new();
                        for &seed in thread_seeds {
                            for (p, built) in problems.iter().enumerate() {
                                let cache = Some(Arc::clone(&caches[p]));
                                out.push((seed, p, built.solve_with(&cfg(built, seed), Budget::unlimited(), cache)));
                            }
                        }
                        out
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for (seed, p, got) in shared.iter().flatten() {
            let solo_cfg = GaConfig { succ_cache: false, ..cfg(&problems[*p], *seed) };
            let solo = problems[*p].solve(&solo_cfg, Budget::unlimited());
            let what = format!("problem {p}, seed {seed}");
            assert_eq!(got.plan_ops, solo.plan_ops, "{what}: ops");
            assert_eq!(got.goal_fitness.to_bits(), solo.goal_fitness.to_bits(), "{what}: goal fitness");
            assert_eq!(got.total_generations, solo.total_generations, "{what}: generations");
        }
        for (p, cache) in caches.iter().enumerate() {
            assert!(cache.stats().hits > 0, "problem {p}: the shared cache must serve some lookups");
        }
    }

    #[test]
    fn dsl_compile_error_reports_as_build_error() {
        let spec = ProblemSpec::Dsl { domain: "domain d\ntype t\naction a()".into(), problem: "nope".into() };
        let err = spec.build().unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn chaos_has_no_domain() {
        assert!(ProblemSpec::Chaos { fail_attempts: 0, kill_worker: false }.build().unwrap().as_dyn().is_none());
        assert!(ProblemSpec::Hanoi { disks: 2 }.build().unwrap().as_dyn().is_some());
    }

    #[test]
    fn hanoi_defaults_start_at_the_optimal_length() {
        // §4.1: the initial length is the optimum 2^n − 1; MaxLen is 5×.
        let cfg = ProblemSpec::Hanoi { disks: 7 }.build().unwrap().default_config();
        assert_eq!((cfg.initial_len, cfg.max_len), (127, 635));
        cfg.validate().unwrap();
    }

    #[test]
    fn tile_defaults_follow_the_sorting_bound_over_five_phases() {
        // §4.2: n² · log₂(n²) — 9 · log₂ 9 = 28.53 → 29 and 16 · 4 = 64.
        let tile = |side| ProblemSpec::Tile { side, shuffle_seed: DEFAULT_SEED }.build().unwrap().default_config();
        assert_eq!(tile(3).initial_len, 29);
        let cfg = tile(4);
        cfg.validate().unwrap();
        assert_eq!((cfg.initial_len, cfg.max_len), (64, 320));
        assert_eq!((cfg.max_phases, cfg.generations_per_phase), (5, 100));
        assert_eq!(cfg.crossover, CrossoverKind::Mixed);
    }

    #[test]
    fn a_tile_shuffle_seed_fixes_the_instance() {
        let initial = |shuffle_seed| match (ProblemSpec::Tile { side: 3, shuffle_seed }).build().unwrap() {
            BuiltProblem::Tile { domain, .. } => domain.initial_state(),
            other => panic!("built {other:?}"),
        };
        assert_eq!(initial(11), initial(11));
        assert_ne!(initial(11), initial(10));
    }
}
