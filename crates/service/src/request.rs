//! Job model for the planning service: wire-level requests/responses and the
//! in-process problem they build into.
//!
//! A [`PlanRequest`] names a problem ([`ProblemSpec`]) plus optional GA
//! overrides and a deadline. Workers build the spec into a [`BuiltProblem`]
//! (the concrete `Domain` value), resolve the effective [`GaConfig`] with
//! [`GaOverrides::resolve`] over [`BuiltProblem::default_config`], and run
//! the multi-phase GA under a [`Budget`]. The pair (problem signature,
//! config signature) keys the plan cache. The `gaplan` CLI's planning
//! commands build, resolve and sign their problems through the same calls.

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
    /// compiled (parse → type check → ground) into a STRIPS problem. The
    /// service memoizes grounding per source-text signature (see
    /// [`crate::ground`]), so resubmitting a hot domain skips the compile.
    Dsl {
        /// Domain file source text.
        domain: String,
        /// Problem file source text.
        problem: String,
    },
    /// Fault-injection job for chaos testing the service itself: panics on
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
    /// messages suitable for an [`super::JobStatus::Error`] response.
    pub fn build(&self) -> Result<BuiltProblem, String> {
        self.build_with(None)
    }

    /// [`ProblemSpec::build`], counting `Dsl` ground-cache traffic on
    /// `metrics` when provided. Workers pass the service metrics; probe
    /// paths (cache-key computation on the session thread) pass `None` so
    /// one request is not counted twice.
    pub fn build_with(&self, metrics: Option<&crate::metrics::Metrics>) -> Result<BuiltProblem, String> {
        match self {
            ProblemSpec::Hanoi { disks } => {
                if *disks == 0 || *disks > 20 {
                    return Err(format!("hanoi disks must be in 1..=20, got {disks}"));
                }
                Ok(BuiltProblem::Hanoi { domain: Hanoi::new(*disks), disks: *disks })
            }
            ProblemSpec::Tile { side, shuffle_seed } => {
                if *side < 2 || *side > 6 {
                    return Err(format!("tile side must be in 2..=6, got {side}"));
                }
                let mut rng = StdRng::seed_from_u64(*shuffle_seed);
                Ok(BuiltProblem::Tile {
                    domain: SlidingTile::random_solvable(*side, &mut rng),
                    side: *side,
                    shuffle_seed: *shuffle_seed,
                })
            }
            ProblemSpec::Strips { text } => {
                let problem = parse_strips(text).map_err(|e| e.to_string())?;
                Ok(BuiltProblem::Strips(Box::new(problem)))
            }
            ProblemSpec::Grid { text } => {
                let world = parse_grid(text).map_err(|e| e.to_string())?;
                Ok(BuiltProblem::Grid(Box::new(world)))
            }
            ProblemSpec::Dsl { domain, problem } => {
                Ok(BuiltProblem::Dsl(crate::ground::ground_cached(domain, problem, metrics)?))
            }
            ProblemSpec::Chaos { fail_attempts, kill_worker } => {
                Ok(BuiltProblem::Chaos { fail_attempts: *fail_attempts, kill_worker: *kill_worker })
            }
        }
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
    /// by the worker, never cached.
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
            // Attempt accounting lives in the worker (`run_job`); reaching
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
/// request or CLI run may claim more memory than this, since an allocation
/// failure is no panic a worker can catch.
pub const MAX_GENES_PER_GENERATION: u64 = 1 << 24;

/// Most generations one run may take in total (`generations × phases`).
pub const MAX_TOTAL_GENERATIONS: u64 = 1 << 16;

/// Per-request GA overrides. Every field is optional; missing fields keep
/// the domain's default (see [`BuiltProblem::default_config`]).
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

/// A planning job as submitted over the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Client-chosen id; echoed in the response. Ids must be unique among
    /// in-flight jobs.
    pub id: u64,
    /// What to plan.
    pub problem: ProblemSpec,
    /// Soft wall-clock budget in milliseconds, measured from submission.
    /// Expiry stops the GA between generations; the job still returns its
    /// best-so-far plan with status [`JobStatus::Timeout`].
    pub deadline_ms: Option<u64>,
    /// GA knobs to override on top of the domain defaults.
    pub ga: Option<GaOverrides>,
}

impl PlanRequest {
    /// The plan-cache key this request's run would be stored under,
    /// mirroring the worker's `PlanCache::key(built.signature(),
    /// cfg.signature())`. `None` when the request can never be cached
    /// (chaos jobs, unbuildable specs, configs past the size limits).
    pub fn cache_key(&self) -> Option<u64> {
        if matches!(self.problem, ProblemSpec::Chaos { .. }) {
            return None;
        }
        let built = self.problem.build().ok()?;
        let cfg = self.ga.unwrap_or_default().resolve(built.default_config()).ok()?;
        Some(crate::cache::PlanCache::key(built.signature(), cfg.signature()))
    }

    /// The singleflight-coalescing key: two in-flight requests with the
    /// same key are guaranteed to run the identical computation, so the
    /// second can join the first instead of burning a worker. The key is
    /// the cache key extended with the deadline — a joiner inherits the
    /// leader's budget, so only requests with the *same* deadline may
    /// share a run. `None` means "never coalesce".
    pub fn coalesce_key(&self) -> Option<u64> {
        let cache_key = self.cache_key()?;
        let mut s = SigBuilder::new();
        s.tag("coalesce-v1").u64(cache_key).bool(self.deadline_ms.is_some()).u64(self.deadline_ms.unwrap_or(0));
        Some(s.finish())
    }
}

/// Terminal status of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Ran to completion (solved or exhausted its generation budget).
    Done,
    /// Deadline expired; the response carries the best-so-far plan.
    Timeout,
    /// Cancelled via the cancel command; best-so-far plan included when the
    /// job had already started.
    Cancelled,
    /// Never ran: queue full or duplicate id.
    Rejected,
    /// Never ran: shed because the queue stayed full past the admission
    /// timeout (the load-shedding path).
    Shed,
    /// The problem failed to build (parse/validation error), or the job
    /// panicked past its retry budget.
    Error,
    /// Never ran: the deadline had already passed when a worker dequeued
    /// the job, so running the GA could only produce a dead answer. The
    /// fast-fail path that replies this way is what keeps workers off
    /// already-dead jobs under overload.
    DeadlineExpired,
}

impl JobStatus {
    /// Stable wire name of the status, matching its JSON serialization —
    /// used by `svc.reply` trace events so tests can correlate every
    /// response line with a span-covered reply.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Done => "Done",
            JobStatus::Timeout => "Timeout",
            JobStatus::Cancelled => "Cancelled",
            JobStatus::Rejected => "Rejected",
            JobStatus::Shed => "Shed",
            JobStatus::Error => "Error",
            JobStatus::DeadlineExpired => "DeadlineExpired",
        }
    }
}

/// Result of a job, as written back over the wire.
///
/// Serde impls are hand-written (not derived) for one wire-compat reason:
/// the `degraded` field is emitted only when `true`, so responses from a
/// service with brownout disabled are byte-identical to earlier releases,
/// and journals written before the field existed still replay (a missing
/// `degraded` reads as `false`).
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// Did the plan reach the goal?
    pub solved: bool,
    /// Goal fitness of the plan's final state.
    pub goal_fitness: f64,
    /// Operation names of the best plan found.
    pub plan: Vec<String>,
    /// Raw operation ids (same order as `plan`).
    pub plan_ops: Vec<u32>,
    /// Length of the plan.
    pub plan_len: usize,
    /// Generations evolved (0 for cache hits and rejected jobs).
    pub total_generations: u32,
    /// Wall-clock time from submission to completion, in milliseconds.
    pub wall_ms: u64,
    /// Was this answered from the plan cache?
    pub cache_hit: bool,
    /// Error message for `Rejected`/`Error` statuses.
    pub error: Option<String>,
    /// Was the GA budget scaled down by the brownout controller? A
    /// degraded plan is best-effort quality and is never inserted into the
    /// plan cache.
    pub degraded: bool,
}

impl Serialize for PlanResponse {
    fn serialize_json(&self, out: &mut String) {
        // Field order matches what the derive would emit; `degraded` is
        // appended only when set (see the struct-level doc).
        out.push_str("{\"id\":");
        self.id.serialize_json(out);
        out.push_str(",\"status\":");
        self.status.serialize_json(out);
        out.push_str(",\"solved\":");
        self.solved.serialize_json(out);
        out.push_str(",\"goal_fitness\":");
        self.goal_fitness.serialize_json(out);
        out.push_str(",\"plan\":");
        self.plan.serialize_json(out);
        out.push_str(",\"plan_ops\":");
        self.plan_ops.serialize_json(out);
        out.push_str(",\"plan_len\":");
        self.plan_len.serialize_json(out);
        out.push_str(",\"total_generations\":");
        self.total_generations.serialize_json(out);
        out.push_str(",\"wall_ms\":");
        self.wall_ms.serialize_json(out);
        out.push_str(",\"cache_hit\":");
        self.cache_hit.serialize_json(out);
        out.push_str(",\"error\":");
        self.error.serialize_json(out);
        if self.degraded {
            out.push_str(",\"degraded\":true");
        }
        out.push('}');
    }
}

impl Deserialize for PlanResponse {
    fn deserialize_json(v: &serde::json::Value) -> Result<Self, serde::json::DeError> {
        let obj = v.as_object().ok_or_else(|| {
            serde::json::DeError::new(format!("expected object for PlanResponse, found {}", v.kind()))
        })?;
        Ok(PlanResponse {
            id: serde::de::field(obj, "id")?,
            status: serde::de::field(obj, "status")?,
            solved: serde::de::field(obj, "solved")?,
            goal_fitness: serde::de::field(obj, "goal_fitness")?,
            plan: serde::de::field(obj, "plan")?,
            plan_ops: serde::de::field(obj, "plan_ops")?,
            plan_len: serde::de::field(obj, "plan_len")?,
            total_generations: serde::de::field(obj, "total_generations")?,
            wall_ms: serde::de::field(obj, "wall_ms")?,
            cache_hit: serde::de::field(obj, "cache_hit")?,
            error: serde::de::field(obj, "error")?,
            degraded: serde::de::field::<Option<bool>>(obj, "degraded")?.unwrap_or(false),
        })
    }
}

impl PlanResponse {
    /// An empty failure response carrying only id, status and a message.
    pub fn failure(id: u64, status: JobStatus, error: impl Into<String>) -> Self {
        PlanResponse {
            id,
            status,
            solved: false,
            goal_fitness: 0.0,
            plan: Vec::new(),
            plan_ops: Vec::new(),
            plan_len: 0,
            total_generations: 0,
            wall_ms: 0,
            cache_hit: false,
            error: Some(error.into()),
            degraded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = PlanRequest {
            id: 7,
            problem: ProblemSpec::Hanoi { disks: 4 },
            deadline_ms: Some(250),
            ga: Some(GaOverrides { generations: Some(10), ..GaOverrides::default() }),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: PlanRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.deadline_ms, Some(250));
        assert!(matches!(back.problem, ProblemSpec::Hanoi { disks: 4 }));
        assert_eq!(back.ga.unwrap().generations, Some(10));
    }

    #[test]
    fn missing_optional_fields_default_to_none() {
        let back: PlanRequest = serde_json::from_str(r#"{"id":1,"problem":{"Hanoi":{"disks":3}}}"#).unwrap();
        assert_eq!(back.deadline_ms, None);
        assert!(back.ga.is_none());
    }

    #[test]
    fn degraded_flag_is_omitted_when_false_and_roundtrips_when_set() {
        let mut resp = PlanResponse::failure(3, JobStatus::Done, "x");
        resp.error = None;
        let plain = serde_json::to_string(&resp).unwrap();
        assert!(!plain.contains("degraded"), "unset flag must not appear on the wire: {plain}");

        resp.degraded = true;
        let flagged = serde_json::to_string(&resp).unwrap();
        assert!(flagged.contains("\"degraded\":true"), "missing flag in {flagged}");
        let back: PlanResponse = serde_json::from_str(&flagged).unwrap();
        assert!(back.degraded);
        // Pre-brownout journal entries (no field at all) read as false.
        let old: PlanResponse = serde_json::from_str(&plain).unwrap();
        assert!(!old.degraded);
    }

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
    fn oversized_overrides_are_never_cached_or_coalesced() {
        let huge = PlanRequest {
            id: 1,
            problem: ProblemSpec::Hanoi { disks: 4 },
            deadline_ms: None,
            ga: Some(GaOverrides { population: Some(4_000_000_000), ..GaOverrides::default() }),
        };
        assert_eq!(huge.cache_key(), None);
        assert_eq!(huge.coalesce_key(), None);
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

    #[test]
    fn dsl_spec_builds_and_roundtrips() {
        let dom = "domain d\ntype t\npred p(x: t)\npred q(x: t)\naction go(x: t)\n  pre: p(x)\n  add: q(x)\n";
        let prob = "problem pr domain d\nobjects a: t\ninit: p(a)\ngoal: q(a)\n";
        let spec = ProblemSpec::Dsl { domain: dom.into(), problem: prob.into() };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ProblemSpec = serde_json::from_str(&json).unwrap();
        let built = back.build().unwrap();
        assert!(built.as_dyn().is_some(), "Dsl problems must plan");
        assert_eq!(built.signature(), spec.build().unwrap().signature());
        let req = PlanRequest { id: 1, problem: spec, deadline_ms: None, ga: None };
        assert!(req.cache_key().is_some(), "Dsl requests are cacheable");
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
}
