//! Job model for the planning service: wire-level requests and responses.
//!
//! A [`PlanRequest`] names a problem ([`ProblemSpec`]) plus optional GA
//! overrides and a deadline. Workers build the spec into a [`BuiltProblem`]
//! (the concrete `Domain` value), resolve the effective
//! [`gaplan_ga::GaConfig`] with [`GaOverrides::resolve`] over
//! [`BuiltProblem::default_config`], and run the multi-phase GA under a
//! [`gaplan_core::Budget`]. The pair (problem signature, config signature)
//! keys the plan cache. The problem model lives in `gaplan-problem` and is
//! re-exported here.

use gaplan_core::SigBuilder;
use serde::{Deserialize, Serialize};

pub use gaplan_problem::{
    BuiltProblem, GaOverrides, ProblemSpec, SolveOutcome, DEFAULT_SEED, MAX_GENES_PER_GENERATION, MAX_TOTAL_GENERATIONS,
};

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
}
