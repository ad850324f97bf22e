//! `gaplan-service` — a concurrent planning service over the workspace's
//! genetic planner.
//!
//! The GA engine in `gaplan-ga` answers one question at a time; a grid
//! coordinator (or any client) wants to ask many, with deadlines, and drop
//! questions that stopped mattering. This crate adds that operational
//! layer:
//!
//! * **Job model** ([`PlanRequest`]/[`PlanResponse`]): a problem spec plus
//!   optional GA overrides and a deadline in, a status + best plan out.
//! * **Bounded queue + worker pool** ([`PlanService`]): plain std threads
//!   and channels; a full queue rejects instead of blocking. Workers are
//!   the only parallelism: each job's GA solve runs on its worker's thread.
//! * **Deadlines & cancellation**: each job runs under a
//!   [`gaplan_core::Budget`]; the engine checks it between generations, so
//!   a timed-out or cancelled job still returns its best-so-far plan.
//! * **Plan cache** ([`PlanCache`]): keyed by stable problem + config
//!   signatures, LRU-bounded; identical resubmissions are answered without
//!   rerunning the GA.
//! * **Metrics** ([`Metrics`]): one static table of named counters and
//!   gauges ([`metrics::TABLE`], indexed by [`Metric`]) plus wall-time and
//!   queue-wait histograms, read as a serializable [`MetricsSnapshot`].
//! * **Wire protocol** ([`serve`]): newline-delimited JSON over any
//!   reader/writer pair, used by `gaplan serve`; responses stream back as
//!   jobs finish, out of order.
//! * **Simulator integration** ([`ServiceReplanner`]): adapts the service
//!   to the grid coordinator's replanner hook, so mid-execution replans go
//!   through the queue, cache and metrics.
//! * **Durability** ([`JobJournal`]): [`serve_with_journal`] write-ahead
//!   journals every accepted request before it runs and every terminal
//!   reply before it is written, over a fault-injectable
//!   [`gaplan_durable::Storage`]; on restart the journal replays — the plan
//!   cache is reseeded, journaled replies re-emitted, and unfinished jobs
//!   re-enqueued — so `kill -9` loses no accepted job.
//! * **Self-healing** ([`PlanService`]): jobs run under `catch_unwind`
//!   with a bounded panic-retry policy, a supervisor respawns worker
//!   threads that die anyway, a full queue sheds load after an admission
//!   timeout, and the metrics snapshot reports live vs configured workers,
//!   queue depth and active jobs (`{"cmd":"health"}` is an alias of
//!   `{"cmd":"metrics"}`).
//!   [`ProblemSpec::Chaos`] injects panics on purpose to test all of it.

#![warn(missing_docs)]

pub mod cache;
pub(crate) mod coalesce;
pub mod ground;
pub mod journal;
pub mod metrics;
pub mod overload;
pub mod proto;
pub mod replan;
pub mod request;
pub mod service;
pub mod session;

pub use cache::{CachedPlan, PlanCache};
pub use journal::{CacheEntrySer, JobJournal, JournalRecord, PendingJob, Recovery};
pub use metrics::{BucketCount, HistogramSummary, Metric, Metrics, MetricsSnapshot};
pub use overload::{OverloadConfig, OverloadControl};
pub use proto::{parse_command, serve, serve_with_journal, Command, ProtoError};
pub use replan::ServiceReplanner;
pub use request::{
    BuiltProblem, GaOverrides, JobStatus, PlanRequest, PlanResponse, ProblemSpec, SolveOutcome, DEFAULT_SEED,
};
pub use service::{ObsHandle, PlanService, ServiceConfig, ServiceError, SubmitError};
pub use session::{LineOutcome, Session, SessionHost};
