//! The planning service: a bounded submission queue feeding a fixed pool of
//! worker threads, with cooperative cancellation, per-job deadlines, a
//! signature-keyed plan cache and live metrics.
//!
//! Concurrency model: `submit` pushes a job onto a bounded
//! [`std::sync::mpsc::sync_channel`] (never blocking past the admission
//! timeout — a full queue rejects or sheds the job so callers get
//! backpressure instead of a hang). Workers share the receiving end behind
//! a mutex, run one job at a time to completion, and send the
//! [`PlanResponse`] to the job's reply channel. Each job's GA solve runs
//! single-threaded on its worker, so the worker count is the service's
//! parallelism; the service uses only std threads and channels.
//!
//! Self-healing: each job runs under `catch_unwind`, so a panicking
//! decode/domain yields an `Error` response (after one retry) instead of a
//! dead worker. If a panic does escape — e.g. a
//! worker-killing chaos job — a reply guard still answers the client while
//! the thread dies, and a supervisor thread respawns the worker. Every
//! fault is counted in [`Metrics`] and visible via [`PlanService::metrics`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use gaplan_core::{Budget, CancelToken, DynState, StopCause, SuccessorCache};
use gaplan_ga::GaConfig;
use gaplan_grid::GridWorld;
use gaplan_obs::{self as obs, Event};

use crate::cache::{CachedPlan, PlanCache};
use crate::metrics::{Metric, Metrics, MetricsSnapshot};
use crate::overload::{OverloadConfig, OverloadControl};
use crate::request::{GaOverrides, JobStatus, PlanRequest, PlanResponse, ProblemSpec};

/// A cloneable handle to a trace [`Subscriber`](obs::Subscriber) the
/// service installs on every thread it owns (each worker, plus the
/// `serve` loop), so per-request events from any worker land in one sink.
#[derive(Clone)]
pub struct ObsHandle(Arc<dyn obs::Subscriber>);

impl ObsHandle {
    /// Wrap a subscriber for distribution to service threads.
    pub fn new(sub: Arc<dyn obs::Subscriber>) -> Self {
        ObsHandle(sub)
    }

    /// Install the subscriber on the current thread until the guard drops.
    pub fn install(&self) -> obs::InstallGuard {
        obs::install(Arc::clone(&self.0))
    }
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ObsHandle(..)")
    }
}

/// Sizing knobs for a [`PlanService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. Each runs one job at a time.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Plan-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// How long a submission may wait for queue space before it is *shed*
    /// ([`SubmitError::Shed`]). Zero (the default) keeps the historical
    /// behavior: a full queue rejects immediately with
    /// [`SubmitError::QueueFull`].
    pub admission_timeout: Duration,
    /// Trace subscriber installed on every worker thread (and the serve
    /// loop). `None` (the default) disables tracing entirely: every
    /// instrumentation site reduces to one thread-local flag check.
    pub obs: Option<ObsHandle>,
    /// Adaptive overload control (deadline-aware admission, CoDel head
    /// shedding, anytime brownout). The default disables all of it,
    /// preserving the fixed-admission-timeout behavior exactly.
    pub overload: OverloadConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 128,
            admission_timeout: Duration::ZERO,
            obs: None,
            overload: OverloadConfig::default(),
        }
    }
}

/// Why a submission was turned away without running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (no admission timeout configured).
    QueueFull,
    /// The queue stayed full past the admission timeout — load shedding.
    Shed,
    /// Another in-flight job already uses this id.
    DuplicateId,
    /// The service has shut down.
    ShutDown,
    /// Deadline-aware admission turned the job away: the estimated queue
    /// wait already exceeds the job's deadline, so accepting it could only
    /// waste a worker on a provably dead answer.
    WouldMissDeadline,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::Shed => write!(f, "shed: queue full past admission timeout"),
            SubmitError::DuplicateId => write!(f, "duplicate job id"),
            SubmitError::ShutDown => write!(f, "service shut down"),
            SubmitError::WouldMissDeadline => {
                write!(f, "would_miss_deadline: estimated queue wait exceeds the request deadline")
            }
        }
    }
}

/// Fatal service-level failures (as opposed to per-job outcomes).
#[derive(Debug)]
pub enum ServiceError {
    /// The OS refused to spawn a service thread.
    Spawn(std::io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Spawn(e) => write!(f, "spawn service thread: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Spawn(e) => Some(e),
        }
    }
}

impl From<ServiceError> for std::io::Error {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Spawn(io) => io,
        }
    }
}

/// What a worker plans: a wire-level spec, or an in-process grid world with
/// its own defaults (the replanning path). Both resolve through
/// [`GaOverrides::resolve`], so the size limits hold for either.
enum JobProblem {
    Spec(ProblemSpec),
    Grid(Box<GridWorld>, Box<GaConfig>),
}

struct Job {
    id: u64,
    problem: JobProblem,
    overrides: GaOverrides,
    deadline: Option<Instant>,
    submitted_at: Instant,
    token: CancelToken,
    reply: Sender<PlanResponse>,
}

impl Job {
    /// Wall-clock milliseconds since submission — the single source of
    /// truth for `PlanResponse::wall_ms`, so queue wait is included no
    /// matter which path produces the response.
    fn wall_ms(&self) -> u64 {
        self.submitted_at.elapsed().as_millis() as u64
    }
}

/// How many times a *panicking* job is re-attempted before it is answered
/// with an `Error` response. Retrying is cheap insurance against transient
/// poisoning; deterministic panics just fail twice.
const MAX_JOB_RETRIES: u32 = 1;

/// Upper bound on distinct problems with pooled successor caches. Beyond
/// it the pool drops the whole map — crude, but the caches are pure
/// optimization and rebuild in one run. Only problems seen at least twice
/// get this far (see [`SuccPool`]), so one-shot traffic never fills it.
const SUCC_POOL_LIMIT: usize = 32;

/// How many recent first-sighted problem signatures [`SuccPool`] remembers
/// while waiting for them to recur.
const SIGHTED_LIMIT: usize = 256;

/// Successor caches shared across jobs (and grid replans) that plan the
/// same problem, keyed by [`BuiltProblem::signature`]. Separate from the
/// *plan* cache: a plan-cache hit skips the GA outright, while a
/// successor-cache hit accelerates a GA that still has to run — e.g.
/// same problem, different seed/config, or a replan after a fault.
///
/// A problem's cache is pooled only once its signature recurs: the first
/// job for a signature runs with a cache of its own, dropped when the job
/// ends, and leaves the signature in a short list of recent sightings; a
/// second job while it is still listed admits a fresh cache into the pool
/// for itself and every later job. One-shot problems (a fresh tile
/// shuffle, a generated DSL problem) therefore hold cache memory only
/// while they run.
///
/// [`BuiltProblem::signature`]: crate::request::BuiltProblem::signature
#[derive(Default)]
struct SuccPool {
    caches: FxHashMap<u64, Arc<SuccessorCache<DynState>>>,
    /// Signatures sighted once and not yet pooled, oldest first; at most
    /// [`SIGHTED_LIMIT`].
    sighted: VecDeque<u64>,
}

/// State shared between the service handle, its workers and the supervisor.
struct Shared {
    cache: Mutex<PlanCache>,
    succ_pool: Mutex<SuccPool>,
    /// Behind an `Arc` so long-lived helper threads (e.g. the serve loop's
    /// journal forwarder) can count events without borrowing the service.
    metrics: Arc<Metrics>,
    /// Cancel tokens of queued + running jobs, keyed by job id. Populated
    /// at submit time so a job can be cancelled while still queued.
    active: Mutex<FxHashMap<u64, CancelToken>>,
    /// Set (before the queue closes) when the service is shutting down, so
    /// the supervisor stops respawning workers that exit on purpose.
    shutting_down: AtomicBool,
    /// Trace subscriber workers install on their threads.
    obs: Option<ObsHandle>,
    /// Overload controllers (deadline admission, CoDel, brownout).
    overload: OverloadControl,
}

impl Shared {
    /// The successor cache for a problem signature: the pooled one when the
    /// problem recurs, else a cache for this job alone (see [`SuccPool`]);
    /// `None` when the job's config disables the cache. Keyed by problem
    /// (not config), so reruns with different seeds, overrides or replan
    /// worlds of the same problem all warm one cache.
    fn succ_cache_for(&self, sig: u64, cfg: &GaConfig) -> Option<Arc<SuccessorCache<DynState>>> {
        if !cfg.succ_cache {
            return None;
        }
        let mut pool = self.succ_pool.lock();
        if let Some(cache) = pool.caches.get(&sig) {
            return Some(Arc::clone(cache));
        }
        let cache = Arc::new(SuccessorCache::new(cfg.succ_cache_capacity));
        if let Some(pos) = pool.sighted.iter().position(|&s| s == sig) {
            pool.sighted.remove(pos);
            if pool.caches.len() >= SUCC_POOL_LIMIT {
                pool.caches.clear();
            }
            pool.caches.insert(sig, Arc::clone(&cache));
        } else {
            if pool.sighted.len() == SIGHTED_LIMIT {
                pool.sighted.pop_front();
            }
            pool.sighted.push_back(sig);
        }
        Some(cache)
    }
}

/// Handle to a running planning service. Dropping it (or calling
/// [`PlanService::shutdown`]) closes the queue and joins the workers.
pub struct PlanService {
    tx: Option<SyncSender<Job>>,
    supervisor: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    admission_timeout: Duration,
    /// Default reply channel: responses for [`PlanService::submit`] jobs.
    responses: Sender<PlanResponse>,
}

impl PlanService {
    /// Start the worker pool and its supervisor. Returns the service handle
    /// plus the receiver on which responses to [`PlanService::submit`] jobs
    /// arrive — generally *not* in submission order.
    pub fn start(cfg: ServiceConfig) -> Result<(PlanService, Receiver<PlanResponse>), ServiceError> {
        let workers = cfg.workers.max(1);
        let (tx, rx) = sync_channel::<Job>(cfg.queue_capacity.max(1));
        let (responses, response_rx) = std::sync::mpsc::channel();
        let shared = Arc::new(Shared {
            cache: Mutex::new(PlanCache::new(cfg.cache_capacity)),
            succ_pool: Mutex::new(SuccPool::default()),
            metrics: Arc::new(Metrics::new()),
            active: Mutex::new(FxHashMap::default()),
            shutting_down: AtomicBool::new(false),
            obs: cfg.obs.clone(),
            overload: OverloadControl::new(cfg.overload.clone(), workers),
        });
        shared.metrics.add(Metric::WorkersConfigured, workers as u64);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| spawn_worker(i, &rx, &shared))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ServiceError::Spawn)?;
        let supervisor = {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gaplan-supervisor".to_string())
                .spawn(move || supervisor_loop(handles, &rx, &shared))
                .map_err(ServiceError::Spawn)?
        };
        let service = PlanService {
            tx: Some(tx),
            supervisor: Some(supervisor),
            shared,
            admission_timeout: cfg.admission_timeout,
            responses,
        };
        Ok((service, response_rx))
    }

    /// Submit a wire-level request; its response arrives on the receiver
    /// returned by [`PlanService::start`]. Returns the job's cancel token.
    pub fn submit(&self, request: PlanRequest) -> Result<CancelToken, SubmitError> {
        self.submit_with_reply(request, self.responses.clone())
    }

    /// Submit a wire-level request whose response goes to `reply` instead
    /// of the shared response channel.
    pub fn submit_with_reply(
        &self,
        request: PlanRequest,
        reply: Sender<PlanResponse>,
    ) -> Result<CancelToken, SubmitError> {
        let PlanRequest { id, problem, deadline_ms, ga } = request;
        self.enqueue(Job {
            id,
            problem: JobProblem::Spec(problem),
            overrides: ga.unwrap_or_default(),
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
            submitted_at: Instant::now(),
            token: CancelToken::new(),
            reply,
        })
    }

    /// Submit an in-process grid world with a complete GA config —
    /// the replanning path used by [`crate::ServiceReplanner`]. The caller
    /// supplies its own reply channel.
    pub fn submit_grid(
        &self,
        id: u64,
        world: GridWorld,
        cfg: GaConfig,
        deadline: Option<Duration>,
        reply: Sender<PlanResponse>,
    ) -> Result<CancelToken, SubmitError> {
        self.enqueue(Job {
            id,
            problem: JobProblem::Grid(Box::new(world), Box::new(cfg)),
            overrides: GaOverrides::default(),
            deadline: deadline.map(|d| Instant::now() + d),
            submitted_at: Instant::now(),
            token: CancelToken::new(),
            reply,
        })
    }

    fn enqueue(&self, job: Job) -> Result<CancelToken, SubmitError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(SubmitError::ShutDown);
        };
        if let Some(job_deadline) = job.deadline {
            // Deadline-aware admission (off by default): if the estimated
            // queue wait alone already blows the deadline, reject now —
            // cheaper for the caller than a dead answer later, and the
            // queue slot goes to a job that can still make it.
            if self.shared.overload.would_miss_deadline(&self.shared.metrics, job_deadline, Instant::now()) {
                self.shared.metrics.on_rejected_deadline();
                return Err(SubmitError::WouldMissDeadline);
            }
        }
        let token = job.token.clone();
        {
            let mut active = self.shared.active.lock();
            if active.contains_key(&job.id) {
                self.shared.metrics.inc(Metric::JobsRejected);
                return Err(SubmitError::DuplicateId);
            }
            active.insert(job.id, token.clone());
        }
        let id = job.id;
        let mut job = job;
        let deadline = Instant::now() + self.admission_timeout;
        loop {
            match tx.try_send(job) {
                Ok(()) => {
                    self.shared.metrics.on_submit();
                    return Ok(token);
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.shared.active.lock().remove(&id);
                    self.shared.metrics.inc(Metric::JobsRejected);
                    return Err(SubmitError::ShutDown);
                }
                Err(TrySendError::Full(returned)) => {
                    if self.admission_timeout.is_zero() {
                        self.shared.active.lock().remove(&id);
                        self.shared.metrics.inc(Metric::JobsRejected);
                        return Err(SubmitError::QueueFull);
                    }
                    if Instant::now() >= deadline {
                        // Load shedding: the queue stayed full for the whole
                        // admission window, so turn the job away rather than
                        // letting latency grow without bound.
                        self.shared.active.lock().remove(&id);
                        self.shared.metrics.inc(Metric::JobsShed);
                        return Err(SubmitError::Shed);
                    }
                    job = returned;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Cancel a queued or running job. Returns whether the id was found.
    /// The job still produces a response (status `Cancelled`, with the
    /// best-so-far plan if it had started running).
    pub fn cancel(&self, id: u64) -> bool {
        match self.shared.active.lock().get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Point-in-time metrics, including the live-job and successor-pool
    /// gauges (the answer to both the `metrics` and the `health` wire
    /// command).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snapshot = self.shared.metrics.snapshot();
        snapshot.values[Metric::ActiveJobs as usize] = self.shared.active.lock().len() as u64;
        snapshot.values[Metric::SuccPoolCaches as usize] = self.shared.succ_pool.lock().caches.len() as u64;
        snapshot
    }

    /// Shared metrics hook for in-crate adapters (e.g. the service-backed
    /// replanner reporting a dead service).
    pub(crate) fn metrics_ref(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The metrics behind their `Arc`, for helper threads that outlive any
    /// borrow of the service handle (e.g. the serve loop's forwarder).
    pub(crate) fn metrics_arc(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Pre-populate the plan cache — the journal-recovery path, so plans
    /// computed before a crash keep answering identical resubmissions.
    pub fn seed_cache(&self, key: u64, value: CachedPlan) {
        if self.shared.cache.lock().insert(key, value) {
            self.shared.metrics.inc(Metric::CacheEvictions);
        }
    }

    /// Number of plans currently cached.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.lock().len()
    }

    /// Close the queue and wait for workers to drain and exit. Queued jobs
    /// still run (cancel them first for a fast stop). Returns the number of
    /// jobs that were still in flight at shutdown and were drained, and
    /// emits one `svc.shutdown` trace event carrying that count.
    pub fn shutdown(mut self) -> u64 {
        self.shutdown_in_place()
    }

    fn shutdown_in_place(&mut self) -> u64 {
        // Order matters: mark intent first so the supervisor does not
        // mistake draining workers for crashed ones and respawn them.
        self.shared.shutting_down.store(true, Ordering::Release);
        drop(self.tx.take());
        // The supervisor handle doubles as the "already shut down" guard:
        // `shutdown` followed by `Drop` drains (and reports) only once.
        let Some(supervisor) = self.supervisor.take() else {
            return 0;
        };
        let drained = self.shared.active.lock().len() as u64;
        let _ = supervisor.join();
        obs::emit(|| Event::new("svc.shutdown").u64("jobs_drained", drained));
        drained
    }
}

impl Drop for PlanService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn spawn_worker(index: usize, rx: &Arc<Mutex<Receiver<Job>>>, shared: &Arc<Shared>) -> std::io::Result<JoinHandle<()>> {
    let rx = Arc::clone(rx);
    let shared = Arc::clone(shared);
    // Count the worker from spawn time, not from when the OS first
    // schedules the thread, so an immediate metrics snapshot sees the full pool.
    // A failed spawn drops the guard and the gauge rolls back.
    let alive = AliveGuard::new(Arc::clone(&shared));
    std::thread::Builder::new().name(format!("gaplan-worker-{index}")).spawn(move || {
        let _alive = alive;
        let _obs = shared.obs.as_ref().map(ObsHandle::install);
        worker_loop(&rx, &shared);
    })
}

/// Keeps the live-worker gauge honest: decrements on *any* thread exit,
/// including an unwinding panic.
struct AliveGuard(Arc<Shared>);

impl AliveGuard {
    fn new(shared: Arc<Shared>) -> Self {
        shared.metrics.inc(Metric::WorkersAlive);
        AliveGuard(shared)
    }
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.metrics.sub(Metric::WorkersAlive, 1);
    }
}

/// Answers the client and clears the active entry if a panic escapes the
/// worker loop (e.g. a worker-killing chaos job): the thread dies, the
/// request does not hang.
struct ReplyGuard<'s> {
    id: u64,
    submitted_at: Instant,
    reply: Sender<PlanResponse>,
    shared: &'s Shared,
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.metrics.inc(Metric::PanicsCaught);
            self.shared.active.lock().remove(&self.id);
            let mut resp = PlanResponse::failure(
                self.id,
                JobStatus::Error,
                "worker thread killed by panic while executing this job",
            );
            resp.wall_ms = self.submitted_at.elapsed().as_millis() as u64;
            obs::emit(|| {
                Event::new("svc.finish")
                    .u64("id", resp.id)
                    .str("status", resp.status.name())
                    .bool("cache_hit", false)
                    .u64("wall_ms", resp.wall_ms)
            });
            let _ = self.reply.send(resp);
        }
    }
}

/// Watches the worker pool, reaping and respawning any thread that died
/// outside an orderly shutdown. Joins the pool when the service drains.
fn supervisor_loop(mut handles: Vec<JoinHandle<()>>, rx: &Arc<Mutex<Receiver<Job>>>, shared: &Arc<Shared>) {
    let mut next_index = handles.len();
    while !shared.shutting_down.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(5));
        for slot in handles.iter_mut() {
            if !slot.is_finished() || shared.shutting_down.load(Ordering::Acquire) {
                continue;
            }
            // A worker exited while the queue is still open: it panicked.
            // Replace it so capacity recovers (respawn failures leave the
            // dead handle in place to be retried next round).
            if let Ok(fresh) = spawn_worker(next_index, rx, shared) {
                next_index += 1;
                let dead = std::mem::replace(slot, fresh);
                let _ = dead.join();
                shared.metrics.inc(Metric::WorkersRespawned);
            }
        }
    }
    // Drain phase: the submit side is gone, so a fresh worker exits as soon
    // as the queue is empty. A worker that died panicking may leave queued
    // jobs stranded; replace it so every accepted job is still answered.
    for handle in handles {
        if handle.join().is_err() {
            if let Ok(drainer) = spawn_worker(next_index, rx, shared) {
                next_index += 1;
                shared.metrics.inc(Metric::WorkersRespawned);
                let _ = drainer.join();
            }
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        // Take the lock only to dequeue, never while planning.
        let job = match rx.lock().recv() {
            Ok(job) => job,
            Err(_) => break, // queue closed and drained
        };
        let queue_wait_ms = job.wall_ms();
        shared.metrics.on_dequeue(queue_wait_ms);
        // The span covers admission-to-reply; it must outlive the reply
        // guard so a worker-killing panic still exits the span last.
        let _span = obs::span("svc.request");
        obs::emit(|| Event::new("svc.dequeue").u64("id", job.id).u64("queue_wait_wall_ms", queue_wait_ms));
        let _guard = ReplyGuard { id: job.id, submitted_at: job.submitted_at, reply: job.reply.clone(), shared };
        if let JobProblem::Spec(ProblemSpec::Chaos { kill_worker: true, .. }) = &job.problem {
            shared.metrics.inc(Metric::FaultsInjected);
            panic!("chaos job {} killed this worker on request", job.id);
        }
        // Feed every sojourn to the CoDel controller, whether or not the
        // job runs — its state machine needs the below-target samples too.
        let codel_drop = shared.overload.codel_on_dequeue(queue_wait_ms);
        let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
        let mut response = PlanResponse::failure(job.id, JobStatus::Error, "job never produced a response");
        if expired {
            // Fast-fail: the deadline passed while the job sat queued, so
            // a GA run could only produce a dead answer. Reply immediately
            // and give the worker to a job that can still make it.
            shared.metrics.inc(Metric::JobsExpiredInQueue);
            response =
                PlanResponse::failure(job.id, JobStatus::DeadlineExpired, "deadline expired while queued; job not run");
            response.wall_ms = job.wall_ms();
            shared.metrics.on_complete(response.wall_ms, false);
        } else if codel_drop {
            // Controlled-delay head shedding: sojourn has been above target
            // for a full interval, so drop from the head (oldest first) to
            // pull the standing queue back under target.
            shared.metrics.inc(Metric::CodelDrops);
            shared.metrics.inc(Metric::JobsShed);
            obs::emit(|| Event::new("svc.codel").u64("id", job.id).u64("sojourn_ms", queue_wait_ms));
            response = PlanResponse::failure(
                job.id,
                JobStatus::Shed,
                "shed from the queue head: sojourn above the controlled-delay target",
            );
            response.wall_ms = job.wall_ms();
            shared.metrics.on_complete(response.wall_ms, false);
        } else {
            for attempt in 0..=MAX_JOB_RETRIES {
                match catch_unwind(AssertUnwindSafe(|| run_job(&job, shared, attempt))) {
                    Ok(resp) => {
                        response = resp;
                        break;
                    }
                    Err(payload) => {
                        shared.metrics.inc(Metric::PanicsCaught);
                        if attempt < MAX_JOB_RETRIES {
                            shared.metrics.inc(Metric::JobsRetried);
                            continue;
                        }
                        shared.metrics.inc(Metric::JobsErrored);
                        response = PlanResponse::failure(
                            job.id,
                            JobStatus::Error,
                            format!(
                                "job panicked on all {} attempts: {}",
                                attempt + 1,
                                panic_message(payload.as_ref())
                            ),
                        );
                    }
                }
            }
            // On-worker execution time (reply minus queue wait) feeds the
            // EWMA the admission estimate scales queue depth by. Shed and
            // expired jobs cost no worker time, so only run paths sample.
            shared.metrics.on_exec(job.wall_ms().saturating_sub(queue_wait_ms));
        }
        if response.wall_ms == 0 {
            // The fallback and panic-exhausted responses are built without
            // timing; every path must still report submission-to-reply
            // latency with queue wait included.
            response.wall_ms = job.wall_ms();
        }
        shared.active.lock().remove(&job.id);
        obs::emit(|| {
            Event::new("svc.finish")
                .u64("id", response.id)
                .str("status", response.status.name())
                .bool("cache_hit", response.cache_hit)
                .u64("wall_ms", response.wall_ms)
        });
        // A dropped reply receiver just discards the response.
        let _ = job.reply.send(response);
    }
}

/// Human-readable panic payload (panics carry `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The `Error` reply for a job whose problem or overrides are rejected.
fn failed_job(job: &Job, shared: &Shared, msg: String) -> PlanResponse {
    shared.metrics.inc(Metric::JobsErrored);
    let mut resp = PlanResponse::failure(job.id, JobStatus::Error, msg);
    resp.wall_ms = job.wall_ms();
    resp
}

fn run_job(job: &Job, shared: &Shared, attempt: u32) -> PlanResponse {
    let (built, defaults) = match &job.problem {
        JobProblem::Spec(spec) => match crate::ground::count(&shared.metrics, spec.build_with(true)) {
            Ok(built) => {
                let defaults = built.default_config();
                (built, defaults)
            }
            Err(msg) => return failed_job(job, shared, msg),
        },
        JobProblem::Grid(world, cfg) => (crate::request::BuiltProblem::Grid(world.clone()), cfg.as_ref().clone()),
    };
    let cfg = match job.overrides.resolve(defaults) {
        Ok(cfg) => cfg,
        Err(msg) => return failed_job(job, shared, msg),
    };

    if let crate::request::BuiltProblem::Chaos { fail_attempts, .. } = &built {
        // Injected fault: panic until the configured attempt, then succeed
        // trivially. Handled before the cache so a cached success can never
        // swallow a scheduled fault.
        if attempt < *fail_attempts {
            shared.metrics.inc(Metric::FaultsInjected);
            panic!("chaos job {}: injected panic on attempt {attempt}", job.id);
        }
        let wall_ms = job.wall_ms();
        shared.metrics.on_complete(wall_ms, true);
        return PlanResponse {
            id: job.id,
            status: JobStatus::Done,
            solved: true,
            goal_fitness: 1.0,
            plan: Vec::new(),
            plan_ops: Vec::new(),
            plan_len: 0,
            total_generations: 0,
            wall_ms,
            cache_hit: false,
            error: None,
            degraded: false,
        };
    }

    let key = PlanCache::key(built.signature(), cfg.signature());
    let cached = shared.cache.lock().get(key);
    obs::emit(|| Event::new("svc.cache").u64("id", job.id).bool("hit", cached.is_some()));
    if let Some(hit) = cached {
        shared.metrics.inc(Metric::CacheHits);
        let wall_ms = job.wall_ms();
        shared.metrics.on_complete(wall_ms, hit.solved);
        return PlanResponse {
            id: job.id,
            status: JobStatus::Done,
            solved: hit.solved,
            goal_fitness: hit.goal_fitness,
            plan_len: hit.plan_names.len(),
            plan: hit.plan_names,
            plan_ops: hit.plan_ops,
            total_generations: hit.total_generations,
            wall_ms,
            cache_hit: true,
            error: None,
            degraded: false,
        };
    }
    shared.metrics.inc(Metric::CacheMisses);

    // Anytime brownout: under queue pressure, run a scaled-down GA budget
    // and mark the response degraded. Cache lookups above still use the
    // *unscaled* config key, so a full-quality cached plan keeps answering
    // during a brownout; conversely a degraded run is never cached under
    // that key (it would poison identical full-budget requests).
    let factor = shared.overload.brownout_factor(&shared.metrics);
    let degraded = factor < 1.0;
    let run_cfg = if degraded {
        shared.metrics.inc(Metric::JobsDegraded);
        cfg.scale_budget(factor)
    } else {
        cfg
    };

    let mut budget = Budget::unlimited().with_token(job.token.clone());
    if let Some(deadline) = job.deadline {
        budget = budget.with_deadline(deadline);
    }
    let succ = shared.succ_cache_for(built.signature(), &run_cfg);
    let outcome = built.solve_with(&run_cfg, budget, succ);

    let status = match outcome.stopped {
        None => JobStatus::Done,
        Some(StopCause::Deadline) => {
            shared.metrics.inc(Metric::JobsTimedOut);
            JobStatus::Timeout
        }
        Some(StopCause::Cancelled) => {
            shared.metrics.inc(Metric::JobsCancelled);
            JobStatus::Cancelled
        }
    };
    if outcome.stopped.is_none() && !degraded {
        let evicted = shared.cache.lock().insert(
            key,
            CachedPlan {
                solved: outcome.solved,
                goal_fitness: outcome.goal_fitness,
                plan_names: outcome.plan_names.clone(),
                plan_ops: outcome.plan_ops.clone(),
                total_generations: outcome.total_generations,
            },
        );
        if evicted {
            shared.metrics.inc(Metric::CacheEvictions);
        }
    }
    let wall_ms = job.wall_ms();
    shared.metrics.on_complete(wall_ms, outcome.solved);
    PlanResponse {
        id: job.id,
        status,
        solved: outcome.solved,
        goal_fitness: outcome.goal_fitness,
        plan_len: outcome.plan_names.len(),
        plan: outcome.plan_names,
        plan_ops: outcome.plan_ops,
        total_generations: outcome.total_generations,
        wall_ms,
        cache_hit: false,
        error: None,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ProblemSpec;

    fn tiny_request(id: u64) -> PlanRequest {
        PlanRequest {
            id,
            problem: ProblemSpec::Hanoi { disks: 3 },
            deadline_ms: None,
            ga: Some(GaOverrides {
                population: Some(40),
                generations: Some(30),
                phases: Some(3),
                ..GaOverrides::default()
            }),
        }
    }

    /// Spin until `cond` holds, up to `ms` milliseconds.
    fn wait_until(ms: u64, cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_millis(ms);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn submit_runs_and_responds() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        service.submit(tiny_request(1)).unwrap();
        let resp = responses.recv().unwrap();
        assert_eq!(resp.id, 1);
        assert_eq!(resp.status, JobStatus::Done);
        assert!(resp.solved, "hanoi-3 should solve: {resp:?}");
        assert!(!resp.cache_hit);
        let metrics = service.metrics();
        assert_eq!(metrics[Metric::JobsCompleted], 1);
        assert_eq!(metrics[Metric::CacheMisses], 1);
        service.shutdown();
    }

    #[test]
    fn identical_resubmission_hits_cache() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        service.submit(tiny_request(1)).unwrap();
        let first = responses.recv().unwrap();
        assert!(!first.cache_hit);
        service.submit(tiny_request(2)).unwrap();
        let second = responses.recv().unwrap();
        assert!(second.cache_hit, "identical problem+config should hit: {second:?}");
        assert_eq!(second.plan, first.plan);
        assert_eq!(service.metrics()[Metric::CacheHits], 1);
        service.shutdown();
    }

    #[test]
    fn only_recurring_problems_pool_successor_caches() {
        // No plan cache, so every job runs the GA.
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        let hanoi = |id: u64, disks: usize| PlanRequest { problem: ProblemSpec::Hanoi { disks }, ..tiny_request(id) };
        for (id, disks) in [(1, 2), (2, 3), (3, 4), (4, 5)] {
            service.submit(hanoi(id, disks)).unwrap();
            assert_eq!(responses.recv().unwrap().status, JobStatus::Done);
        }
        assert_eq!(service.metrics()[Metric::SuccPoolCaches], 0, "one-shot problems must not be pooled");

        service.submit(hanoi(5, 3)).unwrap();
        assert_eq!(responses.recv().unwrap().status, JobStatus::Done);
        assert_eq!(service.metrics()[Metric::SuccPoolCaches], 1, "a recurring problem is pooled");
        let pooled = Arc::clone(service.shared.succ_pool.lock().caches.values().next().unwrap());
        assert!(pooled.stats().hits > 0, "the second job decodes through the pooled cache");
        service.shutdown();
    }

    #[test]
    fn duplicate_inflight_id_is_rejected() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        // Stall the single worker with a long job so id 1 stays active.
        let mut big = tiny_request(1);
        big.problem = ProblemSpec::Hanoi { disks: 10 };
        big.ga = None;
        service.submit(big).unwrap();
        assert_eq!(service.submit(tiny_request(1)).err(), Some(SubmitError::DuplicateId));
        assert!(service.cancel(1));
        let resp = responses.recv().unwrap();
        assert_eq!(resp.id, 1);
        service.shutdown();
    }

    #[test]
    fn full_queue_rejects() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        // One slow job occupies the worker; the queue holds at most one
        // more, so repeated submission must eventually bounce.
        let mut first = tiny_request(1);
        first.problem = ProblemSpec::Hanoi { disks: 9 };
        first.ga = None;
        service.submit(first).unwrap();
        let mut saw_full = false;
        for id in 2..=6 {
            match service.submit(tiny_request(id)) {
                Err(SubmitError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Ok(_) => {}
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(saw_full, "bounded queue never reported full");
        for id in 1..=6 {
            service.cancel(id);
        }
        drop(responses);
        service.shutdown();
    }

    #[test]
    fn cancelling_a_running_job_returns_cancelled_with_plan() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 4,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut req = tiny_request(1);
        req.problem = ProblemSpec::Hanoi { disks: 12 };
        req.ga = None;
        let token = service.submit(req).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
        let resp = responses.recv().unwrap();
        assert_eq!(resp.status, JobStatus::Cancelled);
        assert!(!resp.plan.is_empty(), "best-so-far plan should be non-empty");
        assert_eq!(service.cache_len(), 0, "cancelled runs must not be cached");
        service.shutdown();
    }

    #[test]
    fn oversized_overrides_answer_error_naming_the_limit() {
        let (service, responses) =
            PlanService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() }).unwrap();
        let mut endless = tiny_request(1);
        endless.ga = Some(GaOverrides { generations: Some(u32::MAX), phases: Some(5), ..GaOverrides::default() });
        endless.deadline_ms = Some(200);
        service.submit(endless).unwrap();
        let resp = responses.recv().unwrap();
        assert_eq!(resp.status, JobStatus::Error, "{resp:?}");
        assert!(resp.error.as_deref().unwrap_or("").contains("the limit is"), "{resp:?}");
        assert_eq!(resp.total_generations, 0, "a refused job must not run");
        assert_eq!(service.metrics()[Metric::JobsErrored], 1);
        service.shutdown();
    }

    #[test]
    fn unknown_cancel_id_reports_not_found() {
        let (service, _responses) = PlanService::start(ServiceConfig::default()).unwrap();
        assert!(!service.cancel(999));
        service.shutdown();
    }

    fn chaos_request(id: u64, fail_attempts: u32, kill_worker: bool) -> PlanRequest {
        PlanRequest { id, problem: ProblemSpec::Chaos { fail_attempts, kill_worker }, deadline_ms: None, ga: None }
    }

    #[test]
    fn chaos_panicking_job_yields_error_and_service_survives() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        // fails every attempt: retry budget exhausts, response is an error
        service.submit(chaos_request(1, u32::MAX, false)).unwrap();
        let resp = responses.recv().unwrap();
        assert_eq!(resp.id, 1);
        assert_eq!(resp.status, JobStatus::Error);
        assert!(resp.error.as_deref().unwrap_or("").contains("panicked"), "{resp:?}");
        // the worker survived the catch; ordinary jobs still run
        service.submit(tiny_request(2)).unwrap();
        let resp = responses.recv().unwrap();
        assert_eq!(resp.id, 2);
        assert_eq!(resp.status, JobStatus::Done);
        let m = service.metrics();
        assert_eq!(m[Metric::PanicsCaught], 2, "both attempts panicked: {m:?}");
        assert_eq!(m[Metric::JobsRetried], 1);
        assert_eq!(m[Metric::FaultsInjected], 2);
        assert_eq!(m[Metric::WorkersRespawned], 0, "caught panics must not kill the worker");
        service.shutdown();
    }

    #[test]
    fn chaos_transient_panic_recovers_on_retry() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        // fails only attempt 0; the first retry succeeds
        service.submit(chaos_request(5, 1, false)).unwrap();
        let resp = responses.recv().unwrap();
        assert_eq!(resp.status, JobStatus::Done, "{resp:?}");
        assert!(resp.solved);
        let m = service.metrics();
        assert_eq!(m[Metric::PanicsCaught], 1);
        assert_eq!(m[Metric::JobsRetried], 1);
        service.shutdown();
    }

    #[test]
    fn chaos_killed_worker_is_respawned_and_service_answers() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert!(wait_until(2000, || service.metrics()[Metric::WorkersAlive] == 1), "worker never came up");
        service.submit(chaos_request(1, 0, true)).unwrap();
        // the dying worker's reply guard still answers the client
        let resp = responses.recv().unwrap();
        assert_eq!(resp.id, 1);
        assert_eq!(resp.status, JobStatus::Error);
        // the supervisor replaces the dead thread
        assert!(
            wait_until(2000, || {
                let m = service.metrics();
                m[Metric::WorkersRespawned] >= 1 && m[Metric::WorkersAlive] == 1
            }),
            "supervisor never respawned the worker: {:?}",
            service.metrics()
        );
        // and the service keeps answering new jobs
        service.submit(tiny_request(2)).unwrap();
        let resp = responses.recv().unwrap();
        assert_eq!(resp.id, 2);
        assert_eq!(resp.status, JobStatus::Done);
        let m = service.metrics();
        assert!(m[Metric::PanicsCaught] >= 1, "{m:?}");
        assert!(m[Metric::WorkersRespawned] >= 1, "{m:?}");
        assert!(m[Metric::FaultsInjected] >= 1, "{m:?}");
        service.shutdown();
    }

    #[test]
    fn chaos_admission_timeout_sheds_instead_of_rejecting() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            admission_timeout: Duration::from_millis(40),
            ..ServiceConfig::default()
        })
        .unwrap();
        // a slow job pins the worker; another fills the one queue slot
        let mut slow = tiny_request(1);
        slow.problem = ProblemSpec::Hanoi { disks: 10 };
        slow.ga = None;
        service.submit(slow).unwrap();
        let mut queued_one = false;
        let mut shed = None;
        for id in 2..=6 {
            match service.submit(tiny_request(id)) {
                Ok(_) => queued_one = true,
                Err(err) => {
                    shed = Some(err);
                    break;
                }
            }
        }
        assert!(queued_one, "one job should fit in the queue");
        assert_eq!(shed, Some(SubmitError::Shed), "full queue past the timeout must shed");
        assert!(service.metrics()[Metric::JobsShed] >= 1);
        for id in 1..=6 {
            service.cancel(id);
        }
        drop(responses);
        service.shutdown();
    }

    #[test]
    fn health_reports_live_workers_and_queue() {
        let (service, _responses) = PlanService::start(ServiceConfig::default()).unwrap();
        assert!(wait_until(2000, || service.metrics()[Metric::WorkersAlive] == 2), "{:?}", service.metrics());
        let h = service.metrics();
        assert_eq!(h[Metric::WorkersAlive], 2);
        assert_eq!(h[Metric::WorkersConfigured], 2);
        assert_eq!(h[Metric::QueueDepth], 0);
        assert_eq!(h[Metric::ActiveJobs], 0);
        assert_eq!(h[Metric::WorkersRespawned], 0);
        assert_eq!(h[Metric::JobsExpiredInQueue], 0);
        assert_eq!(h[Metric::CodelDrops], 0);
        service.shutdown();
    }

    /// A slow-ish request with a unique cache key per id (distinct seed).
    fn slow_request(id: u64) -> PlanRequest {
        PlanRequest {
            id,
            problem: ProblemSpec::Hanoi { disks: 6 },
            deadline_ms: None,
            ga: Some(GaOverrides {
                population: Some(120),
                generations: Some(80),
                phases: Some(2),
                seed: Some(id),
                ..GaOverrides::default()
            }),
        }
    }

    #[test]
    fn expired_in_queue_jobs_fast_fail_without_running() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        // Pin the single worker, then queue a job whose deadline expires
        // while it waits.
        service.submit(slow_request(1)).unwrap();
        let mut doomed = tiny_request(2);
        doomed.deadline_ms = Some(1);
        service.submit(doomed).unwrap();
        let mut statuses = std::collections::HashMap::new();
        for _ in 0..2 {
            let resp = responses.recv().unwrap();
            statuses.insert(resp.id, (resp.status, resp.total_generations));
        }
        let (status, gens) = statuses[&2];
        assert_eq!(status, JobStatus::DeadlineExpired, "{statuses:?}");
        assert_eq!(gens, 0, "the GA must never run for an expired job");
        let m = service.metrics();
        assert_eq!(m[Metric::JobsExpiredInQueue], 1);
        assert_eq!(m[Metric::JobsCompleted], 2, "expired jobs still count as completed");
        service.shutdown();
    }

    #[test]
    fn deadline_admission_rejects_provably_unmeetable_jobs() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 0,
            // Deadline admission on; a target no sojourn here reaches keeps
            // CoDel from shedding.
            overload: OverloadConfig { codel_target_ms: 60_000, ..OverloadConfig::default() },
            ..ServiceConfig::default()
        })
        .unwrap();
        // Warm the exec EWMA with a couple of completed slow jobs.
        for id in 1..=2 {
            service.submit(slow_request(id)).unwrap();
            responses.recv().unwrap();
        }
        assert!(service.metrics().exec_ewma_ms > 0, "exec EWMA never warmed: {:?}", service.metrics());
        // Pin the worker and keep one job queued so the backlog estimate is
        // nonzero, then ask for a deadline the queue alone already blows.
        service.submit(slow_request(3)).unwrap();
        service.submit(slow_request(4)).unwrap();
        assert!(wait_until(2000, || service.metrics()[Metric::QueueDepth] >= 1), "{:?}", service.metrics());
        let mut hopeless = tiny_request(5);
        hopeless.deadline_ms = Some(1);
        assert_eq!(service.submit(hopeless).err(), Some(SubmitError::WouldMissDeadline));
        let m = service.metrics();
        assert_eq!(m[Metric::JobsRejectedDeadline], 1);
        assert_eq!(m[Metric::JobsRejected], 1, "deadline rejections count as rejections");
        // A feasible deadline is still admitted.
        let mut fine = tiny_request(6);
        fine.deadline_ms = Some(60_000);
        service.submit(fine).unwrap();
        for _ in 0..3 {
            responses.recv().unwrap();
        }
        service.shutdown();
    }

    #[test]
    fn codel_sheds_from_the_queue_head_under_sustained_overload() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 0,
            overload: OverloadConfig { codel_target_ms: 1, ..OverloadConfig::default() },
            ..ServiceConfig::default()
        })
        .unwrap();
        // Far more queued work than one worker can clear under target:
        // sojourns rise past the target and stay there, so the controller
        // must enter its dropping state and shed from the head.
        let jobs = 24;
        for id in 1..=jobs {
            service.submit(slow_request(id)).unwrap();
        }
        let mut shed = 0;
        let mut replies = 0;
        for _ in 0..jobs {
            let resp = responses.recv().unwrap();
            replies += 1;
            if resp.status == JobStatus::Shed {
                shed += 1;
                assert_eq!(resp.total_generations, 0, "shed jobs must not run the GA: {resp:?}");
            }
        }
        assert_eq!(replies, jobs, "every accepted job must be answered");
        let m = service.metrics();
        assert!(m[Metric::CodelDrops] >= 1, "sustained overload never triggered a head drop: {m:?}");
        assert_eq!(m[Metric::CodelDrops], shed as u64);
        assert_eq!(m[Metric::JobsCompleted], jobs);
        service.shutdown();
    }

    #[test]
    fn brownout_degrades_under_pressure_and_degraded_runs_are_not_cached() {
        let (service, responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 64,
            // Brownout only (no CoDel target), at the 50 / 12 ms thresholds.
            overload: OverloadConfig { brownout_floor: 0.25, ..OverloadConfig::default() },
            ..ServiceConfig::default()
        })
        .unwrap();
        let jobs = 12;
        for id in 1..=jobs {
            service.submit(slow_request(id)).unwrap();
        }
        let mut degraded = 0;
        for _ in 0..jobs {
            let resp = responses.recv().unwrap();
            assert_eq!(resp.status, JobStatus::Done);
            if resp.degraded {
                degraded += 1;
            }
        }
        assert!(degraded >= 1, "queue pressure never engaged the brownout: {:?}", service.metrics());
        let m = service.metrics();
        assert_eq!(m[Metric::JobsDegraded], degraded as u64);
        // Every id has a distinct seed (distinct cache key); only the
        // full-budget runs may populate the cache.
        assert_eq!(service.cache_len(), jobs as usize - degraded, "degraded plans must never be cached");
        service.shutdown();
    }
}
