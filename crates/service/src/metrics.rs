//! Service metrics: one static table of named cells, updated lock-free by
//! workers, sessions and the TCP front-end, and snapshotted into a
//! serializable [`MetricsSnapshot`].
//!
//! [`TABLE`] is the single list of counters and gauges: each entry gives
//! the wire name, the [`Kind`] and help text, and [`Metric`] indexes it.
//! The snapshot walks the table to build the `metrics` reply (which the
//! `health` wire command repeats under its own key). Besides the cells, EWMAs of
//! queue wait and execution time feed the overload controllers, and two log2-bucket
//! [`Histogram`]s track per-job wall time and queue wait, rolled up into
//! [`HistogramSummary`] values in the snapshot.

use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};

use gaplan_obs::Histogram;
use parking_lot::Mutex;
use serde::json::write_json_string;
use serde::Serialize;

/// Whether a cell only grows or may also go down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count since startup.
    Counter,
    /// Current level (queue depth, open connections, ...) or high-water mark.
    Gauge,
}

/// One row of [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Wire name: the key in the `metrics` reply.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// One-line description.
    pub help: &'static str,
}

macro_rules! metric_table {
    ($($variant:ident: $kind:ident $name:literal $help:literal,)*) => {
        /// A cell of the metrics table; its discriminant indexes [`TABLE`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $(#[doc = $help] $variant,)*
        }

        /// Every cell in [`Metric`] order: wire name, kind and help text.
        pub const TABLE: &[MetricDef] = &[$(MetricDef { name: $name, kind: Kind::$kind, help: $help },)*];
    };
}

metric_table! {
    JobsSubmitted: Counter "jobs_submitted" "Jobs accepted onto the queue.",
    JobsCompleted: Counter "jobs_completed" "Jobs that produced a response (including timeouts and cancellations).",
    JobsSolved: Counter "jobs_solved" "Completed jobs whose plan reached the goal.",
    JobsTimedOut: Counter "jobs_timed_out" "Jobs stopped by their deadline.",
    JobsCancelled: Counter "jobs_cancelled" "Jobs stopped by cancellation.",
    JobsRejected: Counter "jobs_rejected" "Submissions rejected before queueing.",
    JobsErrored: Counter "jobs_errored" "Jobs whose problem failed to build.",
    CacheHits: Counter "cache_hits" "Jobs answered from the plan cache.",
    CacheMisses: Counter "cache_misses" "Jobs that ran the GA.",
    CacheEvictions: Counter "cache_evictions" "Plan-cache entries evicted (LRU) to make room for new plans.",
    GroundCacheHits: Counter "ground_cache_hits" "`Dsl` jobs that reused an already-grounded domain.",
    GroundCacheMisses: Counter "ground_cache_misses" "`Dsl` jobs that parsed, checked and grounded from scratch.",
    JournalAppends: Counter "journal_appends" "Records appended to the job journal (submits and terminal replies).",
    JournalReplayed: Counter "journal_replayed" "Intact journal records decoded during startup replay.",
    JournalTruncatedBytes: Counter "journal_truncated_bytes" "Bytes of corrupt journal tail truncated during recovery.",
    QueueDepth: Gauge "queue_depth" "Jobs queued: submitted, not yet dequeued by a worker.",
    TotalWallMs: Counter "total_wall_ms" "Sum of per-job wall times, milliseconds.",
    MaxWallMs: Gauge "max_wall_ms" "Largest single-job wall time, milliseconds.",
    FaultsInjected: Counter "faults_injected" "Faults deliberately injected by chaos jobs.",
    PanicsCaught: Counter "panics_caught" "Job panics a worker caught (or died to).",
    JobsRetried: Counter "jobs_retried" "Panicked jobs re-attempted under the retry policy.",
    WorkersRespawned: Counter "workers_respawned" "Dead worker threads the supervisor replaced.",
    JobsShed: Counter "jobs_shed" "Jobs shed: admission timeout, connection write backlog or CoDel head drop.",
    ReplansFailed: Counter "replans_failed" "Service-backed replans that got no answer (dead or rejecting service).",
    WorkersAlive: Gauge "workers_alive" "Worker threads currently alive.",
    WorkersConfigured: Gauge "workers_configured" "Worker threads the service was configured with.",
    ActiveJobs: Gauge "active_jobs" "Jobs queued or running (cancellable ids).",
    CoalescedJobs: Counter "coalesced_jobs" "Jobs that joined an identical in-flight computation (singleflight).",
    ConnsAccepted: Counter "conns_accepted" "TCP connections accepted since startup.",
    ConnsOpen: Gauge "conns_open" "TCP connections currently open.",
    ConnsDropped: Counter "conns_dropped" "TCP connections that vanished with jobs still in flight.",
    ConnsReaped: Counter "conns_reaped" "Idle or stalled connections reaped by the per-connection read timeout.",
    FramesOversize: Counter "frames_oversize" "Inbound frames rejected for exceeding the per-frame size cap.",
    FramesMalformed: Counter "frames_malformed" "Inbound frames rejected as malformed (bad UTF-8 or unparseable).",
    JobsRejectedDeadline: Counter "jobs_rejected_deadline"
        "Submissions rejected as deadline-unmeetable (subset of `jobs_rejected`).",
    JobsExpiredInQueue: Counter "jobs_expired_in_queue" "Jobs fast-failed at dequeue: their deadline had passed.",
    JobsDegraded: Counter "jobs_degraded" "Jobs run with a brownout-scaled (degraded) GA budget.",
    CodelDrops: Counter "codel_drops" "Jobs shed from the queue head by the CoDel controller.",
    RetriesJoined: Counter "retries_joined" "In-flight id resubmissions folded into the running job (same payload).",
    RetriesConflict: Counter "retries_conflict"
        "In-flight id resubmissions with a new payload (subset of `jobs_rejected`).",
    AcceptsRetried: Counter "accepts_retried" "Transient accept-loop errors retried with backoff.",
}

/// Number of cells in [`TABLE`].
pub const CELLS: usize = TABLE.len();

/// Live metrics. All updates use relaxed ordering — the snapshot is a
/// statistical view, not a synchronization point.
#[derive(Debug)]
pub struct Metrics {
    cells: [AtomicU64; CELLS],
    /// EWMA of queue wait, microseconds (α = 1/4); 0 until the first
    /// nonzero sample. Stored as plain bits — the racy read-modify-write
    /// is fine for a statistical signal.
    queue_wait_ewma_us: AtomicU64,
    /// EWMA of on-worker execution time, microseconds (α = 1/4).
    exec_ewma_us: AtomicU64,
    /// Per-job submission-to-completion wall time, milliseconds.
    wall_ms_hist: Mutex<Histogram>,
    /// Per-job submission-to-dequeue wait, milliseconds.
    queue_wait_ms_hist: Mutex<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_wait_ewma_us: AtomicU64::new(0),
            exec_ewma_us: AtomicU64::new(0),
            wall_ms_hist: Mutex::new(Histogram::new()),
            queue_wait_ms_hist: Mutex::new(Histogram::new()),
        }
    }
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add one to a cell.
    pub fn inc(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Add `n` to a cell.
    pub fn add(&self, m: Metric, n: u64) {
        self.cells[m as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from a gauge.
    pub fn sub(&self, m: Metric, n: u64) {
        self.cells[m as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value of a cell.
    pub fn get(&self, m: Metric) -> u64 {
        self.cells[m as usize].load(Ordering::Relaxed)
    }

    /// A job was accepted onto the queue.
    pub fn on_submit(&self) {
        self.inc(Metric::JobsSubmitted);
        self.inc(Metric::QueueDepth);
    }

    /// A worker dequeued a job after it waited `wait_ms` on the queue.
    pub fn on_dequeue(&self, wait_ms: u64) {
        self.sub(Metric::QueueDepth, 1);
        self.queue_wait_ms_hist.lock().record(wait_ms);
        ewma_update(&self.queue_wait_ewma_us, wait_ms.saturating_mul(1000));
    }

    /// A worker spent `exec_ms` actually running a job (dequeue to reply,
    /// excluding queue wait). Feeds the execution-time EWMA the admission
    /// controller uses to translate queue depth into an expected wait.
    pub fn on_exec(&self, exec_ms: u64) {
        ewma_update(&self.exec_ewma_us, exec_ms.saturating_mul(1000));
    }

    /// Queue-wait EWMA, milliseconds (rounded down; α = 1/4).
    pub fn queue_wait_ewma_ms(&self) -> u64 {
        self.queue_wait_ewma_us.load(Ordering::Relaxed) / 1000
    }

    /// Execution-time EWMA, milliseconds (rounded down; α = 1/4).
    pub fn exec_ewma_ms(&self) -> u64 {
        self.exec_ewma_us.load(Ordering::Relaxed) / 1000
    }

    /// A job finished; `wall_ms` is submission-to-completion time.
    pub fn on_complete(&self, wall_ms: u64, solved: bool) {
        self.inc(Metric::JobsCompleted);
        if solved {
            self.inc(Metric::JobsSolved);
        }
        self.add(Metric::TotalWallMs, wall_ms);
        self.cells[Metric::MaxWallMs as usize].fetch_max(wall_ms, Ordering::Relaxed);
        self.wall_ms_hist.lock().record(wall_ms);
    }

    /// A submission was rejected at admission because its deadline was
    /// provably unmeetable given the estimated queue wait. Also counts
    /// toward `jobs_rejected` (it is a pre-queue rejection).
    pub fn on_rejected_deadline(&self) {
        self.inc(Metric::JobsRejected);
        self.inc(Metric::JobsRejectedDeadline);
    }

    /// A resubmission reused an in-flight request id with a *different*
    /// payload and was rejected. Also counts toward `jobs_rejected`.
    pub fn on_retry_conflict(&self) {
        self.inc(Metric::JobsRejected);
        self.inc(Metric::RetriesConflict);
    }

    /// A TCP connection was accepted.
    pub fn on_conn_accept(&self) {
        self.inc(Metric::ConnsAccepted);
        self.inc(Metric::ConnsOpen);
    }

    /// A TCP connection closed; `dropped` means the peer vanished with
    /// jobs still in flight (as opposed to a clean quit/EOF).
    pub fn on_conn_close(&self, dropped: bool) {
        self.sub(Metric::ConnsOpen, 1);
        if dropped {
            self.inc(Metric::ConnsDropped);
        }
    }

    /// Consistent-enough point-in-time copy of every cell.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let values: [u64; CELLS] = std::array::from_fn(|i| self.cells[i].load(Ordering::Relaxed));
        let ratio = |num: Metric, den: u64| if den > 0 { values[num as usize] as f64 / den as f64 } else { 0.0 };
        let lookups = values[Metric::CacheHits as usize] + values[Metric::CacheMisses as usize];
        MetricsSnapshot {
            cache_hit_rate: ratio(Metric::CacheHits, lookups),
            mean_wall_ms: ratio(Metric::TotalWallMs, values[Metric::JobsCompleted as usize]),
            queue_wait_ewma_ms: self.queue_wait_ewma_ms(),
            exec_ewma_ms: self.exec_ewma_ms(),
            wall_ms_hist: HistogramSummary::of(&self.wall_ms_hist.lock()),
            queue_wait_ms_hist: HistogramSummary::of(&self.queue_wait_ms_hist.lock()),
            values,
        }
    }
}

/// Racy-but-fine EWMA step: `cell ← (3·cell + sample) / 4`, with the
/// first nonzero sample adopted outright so the average doesn't have to
/// climb from zero. Lost updates under contention only soften the signal.
fn ewma_update(cell: &AtomicU64, sample_us: u64) {
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 { sample_us } else { (old.saturating_mul(3).saturating_add(sample_us)) / 4 };
    cell.store(new, Ordering::Relaxed);
}

/// One non-empty log2 bucket of a [`HistogramSummary`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub upper: u64,
    /// Samples that landed in it.
    pub count: u64,
}

/// Serializable roll-up of a [`Histogram`]. Percentiles are bucket upper
/// bounds, so every field is an exact integer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Bucket upper bound of the median sample.
    pub p50: u64,
    /// Bucket upper bound of the 90th-percentile sample.
    pub p90: u64,
    /// Bucket upper bound of the 99th-percentile sample.
    pub p99: u64,
    /// Non-empty buckets in ascending order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSummary {
    /// Roll up a live histogram.
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            p50: h.quantile_upper(0.5),
            p90: h.quantile_upper(0.9),
            p99: h.quantile_upper(0.99),
            buckets: h.nonzero_buckets().into_iter().map(|(upper, count)| BucketCount { upper, count }).collect(),
        }
    }
}

/// Point-in-time view of [`Metrics`]: every table cell (read it as
/// `snapshot[Metric::CacheHits]`) plus the figures derived from them.
/// Serializes as one flat JSON object keyed by the table's wire names,
/// then the derived fields.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Cell values in [`TABLE`] order.
    pub values: [u64; CELLS],
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when no lookups yet.
    pub cache_hit_rate: f64,
    /// `total_wall_ms / jobs_completed`, 0 before the first completion.
    pub mean_wall_ms: f64,
    /// Queue-wait EWMA at snapshot time, milliseconds (the overload
    /// controllers' pressure signal).
    pub queue_wait_ewma_ms: u64,
    /// Execution-time EWMA at snapshot time, milliseconds.
    pub exec_ewma_ms: u64,
    /// Distribution of per-job wall times, milliseconds.
    pub wall_ms_hist: HistogramSummary,
    /// Distribution of submission-to-dequeue queue waits, milliseconds.
    pub queue_wait_ms_hist: HistogramSummary,
}

impl Index<Metric> for MetricsSnapshot {
    type Output = u64;

    fn index(&self, m: Metric) -> &u64 {
        &self.values[m as usize]
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize_json(&self, out: &mut String) {
        let mut sep = '{';
        let mut field = |name: &str, value: &dyn Serialize| {
            out.push(sep);
            sep = ',';
            write_json_string(out, name);
            out.push(':');
            value.serialize_json(out);
        };
        for (def, value) in TABLE.iter().zip(&self.values) {
            field(def.name, value);
        }
        field("cache_hit_rate", &self.cache_hit_rate);
        field("mean_wall_ms", &self.mean_wall_ms);
        field("queue_wait_ewma_ms", &self.queue_wait_ewma_ms);
        field("exec_ewma_ms", &self.exec_ewma_ms);
        field("wall_ms_hist", &self.wall_ms_hist);
        field("queue_wait_ms_hist", &self.queue_wait_ms_hist);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::{parse, Value};

    #[test]
    fn counters_roll_up_into_snapshot() {
        let m = Metrics::new();
        m.on_submit();
        m.on_submit();
        m.on_dequeue(3);
        m.inc(Metric::CacheMisses);
        m.on_complete(40, true);
        m.on_dequeue(7);
        m.inc(Metric::CacheHits);
        m.on_complete(10, false);
        m.inc(Metric::JobsRejected);
        m.add(Metric::JournalReplayed, 5);
        m.on_conn_accept();
        m.on_conn_accept();
        m.on_conn_close(true);
        m.on_rejected_deadline();
        m.on_retry_conflict();
        m.on_exec(20);
        let s = m.snapshot();
        assert_eq!(s[Metric::JobsSubmitted], 2);
        assert_eq!(s[Metric::JobsCompleted], 2);
        assert_eq!(s[Metric::JobsSolved], 1);
        // inc(JobsRejected) + on_rejected_deadline + on_retry_conflict (the
        // latter two also count as rejects).
        assert_eq!(s[Metric::JobsRejected], 3);
        assert_eq!(s[Metric::JobsRejectedDeadline], 1);
        assert_eq!(s[Metric::RetriesConflict], 1);
        assert_eq!(s[Metric::JournalReplayed], 5);
        // EWMA (α = 1/4): waits 3 then 7 → 3 then (3·3+7)/4 = 4 ms.
        assert_eq!(s.queue_wait_ewma_ms, 4);
        assert_eq!(s.exec_ewma_ms, 20);
        assert_eq!(s[Metric::CacheHits], 1);
        assert_eq!(s[Metric::CacheMisses], 1);
        assert!((s.cache_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(s[Metric::QueueDepth], 0);
        assert_eq!(s[Metric::ConnsAccepted], 2);
        assert_eq!(s[Metric::ConnsOpen], 1);
        assert_eq!(s[Metric::ConnsDropped], 1);
        assert_eq!(s[Metric::TotalWallMs], 50);
        assert_eq!(s[Metric::MaxWallMs], 40);
        assert!((s.mean_wall_ms - 25.0).abs() < 1e-12);
        // Histograms roll up alongside the counters: wall times 40 and 10
        // land in buckets [32,63] and [8,15]; waits 3 and 7 in [2,3], [4,7].
        assert_eq!(s.wall_ms_hist.count, 2);
        assert_eq!(s.wall_ms_hist.sum, 50);
        assert_eq!(s.wall_ms_hist.p50, 15);
        assert_eq!(s.wall_ms_hist.p99, 63);
        assert_eq!(
            s.wall_ms_hist.buckets,
            vec![BucketCount { upper: 15, count: 1 }, BucketCount { upper: 63, count: 1 }]
        );
        assert_eq!(s.queue_wait_ms_hist.count, 2);
        assert_eq!(s.queue_wait_ms_hist.sum, 10);
        assert_eq!(s.queue_wait_ms_hist.p99, 7);
    }

    /// Clients (and the benchmark's traffic checks) read these keys by
    /// name and treat an absent key as 0, so a renamed cell would pass
    /// silently. Pin the wire key set and the integer encoding.
    #[test]
    fn snapshot_wire_keys_are_pinned() {
        const WIRE_KEYS: [&str; 47] = [
            "jobs_submitted",
            "jobs_completed",
            "jobs_solved",
            "jobs_timed_out",
            "jobs_cancelled",
            "jobs_rejected",
            "jobs_errored",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "cache_evictions",
            "ground_cache_hits",
            "ground_cache_misses",
            "journal_appends",
            "journal_replayed",
            "journal_truncated_bytes",
            "queue_depth",
            "total_wall_ms",
            "max_wall_ms",
            "mean_wall_ms",
            "faults_injected",
            "panics_caught",
            "jobs_retried",
            "workers_respawned",
            "jobs_shed",
            "replans_failed",
            "workers_alive",
            "coalesced_jobs",
            "conns_accepted",
            "conns_open",
            "conns_dropped",
            "conns_reaped",
            "frames_oversize",
            "frames_malformed",
            "jobs_rejected_deadline",
            "jobs_expired_in_queue",
            "jobs_degraded",
            "codel_drops",
            "retries_joined",
            "retries_conflict",
            "accepts_retried",
            "queue_wait_ewma_ms",
            "exec_ewma_ms",
            "wall_ms_hist",
            "queue_wait_ms_hist",
            "workers_configured",
            "active_jobs",
        ];
        let mut names: Vec<&str> = TABLE.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CELLS, "table names must be unique");

        // Nonzero values everywhere, so an integer cell can't hide as 0.0.
        let m = Metrics::new();
        for (i, _) in TABLE.iter().enumerate() {
            m.cells[i].store(i as u64 + 1, Ordering::Relaxed);
        }
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        let value = parse(&json).unwrap();
        let object = value.as_object().expect("snapshot is a JSON object");
        let mut keys: Vec<&str> = object.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        let mut expected = WIRE_KEYS.to_vec();
        expected.sort_unstable();
        assert_eq!(keys, expected);

        for (i, def) in TABLE.iter().enumerate() {
            assert_eq!(value.get(def.name), Some(&Value::Int(i as i128 + 1)), "{} must be a JSON integer", def.name);
        }
        for derived in ["queue_wait_ewma_ms", "exec_ewma_ms"] {
            assert!(matches!(value.get(derived), Some(Value::Int(_))), "{derived} must be a JSON integer");
        }
    }
}
