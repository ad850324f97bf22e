//! Crash-safe write-ahead job journal for `gaplan serve`.
//!
//! Two files on a [`Storage`] backend:
//!
//! * `journal.wal` — the write-ahead log. Every accepted [`PlanRequest`] is
//!   appended (and flushed) as a [`JournalRecord::SubmitFor`] *before* it is
//!   enqueued, under its internal id beside the client's id; every terminal
//!   [`PlanResponse`] is appended as a [`JournalRecord::Done`] under the
//!   internal id *before* the reply line is written. A crash at any point
//!   therefore loses no accepted job: on restart, submits without a
//!   matching done are re-enqueued, and dones without a delivered reply are
//!   re-emitted under the client id.
//! * `cache.snap` — a checksummed snapshot of the plan cache, rewritten
//!   atomically at recovery time with every completed run folded in, so the
//!   cache survives restarts without replaying the full history.
//!
//! Recovery semantics are *at-least-once*: a reply that was both journaled
//! and delivered just before a crash is re-emitted once on the next
//! startup. Exactly-once holds whenever the crash precedes reply delivery —
//! which is the only window in which a reply could otherwise be lost.
//!
//! Corruption never panics and never blocks startup: the WAL is truncated
//! at the first bad checksum (counted in [`Recovery::truncated_bytes`]), a
//! corrupt snapshot is discarded, and a record whose checksum passes but
//! whose JSON does not parse is skipped and counted.

use std::io;
use std::sync::Arc;

use gaplan_durable::{load_snapshot, save_snapshot, Journal, Storage};
use serde::{Deserialize, Serialize};

use crate::cache::CachedPlan;
use crate::request::{JobStatus, PlanRequest, PlanResponse};

/// WAL file name within the journal's storage root.
pub const WAL_NAME: &str = "journal.wal";
/// Plan-cache snapshot file name within the journal's storage root.
pub const SNAP_NAME: &str = "cache.snap";

/// One record in the write-ahead job journal (externally tagged JSON,
/// framed and checksummed by [`gaplan_durable::Journal`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A request accepted for execution, written before enqueue, whose id
    /// is also the client's id. Journals written before client ids were
    /// recorded apart hold only this form.
    Submit(PlanRequest),
    /// A request accepted for execution under internal id `request.id` on
    /// behalf of a client that knows it as `client`, written before
    /// enqueue.
    SubmitFor {
        /// The id the client submitted (and expects its reply under).
        client: u64,
        /// The request, re-keyed onto its internal id.
        request: PlanRequest,
    },
    /// A terminal reply under the internal id, written before it is sent
    /// to the client.
    Done(PlanResponse),
}

/// An accepted job with no terminal reply yet.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// The id the client submitted; replies go out under it.
    pub client: u64,
    /// The request under its internal id.
    pub request: PlanRequest,
}

/// Serializable plan-cache entry persisted in `cache.snap`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheEntrySer {
    /// Cache key ([`crate::PlanCache::key`] of the problem + config
    /// signatures).
    pub key: u64,
    /// Did the cached plan reach the goal?
    pub solved: bool,
    /// Goal fitness of the plan's final state.
    pub goal_fitness: f64,
    /// Operation names of the plan.
    pub plan_names: Vec<String>,
    /// Raw operation ids of the plan.
    pub plan_ops: Vec<u32>,
    /// Generations the original run evolved.
    pub total_generations: u32,
}

impl CacheEntrySer {
    fn into_cached(self) -> (u64, CachedPlan) {
        (
            self.key,
            CachedPlan {
                solved: self.solved,
                goal_fitness: self.goal_fitness,
                plan_names: self.plan_names,
                plan_ops: self.plan_ops,
                total_generations: self.total_generations,
            },
        )
    }
}

/// Everything [`JobJournal::recover`] reconstructs from disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Accepted jobs with no terminal reply yet, in submission order; the
    /// serve loop re-enqueues these.
    pub pending: Vec<PendingJob>,
    /// Terminal replies journaled since the last compaction, under their
    /// client ids; re-emitted so a reply that raced the crash is never
    /// lost.
    pub completed: Vec<PlanResponse>,
    /// Plan-cache contents (snapshot merged with completed runs), ready to
    /// seed a fresh [`crate::PlanCache`].
    pub cache_entries: Vec<(u64, CachedPlan)>,
    /// Intact WAL records decoded during replay.
    pub records_replayed: u64,
    /// Bytes of corrupt WAL tail discarded (truncated at the first bad
    /// checksum).
    pub truncated_bytes: u64,
    /// Records whose checksum passed but whose JSON did not parse, plus a
    /// corrupt cache snapshot if one was discarded.
    pub malformed_records: u64,
}

/// The service's write-ahead job journal over a pluggable [`Storage`].
pub struct JobJournal {
    wal: Journal,
    storage: Arc<dyn Storage>,
}

impl JobJournal {
    /// Open (or create) the journal files on `storage`.
    pub fn new(storage: Arc<dyn Storage>) -> Self {
        JobJournal { wal: Journal::new(Arc::clone(&storage), WAL_NAME), storage }
    }

    /// The backing storage.
    pub fn storage(&self) -> &Arc<dyn Storage> {
        &self.storage
    }

    /// Append (and flush) a submit record whose id doubles as the client
    /// id. Called before the job is enqueued; on error the job must be
    /// refused, not run unjournaled.
    pub fn record_submit(&self, request: &PlanRequest) -> io::Result<()> {
        self.append(&JournalRecord::Submit(request.clone()))
    }

    /// [`JobJournal::record_submit`] for a request re-keyed onto an
    /// internal id: the record keeps the `client` id beside it.
    pub fn record_submit_for(&self, client: u64, request: &PlanRequest) -> io::Result<()> {
        self.append(&JournalRecord::SubmitFor { client, request: request.clone() })
    }

    /// Append (and flush) a terminal-reply record. Called before the reply
    /// line is written to the client.
    pub fn record_done(&self, response: &PlanResponse) -> io::Result<()> {
        self.append(&JournalRecord::Done(response.clone()))
    }

    fn append(&self, record: &JournalRecord) -> io::Result<()> {
        let json = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("serialize journal record: {e}")))?;
        self.wal.append(json.as_bytes())
    }

    /// Force journal contents to durable media.
    pub fn sync(&self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Replay the WAL and cache snapshot, then compact: completed runs are
    /// folded into a freshly written `cache.snap`, and the WAL is rewritten
    /// to contain only still-pending submits. Corruption is truncated or
    /// skipped (and counted), never fatal.
    pub fn recover(&self) -> io::Result<Recovery> {
        let mut recovery = Recovery::default();

        let mut entries: Vec<CacheEntrySer> = match load_snapshot(&self.storage, SNAP_NAME) {
            Ok(Some(bytes)) => match std::str::from_utf8(&bytes).ok().and_then(|s| serde_json::from_str(s).ok()) {
                Some(entries) => entries,
                None => {
                    recovery.malformed_records += 1;
                    Vec::new()
                }
            },
            Ok(None) => Vec::new(),
            Err(_) => {
                recovery.malformed_records += 1;
                Vec::new()
            }
        };

        let replay = self.wal.replay()?;
        recovery.truncated_bytes = replay.truncated_bytes;
        recovery.records_replayed = replay.records.len() as u64;

        let mut pending: Vec<PendingJob> = Vec::new();
        for raw in &replay.records {
            let parsed = std::str::from_utf8(raw).ok().and_then(|s| serde_json::from_str::<JournalRecord>(s).ok());
            let Some(record) = parsed else {
                recovery.malformed_records += 1;
                continue;
            };
            match record {
                JournalRecord::Submit(request) => pending.push(PendingJob { client: request.id, request }),
                JournalRecord::SubmitFor { client, request } => pending.push(PendingJob { client, request }),
                JournalRecord::Done(mut response) => {
                    // Match the earliest unanswered submit with this
                    // internal id (unique among in-flight jobs, reusable
                    // after completion). A done with no matching submit was
                    // compacted away already; drop it.
                    if let Some(i) = pending.iter().position(|p| p.request.id == response.id) {
                        let job = pending.remove(i);
                        merge_entry(&mut entries, &job.request, &response);
                        response.id = job.client;
                        recovery.completed.push(response);
                    }
                }
            }
        }

        // Compact: snapshot first (atomic), then shrink the WAL to the
        // pending submits. If the WAL rewrite faults, the old WAL survives
        // intact and the next recovery redoes this merge idempotently.
        let snap = serde_json::to_string(&entries)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("serialize cache snapshot: {e}")))?;
        save_snapshot(&self.storage, SNAP_NAME, snap.as_bytes())?;
        let payloads: Vec<Vec<u8>> = pending
            .iter()
            .map(|p| {
                serde_json::to_string(&JournalRecord::SubmitFor { client: p.client, request: p.request.clone() })
                    .map(String::into_bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("serialize journal record: {e}")))
            })
            .collect::<io::Result<_>>()?;
        self.wal.rewrite(payloads.iter().map(Vec::as_slice))?;
        self.wal.sync()?;

        recovery.cache_entries = entries.into_iter().map(CacheEntrySer::into_cached).collect();
        recovery.pending = pending;
        Ok(recovery)
    }
}

/// Fold a completed run into the snapshot entries, mirroring the worker's
/// cache policy: only `Done` runs are cached (timeouts and cancellations
/// depend on wall-clock luck; errors carry no plan; degraded runs used a
/// brownout-scaled budget and must not poison the cache with a
/// lower-quality plan).
fn merge_entry(entries: &mut Vec<CacheEntrySer>, request: &PlanRequest, response: &PlanResponse) {
    if response.status != JobStatus::Done || response.error.is_some() || response.degraded {
        return;
    }
    let Some(key) = request.cache_key() else { return };
    let entry = CacheEntrySer {
        key,
        solved: response.solved,
        goal_fitness: response.goal_fitness,
        plan_names: response.plan.clone(),
        plan_ops: response.plan_ops.clone(),
        total_generations: response.total_generations,
    };
    match entries.iter_mut().find(|e| e.key == key) {
        Some(existing) => *existing = entry,
        None => entries.push(entry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{GaOverrides, ProblemSpec};
    use gaplan_durable::{FaultPlan, MemStorage};

    fn mem_journal() -> (Arc<MemStorage>, JobJournal) {
        let storage = Arc::new(MemStorage::new());
        let journal = JobJournal::new(storage.clone() as Arc<dyn Storage>);
        (storage, journal)
    }

    fn request(id: u64) -> PlanRequest {
        PlanRequest {
            id,
            problem: ProblemSpec::Hanoi { disks: 3 },
            deadline_ms: None,
            ga: Some(GaOverrides { generations: Some(10), ..GaOverrides::default() }),
        }
    }

    fn done(id: u64) -> PlanResponse {
        PlanResponse {
            id,
            status: JobStatus::Done,
            solved: true,
            goal_fitness: 1.0,
            plan: vec!["a->b".into()],
            plan_ops: vec![0],
            plan_len: 1,
            total_generations: 7,
            wall_ms: 12,
            cache_hit: false,
            error: None,
            degraded: false,
        }
    }

    #[test]
    fn submits_without_done_recover_as_pending_in_order() {
        let (_, journal) = mem_journal();
        for id in [1, 2, 3] {
            journal.record_submit(&request(id)).unwrap();
        }
        journal.record_done(&done(2)).unwrap();
        let rec = journal.recover().unwrap();
        assert_eq!(rec.pending.iter().map(|p| p.request.id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(rec.completed.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!(rec.records_replayed, 4);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.malformed_records, 0);
    }

    #[test]
    fn recovery_compacts_and_is_idempotent() {
        let (storage, journal) = mem_journal();
        journal.record_submit(&request(1)).unwrap();
        journal.record_done(&done(1)).unwrap();
        journal.record_submit(&request(9)).unwrap();
        let first = journal.recover().unwrap();
        assert_eq!(first.completed.len(), 1);
        assert_eq!(first.pending.len(), 1);
        assert_eq!(first.cache_entries.len(), 1, "done run must enter the cache snapshot");

        // After compaction the done record is gone from the WAL; a second
        // recovery re-emits nothing but keeps the cache and the pending job.
        let journal = JobJournal::new(storage as Arc<dyn Storage>);
        let second = journal.recover().unwrap();
        assert!(second.completed.is_empty(), "compacted replies must not re-emit");
        assert_eq!(second.pending.iter().map(|p| p.request.id).collect::<Vec<_>>(), vec![9]);
        assert_eq!(second.cache_entries.len(), 1, "cache snapshot must survive compaction");
        assert_eq!(second.records_replayed, 1);
    }

    #[test]
    fn completed_runs_rebuild_the_plan_cache_under_the_worker_key() {
        let (_, journal) = mem_journal();
        let req = request(1);
        journal.record_submit(&req).unwrap();
        journal.record_done(&done(1)).unwrap();
        let rec = journal.recover().unwrap();
        let expected = req.cache_key().unwrap();
        assert_eq!(rec.cache_entries.len(), 1);
        assert_eq!(rec.cache_entries[0].0, expected);
        assert_eq!(rec.cache_entries[0].1.plan_ops, vec![0]);
        assert_eq!(rec.cache_entries[0].1.goal_fitness.to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn non_done_and_chaos_replies_never_enter_the_cache() {
        let (_, journal) = mem_journal();
        journal.record_submit(&request(1)).unwrap();
        let mut timeout = done(1);
        timeout.status = JobStatus::Timeout;
        journal.record_done(&timeout).unwrap();
        let mut chaos = request(2);
        chaos.problem = ProblemSpec::Chaos { fail_attempts: 0, kill_worker: false };
        journal.record_submit(&chaos).unwrap();
        journal.record_done(&done(2)).unwrap();
        let rec = journal.recover().unwrap();
        assert_eq!(rec.completed.len(), 2, "both replies still re-emit");
        assert!(rec.cache_entries.is_empty(), "neither run may be cached: {:?}", rec.cache_entries);
    }

    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let (storage, journal) = mem_journal();
        journal.record_submit(&request(1)).unwrap();
        // Torn write: half a frame of a second record.
        let frame =
            gaplan_durable::frame(serde_json::to_string(&JournalRecord::Submit(request(2))).unwrap().as_bytes());
        storage.append(WAL_NAME, &frame[..frame.len() / 2]).unwrap();
        let rec = journal.recover().unwrap();
        assert_eq!(rec.pending.iter().map(|p| p.request.id).collect::<Vec<_>>(), vec![1]);
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn corrupt_snapshot_is_discarded_and_counted() {
        let (storage, journal) = mem_journal();
        journal.record_submit(&request(1)).unwrap();
        storage.set_raw(SNAP_NAME, b"not a snapshot".to_vec());
        let rec = journal.recover().unwrap();
        assert_eq!(rec.pending.len(), 1);
        assert!(rec.cache_entries.is_empty());
        assert_eq!(rec.malformed_records, 1);
    }

    #[test]
    fn client_ids_survive_recovery_and_compaction() {
        let (_, journal) = mem_journal();
        // Two clients both named their job 1; internal ids tell them apart.
        journal.record_submit_for(1, &request(7)).unwrap();
        journal.record_submit_for(1, &request(8)).unwrap();
        journal.record_done(&done(8)).unwrap();
        let rec = journal.recover().unwrap();
        assert_eq!(rec.pending.iter().map(|p| (p.client, p.request.id)).collect::<Vec<_>>(), vec![(1, 7)]);
        assert_eq!(rec.completed.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1], "replies re-emit as the client");
        let again = journal.recover().unwrap();
        assert_eq!(again.pending.iter().map(|p| (p.client, p.request.id)).collect::<Vec<_>>(), vec![(1, 7)]);
    }

    #[test]
    fn chaos_storage_recovery_never_panics_and_pending_is_a_subsequence() {
        for seed in 0..60u64 {
            let storage = Arc::new(MemStorage::with_faults(FaultPlan::new(seed, 35)));
            let journal = JobJournal::new(storage.clone() as Arc<dyn Storage>);
            let mut acked = Vec::new();
            for id in 1..=12u64 {
                if journal.record_submit(&request(id)).is_ok() {
                    acked.push(id);
                }
            }
            let Ok(rec) = journal.recover() else { continue };
            // Every recovered pending job was acked, in order (silent short
            // writes may drop acked records; nothing may be fabricated).
            let mut acked_it = acked.iter();
            for job in &rec.pending {
                let id = job.request.id;
                assert!(acked_it.any(|&a| a == id), "seed {seed}: pending job {id} never acked in order");
            }
        }
    }
}
