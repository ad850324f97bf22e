//! Singleflight request coalescing and response fan-out.
//!
//! The [`Dispatch`] table sits between transport sessions and the
//! [`crate::PlanService`]: every submission is re-keyed onto a private,
//! monotonically allocated *internal* job id, and — with joining on —
//! concurrent requests whose [`PlanRequest::coalesce_key`] matches an
//! in-flight job join that job as extra *waiters* instead of burning
//! another worker. When the shared response channel delivers the internal
//! job's terminal reply, the dispatcher journals it once and then fans it
//! out to every waiter with the waiter's own client id patched in.
//!
//! Id spaces: the journal and the service queue always speak *internal*
//! ids (one durable record per computation, kept beside the leader's
//! client id); client-visible ids exist only at the session edge. Every
//! reply line this table produces — fan-out, failure or detach — is traced
//! as one `svc.reply` event under the client `id`, with the `internal` id
//! of the computation behind it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use gaplan_core::CancelToken;
use gaplan_obs::{self as obs, Event};
use parking_lot::Mutex;

use crate::journal::{JobJournal, PendingJob};
use crate::metrics::{Metric, Metrics};
use crate::request::{JobStatus, PlanRequest, PlanResponse};
use crate::service::{PlanService, SubmitError};

/// Render a response as its wire line, falling back to an error line when
/// serialization itself fails.
pub(crate) fn response_line(resp: &PlanResponse) -> String {
    serde_json::to_string(resp).unwrap_or_else(|e| error_line(Some(resp.id), &format!("serialize response: {e}")))
}

fn json_escape(s: &str) -> String {
    let mut out = String::new();
    serde::ser::Serialize::serialize_json(s, &mut out);
    out
}

/// An error line that always carries a `status` and, when known, the `id`
/// the client needs to correlate the failure.
pub(crate) fn error_line(id: Option<u64>, message: &str) -> String {
    match id {
        Some(id) => format!(r#"{{"id":{id},"status":"Error","error":{}}}"#, json_escape(message)),
        None => format!(r#"{{"status":"Error","error":{}}}"#, json_escape(message)),
    }
}

/// Where one connection's reply lines go: its id (the scope of cancel and
/// disconnect handling), its output sink and its write-backlog gauge.
#[derive(Clone)]
pub(crate) struct Route {
    pub(crate) conn: u64,
    sink: Sender<String>,
    pub(crate) depth: Arc<AtomicUsize>,
}

impl Route {
    /// Queue `line` on the connection, keeping its write-backlog gauge
    /// honest even when the connection is already gone.
    pub(crate) fn send(&self, line: String) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        if self.sink.send(line).is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One client waiting on an in-flight internal job.
struct Waiter {
    ticket: u64,
    client_id: u64,
    route: Route,
}

/// An in-flight internal job: its coalesce key (when coalescable), the
/// cancel token once the submit call has returned it, and every waiter.
struct Inflight {
    key: Option<u64>,
    token: Option<CancelToken>,
    /// Set when cancellation was requested before the token was stored
    /// (submit still in flight) — the submitter fires it on arrival.
    cancel_requested: bool,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct Inner {
    /// Internal job id → in-flight entry.
    inflight: HashMap<u64, Inflight>,
    /// Coalesce key → internal id of the live leader for that key.
    by_key: HashMap<u64, u64>,
    /// Connection → client id → (waiter ticket, internal id); drives
    /// per-connection cancel and disconnect abandonment.
    conns: HashMap<u64, HashMap<u64, (u64, u64)>>,
    next_internal: u64,
    next_ticket: u64,
    next_conn: u64,
}

impl Inner {
    /// Drop the key → leader mapping when it still points at `internal`.
    fn unmap_key(&mut self, key: Option<u64>, internal: u64) {
        if let Some(k) = key {
            if self.by_key.get(&k) == Some(&internal) {
                self.by_key.remove(&k);
            }
        }
    }

    /// A new waiter for `client_id` on `route`, entered in the
    /// connection's id map as waiting on `internal`.
    fn waiter(&mut self, route: &Route, client_id: u64, internal: u64) -> Waiter {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if let Some(m) = self.conns.get_mut(&route.conn) {
            m.insert(client_id, (ticket, internal));
        }
        Waiter { ticket, client_id, route: route.clone() }
    }

    /// Remove `internal`'s entry with its key and connection mappings,
    /// returning the waiters still owed a reply.
    fn take_entry(&mut self, internal: u64) -> Option<Vec<Waiter>> {
        let entry = self.inflight.remove(&internal)?;
        self.unmap_key(entry.key, internal);
        for w in &entry.waiters {
            if let Some(m) = self.conns.get_mut(&w.route.conn) {
                m.remove(&w.client_id);
            }
        }
        Some(entry.waiters)
    }
}

/// What a coalescing submission turned into under the lock.
enum Submitted {
    /// The connection already has this client id in flight with the same
    /// coalesce key: an idempotent retry. The original waiter entry stands
    /// and will deliver exactly one answer when the job completes.
    Rejoined {
        /// Internal id of the in-flight job the retry folded into.
        leader: u64,
        /// The shared coalesce key.
        key: u64,
    },
    /// The connection already has this client id in flight but the payload
    /// provably differs (both keys known, unequal).
    Conflict,
    /// The connection already has this client id in flight and identity
    /// cannot be verified (coalescing off, uncoalescable problem, or the
    /// connection vanished mid-submit).
    Duplicate,
    /// Joined an existing in-flight job as an extra waiter.
    Joined {
        /// Internal id of the job joined.
        leader: u64,
        /// The shared coalesce key.
        key: u64,
    },
    /// Became the leader of a fresh internal job.
    Leader(u64),
}

/// The coalescing/fan-out table shared by every session of a host.
pub(crate) struct Dispatch {
    inner: Mutex<Inner>,
    metrics: Arc<Metrics>,
    journal: Option<Arc<JobJournal>>,
    /// Singleflight joining on. Off, every submission leads its own job —
    /// per-connection routing and cancellation still work, identical
    /// requests just no longer share a computation.
    join: bool,
}

impl Dispatch {
    pub(crate) fn new(metrics: Arc<Metrics>, journal: Option<Arc<JobJournal>>, join: bool) -> Self {
        Dispatch {
            inner: Mutex::new(Inner { next_internal: 1, next_ticket: 1, next_conn: 1, ..Inner::default() }),
            metrics,
            journal,
            join,
        }
    }

    /// Reserve internal ids so fresh allocations never collide with ids
    /// replayed from the journal.
    pub(crate) fn reserve_internal(&self, min_exclusive: u64) {
        let mut guard = self.inner.lock();
        if guard.next_internal <= min_exclusive {
            guard.next_internal = min_exclusive + 1;
        }
    }

    /// Register a new connection replying through `sink`; the returned
    /// route scopes cancel and disconnect handling.
    pub(crate) fn register_conn(&self, sink: Sender<String>) -> Route {
        let mut guard = self.inner.lock();
        let conn = guard.next_conn;
        guard.next_conn += 1;
        guard.conns.insert(conn, HashMap::new());
        Route { conn, sink, depth: Arc::new(AtomicUsize::new(0)) }
    }

    /// Register a journal-recovered job that is about to be resubmitted
    /// under its original internal id. With a `route` (the recovering
    /// session), the job waits there under its client id, so its reply
    /// reaches that session and `cancel` finds it. Without one (its clients
    /// vanished with the crashed process) it has no waiters. Either way it
    /// keeps its coalesce-key mapping, so reconnecting clients resubmitting
    /// the identical request join the recovered run instead of duplicating
    /// it.
    pub(crate) fn register_recovered(&self, job: &PendingJob, route: Option<&Route>) {
        let internal = job.request.id;
        let key = self.join.then(|| job.request.coalesce_key()).flatten();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let waiters = route.map(|r| inner.waiter(r, job.client, internal)).into_iter().collect();
        inner.inflight.insert(internal, Inflight { key, token: None, cancel_requested: false, waiters });
        if let Some(k) = key {
            inner.by_key.entry(k).or_insert(internal);
        }
    }

    /// Store the cancel token a submit call returned for `internal`,
    /// firing it immediately when cancellation raced the submission.
    pub(crate) fn store_token(&self, internal: u64, token: CancelToken) {
        let mut guard = self.inner.lock();
        if let Some(entry) = guard.inflight.get_mut(&internal) {
            if entry.cancel_requested {
                token.cancel();
            }
            entry.token = Some(token);
        }
    }

    /// Submit `request` for the connection behind `route`: join an
    /// identical in-flight job when joining is on and one exists, otherwise
    /// become the leader of a new internal job (journaled write-ahead, then
    /// enqueued). Failure replies go to `route` under the client id.
    pub(crate) fn submit(&self, service: &PlanService, request: PlanRequest, route: &Route) {
        let client_id = request.id;
        let key = self.join.then(|| request.coalesce_key()).flatten();

        let outcome = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let already = match inner.conns.get(&route.conn) {
                Some(m) => m.get(&client_id).copied().map(Some),
                None => Some(None), // disconnect raced the submission
            };
            if let Some(existing) = already {
                // Same id + same coalesce key is an idempotent client
                // retry: the registered waiter already covers it, so the
                // retry folds into the in-flight job without a new waiter
                // (exactly one answer will fan out). Anything else is a
                // genuine duplicate and gets a typed rejection.
                let in_flight_key =
                    existing.and_then(|(_, internal)| inner.inflight.get(&internal)).and_then(|e| e.key);
                match (existing, key, in_flight_key) {
                    (Some((_, internal)), Some(k), Some(ik)) if k == ik => {
                        Submitted::Rejoined { leader: internal, key: k }
                    }
                    (Some(_), Some(_), Some(_)) => Submitted::Conflict,
                    _ => Submitted::Duplicate,
                }
            } else {
                let live_leader = key
                    .and_then(|k| inner.by_key.get(&k).copied().map(|leader| (k, leader)))
                    .filter(|(_, leader)| inner.inflight.contains_key(leader));
                match live_leader {
                    Some((k, leader)) => {
                        let waiter = inner.waiter(route, client_id, leader);
                        if let Some(entry) = inner.inflight.get_mut(&leader) {
                            entry.waiters.push(waiter);
                        }
                        Submitted::Joined { leader, key: k }
                    }
                    None => {
                        let internal = inner.next_internal;
                        inner.next_internal += 1;
                        let waiter = inner.waiter(route, client_id, internal);
                        inner.inflight.insert(
                            internal,
                            Inflight { key, token: None, cancel_requested: false, waiters: vec![waiter] },
                        );
                        if let Some(k) = key {
                            inner.by_key.insert(k, internal);
                        }
                        Submitted::Leader(internal)
                    }
                }
            }
        };

        let internal = match outcome {
            Submitted::Rejoined { leader, key } => {
                self.metrics.inc(Metric::RetriesJoined);
                obs::emit(|| {
                    Event::new("svc.idem").str("op", "join").u64("id", client_id).u64("leader", leader).u64("key", key)
                });
                return;
            }
            Submitted::Conflict => {
                self.metrics.on_retry_conflict();
                obs::emit(|| Event::new("svc.idem").str("op", "conflict").u64("id", client_id));
                let resp = PlanResponse::failure(
                    client_id,
                    JobStatus::Rejected,
                    "duplicate id: payload differs from the in-flight request with this id",
                );
                emit_reply(&resp, None);
                route.send(response_line(&resp));
                return;
            }
            Submitted::Duplicate => {
                self.metrics.inc(Metric::JobsRejected);
                let resp = PlanResponse::failure(
                    client_id,
                    JobStatus::Rejected,
                    "duplicate id: a job with this id is already in flight on this connection",
                );
                emit_reply(&resp, None);
                route.send(response_line(&resp));
                return;
            }
            Submitted::Joined { leader, key } => {
                self.metrics.inc(Metric::CoalescedJobs);
                obs::emit(|| Event::new("svc.coalesced").u64("id", client_id).u64("leader", leader).u64("key", key));
                return;
            }
            Submitted::Leader(internal) => internal,
        };

        // Leader path: the marker entry is visible (joiners may arrive from
        // here on), so failures must fan out to every waiter present at
        // removal time, not just this client.
        let mut internal_req = request;
        internal_req.id = internal;
        if let Some(journal) = &self.journal {
            // Write-ahead: the internal job is durable before it can run.
            if let Err(e) = journal.record_submit_for(client_id, &internal_req) {
                self.fail_entry(internal, JobStatus::Error, &format!("journal write failed: {e}"), false);
                return;
            }
            self.metrics.inc(Metric::JournalAppends);
        }
        match service.submit(internal_req) {
            Ok(token) => self.store_token(internal, token),
            Err(err) => {
                let status = match err {
                    SubmitError::Shed => JobStatus::Shed,
                    _ => JobStatus::Rejected,
                };
                self.fail_entry(internal, status, &err.to_string(), true);
            }
        }
    }

    /// Cancel connection `conn`'s job with client id `id`. A sole waiter
    /// cancels the underlying computation (the `Cancelled` response fans
    /// back normally); a waiter coalesced with live peers detaches alone
    /// and is answered `Cancelled` immediately, leaving the shared job
    /// running. Returns whether the id named an in-flight job.
    pub(crate) fn cancel(&self, conn: u64, id: u64) -> bool {
        enum Act {
            Fire(Option<CancelToken>),
            Detached(u64, Option<Waiter>),
        }
        let act = {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let Some(&(ticket, internal)) = inner.conns.get(&conn).and_then(|m| m.get(&id)) else {
                return false;
            };
            let Some(entry) = inner.inflight.get_mut(&internal) else {
                return false;
            };
            if entry.waiters.len() <= 1 {
                entry.cancel_requested = true;
                let key = entry.key;
                let token = entry.token.clone();
                // Nobody should join a job that is being cancelled.
                inner.unmap_key(key, internal);
                Act::Fire(token)
            } else {
                let detached =
                    entry.waiters.iter().position(|w| w.ticket == ticket).map(|pos| entry.waiters.remove(pos));
                if let Some(m) = inner.conns.get_mut(&conn) {
                    m.remove(&id);
                }
                Act::Detached(internal, detached)
            }
        };
        match act {
            Act::Fire(token) => {
                if let Some(token) = token {
                    token.cancel();
                }
            }
            Act::Detached(internal, w) => {
                if let Some(w) = w {
                    let resp = PlanResponse::failure(
                        w.client_id,
                        JobStatus::Cancelled,
                        "detached from coalesced job by cancel",
                    );
                    emit_reply(&resp, Some(internal));
                    w.route.send(response_line(&resp));
                }
            }
        }
        true
    }

    /// Tear down a disappeared connection: detach all its waiters and fire
    /// the cancel token of any job left with no waiters at all, so
    /// abandoned work stops burning a worker. Returns how many in-flight
    /// jobs the connection abandoned.
    pub(crate) fn drop_conn(&self, conn: u64) -> usize {
        let mut to_cancel = Vec::new();
        let mut abandoned = 0usize;
        {
            let mut guard = self.inner.lock();
            let inner = &mut *guard;
            let Some(map) = inner.conns.remove(&conn) else {
                return 0;
            };
            for (_client_id, (ticket, internal)) in map {
                let Some(entry) = inner.inflight.get_mut(&internal) else {
                    continue;
                };
                if let Some(pos) = entry.waiters.iter().position(|w| w.ticket == ticket) {
                    entry.waiters.remove(pos);
                    abandoned += 1;
                }
                if entry.waiters.is_empty() {
                    entry.cancel_requested = true;
                    if let Some(token) = entry.token.clone() {
                        to_cancel.push(token);
                    }
                    let key = entry.key;
                    inner.unmap_key(key, internal);
                }
            }
        }
        for token in to_cancel {
            token.cancel();
        }
        abandoned
    }

    /// Fail an entry before its job produced a response: remove it,
    /// optionally journal a terminal record for the already-journaled
    /// submit, and fan a failure reply to every waiter that had joined.
    pub(crate) fn fail_entry(&self, internal: u64, status: JobStatus, message: &str, journal_done: bool) {
        let Some(waiters) = self.inner.lock().take_entry(internal) else {
            return;
        };
        if journal_done {
            if let Some(journal) = &self.journal {
                if journal.record_done(&PlanResponse::failure(internal, status, message)).is_ok() {
                    self.metrics.inc(Metric::JournalAppends);
                }
            }
        }
        for w in waiters {
            let resp = PlanResponse::failure(w.client_id, status, message);
            emit_reply(&resp, Some(internal));
            w.route.send(response_line(&resp));
        }
    }

    /// Handle one terminal response from the shared channel: journal it
    /// durably, then fan it out to every waiter of its entry with the
    /// waiter's client id patched in. A job nobody waits on any more
    /// (abandoned, or recovered for clients that never came back) is only
    /// journaled.
    pub(crate) fn complete(&self, resp: &PlanResponse) {
        if let Some(journal) = &self.journal {
            // A failed append still answers the client: availability over
            // durability (the job may re-run after a crash).
            if journal.record_done(resp).is_ok() {
                self.metrics.inc(Metric::JournalAppends);
            }
        }
        let waiters = self.inner.lock().take_entry(resp.id).unwrap_or_default();
        for w in waiters {
            let mut patched = resp.clone();
            patched.id = w.client_id;
            emit_reply(&patched, Some(resp.id));
            w.route.send(response_line(&patched));
        }
    }
}

/// Trace one terminal reply line: the client `id` and status it carries,
/// then the `internal` id of the computation behind it when there is one
/// (joining it to that job's `svc.dequeue` and `svc.finish` events).
pub(crate) fn emit_reply(resp: &PlanResponse, internal: Option<u64>) {
    obs::emit(|| {
        let ev = Event::new("svc.reply")
            .u64("id", resp.id)
            .str("status", resp.status.name())
            .bool("cache_hit", resp.cache_hit)
            .u64("wall_ms", resp.wall_ms);
        match internal {
            Some(internal) => ev.u64("internal", internal),
            None => ev,
        }
    });
}
