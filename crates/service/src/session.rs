//! Transport-agnostic serving: a [`SessionHost`] wraps one [`PlanService`]
//! plus its journal and coalescing dispatcher, and each client — the stdin
//! loop or one TCP connection — drives a [`Session`] against it.
//!
//! The host owns everything transport-independent: the worker pool, the
//! write-ahead journal, the response-dispatcher thread and the singleflight
//! table. A session owns everything per-client: the output sink, the write
//! backlog gauge that feeds admission shedding, and (in coalescing mode)
//! the connection scope for cancel and disconnect handling.
//!
//! Two modes, chosen at host construction via [`SessionMode`]:
//!
//! * **[`SessionMode::Direct`]** (the stdin transport): client ids are
//!   service ids, submissions go straight to the queue, and responses reach
//!   the single session through the dispatcher's fallback sink — the
//!   historical `serve` behavior, byte for byte.
//! * **[`SessionMode::Routed`]** (the TCP transport): submissions are
//!   re-keyed onto internal ids so replies route back to the submitting
//!   connection, and — when `coalesce` is on — identical in-flight requests
//!   share one computation (singleflight; see the `coalesce` module).

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gaplan_obs::{self as obs, Event};

use crate::coalesce::{error_line, response_line, Dispatch};
use crate::journal::JobJournal;
use crate::metrics::{Metric, Metrics};
use crate::proto::{parse_command, Command};
use crate::request::{JobStatus, PlanRequest, PlanResponse};
use crate::service::{ObsHandle, PlanService, ServiceConfig, SubmitError};

/// How a [`SessionHost`] serves its sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// Single-client stdin mode: client ids are service ids, responses go
    /// to the dispatcher's fallback sink.
    Direct,
    /// Multi-connection (TCP) mode: per-connection reply routing, cancel
    /// scoping and disconnect cleanup. `coalesce` turns on singleflight
    /// joining of identical in-flight requests.
    Routed {
        /// Coalesce identical in-flight requests into one computation.
        coalesce: bool,
    },
}

/// What a handled line asks the transport to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// Keep reading.
    Continue,
    /// A `shutdown` command: stop the whole host (drain and exit).
    Shutdown,
}

/// One planning service plus its transport-independent serving machinery:
/// journal, response dispatcher and singleflight table. Shared by every
/// concurrent [`Session`].
pub struct SessionHost {
    service: PlanService,
    journal: Option<Arc<JobJournal>>,
    metrics: Arc<Metrics>,
    dispatch: Arc<Dispatch>,
    obs: Option<ObsHandle>,
    admission_timeout: Duration,
    routed: bool,
    dispatcher: Option<JoinHandle<()>>,
}

impl SessionHost {
    /// Start the service and its response-dispatcher thread. `mode`
    /// selects the serving mode for every session of this host.
    pub fn start(cfg: ServiceConfig, journal: Option<JobJournal>, mode: SessionMode) -> io::Result<SessionHost> {
        let obs_handle = cfg.obs.clone();
        let admission_timeout = cfg.admission_timeout;
        let (service, responses) = PlanService::start(cfg).map_err(io::Error::from)?;
        let journal = journal.map(Arc::new);
        let metrics = service.metrics_arc();
        let join = matches!(mode, SessionMode::Routed { coalesce: true });
        let dispatch = Arc::new(Dispatch::new(Arc::clone(&metrics), journal.clone(), join));
        let dispatcher = {
            let dispatch = Arc::clone(&dispatch);
            std::thread::Builder::new().name("gaplan-dispatcher".to_string()).spawn(move || {
                for resp in responses {
                    dispatch.complete(&resp);
                }
            })?
        };
        Ok(SessionHost {
            service,
            journal,
            metrics,
            dispatch,
            obs: obs_handle,
            admission_timeout,
            routed: !matches!(mode, SessionMode::Direct),
            dispatcher: Some(dispatcher),
        })
    }

    /// Replay the journal (when one is configured): reseed the plan cache,
    /// re-emit journaled replies to `sink` (when given), and re-enqueue
    /// unfinished jobs. In coalescing mode recovered jobs re-register their
    /// coalesce keys, so reconnecting clients resubmitting the identical
    /// request join the recovered run instead of duplicating it.
    pub fn recover(&self, sink: Option<&Sender<String>>) -> io::Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let recovery = journal.recover()?;
        self.metrics.add(Metric::JournalReplayed, recovery.records_replayed);
        self.metrics.add(Metric::JournalTruncatedBytes, recovery.truncated_bytes);
        obs::emit(|| {
            Event::new("durable.replay")
                .u64("records", recovery.records_replayed)
                .u64("pending", recovery.pending.len() as u64)
                .u64("completed", recovery.completed.len() as u64)
                .u64("truncated_bytes", recovery.truncated_bytes)
                .u64("malformed", recovery.malformed_records)
        });
        for (key, entry) in recovery.cache_entries {
            self.service.seed_cache(key, entry);
        }
        if self.routed {
            // Fresh internal ids must never collide with replayed ones.
            let max_seen =
                recovery.pending.iter().map(|r| r.id).chain(recovery.completed.iter().map(|r| r.id)).max().unwrap_or(0);
            self.dispatch.reserve_internal(max_seen);
        }
        for resp in recovery.completed {
            if let Some(sink) = sink {
                let _ = sink.send(response_line(&resp));
            }
        }
        for request in recovery.pending {
            if self.routed {
                self.dispatch.register_recovered(&request);
            }
            let id = request.id;
            loop {
                match self.service.submit(request.clone()) {
                    Ok(token) => {
                        if self.routed {
                            self.dispatch.store_token(id, token);
                        }
                        break;
                    }
                    Err(SubmitError::QueueFull | SubmitError::Shed) => {
                        // Accepted jobs must not be shed by their own
                        // recovery: wait out transient queue pressure.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(err) => {
                        let resp = PlanResponse::failure(id, JobStatus::Rejected, err.to_string());
                        if journal.record_done(&resp).is_ok() {
                            self.metrics.inc(Metric::JournalAppends);
                        }
                        if let Some(sink) = sink {
                            let _ = sink.send(response_line(&resp));
                        }
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Drain the queue, stop the workers, join the dispatcher and sync the
    /// journal — every accepted job's reply is durable before this returns.
    pub fn shutdown(self) -> io::Result<()> {
        let SessionHost { service, journal, dispatcher, .. } = self;
        service.shutdown(); // joins workers → response senders drop
        if let Some(handle) = dispatcher {
            let _ = handle.join(); // drains remaining responses
        }
        if let Some(journal) = &journal {
            journal.sync()?;
        }
        Ok(())
    }

    /// The underlying service, for metrics/health snapshots.
    pub fn service(&self) -> &PlanService {
        &self.service
    }

    /// The live metric counters (connection/frame counters are bumped by
    /// the transport, which is the only layer that sees those events).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The observability handle sessions should install on their threads,
    /// when the host was configured with one.
    pub fn obs(&self) -> Option<&ObsHandle> {
        self.obs.as_ref()
    }

    /// Is this host serving in routed (multi-connection) mode?
    pub fn routed(&self) -> bool {
        self.routed
    }

    /// Route responses with no registered waiter to `sink` — the direct
    /// (stdin) transport, which never registers entries.
    pub(crate) fn set_fallback(&self, sink: Sender<String>) {
        self.dispatch.set_fallback(sink);
    }
}

/// One client's view of a [`SessionHost`]: parses protocol lines and turns
/// them into submissions, cancellations and snapshot queries, pushing every
/// reply line onto the session's output sink.
pub struct Session<'h> {
    host: &'h SessionHost,
    /// Connection scope in coalescing mode; `None` in direct mode.
    conn: Option<u64>,
    out: Sender<String>,
    /// Reply lines queued but not yet written to the peer.
    depth: Arc<AtomicUsize>,
    /// Queue-depth bound above which new `plan` commands are shed (after
    /// waiting out the admission timeout). `None` disables backpressure.
    backlog_limit: Option<usize>,
}

impl<'h> Session<'h> {
    /// Open a session. `out` receives one wire line per reply; the
    /// transport is responsible for writing them to the peer and calling
    /// [`Session::written`] as lines drain (only meaningful with a
    /// `backlog_limit`).
    pub fn open(host: &'h SessionHost, out: Sender<String>, backlog_limit: Option<usize>) -> Session<'h> {
        let conn = host.routed.then(|| host.dispatch.register_conn());
        Session { host, conn, out, depth: Arc::new(AtomicUsize::new(0)), backlog_limit }
    }

    /// The write-backlog gauge: incremented when a reply line is queued,
    /// decremented by the transport (via [`Session::written`]) once the
    /// line reaches the peer.
    pub fn backlog(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.depth)
    }

    /// Tell the session one queued line was written to the peer.
    pub fn written(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Handle one protocol line, queuing any replies it produces.
    pub fn handle_line(&self, line: &str) -> LineOutcome {
        if line.trim().is_empty() {
            return LineOutcome::Continue;
        }
        match parse_command(line) {
            Ok(Command::Plan(request)) => {
                self.submit_plan(request);
                LineOutcome::Continue
            }
            Ok(Command::Cancel { id }) => {
                let found = match self.conn {
                    Some(conn) => self.host.dispatch.cancel(conn, id),
                    None => self.host.service.cancel(id),
                };
                self.send(format!(r#"{{"ack":"cancel","id":{id},"found":{found}}}"#));
                LineOutcome::Continue
            }
            Ok(cmd @ (Command::Metrics | Command::Health)) => {
                // `health` is an alias: the same body under its own key.
                let key = if matches!(cmd, Command::Health) { "health" } else { "metrics" };
                let body = serde_json::to_string(&self.host.service.metrics()).unwrap_or_else(|_| "null".to_string());
                self.send(format!(r#"{{"{key}":{body}}}"#));
                LineOutcome::Continue
            }
            Ok(Command::Shutdown) => LineOutcome::Shutdown,
            Err(err) => {
                self.send(error_line(err.id, &err.message));
                LineOutcome::Continue
            }
        }
    }

    /// Queue a transport-detected error reply (e.g. a rejected frame) so
    /// the failure still reaches the peer as a protocol line.
    pub fn report_error(&self, id: Option<u64>, message: &str) {
        self.send(error_line(id, message));
    }

    /// End the session, detaching any in-flight waiters it owns; the last
    /// waiter of a job abandons it (fires its cancel token). Returns how
    /// many in-flight jobs this session abandoned.
    pub fn disconnect(mut self) -> usize {
        self.teardown()
    }

    fn teardown(&mut self) -> usize {
        match self.conn.take() {
            Some(conn) => self.host.dispatch.drop_conn(conn),
            None => 0,
        }
    }

    fn submit_plan(&self, request: Box<PlanRequest>) {
        match self.conn {
            Some(conn) => {
                // Per-connection write backpressure: a peer that stops
                // reading its replies is shed before admission instead of
                // queuing unbounded output.
                if let Some(limit) = self.backlog_limit {
                    if !self.wait_backlog(limit) {
                        self.host.metrics.inc(Metric::JobsShed);
                        let resp = PlanResponse::failure(
                            request.id,
                            JobStatus::Shed,
                            "connection write backlog full past the admission timeout",
                        );
                        obs::emit(|| {
                            Event::new("svc.reply")
                                .u64("id", resp.id)
                                .str("status", resp.status.name())
                                .bool("cache_hit", false)
                                .u64("wall_ms", resp.wall_ms)
                        });
                        self.send(response_line(&resp));
                        return;
                    }
                }
                self.host.dispatch.submit(&self.host.service, *request, conn, &self.out, &self.depth);
            }
            None => self.submit_direct(request),
        }
    }

    /// The direct (stdin) submission path — the historical serve-loop
    /// behavior: journal write-ahead, submit under the client id, answer
    /// admission failures inline.
    fn submit_direct(&self, request: Box<PlanRequest>) {
        let id = request.id;
        if let Some(journal) = &self.host.journal {
            // Write-ahead: the job is durable before it can run. A failed
            // append refuses the job — running it unjournaled would make a
            // crash silently drop an "accepted" job.
            if let Err(e) = journal.record_submit(&request) {
                let resp = PlanResponse::failure(id, JobStatus::Error, format!("journal write failed: {e}"));
                self.send(response_line(&resp));
                return;
            }
            self.host.metrics.inc(Metric::JournalAppends);
        }
        if let Err(err) = self.host.service.submit(*request) {
            let status = match err {
                SubmitError::Shed => JobStatus::Shed,
                // WouldMissDeadline rejects at admission; the error string
                // carries `would_miss_deadline` so clients can tell it from
                // a full queue.
                _ => JobStatus::Rejected,
            };
            let resp = PlanResponse::failure(id, status, err.to_string());
            obs::emit(|| {
                Event::new("svc.reply")
                    .u64("id", resp.id)
                    .str("status", resp.status.name())
                    .bool("cache_hit", false)
                    .u64("wall_ms", resp.wall_ms)
            });
            if let Some(journal) = &self.host.journal {
                // Terminal record for the journaled submit, so a restart
                // does not resurrect a shed job.
                if journal.record_done(&resp).is_ok() {
                    self.host.metrics.inc(Metric::JournalAppends);
                }
            }
            self.send(response_line(&resp));
        }
    }

    fn wait_backlog(&self, limit: usize) -> bool {
        if self.depth.load(Ordering::Relaxed) < limit {
            return true;
        }
        let deadline = Instant::now() + self.host.admission_timeout;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            if self.depth.load(Ordering::Relaxed) < limit {
                return true;
            }
        }
        false
    }

    fn send(&self, line: String) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        if self.out.send(line).is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        // Safety net for transports that forget to call `disconnect`.
        self.teardown();
    }
}
