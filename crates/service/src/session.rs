//! Transport-agnostic serving: a [`SessionHost`] wraps one [`PlanService`]
//! plus its journal and coalescing dispatcher, and each client — the stdin
//! loop or one TCP connection — drives a [`Session`] against it.
//!
//! The host owns everything transport-independent: the worker pool, the
//! write-ahead journal, the response-dispatcher thread and the singleflight
//! table. A session owns everything per-client: the connection scope for
//! cancel and disconnect handling, the output sink, and the write backlog
//! gauge that feeds admission shedding.
//!
//! There is one serving path. Every submission is re-keyed onto an
//! internal id so its reply routes back to the submitting session; with
//! `coalesce` on, identical in-flight requests share one computation
//! (singleflight; see the `coalesce` module). The stdin transport is one
//! session on a host with coalescing off; the TCP transport opens one
//! session per connection.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gaplan_obs::{self as obs, Event};

use crate::coalesce::{emit_reply, error_line, response_line, Dispatch, Route};
use crate::journal::JobJournal;
use crate::metrics::{Metric, Metrics};
use crate::proto::{parse_command, Command};
use crate::request::{JobStatus, PlanRequest, PlanResponse};
use crate::service::{ObsHandle, PlanService, ServiceConfig, SubmitError};

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
    dispatcher: Option<JoinHandle<()>>,
}

impl SessionHost {
    /// Start the service and its response-dispatcher thread. `coalesce`
    /// turns on singleflight joining of identical in-flight requests for
    /// every session of this host.
    pub fn start(cfg: ServiceConfig, journal: Option<JobJournal>, coalesce: bool) -> io::Result<SessionHost> {
        let obs_handle = cfg.obs.clone();
        let admission_timeout = cfg.admission_timeout;
        let (service, responses) = PlanService::start(cfg).map_err(io::Error::from)?;
        let journal = journal.map(Arc::new);
        let metrics = service.metrics_arc();
        let dispatch = Arc::new(Dispatch::new(Arc::clone(&metrics), journal.clone(), coalesce));
        let dispatcher = {
            let dispatch = Arc::clone(&dispatch);
            let obs_handle = obs_handle.clone();
            std::thread::Builder::new().name("gaplan-dispatcher".to_string()).spawn(move || {
                // Fan-out traces each reply line it writes.
                let _obs = obs_handle.as_ref().map(ObsHandle::install);
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
            dispatcher: Some(dispatcher),
        })
    }

    /// Replay the journal (when one is configured): reseed the plan cache,
    /// re-emit journaled replies to `session` (when given), and re-enqueue
    /// unfinished jobs. Recovered jobs wait on `session` under their client
    /// ids, so their replies reach it and `cancel` finds them; with joining
    /// on they also re-register their coalesce keys, so reconnecting
    /// clients resubmitting the identical request join the recovered run
    /// instead of duplicating it.
    pub fn recover(&self, session: Option<&Session<'_>>) -> io::Result<()> {
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
        // Fresh internal ids must never collide with recovered ones.
        self.dispatch.reserve_internal(recovery.pending.iter().map(|p| p.request.id).max().unwrap_or(0));
        let route = session.map(|s| &s.route);
        if let Some(route) = route {
            for resp in recovery.completed {
                emit_reply(&resp, None);
                route.send(response_line(&resp));
            }
        }
        for job in recovery.pending {
            self.dispatch.register_recovered(&job, route);
            let internal = job.request.id;
            loop {
                match self.service.submit(job.request.clone()) {
                    Ok(token) => {
                        self.dispatch.store_token(internal, token);
                        break;
                    }
                    Err(SubmitError::QueueFull | SubmitError::Shed) => {
                        // Accepted jobs must not be shed by their own
                        // recovery: wait out transient queue pressure.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(err) => {
                        self.dispatch.fail_entry(internal, JobStatus::Rejected, &err.to_string(), true);
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
}

/// One client's view of a [`SessionHost`]: parses protocol lines and turns
/// them into submissions, cancellations and snapshot queries, pushing every
/// reply line onto the session's output sink.
///
/// A session ends one of two ways. [`Session::disconnect`] abandons its
/// in-flight jobs (a vanished peer). Dropping it leaves them running, and
/// their replies still reach the output sink until the host shuts down (a
/// stdin EOF drains).
pub struct Session<'h> {
    host: &'h SessionHost,
    /// Connection scope, output sink and reply lines queued but not yet
    /// written to the peer.
    route: Route,
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
        Session { host, route: host.dispatch.register_conn(out), backlog_limit }
    }

    /// The write-backlog gauge: incremented when a reply line is queued,
    /// decremented by the transport (via [`Session::written`]) once the
    /// line reaches the peer.
    pub fn backlog(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.route.depth)
    }

    /// Tell the session one queued line was written to the peer.
    pub fn written(&self) {
        self.route.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Handle one protocol line, queuing any replies it produces.
    pub fn handle_line(&self, line: &str) -> LineOutcome {
        if line.trim().is_empty() {
            return LineOutcome::Continue;
        }
        match parse_command(line) {
            Ok(Command::Plan(request)) => {
                self.submit_plan(*request);
                LineOutcome::Continue
            }
            Ok(Command::Cancel { id }) => {
                let found = self.host.dispatch.cancel(self.route.conn, id);
                self.route.send(format!(r#"{{"ack":"cancel","id":{id},"found":{found}}}"#));
                LineOutcome::Continue
            }
            Ok(cmd @ (Command::Metrics | Command::Health)) => {
                // `health` is an alias: the same body under its own key.
                let key = if matches!(cmd, Command::Health) { "health" } else { "metrics" };
                let body = serde_json::to_string(&self.host.service.metrics()).unwrap_or_else(|_| "null".to_string());
                self.route.send(format!(r#"{{"{key}":{body}}}"#));
                LineOutcome::Continue
            }
            Ok(Command::Shutdown) => LineOutcome::Shutdown,
            Err(err) => {
                self.route.send(error_line(err.id, &err.message));
                LineOutcome::Continue
            }
        }
    }

    /// Queue a transport-detected error reply (e.g. a rejected frame) so
    /// the failure still reaches the peer as a protocol line.
    pub fn report_error(&self, id: Option<u64>, message: &str) {
        self.route.send(error_line(id, message));
    }

    /// End the session, detaching any in-flight waiters it owns; the last
    /// waiter of a job abandons it (fires its cancel token). Returns how
    /// many in-flight jobs this session abandoned.
    pub fn disconnect(self) -> usize {
        self.host.dispatch.drop_conn(self.route.conn)
    }

    fn submit_plan(&self, request: PlanRequest) {
        // Per-connection write backpressure: a peer that stops reading its
        // replies is shed before admission instead of queuing unbounded
        // output.
        if let Some(limit) = self.backlog_limit {
            if !self.wait_backlog(limit) {
                self.host.metrics.inc(Metric::JobsShed);
                let resp = PlanResponse::failure(
                    request.id,
                    JobStatus::Shed,
                    "connection write backlog full past the admission timeout",
                );
                emit_reply(&resp, None);
                self.route.send(response_line(&resp));
                return;
            }
        }
        self.host.dispatch.submit(&self.host.service, request, &self.route);
    }

    fn wait_backlog(&self, limit: usize) -> bool {
        let below = || self.route.depth.load(Ordering::Relaxed) < limit;
        if below() {
            return true;
        }
        let deadline = Instant::now() + self.host.admission_timeout;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            if below() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;

    use gaplan_durable::{MemStorage, Storage};

    use super::*;
    use crate::overload::OverloadConfig;
    use crate::request::ProblemSpec;

    /// A recovered job whose resubmission fails at admission must leave no
    /// dispatch entry behind: an identical request from a reconnecting
    /// client then leads its own job and gets exactly one terminal reply,
    /// instead of joining a job that never completes.
    #[test]
    fn failed_recovery_resubmit_leaves_no_joinable_entry() {
        let request = PlanRequest { id: 4, problem: ProblemSpec::Hanoi { disks: 3 }, deadline_ms: Some(1), ga: None };
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        JobJournal::new(Arc::clone(&storage)).record_submit_for(9, &request).unwrap();
        let cfg = ServiceConfig {
            workers: 1,
            // Any CoDel target turns deadline admission on.
            overload: OverloadConfig { codel_target_ms: 50, ..OverloadConfig::default() },
            ..ServiceConfig::default()
        };
        let host = SessionHost::start(cfg, Some(JobJournal::new(storage)), true).unwrap();
        // Seed the exec EWMA (250 ms) with one job queued: admission now
        // estimates a wait no `deadline_ms: 1` job can meet.
        host.metrics().on_exec(1_000);
        host.metrics().add(Metric::QueueDepth, 1);
        host.recover(None).unwrap();

        let (tx, rx) = channel();
        let session = Session::open(&host, tx, None);
        session.handle_line(r#"{"cmd":"plan","id":9,"problem":{"Hanoi":{"disks":3}},"deadline_ms":1}"#);
        let reply = rx.recv_timeout(Duration::from_secs(10)).expect("the resubmission must be answered");
        assert!(reply.contains(r#""id":9,"status":"Rejected""#), "{reply}");
        assert!(reply.contains("would_miss_deadline"), "{reply}");
        drop(session);
        host.shutdown().unwrap();
        assert_eq!(rx.try_iter().count(), 0, "exactly one terminal reply");
    }
}
