//! Newline-delimited JSON protocol for `gaplan serve`.
//!
//! One JSON object per input line, dispatched on its `"cmd"` field:
//!
//! ```text
//! {"cmd":"plan","id":1,"problem":{"Hanoi":{"disks":4}},"deadline_ms":2000,
//!  "ga":{"generations":40}}
//! {"cmd":"cancel","id":1}
//! {"cmd":"metrics"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Each output line is one JSON object: a [`PlanResponse`](crate::PlanResponse) for a finished
//! job, `{"ack":"cancel","id":N,"found":bool}` for a cancel,
//! `{"metrics":{...}}` for a metrics query, `{"health":{...}}` (the same
//! body under its own key) for a health probe, or `{"status":"Error","error":"..."}` (with the request
//! `id` whenever one was readable) for an unparseable line. Responses are
//! written as jobs finish — generally out of submission order; match them
//! up by `id`.

use std::io::{BufRead, Write};
use std::sync::mpsc::channel;

use serde::de::Deserialize;
use serde::json::{parse, Value};

use crate::journal::JobJournal;
use crate::request::PlanRequest;
use crate::service::{ObsHandle, ServiceConfig};
use crate::session::{LineOutcome, Session, SessionHost, SessionMode};

/// A parsed input line.
#[derive(Debug, Clone)]
pub enum Command {
    /// Submit a planning job.
    Plan(Box<PlanRequest>),
    /// Cancel a queued or running job by id.
    Cancel {
        /// Id of the job to cancel.
        id: u64,
    },
    /// Ask for a metrics snapshot.
    Metrics,
    /// Alias of [`Command::Metrics`]: the same snapshot, answered under
    /// the `health` key.
    Health,
    /// Drain and stop the service, then exit the serve loop.
    Shutdown,
}

/// A protocol parse failure: the human-readable message plus the request
/// `id` whenever the line carried a readable one, so clients can correlate
/// the error with their request even when the command itself was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// `id` field of the offending line, when present and numeric.
    pub id: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl ProtoError {
    fn new(id: Option<u64>, message: impl Into<String>) -> Self {
        ProtoError { id, message: message.into() }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Parse one protocol line. Errors carry the request id when one was
/// readable; the serve loop reports them as
/// `{"id":N,"status":"Error","error":"..."}`.
pub fn parse_command(line: &str) -> Result<Command, ProtoError> {
    let value = parse(line).map_err(|e| ProtoError::new(None, e.to_string()))?;
    // Best-effort id extraction up front, so even a bad command still gets
    // a correlatable error response.
    let id = value.get("id").and_then(|v| u64::deserialize_json(v).ok());
    let Some(cmd) = value.get("cmd").and_then(Value::as_str) else {
        return Err(ProtoError::new(id, "missing string field `cmd`"));
    };
    match cmd {
        "plan" => {
            let request = PlanRequest::deserialize_json(&value).map_err(|e| ProtoError::new(id, e.to_string()))?;
            Ok(Command::Plan(Box::new(request)))
        }
        "cancel" => match id {
            Some(id) => Ok(Command::Cancel { id }),
            None => Err(ProtoError::new(None, "cancel: missing field `id`")),
        },
        "metrics" => Ok(Command::Metrics),
        "health" => Ok(Command::Health),
        "shutdown" => Ok(Command::Shutdown),
        other => Err(ProtoError::new(id, format!("unknown cmd `{other}`"))),
    }
}

/// Run the service over `reader`/`writer` until EOF or a `shutdown`
/// command. Responses are written by a dedicated thread as they arrive, so
/// slow jobs never block fast ones — out-of-order by design.
pub fn serve<R, W>(cfg: ServiceConfig, reader: R, writer: W) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    serve_with_journal(cfg, None, reader, writer)
}

/// [`serve`] with an optional crash-safe job journal.
///
/// With a journal, startup first replays it: the plan cache is reseeded
/// from completed runs, terminal replies journaled since the last
/// compaction are re-emitted, and accepted-but-unanswered jobs are
/// re-enqueued. During the session every accepted request is journaled
/// *before* it is enqueued and every terminal reply *before* it is written,
/// so a `kill -9` at any point loses no accepted job. On EOF the queue is
/// drained and the journal synced before the loop returns.
pub fn serve_with_journal<R, W>(
    cfg: ServiceConfig,
    journal: Option<JobJournal>,
    reader: R,
    writer: W,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    // Workers install the subscriber themselves; the serve loop also
    // installs it so admission failures (shed/rejected) are traced too.
    let obs_handle = cfg.obs.clone();
    let host = SessionHost::start(cfg, journal, SessionMode::Direct)?;
    let _obs = obs_handle.as_ref().map(ObsHandle::install);
    let (out_tx, out_rx) = channel::<String>();

    let writer_thread = std::thread::Builder::new().name("gaplan-serve-writer".to_string()).spawn(move || {
        let mut writer = writer;
        for line in out_rx {
            if writeln!(writer, "{line}").and_then(|()| writer.flush()).is_err() {
                break; // reader side of the pipe went away
            }
        }
    })?;

    // Worker responses reach stdout through the dispatcher's fallback sink
    // (direct mode registers no per-job waiters), journaled on the way.
    host.set_fallback(out_tx.clone());
    // Journal recovery: reseed the cache, re-emit journaled replies, then
    // re-enqueue unfinished jobs.
    host.recover(Some(&out_tx))?;

    let session = Session::open(&host, out_tx.clone(), None);
    for line in reader.lines() {
        let line = line?;
        if session.handle_line(&line) == LineOutcome::Shutdown {
            break;
        }
    }

    // Drain: stop accepting, let queued jobs finish, flush their responses.
    // `shutdown` emits the final `svc.shutdown` event with the drain count.
    drop(session);
    host.shutdown()?; // drains workers + dispatcher, syncs the journal
    drop(out_tx); // closes the writer's channel
    let _ = writer_thread.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::error_line;

    #[test]
    fn parses_all_commands() {
        let plan = parse_command(r#"{"cmd":"plan","id":3,"problem":{"Hanoi":{"disks":3}},"deadline_ms":100}"#).unwrap();
        match plan {
            Command::Plan(req) => {
                assert_eq!(req.id, 3);
                assert_eq!(req.deadline_ms, Some(100));
            }
            other => panic!("expected plan, got {other:?}"),
        }
        assert!(matches!(parse_command(r#"{"cmd":"cancel","id":9}"#), Ok(Command::Cancel { id: 9 })));
        assert!(matches!(parse_command(r#"{"cmd":"metrics"}"#), Ok(Command::Metrics)));
        assert!(matches!(parse_command(r#"{"cmd":"health"}"#), Ok(Command::Health)));
        assert!(matches!(parse_command(r#"{"cmd":"shutdown"}"#), Ok(Command::Shutdown)));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_command("not json").is_err());
        assert!(parse_command(r#"{"id":1}"#).is_err());
        assert!(parse_command(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(parse_command(r#"{"cmd":"cancel"}"#).is_err());
    }

    #[test]
    fn parse_errors_carry_the_request_id_when_readable() {
        // every fault path that can know the id must preserve it
        assert_eq!(parse_command(r#"{"id":7}"#).unwrap_err().id, Some(7));
        assert_eq!(parse_command(r#"{"cmd":"frobnicate","id":9}"#).unwrap_err().id, Some(9));
        assert_eq!(parse_command(r#"{"cmd":"plan","id":3}"#).unwrap_err().id, Some(3));
        assert_eq!(parse_command("not json").unwrap_err().id, None);
        // and the rendered line includes both id and an Error status
        let err = parse_command(r#"{"cmd":"frobnicate","id":9}"#).unwrap_err();
        let line = error_line(err.id, &err.message);
        assert!(line.contains(r#""id":9"#), "{line}");
        assert!(line.contains(r#""status":"Error""#), "{line}");
    }

    #[test]
    fn serve_handles_a_session_end_to_end() {
        // The metrics/health pair runs before any job, so nothing moves a
        // counter between the two snapshots.
        let input = concat!(
            r#"{"cmd":"metrics"}"#,
            "\n",
            r#"{"cmd":"health"}"#,
            "\n",
            r#"{"cmd":"plan","id":1,"problem":{"Hanoi":{"disks":3}},"ga":{"population":40,"generations":30,"phases":3}}"#,
            "\n",
            "garbage line\n",
            r#"{"cmd":"frobnicate","id":42}"#,
            "\n",
            r#"{"cmd":"shutdown"}"#,
            "\n",
        );
        let out: std::sync::Arc<parking_lot::Mutex<Vec<u8>>> = Default::default();
        struct SharedWriter(std::sync::Arc<parking_lot::Mutex<Vec<u8>>>);
        impl Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        serve(
            ServiceConfig { workers: 1, queue_capacity: 4, cache_capacity: 4, ..ServiceConfig::default() },
            input.as_bytes(),
            SharedWriter(out.clone()),
        )
        .unwrap();
        let text = String::from_utf8(out.lock().clone()).unwrap();
        assert!(text.contains(r#""error":"#), "garbage line should yield an error: {text}");
        assert!(text.contains(r#""id":42,"status":"Error""#), "bad command must echo its id: {text}");
        assert!(text.contains(r#""metrics":"#), "metrics line missing: {text}");
        assert!(text.contains(r#""health":"#), "health line missing: {text}");
        assert!(text.contains(r#""workers_alive":"#), "health must report live workers: {text}");
        let body = |key: &str| {
            let prefix = format!(r#"{{"{key}":"#);
            let line = text.lines().find(|l| l.starts_with(&prefix)).unwrap_or_else(|| panic!("no {key} line: {text}"));
            line[prefix.len()..].to_string()
        };
        assert_eq!(body("health"), body("metrics"), "health must answer the metrics body");
        assert!(text.contains(r#""id":1"#), "job response missing: {text}");
        assert!(text.contains(r#""status":"Done""#), "job should finish: {text}");
    }
}
