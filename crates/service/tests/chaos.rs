//! End-to-end chaos tests over the wire protocol: a client that injects
//! panics mid-job must get a correlatable error line back, and the service
//! must keep answering afterwards — through worker retries, a worker
//! killed outright, and the supervisor's respawn.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use gaplan_obs as obs;
use gaplan_service::{serve, Metric, ObsHandle, PlanService, ProblemSpec, ServiceConfig};

/// A `Write` target the test can inspect after `serve` returns.
#[derive(Clone, Default)]
struct SharedWriter(Arc<parking_lot::Mutex<Vec<u8>>>);

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_session(cfg: ServiceConfig, input: &str) -> Vec<String> {
    let out = SharedWriter::default();
    serve(cfg, input.as_bytes(), out.clone()).expect("serve session completes");
    let text = String::from_utf8(out.0.lock().clone()).expect("utf8 output");
    text.lines().map(str::to_string).collect()
}

fn line_for(lines: &[String], id: u64) -> String {
    let needle = format!("\"id\":{id}");
    lines.iter().find(|l| l.contains(&needle)).unwrap_or_else(|| panic!("no response for id {id} in {lines:?}")).clone()
}

#[test]
fn chaos_panicking_job_gets_an_error_line_and_later_jobs_succeed() {
    // Job 1 panics on every attempt; jobs 2 and 3 are real planning work.
    let input = concat!(
        r#"{"cmd":"plan","id":1,"problem":{"Chaos":{"fail_attempts":4294967295,"kill_worker":false}}}"#,
        "\n",
        r#"{"cmd":"plan","id":2,"problem":{"Hanoi":{"disks":3}},"ga":{"population":40,"generations":30,"phases":3}}"#,
        "\n",
        r#"{"cmd":"plan","id":3,"problem":{"Hanoi":{"disks":3}},"ga":{"population":40,"generations":30,"phases":3}}"#,
        "\n",
        r#"{"cmd":"shutdown"}"#,
        "\n",
    );
    let lines = run_session(
        ServiceConfig { workers: 2, queue_capacity: 8, cache_capacity: 8, ..ServiceConfig::default() },
        input,
    );
    let err = line_for(&lines, 1);
    assert!(err.contains(r#""status":"Error""#), "panicking job must answer with an error: {err}");
    assert!(err.contains("panic"), "the error should say what happened: {err}");
    assert!(line_for(&lines, 2).contains(r#""status":"Done""#), "{lines:?}");
    assert!(line_for(&lines, 3).contains(r#""status":"Done""#), "{lines:?}");
}

#[test]
fn chaos_killed_worker_is_respawned_and_the_session_continues() {
    // Job 1 kills its worker thread outright (the panic escapes the retry
    // loop by design). The single-worker service must still answer job 1
    // with an error, respawn the worker, and finish job 2.
    let input = concat!(
        r#"{"cmd":"plan","id":1,"problem":{"Chaos":{"fail_attempts":0,"kill_worker":true}}}"#,
        "\n",
        r#"{"cmd":"plan","id":2,"problem":{"Hanoi":{"disks":3}},"ga":{"population":40,"generations":30,"phases":3}}"#,
        "\n",
        r#"{"cmd":"shutdown"}"#,
        "\n",
    );
    let lines = run_session(
        ServiceConfig { workers: 1, queue_capacity: 8, cache_capacity: 8, ..ServiceConfig::default() },
        input,
    );
    let err = line_for(&lines, 1);
    assert!(err.contains(r#""status":"Error""#), "killed job must still answer: {err}");
    assert!(line_for(&lines, 2).contains(r#""status":"Done""#), "respawned worker must finish job 2: {lines:?}");
}

#[test]
fn chaos_transient_panics_are_retried_to_success_in_process() {
    // In-process (no wire): a job that panics once completes on its one
    // retry, and the metrics account for the turbulence.
    let (service, responses) = PlanService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    service
        .submit(gaplan_service::PlanRequest {
            id: 7,
            problem: ProblemSpec::Chaos { fail_attempts: 1, kill_worker: false },
            deadline_ms: None,
            ga: None,
        })
        .unwrap();
    let resp = responses.recv_timeout(Duration::from_secs(10)).expect("job answers");
    assert_eq!(resp.id, 7);
    assert!(resp.solved, "one panic, one retry: the job must succeed: {resp:?}");
    let m = service.metrics();
    assert_eq!(m[Metric::PanicsCaught], 1, "{m:?}");
    assert_eq!(m[Metric::JobsRetried], 1, "{m:?}");
    assert_eq!(m[Metric::WorkersRespawned], 0, "a caught panic must not cost a worker: {m:?}");
    service.shutdown();
}

/// Every `"status":"..."` carried by a wire response must have a matching
/// `svc.reply` trace event with the same id and status — across Done,
/// Error, Timeout, DeadlineExpired, Cancelled, Shed and Rejected — and
/// every dequeued job runs inside a balanced `svc.request` span.
#[test]
fn chaos_every_response_status_has_a_matching_reply_event() {
    let statuses_of = |trace: &str, lines: &[String], wanted: &[(u64, &str)]| {
        for &(id, status) in wanted {
            let id_needle = format!(r#""id":{id}"#);
            let status_needle = format!(r#""status":"{status}""#);
            assert!(
                lines.iter().any(|l| l.contains(&id_needle) && l.contains(&status_needle)),
                "id {id} should answer {status}: {lines:?}"
            );
            let needle = format!(r#"{{"ev":"svc.reply","id":{id},"status":"{status}""#);
            assert!(
                trace.lines().any(|l| l.starts_with(&needle)),
                "no svc.reply event for id {id} status {status} in trace:\n{trace}"
            );
        }
    };

    // Session A — Timeout (deadline hits mid-run), Done, Error
    // (panic-exhausted), DeadlineExpired (deadline passed while queued
    // behind job 5's long run), Cancelled. One worker keeps ordering
    // predictable: job 4 is cancelled while queued or shortly after it
    // starts; either way it must answer Cancelled.
    let sink = obs::SharedBuf::default();
    let cfg = ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 0,
        obs: Some(ObsHandle::new(Arc::new(obs::JsonlSink::new(sink.clone())))),
        ..ServiceConfig::default()
    };
    let input = concat!(
        r#"{"cmd":"plan","id":5,"problem":{"Hanoi":{"disks":10}},"deadline_ms":500,"ga":{"population":400,"generations":400,"phases":5}}"#,
        "\n",
        r#"{"cmd":"plan","id":1,"problem":{"Hanoi":{"disks":3}},"ga":{"population":40,"generations":30,"phases":3}}"#,
        "\n",
        r#"{"cmd":"plan","id":2,"problem":{"Chaos":{"fail_attempts":3,"kill_worker":false}}}"#,
        "\n",
        r#"{"cmd":"plan","id":3,"problem":{"Hanoi":{"disks":6}},"deadline_ms":1}"#,
        "\n",
        r#"{"cmd":"plan","id":4,"problem":{"Hanoi":{"disks":10}},"ga":{"population":400,"generations":400,"phases":5}}"#,
        "\n",
        r#"{"cmd":"cancel","id":4}"#,
        "\n",
        r#"{"cmd":"shutdown"}"#,
        "\n",
    );
    let lines = run_session(cfg, input);
    let trace = sink.contents();
    statuses_of(&trace, &lines, &[(5, "Timeout"), (1, "Done"), (2, "Error"), (3, "DeadlineExpired"), (4, "Cancelled")]);
    let enters = trace.lines().filter(|l| l.starts_with(r#"{"ev":"span_enter","span":"svc.request""#)).count();
    let exits = trace.lines().filter(|l| l.starts_with(r#"{"ev":"span_exit","span":"svc.request""#)).count();
    assert_eq!(enters, 5, "one request span per dequeued job:\n{trace}");
    assert_eq!(enters, exits, "request spans must balance:\n{trace}");
    // Each traced reply echoes into a dequeue event for the same id.
    for id in 1..=5u64 {
        assert!(
            trace.contains(&format!(r#"{{"ev":"svc.dequeue","id":{id},"#)),
            "missing svc.dequeue for {id}:\n{trace}"
        );
    }

    // Session B — Shed (queue full past the admission window while the
    // worker is pinned) and Rejected (duplicate in-flight id). The shed and
    // rejected replies never reach a worker, so they are emitted by the
    // serve loop itself.
    let sink = obs::SharedBuf::default();
    let cfg = ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 0,
        admission_timeout: Duration::from_millis(25),
        obs: Some(ObsHandle::new(Arc::new(obs::JsonlSink::new(sink.clone())))),
        ..ServiceConfig::default()
    };
    let input = concat!(
        r#"{"cmd":"plan","id":10,"problem":{"Hanoi":{"disks":10}},"ga":{"population":400,"generations":400,"phases":5}}"#,
        "\n",
        r#"{"cmd":"plan","id":11,"problem":{"Hanoi":{"disks":10}},"ga":{"population":400,"generations":400,"phases":5}}"#,
        "\n",
        r#"{"cmd":"plan","id":12,"problem":{"Hanoi":{"disks":3}}}"#,
        "\n",
        r#"{"cmd":"plan","id":10,"problem":{"Hanoi":{"disks":3}}}"#,
        "\n",
        r#"{"cmd":"cancel","id":10}"#,
        "\n",
        r#"{"cmd":"cancel","id":11}"#,
        "\n",
        r#"{"cmd":"shutdown"}"#,
        "\n",
    );
    let lines = run_session(cfg, input);
    let trace = sink.contents();
    statuses_of(&trace, &lines, &[(12, "Shed")]);
    let rejected = r#"{"ev":"svc.reply","id":10,"status":"Rejected""#;
    assert!(trace.lines().any(|l| l.starts_with(rejected)), "duplicate id must trace a Rejected reply:\n{trace}");
    assert!(
        lines.iter().any(|l| l.contains(r#""id":10"#) && l.contains(r#""status":"Rejected""#)),
        "duplicate id must answer Rejected: {lines:?}"
    );
}

/// Regression for the `wall_ms` helper: every response path — build error,
/// chaos success, GA completion, cache hit, panic-exhausted error and the
/// reply-guard path for a killed worker — must report submission-to-reply
/// latency, *including* time spent queued behind other jobs.
#[test]
fn wall_ms_includes_queue_wait_on_every_response_path() {
    let (service, responses) = PlanService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let plan = |id, problem| gaplan_service::PlanRequest { id, problem, deadline_ms: None, ga: None };
    // Pin the single worker on a long-running job...
    service
        .submit(gaplan_service::PlanRequest {
            id: 1,
            problem: ProblemSpec::Hanoi { disks: 10 },
            deadline_ms: None,
            ga: Some(gaplan_service::GaOverrides {
                population: Some(400),
                generations: Some(400),
                phases: Some(5),
                ..Default::default()
            }),
        })
        .unwrap();
    // ...queue one job per response path behind it...
    service.submit(plan(2, ProblemSpec::Hanoi { disks: 0 })).unwrap(); // build error
    service.submit(plan(3, ProblemSpec::Chaos { fail_attempts: 0, kill_worker: false })).unwrap(); // chaos success
    service.submit(plan(4, ProblemSpec::Chaos { fail_attempts: 99, kill_worker: false })).unwrap(); // panic-exhausted
    service.submit(plan(5, ProblemSpec::Chaos { fail_attempts: 0, kill_worker: true })).unwrap(); // reply guard
    service.submit(plan(6, ProblemSpec::Hanoi { disks: 3 })).unwrap(); // GA completion
    service.submit(plan(7, ProblemSpec::Hanoi { disks: 3 })).unwrap(); // cache hit
                                                                       // ...let them accumulate queue wait, then release the worker.
    std::thread::sleep(Duration::from_millis(120));
    assert!(service.cancel(1));
    let mut seen = std::collections::HashMap::new();
    for _ in 0..7 {
        let resp = responses.recv_timeout(Duration::from_secs(30)).expect("every job answers");
        seen.insert(resp.id, resp);
    }
    for id in 2..=7u64 {
        let resp = &seen[&id];
        assert!(
            resp.wall_ms >= 60,
            "id {id} ({:?}) waited >=120ms in queue but reports wall_ms={}",
            resp.status,
            resp.wall_ms
        );
    }
    assert!(seen[&7].cache_hit, "id 7 must be the cache hit: {:?}", seen[&7]);
    let m = service.metrics();
    assert!(
        m.queue_wait_ms_hist.count >= 6 && m.queue_wait_ms_hist.p99 >= 63,
        "queue waits must land in the histogram: {:?}",
        m.queue_wait_ms_hist
    );
    service.shutdown();
}
