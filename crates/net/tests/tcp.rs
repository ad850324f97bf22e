//! End-to-end tests of the TCP front-end: the wire protocol over a real
//! socket, frame-reject resilience, disconnect cancellation, and
//! coalescing's byte-identity with an uncoalesced server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gaplan_net::loadgen::{self, LoadgenConfig};
use gaplan_net::{NetOptions, TcpServer};
use gaplan_service::ServiceConfig;
use serde::json::{parse, Value};

fn start(opts: NetOptions, workers: usize) -> TcpServer {
    let cfg = ServiceConfig { workers, ..ServiceConfig::default() };
    TcpServer::bind(cfg, None, opts, "127.0.0.1:0").expect("bind")
}

fn connect(server: &TcpServer) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
}

fn recv(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(!line.is_empty(), "connection closed while awaiting a reply");
    parse(line.trim_end()).expect("reply is JSON")
}

fn num(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::Int(i)) => u64::try_from(*i).unwrap(),
        other => panic!("field {key} missing or not an int: {other:?}"),
    }
}

#[test]
fn plan_metrics_and_health_work_over_tcp() {
    let server = start(NetOptions::default(), 2);
    let (mut stream, mut reader) = connect(&server);

    send(
        &mut stream,
        r#"{"cmd":"plan","id":7,"problem":{"Hanoi":{"disks":3}},"ga":{"population":40,"generations":30,"phases":3}}"#,
    );
    let reply = recv(&mut reader);
    assert_eq!(num(&reply, "id"), 7);
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("Done"));

    send(&mut stream, r#"{"cmd":"metrics"}"#);
    let metrics = recv(&mut reader);
    let m = metrics.get("metrics").expect("metrics body");
    assert_eq!(num(m, "jobs_completed"), 1);
    assert_eq!(num(m, "conns_accepted"), 1);
    assert_eq!(num(m, "conns_open"), 1);

    send(&mut stream, r#"{"cmd":"health"}"#);
    let health = recv(&mut reader);
    let h = health.get("health").expect("health body");
    assert_eq!(num(h, "conns_open"), 1);
    assert_eq!(num(h, "coalesced_jobs"), 0);

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}

#[test]
fn rejected_frames_answer_errors_and_do_not_kill_the_connection() {
    let server = start(NetOptions { max_frame: 256, ..NetOptions::default() }, 2);
    let (mut stream, mut reader) = connect(&server);

    // Oversize line: rejected with an error reply, connection survives.
    let huge = format!("{{\"cmd\":\"plan\",\"id\":1,\"pad\":\"{}\"}}", "x".repeat(1024));
    send(&mut stream, &huge);
    let err = recv(&mut reader);
    let msg = err.get("error").and_then(Value::as_str).expect("error line");
    assert!(msg.contains("exceeds the per-frame cap"), "{msg}");

    // Invalid UTF-8 line: same story.
    stream.write_all(&[0xff, 0xfe, b'\n']).unwrap();
    let err = recv(&mut reader);
    let msg = err.get("error").and_then(Value::as_str).expect("error line");
    assert!(msg.contains("not valid UTF-8"), "{msg}");

    // The same connection still serves real work.
    send(
        &mut stream,
        r#"{"cmd":"plan","id":2,"problem":{"Hanoi":{"disks":3}},"ga":{"population":40,"generations":30,"phases":3}}"#,
    );
    let reply = recv(&mut reader);
    assert_eq!(num(&reply, "id"), 2);
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("Done"));

    send(&mut stream, r#"{"cmd":"metrics"}"#);
    let metrics = recv(&mut reader);
    let m = metrics.get("metrics").expect("metrics body");
    assert_eq!(num(m, "frames_oversize"), 1);
    assert_eq!(num(m, "frames_malformed"), 1);

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}

#[test]
fn duplicate_id_with_different_payload_is_rejected_as_a_conflict() {
    let server = start(NetOptions::default(), 1);
    let (mut stream, mut reader) = connect(&server);

    // A slow leader keeps id 5 in flight while the conflicting resend
    // (same id, different problem) arrives.
    send(
        &mut stream,
        r#"{"cmd":"plan","id":5,"problem":{"Hanoi":{"disks":10}},"ga":{"population":400,"generations":400,"phases":5}}"#,
    );
    send(&mut stream, r#"{"cmd":"plan","id":5,"problem":{"Hanoi":{"disks":3}}}"#);
    let first = recv(&mut reader);
    assert_eq!(num(&first, "id"), 5);
    assert_eq!(first.get("status").and_then(Value::as_str), Some("Rejected"));
    let msg = first.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(msg.contains("payload differs"), "conflicting resend needs its own reason: {msg}");

    send(&mut stream, r#"{"cmd":"metrics"}"#);
    let metrics = recv(&mut reader);
    let m = metrics.get("metrics").expect("metrics body");
    assert_eq!(num(m, "retries_conflict"), 1);
    assert_eq!(num(m, "retries_joined"), 0);

    send(&mut stream, r#"{"cmd":"cancel","id":5}"#);
    let ack = recv(&mut reader);
    assert_eq!(ack.get("ack").and_then(Value::as_str), Some("cancel"));

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}

#[test]
fn duplicate_id_with_identical_payload_joins_and_answers_exactly_once() {
    let server = start(NetOptions::default(), 1);
    let (mut stream, mut reader) = connect(&server);

    // An idempotent retry: the same request line twice. The resend folds
    // into the in-flight job instead of being rejected — exactly what a
    // reconnecting client needs after an un-acked send.
    let line = r#"{"cmd":"plan","id":6,"problem":{"Hanoi":{"disks":10}},"ga":{"population":400,"generations":400,"phases":5}}"#;
    send(&mut stream, line);
    send(&mut stream, line);

    // The next reply on this ordered connection is the metrics answer:
    // the resend produced no duplicate-id rejection.
    send(&mut stream, r#"{"cmd":"metrics"}"#);
    let metrics = recv(&mut reader);
    let m = metrics.get("metrics").expect("metrics body");
    assert_eq!(num(m, "retries_joined"), 1, "identical resend must join, not reject: {m:?}");
    assert_eq!(num(m, "retries_conflict"), 0);

    // Cancelling the job yields exactly one terminal reply for id 6, not
    // one per submission.
    send(&mut stream, r#"{"cmd":"cancel","id":6}"#);
    let ack = recv(&mut reader);
    assert_eq!(ack.get("ack").and_then(Value::as_str), Some("cancel"));
    let terminal = recv(&mut reader);
    assert_eq!(num(&terminal, "id"), 6);
    assert_eq!(terminal.get("status").and_then(Value::as_str), Some("Cancelled"));

    // A follow-up command answers next: no second terminal reply ahead of it.
    send(&mut stream, r#"{"cmd":"health"}"#);
    let health = recv(&mut reader);
    let h = health.get("health").expect("health body");
    assert_eq!(num(h, "retries_joined"), 1);
    assert_eq!(num(h, "retries_conflict"), 0);

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}

#[test]
fn duplicate_id_without_coalescing_is_rejected_and_counted() {
    let server = start(NetOptions { coalesce: false, ..NetOptions::default() }, 1);
    let (mut stream, mut reader) = connect(&server);

    // Without coalescing an identical resend cannot join the in-flight
    // job: it is a plain duplicate id, rejected and counted as such.
    let line = r#"{"cmd":"plan","id":8,"problem":{"Hanoi":{"disks":10}},"ga":{"population":400,"generations":400,"phases":5}}"#;
    send(&mut stream, line);
    send(&mut stream, line);
    let second = recv(&mut reader);
    assert_eq!(num(&second, "id"), 8);
    assert_eq!(second.get("status").and_then(Value::as_str), Some("Rejected"));
    let msg = second.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(msg.contains("already in flight on this connection"), "{msg}");

    send(&mut stream, r#"{"cmd":"metrics"}"#);
    let metrics = recv(&mut reader);
    let m = metrics.get("metrics").expect("metrics body");
    assert_eq!(num(m, "jobs_rejected"), 1, "the duplicate must count as a rejection: {m:?}");

    send(&mut stream, r#"{"cmd":"cancel","id":8}"#);
    let ack = recv(&mut reader);
    assert_eq!(ack.get("ack").and_then(Value::as_str), Some("cancel"));

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}

#[test]
fn disconnect_mid_job_cancels_the_abandoned_work() {
    let server = start(NetOptions::default(), 1);

    // Connection A starts a long job and vanishes without reading a reply.
    let (mut a, _a_reader) = connect(&server);
    send(
        &mut a,
        r#"{"cmd":"plan","id":1,"problem":{"Hanoi":{"disks":10}},"ga":{"population":400,"generations":400,"phases":5}}"#,
    );
    std::thread::sleep(Duration::from_millis(200)); // let it reach a worker
    drop(a);
    drop(_a_reader);

    // Connection B watches the cancel land.
    let (mut b, mut b_reader) = connect(&server);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        send(&mut b, r#"{"cmd":"metrics"}"#);
        let metrics = recv(&mut b_reader);
        let m = metrics.get("metrics").expect("metrics body").clone();
        if num(&m, "jobs_cancelled") >= 1 {
            assert_eq!(num(&m, "conns_dropped"), 1, "disconnect with live work counts as dropped");
            break;
        }
        assert!(Instant::now() < deadline, "abandoned job was never cancelled: {m:?}");
        std::thread::sleep(Duration::from_millis(50));
    }

    drop(b);
    drop(b_reader);
    server.stop().expect("clean stop");
}

#[test]
fn stalled_half_open_client_is_reaped() {
    let server = start(NetOptions { idle_timeout: Some(Duration::from_millis(200)), ..NetOptions::default() }, 1);

    // A slowloris-style peer: connects, sends half a frame (no terminating
    // newline), then goes silent without ever closing its end.
    let (mut stalled, mut stalled_reader) = connect(&server);
    stalled.write_all(b"{\"cmd\":\"plan\",").unwrap();
    stalled.flush().unwrap();

    // A healthy connection keeps completing frames (so it is never idle)
    // and watches the reap land in the metrics.
    let (mut b, mut b_reader) = connect(&server);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        send(&mut b, r#"{"cmd":"metrics"}"#);
        let metrics = recv(&mut b_reader);
        let m = metrics.get("metrics").expect("metrics body").clone();
        if num(&m, "conns_reaped") >= 1 {
            assert_eq!(num(&m, "conns_reaped"), 1, "only the stalled peer is reaped: {m:?}");
            break;
        }
        assert!(Instant::now() < deadline, "stalled connection was never reaped: {m:?}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The server actively shut the stalled socket: the client now sees EOF.
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut line = String::new();
    let n = stalled_reader.read_line(&mut line).expect("read after reap");
    assert_eq!(n, 0, "reaped connection must read EOF, got {line:?}");

    // The healthy connection is still serving after the reap.
    send(&mut b, r#"{"cmd":"health"}"#);
    let health = recv(&mut b_reader);
    let h = health.get("health").expect("health body");
    assert_eq!(num(h, "conns_reaped"), 1);

    drop(stalled);
    drop(stalled_reader);
    drop(b);
    drop(b_reader);
    server.stop().expect("clean stop");
}

/// The tentpole's correctness bar: a skewed-key load against a coalescing
/// server must coalesce (coalesced_jobs > 0) and still produce exactly the
/// plans an uncoalesced server produces (equal plans_hash over equal keys).
#[test]
fn coalesced_plans_are_byte_identical_to_uncoalesced() {
    let load = |server: &TcpServer| {
        let cfg = LoadgenConfig {
            addr: server.local_addr().to_string(),
            jobs: 600,
            conns: 3,
            inflight: 16,
            key_space: 8,
            skew: 0.7,
            deadline_ms: None,
            seed: 7,
            rate: None,
            burst: 1,
            shutdown_after: false,
            dsl: None,
            ..LoadgenConfig::default()
        };
        loadgen::run(&cfg).expect("loadgen run")
    };

    let coalescing = start(NetOptions::default(), 4);
    let with = load(&coalescing);
    coalescing.stop().expect("clean stop");

    let plain = start(NetOptions { coalesce: false, ..NetOptions::default() }, 4);
    let without = load(&plain);
    plain.stop().expect("clean stop");

    assert_eq!(with.lost, 0, "coalescing run lost replies");
    assert_eq!(without.lost, 0, "uncoalesced run lost replies");
    assert_eq!(with.plan_mismatches, 0);
    assert_eq!(without.plan_mismatches, 0);
    assert!(with.coalesced_jobs > 0, "skewed load never coalesced");
    assert_eq!(without.coalesced_jobs, 0, "uncoalesced server reported coalescing");
    assert_eq!(with.distinct_keys, without.distinct_keys);
    assert_eq!(with.plans_hash, without.plans_hash, "coalescing changed the plans: {with:?} vs {without:?}");
}
