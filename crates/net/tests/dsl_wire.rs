//! Wire-level tests for `ProblemSpec::Dsl`: every shipped DSL domain
//! solves end-to-end through the TCP server, identical resubmissions hit
//! the plan cache, the grounded-domain cache shows up in metrics, and
//! compile errors come back as job errors without killing the connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

use gaplan_net::{NetOptions, TcpServer};
use gaplan_service::ServiceConfig;
use serde::json::{parse, write_value, Value};

fn start(workers: usize) -> TcpServer {
    let cfg = ServiceConfig { workers, ..ServiceConfig::default() };
    TcpServer::bind(cfg, None, NetOptions::default(), "127.0.0.1:0").expect("bind")
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

fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_value(&mut out, &Value::Str(s.to_string()));
    out
}

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
}

fn dsl_plan_line(id: u64, domain: &str, problem: &str, seed: u64) -> String {
    format!(
        "{{\"cmd\":\"plan\",\"id\":{id},\"problem\":{{\"Dsl\":{{\"domain\":{},\"problem\":{}}}}},\
         \"ga\":{{\"population\":150,\"generations\":120,\"phases\":5,\"seed\":{seed}}}}}",
        json_str(domain),
        json_str(problem)
    )
}

/// All four shipped domains solve through the TCP service, an identical
/// resubmission answers from the plan cache, and the grounded-domain cache
/// registers in the metrics snapshot.
#[test]
fn all_shipped_dsl_domains_solve_over_tcp_with_caching() {
    let pairs = [
        ("examples/domains/blocks.gap", "data/blocks-1.gap"),
        ("examples/domains/logistics.gap", "data/logistics-1.gap"),
        ("examples/domains/elevator.gap", "data/elevator-1.gap"),
        ("examples/domains/gridflow.gap", "data/gridflow-1.gap"),
    ];
    let server = start(2);
    let (mut stream, mut reader) = connect(&server);

    let mut replies = Vec::new();
    for (i, (dom_rel, prob_rel)) in pairs.iter().enumerate() {
        let domain = repo_file(dom_rel);
        let problem = repo_file(prob_rel);
        send(&mut stream, &dsl_plan_line(i as u64, &domain, &problem, 1));
        let reply = recv(&mut reader);
        assert_eq!(num(&reply, "id"), i as u64, "{dom_rel}");
        assert_eq!(reply.get("status").and_then(Value::as_str), Some("Done"), "{dom_rel}: {reply:?}");
        assert_eq!(reply.get("solved"), Some(&Value::Bool(true)), "{dom_rel}: {reply:?}");
        replies.push(reply);
    }
    assert!(replies.iter().all(|r| r.get("cache_hit") == Some(&Value::Bool(false))), "first runs should be cold");

    // Identical resubmission: answered from the plan cache, no GA rerun.
    let domain = repo_file(pairs[0].0);
    let problem = repo_file(pairs[0].1);
    send(&mut stream, &dsl_plan_line(100, &domain, &problem, 1));
    let cached = recv(&mut reader);
    assert_eq!(cached.get("status").and_then(Value::as_str), Some("Done"), "{cached:?}");
    assert_eq!(cached.get("cache_hit"), Some(&Value::Bool(true)), "resubmit missed the plan cache: {cached:?}");
    assert_eq!(cached.get("plan"), replies[0].get("plan"), "cached plan differs from the original");

    send(&mut stream, "{\"cmd\":\"metrics\"}");
    let metrics = recv(&mut reader);
    let m = metrics.get("metrics").expect("metrics body");
    assert!(num(m, "ground_cache_hits") > 0, "grounded-domain cache never hit: {m:?}");
    assert_eq!(num(m, "cache_hits"), 1, "{m:?}");

    send(&mut stream, "{\"cmd\":\"health\"}");
    let health = recv(&mut reader);
    let h = health.get("health").expect("health body");
    assert!(num(h, "ground_cache_hits") > 0, "health misses ground cache counters: {h:?}");

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}

/// A DSL pair that fails to compile reports a job error carrying the first
/// diagnostic, and the connection stays usable.
#[test]
fn dsl_compile_errors_report_and_keep_the_connection() {
    let server = start(1);
    let (mut stream, mut reader) = connect(&server);

    send(&mut stream, &dsl_plan_line(1, "domain d\ntype t\n", "problem p domain d\ngoal: q(x)\n", 1));
    let reply = recv(&mut reader);
    assert_eq!(num(&reply, "id"), 1);
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("Error"), "{reply:?}");
    let err = reply.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(!err.is_empty(), "error reply carries no message: {reply:?}");

    // The connection still answers work after the failed job.
    let domain = repo_file("examples/domains/blocks.gap");
    let problem = repo_file("data/blocks-1.gap");
    send(&mut stream, &dsl_plan_line(2, &domain, &problem, 1));
    let reply = recv(&mut reader);
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("Done"), "{reply:?}");

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}

/// The grounded-domain cache counts each request once: a freshly generated
/// DSL pair is one miss even though the session's coalesce-key probe
/// compiles it before the worker looks it up, and a repeat is one hit.
#[test]
fn generated_dsl_pair_counts_one_ground_miss_then_one_hit() {
    let server = start(1);
    let (mut stream, mut reader) = connect(&server);
    let domain = repo_file("examples/domains/blocks.gap");
    // Object names unique to this test keep the process-wide ground cache
    // cold for this pair whatever else the test binary has compiled.
    let problem = "problem ground-memo-accounting\ndomain blocks\n\nobjects gm1 gm2 gm3 gm4: block\n\n\
                   init: on-table(gm1) on-table(gm2) on-table(gm3) on-table(gm4)\n      \
                   clear(gm1) clear(gm2) clear(gm3) clear(gm4) hand-empty()\n\n\
                   goal: on(gm1, gm2) on(gm3, gm4)\n";
    let ground_counts = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
        send(stream, "{\"cmd\":\"metrics\"}");
        let metrics = recv(reader);
        let m = metrics.get("metrics").expect("metrics body").clone();
        (num(&m, "ground_cache_misses"), num(&m, "ground_cache_hits"))
    };

    send(&mut stream, &dsl_plan_line(1, &domain, problem, 1));
    let first = recv(&mut reader);
    assert_eq!(first.get("status").and_then(Value::as_str), Some("Done"), "{first:?}");
    assert_eq!(ground_counts(&mut stream, &mut reader), (1, 0), "a new pair is exactly one miss");

    send(&mut stream, &dsl_plan_line(2, &domain, problem, 1));
    let repeat = recv(&mut reader);
    assert_eq!(repeat.get("status").and_then(Value::as_str), Some("Done"), "{repeat:?}");
    assert_eq!(ground_counts(&mut stream, &mut reader), (1, 1), "a repeat is exactly one hit");

    drop(stream);
    drop(reader);
    server.stop().expect("clean stop");
}
