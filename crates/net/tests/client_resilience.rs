//! Wire-level tests of the resilient client: hedged pairs resolve to
//! exactly one reply and one computation, the circuit breaker walks its
//! closed → open → half-open → closed cycle against a real dead/revived
//! endpoint, and reconnect-with-resubmit recovers without losing or
//! duplicating answers.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use gaplan_net::client::{BackoffPolicy, BreakerState, ClientConfig, HedgeMode, ResilientClient};
use gaplan_net::{NetOptions, TcpServer};
use gaplan_service::ServiceConfig;
use serde::json::{parse, Value};

fn start(workers: usize) -> TcpServer {
    let cfg = ServiceConfig { workers, ..ServiceConfig::default() };
    TcpServer::bind(cfg, None, NetOptions::default(), "127.0.0.1:0").expect("bind")
}

fn client_cfg(addr: String) -> ClientConfig {
    ClientConfig {
        addr,
        backoff: BackoffPolicy { base_ms: 5, max_ms: 100, seed: 3 },
        breaker_threshold: 2,
        breaker_cooldown_ms: 100,
        hedge: HedgeMode::Off,
        max_reconnect_attempts: 400,
    }
}

fn status(reply: &Value) -> &str {
    reply.get("status").and_then(Value::as_str).unwrap_or("")
}

fn num(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::Int(i)) => u64::try_from(*i).unwrap(),
        other => panic!("field {key} missing or not an int: {other:?}"),
    }
}

/// Scripted server: leaves the first connection's request unanswered,
/// answers the hedge connection first, then echoes the same reply back on
/// the first connection. The hedge must win deterministically, the echo
/// must be swallowed, and the caller must see exactly one reply.
#[test]
fn hedge_wins_against_a_scripted_stalled_primary_and_the_echo_is_swallowed() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let script = std::thread::spawn(move || {
        // Primary connects first; read its request but stay silent.
        let (primary, _) = listener.accept().unwrap();
        let mut primary_lines = BufReader::new(primary.try_clone().unwrap());
        let mut req_a = String::new();
        primary_lines.read_line(&mut req_a).unwrap();

        // The hedge arrives once the client's 50 ms patience runs out.
        let (hedge, _) = listener.accept().unwrap();
        let mut hedge_lines = BufReader::new(hedge.try_clone().unwrap());
        let mut req_b = String::new();
        hedge_lines.read_line(&mut req_b).unwrap();
        assert_eq!(req_a, req_b, "hedge must resubmit the identical request line");

        let reply = "{\"id\":1,\"status\":\"Done\",\"solved\":true}\n";
        let mut hedge_out = hedge;
        hedge_out.write_all(reply.as_bytes()).unwrap();
        hedge_out.flush().unwrap();
        // The stalled primary eventually delivers its copy: the echo.
        std::thread::sleep(Duration::from_millis(100));
        let mut primary_out = primary;
        primary_out.write_all(reply.as_bytes()).unwrap();
        primary_out.flush().unwrap();
        // Hold both sockets open long enough for the client to drain.
        std::thread::sleep(Duration::from_millis(500));
    });

    let mut cfg = client_cfg(addr);
    cfg.hedge = HedgeMode::After(50);
    let mut client = ResilientClient::connect(cfg).expect("connect");
    client.submit(1, "{\"cmd\":\"plan\",\"id\":1}").expect("submit");

    let (id, reply) = client.next_reply(Duration::from_secs(10)).expect("client io").expect("one reply before timeout");
    assert_eq!(id, 1);
    assert_eq!(status(&reply), "Done", "{reply:?}");

    // Drain past the echo: no second reply surfaces, and the echo is not
    // misclassified as a duplicate.
    assert_eq!(client.next_reply(Duration::from_millis(300)).expect("client io"), None);
    let stats = client.stats();
    assert_eq!(stats.hedges, 1, "{stats:?}");
    assert_eq!(stats.hedges_won, 1, "hedge conn answered first: {stats:?}");
    assert_eq!(stats.duplicates, 0, "the echo is expected, not a duplicate: {stats:?}");
    assert_eq!(client.pending_len(), 0);
    drop(client);
    script.join().unwrap();
}

/// Against a real server, a hedged pair must coalesce into one computation:
/// the caller gets exactly one reply, the server completes exactly one job,
/// and the redundant submission shows up as a coalesced join — never as a
/// duplicate answer.
#[test]
fn hedged_pair_yields_one_reply_and_one_computation_on_a_real_server() {
    let server = start(1);
    let mut cfg = client_cfg(server.local_addr().to_string());
    cfg.hedge = HedgeMode::After(30);
    let mut client = ResilientClient::connect(cfg).expect("connect");

    // Slow enough (hundreds of ms even in release) that the 30 ms hedge
    // always fires before the reply.
    let line = "{\"cmd\":\"plan\",\"id\":9,\"problem\":{\"Hanoi\":{\"disks\":6}},\
                \"ga\":{\"population\":200,\"generations\":100,\"phases\":2,\"seed\":5}}";
    let reply = client.call(9, line, Duration::from_secs(120)).expect("hedged call");
    assert_eq!(status(&reply), "Done", "{reply:?}");

    // Drain any in-flight echo, then check nothing was duplicated.
    let _ = client.next_reply(Duration::from_millis(300));
    let stats = client.stats();
    assert_eq!(stats.hedges, 1, "{stats:?}");
    assert_eq!(stats.duplicates, 0, "{stats:?}");

    // One journal computation: the hedge joined the in-flight job (either
    // via singleflight while running or as a plan-cache hit if it landed
    // after completion) rather than running it again.
    let mut probe = TcpStream::connect(server.local_addr()).expect("probe connect");
    let mut reader = BufReader::new(probe.try_clone().unwrap());
    probe.write_all(b"{\"cmd\":\"metrics\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let metrics = parse(line.trim_end()).expect("metrics JSON");
    let m = metrics.get("metrics").expect("metrics body");
    assert_eq!(num(m, "jobs_completed"), 1, "hedge must not run the job twice: {m:?}");
    assert_eq!(num(m, "coalesced_jobs") + num(m, "cache_hits"), 1, "{m:?}");

    drop(client);
    drop(probe);
    server.stop().expect("clean stop");
}

/// Kill the server mid-stream and revive it on the same port: the client's
/// breaker opens while the port is dead, the submission is resubmitted
/// idempotently once the port revives, and the answer arrives exactly once.
#[test]
fn breaker_opens_on_a_dead_endpoint_and_recovery_resubmits_pending_work() {
    let server = start(1);
    let addr = server.local_addr();
    let mut client = ResilientClient::connect(client_cfg(addr.to_string())).expect("connect");

    // Prove the connection works, then take the server down.
    let fast = "{\"cmd\":\"plan\",\"id\":1,\"problem\":{\"Hanoi\":{\"disks\":3}},\
                \"ga\":{\"population\":40,\"generations\":30,\"phases\":2,\"seed\":1}}";
    let reply = client.call(1, fast, Duration::from_secs(60)).expect("first call");
    assert_eq!(status(&reply), "Done", "{reply:?}");
    server.stop().expect("clean stop");

    // Revive the endpoint after the breaker has had time to trip.
    let reviver = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(700));
        let cfg = ServiceConfig { workers: 1, ..ServiceConfig::default() };
        TcpServer::bind(cfg, None, NetOptions::default(), addr).expect("rebind same port")
    });

    // This submission first discovers the dead socket, then retries into
    // refused connects (opening the breaker), then lands on the revived
    // server via an idempotent resubmit.
    let second = "{\"cmd\":\"plan\",\"id\":2,\"problem\":{\"Hanoi\":{\"disks\":3}},\
                  \"ga\":{\"population\":40,\"generations\":30,\"phases\":2,\"seed\":2}}";
    let reply = client.call(2, second, Duration::from_secs(120)).expect("call through outage");
    assert_eq!(status(&reply), "Done", "{reply:?}");

    let stats = client.stats();
    assert!(stats.breaker_opens >= 1, "refused connects must open the breaker: {stats:?}");
    assert!(stats.breaker_rejections >= 1, "an open breaker must skip dials: {stats:?}");
    assert!(stats.reconnects >= 1, "{stats:?}");
    assert!(stats.retries >= 1, "pending work must be resubmitted: {stats:?}");
    assert_eq!(stats.duplicates, 0, "{stats:?}");
    assert_eq!(client.breaker_state(), BreakerState::Closed, "recovery must close the breaker");
    assert_eq!(client.pending_len(), 0);

    let revived = reviver.join().expect("reviver thread");
    drop(client);
    revived.stop().expect("clean stop");
}
