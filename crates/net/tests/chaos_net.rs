//! End-to-end chaos run: loadgen through a seeded fault-injecting proxy
//! must lose nothing, duplicate nothing, and produce byte-identical plans
//! (`plans_hash`) to the same load run fault-free — the exactly-once
//! guarantee the resilient client + idempotent server pair provide.

use gaplan_net::chaos::ChaosConfig;
use gaplan_net::client::HedgeMode;
use gaplan_net::loadgen::{self, LoadgenConfig};
use gaplan_net::{NetOptions, TcpServer};
use gaplan_service::ServiceConfig;

fn start(workers: usize) -> TcpServer {
    let cfg = ServiceConfig { workers, ..ServiceConfig::default() };
    TcpServer::bind(cfg, None, NetOptions::default(), "127.0.0.1:0").expect("bind")
}

fn load_cfg(addr: String) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        jobs: 240,
        conns: 3,
        inflight: 8,
        key_space: 8,
        skew: 0.6,
        seed: 7,
        ..LoadgenConfig::default()
    }
}

/// Resets, mid-frame cuts, latency and byte-dribbled writes on a fixed
/// seed.
fn toxics() -> ChaosConfig {
    ChaosConfig {
        seed: 5,
        reset_rate: 0.02,
        cut_rate: 0.01,
        latency_ms: 1,
        jitter_ms: 2,
        partial_rate: 0.05,
        ..ChaosConfig::default()
    }
}

#[test]
fn chaos_run_is_lossless_duplicate_free_and_plan_identical_to_fault_free() {
    // Fault-free baseline.
    let server = start(4);
    let baseline = loadgen::run(&load_cfg(server.local_addr().to_string())).expect("baseline run");
    server.stop().expect("clean stop");
    assert_eq!(baseline.lost, 0, "{baseline:?}");
    assert_eq!(baseline.duplicates, 0, "{baseline:?}");

    // Same load, same seed, through a proxy injecting resets, mid-frame
    // cuts, latency and byte-dribbled writes.
    let server = start(4);
    let mut cfg = load_cfg(server.local_addr().to_string());
    cfg.chaos = Some(toxics());
    cfg.hedge = HedgeMode::AutoP99 { floor_ms: 20 };
    let chaotic = loadgen::run(&cfg).expect("chaos run");
    server.stop().expect("clean stop");

    // Chaos actually happened and forced the client to retry...
    assert!(
        chaotic.proxy.resets + chaotic.proxy.cuts > 0,
        "the toxic schedule injected no connection faults: {chaotic:?}"
    );
    assert!(chaotic.proxy.delays > 0, "{chaotic:?}");
    assert!(chaotic.proxy.partial_writes > 0, "{chaotic:?}");
    assert!(chaotic.client.reconnects > 0, "{chaotic:?}");
    assert!(chaotic.client.retries > 0, "{chaotic:?}");

    // ...and the guarantees held anyway: nothing lost, nothing answered
    // twice, every plan byte-identical to the fault-free run.
    assert_eq!(chaotic.lost, 0, "{chaotic:?}");
    assert_eq!(chaotic.duplicates, 0, "{chaotic:?}");
    assert_eq!(chaotic.plan_mismatches, 0, "{chaotic:?}");
    assert_eq!(chaotic.replies, chaotic.jobs, "{chaotic:?}");
    assert_eq!(chaotic.distinct_keys, baseline.distinct_keys);
    assert_eq!(chaotic.plans_hash, baseline.plans_hash, "faults changed the answers: {chaotic:?} vs {baseline:?}");
}

/// The open loop runs over the same resilient client: paced arrivals
/// through the same toxics still lose and duplicate nothing, and the same
/// keys plan byte-identically to the closed-loop fault-free run.
#[test]
fn open_loop_through_chaos_matches_the_fault_free_closed_loop() {
    let server = start(4);
    let baseline = loadgen::run(&load_cfg(server.local_addr().to_string())).expect("baseline run");
    server.stop().expect("clean stop");
    assert_eq!(baseline.lost, 0, "{baseline:?}");

    let server = start(4);
    let cfg = LoadgenConfig {
        rate: Some(200.0),
        burst: 2,
        chaos: Some(toxics()),
        hedge: HedgeMode::AutoP99 { floor_ms: 20 },
        ..load_cfg(server.local_addr().to_string())
    };
    let paced = loadgen::run(&cfg).expect("open-loop chaos run");
    server.stop().expect("clean stop");

    assert_eq!(paced.offered_rate_jobs_per_sec, 200.0);
    assert!(paced.client.reconnects > 0, "the toxics forced no reconnect: {paced:?}");
    assert_eq!(paced.lost, 0, "{paced:?}");
    assert_eq!(paced.duplicates, 0, "{paced:?}");
    assert_eq!(paced.plan_mismatches, 0, "{paced:?}");
    assert_eq!(paced.replies, paced.jobs, "{paced:?}");
    assert_eq!(
        paced.plans_hash, baseline.plans_hash,
        "faults or pacing changed the answers: {paced:?} vs {baseline:?}"
    );
}
