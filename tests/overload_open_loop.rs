//! Open-loop overload chaos test: drive a journaled, coalescing TCP server
//! at a paced arrival rate well past its measured capacity and check the
//! overload contract — no reply is ever lost, the overload controllers
//! (admission, CoDel shedding, brownout) actually engage, accepted-job
//! sojourn stays bounded, and the coalescing + journal exactly-once
//! invariants from the durability and front-end PRs hold under shedding.

use std::sync::Arc;

use ga_grid_planner::durable::{FsStorage, Storage};
use ga_grid_planner::net::loadgen::{self, LoadgenConfig};
use ga_grid_planner::net::{NetOptions, TcpServer};
use ga_grid_planner::service::{JobJournal, OverloadConfig, ServiceConfig};

fn journal_at(dir: &std::path::Path) -> JobJournal {
    let storage: Arc<dyn Storage> = Arc::new(FsStorage::new(dir).expect("open journal dir"));
    JobJournal::new(storage)
}

fn load(server: &TcpServer, jobs: u64, rate: Option<f64>, deadline_ms: Option<u64>) -> loadgen::LoadgenReport {
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        jobs,
        conns: 2,
        // Closed-loop calibration keeps one job in flight per worker so the
        // measured throughput is raw compute capacity, without queueing.
        inflight: 1,
        key_space: 64,
        skew: 0.2,
        deadline_ms,
        seed: 11,
        rate,
        burst: 2,
        shutdown_after: false,
        dsl: None,
        ..LoadgenConfig::default()
    };
    loadgen::run(&cfg).expect("loadgen run")
}

#[test]
fn open_loop_overload_sheds_but_never_loses_or_corrupts() {
    let dir = std::env::temp_dir().join(format!("gaplan-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A tiny plan cache keeps repeats from being free, so offered rate vs
    // measured capacity is an honest overload ratio; coalescing stays on.
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 256,
        cache_capacity: 1,
        // CoDel at 25 ms (interval 100 ms), deadline admission, and
        // brownout at 50 / 12 ms, all derived from the target.
        overload: OverloadConfig { codel_target_ms: 25, brownout_floor: 0.25 },
        ..ServiceConfig::default()
    };
    let server = TcpServer::bind(cfg, Some(journal_at(&dir)), NetOptions::default(), "127.0.0.1:0").expect("bind");

    // Calibrate: closed-loop throughput with one job in flight per worker
    // approximates the server's sustainable service rate.
    let calibration = load(&server, 80, None, None);
    assert_eq!(calibration.lost, 0, "calibration lost replies: {calibration:?}");
    let capacity = calibration.throughput_jobs_per_sec.max(20.0);

    // Overload: paced arrivals at ~3x capacity (coalescing absorbs some of
    // the excess on repeated keys, so the effective ratio is ~2x) for a few
    // seconds, every job carrying a deadline.
    let rate = capacity * 3.0;
    let jobs = ((rate * 2.0) as u64).clamp(150, 600);
    let report = load(&server, jobs, Some(rate), Some(400));

    // Contract 1: open loop loses nothing — every sent frame gets exactly
    // one terminal reply, even for jobs the server refused to run.
    assert_eq!(report.lost, 0, "overload lost replies: {report:?}");
    assert_eq!(report.replies, report.jobs, "reply count mismatch: {report:?}");
    assert_eq!(report.bad_frames, 0, "undecodable frames: {report:?}");

    // Contract 2: the overload controllers engaged — at 2x+ capacity at
    // least one of shed / rejected / degraded / expired must be nonzero.
    let actions = report.shed + report.rejected + report.degraded + report.expired;
    assert!(actions > 0, "overload never triggered any control action: {report:?}");

    // Contract 3: accepted-job (Done) sojourn stays bounded — the point of
    // head-drop shedding is that jobs the server does run finish promptly
    // instead of aging out in a long queue.
    assert!(report.done_latency_us_p99 <= 2_000_000, "accepted-job p99 sojourn unbounded under overload: {report:?}");

    // Contract 4: coalescing under shedding never mixes up plans — every
    // reply for a key carries the same (non-degraded) plan bytes.
    assert_eq!(report.plan_mismatches, 0, "coalescing corrupted plans under overload: {report:?}");

    server.stop().expect("clean stop");

    // Contract 5: journal exactly-once still holds — every journaled
    // submit reached a journaled terminal reply (shed and expired included),
    // so a restart would have nothing to re-run.
    let recovery = journal_at(&dir).recover().expect("journal recovers");
    assert!(recovery.records_replayed > 0, "journal never saw the run: {recovery:?}");
    assert_eq!(recovery.malformed_records, 0, "journal corrupt: {recovery:?}");
    assert!(
        recovery.pending.is_empty(),
        "journal left {} unsettled job(s) after a clean drain: ids {:?}",
        recovery.pending.len(),
        recovery.pending.iter().map(|p| p.request.id).collect::<Vec<_>>()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
