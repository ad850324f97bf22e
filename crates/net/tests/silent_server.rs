//! The load generator against a stub server: a live server that never
//! answers one job must not hang it (the job is counted lost after the
//! idle window and every other reply is still counted); an open loop whose
//! arrivals are further apart than that window loses nothing; and reply
//! frames that carry no id or exceed the size limit are counted as bad.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use gaplan_net::codec::DEFAULT_MAX_FRAME;
use gaplan_net::loadgen::{self, LoadgenConfig, LoadgenReport};
use serde::json::{parse, Value};

/// What the stub does with the first `plan` any connection sends; every
/// later plan gets a `Done` reply, and `metrics` is always answered.
#[derive(Clone, Copy)]
enum First {
    /// Answer it like the rest.
    Answer,
    /// Read it and never answer.
    Drop,
    /// Send a garbage line and an oversized frame, then answer it.
    Garbage,
}

fn serve(stream: TcpStream, first: First, seen: Arc<AtomicBool>) {
    let mut writer = stream.try_clone().expect("clone stream");
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let request = parse(&line).expect("loadgen sends JSON");
        let reply = match request.get("cmd").and_then(Value::as_str) {
            Some("metrics") => r#"{"metrics":{"coalesced_jobs":0,"cache_hits":0}}"#.to_string(),
            Some("plan") => {
                let is_first = !seen.swap(true, Ordering::SeqCst);
                match first {
                    First::Drop if is_first => continue,
                    First::Garbage if is_first => {
                        let oversized = "x".repeat(DEFAULT_MAX_FRAME + 1);
                        if writeln!(writer, "not json\n{oversized}").is_err() {
                            return;
                        }
                    }
                    _ => {}
                }
                let Some(Value::Int(id)) = request.get("id") else { panic!("plan without id: {line}") };
                format!(r#"{{"id":{id},"status":"Done","solved":true,"plan":[]}}"#)
            }
            _ => continue,
        };
        if writeln!(writer, "{reply}").is_err() {
            return;
        }
    }
}

/// Start a stub server and run `cfg` against it on a thread, failing the
/// test instead of hanging if the run does not return within 60 s.
fn run_against_stub(first: First, cfg: LoadgenConfig) -> LoadgenReport {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let seen = Arc::new(AtomicBool::new(false));
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || serve(stream, first, seen));
        }
    });
    let cfg = LoadgenConfig { addr, ..cfg };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(loadgen::run(&cfg));
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("loadgen hung on the stub server").expect("loadgen run")
}

#[test]
fn a_dropped_reply_is_counted_lost_instead_of_hanging_the_run() {
    let cfg = LoadgenConfig { jobs: 40, conns: 2, inflight: 4, key_space: 4, ..LoadgenConfig::default() };
    let report = run_against_stub(First::Drop, cfg);

    assert_eq!(report.lost, 1, "{report:?}");
    assert_eq!(report.replies, 39, "{report:?}");
    assert_eq!(report.duplicates, 0, "{report:?}");
    assert_eq!(report.bad_frames, 0, "{report:?}");
}

#[test]
fn an_open_loop_idle_between_arrivals_loses_nothing() {
    // One arrival every 25 s, longer than the 20 s idle window: the wait
    // for the second arrival, with nothing pending, is not a stall.
    let cfg = LoadgenConfig { jobs: 2, conns: 1, rate: Some(0.04), burst: 1, ..LoadgenConfig::default() };
    let report = run_against_stub(First::Answer, cfg);

    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.replies, 2, "{report:?}");
    assert!(report.wall_ms >= 24_000, "the second job was sent early: {report:?}");
}

#[test]
fn undecodable_and_oversized_reply_frames_are_counted_bad() {
    let cfg = LoadgenConfig { jobs: 8, conns: 1, inflight: 2, key_space: 4, ..LoadgenConfig::default() };
    let report = run_against_stub(First::Garbage, cfg);

    assert_eq!(report.bad_frames, 2, "{report:?}");
    assert_eq!(report.client.bad_frames, 2, "{report:?}");
    assert_eq!(report.lost, 0, "{report:?}");
    assert_eq!(report.replies, 8, "{report:?}");
    assert_eq!(report.duplicates, 0, "{report:?}");
}
