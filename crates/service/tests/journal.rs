//! End-to-end durability tests over `serve_with_journal` with an in-memory
//! storage backend: crash recovery (pending jobs re-run on restart),
//! at-least-once re-emission of journaled replies, compaction across
//! sessions, cache reseeding, and the journal counters in metrics/health.

use std::io::Write;
use std::sync::Arc;

use gaplan_durable::{MemStorage, Storage};
use gaplan_service::{serve_with_journal, JobJournal, PlanRequest, ProblemSpec, ServiceConfig};

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

fn cfg() -> ServiceConfig {
    ServiceConfig { workers: 2, queue_capacity: 16, cache_capacity: 16, ..ServiceConfig::default() }
}

/// One serve session over `storage`: feed `input`, return the output lines.
fn session(storage: &Arc<dyn Storage>, input: &str) -> Vec<String> {
    let out = SharedWriter::default();
    serve_with_journal(cfg(), Some(JobJournal::new(storage.clone())), input.as_bytes(), out.clone())
        .expect("serve session completes");
    let text = String::from_utf8(out.0.lock().clone()).expect("utf8 output");
    text.lines().map(str::to_string).collect()
}

fn terminal_lines(lines: &[String], id: u64) -> Vec<String> {
    let needle = format!("\"id\":{id},\"status\"");
    lines.iter().filter(|l| l.contains(&needle)).cloned().collect()
}

fn request(id: u64, disks: usize) -> PlanRequest {
    PlanRequest { id, problem: ProblemSpec::Hanoi { disks }, deadline_ms: None, ga: None }
}

#[test]
fn journaled_submits_without_replies_rerun_on_restart() {
    // Simulate a crash after accepting three jobs: the WAL holds Submit
    // records and nothing else (the process died before any job finished).
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let journal = JobJournal::new(storage.clone());
    for id in 1..=3u64 {
        journal.record_submit(&request(id, 3)).unwrap();
    }
    journal.sync().unwrap();

    // Restart with no client input at all: recovery alone must finish the
    // jobs and write exactly one terminal reply each.
    let lines = session(&storage, "");
    for id in 1..=3u64 {
        let replies = terminal_lines(&lines, id);
        assert_eq!(replies.len(), 1, "job {id} should get exactly one terminal reply: {lines:?}");
        assert!(replies[0].contains("\"status\":\"Done\""), "job {id}: {}", replies[0]);
    }
}

#[test]
fn completed_jobs_reemit_once_then_compact() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());

    // Session 1 runs two jobs to completion.
    let input = "{\"cmd\":\"plan\",\"id\":1,\"problem\":{\"Hanoi\":{\"disks\":3}}}\n\
                 {\"cmd\":\"plan\",\"id\":2,\"problem\":{\"Hanoi\":{\"disks\":4}}}\n";
    let first = session(&storage, input);
    assert_eq!(terminal_lines(&first, 1).len(), 1);
    assert_eq!(terminal_lines(&first, 2).len(), 1);

    // Session 2: the journaled replies re-emit (at-least-once — the crash
    // may have hit between journaling a reply and delivering it)...
    let second = session(&storage, "");
    assert_eq!(terminal_lines(&second, 1).len(), 1, "{second:?}");
    assert_eq!(terminal_lines(&second, 2).len(), 1, "{second:?}");

    // ...and compaction then retires them: session 3 emits nothing.
    let third = session(&storage, "");
    assert!(terminal_lines(&third, 1).is_empty(), "{third:?}");
    assert!(terminal_lines(&third, 2).is_empty(), "{third:?}");
}

#[test]
fn recovered_cache_serves_hits_across_restart() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());

    let first = session(&storage, "{\"cmd\":\"plan\",\"id\":7,\"problem\":{\"Hanoi\":{\"disks\":3}}}\n");
    let done = terminal_lines(&first, 7);
    assert_eq!(done.len(), 1);
    assert!(done[0].contains("\"cache_hit\":false"), "{}", done[0]);

    // Same problem, new id, new process: the reply must come from the
    // journal-reseeded cache without rerunning the GA.
    let second = session(&storage, "{\"cmd\":\"plan\",\"id\":8,\"problem\":{\"Hanoi\":{\"disks\":3}}}\n");
    let hit = terminal_lines(&second, 8);
    assert_eq!(hit.len(), 1, "{second:?}");
    assert!(hit[0].contains("\"cache_hit\":true"), "{}", hit[0]);
}

#[test]
fn metrics_and_health_report_journal_counters() {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let journal = JobJournal::new(storage.clone());
    journal.record_submit(&request(1, 3)).unwrap();
    journal.sync().unwrap();

    let lines = session(&storage, "{\"cmd\":\"metrics\"}\n{\"cmd\":\"health\"}\n");
    let metrics = lines.iter().find(|l| l.contains("\"metrics\"")).expect("metrics line");
    assert!(metrics.contains("\"journal_replayed\":1"), "{metrics}");
    assert!(metrics.contains("\"journal_appends\""), "{metrics}");
    assert!(metrics.contains("\"journal_truncated_bytes\":0"), "{metrics}");
    assert!(metrics.contains("\"cache_evictions\""), "{metrics}");
    let health = lines.iter().find(|l| l.contains("\"health\"")).expect("health line");
    assert!(health.contains("\"journal_replayed\":1"), "{health}");
    assert!(health.contains("\"journal_appends\""), "{health}");
}

#[test]
fn parent_format_wal_replays_under_its_client_ids() {
    // A WAL as the stdin path wrote it before client ids were journaled
    // apart: plain `Submit` records whose id is the client id, and a `Done`
    // under that same id. Job 11 completed; job 12 was still pending.
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let journal = JobJournal::new(storage.clone());
    journal.record_submit(&request(11, 3)).unwrap();
    journal.record_submit(&request(12, 3)).unwrap();
    let mut reply = gaplan_service::PlanResponse::failure(11, gaplan_service::JobStatus::Done, "");
    reply.error = None;
    journal.record_done(&reply).unwrap();
    journal.sync().unwrap();

    // The completed reply re-emits and the pending job is answered, each
    // exactly once and under the id the client sent; a fresh job on the
    // recovering session is unaffected by the recovered ids.
    let lines = session(&storage, "{\"cmd\":\"plan\",\"id\":1,\"problem\":{\"Hanoi\":{\"disks\":3}}}\n");
    for id in [11, 12, 1] {
        let replies = terminal_lines(&lines, id);
        assert_eq!(replies.len(), 1, "job {id} should get exactly one terminal reply: {lines:?}");
        assert!(replies[0].contains("\"status\":\"Done\""), "job {id}: {}", replies[0]);
    }
}
