//! Reply accounting on the session layer: random mixes of `plan` (with
//! repeated payloads and reused ids), `cancel`, garbage and `metrics` lines
//! driven through [`Session::handle_line`] on one host with one or two
//! sessions, once with coalescing on and once with it off. A model checks
//! that every line gets exactly the replies it is owed, on its own session,
//! and that the trace carries one `svc.reply` per terminal reply line.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use gaplan_obs as obs;
use gaplan_service::{LineOutcome, ObsHandle, ServiceConfig, Session, SessionHost};
use proptest::prelude::*;
use serde::json::{parse, Value};

/// Small plans that finish in milliseconds; 0 and 1 differ only in seed,
/// so they never share a coalesce key.
const PAYLOADS: [&str; 3] = [
    r#"{"Hanoi":{"disks":3}},"ga":{"population":20,"generations":5,"phases":1,"seed":1}"#,
    r#"{"Hanoi":{"disks":3}},"ga":{"population":20,"generations":5,"phases":1,"seed":2}"#,
    r#"{"Hanoi":{"disks":4}},"ga":{"population":40,"generations":20,"phases":2}"#,
];

/// Lines that fail to parse and carry no readable id.
const GARBAGE: [&str; 3] = ["not json", r#"{"cmd":"frobnicate"}"#, r#"{"cmd":"plan"}"#];

#[derive(Debug, Clone, Copy)]
enum Op {
    Plan { session: usize, id: u64, payload: usize },
    Cancel { session: usize, id: u64 },
    Garbage { session: usize, which: usize },
    Metrics { session: usize },
}

impl Op {
    fn session(self) -> usize {
        match self {
            Op::Plan { session, .. }
            | Op::Cancel { session, .. }
            | Op::Garbage { session, .. }
            | Op::Metrics { session } => session,
        }
    }

    fn line(self) -> String {
        match self {
            Op::Plan { id, payload, .. } => format!(r#"{{"cmd":"plan","id":{id},"problem":{}}}"#, PAYLOADS[payload]),
            Op::Cancel { id, .. } => format!(r#"{{"cmd":"cancel","id":{id}}}"#),
            Op::Garbage { which, .. } => GARBAGE[which].to_string(),
            Op::Metrics { .. } => r#"{"cmd":"metrics"}"#.to_string(),
        }
    }
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..10, 0usize..2, 1u64..5, 0usize..3).prop_map(|(kind, session, id, pick)| match kind {
        0..=5 => Op::Plan { session, id, payload: pick },
        6 | 7 => Op::Cancel { session, id },
        8 => Op::Garbage { session, which: pick },
        _ => Op::Metrics { session },
    })
}

fn str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key).and_then(Value::as_str)
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Int(i)) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Run `ops` through a fresh host and return each session's reply lines
/// plus the trace.
fn run(ops: &[Op], sessions: usize, coalesce: bool) -> (Vec<Vec<Value>>, String) {
    let sink = obs::SharedBuf::default();
    let cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 8,
        obs: Some(ObsHandle::new(Arc::new(obs::JsonlSink::new(sink.clone())))),
        ..ServiceConfig::default()
    };
    let host = SessionHost::start(cfg, None, coalesce).expect("host starts");
    let _obs = host.obs().map(ObsHandle::install);
    let mut receivers: Vec<Receiver<String>> = Vec::new();
    let mut open = Vec::new();
    for _ in 0..sessions {
        let (tx, rx) = channel();
        receivers.push(rx);
        open.push(Session::open(&host, tx, None));
    }
    for op in ops {
        let session = &open[op.session() % sessions];
        assert_eq!(session.handle_line(&op.line()), LineOutcome::Continue);
    }
    // Dropping (not disconnecting) keeps every job running; shutdown
    // drains them, so every owed reply is queued once it returns.
    drop(open);
    host.shutdown().expect("host drains");
    let replies = receivers
        .iter()
        .map(|rx| rx.try_iter().map(|l| parse(&l).unwrap_or_else(|e| panic!("bad reply {l}: {e}"))).collect())
        .collect();
    (replies, sink.contents())
}

fn check(ops: &[Op], sessions: usize, coalesce: bool) {
    let (replies, trace) = run(ops, sessions, coalesce);
    let mut plans: HashMap<(usize, u64), usize> = HashMap::new();
    let mut terminal: HashMap<(usize, u64), usize> = HashMap::new();
    let mut reply_lines: Vec<(u64, String)> = Vec::new();
    for (s, lines) in replies.iter().enumerate() {
        let mine: Vec<Op> = ops.iter().copied().filter(|op| op.session() % sessions == s).collect();
        for op in &mine {
            if let Op::Plan { id, .. } = op {
                *plans.entry((s, *id)).or_default() += 1;
            }
        }
        let cancels: Vec<u64> =
            mine.iter().filter_map(|op| if let Op::Cancel { id, .. } = op { Some(*id) } else { None }).collect();
        let garbage = mine.iter().filter(|op| matches!(op, Op::Garbage { .. })).count();
        let metrics = mine.iter().filter(|op| matches!(op, Op::Metrics { .. })).count();

        let acks: Vec<u64> =
            lines.iter().filter(|v| str_field(v, "ack") == Some("cancel")).filter_map(|v| u64_field(v, "id")).collect();
        assert_eq!(acks, cancels, "session {s}: one ack per cancel, in order: {lines:?}");
        let errors = lines.iter().filter(|v| v.get("status").is_some() && v.get("id").is_none()).count();
        assert_eq!(errors, garbage, "session {s}: one error per garbage line: {lines:?}");
        assert_eq!(lines.iter().filter(|v| v.get("metrics").is_some()).count(), metrics, "session {s}");
        for v in lines.iter().filter(|v| v.get("ack").is_none()) {
            if let (Some(id), Some(status)) = (u64_field(v, "id"), str_field(v, "status")) {
                *terminal.entry((s, id)).or_default() += 1;
                reply_lines.push((id, status.to_string()));
            }
        }
    }

    // Every trace `svc.reply` matches one terminal reply line, and back.
    let mut events: Vec<(u64, String)> = Vec::new();
    let mut joins: HashMap<u64, usize> = HashMap::new();
    for v in trace.lines().map(|l| parse(l).expect("trace line is JSON")) {
        match (str_field(&v, "ev"), str_field(&v, "op")) {
            (Some("svc.reply"), _) => {
                events.push((u64_field(&v, "id").unwrap(), str_field(&v, "status").unwrap().to_string()))
            }
            (Some("svc.idem"), Some("join")) => *joins.entry(u64_field(&v, "id").unwrap()).or_default() += 1,
            _ => {}
        }
    }
    events.sort();
    reply_lines.sort();
    assert_eq!(events, reply_lines, "one svc.reply per terminal reply line:\n{trace}");

    // Replies land only on the session that planned the id; each accepted
    // plan line gets exactly one, and a same-id same-payload rejoin none.
    for (&(s, id), &n) in &terminal {
        assert!(plans.contains_key(&(s, id)), "session {s} got a reply for id {id} it never planned");
        assert!(n <= plans[&(s, id)], "session {s}, id {id}: {n} replies for {} plans", plans[&(s, id)]);
    }
    for id in 1..5u64 {
        let planned: usize = (0..sessions).map(|s| plans.get(&(s, id)).copied().unwrap_or(0)).sum();
        let answered: usize = (0..sessions).map(|s| terminal.get(&(s, id)).copied().unwrap_or(0)).sum();
        let rejoined = joins.get(&id).copied().unwrap_or(0);
        assert_eq!(answered + rejoined, planned, "id {id}: {answered} replies + {rejoined} rejoins != {planned} plans");
        for s in 0..sessions {
            if plans.contains_key(&(s, id)) {
                assert!(terminal.contains_key(&(s, id)), "session {s}, id {id}: planned but never answered");
            }
        }
    }
    if !coalesce {
        assert!(joins.is_empty(), "rejoins without coalescing: {joins:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chaos_session_replies_account_for_every_line(
        ops in prop::collection::vec(op(), 1..24),
        two_sessions in any::<bool>(),
    ) {
        let sessions = if two_sessions { 2 } else { 1 };
        check(&ops, sessions, true);
        check(&ops, sessions, false);
    }
}
