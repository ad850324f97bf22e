//! Client traffic from at most two threads, recording every reply as a raw
//! sample: a closed loop over two connections, one thread each, or an open
//! loop over one connection with a sending and a receiving thread.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gaplan_net::{write_frame, Frame, FrameReader, DEFAULT_MAX_FRAME};
use serde::json::{parse, Value};

use crate::workload::{Generator, Request, Shape};

/// How long a drain waits for the next reply before declaring the rest
/// of the pending requests lost.
const DRAIN_IDLE: Duration = Duration::from_secs(20);
/// How often the open-loop receiver looks up from an idle socket to see
/// whether the sender has finished.
const RECEIVE_POLL: Duration = Duration::from_millis(10);

/// The terminal statuses a reply can carry.
#[derive(Debug, Default, Clone)]
pub struct Statuses {
    pub done: u64,
    pub timeout: u64,
    pub error: u64,
    pub rejected: u64,
    pub shed: u64,
    pub expired: u64,
    pub other: u64,
    pub degraded: u64,
}

/// What the server answered for one plan key.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    pub fingerprint: u64,
    pub plan_ops: Vec<u32>,
    pub solved: bool,
    pub goal_fitness: f64,
    pub degraded: bool,
}

/// Everything one connection (or, merged, one run) observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Requests sent inside the window.
    pub sent: u64,
    pub replies: u64,
    pub statuses: Statuses,
    /// Done replies within the workload's deadline.
    pub good: u64,
    pub solved: u64,
    pub goal_fitness_sum: f64,
    /// Every Done reply: when its request was sent (due, in the open loop)
    /// since the window opened, its client latency, and whether it met the
    /// deadline.
    pub done: Vec<DoneSample>,
    /// How late each send ran against its schedule, nanoseconds.
    pub send_lag_ns: Vec<u64>,
    pub reply_bytes: u64,
    pub lost: u64,
    /// Replies for no pending request, or for one already answered.
    pub duplicates: u64,
    pub bad_frames: u64,
    /// Replies whose plan disagreed with an earlier one of the same key.
    pub mismatches: u64,
    /// First Done plan of every key (non-degraded preferred).
    pub plans: HashMap<u64, PlanRecord>,
    /// From the first send to the last reply.
    pub elapsed: Duration,
}

impl Observed {
    fn merge(&mut self, other: Observed) {
        self.sent += other.sent;
        self.replies += other.replies;
        let (a, b) = (&mut self.statuses, other.statuses);
        a.done += b.done;
        a.timeout += b.timeout;
        a.error += b.error;
        a.rejected += b.rejected;
        a.shed += b.shed;
        a.expired += b.expired;
        a.other += b.other;
        a.degraded += b.degraded;
        self.good += other.good;
        self.solved += other.solved;
        self.goal_fitness_sum += other.goal_fitness_sum;
        self.done.extend(other.done);
        self.send_lag_ns.extend(other.send_lag_ns);
        self.reply_bytes += other.reply_bytes;
        self.lost += other.lost;
        self.duplicates += other.duplicates;
        self.bad_frames += other.bad_frames;
        self.mismatches += other.mismatches;
        for (key, rec) in other.plans {
            self.note_plan(key, rec);
        }
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Keep the first plan of `key`; count a mismatch when two complete
    /// (non-degraded) runs of one key disagree. Degraded plans ran at a
    /// reduced budget and legitimately differ.
    pub fn note_plan(&mut self, key: u64, rec: PlanRecord) {
        match self.plans.get_mut(&key) {
            None => {
                self.plans.insert(key, rec);
            }
            Some(seen) if seen.degraded && !rec.degraded => *seen = rec,
            Some(seen) => {
                if !seen.degraded && !rec.degraded && seen.fingerprint != rec.fingerprint {
                    self.mismatches += 1;
                }
            }
        }
    }

    /// Fold one reply line into the tally; latency counts from the
    /// request's `since`, when it was due (open loop) or written (closed).
    /// `claim` settles a reply id: the request it answers, or `None` for
    /// an id that is unknown or already answered.
    fn record(
        &mut self,
        line: &str,
        deadline_ms: Option<u64>,
        start: Instant,
        claim: impl FnOnce(u64) -> Option<Pending>,
    ) {
        let now = Instant::now();
        let Ok(value) = parse(line) else {
            self.bad_frames += 1;
            return;
        };
        let Some(id) = get_u64(&value, "id") else {
            self.bad_frames += 1;
            return;
        };
        let Some(p) = claim(id) else {
            self.duplicates += 1;
            return;
        };
        self.replies += 1;
        self.reply_bytes += line.len() as u64 + 1;
        let latency_ns = now.duration_since(p.since).as_nanos() as u64;
        let degraded = matches!(value.get("degraded"), Some(Value::Bool(true)));
        let s = &mut self.statuses;
        s.degraded += u64::from(degraded);
        match value.get("status").and_then(Value::as_str).unwrap_or("") {
            "Done" => s.done += 1,
            "Timeout" => s.timeout += 1,
            "Error" => s.error += 1,
            "Rejected" => s.rejected += 1,
            "Shed" => s.shed += 1,
            "DeadlineExpired" => s.expired += 1,
            _ => s.other += 1,
        }
        if value.get("status").and_then(Value::as_str) != Some("Done") {
            return;
        }
        let good = deadline_ms.is_none_or(|ms| latency_ns <= ms * 1_000_000);
        self.good += u64::from(good);
        let sent_ns = p.since.saturating_duration_since(start).as_nanos() as u64;
        self.done.push(DoneSample { sent_ns, latency_ns, good });
        let solved = matches!(value.get("solved"), Some(Value::Bool(true)));
        let goal_fitness = value.get("goal_fitness").and_then(as_f64).unwrap_or(f64::NAN);
        self.solved += u64::from(solved);
        self.goal_fitness_sum += goal_fitness;
        let plan_ops: Vec<u32> = match value.get("plan_ops") {
            Some(Value::Arr(ops)) => {
                ops.iter().filter_map(|v| get_int(v).and_then(|n| u32::try_from(n).ok())).collect()
            }
            _ => Vec::new(),
        };
        let fingerprint = fingerprint(&plan_ops, solved, goal_fitness);
        self.note_plan(p.key, PlanRecord { fingerprint, plan_ops, solved, goal_fitness, degraded });
    }
}

/// One Done reply as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct DoneSample {
    pub sent_ns: u64,
    pub latency_ns: u64,
    pub good: bool,
}

struct Pending {
    since: Instant,
    key: u64,
}

/// Order-independent identity of one answer.
pub fn fingerprint(plan_ops: &[u32], solved: bool, goal_fitness: f64) -> u64 {
    let mut h = fnv(0xcbf2_9ce4_8422_2325, &goal_fitness.to_bits().to_le_bytes());
    h = fnv(h, &[u8::from(solved)]);
    for op in plan_ops {
        h = fnv(h, &op.to_le_bytes());
    }
    h
}

pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn get_int(v: &Value) -> Option<i128> {
    match v {
        Value::Int(n) => Some(*n),
        _ => None,
    }
}

fn get_u64(v: &Value, field: &str) -> Option<u64> {
    v.get(field).and_then(get_int).and_then(|n| u64::try_from(n).ok())
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Send `requests` over one connection, at most `inflight` outstanding,
/// and wait for every reply: used to prime the plan cache, outside any
/// timed window.
pub fn send_all(addr: &str, requests: &[Request], first_id: u64, inflight: usize) -> io::Result<Observed> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut pending = HashMap::new();
    let mut obs = Observed::default();
    let started = Instant::now();
    for (n, chunk) in requests.chunks(inflight.max(1)).enumerate() {
        for (m, req) in chunk.iter().enumerate() {
            let id = first_id + (n * inflight + m) as u64;
            write_frame(&mut writer, &req.line(id))?;
            pending.insert(id, Pending { since: started, key: req.key });
            obs.sent += 1;
        }
        writer.flush()?;
        drain(&mut reader, &mut pending, &mut obs, None, started)?;
    }
    Ok(obs)
}

/// Drive `gen`'s traffic at `addr` for `window`, requests `base`,
/// `base + 1`, .., then collect every outstanding reply.
pub fn run(addr: &str, gen: &Generator<'_>, window: Duration, base: u64) -> io::Result<Observed> {
    let deadline_ms = gen.workload.deadline_ms();
    let start = Instant::now();
    let end = start + window;
    let (conns, inflight) = match gen.workload.shape() {
        Shape::Open { rate } => return open_loop(addr, gen, base, rate, start, end, deadline_ms),
        Shape::Closed { conns, inflight } => (conns, inflight),
    };
    let next = &AtomicU64::new(base);
    let results: Vec<io::Result<Observed>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| scope.spawn(move || closed_conn(addr, gen, next, inflight, start, end, deadline_ms)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(io::Error::other("client thread panicked"))))
            .collect()
    });
    let mut total = Observed::default();
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}

fn connect(addr: &str) -> io::Result<(BufWriter<TcpStream>, FrameReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Bounds every blocking read: a server that stops answering fails the
    // run instead of hanging it.
    stream.set_read_timeout(Some(DRAIN_IDLE))?;
    Ok((BufWriter::new(stream.try_clone()?), FrameReader::new(stream, DEFAULT_MAX_FRAME)))
}

/// Closed loop: keep `inflight` requests outstanding until `end`, drawing
/// request indices from the shared counter `next`.
fn closed_conn(
    addr: &str,
    gen: &Generator<'_>,
    next: &AtomicU64,
    inflight: usize,
    start: Instant,
    end: Instant,
    deadline_ms: Option<u64>,
) -> io::Result<Observed> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut pending = HashMap::new();
    let mut obs = Observed::default();
    let mut replied_at: Option<Instant> = None;
    loop {
        if Instant::now() < end {
            while pending.len() < inflight {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let req = gen.request(index);
                write_frame(&mut writer, &req.line(index))?;
                pending.insert(index, Pending { since: Instant::now(), key: req.key });
                obs.sent += 1;
            }
            writer.flush()?;
            // The generator's own delay between a reply and its refill.
            if let Some(at) = replied_at.take() {
                obs.send_lag_ns.push(at.elapsed().as_nanos() as u64);
            }
        }
        if pending.is_empty() {
            break;
        }
        match reader.read_frame()? {
            Some(Frame::Complete(line)) => obs.record(&line, deadline_ms, start, |id| pending.remove(&id)),
            Some(Frame::Reject(_)) => obs.bad_frames += 1,
            None => {
                obs.lost += pending.len() as u64;
                break;
            }
        }
        replied_at = Some(Instant::now());
    }
    obs.elapsed = start.elapsed();
    Ok(obs)
}

/// Open loop over one connection: request `base + i` is due at `start +
/// i / rate`. A sender thread writes each request when due, sleeping in
/// between; this thread reads replies as they arrive. Latency counts from
/// the due time, so a stalled generator shows.
fn open_loop(
    addr: &str,
    gen: &Generator<'_>,
    base: u64,
    rate: f64,
    start: Instant,
    end: Instant,
    deadline_ms: Option<u64>,
) -> io::Result<Observed> {
    let (mut writer, mut reader) = connect(addr)?;
    writer.get_ref().set_read_timeout(Some(RECEIVE_POLL))?;
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    // Requests sent so far; `u64::MAX` until the sender is done.
    let total = AtomicU64::new(u64::MAX);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<u64>> {
            let mut lags = Vec::new();
            let mut i = 0u64;
            while due(i) < end {
                let now = Instant::now();
                if now < due(i) {
                    std::thread::sleep(due(i) - now);
                    continue;
                }
                // Everything due by now goes out in one write: a late
                // generator catches up at once, its lateness on the books.
                while due(i) <= now && due(i) < end {
                    write_frame(&mut writer, &gen.request(base + i).line(base + i))?;
                    lags.push(now.duration_since(due(i)).as_nanos() as u64);
                    i += 1;
                }
                writer.flush()?;
            }
            total.store(i, Ordering::Release);
            Ok(lags)
        });

        let mut obs = Observed::default();
        let mut answered = HashSet::new();
        let mut idle_since = Instant::now();
        loop {
            let sent = total.load(Ordering::Acquire);
            if sent != u64::MAX && answered.len() as u64 == sent {
                break;
            }
            match reader.read_frame() {
                Ok(Some(Frame::Complete(line))) => {
                    idle_since = Instant::now();
                    obs.record(&line, deadline_ms, start, |id| {
                        let i = id.checked_sub(base)?;
                        (due(i) < end && answered.insert(i))
                            .then(|| Pending { since: due(i), key: gen.request(id).key })
                    });
                }
                Ok(Some(Frame::Reject(_))) => obs.bad_frames += 1,
                Ok(None) => break,
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                    if idle_since.elapsed() >= DRAIN_IDLE {
                        break;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        obs.send_lag_ns = sender.join().map_err(|_| io::Error::other("sender panicked"))??;
        obs.sent = obs.send_lag_ns.len() as u64;
        obs.lost = obs.sent.saturating_sub(answered.len() as u64);
        obs.elapsed = start.elapsed();
        Ok(obs)
    })
}

/// Read replies until nothing is pending; whatever is still pending when
/// the stream ends or stays silent past the read timeout is lost.
fn drain(
    reader: &mut FrameReader<TcpStream>,
    pending: &mut HashMap<u64, Pending>,
    obs: &mut Observed,
    deadline_ms: Option<u64>,
    start: Instant,
) -> io::Result<()> {
    while !pending.is_empty() {
        match reader.read_frame() {
            Ok(Some(Frame::Complete(line))) => obs.record(&line, deadline_ms, start, |id| pending.remove(&id)),
            Ok(Some(Frame::Reject(_))) => obs.bad_frames += 1,
            Ok(None) => break,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => break,
            Err(e) => return Err(e),
        }
    }
    obs.lost += pending.len() as u64;
    pending.clear();
    Ok(())
}
