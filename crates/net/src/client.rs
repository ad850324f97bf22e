//! Resilient wire client: reconnect with backoff, idempotent retry,
//! hedging, and a per-endpoint circuit breaker.
//!
//! [`ResilientClient`] wraps one logical connection to a gaplan server
//! (possibly through a fault-injecting proxy) and turns a lossy transport
//! into an exactly-once request pipe:
//!
//! - **Reconnect + idempotent retry.** Every submitted request line is
//!   held in a pending map keyed on its request id until its reply
//!   arrives. When the connection dies, the client reconnects (exponential
//!   backoff with deterministic seeded jitter, gated by the breaker) and
//!   resubmits every pending line verbatim. The server side makes this
//!   safe: a request id resubmitted with the same payload joins the
//!   in-flight computation or replays the finished answer instead of
//!   being rejected as a duplicate, so a retry can never produce a second,
//!   different answer.
//! - **Hedging.** When a reply is slow ([`HedgeMode`]), the oldest pending
//!   request is resubmitted once on a *second* connection. Server-side
//!   coalescing folds the pair into one computation (one journal entry);
//!   the client counts whichever connection answers first as the winner
//!   and swallows the other copy, so the caller sees exactly one reply
//!   and duplicate accounting stays at zero.
//! - **Circuit breaker.** Consecutive connect failures open a
//!   closed → open → half-open [`CircuitBreaker`]; while open, dials are
//!   skipped (counted, and slept through) until the cooldown elapses, then
//!   a single half-open probe decides whether to close it again.
//!
//! All fault handling is transport-level: only connection errors and EOF
//! trigger retries. A slow-but-alive reply is never retried on the same
//! connection, which keeps the pending map the single source of truth for
//! what is owed.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use gaplan_obs::Histogram;
use serde::json::{parse, Value};
use serde::{Deserialize, Serialize};

use crate::codec::{Frame, FrameError, FrameReader, DEFAULT_MAX_FRAME};

/// Exponential backoff with deterministic, seeded jitter.
///
/// Attempt `n` sleeps `min(max_ms, base_ms << n)` halved plus a jitter
/// drawn from a hash of `(seed, n)` — bounded by `max_ms`, strictly
/// positive, and reproducible for a fixed seed.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// First-attempt delay, milliseconds.
    pub base_ms: u64,
    /// Upper bound on any single delay, milliseconds.
    pub max_ms: u64,
    /// Jitter seed; two clients with different seeds desynchronise.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_ms: 10, max_ms: 1000, seed: 0 }
    }
}

impl BackoffPolicy {
    /// Delay before reconnect attempt `attempt` (0-based). Deterministic
    /// per `(seed, attempt)`, in `[ceil(exp/2).max(1), exp]` where
    /// `exp = min(max_ms, base_ms * 2^attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base_ms.max(1).saturating_mul(1u64 << attempt.min(32)).min(self.max_ms.max(1));
        let half = exp.div_ceil(2);
        let jitter = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (exp - half + 1);
        Duration::from_millis(half + jitter)
    }
}

/// SplitMix64 finalizer — cheap, well-mixed hash for jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Circuit breaker state; see [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are counted.
    Closed,
    /// Dials are rejected until the cooldown elapses.
    Open,
    /// One probe dial is in flight; its outcome closes or re-opens.
    HalfOpen,
}

/// Per-endpoint circuit breaker over dial attempts.
///
/// Time is injected (`now_ms`) so state transitions are testable against a
/// model without sleeping: `allow` gates a dial, `on_success` /
/// `on_failure` report its outcome.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    threshold: u32,
    cooldown_ms: u64,
    opened_at_ms: u64,
    opens: u64,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive failures
    /// and stays open for `cooldown_ms` before allowing a half-open probe.
    pub fn new(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
            cooldown_ms,
            opened_at_ms: 0,
            opens: 0,
        }
    }

    /// May a dial proceed at `now_ms`? Open → half-open happens here when
    /// the cooldown has elapsed (that dial is the probe); while half-open,
    /// further dials are rejected until the probe resolves.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if now_ms.saturating_sub(self.opened_at_ms) >= self.cooldown_ms {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Report a successful dial: closes the breaker and clears failures.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Report a failed dial at `now_ms`. A half-open probe failure or the
    /// `threshold`-th consecutive closed failure (re)opens the breaker.
    pub fn on_failure(&mut self, now_ms: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let should_open = self.state == BreakerState::HalfOpen || self.consecutive_failures >= self.threshold;
        if should_open && self.state != BreakerState::Open {
            self.state = BreakerState::Open;
            self.opened_at_ms = now_ms;
            self.opens += 1;
        } else if should_open {
            // Already open (failure raced the cooldown): restart it.
            self.opened_at_ms = now_ms;
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// How many times the breaker has transitioned to open.
    pub fn opens(&self) -> u64 {
        self.opens
    }
}

/// When to hedge a slow request onto a second connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgeMode {
    /// Never hedge.
    Off,
    /// Hedge a request pending longer than this many milliseconds.
    After(u64),
    /// Hedge past the observed p99 reply latency (never below `floor_ms`);
    /// inert until 20 replies have been sampled.
    AutoP99 {
        /// Minimum hedge delay while the p99 estimate is still coarse.
        floor_ms: u64,
    },
}

/// Configuration for a [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server (or proxy) address to dial.
    pub addr: String,
    /// Reconnect backoff schedule.
    pub backoff: BackoffPolicy,
    /// Consecutive dial failures before the breaker opens.
    pub breaker_threshold: u32,
    /// Breaker cooldown before a half-open probe, milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Hedging policy.
    pub hedge: HedgeMode,
    /// Give up (return an error) after this many consecutive failed
    /// reconnect attempts.
    pub max_reconnect_attempts: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:4500".to_string(),
            backoff: BackoffPolicy::default(),
            breaker_threshold: 5,
            breaker_cooldown_ms: 500,
            hedge: HedgeMode::Off,
            max_reconnect_attempts: 40,
        }
    }
}

/// Counters a [`ResilientClient`] accumulates; all start at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientStats {
    /// Pending requests resubmitted after a reconnect.
    pub retries: u64,
    /// Successful reconnects after the initial connect.
    pub reconnects: u64,
    /// Hedge requests sent on a second connection.
    pub hedges: u64,
    /// Hedges whose connection delivered the winning reply.
    pub hedges_won: u64,
    /// Times the circuit breaker transitioned to open.
    pub breaker_opens: u64,
    /// Dial attempts skipped because the breaker was open.
    pub breaker_rejections: u64,
    /// Reply lines that matched no pending or hedged request id.
    pub duplicates: u64,
    /// Reply frames that were not a JSON object with an id, or exceeded
    /// the frame size limit.
    pub bad_frames: u64,
}

/// What one reader thread feeds back: a parsed reply, an undecodable or
/// oversized frame, or its epoch's death.
enum Pipe {
    Line(u64, Value),
    Bad,
    Closed(u64),
}

struct PendingReq {
    line: String,
    sent_at: Instant,
    hedged: bool,
}

struct HedgeConn {
    stream: TcpStream,
    epoch: u64,
}

/// Reconnecting, retrying, hedging pipelined client. See the module docs
/// for the guarantees; [`ResilientClient::submit`] and
/// [`ResilientClient::next_reply`] are the whole API surface, plus the
/// blocking [`ResilientClient::call`] convenience for request/response
/// callers like a remote replanner.
pub struct ResilientClient {
    cfg: ClientConfig,
    breaker: CircuitBreaker,
    started: Instant,
    primary: Option<TcpStream>,
    /// Monotonic connection counter; each dial (primary or hedge) gets a
    /// fresh epoch tagging its reader's lines.
    epoch: u64,
    /// Epoch of the current primary connection.
    primary_epoch: u64,
    tx: Sender<Pipe>,
    rx: Receiver<Pipe>,
    pending: HashMap<u64, PendingReq>,
    hedge: Option<HedgeConn>,
    /// id → epoch expected to deliver the redundant hedge copy.
    echoes: HashMap<u64, u64>,
    /// Replies resolved while draining a dead connection during reconnect;
    /// owed to the caller before anything new is read off the pipe.
    ready: VecDeque<(u64, Value)>,
    reply_latency_us: Histogram,
    reply_samples: u64,
    stats: ClientStats,
}

impl ResilientClient {
    /// Dial `cfg.addr` (with backoff and breaker, like any reconnect) and
    /// return a connected client.
    pub fn connect(cfg: ClientConfig) -> io::Result<ResilientClient> {
        let (tx, rx) = channel();
        let mut client = ResilientClient {
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms),
            cfg,
            started: Instant::now(),
            primary: None,
            epoch: 0,
            primary_epoch: 0,
            tx,
            rx,
            pending: HashMap::new(),
            hedge: None,
            echoes: HashMap::new(),
            ready: VecDeque::new(),
            reply_latency_us: Histogram::default(),
            reply_samples: 0,
            stats: ClientStats::default(),
        };
        client.reconnect(true, false)?;
        Ok(client)
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Breaker state (for tests and health lines).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Requests submitted but not yet answered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Submit one request line (no trailing newline). The id must match
    /// the `"id"` field inside `line`; it keys retries and reply routing.
    pub fn submit(&mut self, id: u64, line: &str) -> io::Result<()> {
        self.pending.insert(id, PendingReq { line: line.to_string(), sent_at: Instant::now(), hedged: false });
        let mut write_failed = false;
        if let Some(stream) = self.primary.as_mut() {
            match write_line(stream, line) {
                Ok(()) => return Ok(()),
                Err(_) => {
                    self.primary = None;
                    write_failed = true;
                }
            }
        }
        // Reconnect replays the whole pending map, including the line just
        // inserted, so a send over a dead stream is not lost. A connection
        // that just failed a write may still owe replies its reader queued,
        // so reconnect drains it first.
        self.reconnect(false, write_failed)
    }

    /// Wait up to `timeout` for the next reply owed to the caller.
    /// Returns `Ok(Some((id, reply)))`, the reply parsed, for each pending
    /// request exactly once, `Ok(None)` on timeout, and `Err` only when
    /// reconnecting failed `max_reconnect_attempts` times in a row. Hedge
    /// submission and duplicate swallowing happen inside.
    pub fn next_reply(&mut self, timeout: Duration) -> io::Result<Option<(u64, Value)>> {
        let deadline = Instant::now() + timeout;
        loop {
            // Replies settled while draining a dead connection come first.
            if let Some(resolved) = self.ready.pop_front() {
                return Ok(Some(resolved));
            }
            self.maybe_hedge();
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let slice = (deadline - now).min(Duration::from_millis(20));
            match self.rx.recv_timeout(slice) {
                Ok(Pipe::Line(epoch, reply)) => {
                    if let Some(resolved) = self.route_reply(epoch, reply) {
                        return Ok(Some(resolved));
                    }
                }
                Ok(Pipe::Bad) => self.stats.bad_frames += 1,
                Ok(Pipe::Closed(epoch)) => self.handle_closed(epoch)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client pipe closed"));
                }
            }
        }
    }

    /// Blocking request/response convenience: submit and wait for this
    /// id's reply (other ids received meanwhile error — `call` is for
    /// callers that keep one request in flight, like a remote replanner).
    pub fn call(&mut self, id: u64, line: &str, timeout: Duration) -> io::Result<Value> {
        self.submit(id, line)?;
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply before deadline"));
            }
            match self.next_reply(deadline - now)? {
                Some((got, reply)) if got == id => return Ok(reply),
                Some((got, _)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("reply for unexpected id {got} while waiting for {id}"),
                    ));
                }
                None => {}
            }
        }
    }

    /// Route one parsed reply: the owed reply (returned), a hedge echo
    /// (swallowed), or a true duplicate (counted).
    fn route_reply(&mut self, epoch: u64, reply: Value) -> Option<(u64, Value)> {
        let Some(id) = reply.get("id").and_then(|v| u64::deserialize_json(v).ok()) else {
            // Unattributable reply: count it, nothing else to do.
            self.stats.bad_frames += 1;
            return None;
        };
        if let Some(req) = self.pending.remove(&id) {
            let latency_us = req.sent_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
            self.reply_latency_us.record(latency_us);
            self.reply_samples += 1;
            if req.hedged {
                let hedge_epoch = self.hedge.as_ref().map(|h| h.epoch);
                if hedge_epoch == Some(epoch) {
                    self.stats.hedges_won += 1;
                    // The loser is the primary; it will deliver the echo.
                    self.echoes.insert(id, self.primary_epoch);
                } else if let Some(he) = hedge_epoch {
                    // Primary won; expect the echo on the hedge conn.
                    self.echoes.insert(id, he);
                }
                self.close_hedge();
            }
            return Some((id, reply));
        }
        if self.echoes.get(&id) == Some(&epoch) {
            self.echoes.remove(&id);
            return None;
        }
        self.stats.duplicates += 1;
        None
    }

    /// Forget a dead connection's expected echoes. If it was the hedge
    /// conn, its request is still pending on the primary, so just clear the
    /// slot (and the hedged flag so the request is eligible to hedge again).
    fn forget_conn(&mut self, epoch: u64) {
        self.echoes.retain(|_, e| *e != epoch);
        if self.hedge.as_ref().is_some_and(|h| h.epoch == epoch) {
            self.hedge = None;
            for req in self.pending.values_mut() {
                req.hedged = false;
            }
        }
    }

    /// A reader thread reported its connection dead.
    fn handle_closed(&mut self, epoch: u64) -> io::Result<()> {
        self.forget_conn(epoch);
        if epoch == self.primary_epoch {
            // Closed is the reader's final message, so every line the dead
            // connection delivered has already been routed: no drain here.
            self.primary = None;
            self.reconnect(false, false)?;
        }
        Ok(())
    }

    /// Dial until connected (or attempts run out), then replay every
    /// pending request line in id order.
    ///
    /// `drain_old` must be true when the dead connection's `Closed` marker
    /// has *not* been consumed yet (a write just failed): its reader may
    /// still hold delivered replies, and resubmitting those ids would make
    /// the server answer them a second time — the new connection's answers
    /// would then be miscounted as duplicates. Draining to the `Closed`
    /// marker first settles every already-answered id out of the pending
    /// map, so only genuinely unanswered work is replayed.
    fn reconnect(&mut self, initial: bool, drain_old: bool) -> io::Result<()> {
        if let Some(stream) = self.primary.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if drain_old {
            self.drain_to_closed(self.primary_epoch);
        }
        let mut attempt = 0u32;
        let stream = loop {
            if attempt >= self.cfg.max_reconnect_attempts {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("gave up after {attempt} reconnect attempts to {}", self.cfg.addr),
                ));
            }
            let now_ms = self.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
            if !self.breaker.allow(now_ms) {
                self.stats.breaker_rejections += 1;
                std::thread::sleep(Duration::from_millis(self.cfg.breaker_cooldown_ms.clamp(1, 50)));
                continue;
            }
            match TcpStream::connect(&self.cfg.addr) {
                Ok(stream) => {
                    self.breaker.on_success();
                    break stream;
                }
                Err(_) => {
                    let now_ms = self.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
                    self.breaker.on_failure(now_ms);
                    self.stats.breaker_opens = self.breaker.opens();
                    std::thread::sleep(self.cfg.backoff.delay(attempt));
                    attempt += 1;
                }
            }
        };
        let _ = stream.set_nodelay(true);
        self.epoch += 1;
        self.primary_epoch = self.epoch;
        spawn_reader(&stream, self.epoch, self.tx.clone())?;
        self.primary = Some(stream);
        if !initial {
            self.stats.reconnects += 1;
        }
        // The old connection may have died with a hedge out; pending state
        // restarts clean on the new connection.
        self.close_hedge();
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let req = self.pending.get_mut(&id).expect("id collected from pending");
            req.hedged = false;
            req.sent_at = Instant::now();
            let line = req.line.clone();
            self.stats.retries += 1;
            if let Some(stream) = self.primary.as_mut() {
                if write_line(stream, &line).is_err() {
                    // New conn died during replay; count this replay once
                    // and start over on the next dial (draining whatever
                    // the short-lived connection managed to answer).
                    self.stats.retries -= 1;
                    return self.reconnect(false, true);
                }
            }
        }
        Ok(())
    }

    /// Consume queued pipe messages until the reader for `target_epoch`
    /// reports `Closed` (its final message — the stream behind it has been
    /// shut down, so this terminates promptly; a generous timeout guards
    /// against a wedged reader). Lines routed here settle their pending
    /// entries; resolved replies are queued on `ready` for the caller.
    fn drain_to_closed(&mut self, target_epoch: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            match self.rx.recv_timeout((deadline - now).min(Duration::from_millis(50))) {
                Ok(Pipe::Line(epoch, reply)) => {
                    if let Some(resolved) = self.route_reply(epoch, reply) {
                        self.ready.push_back(resolved);
                    }
                }
                Ok(Pipe::Bad) => self.stats.bad_frames += 1,
                Ok(Pipe::Closed(epoch)) => {
                    self.forget_conn(epoch);
                    if epoch == target_epoch {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// If hedging is on and the oldest un-hedged pending request has
    /// outlived the hedge delay, resubmit it on a fresh connection.
    fn maybe_hedge(&mut self) {
        if self.hedge.is_some() || self.pending.is_empty() {
            return;
        }
        let delay = match self.cfg.hedge {
            HedgeMode::Off => return,
            HedgeMode::After(ms) => Duration::from_millis(ms),
            HedgeMode::AutoP99 { floor_ms } => {
                if self.reply_samples < 20 {
                    return;
                }
                Duration::from_micros(self.reply_latency_us.quantile_upper(0.99)).max(Duration::from_millis(floor_ms))
            }
        };
        let oldest = self
            .pending
            .iter()
            .filter(|(_, req)| !req.hedged)
            .min_by_key(|(_, req)| req.sent_at)
            .map(|(id, req)| (*id, req.sent_at));
        let Some((id, sent_at)) = oldest else { return };
        if sent_at.elapsed() < delay {
            return;
        }
        // Hedge dial is best-effort: a failure leaves the request pending
        // on the primary, no worse off.
        let Ok(stream) = TcpStream::connect(&self.cfg.addr) else { return };
        let _ = stream.set_nodelay(true);
        self.epoch += 1;
        let epoch = self.epoch;
        if spawn_reader(&stream, epoch, self.tx.clone()).is_err() {
            return;
        }
        let req = self.pending.get_mut(&id).expect("oldest came from pending");
        req.hedged = true;
        let line = req.line.clone();
        let mut stream = stream;
        if write_line(&mut stream, &line).is_ok() {
            self.stats.hedges += 1;
            self.hedge = Some(HedgeConn { stream, epoch });
        }
    }

    fn close_hedge(&mut self) {
        if let Some(hedge) = self.hedge.take() {
            let _ = hedge.stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for ResilientClient {
    fn drop(&mut self) {
        self.close_hedge();
        if let Some(stream) = self.primary.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Reader thread: decode and parse frames off `stream` into `tx`, tagged
/// with `epoch`; send `Closed(epoch)` exactly once on EOF or error.
fn spawn_reader(stream: &TcpStream, epoch: u64, tx: Sender<Pipe>) -> io::Result<()> {
    let stream = stream.try_clone()?;
    std::thread::Builder::new().name(format!("client-reader-{epoch}")).spawn(move || {
        let mut reader = FrameReader::new(stream, DEFAULT_MAX_FRAME);
        loop {
            let pipe = match reader.read_frame() {
                Ok(Some(Frame::Complete(line))) => parse(&line).map_or(Pipe::Bad, |reply| Pipe::Line(epoch, reply)),
                // A connection cut mid-frame; EOF follows and the client
                // resubmits, so this is a transport fault, not a bad reply.
                Ok(Some(Frame::Reject(FrameError::Truncated))) => continue,
                Ok(Some(Frame::Reject(_))) => Pipe::Bad,
                Ok(None) | Err(_) => {
                    let _ = tx.send(Pipe::Closed(epoch));
                    return;
                }
            };
            if tx.send(pipe).is_err() {
                return;
            }
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_monotonic_in_cap() {
        let policy = BackoffPolicy { base_ms: 10, max_ms: 400, seed: 9 };
        for attempt in 0..12 {
            let a = policy.delay(attempt);
            let b = policy.delay(attempt);
            assert_eq!(a, b, "same (seed, attempt) must give the same delay");
            let exp = (10u64 << attempt.min(32)).min(400);
            assert!(a >= Duration::from_millis(exp.div_ceil(2)), "attempt {attempt}: {a:?} < half of {exp}");
            assert!(a <= Duration::from_millis(exp), "attempt {attempt}: {a:?} > cap {exp}");
        }
        let other = BackoffPolicy { base_ms: 10, max_ms: 400, seed: 10 };
        assert_ne!(
            (0..12).map(|n| policy.delay(n)).collect::<Vec<_>>(),
            (0..12).map(|n| other.delay(n)).collect::<Vec<_>>(),
            "different seeds should desynchronise"
        );
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut b = CircuitBreaker::new(3, 100);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(0));
        b.on_failure(0);
        b.on_failure(1);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold stays closed");
        b.on_failure(2);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.allow(50), "open rejects before cooldown");
        assert!(b.allow(150), "cooldown elapsed: probe allowed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(151), "only one probe at a time");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(152));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(1, 100);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(100));
        b.on_failure(100);
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        assert_eq!(b.opens(), 2);
        assert!(!b.allow(150), "cooldown restarts from the probe failure");
        assert!(b.allow(200));
    }
}
