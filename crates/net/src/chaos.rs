//! Seeded fault-injecting TCP proxy ("toxics") for wire-level chaos tests.
//!
//! [`ChaosProxy::start`] listens on a local address and forwards every
//! accepted connection to an upstream server, injecting faults according
//! to a deterministic, seeded schedule: connection refusals, abrupt
//! connection resets, added latency with jitter, bandwidth throttling,
//! byte-level partial writes, and mid-frame cuts (a prefix of a chunk is
//! forwarded, then the connection dies). Every toxic keeps its own counter
//! in [`ProxyStats`], snapshotted into a serializable
//! [`ProxyStatsSnapshot`], whose `Display` is the proxy's one-line summary.
//!
//! Determinism: the k-th accepted connection draws all its fault decisions
//! from an RNG seeded by `(seed, k, direction)`, so a fixed seed yields a
//! fixed fault schedule per connection index and chunk sequence. Chunk
//! *boundaries* still depend on kernel timing, so the schedule is
//! reproducible in distribution rather than byte-for-byte — what matters
//! for the end-to-end guarantee (clients recover with zero lost and zero
//! duplicated answers, plans byte-identical to a fault-free run) is that
//! the fault *rates* are fixed by the seed.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fault schedule for a [`ChaosProxy`]. All rates are per-decision
/// probabilities in `[0, 1]`; a default config injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Upstream server address connections are forwarded to.
    pub upstream: String,
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability an accepted connection is refused outright (closed
    /// before any byte is forwarded).
    pub refuse_rate: f64,
    /// Per-chunk probability the connection is reset: the chunk is
    /// discarded and both sides are torn down abruptly.
    pub reset_rate: f64,
    /// Per-chunk probability of a mid-frame cut: a strict prefix of the
    /// chunk is forwarded, then the connection dies.
    pub cut_rate: f64,
    /// Fixed latency added before forwarding each chunk, milliseconds.
    pub latency_ms: u64,
    /// Deterministic per-chunk jitter added on top of `latency_ms`,
    /// uniform in `[0, jitter_ms)`.
    pub jitter_ms: u64,
    /// Per-chunk probability the chunk is dribbled out in 1–7 byte
    /// writes (each flushed) instead of one write.
    pub partial_rate: f64,
    /// Bandwidth cap per direction per connection, bytes/second; the pump
    /// sleeps after each chunk to hold the rate. `None` = unthrottled.
    pub throttle_bytes_per_sec: Option<u64>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            upstream: "127.0.0.1:4500".to_string(),
            seed: 42,
            refuse_rate: 0.0,
            reset_rate: 0.0,
            cut_rate: 0.0,
            latency_ms: 0,
            jitter_ms: 0,
            partial_rate: 0.0,
            throttle_bytes_per_sec: None,
        }
    }
}

/// Live per-toxic counters, shared by every pump thread.
#[derive(Debug, Default)]
pub struct ProxyStats {
    conns: AtomicU64,
    refused: AtomicU64,
    resets: AtomicU64,
    cuts: AtomicU64,
    delays: AtomicU64,
    delay_ms_total: AtomicU64,
    partial_writes: AtomicU64,
    throttle_sleeps: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
}

impl ProxyStats {
    fn snapshot(&self) -> ProxyStatsSnapshot {
        ProxyStatsSnapshot {
            conns: self.conns.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            cuts: self.cuts.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            delay_ms_total: self.delay_ms_total.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
            throttle_sleeps: self.throttle_sleeps.load(Ordering::Relaxed),
            bytes_up: self.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.bytes_down.load(Ordering::Relaxed),
        }
    }
}

/// Serializable point-in-time view of [`ProxyStats`], nested in the
/// loadgen report as `proxy` when the loadgen runs its proxy in-process.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProxyStatsSnapshot {
    /// Connections accepted (including refused ones).
    pub conns: u64,
    /// Connections refused before forwarding any byte.
    pub refused: u64,
    /// Connections reset by the reset toxic.
    pub resets: u64,
    /// Connections killed mid-frame by the cut toxic.
    pub cuts: u64,
    /// Chunks delayed by the latency toxic.
    pub delays: u64,
    /// Total injected latency, milliseconds.
    pub delay_ms_total: u64,
    /// Chunks dribbled out by the partial-write toxic.
    pub partial_writes: u64,
    /// Throttle pauses taken to hold the bandwidth cap.
    pub throttle_sleeps: u64,
    /// Bytes forwarded client → upstream.
    pub bytes_up: u64,
    /// Bytes forwarded upstream → client.
    pub bytes_down: u64,
}

impl fmt::Display for ProxyStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaosproxy: conns {} refused {} resets {} cuts {} delays {} ({} ms) \
             partial {} throttled {} bytes up {} down {}",
            self.conns,
            self.refused,
            self.resets,
            self.cuts,
            self.delays,
            self.delay_ms_total,
            self.partial_writes,
            self.throttle_sleeps,
            self.bytes_up,
            self.bytes_down
        )
    }
}

impl ProxyStatsSnapshot {
    /// Total faults injected across the fault toxics (refusals, resets,
    /// cuts) — the "did chaos actually happen" check.
    pub fn faults(&self) -> u64 {
        self.refused + self.resets + self.cuts
    }
}

type PairRegistry = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A running fault-injecting proxy; call [`ChaosProxy::stop`] to tear it
/// down (dropping without `stop` leaks the pump threads).
pub struct ChaosProxy {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    pairs: PairRegistry,
    stats: Arc<ProxyStats>,
}

impl ChaosProxy {
    /// Listen on `listen` (port 0 picks a free port) and forward to
    /// `cfg.upstream` with the configured toxics.
    pub fn start<A: ToSocketAddrs>(listen: A, cfg: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let pairs: PairRegistry = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let pairs = Arc::clone(&pairs);
            std::thread::Builder::new().name("chaosproxy-accept".to_string()).spawn(move || {
                let mut conn_idx = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _peer)) => {
                            let idx = conn_idx;
                            conn_idx += 1;
                            stats.conns.fetch_add(1, Ordering::Relaxed);
                            // The refusal decision comes from its own RNG
                            // stream so refuse_rate doesn't perturb the
                            // per-chunk schedule of surviving connections.
                            let mut gate = conn_rng(cfg.seed, idx, 2);
                            if cfg.refuse_rate > 0.0 && gate.gen::<f64>() < cfg.refuse_rate {
                                stats.refused.fetch_add(1, Ordering::Relaxed);
                                let _ = client.shutdown(Shutdown::Both);
                                continue;
                            }
                            let Ok(upstream) = TcpStream::connect(&cfg.upstream) else {
                                stats.refused.fetch_add(1, Ordering::Relaxed);
                                let _ = client.shutdown(Shutdown::Both);
                                continue;
                            };
                            let _ = client.set_nodelay(true);
                            let _ = upstream.set_nodelay(true);
                            let client_reg = client.try_clone();
                            let handle = spawn_pair(&cfg, idx, client, upstream, &stats);
                            if let (Ok(handle), Ok(reg)) = (handle, client_reg) {
                                pairs.lock().push((handle, reg));
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?
        };

        Ok(ChaosProxy { local_addr, stop, accept_thread: Some(accept_thread), pairs, stats })
    }

    /// The address the proxy actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time per-toxic counters.
    pub fn stats(&self) -> ProxyStatsSnapshot {
        self.stats.snapshot()
    }

    /// Stop accepting, kill every forwarded connection, join the threads.
    pub fn stop(mut self) -> ProxyStatsSnapshot {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let pairs = std::mem::take(&mut *self.pairs.lock());
        for (handle, stream) in pairs {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
        self.stats.snapshot()
    }
}

/// Per-connection, per-direction RNG: `dir` 0 = client→upstream, 1 =
/// upstream→client, 2 = the accept gate.
fn conn_rng(seed: u64, conn_idx: u64, dir: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ conn_idx.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ dir.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// Spawn the two pump threads of one forwarded connection. The returned
/// handle joins the client→upstream pump, which itself joins its sibling.
fn spawn_pair(
    cfg: &ChaosConfig,
    conn_idx: u64,
    client: TcpStream,
    upstream: TcpStream,
    stats: &Arc<ProxyStats>,
) -> io::Result<JoinHandle<()>> {
    let up =
        Pump { rng: conn_rng(cfg.seed, conn_idx, 0), cfg: cfg.clone(), stats: Arc::clone(stats), upstream_dir: true };
    let down =
        Pump { rng: conn_rng(cfg.seed, conn_idx, 1), cfg: cfg.clone(), stats: Arc::clone(stats), upstream_dir: false };
    let (c2, u2) = (client.try_clone()?, upstream.try_clone()?);
    let down_handle =
        std::thread::Builder::new().name(format!("chaosproxy-down-{conn_idx}")).spawn(move || down.run(u2, c2))?;
    std::thread::Builder::new().name(format!("chaosproxy-up-{conn_idx}")).spawn(move || {
        up.run(client, upstream);
        let _ = down_handle.join();
    })
}

/// One forwarding direction of one connection.
struct Pump {
    rng: StdRng,
    cfg: ChaosConfig,
    stats: Arc<ProxyStats>,
    upstream_dir: bool,
}

impl Pump {
    /// Copy `src` → `dst` chunk by chunk, injecting toxics, until EOF, an
    /// I/O error, or a fault kills the connection. Always tears down both
    /// streams on exit so the peer direction unblocks.
    fn run(mut self, mut src: TcpStream, mut dst: TcpStream) {
        let mut buf = [0u8; 4096];
        loop {
            let n = match src.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            match self.forward(&mut dst, &buf[..n]) {
                Forwarded::Ok => {}
                Forwarded::Killed | Forwarded::IoError => break,
            }
        }
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    }

    /// Apply the toxic schedule to one chunk and forward what survives.
    fn forward(&mut self, dst: &mut TcpStream, chunk: &[u8]) -> Forwarded {
        let (latency_ms, jitter_ms, throttle) =
            (self.cfg.latency_ms, self.cfg.jitter_ms, self.cfg.throttle_bytes_per_sec);
        // Draw every per-chunk decision up front so the RNG consumption —
        // and with it the schedule — is independent of which toxics fire.
        let reset = self.rng.gen::<f64>() < self.cfg.reset_rate;
        let cut = self.rng.gen::<f64>() < self.cfg.cut_rate;
        let cut_at = 1 + (self.rng.gen::<u64>() as usize % chunk.len().max(1));
        let jitter = if jitter_ms > 0 { self.rng.gen::<u64>() % jitter_ms } else { 0 };
        let partial = self.rng.gen::<f64>() < self.cfg.partial_rate;

        if reset {
            self.stats.resets.fetch_add(1, Ordering::Relaxed);
            return Forwarded::Killed;
        }
        let delay = latency_ms + jitter;
        if delay > 0 {
            self.stats.delays.fetch_add(1, Ordering::Relaxed);
            self.stats.delay_ms_total.fetch_add(delay, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(delay));
        }
        let (payload, killed_after) = if cut && cut_at < chunk.len() {
            self.stats.cuts.fetch_add(1, Ordering::Relaxed);
            (&chunk[..cut_at], true)
        } else {
            (chunk, false)
        };
        let wrote = if partial {
            self.stats.partial_writes.fetch_add(1, Ordering::Relaxed);
            self.write_dribbled(dst, payload)
        } else {
            dst.write_all(payload)
        };
        if wrote.is_err() {
            return Forwarded::IoError;
        }
        let counter = if self.upstream_dir { &self.stats.bytes_up } else { &self.stats.bytes_down };
        counter.fetch_add(payload.len() as u64, Ordering::Relaxed);
        if killed_after {
            return Forwarded::Killed;
        }
        if let Some(rate) = throttle {
            if rate > 0 {
                self.stats.throttle_sleeps.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_secs_f64(payload.len() as f64 / rate as f64));
            }
        }
        Forwarded::Ok
    }

    /// Write `payload` in 1–7 byte pieces, flushing each, so the receiver
    /// sees frames split at arbitrary byte boundaries.
    fn write_dribbled(&mut self, dst: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
        let mut off = 0;
        while off < payload.len() {
            let piece = 1 + (self.rng.gen::<u64>() as usize % 7).min(payload.len() - off - 1);
            dst.write_all(&payload[off..off + piece])?;
            dst.flush()?;
            off += piece;
        }
        Ok(())
    }
}

enum Forwarded {
    Ok,
    Killed,
    IoError,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};

    /// Echo-upstream helper: accepts one connection and echoes lines back.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut out = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            if out.write_all(line.as_bytes()).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn clean_proxy_forwards_byte_identically() {
        let (upstream, _echo) = echo_server();
        let proxy =
            ChaosProxy::start("127.0.0.1:0", ChaosConfig { upstream: upstream.to_string(), ..ChaosConfig::default() })
                .unwrap();
        let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..10 {
            let line = format!("hello {i}\n");
            stream.write_all(line.as_bytes()).unwrap();
            let mut got = String::new();
            reader.read_line(&mut got).unwrap();
            assert_eq!(got, line);
        }
        drop(stream);
        let stats = proxy.stop();
        assert_eq!(stats.conns, 1);
        assert_eq!(stats.faults(), 0);
        assert!(stats.bytes_up >= 80 && stats.bytes_down >= 80, "{stats:?}");
    }

    #[test]
    fn partial_writes_still_deliver_every_byte() {
        let (upstream, _echo) = echo_server();
        let proxy = ChaosProxy::start(
            "127.0.0.1:0",
            ChaosConfig { upstream: upstream.to_string(), partial_rate: 1.0, seed: 7, ..ChaosConfig::default() },
        )
        .unwrap();
        let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let line = format!("{}\n", "x".repeat(300));
        stream.write_all(line.as_bytes()).unwrap();
        let mut got = String::new();
        reader.read_line(&mut got).unwrap();
        assert_eq!(got, line);
        drop(stream);
        let stats = proxy.stop();
        assert!(stats.partial_writes > 0, "{stats:?}");
    }

    #[test]
    fn refuse_rate_one_refuses_every_connection_deterministically() {
        let (upstream, _echo) = echo_server();
        let proxy = ChaosProxy::start(
            "127.0.0.1:0",
            ChaosConfig { upstream: upstream.to_string(), refuse_rate: 1.0, ..ChaosConfig::default() },
        )
        .unwrap();
        for _ in 0..3 {
            let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
            let mut buf = [0u8; 8];
            // The proxy closes without forwarding: either the read returns
            // EOF or the write errors once the RST lands.
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let eof = matches!(stream.read(&mut buf), Ok(0) | Err(_));
            assert!(eof, "refused connection must not carry data");
        }
        let stats = proxy.stop();
        assert_eq!(stats.refused, 3, "{stats:?}");
    }

    #[test]
    fn reset_rate_one_kills_the_first_chunk() {
        let (upstream, _echo) = echo_server();
        let proxy = ChaosProxy::start(
            "127.0.0.1:0",
            ChaosConfig { upstream: upstream.to_string(), reset_rate: 1.0, ..ChaosConfig::default() },
        )
        .unwrap();
        let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
        stream.write_all(b"doomed\n").unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 8];
        assert!(matches!(stream.read(&mut buf), Ok(0) | Err(_)), "reset connection must die");
        let stats = proxy.stop();
        assert!(stats.resets >= 1, "{stats:?}");
        assert_eq!(stats.bytes_up, 0, "reset discards the chunk: {stats:?}");
    }

    #[test]
    fn latency_toxic_counts_and_delays() {
        let (upstream, _echo) = echo_server();
        let proxy = ChaosProxy::start(
            "127.0.0.1:0",
            ChaosConfig { upstream: upstream.to_string(), latency_ms: 30, jitter_ms: 5, ..ChaosConfig::default() },
        )
        .unwrap();
        let mut stream = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let started = std::time::Instant::now();
        stream.write_all(b"ping\n").unwrap();
        let mut got = String::new();
        reader.read_line(&mut got).unwrap();
        assert_eq!(got, "ping\n");
        // Two pumps (up + down), >= 30 ms each.
        assert!(started.elapsed() >= Duration::from_millis(60), "latency toxic not applied");
        drop(stream);
        let stats = proxy.stop();
        assert!(stats.delays >= 2 && stats.delay_ms_total >= 60, "{stats:?}");
    }
}
