//! Closed- and open-loop traffic generator for a TCP `gaplan serve`.
//!
//! Each of `conns` threads runs one paced loop over its own
//! [`ResilientClient`], so every run reconnects, resubmits idempotently and
//! (optionally) hedges the same way — with or without a proxy in between.
//! The loop has two pacing modes:
//!
//! - **Closed loop** (default): keep up to `inflight` jobs outstanding, so
//!   the arrival rate adapts to server speed and the server is never truly
//!   overloaded.
//! - **Open loop** (`rate: Some(r)`): send `burst` jobs per scheduled
//!   arrival, `r` jobs/s overall, no matter how slowly replies come back —
//!   the shape that overloads a server and exercises admission control,
//!   CoDel shedding and brownout. Each job is timed from its *scheduled*
//!   arrival, so a late send shows up as latency instead of hiding.
//!
//! In both modes the jobs a connection still owes are counted lost once
//! 20 s pass with jobs pending and no reply or send, so a server that
//! silently drops a job cannot hang the run; an open loop idling between
//! arrivals with nothing pending is not counted.
//!
//! Keys follow a two-point skew: with probability `skew` a request uses the
//! hot key 0, otherwise a key uniform over `key_space` — hot keys are what
//! make singleflight coalescing and the plan cache earn their keep. Every
//! key maps to the same small Hanoi problem with a key-derived GA seed, so
//! a key fully determines the (deterministic) plan; the report carries an
//! order-independent fingerprint of every key's plan, which lets a
//! coalescing or fault-injected run be checked byte-for-byte against a
//! plain one.
//!
//! Latency is recorded per reply in microseconds into the obs log2-bucket
//! [`Histogram`] and reported as p50/p90/p99 bucket upper bounds alongside
//! throughput, goodput (Done replies within their deadline), the
//! rejected/shed/degraded/expired breakdown, and the nested client and
//! proxy counters.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use gaplan_obs::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{parse, write_value, Value};
use serde::{Deserialize, Serialize};

use crate::chaos::{ChaosConfig, ChaosProxy, ProxyStatsSnapshot};
use crate::client::{BackoffPolicy, ClientConfig, ClientStats, HedgeMode, ResilientClient};
use crate::codec::{write_frame, Frame, FrameReader, DEFAULT_MAX_FRAME};

/// Traffic shape for one [`run`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4500`.
    pub addr: String,
    /// Total jobs across all connections.
    pub jobs: u64,
    /// Client connections, each on its own thread.
    pub conns: usize,
    /// Per-connection cap on outstanding (unanswered) jobs in the closed
    /// loop (ignored open-loop).
    pub inflight: usize,
    /// Distinct cold keys; key 0 is the additional hot key.
    pub key_space: u64,
    /// Probability a request hits the hot key.
    pub skew: f64,
    /// Optional per-job deadline forwarded to the service.
    pub deadline_ms: Option<u64>,
    /// RNG seed for the key sequence.
    pub seed: u64,
    /// Open-loop arrival rate in jobs/s across all connections; `None`
    /// keeps the closed-loop (inflight-capped) behavior.
    pub rate: Option<f64>,
    /// Jobs sent per open-loop arrival instant (ignored closed-loop).
    pub burst: u64,
    /// Send `{"cmd":"shutdown"}` when done, stopping the server.
    pub shutdown_after: bool,
    /// Optional DSL `(domain, problem)` source pair: when set, every job
    /// submits a `ProblemSpec::Dsl` with these texts instead of the Hanoi
    /// instance, exercising the server's grounded-domain cache. Keys still
    /// vary the GA seed, so coalescing/caching behave as with Hanoi.
    pub dsl: Option<(String, String)>,
    /// Route job traffic through an external proxy at this address while
    /// metrics/shutdown still go straight to `addr`.
    pub proxy: Option<String>,
    /// Start an in-process [`ChaosProxy`] in front of `addr` and route job
    /// traffic through it (its `upstream` field is overwritten with
    /// `addr`); the report embeds the proxy's per-toxic counters.
    pub chaos: Option<ChaosConfig>,
    /// Hedging policy for each connection's client.
    pub hedge: HedgeMode,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:4500".to_string(),
            jobs: 100_000,
            conns: 8,
            inflight: 32,
            key_space: 64,
            skew: 0.5,
            deadline_ms: None,
            seed: 42,
            rate: None,
            burst: 1,
            shutdown_after: false,
            dsl: None,
            proxy: None,
            chaos: None,
            hedge: HedgeMode::Off,
        }
    }
}

/// Outcome of a [`run`], serialized to the `--out` JSON file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Jobs requested.
    pub jobs: u64,
    /// Terminal replies received.
    pub replies: u64,
    /// Jobs that never got a reply (must be 0 on a healthy run).
    pub lost: u64,
    /// Replies with `Error` status (`Rejected` counts separately).
    pub errors: u64,
    /// Replies with `Rejected` status (admission control: full queue or
    /// deadline provably unmeetable).
    pub rejected: u64,
    /// Replies with `Shed` status (backpressure working as designed).
    pub shed: u64,
    /// Replies with `DeadlineExpired` status (expired while queued,
    /// fast-failed without running).
    pub expired: u64,
    /// Replies flagged `degraded` (brownout ran them at reduced GA budget).
    pub degraded: u64,
    /// `Done` replies whose client-side latency was within the request
    /// deadline (all `Done` replies when no deadline was set).
    pub goodput: u64,
    /// Replies whose plan reached the goal.
    pub solved: u64,
    /// Reply frames that were not a JSON object with an id, or exceeded
    /// the frame size limit (the clients' `bad_frames`).
    pub bad_frames: u64,
    /// Wall-clock duration of the whole run, milliseconds.
    pub wall_ms: u64,
    /// `replies / wall_s`.
    pub throughput_jobs_per_sec: f64,
    /// Median per-job latency (log2-bucket upper bound), microseconds.
    pub latency_us_p50: u64,
    /// 90th-percentile per-job latency, microseconds.
    pub latency_us_p90: u64,
    /// 99th-percentile per-job latency, microseconds.
    pub latency_us_p99: u64,
    /// Median latency over `Done` replies only (accepted-job sojourn).
    pub done_latency_us_p50: u64,
    /// 99th-percentile latency over `Done` replies only.
    pub done_latency_us_p99: u64,
    /// Configured open-loop arrival rate, jobs/s (0 for closed loop).
    pub offered_rate_jobs_per_sec: f64,
    /// Server-side `coalesced_jobs` counter after the run.
    pub coalesced_jobs: u64,
    /// Server-side `cache_hits` counter after the run.
    pub cache_hits: u64,
    /// Distinct keys observed in replies.
    pub distinct_keys: u64,
    /// Replies whose plan disagreed with an earlier reply for the same key
    /// (must be 0 — plans are deterministic per key).
    pub plan_mismatches: u64,
    /// Order-independent fingerprint over (key, plan) pairs; equal runs
    /// (coalesced or not) must produce equal fingerprints.
    pub plans_hash: u64,
    /// Reply lines that matched no pending request, the clients'
    /// `duplicates` (true duplicates; must be 0 — hedge echoes are
    /// accounted separately and swallowed).
    pub duplicates: u64,
    /// Client counters (retries, reconnects, hedges, breaker) summed over
    /// every connection.
    pub client: ClientStats,
    /// In-process chaos proxy counters (all 0 without `chaos`).
    pub proxy: ProxyStatsSnapshot,
}

/// One connection's tally; [`run`] folds them with [`ConnStats::merge`].
#[derive(Default)]
struct ConnStats {
    replies: u64,
    lost: u64,
    errors: u64,
    rejected: u64,
    shed: u64,
    expired: u64,
    degraded: u64,
    goodput: u64,
    solved: u64,
    latency_us: Histogram,
    done_latency_us: Histogram,
    /// First-seen plan fingerprint per key, plus mismatch count.
    plans: HashMap<u64, u64>,
    mismatches: u64,
    client: ClientStats,
}

impl ConnStats {
    /// Fold the client's reply for `id` into the stats.
    fn record_reply(
        &mut self,
        pending: &mut HashMap<u64, (Instant, u64)>,
        id: u64,
        value: &Value,
        deadline_ms: Option<u64>,
    ) {
        let (sent_at, key) = pending.remove(&id).expect("the client hands back each submitted id once");
        self.replies += 1;
        let latency_us = sent_at.elapsed().as_micros() as u64;
        self.latency_us.record(latency_us);
        let status = value.get("status").and_then(Value::as_str).unwrap_or("");
        match status {
            "Error" => self.errors += 1,
            "Rejected" => self.rejected += 1,
            "Shed" => self.shed += 1,
            "DeadlineExpired" => self.expired += 1,
            _ => {}
        }
        let degraded = matches!(value.get("degraded"), Some(Value::Bool(true)));
        if degraded {
            self.degraded += 1;
        }
        if matches!(value.get("solved"), Some(Value::Bool(true))) {
            self.solved += 1;
        }
        if status == "Done" {
            self.done_latency_us.record(latency_us);
            if deadline_ms.is_none_or(|d| latency_us <= d.saturating_mul(1000)) {
                self.goodput += 1;
            }
            // Fingerprint the plan; every reply for a key must agree.
            // Degraded plans ran at a brownout-scaled budget, so they are
            // legitimately different — exclude them, as the cache does.
            if !degraded {
                let mut plan = String::new();
                if let Some(p) = value.get("plan") {
                    write_value(&mut plan, p);
                }
                self.note_plan(key, fnv1a(plan.as_bytes()));
            }
        }
    }

    /// Remember `key`'s plan fingerprint, counting a mismatch when it
    /// disagrees with the one seen first.
    fn note_plan(&mut self, key: u64, fp: u64) {
        match self.plans.get(&key) {
            Some(&seen) if seen != fp => self.mismatches += 1,
            Some(_) => {}
            None => {
                self.plans.insert(key, fp);
            }
        }
    }

    /// Add another connection's tally to this one.
    fn merge(&mut self, other: ConnStats) {
        self.replies += other.replies;
        self.lost += other.lost;
        self.errors += other.errors;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.expired += other.expired;
        self.degraded += other.degraded;
        self.goodput += other.goodput;
        self.solved += other.solved;
        self.latency_us.merge(&other.latency_us);
        self.done_latency_us.merge(&other.done_latency_us);
        self.mismatches += other.mismatches;
        for (key, fp) in other.plans {
            self.note_plan(key, fp);
        }
        let (c, o) = (&mut self.client, other.client);
        c.retries += o.retries;
        c.reconnects += o.reconnects;
        c.hedges += o.hedges;
        c.hedges_won += o.hedges_won;
        c.breaker_opens += o.breaker_opens;
        c.breaker_rejections += o.breaker_rejections;
        c.duplicates += o.duplicates;
        c.bad_frames += o.bad_frames;
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The request line for `id` under `key`: a fixed small Hanoi instance
/// (or the configured DSL pair) whose GA seed is derived from the key, so
/// distinct keys are distinct cache/coalesce entries and equal keys plan
/// identically.
fn plan_line(cfg: &LoadgenConfig, id: u64, key: u64) -> String {
    let deadline = match cfg.deadline_ms {
        Some(ms) => format!(",\"deadline_ms\":{ms}"),
        None => String::new(),
    };
    let problem = match &cfg.dsl {
        Some((domain, prob)) => {
            let mut d = String::new();
            write_value(&mut d, &Value::Str(domain.clone()));
            let mut p = String::new();
            write_value(&mut p, &Value::Str(prob.clone()));
            format!("{{\"Dsl\":{{\"domain\":{d},\"problem\":{p}}}}}")
        }
        None => "{\"Hanoi\":{\"disks\":4}}".to_string(),
    };
    format!(
        "{{\"cmd\":\"plan\",\"id\":{id},\"problem\":{problem}{deadline},\
         \"ga\":{{\"population\":48,\"generations\":40,\"phases\":2,\"seed\":{}}}}}",
        key.wrapping_mul(2_654_435_761).wrapping_add(1)
    )
}

fn pick_key(rng: &mut StdRng, cfg: &LoadgenConfig) -> u64 {
    if cfg.key_space <= 1 || rng.gen::<f64>() < cfg.skew {
        0
    } else {
        rng.gen_range(1..cfg.key_space)
    }
}

fn get_u64(value: &Value, field: &str) -> Option<u64> {
    value.get(field).and_then(|v| u64::deserialize_json(v).ok())
}

/// How long a connection waits, with jobs pending and no reply or send,
/// before counting the jobs it still owes as lost.
const DRAIN_IDLE: Duration = Duration::from_secs(20);

/// Drive `jobs` jobs over one [`ResilientClient`] connection to
/// `cfg.addr` (the proxy, when one is in play). Closed loop when
/// `rate_per_conn` is `None`: top pending jobs up to `cfg.inflight`. Open
/// loop otherwise: send `cfg.burst` jobs per scheduled arrival at
/// `rate_per_conn` jobs/s, a late tick catching up burst by burst rather
/// than skipping. Connection drops reconnect and resubmit inside the
/// client, so the report stays comparable bit-for-bit (`plans_hash`) with
/// a fault-free run.
fn run_conn(cfg: &LoadgenConfig, conn_idx: u64, jobs: u64, rate_per_conn: Option<f64>) -> io::Result<ConnStats> {
    let mut client = ResilientClient::connect(ClientConfig {
        addr: cfg.addr.clone(),
        backoff: BackoffPolicy { base_ms: 10, max_ms: 500, seed: cfg.seed ^ conn_idx },
        hedge: cfg.hedge,
        ..ClientConfig::default()
    })?;
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(conn_idx.wrapping_mul(0x9e37_79b9)));
    let mut stats = ConnStats::default();
    // Ids are namespaced per connection; the server's coalescer keys on
    // problem/config signatures, not ids.
    let base = (conn_idx + 1) << 40;
    // Latency origin + key per id; the client holds the request lines.
    let mut pending: HashMap<u64, (Instant, u64)> = HashMap::new();
    let mut sent = 0u64;
    let burst = cfg.burst.max(1);
    let interval = rate_per_conn.map(|r| Duration::from_secs_f64(burst as f64 / r.max(1e-9)));
    let mut next_arrival = Instant::now();
    let mut last_progress = Instant::now();

    'drive: while sent < jobs || !pending.is_empty() {
        let now = Instant::now();
        let (due, origin) = match interval {
            None => (cfg.inflight.max(1).saturating_sub(pending.len()) as u64, now),
            Some(interval) if now >= next_arrival => {
                let origin = next_arrival;
                next_arrival += interval;
                (burst, origin)
            }
            Some(_) => (0, now),
        };
        for _ in 0..due.min(jobs - sent) {
            let key = pick_key(&mut rng, cfg);
            let id = base + sent;
            if client.submit(id, &plan_line(cfg, id, key)).is_err() {
                // Reconnect attempts exhausted: the server is gone.
                stats.lost += pending.len() as u64 + (jobs - sent);
                break 'drive;
            }
            pending.insert(id, (origin, key));
            sent += 1;
            last_progress = now;
        }
        // Wait for a reply, but never past the next scheduled arrival.
        let wait = match interval {
            Some(_) if sent < jobs => next_arrival.saturating_duration_since(Instant::now()),
            _ => Duration::from_millis(50),
        };
        match client.next_reply(wait.min(Duration::from_millis(50))) {
            Ok(Some((id, reply))) => {
                stats.record_reply(&mut pending, id, &reply, cfg.deadline_ms);
                last_progress = Instant::now();
            }
            // Nothing owed yet: an open loop waiting for its next arrival.
            Ok(None) if pending.is_empty() || last_progress.elapsed() < DRAIN_IDLE => {}
            Ok(None) | Err(_) => {
                stats.lost += pending.len() as u64 + (jobs - sent);
                break;
            }
        }
    }
    stats.client = client.stats();
    Ok(stats)
}

/// Query the server's metrics snapshot (and optionally shut it down),
/// returning `(coalesced_jobs, cache_hits)`.
fn fetch_metrics(cfg: &LoadgenConfig) -> io::Result<(u64, u64)> {
    let stream = TcpStream::connect(&cfg.addr)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = FrameReader::new(stream, DEFAULT_MAX_FRAME);
    write_frame(&mut writer, "{\"cmd\":\"metrics\"}")?;
    writer.flush()?;
    let mut counters = (0, 0);
    if let Some(Frame::Complete(line)) = reader.read_frame()? {
        if let Ok(value) = parse(&line) {
            if let Some(metrics) = value.get("metrics") {
                counters =
                    (get_u64(metrics, "coalesced_jobs").unwrap_or(0), get_u64(metrics, "cache_hits").unwrap_or(0));
            }
        }
    }
    if cfg.shutdown_after {
        write_frame(&mut writer, "{\"cmd\":\"shutdown\"}")?;
        writer.flush()?;
    }
    Ok(counters)
}

/// Drive the configured load and collect the report. Errors only when a
/// connection cannot be established at all; reply-level anomalies are
/// counted, not fatal.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let conns = cfg.conns.max(1) as u64;
    let per_conn = cfg.jobs / conns;
    let remainder = cfg.jobs % conns;

    // Chaos/proxy routing: job traffic goes through the proxy, while
    // metrics and shutdown keep talking straight to the server.
    let proxy = match &cfg.chaos {
        Some(chaos_cfg) => {
            let mut chaos_cfg = chaos_cfg.clone();
            chaos_cfg.upstream = cfg.addr.clone();
            Some(ChaosProxy::start("127.0.0.1:0", chaos_cfg)?)
        }
        None => None,
    };
    let connect_addr = match (&proxy, &cfg.proxy) {
        (Some(p), _) => p.local_addr().to_string(),
        (None, Some(addr)) => addr.clone(),
        (None, None) => cfg.addr.clone(),
    };
    let started = Instant::now();

    let rate_per_conn = cfg.rate.map(|r| r / conns as f64);
    let handles: Vec<_> = (0..conns)
        .map(|conn_idx| {
            let cfg = LoadgenConfig { addr: connect_addr.clone(), ..cfg.clone() };
            let jobs = per_conn + u64::from(conn_idx < remainder);
            std::thread::spawn(move || run_conn(&cfg, conn_idx, jobs, rate_per_conn))
        })
        .collect();
    let mut total = ConnStats::default();
    for handle in handles {
        total.merge(handle.join().map_err(|_| io::Error::other("loadgen connection thread panicked"))??);
    }
    let wall_ms = started.elapsed().as_millis() as u64;

    let proxy = proxy.map(ChaosProxy::stop).unwrap_or_default();

    let (coalesced_jobs, cache_hits) = fetch_metrics(cfg).unwrap_or((0, 0));

    let mut plans_hash = 0u64;
    for (key, fp) in &total.plans {
        plans_hash ^= fnv1a(format!("{key}:{fp}").as_bytes());
    }

    Ok(LoadgenReport {
        jobs: cfg.jobs,
        replies: total.replies,
        lost: total.lost,
        errors: total.errors,
        rejected: total.rejected,
        shed: total.shed,
        expired: total.expired,
        degraded: total.degraded,
        goodput: total.goodput,
        solved: total.solved,
        bad_frames: total.client.bad_frames,
        wall_ms,
        throughput_jobs_per_sec: if wall_ms > 0 { total.replies as f64 * 1000.0 / wall_ms as f64 } else { 0.0 },
        latency_us_p50: total.latency_us.quantile_upper(0.5),
        latency_us_p90: total.latency_us.quantile_upper(0.9),
        latency_us_p99: total.latency_us.quantile_upper(0.99),
        done_latency_us_p50: total.done_latency_us.quantile_upper(0.5),
        done_latency_us_p99: total.done_latency_us.quantile_upper(0.99),
        offered_rate_jobs_per_sec: cfg.rate.unwrap_or(0.0),
        coalesced_jobs,
        cache_hits,
        distinct_keys: total.plans.len() as u64,
        plan_mismatches: total.mismatches,
        plans_hash,
        duplicates: total.client.duplicates,
        client: total.client,
        proxy,
    })
}

/// Write the report as JSON to `path`.
pub fn write_report(path: &Path, report: &LoadgenReport) -> io::Result<()> {
    let json = serde_json::to_string(report).map_err(io::Error::other)?;
    std::fs::write(path, json + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_prefers_the_hot_key() {
        let cfg = LoadgenConfig { skew: 0.9, key_space: 16, ..LoadgenConfig::default() };
        let mut rng = StdRng::seed_from_u64(7);
        let hot = (0..1000).filter(|_| pick_key(&mut rng, &cfg) == 0).count();
        assert!(hot > 800, "expected ~900 hot-key picks, got {hot}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = LoadgenReport {
            jobs: 10,
            replies: 10,
            lost: 0,
            errors: 0,
            rejected: 1,
            shed: 0,
            expired: 2,
            degraded: 3,
            goodput: 4,
            solved: 9,
            bad_frames: 0,
            wall_ms: 123,
            throughput_jobs_per_sec: 81.3,
            latency_us_p50: 255,
            latency_us_p90: 511,
            latency_us_p99: 1023,
            done_latency_us_p50: 255,
            done_latency_us_p99: 511,
            offered_rate_jobs_per_sec: 120.0,
            coalesced_jobs: 3,
            cache_hits: 4,
            distinct_keys: 2,
            plan_mismatches: 0,
            plans_hash: 99,
            duplicates: 0,
            client: ClientStats {
                retries: 5,
                reconnects: 2,
                hedges: 3,
                hedges_won: 1,
                breaker_opens: 1,
                breaker_rejections: 4,
                duplicates: 0,
                bad_frames: 0,
            },
            proxy: ProxyStatsSnapshot { conns: 12, resets: 2, cuts: 3, partial_writes: 6, ..Default::default() },
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"client\":{\"retries\":5,"), "{json}");
        let back: LoadgenReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.jobs, 10);
        assert_eq!(back.rejected, 1);
        assert_eq!(back.expired, 2);
        assert_eq!(back.degraded, 3);
        assert_eq!(back.goodput, 4);
        assert_eq!(back.offered_rate_jobs_per_sec, 120.0);
        assert_eq!(back.plans_hash, 99);
        assert_eq!(back.duplicates, 0);
        assert_eq!(back.client, report.client);
        assert_eq!(back.proxy, report.proxy);
    }
}
