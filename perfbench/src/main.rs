//! The gaplan benchmark: one workload of generated traffic against a fresh
//! `gaplan serve --listen` process, with every reply checked.
//!
//! ```text
//! perfbench --workload hot-keys|cold-mix|overload-hanoi --seed N --seconds S --trace 0|1
//!           --gaplan PATH [--root DIR] [--scratch DIR] [--git-sha SHA] [--source-digest HEX] [--cmdline TEXT]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, medians over four timed
//! windows that each run against a fresh server. `--trace 1` prints the
//! per-layer metrics instead: an untraced window, timed calls into each
//! layer's public functions, and a window against a server writing its
//! `--trace` JSONL. The last stdout line is the JSON result
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod check;
mod drive;
mod layers;
mod server;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use serde::json::{write_json_string, Value};

use crate::drive::Observed;
use crate::layers::Metric;
use crate::server::{counter, cpu_seconds, peak_rss_kib, Server};
use crate::stats::{median, quantile, ratio, supported_percentile};
use crate::workload::{Generator, Inputs, Request, Workload, HOT_KEY_SPACE};

/// Fresh servers a `--trace 0` run starts; each serves an equal share of
/// the measured seconds. Goodput, median latency, set-up time and memory
/// are medians over them, so one window that the shared machine stalled
/// does not move the result.
const WINDOWS: usize = 4;
/// Priming requests outstanding at once, well inside the server's queue.
const PRIME_INFLIGHT: usize = 16;
/// Client ids of priming requests, disjoint from window request indices.
const PRIME_ID_BASE: u64 = 1 << 50;
/// Leading cold-mix requests re-solved in-process and fingerprinted.
const REFERENCE_PREFIX: u64 = 15;
/// Non-degraded overload Done replies re-solved in-process.
const OVERLOAD_REFERENCES: usize = 10;
/// Request lines the wire-layer timings run over.
const SAMPLE_LINES: u64 = 400;
/// Workers of the default `ServiceConfig`.
const SERVER_WORKERS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    gaplan: PathBuf,
    root: PathBuf,
    scratch: PathBuf,
    git_sha: String,
    source_digest: String,
    cmdline: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).cloned();
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| need(name)?.parse::<u64>().map_err(|e| format!("{name}: {e}"));
    let name = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? != 0,
        gaplan: PathBuf::from(need("--gaplan")?),
        root: PathBuf::from(get("--root").unwrap_or_else(|| ".".into())),
        scratch: PathBuf::from(get("--scratch").unwrap_or_else(|| ".bench_build/perfbench".into())),
        git_sha: get("--git-sha").unwrap_or_else(|| "unknown".into()),
        source_digest: get("--source-digest").unwrap_or_else(|| "unknown".into()),
        cmdline: get("--cmdline").unwrap_or_else(|| argv.join(" ")),
    })
}

/// One timed window against a fresh server.
struct Window {
    obs: Observed,
    /// Spawn-to-listening time, priming included.
    setup_s: f64,
    /// Server metrics before and after the window.
    before: Value,
    after: Value,
    len_s: f64,
    server_cpu_s: f64,
    client_cpu_s: f64,
    rss_kib: u64,
    trace: Option<layers::ServerTrace>,
}

impl Window {
    /// Growth of a server counter over the window.
    fn delta(&self, name: &str) -> f64 {
        counter(&self.after, name).saturating_sub(counter(&self.before, name)) as f64
    }

    fn goodput(&self) -> f64 {
        ratio(self.obs.good as f64, self.len_s)
    }
}

/// The windows of one run and what checking them found.
struct Checked {
    windows: Vec<Window>,
    failures: Vec<String>,
    plans_hash: u64,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let inputs = Inputs::load(&args.root).map_err(|e| format!("cannot read the shipped inputs: {e}"))?;
    let gen = Generator::new(args.workload, args.seed, &inputs);
    println!("{}", provenance(args));

    let seconds = args.seconds as f64;
    let (run, metrics) = if args.trace {
        // Half the time untraced, half against a server writing its trace.
        let len = Duration::from_secs_f64(seconds / 2.0);
        let trace_path = args.scratch.join(format!("trace-{}-{}.jsonl", args.workload.name(), std::process::id()));
        std::fs::create_dir_all(&args.scratch).map_err(|e| format!("scratch directory: {e}"))?;
        let run = windows(args, &gen, &[(len, None), (len, Some(trace_path.as_path()))]);
        let _ = std::fs::remove_file(&trace_path);
        let run = run?;
        let metrics = per_layer(&gen, &run.windows[0], &run.windows[1]);
        (run, metrics)
    } else {
        let len = Duration::from_secs_f64(seconds / WINDOWS as f64);
        let run = windows(args, &gen, &[(len, None); WINDOWS])?;
        let metrics = end_to_end(&run);
        (run, metrics)
    };

    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &run.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let attempted: u64 = run.windows.iter().map(|w| w.obs.sent).sum();
    let errors: u64 =
        run.windows.iter().map(|w| w.obs.lost + w.obs.statuses.error + w.obs.duplicates + w.obs.bad_frames).sum();
    let failed = errors.max(run.failures.len() as u64);
    println!("{}", result_line(run.failures.is_empty(), attempted, failed, &metrics));
    Ok(())
}

/// Serve one window per `(length, trace file)` entry, each against its own
/// fresh server, then check every reply of all of them.
fn windows(args: &Args, gen: &Generator<'_>, plan: &[(Duration, Option<&Path>)]) -> Result<Checked, String> {
    let mut windows = Vec::new();
    let mut failures = Vec::new();
    let mut plans = Observed::default();
    for (k, &(len, trace)) in plan.iter().enumerate() {
        // Each window draws its own requests: indices start at k << 32.
        let (mut w, primed) = serve(args, gen, trace, (k as u64) << 32, len)?;
        check_window(gen, &w, &primed, &mut failures);
        for (key, rec) in primed.plans.into_iter().chain(std::mem::take(&mut w.obs.plans)) {
            plans.note_plan(key, rec);
        }
        windows.push(w);
    }
    let mismatches = plans.mismatches + windows.iter().map(|w| w.obs.mismatches).sum::<u64>();
    if mismatches > 0 {
        failures.push(format!("{mismatches} plan mismatches within a key"));
    }
    let hot = gen.hot_keys();
    let request_of = |key: u64| match gen.workload {
        Workload::HotKeys => hot[key as usize].clone(),
        _ => gen.request(key),
    };
    failures.extend(check::replay_all(&plans.plans, request_of).into_iter().map(|f| format!("replay {f}")));
    let references: Vec<(u64, Request)> = match gen.workload {
        Workload::HotKeys => hot.iter().map(|r| (r.key, r.clone())).collect(),
        Workload::ColdMix => (0..REFERENCE_PREFIX).map(|i| (i, gen.request(i))).collect(),
        Workload::OverloadHanoi => {
            let mut keys: Vec<u64> = plans.plans.iter().filter(|(_, r)| !r.degraded).map(|(k, _)| *k).collect();
            keys.sort_unstable();
            keys.iter().take(OVERLOAD_REFERENCES).map(|&k| (k, gen.request(k))).collect()
        }
    };
    let plans_hash = check::reference(&plans.plans, &references).unwrap_or_else(|e| {
        failures.push(format!("reference solve: {e}"));
        0
    });
    Ok(Checked { windows, failures, plans_hash })
}

/// Start a fresh server (priming its plan cache for hot-keys), drive one
/// window of requests from index `base` against it, and stop it. Returns
/// the window and the priming replies.
fn serve(
    args: &Args,
    gen: &Generator<'_>,
    trace: Option<&Path>,
    base: u64,
    len: Duration,
) -> Result<(Window, Observed), String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let mut server_args: Vec<String> = gen.workload.server_args().iter().map(|s| s.to_string()).collect();
    if let Some(path) = trace {
        server_args.extend(["--trace".to_string(), path.display().to_string()]);
    }
    let started = Instant::now();
    let server = Server::spawn(&args.gaplan, &server_args).map_err(io("server start"))?;
    let mut primed = Observed::default();
    if gen.workload == Workload::HotKeys {
        primed =
            drive::send_all(&server.addr, &gen.hot_keys(), PRIME_ID_BASE, PRIME_INFLIGHT).map_err(io("priming"))?;
    }
    let setup_s = started.elapsed().as_secs_f64();
    let pid = server.pid().to_string();

    let before = server.metrics().map_err(io("metrics"))?;
    let (server_cpu0, client_cpu0) = (cpu_seconds(&pid), cpu_seconds("self"));
    let obs = drive::run(&server.addr, gen, len, base).map_err(io("traffic"))?;
    let (server_cpu1, client_cpu1) = (cpu_seconds(&pid), cpu_seconds("self"));
    let after = server.metrics().map_err(io("metrics"))?;
    let rss_kib = peak_rss_kib(server.pid()).unwrap_or(0);
    server.shutdown().map_err(io("server shutdown"))?;
    let trace = trace.map(layers::read_trace).transpose().map_err(io("server trace"))?;

    let delta = |a: Option<f64>, b: Option<f64>| b.zip(a).map_or(0.0, |(b, a)| b - a);
    let window = Window {
        obs,
        setup_s,
        before,
        after,
        len_s: len.as_secs_f64(),
        server_cpu_s: delta(server_cpu0, server_cpu1),
        client_cpu_s: delta(client_cpu0, client_cpu1),
        rss_kib,
        trace,
    };
    Ok((window, primed))
}

/// Reply accounting and traffic verification of one window.
fn check_window(gen: &Generator<'_>, w: &Window, primed: &Observed, failures: &mut Vec<String>) {
    let mut fail = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let o = &w.obs;
    fail(o.sent > 0 && o.statuses.done > 0, format!("{} sent, {} Done", o.sent, o.statuses.done));
    fail(o.replies == o.sent && o.lost == 0, format!("{} sent, {} replies, {} lost", o.sent, o.replies, o.lost));
    fail(o.duplicates == 0, format!("{} duplicate or stray replies", o.duplicates));
    fail(o.bad_frames == 0, format!("{} undecodable reply frames", o.bad_frames));
    fail(o.statuses.error == 0 && o.statuses.other == 0, format!("unexpected statuses {:?}", o.statuses));

    // Traffic verification: the workload did what it claims.
    let (hits, misses) = (w.delta("cache_hits"), w.delta("cache_misses"));
    match gen.workload {
        Workload::HotKeys => {
            let keys = HOT_KEY_SPACE + 1;
            fail(primed.statuses.done == keys, format!("priming answered {} of {keys} keys", primed.statuses.done));
            let hit_frac = ratio(hits, hits + misses);
            fail(hit_frac >= 0.9, format!("hot-keys cache hit fraction {hit_frac:.3} < 0.9"));
        }
        Workload::ColdMix => {
            let joined = w.delta("coalesced_jobs");
            fail(hits == 0.0 && joined == 0.0, format!("cold-mix saw {hits} cache hits and {joined} coalesced jobs"));
        }
        Workload::OverloadHanoi => {
            let actions: f64 = ["jobs_shed", "jobs_rejected", "jobs_expired_in_queue", "jobs_degraded", "codel_drops"]
                .iter()
                .map(|c| w.delta(c))
                .sum();
            fail(actions > 0.0, "overload-hanoi triggered no overload action".into());
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn end_to_end(run: &Checked) -> Vec<Metric> {
    let mut window_goodput = Vec::new();
    let mut window_p50 = Vec::new();
    let mut latencies = Vec::new();
    let (mut sent, mut good, mut done, mut solved, mut fitness) = (0u64, 0u64, 0u64, 0u64, 0.0);
    for w in &run.windows {
        let o = &w.obs;
        sent += o.sent;
        good += o.good;
        done += o.statuses.done;
        solved += o.solved;
        fitness += o.goal_fitness_sum;
        // Goodput counts replies that arrived inside the window, so the
        // drain after it adds nothing.
        let len_ns = w.len_s * 1e9;
        let arrived = o.done.iter().filter(|d| d.good && ((d.sent_ns + d.latency_ns) as f64) < len_ns).count();
        window_goodput.push(arrived as f64 * 1e9 / len_ns);
        let mut own: Vec<u64> = o.done.iter().map(|d| d.latency_ns).collect();
        own.sort_unstable();
        window_p50.push(ms(quantile(&own, 0.5)));
        latencies.extend(own);
    }
    latencies.sort_unstable();
    // Tail latency is reported, not bounded: on a shared two-core machine
    // a stalled stretch moves it far more than any change to the code.
    println!(
        "latency: {} Done replies, p90 {:.6} ms, p99 {:.6} ms; highest percentile with >= 10 samples beyond it: \
         p{:.2}; fail_frac {:.6}; plans_hash {:016x}; goodput per window {:?}",
        latencies.len(),
        ms(quantile(&latencies, 0.9)),
        ms(quantile(&latencies, 0.99)),
        supported_percentile(latencies.len()),
        1.0 - ratio(good as f64, sent as f64),
        run.plans_hash,
        window_goodput
    );
    let mut setups: Vec<f64> = run.windows.iter().map(|w| w.setup_s).collect();
    let mut rss: Vec<f64> = run.windows.iter().map(|w| w.rss_kib as f64 / 1024.0).collect();
    let m = |name: &str, unit: &'static str, value: f64| Metric { name: name.to_string(), unit, value };
    vec![
        m("goodput_per_s", "1/s", median(&mut window_goodput)),
        m("latency_p50_ms", "ms", median(&mut window_p50)),
        m("ok_frac", "frac", ratio(good as f64, sent as f64)),
        m("solved_frac", "frac", ratio(solved as f64, done as f64)),
        m("goal_fitness_mean", "fitness", ratio(fitness, done as f64)),
        m("setup_s", "s", median(&mut setups)),
        m("server_rss_mb", "MiB", median(&mut rss)),
    ]
}

/// Per-layer metrics: counters and process figures from the untraced
/// window `main`, timed layer calls, and the server trace of `traced`.
fn per_layer(gen: &Generator<'_>, main: &Window, traced: &Window) -> Vec<Metric> {
    let m = |name: &str, unit: &'static str, value: f64| Metric { name: name.to_string(), unit, value };
    let o = &main.obs;
    let replies = o.replies as f64;
    let lines: Vec<String> = (0..SAMPLE_LINES).map(|i| gen.request(i).line(i)).collect();

    let mut out = layers::wire(&lines);
    let wire_ns: f64 = out.iter().map(|x| x.value).sum();
    out.push(m("net.reply_bytes", "bytes", ratio(o.reply_bytes as f64, replies)));
    let key_ns = layers::key_ns_over(&lines);
    out.extend(layers::request_layer(gen));
    out.extend(layers::ga_layer(gen));

    let (ground_hits, ground_misses) = (main.delta("ground_cache_hits"), main.delta("ground_cache_misses"));
    let (hits, misses) = (main.delta("cache_hits"), main.delta("cache_misses"));
    out.push(m("ground.hit_frac", "frac", ratio(ground_hits, ground_hits + ground_misses)));
    out.push(m("cache.hit_frac", "frac", ratio(hits, hits + misses)));
    out.push(m("coalesce.join_frac", "frac", ratio(main.delta("coalesced_jobs"), replies)));
    out.push(m("overload.shed_frac", "frac", ratio(o.statuses.shed as f64, replies)));
    out.push(m("overload.rejected_frac", "frac", ratio(o.statuses.rejected as f64, replies)));
    out.push(m("overload.expired_frac", "frac", ratio(o.statuses.expired as f64, replies)));
    out.push(m("overload.degraded_frac", "frac", ratio(o.statuses.degraded as f64, replies)));
    out.push(m("overload.codel_drops", "count", main.delta("codel_drops")));

    let mut lags = o.send_lag_ns.clone();
    lags.sort_unstable();
    out.push(m("server.cpu_ms_per_req", "ms", ratio(main.server_cpu_s * 1e3, replies)));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.push(m("loadgen.cpu_frac", "frac", ratio(main.client_cpu_s, main.obs.elapsed.as_secs_f64() * nproc)));
    out.push(m("loadgen.send_lag_p99_ms", "ms", ms(quantile(&lags, 0.99))));
    // The client's p99, which is too much at the mercy of the machine's
    // stalls to bound end to end.
    let mut latencies: Vec<u64> = o.done.iter().map(|d| d.latency_ns).collect();
    latencies.sort_unstable();
    out.push(m("loadgen.latency_p99_ms", "ms", ms(quantile(&latencies, 0.99))));

    // Queueing and workers, from the traced window.
    let trace = traced.trace.as_ref().expect("the traced window reads its trace");
    let mut waits = trace.queue_wait_ms.clone();
    waits.sort_unstable();
    let exec_ns: u64 = trace.request_ns.iter().sum();
    let wait_ns: u64 = waits.iter().map(|ms| ms * 1_000_000).sum();
    out.push(m("queue.wait_p50_ms", "ms", quantile(&waits, 0.5) as f64));
    out.push(m("queue.wait_p99_ms", "ms", quantile(&waits, 0.99) as f64));
    out.push(m("worker.exec_ms", "ms", ratio(exec_ns as f64, trace.request_ns.len() as f64) / 1e6));
    out.push(m(
        "worker.busy_frac",
        "frac",
        ratio(exec_ns as f64 / 1e9, traced.obs.elapsed.as_secs_f64() * SERVER_WORKERS),
    ));

    // Attribution: the layers' time per reply against the client's mean
    // latency, both from the traced window.
    let t = &traced.obs;
    let e2e_ns = ratio(t.done.iter().map(|d| d.latency_ns as f64).sum(), t.done.len() as f64);
    let layer_ns = wire_ns + key_ns + ratio((exec_ns + wait_ns) as f64, t.replies as f64);
    out.push(m("attrib.unattributed_frac", "frac", 1.0 - ratio(layer_ns, e2e_ns)));
    out.push(m("trace.overhead_frac", "frac", 1.0 - ratio(traced.goodput(), main.goodput())));
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::new();
    write_json_string(&mut out, s);
    out
}

/// Provenance of this result, printed as its own JSON line.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\":{{\"git_sha\":{},\"source_digest\":{},\"nproc\":{nproc},\"command\":{},\
         \"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"why\":{}}}}}",
        json_string(&args.git_sha),
        json_string(&args.source_digest),
        json_string(&args.cmdline),
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_string(args.workload.why()),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("{}:{{\"value\":{value},\"unit\":{}}}", json_string(&m.name), json_string(m.unit))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}
