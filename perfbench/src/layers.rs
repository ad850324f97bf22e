//! Per-layer measurements: timed calls into each layer's public functions
//! from this benchmark's own code, and a reader for the server's `--trace`
//! JSONL.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gaplan_core::{Budget, Domain, DynState, SuccessorCache};
use gaplan_ga::Decoder;
use gaplan_net::{write_frame, FrameReader, DEFAULT_MAX_FRAME};
use gaplan_obs::{self as obs, Event, FieldValue, Subscriber};
use gaplan_service::{parse_command, PlanRequest, ProblemSpec};
use serde::json::parse;

use crate::check::{build, plan_request};
use crate::stats::ratio;
use crate::workload::{mix, Generator, Kind};

/// Minimum time spent repeating one micro-measurement.
const MIN_TIME: Duration = Duration::from_millis(25);
/// Requests per kind for the request-layer and GA measurements.
const PER_KIND: u64 = 4;
/// Index range of the reference requests, far above any index a timed
/// window reaches, so they never collide with served keys.
const REFERENCE_BASE: u64 = 1 << 40;

/// One named per-layer value.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// Mean nanoseconds per call of `f` over `n` calls, repeated until at
/// least [`MIN_TIME`] has passed.
fn time_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazily built state
    let started = Instant::now();
    let mut reps = 0u64;
    while started.elapsed() < MIN_TIME || reps == 0 {
        f();
        reps += 1;
    }
    started.elapsed().as_nanos() as f64 / (reps as f64 * n.max(1) as f64)
}

/// Codec and protocol cost over the workload's own request lines.
pub fn wire(lines: &[String]) -> Vec<Metric> {
    let mut buf = Vec::new();
    for line in lines {
        write_frame(&mut buf, line).expect("writing to a Vec cannot fail");
    }
    let decode_ns = time_per_call(lines.len(), || {
        let mut reader = FrameReader::new(&buf[..], DEFAULT_MAX_FRAME);
        while let Some(frame) = reader.read_frame().expect("reading a slice cannot fail") {
            black_box(frame);
        }
    });
    let mut out = Vec::with_capacity(buf.len());
    let encode_ns = time_per_call(lines.len(), || {
        out.clear();
        for line in lines {
            write_frame(&mut out, black_box(line)).expect("writing to a Vec cannot fail");
        }
    });
    let parse_ns = time_per_call(lines.len(), || {
        for line in lines {
            black_box(parse_command(black_box(line)).is_ok());
        }
    });
    vec![
        metric("net.frame_decode_ns", "ns", decode_ns),
        metric("net.frame_encode_ns", "ns", encode_ns),
        metric("proto.parse_ns", "ns", parse_ns),
    ]
}

/// Mean nanoseconds of one `PlanRequest::coalesce_key` over `lines`, each
/// called once as the session thread does (a generated DSL problem pays
/// its compile here).
pub fn key_ns_over(lines: &[String]) -> f64 {
    let requests: Vec<PlanRequest> = lines
        .iter()
        .filter_map(|l| match parse_command(l) {
            Ok(gaplan_service::Command::Plan(r)) => Some(*r),
            _ => None,
        })
        .collect();
    let started = Instant::now();
    for r in &requests {
        black_box(r.coalesce_key());
    }
    ratio(started.elapsed().as_nanos() as f64, requests.len() as f64)
}

fn reference_requests(gen: &Generator<'_>, kind: Kind, offset: u64) -> Vec<PlanRequest> {
    (0..PER_KIND)
        .map(|j| {
            // Steps of 5 walk the shipped DSL pairs like cold-mix does.
            let req = gen.cold(kind, REFERENCE_BASE + offset + 5 * j);
            plan_request(&req).expect("generated requests parse")
        })
        .collect()
}

/// Cost of building a request's problem and its coalescing key, per kind.
/// Generated DSL problems are timed on first sight (a grounding-memo miss,
/// as in the server); every other kind is timed warm.
pub fn request_layer(gen: &Generator<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    for kind in Kind::ALL {
        let (key_ns, build_ns) = if kind == Kind::DslGen {
            let fresh_key = reference_requests(gen, kind, 1000);
            let fresh_build = reference_requests(gen, kind, 2000);
            let once = |reqs: &[PlanRequest], f: &dyn Fn(&PlanRequest)| {
                let started = Instant::now();
                reqs.iter().for_each(f);
                started.elapsed().as_nanos() as f64 / reqs.len() as f64
            };
            (
                once(&fresh_key, &|r| {
                    black_box(r.coalesce_key());
                }),
                once(&fresh_build, &|r| {
                    black_box(r.problem.build().is_ok());
                }),
            )
        } else {
            let reqs = reference_requests(gen, kind, 0);
            (
                time_per_call(reqs.len(), || {
                    for r in &reqs {
                        black_box(r.coalesce_key());
                    }
                }),
                time_per_call(reqs.len(), || {
                    for r in &reqs {
                        black_box(r.problem.build().is_ok());
                    }
                }),
            )
        };
        out.push(metric(format!("request.key_ns.{}", kind.name()), "ns", key_ns));
        out.push(metric(format!("request.build_ns.{}", kind.name()), "ns", build_ns));
    }
    // The DSL compiler alone, over the shipped and generated sources.
    let sources: Vec<(String, String)> = [Kind::Dsl, Kind::DslGen]
        .into_iter()
        .flat_map(|kind| reference_requests(gen, kind, 3000))
        .filter_map(|r| match r.problem {
            ProblemSpec::Dsl { domain, problem } => Some((domain, problem)),
            _ => None,
        })
        .collect();
    let compile_ns = time_per_call(sources.len(), || {
        for (domain, problem) in &sources {
            black_box(gaplan_lang::compile(domain, problem).is_ok());
        }
    });
    out.push(metric("lang.compile_us", "us", compile_ns / 1e3));
    out
}

/// Sums `ga.gen` evaluation time and `ga.phase` span time on this thread.
#[derive(Default)]
struct GaTally {
    eval_ns: AtomicU64,
    phase_ns: AtomicU64,
    gens: AtomicU64,
}

impl Subscriber for GaTally {
    fn on_event(&self, event: &Event) {
        if event.name() != "ga.gen" {
            return;
        }
        self.gens.fetch_add(1, Ordering::Relaxed);
        for (name, value) in event.fields() {
            if let (&"eval_wall_ns", FieldValue::U64(ns)) = (name, value) {
                self.eval_ns.fetch_add(*ns, Ordering::Relaxed);
            }
        }
    }

    fn on_span_exit(&self, name: &'static str, wall_ns: u64) {
        if name == "ga.phase" {
            self.phase_ns.fetch_add(wall_ns, Ordering::Relaxed);
        }
    }
}

/// GA cost per kind through `BuiltProblem::solve_with`, with successor
/// caches pooled per problem as the service pools them; then one traced
/// solve per kind splits a generation into evaluation and breeding; then
/// `Decoder::evaluate_ref` over a seeded parent set gives decode cost.
pub fn ga_layer(gen: &Generator<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    let tally = Arc::new(GaTally::default());
    let mut indivs = 0u64;
    for kind in Kind::ALL {
        let mut pool: HashMap<u64, Arc<SuccessorCache<DynState>>> = HashMap::new();
        let (mut solve_ns, mut gens, mut hits, mut misses, mut evictions) = (0u128, 0u64, 0u64, 0u64, 0u64);
        let reqs = reference_requests(gen, kind, 4000);
        for r in &reqs {
            let (built, cfg) = build(r).expect("reference problems build");
            let succ = Arc::clone(
                pool.entry(built.signature()).or_insert_with(|| Arc::new(SuccessorCache::new(cfg.succ_cache_capacity))),
            );
            let before = succ.stats();
            let started = Instant::now();
            let outcome = built.solve_with(&cfg, Budget::unlimited(), Some(Arc::clone(&succ)));
            solve_ns += started.elapsed().as_nanos();
            gens += u64::from(outcome.total_generations);
            let delta = succ.stats().since(&before);
            hits += delta.hits;
            misses += delta.misses;
            evictions += delta.evictions;
        }
        let n = reqs.len() as f64;
        out.push(metric(format!("ga.solve_ms.{}", kind.name()), "ms", solve_ns as f64 / n / 1e6));
        out.push(metric(format!("ga.gens.{}", kind.name()), "gens", gens as f64 / n));
        out.push(metric(format!("succ.hit_frac.{}", kind.name()), "frac", ratio(hits as f64, (hits + misses) as f64)));
        out.push(metric(format!("succ.evictions.{}", kind.name()), "count", evictions as f64 / n));

        let (built, cfg) = build(&reqs[0]).expect("reference problems build");
        let gens_before = tally.gens.load(Ordering::Relaxed);
        {
            let _trace = obs::install(tally.clone());
            built.solve(&cfg, Budget::unlimited());
        }
        indivs += (tally.gens.load(Ordering::Relaxed) - gens_before) * cfg.population_size as u64;

        out.push(metric(format!("decode.ns_per_gene.{}", kind.name()), "ns", decode_ns_per_gene(&built, &cfg)));
    }
    let eval = tally.eval_ns.load(Ordering::Relaxed) as f64;
    let phase = tally.phase_ns.load(Ordering::Relaxed) as f64;
    out.push(metric("ga.eval_frac", "frac", ratio(eval, phase)));
    out.push(metric("ga.eval_ns_per_indiv", "ns", ratio(eval, indivs as f64)));
    out.push(metric("ga.breed_ns_per_indiv", "ns", ratio(phase - eval, indivs as f64)));
    out
}

/// Nanoseconds per gene of `Decoder::evaluate_ref` over 48 seeded random
/// genomes of the configuration's initial length, through a warm
/// successor cache.
fn decode_ns_per_gene(built: &gaplan_service::BuiltProblem, cfg: &gaplan_ga::GaConfig) -> f64 {
    let domain = built.as_dyn().expect("reference problems plan");
    let start = domain.initial_state();
    let mut state = mix(cfg.seed);
    let genomes: Vec<Vec<f64>> = (0..48)
        .map(|_| {
            (0..cfg.initial_len)
                .map(|_| {
                    state = mix(state);
                    (state >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect()
        })
        .collect();
    let cache = SuccessorCache::new(cfg.succ_cache_capacity);
    let mut decoder = Decoder::new();
    let genes: usize = genomes.iter().map(Vec::len).sum();
    time_per_call(genes, || {
        for g in &genomes {
            let (decoded, fitness) = decoder.evaluate_ref(&domain, &start, g, cfg, Some(&cache), None);
            black_box(fitness);
            decoder.recycle(decoded);
        }
    })
}

/// What the server's `--trace` JSONL says about queueing and workers.
#[derive(Debug, Default)]
pub struct ServerTrace {
    /// `svc.dequeue` queue waits, milliseconds (the trace's resolution).
    pub queue_wait_ms: Vec<u64>,
    /// `svc.request` span durations, nanoseconds.
    pub request_ns: Vec<u64>,
}

pub fn read_trace(path: &Path) -> io::Result<ServerTrace> {
    let mut trace = ServerTrace::default();
    for line in BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        let field = |name: &str| {
            parse(&line).ok().and_then(|v| v.get(name).and_then(crate::drive::as_f64)).unwrap_or(0.0) as u64
        };
        if line.starts_with("{\"ev\":\"svc.dequeue\"") {
            trace.queue_wait_ms.push(field("queue_wait_wall_ms"));
        } else if line.starts_with("{\"ev\":\"span_exit\",\"span\":\"svc.request\"") {
            trace.request_ns.push(field("wall_ns"));
        }
    }
    Ok(trace)
}
