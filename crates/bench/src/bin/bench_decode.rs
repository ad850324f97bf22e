//! Decode/eval throughput benchmark for the shared evaluation layer.
//!
//! Simulates the evaluation phases of a multi-phase GA run on Hanoi-7: a
//! population of genomes is evaluated for a number of generations, lightly
//! mutated between generations exactly like the engine would, once with the
//! shared [`SuccessorCache`] and once without. Both variants produce
//! bitwise-identical fitness totals (asserted); only wall-clock differs.
//!
//! Writes a JSON snapshot (default `BENCH_decode.json`, or the path given
//! as the first argument) and exits non-zero if the cache-on variant is not
//! at least the `GAPLAN_BENCH_MIN_SPEEDUP` (default 1.0 — reporting mode)
//! times faster, so CI can enforce a floor.

use std::sync::Arc;
use std::time::Instant;

use gaplan_core::{Domain, SuccessorCache};
use gaplan_domains::Hanoi;
use gaplan_ga::{Decoder, GaConfig, Genome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const POP: usize = 200;
const GENERATIONS: usize = 40;
const SEED: u64 = 2003;

#[derive(Serialize)]
struct Snapshot {
    bench: &'static str,
    domain: &'static str,
    population: usize,
    generations: usize,
    genome_len: usize,
    cache_off_ms: f64,
    cache_on_ms: f64,
    speedup: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_hit_rate: f64,
}

fn population(rng: &mut StdRng, len: usize) -> Vec<Genome> {
    (0..POP).map(|_| Genome::random(rng, len)).collect()
}

/// One evaluation "run": `GENERATIONS` passes over the population with one
/// point mutation per genome between passes (deterministic), mirroring how
/// states recur across generations in the real engine. Returns a fitness
/// checksum (order-sensitive) and the elapsed wall time.
fn run(hanoi: &Hanoi, cache: Option<&SuccessorCache<Vec<u8>>>, cfg: &GaConfig, len: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut pop = population(&mut rng, len);
    let start = hanoi.initial_state();
    let mut dec = Decoder::new();
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..GENERATIONS {
        for genome in &pop {
            let (_, fitness) = dec.evaluate_ref(hanoi, &start, genome.genes(), cfg, cache, None);
            checksum += fitness.total;
        }
        for genome in &mut pop {
            let at = rng.gen_range(0..genome.len());
            genome.genes_mut()[at] = rng.gen_range(0.0..1.0);
        }
    }
    (checksum, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_decode.json".to_string());
    let min_speedup: f64 = std::env::var("GAPLAN_BENCH_MIN_SPEEDUP").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);

    let hanoi = Hanoi::new(7);
    let len = hanoi.optimal_len(); // 127 genes: a realistic multiphase genome
    let cfg = GaConfig::default();

    // Warm-up both paths (page in code, fill allocator pools).
    let warm_cache = SuccessorCache::new(1 << 16);
    run(&hanoi, None, &cfg, len);
    run(&hanoi, Some(&warm_cache), &cfg, len);

    // Interleave repetitions and keep the fastest of each variant: minimum
    // wall time is the standard noise-robust estimator for shared machines.
    const REPS: usize = 5;
    let cache = Arc::new(SuccessorCache::new(1 << 16));
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    for _ in 0..REPS {
        let (sum_off, off) = run(&hanoi, None, &cfg, len);
        let (sum_on, on) = run(&hanoi, Some(&cache), &cfg, len);
        assert_eq!(sum_off.to_bits(), sum_on.to_bits(), "cache changed evaluation results");
        off_ms = off_ms.min(off);
        on_ms = on_ms.min(on);
    }

    let stats = cache.stats();
    let snap = Snapshot {
        bench: "decode_eval_multiphase",
        domain: "hanoi-7",
        population: POP,
        generations: GENERATIONS,
        genome_len: len,
        cache_off_ms: off_ms,
        cache_on_ms: on_ms,
        speedup: off_ms / on_ms,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        cache_hit_rate: stats.hit_rate(),
    };
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");

    if snap.speedup < min_speedup {
        eprintln!("FAIL: speedup {:.2}x below the {min_speedup:.2}x floor", snap.speedup);
        std::process::exit(1);
    }
    println!("speedup {:.2}x (floor {min_speedup:.2}x), hit rate {:.1}%", snap.speedup, snap.cache_hit_rate * 100.0);
}
