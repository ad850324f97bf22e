//! Island-model GA benchmark: two experiments in one snapshot.
//!
//! **Quality** — tile-4x4 at a fixed evaluation budget (same population ×
//! generations, so wall-clock parity follows): a K=4 island run with ring
//! migration vs the single-population run it replaces. Both runs are fully
//! deterministic, so the comparison is stable across machines and CI.
//!
//! **Decode path** — the `bench_decode` workload (Hanoi-7, 200 genomes of
//! 127 genes, 40 passes, one fresh point mutation per child per pass,
//! shared successor cache), once through a per-candidate loop (each child a
//! cloned `Genome` decoded by `Decoder::evaluate_ref` with no prefix hint —
//! the loop whose wall time is recorded as `cache_on_ms` in
//! `BENCH_decode.json`) and once through the arena path: children written
//! into a [`PopulationArena`] with [`Provenance`] naming the unchanged
//! prefix, decoded by `evaluate_ref` with a borrowed [`PrefixRef`]
//! replaying the donor's memoized outputs.
//! Both loops draw identical mutations, evaluate a pre-decoded parent set's
//! children, and discard results, so the wall-clock delta isolates the
//! decode/eval path itself. Fitness checksums are asserted
//! bitwise-identical; only wall-clock differs.
//!
//! Writes a JSON snapshot (default `BENCH_islands.json`, or the path given
//! as the first argument). Exits non-zero if the island run's goal fitness
//! falls below the single-population run's, if the arena decode path is
//! not at least `GAPLAN_BENCH_MIN_SPEEDUP` (default 1.0 — reporting mode)
//! times faster than the same-run per-candidate path, or if it is not at
//! least 1.3x faster than the committed `BENCH_decode.json` reference (the
//! roadmap's acceptance bar).

use std::sync::Arc;
use std::time::Instant;

use gaplan_core::{Domain, SuccessorCache};
use gaplan_domains::{Hanoi, SlidingTile};
use gaplan_ga::arena::{PopulationArena, Provenance};
use gaplan_ga::{Decoder, EvalMode, Evaluated, GaConfig, Genome, MultiPhase, PrefixRef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const POP: usize = 200;
const GENERATIONS: usize = 40;
const SEED: u64 = 2003;
/// `cache_on_ms` in the committed `BENCH_decode.json`, kept for reference in
/// the snapshot so the decode speedup can be read against the number that
/// motivated the arena refactor.
const REFERENCE_DECODE_MS: f64 = 34.550548;

const TILE_SEED: u64 = 2003;
const TILE_POP: usize = 240;
const TILE_GENS: u32 = 60;
const TILE_PHASES: u32 = 4;

#[derive(Serialize)]
struct Snapshot {
    bench: &'static str,
    quality_domain: &'static str,
    population: usize,
    islands: u32,
    generations_per_phase: u32,
    max_phases: u32,
    single_goal_fitness: f64,
    single_solved: bool,
    single_wall_ms: f64,
    island_goal_fitness: f64,
    island_solved: bool,
    island_wall_ms: f64,
    decode_domain: &'static str,
    decode_generations: usize,
    decode_candidate_ms: f64,
    decode_arena_ms: f64,
    decode_speedup: f64,
    decode_reference_ms: f64,
    decode_vs_reference: f64,
}

fn population(rng: &mut StdRng, len: usize) -> Vec<Genome> {
    (0..POP).map(|_| Genome::random(rng, len)).collect()
}

/// Decode and retain the parent generation the timed loops breed from
/// (untimed setup).
fn setup_parents(
    hanoi: &Hanoi,
    cache: &SuccessorCache<Vec<u8>>,
    cfg: &GaConfig,
    len: usize,
) -> Vec<Evaluated<Vec<u8>>> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let start = hanoi.initial_state();
    let mut dec = Decoder::new();
    population(&mut rng, len)
        .into_iter()
        .map(|g| {
            let (decoded, fitness) = dec.evaluate_ref(hanoi, &start, g.genes(), cfg, Some(cache), None);
            Evaluated::new(g, decoded, fitness)
        })
        .collect()
}

/// The `bench_decode` decode loop: every pass clones each parent, applies
/// one point mutation, and decodes the child from scratch (shared cache, no
/// prefix hints). Returns a fitness checksum and elapsed ms.
fn run_candidate(
    hanoi: &Hanoi,
    cache: &SuccessorCache<Vec<u8>>,
    cfg: &GaConfig,
    parents: &[Evaluated<Vec<u8>>],
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x00c0_ffee);
    let start = hanoi.initial_state();
    let mut dec = Decoder::new();
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..GENERATIONS {
        for p in parents {
            let mut child = p.genome.clone();
            let at = rng.gen_range(0..child.len());
            child.genes_mut()[at] = rng.gen_range(0.0..1.0);
            let (_, fitness) = dec.evaluate_ref(hanoi, &start, child.genes(), cfg, Some(cache), None);
            checksum += fitness.total;
        }
    }
    (checksum, t0.elapsed().as_secs_f64() * 1e3)
}

/// The same children through the arena decode path: every pass writes each
/// mutated child into the flat [`PopulationArena`] with a [`Provenance`]
/// naming its unchanged prefix, then decodes it with a borrowed
/// [`PrefixRef`] that replays the donor's memoized ops/keys/goals. RNG draw
/// order matches [`run_candidate`] exactly, so the checksums must agree
/// bitwise.
fn run_arena(
    hanoi: &Hanoi,
    cache: &SuccessorCache<Vec<u8>>,
    cfg: &GaConfig,
    parents: &[Evaluated<Vec<u8>>],
) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x00c0_ffee);
    let start = hanoi.initial_state();
    let len = parents[0].genome.len();
    let mut arena = PopulationArena::with_capacity(POP, POP * len);
    let mut dec = Decoder::new();
    let mut checksum = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..GENERATIONS {
        arena.clear();
        for (i, p) in parents.iter().enumerate() {
            let at = rng.gen_range(0..p.genome.len());
            arena.push(p.genome.genes(), Provenance::prefix(i, at));
            arena.genes_mut(i)[at] = rng.gen_range(0.0..1.0);
        }
        for i in 0..arena.len() {
            let prov = arena.prov(i);
            let donor = &parents[prov.parent as usize];
            let hint = PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, prov.prefix as usize);
            let (decoded, fitness) = dec.evaluate_ref(hanoi, &start, arena.genes(i), cfg, Some(cache), Some(hint));
            checksum += fitness.total;
            dec.recycle(decoded);
        }
    }
    (checksum, t0.elapsed().as_secs_f64() * 1e3)
}

/// Run the tile-4x4 GA once with the given island count; everything else
/// (seed, population, budget) is held fixed.
fn run_tile(puzzle: &SlidingTile, islands: u32) -> (f64, bool, f64) {
    let cfg = GaConfig {
        population_size: TILE_POP,
        generations_per_phase: TILE_GENS,
        max_phases: TILE_PHASES,
        initial_len: 64,
        max_len: 128,
        seed: TILE_SEED,
        islands,
        migration_interval: 5,
        emigrants: 2,
        ..GaConfig::default()
    };
    cfg.validate().expect("bench config is valid");
    let t0 = Instant::now();
    let r = MultiPhase::new(puzzle, cfg).run();
    (r.goal_fitness, r.solved, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_islands.json".to_string());
    let min_speedup: f64 = std::env::var("GAPLAN_BENCH_MIN_SPEEDUP").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);

    // -- quality: tile-4x4, fixed budget, K=4 vs K=1 --
    let mut tile_rng = StdRng::seed_from_u64(TILE_SEED);
    let puzzle = SlidingTile::random_solvable(4, &mut tile_rng);
    let (single_goal, single_solved, single_ms) = run_tile(&puzzle, 1);
    let (island_goal, island_solved, island_ms) = run_tile(&puzzle, 4);

    // -- decode path: candidate loop vs arena loop, fastest of 5 each --
    let hanoi = Hanoi::new(7);
    let len = hanoi.optimal_len(); // 127 genes, as in bench_decode
    let cfg = GaConfig { eval: EvalMode::Serial, ..GaConfig::default() };

    let warm = SuccessorCache::new(1 << 16);
    let warm_parents = setup_parents(&hanoi, &warm, &cfg, len);
    run_candidate(&hanoi, &warm, &cfg, &warm_parents);
    run_arena(&hanoi, &warm, &cfg, &warm_parents);

    const REPS: usize = 9;
    let cache = Arc::new(SuccessorCache::new(1 << 16));
    let parents = setup_parents(&hanoi, &cache, &cfg, len);
    let mut candidate_ms = f64::INFINITY;
    let mut arena_ms = f64::INFINITY;
    for _ in 0..REPS {
        let (sum_c, c) = run_candidate(&hanoi, &cache, &cfg, &parents);
        let (sum_a, a) = run_arena(&hanoi, &cache, &cfg, &parents);
        assert_eq!(sum_c.to_bits(), sum_a.to_bits(), "arena path changed evaluation results");
        candidate_ms = candidate_ms.min(c);
        arena_ms = arena_ms.min(a);
    }

    let snap = Snapshot {
        bench: "islands",
        quality_domain: "tile-4x4",
        population: TILE_POP,
        islands: 4,
        generations_per_phase: TILE_GENS,
        max_phases: TILE_PHASES,
        single_goal_fitness: single_goal,
        single_solved,
        single_wall_ms: single_ms,
        island_goal_fitness: island_goal,
        island_solved,
        island_wall_ms: island_ms,
        decode_domain: "hanoi-7",
        decode_generations: GENERATIONS,
        decode_candidate_ms: candidate_ms,
        decode_arena_ms: arena_ms,
        decode_speedup: candidate_ms / arena_ms,
        decode_reference_ms: REFERENCE_DECODE_MS,
        decode_vs_reference: REFERENCE_DECODE_MS / arena_ms,
    };
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");

    let mut failed = false;
    if island_goal < single_goal {
        eprintln!("FAIL: island goal fitness {island_goal:.6} below single-population {single_goal:.6}");
        failed = true;
    }
    if snap.decode_speedup < min_speedup {
        eprintln!("FAIL: arena decode speedup {:.2}x below the {min_speedup:.2}x floor", snap.decode_speedup);
        failed = true;
    }
    // The acceptance bar from the roadmap: the arena decode/eval path must
    // beat the committed BENCH_decode.json cache-on number by ≥1.3x.
    if snap.decode_vs_reference < 1.3 {
        eprintln!(
            "FAIL: arena decode {:.3} ms is only {:.2}x faster than the committed {:.3} ms reference (need 1.30x)",
            arena_ms, snap.decode_vs_reference, REFERENCE_DECODE_MS
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "quality: K=4 {:.4} vs K=1 {:.4} (solved {island_solved} vs {single_solved}); \
         decode: arena {:.2}x faster same-run (floor {min_speedup:.2}x), {:.2}x vs committed reference",
        island_goal, single_goal, snap.decode_speedup, snap.decode_vs_reference
    );
}
