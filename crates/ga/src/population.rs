//! Population initialization and (optionally parallel) evaluation.

use gaplan_core::{Domain, SuccessorCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::arena::{PopulationArena, NO_PARENT};
use crate::config::{EvalMode, GaConfig};
use crate::decode::{Decoder, PrefixRef};
use crate::genome::Genome;
use crate::individual::Evaluated;

/// Generate the random initial population (paper §3.2): uniform random
/// genes, lengths drawn uniformly from the spread interval around
/// `cfg.initial_len` (see `GaConfig::initial_len_spread` for why a spread
/// is essential).
pub fn init_population<R: Rng + ?Sized>(rng: &mut R, cfg: &GaConfig) -> Vec<Genome> {
    let nominal = cfg.initial_len as f64;
    let lo = ((nominal * (1.0 - cfg.initial_len_spread)).floor() as usize).max(1);
    let hi = ((nominal * (1.0 + cfg.initial_len_spread)).ceil() as usize).min(cfg.max_len).max(lo);
    (0..cfg.population_size)
        .map(|_| {
            let len = rng.gen_range(lo..=hi);
            Genome::random(rng, len)
        })
        .collect()
}

/// Evaluate an arena-backed generation, producing [`Evaluated`] individuals
/// in arena order. Each individual's genes live in the shared flat buffer,
/// and its provenance is resolved to a *borrowed* [`PrefixRef`] against
/// `parents` (the previous, already-evaluated generation) — no
/// per-individual hint allocation. All workers probe one shared
/// [`SuccessorCache`].
///
/// Evaluation is a pure function of each individual's genes: the parallel
/// path (rayon, one [`Decoder`] per worker via `map_init`), the cache and the
/// prefix hints change wall-clock, never results — every `Evaluated` is
/// bitwise-identical to a hintless, uncached serial decode of its genes.
pub fn evaluate_arena<D: Domain>(
    domain: &D,
    start: &D::State,
    arena: &PopulationArena,
    parents: &[Evaluated<D::State>],
    cfg: &GaConfig,
    cache: Option<&SuccessorCache<D::State>>,
) -> Vec<Evaluated<D::State>> {
    let eval_one = |dec: &mut Decoder, i: usize| {
        let genes = arena.genes(i);
        let prov = arena.prov(i);
        let hint = if prov.parent == NO_PARENT {
            None
        } else {
            let donor = &parents[prov.parent as usize];
            Some(PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, prov.prefix as usize))
        };
        let (decoded, fitness) = dec.evaluate_ref(domain, start, genes, cfg, cache, hint);
        Evaluated::new(Genome::from_genes(genes.to_vec()), decoded, fitness)
    };
    if cfg.eval == EvalMode::Parallel {
        (0..arena.len()).into_par_iter().map_init(Decoder::new, |dec, i| eval_one(dec, i)).collect()
    } else {
        let mut dec = Decoder::new();
        (0..arena.len()).map(|i| eval_one(&mut dec, i)).collect()
    }
}

/// Deterministic RNG for a phase, derived from the config seed and phase
/// index.
pub fn phase_rng(cfg: &GaConfig, phase: u32) -> StdRng {
    StdRng::seed_from_u64(crate::rng::derive_seed(cfg.seed, u64::from(phase)))
}

/// Deterministic RNG for one island of a phase. With a single island this is
/// exactly [`phase_rng`] — the island-model run is byte-identical to the
/// historical single-population path. With `K > 1` islands, each island gets
/// an independent stream split off the phase seed (`derive_seed(phase_seed,
/// island + 1)`; the `+ 1` keeps island 0 distinct from the phase stream
/// itself, so no island aliases the K=1 run).
pub fn island_rng(cfg: &GaConfig, phase: u32, island: u32) -> StdRng {
    if cfg.islands <= 1 {
        phase_rng(cfg, phase)
    } else {
        let phase_seed = crate::rng::derive_seed(cfg.seed, u64::from(phase));
        StdRng::seed_from_u64(crate::rng::derive_seed(phase_seed, u64::from(island) + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaplan_core::strips::{StripsBuilder, StripsProblem};

    fn small_cfg() -> GaConfig {
        GaConfig { population_size: 30, initial_len: 8, max_len: 16, seed: 99, ..GaConfig::default() }
    }

    #[test]
    fn init_population_lengths_follow_spread() {
        let cfg = small_cfg(); // initial_len 8, spread 0.5 -> lengths in [4, 12]
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);
        assert_eq!(pop.len(), 30);
        assert!(pop.iter().all(|g| (4..=12).contains(&g.len())), "lengths out of range");
        // both parities must be present (the tile-puzzle parity trap)
        assert!(pop.iter().any(|g| g.len() % 2 == 0));
        assert!(pop.iter().any(|g| g.len() % 2 == 1));
        // not all identical
        assert!(pop.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn zero_spread_gives_fixed_lengths() {
        let mut cfg = small_cfg();
        cfg.initial_len_spread = 0.0;
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);
        assert!(pop.iter().all(|g| g.len() == 8));
    }

    #[test]
    fn spread_respects_max_len() {
        let mut cfg = small_cfg();
        cfg.initial_len = 16;
        cfg.max_len = 16; // upper end of the spread would be 24
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);
        assert!(pop.iter().all(|g| g.len() <= 16));
    }

    /// A line of positions `0..=n` with left and right moves (two valid ops
    /// at every interior position); the goal is the right end.
    fn line(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("at{i}")).unwrap();
        }
        for i in 0..n {
            let (here, next) = (format!("at{i}"), format!("at{}", i + 1));
            b.op(&format!("right{i}"), &[&here], &[&next], &[&here], 1.0).unwrap();
            b.op(&format!("left{}", i + 1), &[&next], &[&here], &[&next], 1.0).unwrap();
        }
        b.init(&["at0"]).unwrap();
        b.goal(&[&format!("at{n}")]).unwrap();
        b.build().unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// One batch mixing fresh, prefix-replaying and whole-donor individuals,
    /// evaluated serial and parallel, with and without a shared cache: every
    /// result, in order, equals a hintless, uncached decode of its genes.
    #[test]
    fn arena_evaluation_matches_scratch_decode_in_every_mode() {
        use crate::arena::Provenance;
        let d = line(6);
        let start = d.initial_state();
        let mut cfg = small_cfg();
        let mut rng = phase_rng(&cfg, 0);
        let mut first = PopulationArena::new();
        for g in init_population(&mut rng, &cfg) {
            first.push(g.genes(), Provenance::NONE);
        }
        let parents = evaluate_arena(&d, &start, &first, &[], &cfg, None);

        let mut arena = PopulationArena::new();
        let mut replayed = 0;
        for i in 0..cfg.population_size {
            let p = rng.gen_range(0..parents.len());
            let donor = parents[p].genome.genes();
            match i % 3 {
                0 => arena.push(Genome::random(&mut rng, 10).genes(), Provenance::NONE),
                1 => {
                    let k = rng.gen_range(0..=donor.len());
                    replayed += k.min(parents[p].decoded_len);
                    let tail = Genome::random(&mut rng, 6);
                    arena.push_splice(donor, k, tail.genes(), 0, cfg.max_len, Provenance::prefix(p, k));
                }
                _ => {
                    replayed += parents[p].decoded_len;
                    arena.push(donor, Provenance::full(p));
                }
            }
        }
        assert!(replayed > 0, "the batch must replay some donor prefix");
        let reference: Vec<_> = (0..arena.len())
            .map(|i| Decoder::new().evaluate_ref(&d, &start, arena.genes(i), &cfg, None, None))
            .collect();

        for eval in [EvalMode::Serial, EvalMode::Parallel] {
            for cached in [false, true] {
                cfg.eval = eval;
                let cache = SuccessorCache::new(1024);
                let got = evaluate_arena(&d, &start, &arena, &parents, &cfg, cached.then_some(&cache));
                assert_eq!(got.len(), arena.len());
                for (i, (e, (dec, fit))) in got.iter().zip(&reference).enumerate() {
                    let what = format!("{eval:?}, cache {cached}, individual {i}");
                    assert_eq!(e.genome.genes(), arena.genes(i), "{what}: genes");
                    assert_eq!(e.ops, dec.ops, "{what}: ops");
                    assert_eq!(e.match_keys, dec.match_keys, "{what}: match keys");
                    assert_eq!(bits(&e.step_goals), bits(&dec.step_goals), "{what}: step goals");
                    assert_eq!(e.final_state, dec.final_state, "{what}: final state");
                    assert_eq!(e.decoded_len, dec.decoded_len, "{what}: decoded len");
                    assert_eq!(e.best_prefix_at, dec.best_prefix_at, "{what}: best prefix");
                    assert_eq!(e.best_prefix_state, dec.best_prefix_state, "{what}: best prefix state");
                    assert_eq!(
                        bits(&[e.fitness.match_, e.fitness.goal, e.fitness.cost, e.fitness.total]),
                        bits(&[fit.match_, fit.goal, fit.cost, fit.total]),
                        "{what}: fitness"
                    );
                }
                if cached {
                    assert!(cache.stats().hits > 0, "{eval:?}: individuals share states; the cache must hit");
                }
            }
        }
    }

    #[test]
    fn phase_rng_streams_are_independent() {
        let cfg = small_cfg();
        let a: Vec<u64> = {
            let mut r = phase_rng(&cfg, 0);
            (0..4).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = phase_rng(&cfg, 1);
            (0..4).map(|_| r.gen()).collect()
        };
        assert_ne!(a, b);
        let a2: Vec<u64> = {
            let mut r = phase_rng(&cfg, 0);
            (0..4).map(|_| r.gen()).collect()
        };
        assert_eq!(a, a2);
    }
}
