//! The three crossover mechanisms (paper §3.4.2): random, state-aware and
//! mixed, plus a two-point extension.
//!
//! State-aware crossover is the paper's novel operator. Because the encoding
//! is indirect, the genes to the right of a random cut decode against a
//! *different* state after the swap and may therefore mean a completely
//! different operation sequence. State-aware crossover restricts the second
//! parent's cut to a locus whose decode state matches the first cut's state,
//! so the exchanged suffixes keep their meaning — "attempts to preserve
//! partial solutions that have been evolved in the search".

use rand::Rng;

use crate::arena::{PopulationArena, Provenance};
use crate::config::CrossoverKind;
use crate::individual::Evaluated;

/// All RNG decisions of one crossover attempt. Children are built from a
/// plan by [`CrossoverPlan::materialize_into`], directly in a
/// [`PopulationArena`]; building them draws nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossoverPlan {
    /// Single-cut splice: child1 = `a[..c1] ++ b[c2..]`, child2 =
    /// `b[..c2] ++ a[c1..]`. `fallback` marks mixed crossover's random-cut
    /// fallback (no matching state was found).
    Splice {
        /// Cut on parent `a`.
        c1: usize,
        /// Cut on parent `b`.
        c2: usize,
        /// True when mixed crossover fell back to a random second cut.
        fallback: bool,
    },
    /// Two-point swap of `a[a1..a2]` with `b[b1..b2]`.
    TwoPoint {
        /// First cut on parent `a`.
        a1: usize,
        /// Second cut on parent `a`.
        a2: usize,
        /// First cut on parent `b`.
        b1: usize,
        /// Second cut on parent `b`.
        b2: usize,
    },
    /// No matching cut point existed (state-aware only); parents pass
    /// through unchanged.
    Unchanged,
}

impl CrossoverPlan {
    /// Append this plan's two children (or the unchanged parents) to
    /// `arena`, recording prefix-reuse provenance against parent indices
    /// `pa` / `pb` in the evaluated parent generation.
    pub fn materialize_into<S>(
        &self,
        arena: &mut PopulationArena,
        a: &Evaluated<S>,
        pa: usize,
        b: &Evaluated<S>,
        pb: usize,
        max_len: usize,
    ) {
        let (ga, gb) = (a.genome.genes(), b.genome.genes());
        match *self {
            CrossoverPlan::Splice { c1, c2, .. } => {
                arena.push_splice(ga, c1, gb, c2, max_len, Provenance::prefix(pa, c1));
                arena.push_splice(gb, c2, ga, c1, max_len, Provenance::prefix(pb, c2));
            }
            // Only the flanks before the first cut of each parent survive
            // unchanged in the corresponding child.
            CrossoverPlan::TwoPoint { a1, a2, b1, b2 } => {
                arena.push_concat3(&ga[..a1], &gb[b1..b2], &ga[a2..], max_len, Provenance::prefix(pa, a1));
                arena.push_concat3(&gb[..b1], &ga[a1..a2], &gb[b2..], max_len, Provenance::prefix(pb, b1));
            }
            CrossoverPlan::Unchanged => {
                arena.push(ga, Provenance::full(pa));
                arena.push(gb, Provenance::full(pb));
            }
        }
    }
}

/// Draw the RNG decisions for one crossover of `kind` between evaluated
/// parents `a` and `b`. Every draw of a crossover happens here.
pub fn crossover_plan<R: Rng + ?Sized, S>(
    rng: &mut R,
    kind: CrossoverKind,
    a: &Evaluated<S>,
    b: &Evaluated<S>,
) -> CrossoverPlan {
    match kind {
        CrossoverKind::Random => {
            let c1 = rng.gen_range(0..=a.genome.len());
            let c2 = rng.gen_range(0..=b.genome.len());
            CrossoverPlan::Splice { c1, c2, fallback: false }
        }
        CrossoverKind::StateAware => {
            // Cut points must lie in the decoded region: match keys identify
            // decode states, which only exist for decoded loci.
            let c1 = rng.gen_range(0..=a.decoded_len);
            match matching_cut(rng, a.match_keys[c1], b) {
                Some(c2) => CrossoverPlan::Splice { c1, c2, fallback: false },
                None => CrossoverPlan::Unchanged,
            }
        }
        CrossoverKind::Mixed => {
            // "We randomly select the first crossover point and check if
            // state-aware crossover can be performed. … Otherwise, we
            // randomly select the second crossover point and carry out a
            // random crossover."
            let c1 = rng.gen_range(0..=a.decoded_len);
            match matching_cut(rng, a.match_keys[c1], b) {
                Some(c2) => CrossoverPlan::Splice { c1, c2, fallback: false },
                None => {
                    let c2 = rng.gen_range(0..=b.genome.len());
                    CrossoverPlan::Splice { c1, c2, fallback: true }
                }
            }
        }
        CrossoverKind::TwoPoint => {
            let (a1, a2) = sorted_pair(rng, a.genome.len());
            let (b1, b2) = sorted_pair(rng, b.genome.len());
            CrossoverPlan::TwoPoint { a1, a2, b1, b2 }
        }
    }
}

/// Find a cut point on `b` whose decode state matches `key`, chosen
/// uniformly at random among all matches. Returns `None` when no locus of
/// `b` matches.
fn matching_cut<R: Rng + ?Sized, S>(rng: &mut R, key: u64, b: &Evaluated<S>) -> Option<usize> {
    // Reservoir-sample a uniform match in one pass without allocating.
    let mut chosen = None;
    let mut seen = 0usize;
    for (i, &k) in b.match_keys.iter().enumerate().take(b.decoded_len + 1) {
        if k == key {
            seen += 1;
            if rng.gen_range(0..seen) == 0 {
                chosen = Some(i);
            }
        }
    }
    chosen
}

fn sorted_pair<R: Rng + ?Sized>(rng: &mut R, len: usize) -> (usize, usize) {
    let x = rng.gen_range(0..=len);
    let y = rng.gen_range(0..=len);
    (x.min(y), x.max(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::Fitness;
    use crate::genome::Genome;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build an Evaluated with the given genes and match keys; state carried
    /// as `()` because crossover never inspects it.
    fn ind(genes: Vec<f64>, keys: Vec<u64>) -> Evaluated<()> {
        let decoded_len = genes.len();
        assert_eq!(keys.len(), decoded_len + 1);
        Evaluated {
            genome: Genome::from_genes(genes),
            ops: vec![],
            match_keys: keys,
            step_goals: vec![],
            final_state: (),
            decoded_len,
            best_prefix_at: 0,
            best_prefix_state: (),
            fitness: Fitness::default(),
        }
    }

    /// One crossover through the engine's path: draw the plan, then build
    /// the children into `arena` (cleared first) with the parents at indices
    /// 3 and 5 of their generation.
    fn cross<R: Rng>(
        rng: &mut R,
        kind: CrossoverKind,
        a: &Evaluated<()>,
        b: &Evaluated<()>,
        max_len: usize,
        arena: &mut PopulationArena,
    ) -> CrossoverPlan {
        arena.clear();
        let plan = crossover_plan(rng, kind, a, b);
        plan.materialize_into(arena, a, 3, b, 5, max_len);
        assert_eq!(arena.len(), 2, "{kind:?}: a crossover yields two individuals");
        plan
    }

    #[test]
    fn random_crossover_preserves_total_length_when_unbounded() {
        let a = ind(vec![0.1; 10], (0..=10).collect());
        let b = ind(vec![0.9; 6], (100..=106).collect());
        let mut rng = StdRng::seed_from_u64(5);
        let mut arena = PopulationArena::new();
        for _ in 0..50 {
            let plan = cross(&mut rng, CrossoverKind::Random, &a, &b, usize::MAX, &mut arena);
            assert!(matches!(plan, CrossoverPlan::Splice { fallback: false, .. }), "{plan:?}");
            assert_eq!(arena.genes(0).len() + arena.genes(1).len(), 16);
        }
    }

    #[test]
    fn random_crossover_children_respect_max_len() {
        let a = ind(vec![0.1; 10], (0..=10).collect());
        let b = ind(vec![0.9; 10], (100..=110).collect());
        let mut rng = StdRng::seed_from_u64(5);
        let mut arena = PopulationArena::new();
        for _ in 0..50 {
            cross(&mut rng, CrossoverKind::Random, &a, &b, 12, &mut arena);
            assert!(arena.genes(0).len() <= 12 && arena.genes(1).len() <= 12);
        }
    }

    #[test]
    fn state_aware_returns_unchanged_without_matching_state() {
        let a = ind(vec![0.1; 4], vec![1, 2, 3, 4, 5]);
        let b = ind(vec![0.9; 4], vec![10, 20, 30, 40, 50]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut arena = PopulationArena::new();
        for _ in 0..20 {
            assert_eq!(cross(&mut rng, CrossoverKind::StateAware, &a, &b, 100, &mut arena), CrossoverPlan::Unchanged);
            assert_eq!(arena.genes(0), a.genome.genes());
            assert_eq!(arena.genes(1), b.genome.genes());
        }
    }

    #[test]
    fn state_aware_swaps_at_matching_state() {
        // a's locus 2 has key 7; b's locus 1 has key 7; all others unique.
        let a = ind(vec![0.1, 0.2, 0.3], vec![1, 2, 7, 4]);
        let b = ind(vec![0.7, 0.8, 0.9], vec![5, 7, 6, 8]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut arena = PopulationArena::new();
        let mut produced = 0;
        for _ in 0..200 {
            if cross(&mut rng, CrossoverKind::StateAware, &a, &b, 100, &mut arena) != CrossoverPlan::Unchanged {
                produced += 1;
                // the only matching pair is (c1=2, c2=1)
                assert_eq!(arena.genes(0), &[0.1, 0.2, 0.8, 0.9]);
                assert_eq!(arena.genes(1), &[0.7, 0.3]);
            }
        }
        // cut c1 is uniform over 0..=3; only c1 = 2 matches, so about 1/4
        // of attempts succeed.
        assert!((20..=90).contains(&produced), "produced = {produced}");
    }

    #[test]
    fn state_aware_suffix_decodes_identically() {
        // If key(c1 on a) == key(c2 on b), the child gene suffix is b's
        // suffix and will decode from the same state it decoded from in b —
        // the operator's entire point. Verified structurally here: the swap
        // only happens at equal keys.
        let a = ind(vec![0.1, 0.2], vec![100, 42, 100]);
        let b = ind(vec![0.9, 0.8], vec![42, 100, 42]);
        let mut rng = StdRng::seed_from_u64(9);
        let mut arena = PopulationArena::new();
        for _ in 0..100 {
            if let CrossoverPlan::Splice { c1, c2, .. } =
                cross(&mut rng, CrossoverKind::StateAware, &a, &b, 100, &mut arena)
            {
                assert_eq!(a.match_keys[c1], b.match_keys[c2], "cut at unequal keys");
                assert!(arena.genes(0).len() <= 4);
            }
        }
    }

    #[test]
    fn mixed_always_produces_children() {
        // No keys match, so every mixed attempt takes the random-cut
        // fallback — and reports it as such.
        let a = ind(vec![0.1; 4], vec![1, 2, 3, 4, 5]);
        let b = ind(vec![0.9; 4], vec![10, 20, 30, 40, 50]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut arena = PopulationArena::new();
        for _ in 0..20 {
            let plan = cross(&mut rng, CrossoverKind::Mixed, &a, &b, 100, &mut arena);
            assert!(matches!(plan, CrossoverPlan::Splice { fallback: true, .. }), "{plan:?}");
        }
    }

    #[test]
    fn mixed_prefers_state_aware_cut() {
        // every locus matches (all keys equal): mixed == state-aware here,
        // and children must cut within the decoded region.
        let a = ind(vec![0.1, 0.2], vec![7, 7, 7]);
        let b = ind(vec![0.9, 0.8], vec![7, 7, 7]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut arena = PopulationArena::new();
        for _ in 0..50 {
            match cross(&mut rng, CrossoverKind::Mixed, &a, &b, 100, &mut arena) {
                CrossoverPlan::Splice { fallback: false, .. } => {
                    assert_eq!(arena.genes(0).len() + arena.genes(1).len(), 4)
                }
                other => panic!("state-aware cut must be found: {other:?}"),
            }
        }
    }

    #[test]
    fn two_point_preserves_flanks() {
        let a = ind(vec![0.1, 0.2, 0.3, 0.4], (0..=4).collect());
        let b = ind(vec![0.9, 0.8, 0.7, 0.6], (10..=14).collect());
        let mut rng = StdRng::seed_from_u64(4);
        let mut arena = PopulationArena::new();
        for _ in 0..50 {
            let plan = cross(&mut rng, CrossoverKind::TwoPoint, &a, &b, 100, &mut arena);
            assert!(matches!(plan, CrossoverPlan::TwoPoint { .. }), "{plan:?}");
            assert_eq!(arena.genes(0).len() + arena.genes(1).len(), 8);
            // first gene of c1 is from a (or mid-swap from b if cut at 0)
            assert!(arena.genes(0).iter().all(|&g| (0.0..1.0).contains(&g)));
        }
    }

    #[test]
    fn empty_parents_are_handled() {
        let a = ind(vec![], vec![1]);
        let b = ind(vec![0.5], vec![1, 2]);
        let mut rng = StdRng::seed_from_u64(8);
        let mut arena = PopulationArena::new();
        for kind in [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed, CrossoverKind::TwoPoint] {
            // must not panic; state-aware can match at key 1
            cross(&mut rng, kind, &a, &b, 100, &mut arena);
        }
    }

    /// The children in the arena are exactly the plan's splices, their
    /// provenance names the parent whose prefix survives unchanged (the whole
    /// parent for `Unchanged`), and only the plan draws from the RNG.
    #[test]
    fn reported_cuts_are_true_unchanged_prefixes() {
        let a = ind(vec![0.11, 0.12, 0.13, 0.14, 0.15], vec![1, 2, 7, 4, 9, 5]);
        let b = ind(vec![0.91, 0.92, 0.93, 0.94], vec![5, 7, 6, 9, 8]);
        let (ga, gb) = (a.genome.genes(), b.genome.genes());
        let mut arena = PopulationArena::new();
        for kind in [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed, CrossoverKind::TwoPoint] {
            let mut r1 = StdRng::seed_from_u64(17);
            let mut r2 = StdRng::seed_from_u64(17);
            for max_len in [3usize, 7, 100] {
                let child = |parts: &[&[f64]]| {
                    let mut v = parts.concat();
                    v.truncate(max_len);
                    v
                };
                for _ in 0..50 {
                    let plan = cross(&mut r1, kind, &a, &b, max_len, &mut arena);
                    assert_eq!(plan, crossover_plan(&mut r2, kind, &a, &b), "{kind:?}: same seed, same plan");
                    let (e1, e2, p1, p2) = match plan {
                        CrossoverPlan::Splice { c1, c2, .. } => (
                            child(&[&ga[..c1], &gb[c2..]]),
                            child(&[&gb[..c2], &ga[c1..]]),
                            Provenance::prefix(3, c1),
                            Provenance::prefix(5, c2),
                        ),
                        CrossoverPlan::TwoPoint { a1, a2, b1, b2 } => (
                            child(&[&ga[..a1], &gb[b1..b2], &ga[a2..]]),
                            child(&[&gb[..b1], &ga[a1..a2], &gb[b2..]]),
                            Provenance::prefix(3, a1),
                            Provenance::prefix(5, b1),
                        ),
                        CrossoverPlan::Unchanged => {
                            (ga.to_vec(), gb.to_vec(), Provenance::full(3), Provenance::full(5))
                        }
                    };
                    assert_eq!(arena.genes(0), &e1[..], "{kind:?} child1 max {max_len}");
                    assert_eq!(arena.genes(1), &e2[..], "{kind:?} child2 max {max_len}");
                    assert_eq!((arena.prov(0), arena.prov(1)), (p1, p2), "{kind:?} provenance");
                    // the recorded prefix really is unchanged from its parent
                    for (i, parent) in [(0, ga), (1, gb)] {
                        let c = arena.genes(i);
                        let k = (arena.prov(i).prefix as usize).min(c.len());
                        assert!(k <= parent.len(), "{kind:?}: prefix {k} longer than parent");
                        assert_eq!(&c[..k], &parent[..k], "{kind:?}: child{} prefix", i + 1);
                    }
                }
            }
            // building the children drew nothing: the streams are still aligned
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{kind:?}");
        }
    }

    #[test]
    fn matching_cut_is_uniform_over_matches() {
        let b = ind(vec![0.5; 4], vec![7, 9, 7, 9, 7]);
        let mut rng = StdRng::seed_from_u64(12);
        let mut counts = [0usize; 5];
        for _ in 0..9000 {
            let c = matching_cut(&mut rng, 7, &b).unwrap();
            counts[c] += 1;
        }
        assert_eq!(counts[1] + counts[3], 0);
        for &i in &[0usize, 2, 4] {
            assert!((2_500..3_500).contains(&counts[i]), "counts = {counts:?}");
        }
    }
}
