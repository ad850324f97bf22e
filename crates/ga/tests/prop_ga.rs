//! Property-based tests for the GA operators: genome algebra, crossover
//! length bounds, mutation range preservation, selection sanity.

use gaplan_ga::crossover::{crossover_plan, CrossoverPlan};
use gaplan_ga::decode::gene_to_index;
use gaplan_ga::mutation::{length_mutate, mutate_slice};
use gaplan_ga::selection::select_parent;
use gaplan_ga::{CrossoverKind, Evaluated, Fitness, Genome, PopulationArena, SelectionScheme};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_genes() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 0..50)
}

fn evaluated(genes: Vec<f64>, key_salt: u64) -> Evaluated<()> {
    let decoded_len = genes.len();
    let match_keys = (0..=decoded_len as u64).map(|i| i.wrapping_mul(key_salt)).collect();
    Evaluated {
        genome: Genome::from_genes(genes),
        ops: vec![],
        match_keys,
        step_goals: vec![],
        final_state: (),
        decoded_len,
        best_prefix_at: 0,
        best_prefix_state: (),
        fitness: Fitness::default(),
    }
}

proptest! {
    /// Every crossover kind: children stay within [0, max_len] and contain
    /// only genes drawn from the parents.
    #[test]
    fn crossover_children_are_bounded_and_conservative(
        ga in arb_genes(),
        gb in arb_genes(),
        max_len in 1usize..80,
        seed in any::<u64>(),
        kind_sel in 0usize..4,
    ) {
        let kind = [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed, CrossoverKind::TwoPoint][kind_sel];
        let a = evaluated(ga.clone(), 0x9e3779b97f4a7c15);
        let b = evaluated(gb.clone(), 0xdeadbeefcafef00d);
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = crossover_plan(&mut rng, kind, &a, &b);
        let mut arena = PopulationArena::new();
        plan.materialize_into(&mut arena, &a, 0, &b, 1, max_len);
        if plan == CrossoverPlan::Unchanged {
            prop_assert_eq!(kind, CrossoverKind::StateAware, "only state-aware may decline");
        } else {
            for c in arena.iter() {
                prop_assert!(c.len() <= max_len);
                for g in c {
                    prop_assert!(ga.contains(g) || gb.contains(g), "gene {} not from a parent", g);
                }
            }
        }
    }

    /// Random one-point crossover conserves total gene count when unbounded.
    #[test]
    fn random_crossover_conserves_genes(ga in arb_genes(), gb in arb_genes(), seed in any::<u64>()) {
        let a = evaluated(ga.clone(), 1);
        let b = evaluated(gb.clone(), 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = PopulationArena::new();
        crossover_plan(&mut rng, CrossoverKind::Random, &a, &b).materialize_into(&mut arena, &a, 0, &b, 1, usize::MAX);
        prop_assert_eq!(arena.total_genes(), ga.len() + gb.len());
    }

    /// Mutation keeps genes inside [0, 1) and never changes length.
    #[test]
    fn mutation_preserves_domain_and_length(genes in arb_genes(), rate in 0.0f64..1.0, seed in any::<u64>()) {
        let mut g = genes.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        mutate_slice(&mut rng, &mut g, rate);
        prop_assert_eq!(g.len(), genes.len());
        for v in &g {
            prop_assert!((0.0..1.0).contains(v));
        }
    }

    /// Length mutation keeps the genome within [1, max_len] (given a
    /// non-empty start).
    #[test]
    fn length_mutation_respects_bounds(genes in proptest::collection::vec(0.0f64..1.0, 1..50), max_len in 1usize..60, seed in any::<u64>()) {
        let mut g = Genome::from_genes(genes);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            length_mutate(&mut rng, &mut g, 1.0, max_len);
            prop_assert!(!g.is_empty());
            // an over-long starting genome may stay over max_len (length
            // mutation only refuses to insert); it must never grow further
            prop_assert!(g.len() <= max_len.max(50));
        }
    }

    /// Selection always returns a valid index, under every scheme.
    #[test]
    fn selection_returns_valid_indices(fit in proptest::collection::vec(0.0f64..2.0, 1..40), seed in any::<u64>(), scheme_sel in 0usize..3) {
        let scheme = [SelectionScheme::Tournament(2), SelectionScheme::Roulette, SelectionScheme::Rank][scheme_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let idx = select_parent(&mut rng, &fit, scheme);
            prop_assert!(idx < fit.len());
        }
    }

    /// The gene→operation mapping stays in range for every gene in [0,1)
    /// and every realistic operation count, including genes pushed right up
    /// against 1.0 where `gene * k` can round to exactly `k`.
    #[test]
    fn gene_to_index_stays_in_range(gene in 0.0f64..1.0, k in 1usize..10_000) {
        let idx = gene_to_index(gene, k);
        prop_assert!(idx < k, "gene {gene} k {k} -> {idx}");
    }

    /// Boundary sweep: genes converging on 1.0 from below must saturate at
    /// k-1, never index out of bounds (the paper's interval partition has a
    /// half-open final interval).
    #[test]
    fn gene_to_index_boundary_saturates(k in 1usize..10_000) {
        for gene in [1.0f64 - f64::EPSILON, 0.999_999_999_999, f64::from_bits(1.0f64.to_bits() - 1)] {
            let idx = gene_to_index(gene, k);
            prop_assert!(idx < k, "gene {gene} k {k} -> {idx}");
            prop_assert_eq!(gene_to_index(0.0, k), 0);
        }
        // interval partition: gene i/k lands in interval i
        for i in 0..k.min(64) {
            let idx = gene_to_index(i as f64 / k as f64, k);
            prop_assert!(idx == i || idx + 1 == i, "interval drift: {i}/{k} -> {idx}");
        }
    }

    /// Splice is associative with concatenation semantics: prefix from
    /// self, suffix from other.
    #[test]
    fn splice_semantics(ga in arb_genes(), gb in arb_genes(), seed in any::<u64>()) {
        use rand::Rng;
        let a = Genome::from_genes(ga.clone());
        let b = Genome::from_genes(gb.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = rng.gen_range(0..=ga.len());
        let cb = rng.gen_range(0..=gb.len());
        let child = a.splice(ca, &b, cb, usize::MAX);
        prop_assert_eq!(&child.genes()[..ca], &ga[..ca]);
        prop_assert_eq!(&child.genes()[ca..], &gb[cb..]);
    }
}
