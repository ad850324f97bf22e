//! Property-based tests for the flat [`PopulationArena`]: the arena must be
//! an indistinguishable drop-in for per-individual `Vec` storage, and the
//! prefix-replay decode path through arena offsets must never alias another
//! individual's genes or read a stale prefix memo.

use gaplan_core::strips::{StripsBuilder, StripsProblem};
use gaplan_core::{Domain, SuccessorCache};
use gaplan_ga::{Decoder, Evaluated, GaConfig, Genome, PopulationArena, PrefixRef, Provenance};
use proptest::prelude::*;

fn arb_genes() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 0..40)
}

/// One encoded arena edit: `(kind, individual, position, gene value, genes)`.
/// Indices are reduced modulo the live bounds when applied, so every drawn
/// edit is valid.
type RawEdit = (usize, usize, usize, f64, Vec<f64>);

fn arb_edits() -> impl Strategy<Value = Vec<RawEdit>> {
    proptest::collection::vec((0usize..5, any::<usize>(), any::<usize>(), 0.0f64..1.0, arb_genes()), 1..40)
}

/// Chain domain `s0 -> s1 -> ... -> sn` with forward and backward steps, so
/// decodes have branching and non-trivial match keys.
fn chain(n: usize) -> StripsProblem {
    let mut b = StripsBuilder::new();
    for i in 0..=n {
        b.condition(&format!("s{i}")).unwrap();
    }
    for i in 0..n {
        b.op(&format!("fwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i + 1)], &[&format!("s{i}")], 1.0).unwrap();
    }
    for i in 1..=n {
        b.op(&format!("back{i}"), &[&format!("s{i}")], &[&format!("s{}", i - 1)], &[&format!("s{i}")], 1.0).unwrap();
    }
    b.init(&["s0"]).unwrap();
    b.goal(&[&format!("s{n}")]).unwrap();
    b.build().unwrap()
}

fn assert_arena_matches_model(arena: &PopulationArena, model: &[Vec<f64>]) {
    assert_eq!(arena.len(), model.len());
    assert_eq!(arena.total_genes(), model.iter().map(Vec::len).sum::<usize>());
    for (i, m) in model.iter().enumerate() {
        assert_eq!(arena.genes(i), m.as_slice(), "individual {i} diverged");
    }
    for (got, want) in arena.iter().zip(model) {
        assert_eq!(got, want.as_slice());
    }
}

proptest! {
    /// Pushing arbitrary genomes round-trips: every individual reads back
    /// byte-identical, in order, with its provenance intact.
    #[test]
    fn arena_round_trips_vs_vec(genomes in proptest::collection::vec(arb_genes(), 0..30)) {
        let mut arena = PopulationArena::new();
        for (i, g) in genomes.iter().enumerate() {
            arena.push(g, Provenance::prefix(i, g.len()));
        }
        assert_arena_matches_model(&arena, &genomes);
        for (i, g) in genomes.iter().enumerate() {
            prop_assert_eq!(arena.prov(i), Provenance::prefix(i, g.len()));
        }
    }

    /// Any interleaving of pushes, replaces, point writes, and gene
    /// insert/remove leaves every *other* individual untouched — the
    /// offset-table arithmetic never lets one genome's edit bleed into a
    /// neighbour.
    #[test]
    fn arena_edits_never_alias_neighbours(
        initial in proptest::collection::vec(arb_genes(), 1..12),
        edits in arb_edits(),
    ) {
        let mut arena = PopulationArena::new();
        let mut model: Vec<Vec<f64>> = Vec::new();
        for g in &initial {
            arena.push(g, Provenance::NONE);
            model.push(g.clone());
        }
        for (kind, i, at, v, genes) in &edits {
            let i = i % model.len();
            match kind {
                0 => {
                    arena.push(genes, Provenance::NONE);
                    model.push(genes.clone());
                }
                1 => {
                    arena.replace(i, genes, Provenance::NONE);
                    model[i] = genes.clone();
                }
                2 if !model[i].is_empty() => {
                    let at = at % model[i].len();
                    arena.genes_mut(i)[at] = *v;
                    model[i][at] = *v;
                }
                3 => {
                    let at = at % (model[i].len() + 1);
                    arena.insert_gene(i, at, *v);
                    model[i].insert(at, *v);
                }
                4 if !model[i].is_empty() => {
                    let at = at % model[i].len();
                    arena.remove_gene(i, at);
                    model[i].remove(at);
                }
                _ => {} // SetGene / RemoveGene on an empty genome: no-op
            }
            assert_arena_matches_model(&arena, &model);
        }
    }

    /// Arena splice children equal `Genome::splice` for arbitrary cuts.
    #[test]
    fn arena_splice_matches_genome_splice(
        ga in arb_genes(),
        gb in arb_genes(),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        max_len in 1usize..80,
    ) {
        let cut_a = cut_a % (ga.len() + 1);
        let cut_b = cut_b % (gb.len() + 1);
        let expect = Genome::from_genes(ga.clone()).splice(cut_a, &Genome::from_genes(gb.clone()), cut_b, max_len);
        let mut arena = PopulationArena::new();
        arena.push_splice(&ga, cut_a, &gb, cut_b, max_len, Provenance::NONE);
        prop_assert_eq!(arena.genes(0), expect.genes());
    }

    /// The arena decode path — borrowed prefix hints over arena offsets,
    /// shared successor cache, one decoder recycled across children — is
    /// bitwise-identical to a from-scratch decode of the same genes with a
    /// fresh decoder and no cache. A stale prefix memo, an aliased gene
    /// slice, or leaked recycle scratch would all break this equality.
    #[test]
    fn arena_prefix_replay_matches_scratch_decode(
        parent in proptest::collection::vec(0.0f64..1.0, 1..40),
        edits in proptest::collection::vec((any::<usize>(), 0.0f64..1.0), 1..6),
    ) {
        let d = chain(6);
        let start = d.initial_state();
        let cfg = GaConfig { max_len: 64, ..GaConfig::default() };
        let cache = SuccessorCache::new(256);

        let mut dec = Decoder::new();
        let (pd, pf) = dec.evaluate_ref(&d, &start, &parent, &cfg, Some(&cache), None);
        let donor = Evaluated::new(Genome::from_genes(parent.clone()), pd, pf);

        let mut arena = PopulationArena::new();
        for (at, v) in &edits {
            let at = at % parent.len();
            arena.push(&parent, Provenance::prefix(0, at));
            let i = arena.len() - 1;
            arena.genes_mut(i)[at] = *v;
        }

        for i in 0..arena.len() {
            let prov = arena.prov(i);
            let hint = PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, prov.prefix as usize);
            let (ad, af) = dec.evaluate_ref(&d, &start, arena.genes(i), &cfg, Some(&cache), Some(hint));

            let (sd, sf) = Decoder::new().evaluate_ref(&d, &start, arena.genes(i), &cfg, None, None);

            prop_assert_eq!(&ad.ops, &sd.ops);
            prop_assert_eq!(&ad.match_keys, &sd.match_keys);
            prop_assert_eq!(ad.step_goals.len(), sd.step_goals.len());
            for (a, b) in ad.step_goals.iter().zip(&sd.step_goals) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(&ad.final_state, &sd.final_state);
            prop_assert_eq!(ad.cost.to_bits(), sd.cost.to_bits());
            prop_assert_eq!(ad.decoded_len, sd.decoded_len);
            prop_assert_eq!(ad.reached_goal, sd.reached_goal);
            prop_assert_eq!(ad.best_prefix_goal.to_bits(), sd.best_prefix_goal.to_bits());
            prop_assert_eq!(ad.best_prefix_at, sd.best_prefix_at);
            prop_assert_eq!(&ad.best_prefix_state, &sd.best_prefix_state);
            prop_assert_eq!(af.total.to_bits(), sf.total.to_bits());

            dec.recycle(ad);
        }
    }
}
