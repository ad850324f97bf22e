//! Mutation (paper §3.4.3): "Every gene has equal probability of being
//! mutated. In every mutation, a new randomly generated floating point
//! number replaces the old one." Plus an optional insertion/deletion length
//! mutation as an extension (disabled by default).

use rand::Rng;

use crate::genome::Genome;

/// Apply per-gene replacement mutation with probability `rate` per gene to
/// a raw gene slice (an arena individual or a [`Genome`]'s genes).
///
/// Returns the first modified locus, if any gene changed — the caller uses
/// it to truncate the individual's prefix-reuse checkpoint (genes before the
/// first flipped locus still decode identically).
pub fn mutate_slice<R: Rng + ?Sized>(rng: &mut R, genes: &mut [f64], rate: f64) -> Option<usize> {
    if rate <= 0.0 {
        return None;
    }
    let mut first_changed = None;
    for (i, g) in genes.iter_mut().enumerate() {
        if rng.gen::<f64>() < rate {
            *g = rng.gen::<f64>();
            if first_changed.is_none() {
                first_changed = Some(i);
            }
        }
    }
    first_changed
}

/// A planned length mutation: the edit [`length_mutate_plan`] decided on,
/// to be applied by the caller (to a `Genome` or an arena individual).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthEdit {
    /// Insert gene value `v` at locus `at`.
    Insert {
        /// Insertion locus.
        at: usize,
        /// The new gene value.
        v: f64,
    },
    /// Remove the gene at locus `at`.
    Remove {
        /// Removal locus.
        at: usize,
    },
}

impl LengthEdit {
    /// The first modified locus (everything from there on shifts).
    pub fn at(&self) -> usize {
        match *self {
            LengthEdit::Insert { at, .. } | LengthEdit::Remove { at } => at,
        }
    }
}

/// Draw the RNG decisions for one length mutation of a genome of `len`
/// genes, without applying it. Consumes exactly the draws [`length_mutate`]
/// consumes.
pub fn length_mutate_plan<R: Rng + ?Sized>(rng: &mut R, len: usize, rate: f64, max_len: usize) -> Option<LengthEdit> {
    if rate <= 0.0 || rng.gen::<f64>() >= rate {
        return None;
    }
    let insert = len < max_len && (len <= 1 || rng.gen::<bool>());
    if insert {
        let at = rng.gen_range(0..=len);
        let v = rng.gen::<f64>();
        Some(LengthEdit::Insert { at, v })
    } else if len > 1 {
        let at = rng.gen_range(0..len);
        Some(LengthEdit::Remove { at })
    } else {
        None
    }
}

/// Extension: with probability `rate`, insert a random gene at a random
/// locus or delete a random gene (50/50), respecting `max_len` and never
/// deleting the last gene of a single-gene individual.
///
/// Returns the first modified locus (the insertion/deletion point: every
/// gene from there on shifted), if the genome changed.
pub fn length_mutate<R: Rng + ?Sized>(rng: &mut R, genome: &mut Genome, rate: f64, max_len: usize) -> Option<usize> {
    let edit = length_mutate_plan(rng, genome.len(), rate, max_len)?;
    let genes = genome.genes_mut();
    match edit {
        LengthEdit::Insert { at, v } => genes.insert(at, v),
        LengthEdit::Remove { at } => {
            genes.remove(at);
        }
    }
    Some(edit.at())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_rate_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = vec![0.25; 100];
        assert_eq!(mutate_slice(&mut rng, &mut g, 0.0), None);
        assert!(g.iter().all(|&x| x == 0.25));
    }

    #[test]
    fn rate_one_replaces_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = vec![0.25; 100];
        mutate_slice(&mut rng, &mut g, 1.0);
        // probability of any survivor is (1/2^52)-ish
        assert!(g.iter().all(|&x| x != 0.25));
        assert!(g.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn mutation_rate_is_respected_statistically() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut changed = 0usize;
        const N: usize = 100_000;
        let mut g = vec![0.25; N];
        mutate_slice(&mut rng, &mut g, 0.01);
        for &x in &g {
            if x != 0.25 {
                changed += 1;
            }
        }
        // expect ~1000; loose 5-sigma bounds
        assert!((800..1200).contains(&changed), "changed = {changed}");
    }

    #[test]
    fn mutation_preserves_length() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = Genome::from_genes(vec![0.5; 37]);
        mutate_slice(&mut rng, g.genes_mut(), 0.5);
        assert_eq!(g.len(), 37);
    }

    #[test]
    fn length_mutation_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = Genome::from_genes(vec![0.5; 4]);
        for _ in 0..1000 {
            length_mutate(&mut rng, &mut g, 1.0, 6);
            assert!((1..=6).contains(&g.len()), "len = {}", g.len());
        }
    }

    #[test]
    fn length_mutation_never_empties_genome() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = Genome::from_genes(vec![0.5]);
        for _ in 0..100 {
            length_mutate(&mut rng, &mut g, 1.0, 1);
            assert!(!g.is_empty());
        }
    }

    #[test]
    fn length_mutation_zero_rate_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = Genome::from_genes(vec![0.5; 3]);
        length_mutate(&mut rng, &mut g, 0.0, 10);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn mutate_reports_first_changed_locus() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let mut g = vec![0.25; 50];
            match mutate_slice(&mut rng, &mut g, 0.1) {
                Some(first) => {
                    let changed: Vec<usize> =
                        g.iter().enumerate().filter(|(_, &x)| x != 0.25).map(|(i, _)| i).collect();
                    assert_eq!(changed.first(), Some(&first));
                }
                None => assert!(g.iter().all(|&x| x == 0.25)),
            }
        }
        // unchanged genomes report None
        let mut g = vec![0.25; 5];
        assert_eq!(mutate_slice(&mut rng, &mut g, 0.0), None);
    }

    #[test]
    fn length_plan_matches_applied_mutation() {
        let mut r1 = StdRng::seed_from_u64(12);
        let mut r2 = StdRng::seed_from_u64(12);
        for len in [1usize, 2, 5, 8] {
            for _ in 0..200 {
                let mut g = Genome::from_genes(vec![0.25; len]);
                let applied = length_mutate(&mut r1, &mut g, 0.7, 8);
                let plan = length_mutate_plan(&mut r2, len, 0.7, 8);
                assert_eq!(applied, plan.map(|e| e.at()));
                match plan {
                    Some(LengthEdit::Insert { .. }) => assert_eq!(g.len(), len + 1),
                    Some(LengthEdit::Remove { .. }) => assert_eq!(g.len(), len - 1),
                    None => assert_eq!(g.len(), len),
                }
            }
        }
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn length_mutate_reports_change_point() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let mut g = Genome::from_genes(vec![0.25; 6]);
            let before = g.genes().to_vec();
            match length_mutate(&mut rng, &mut g, 1.0, 8) {
                Some(at) => {
                    // genes before `at` are untouched
                    assert!(at <= before.len());
                    assert_eq!(&g.genes()[..at], &before[..at]);
                }
                None => assert_eq!(g.genes(), &before[..]),
            }
        }
    }
}
