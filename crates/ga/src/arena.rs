//! Flat arena storage for GA populations.
//!
//! A generation's genomes live in **one contiguous `Vec<f64>`** with a
//! prefix-sum bounds table instead of one heap allocation per individual.
//! Children produced by crossover are spliced *directly* into the arena
//! (no intermediate `Genome`), and prefix-reuse provenance is recorded as
//! a small `(parent index, prefix length)` pair, which evaluation resolves
//! to a [`PrefixRef`](crate::decode::PrefixRef) borrowing the donor's
//! op/key slices straight out of the previous generation.

/// Sentinel parent index meaning "no provenance" (fresh or resumed genome).
pub const NO_PARENT: u32 = u32::MAX;

/// Prefix length meaning "the entire donor plan is a valid prefix".
pub const FULL_PREFIX: u32 = u32::MAX;

/// Where an arena individual came from, for prefix-reuse decoding.
///
/// `parent` indexes the *previous* generation's evaluated individuals;
/// `prefix` is the number of leading genes guaranteed unchanged since the
/// parent was decoded. [`evaluate_arena`](crate::population::evaluate_arena)
/// resolves it to a [`PrefixRef`](crate::decode::PrefixRef) over the
/// parent's decode, and [`PrefixRef::new`](crate::decode::PrefixRef::new)
/// caps it at the parent's decoded length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Index of the donor individual in the parent generation, or [`NO_PARENT`].
    pub parent: u32,
    /// Unchanged-prefix length in genes, or [`FULL_PREFIX`].
    pub prefix: u32,
}

impl Provenance {
    /// No donor: decode from scratch.
    pub const NONE: Provenance = Provenance { parent: NO_PARENT, prefix: 0 };

    /// Full-prefix provenance from `parent`.
    pub fn full(parent: usize) -> Provenance {
        Provenance { parent: parent as u32, prefix: FULL_PREFIX }
    }

    /// Prefix of `prefix` genes from `parent`.
    pub fn prefix(parent: usize, prefix: usize) -> Provenance {
        Provenance { parent: parent as u32, prefix: prefix.min(FULL_PREFIX as usize) as u32 }
    }

    /// Shrink the unchanged prefix to at most `len` genes (e.g. after a
    /// mutation changed gene `len`). No-op when already shorter.
    pub fn truncate(&mut self, len: usize) {
        if self.parent != NO_PARENT {
            self.prefix = self.prefix.min(len.min(FULL_PREFIX as usize) as u32);
        }
    }
}

/// A population stored as one contiguous gene buffer.
///
/// `bounds` is a prefix-sum table: individual `i` occupies
/// `genes[bounds[i] .. bounds[i + 1]]`. Individuals are appended in order;
/// [`PopulationArena::replace`] supports the (rare) elitism overwrite and
/// [`PopulationArena::insert_gene`] / [`PopulationArena::remove_gene`] the
/// (default-off) length mutation.
#[derive(Clone, Debug, Default)]
pub struct PopulationArena {
    genes: Vec<f64>,
    bounds: Vec<u32>,
    prov: Vec<Provenance>,
}

impl PopulationArena {
    /// Empty arena.
    pub fn new() -> Self {
        PopulationArena { genes: Vec::new(), bounds: vec![0], prov: Vec::new() }
    }

    /// Empty arena with room for `individuals` genomes / `total_genes` genes.
    pub fn with_capacity(individuals: usize, total_genes: usize) -> Self {
        let mut bounds = Vec::with_capacity(individuals + 1);
        bounds.push(0);
        PopulationArena { genes: Vec::with_capacity(total_genes), bounds, prov: Vec::with_capacity(individuals) }
    }

    /// Number of individuals.
    pub fn len(&self) -> usize {
        self.prov.len()
    }

    /// True when no individuals are stored.
    pub fn is_empty(&self) -> bool {
        self.prov.is_empty()
    }

    /// Total genes across all individuals.
    pub fn total_genes(&self) -> usize {
        self.genes.len()
    }

    /// Remove all individuals, keeping allocations.
    pub fn clear(&mut self) {
        self.genes.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.prov.clear();
    }

    /// Append an individual by copying `genes`.
    pub fn push(&mut self, genes: &[f64], prov: Provenance) {
        self.genes.extend_from_slice(genes);
        self.bounds.push(self.genes.len() as u32);
        self.prov.push(prov);
    }

    /// Append a splice child: `a[..cut_a] ++ b[cut_b..]`, truncated to
    /// `max_len` genes — identical to [`crate::genome::Genome::splice`] but
    /// built directly in the arena buffer.
    pub fn push_splice(&mut self, a: &[f64], cut_a: usize, b: &[f64], cut_b: usize, max_len: usize, prov: Provenance) {
        let start = self.genes.len();
        self.genes.extend_from_slice(&a[..cut_a.min(a.len())]);
        self.genes.extend_from_slice(&b[cut_b.min(b.len())..]);
        self.genes.truncate(start + max_len.min(self.genes.len() - start));
        self.bounds.push(self.genes.len() as u32);
        self.prov.push(prov);
    }

    /// Append a three-segment child `head ++ mid ++ tail` truncated to
    /// `max_len` genes (two-point crossover shape).
    pub fn push_concat3(&mut self, head: &[f64], mid: &[f64], tail: &[f64], max_len: usize, prov: Provenance) {
        let start = self.genes.len();
        self.genes.extend_from_slice(head);
        self.genes.extend_from_slice(mid);
        self.genes.extend_from_slice(tail);
        self.genes.truncate(start + max_len.min(self.genes.len() - start));
        self.bounds.push(self.genes.len() as u32);
        self.prov.push(prov);
    }

    fn range(&self, i: usize) -> (usize, usize) {
        (self.bounds[i] as usize, self.bounds[i + 1] as usize)
    }

    /// Genes of individual `i`.
    pub fn genes(&self, i: usize) -> &[f64] {
        let (lo, hi) = self.range(i);
        &self.genes[lo..hi]
    }

    /// Mutable genes of individual `i`.
    pub fn genes_mut(&mut self, i: usize) -> &mut [f64] {
        let (lo, hi) = self.range(i);
        &mut self.genes[lo..hi]
    }

    /// Provenance of individual `i`.
    pub fn prov(&self, i: usize) -> Provenance {
        self.prov[i]
    }

    /// Mutable provenance of individual `i`.
    pub fn prov_mut(&mut self, i: usize) -> &mut Provenance {
        &mut self.prov[i]
    }

    /// Overwrite individual `i` with `genes` (elitism). Later individuals
    /// shift to absorb the length difference.
    pub fn replace(&mut self, i: usize, genes: &[f64], prov: Provenance) {
        let (lo, hi) = self.range(i);
        self.genes.splice(lo..hi, genes.iter().copied());
        let delta = genes.len() as i64 - (hi - lo) as i64;
        if delta != 0 {
            for b in &mut self.bounds[i + 1..] {
                *b = (*b as i64 + delta) as u32;
            }
        }
        self.prov[i] = prov;
    }

    /// Insert gene `v` at position `at` of individual `i` (length mutation).
    pub fn insert_gene(&mut self, i: usize, at: usize, v: f64) {
        let (lo, hi) = self.range(i);
        debug_assert!(at <= hi - lo);
        self.genes.insert(lo + at, v);
        for b in &mut self.bounds[i + 1..] {
            *b += 1;
        }
    }

    /// Remove the gene at position `at` of individual `i` (length mutation).
    pub fn remove_gene(&mut self, i: usize, at: usize) {
        let (lo, hi) = self.range(i);
        debug_assert!(at < hi - lo);
        self.genes.remove(lo + at);
        for b in &mut self.bounds[i + 1..] {
            *b -= 1;
        }
    }

    /// Iterate over the gene slices in order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.len()).map(move |i| self.genes(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut a = PopulationArena::new();
        a.push(&[0.1, 0.2], Provenance::NONE);
        a.push(&[], Provenance::full(0));
        a.push(&[0.5], Provenance::prefix(1, 3));
        assert_eq!(a.len(), 3);
        assert_eq!(a.total_genes(), 3);
        assert_eq!(a.genes(0), &[0.1, 0.2]);
        assert_eq!(a.genes(1), &[] as &[f64]);
        assert_eq!(a.genes(2), &[0.5]);
        assert_eq!(a.prov(0), Provenance::NONE);
        assert_eq!(a.prov(1), Provenance { parent: 0, prefix: FULL_PREFIX });
        assert_eq!(a.prov(2), Provenance { parent: 1, prefix: 3 });
        let collected: Vec<&[f64]> = a.iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn splice_matches_genome_splice() {
        use crate::genome::Genome;
        let a = Genome::from_genes(vec![0.1, 0.2, 0.3, 0.4]);
        let b = Genome::from_genes(vec![0.9, 0.8, 0.7]);
        for cut_a in 0..=4 {
            for cut_b in 0..=3 {
                for max_len in 1..=8 {
                    let expect = a.splice(cut_a, &b, cut_b, max_len);
                    let mut arena = PopulationArena::new();
                    arena.push_splice(a.genes(), cut_a, b.genes(), cut_b, max_len, Provenance::NONE);
                    assert_eq!(arena.genes(0), expect.genes(), "cuts ({cut_a},{cut_b}) max {max_len}");
                }
            }
        }
    }

    #[test]
    fn concat3_truncates() {
        let mut a = PopulationArena::new();
        a.push_concat3(&[0.1, 0.2], &[0.3], &[0.4, 0.5], 4, Provenance::NONE);
        assert_eq!(a.genes(0), &[0.1, 0.2, 0.3, 0.4]);
        a.push_concat3(&[], &[], &[], 4, Provenance::NONE);
        assert_eq!(a.genes(1), &[] as &[f64]);
    }

    #[test]
    fn replace_shifts_following_individuals() {
        let mut a = PopulationArena::new();
        a.push(&[0.1, 0.2], Provenance::NONE);
        a.push(&[0.3, 0.4], Provenance::NONE);
        a.push(&[0.5], Provenance::NONE);
        a.replace(0, &[0.9, 0.9, 0.9], Provenance::full(7));
        assert_eq!(a.genes(0), &[0.9, 0.9, 0.9]);
        assert_eq!(a.genes(1), &[0.3, 0.4]);
        assert_eq!(a.genes(2), &[0.5]);
        assert_eq!(a.prov(0).parent, 7);
        a.replace(1, &[0.7], Provenance::NONE);
        assert_eq!(a.genes(0), &[0.9, 0.9, 0.9]);
        assert_eq!(a.genes(1), &[0.7]);
        assert_eq!(a.genes(2), &[0.5]);
    }

    #[test]
    fn insert_and_remove_gene_shift_bounds() {
        let mut a = PopulationArena::new();
        a.push(&[0.1, 0.2], Provenance::NONE);
        a.push(&[0.3], Provenance::NONE);
        a.insert_gene(0, 1, 0.15);
        assert_eq!(a.genes(0), &[0.1, 0.15, 0.2]);
        assert_eq!(a.genes(1), &[0.3]);
        a.remove_gene(0, 0);
        assert_eq!(a.genes(0), &[0.15, 0.2]);
        assert_eq!(a.genes(1), &[0.3]);
        a.insert_gene(1, 0, 0.25);
        assert_eq!(a.genes(1), &[0.25, 0.3]);
    }

    #[test]
    fn provenance_truncate_caps_prefix() {
        let mut p = Provenance::full(3);
        p.truncate(5);
        assert_eq!(p.prefix, 5);
        p.truncate(9);
        assert_eq!(p.prefix, 5);
        let mut none = Provenance::NONE;
        none.truncate(2);
        assert_eq!(none, Provenance::NONE);
    }

    #[test]
    fn clear_keeps_capacity_and_resets() {
        let mut a = PopulationArena::with_capacity(4, 16);
        a.push(&[0.1], Provenance::NONE);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.total_genes(), 0);
        a.push(&[0.2, 0.3], Provenance::NONE);
        assert_eq!(a.genes(0), &[0.2, 0.3]);
    }
}
