//! Fixed-width bitsets over ground atomic conditions.

use std::fmt;

use super::CondId;

const WORD_BITS: usize = 64;

/// A set of ground atomic conditions, stored as a bitset.
///
/// All sets belonging to one [`super::StripsProblem`] share the same width
/// (the number of conditions in the problem), so subset/union/difference are
/// straight word-wise loops — the operations on the planning hot path.
#[derive(PartialEq, Eq, Hash)]
pub struct CondSet {
    words: Vec<u64>,
    /// Number of condition slots (bits) this set ranges over.
    width: usize,
}

impl CondSet {
    /// An empty set over `width` conditions.
    pub fn empty(width: usize) -> Self {
        CondSet { words: vec![0; width.div_ceil(WORD_BITS)], width }
    }

    /// Build a set from condition ids.
    pub fn from_ids(width: usize, ids: impl IntoIterator<Item = CondId>) -> Self {
        let mut s = CondSet::empty(width);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Number of condition slots.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The backing words, `width.div_ceil(64)` of them, bit `i` of word
    /// `i / 64` standing for condition `i`.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Insert a condition. Panics if out of range.
    #[inline]
    pub fn insert(&mut self, id: CondId) {
        assert!(id.index() < self.width, "condition id out of range");
        self.words[id.index() / WORD_BITS] |= 1 << (id.index() % WORD_BITS);
    }

    /// Remove a condition.
    #[inline]
    pub fn remove(&mut self, id: CondId) {
        if id.index() < self.width {
            self.words[id.index() / WORD_BITS] &= !(1 << (id.index() % WORD_BITS));
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: CondId) -> bool {
        id.index() < self.width && self.words[id.index() / WORD_BITS] >> (id.index() % WORD_BITS) & 1 == 1
    }

    /// Is `self ⊆ other`? (The paper's operation-validity test: an operation
    /// is valid iff its preconditions are a subset of the current state.)
    #[inline]
    pub fn is_subset_of(&self, other: &CondSet) -> bool {
        debug_assert_eq!(self.width, other.width);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Number of conditions in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of conditions present in both `self` and `other`.
    pub fn intersection_count(&self, other: &CondSet) -> usize {
        debug_assert_eq!(self.width, other.width);
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// In-place `self := (self \ del) ∪ add` — applying an operation's
    /// postconditions (delete list then add list).
    #[inline]
    pub fn apply_effects(&mut self, add: &CondSet, del: &CondSet) {
        debug_assert_eq!(self.width, add.width);
        debug_assert_eq!(self.width, del.width);
        for ((w, a), d) in self.words.iter_mut().zip(&add.words).zip(&del.words) {
            *w = (*w & !d) | a;
        }
    }

    /// Iterate over the ids of conditions in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = CondId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(CondId((wi * WORD_BITS + b) as u32))
                }
            })
        })
    }
}

/// Hand-written so `clone_from` copies into the existing word buffer: the
/// decoder's state copies (ping-pong buffers, best-prefix snapshots, cache
/// slots) then reuse storage instead of allocating per step.
impl Clone for CondSet {
    fn clone(&self) -> Self {
        CondSet { words: self.words.clone(), width: self.width }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.width = source.width;
    }
}

impl fmt::Debug for CondSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|c| c.0)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(width: usize, ids: &[u32]) -> CondSet {
        CondSet::from_ids(width, ids.iter().map(|&i| CondId(i)))
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = CondSet::empty(100);
        assert!(!s.contains(CondId(70)));
        s.insert(CondId(70));
        assert!(s.contains(CondId(70)));
        s.remove(CondId(70));
        assert!(!s.contains(CondId(70)));
    }

    #[test]
    fn subset_semantics() {
        let a = set(130, &[1, 65, 129]);
        let b = set(130, &[0, 1, 65, 100, 129]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(CondSet::empty(130).is_subset_of(&a));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn apply_effects_is_delete_then_add() {
        let mut s = set(10, &[1, 2, 3]);
        let add = set(10, &[3, 4]);
        let del = set(10, &[2, 3]);
        s.apply_effects(&add, &del);
        // 2 deleted; 3 deleted then re-added; 4 added.
        assert_eq!(s, set(10, &[1, 3, 4]));
    }

    #[test]
    fn count_and_intersection() {
        let a = set(200, &[0, 63, 64, 199]);
        let b = set(200, &[63, 64, 65]);
        assert_eq!(a.count(), 4);
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(b.intersection_count(&a), 2);
    }

    #[test]
    fn iter_yields_sorted_ids() {
        let a = set(200, &[199, 0, 64, 63]);
        let ids: Vec<u32> = a.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![0, 63, 64, 199]);
    }

    #[test]
    fn empty_and_is_empty() {
        let s = CondSet::empty(5);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!set(5, &[4]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = CondSet::empty(5);
        s.insert(CondId(5));
    }

    #[test]
    fn equality_and_hash_by_content() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        seen.insert(set(70, &[1, 69]));
        assert!(seen.contains(&set(70, &[69, 1])));
        assert!(!seen.contains(&set(70, &[1])));
    }
}
