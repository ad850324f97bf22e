//! Property tests for the observability primitives: histogram merge is
//! associative and commutative, and the span stack tolerates arbitrary
//! enter/exit interleavings without ever underflowing.

use gaplan_obs::{Histogram, SpanStack};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// `a ⊕ b == b ⊕ a`: per-worker histograms can be folded in any order.
    #[test]
    fn histogram_merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..200),
        b in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`, with the empty histogram as identity.
    #[test]
    fn histogram_merge_is_associative_with_identity(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
        c in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_tail = hb.clone();
        right_tail.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right);
        let mut with_identity = left.clone();
        with_identity.merge(&Histogram::new());
        prop_assert_eq!(with_identity, left);
    }

    /// Merging singleton histograms equals recording the concatenation:
    /// merge loses nothing relative to a single-owner histogram.
    #[test]
    fn histogram_merge_equals_bulk_record(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let both: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.count(), both.len() as u64);
        prop_assert_eq!(merged, hist_of(&both));
    }

    /// Quantile bounds are sound (every recorded sample is `<=` the p100
    /// bound) and monotone in `q`.
    #[test]
    fn histogram_quantiles_are_monotone_and_bound_samples(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        qa in 0.0f64..=1.0,
        qb in 0.0f64..=1.0,
    ) {
        let h = hist_of(&values);
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.quantile_upper(lo) <= h.quantile_upper(hi));
        let max = *values.iter().max().unwrap();
        prop_assert!(max <= h.quantile_upper(1.0));
    }

    /// The span stack survives arbitrary enter/exit interleavings: depth
    /// tracks the running balance clamped at zero, excess exits are counted
    /// as underflows, and names pop in LIFO order.
    #[test]
    fn span_stack_never_underflows(ops in proptest::collection::vec(any::<bool>(), 0..300)) {
        let mut s = SpanStack::new();
        let mut model: Vec<String> = Vec::new();
        let mut underflows = 0u64;
        for (i, &enter) in ops.iter().enumerate() {
            if enter {
                let name = format!("span{i}");
                s.enter(&name);
                model.push(name);
            } else {
                let popped = s.exit();
                match model.pop() {
                    Some(expected) => prop_assert_eq!(popped, Some(expected)),
                    None => {
                        underflows += 1;
                        prop_assert_eq!(&popped, &None);
                    }
                }
            }
            prop_assert_eq!(s.depth(), model.len());
            prop_assert_eq!(s.underflows(), underflows);
            prop_assert!(s.max_depth() >= s.depth());
            prop_assert_eq!(s.current(), model.last().map(String::as_str));
        }
        prop_assert_eq!(s.path(), model.join("/"));
    }
}
