//! Metrics primitive: the log2-bucket histogram.
//!
//! The histogram trades resolution for mergeability: 64 power-of-two
//! buckets make `merge` a bucket-wise add, which is associative and
//! commutative (property-tested in `tests/prop_obs.rs`) — so per-worker
//! histograms can be folded into a service-wide snapshot in any order.

const BUCKETS: usize = 64;

/// A log2-bucket histogram over `u64` samples. Bucket `b` holds samples
/// whose highest set bit is `b` (with 0 landing in bucket 0), so the
/// bucket's inclusive upper bound is `2^(b+1) - 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index`.
    pub fn bucket_upper(index: usize) -> u64 {
        if index >= 63 {
            u64::MAX
        } else {
            (2u64 << index) - 1
        }
    }

    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold `other` into `self`. Bucket-wise addition: associative,
    /// commutative, with the empty histogram as identity.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`), or 0 for an empty histogram. Returning the
    /// bucket bound keeps the result an exact integer, so it can live in
    /// `Eq`-deriving reports.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(index);
            }
        }
        Self::bucket_upper(BUCKETS - 1)
    }

    /// `(inclusive upper bound, count)` for each non-empty bucket, in
    /// ascending order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(index, &n)| (Self::bucket_upper(index), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
        assert_eq!(Histogram::bucket_upper(0), 1);
        assert_eq!(Histogram::bucket_upper(1), 3);
        assert_eq!(Histogram::bucket_upper(2), 7);
        assert_eq!(Histogram::bucket_upper(63), u64::MAX);
    }

    #[test]
    fn record_merge_and_quantiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [0, 1, 2, 3] {
            a.record(v);
        }
        for v in [100, 200] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), 306);
        // Samples by bucket upper bound: 1:{0,1} 3:{2,3} 127:{100} 255:{200}.
        assert_eq!(a.quantile_upper(0.0), 1);
        assert_eq!(a.quantile_upper(0.5), 3);
        assert_eq!(a.quantile_upper(1.0), 255);
        assert_eq!(a.nonzero_buckets(), vec![(1, 2), (3, 2), (127, 1), (255, 1)]);
    }

    #[test]
    fn empty_histogram_is_merge_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        assert_eq!(Histogram::new().quantile_upper(0.99), 0);
        assert_eq!(Histogram::new().mean(), 0.0);
    }
}
