//! Transposition table for successor sets.
//!
//! The paper's indirect encoding makes [`Domain::valid_operations`] the inner
//! loop of decoding: every gene of every individual re-enumerates the valid
//! operations of a state the population has almost certainly visited before
//! (crossover preserves whole prefixes; replace-mutation changes a handful of
//! genes). [`SuccessorCache`] memoizes, per state signature, both the
//! valid-op list and its hash (the `ValidOpSet` match key), so each state is
//! paid for once per cache rather than once per individual.
//!
//! Design constraints, in order:
//!
//! * **Determinism.** A lookup returns exactly what
//!   [`Domain::valid_operations`] would have produced, so decoding is
//!   bitwise-identical with the cache on or off, private or shared. Only the
//!   hit/miss/eviction *counters* depend on how the table is used (on or off,
//!   its capacity, and, when service workers share it, which worker misses a
//!   state first), which is why observability masks them in golden traces.
//! * **Bounded memory that follows use.** Each shard behaves as a
//!   direct-mapped table of `capacity / 16` slots: a state's *home* is
//!   `(sig >> 4) % slots_per_shard`, and a colliding insert replaces the
//!   home's previous occupant (counted as an eviction) instead of growing.
//!   That full-size table is only simulated, though: a shard allocates 64
//!   slots on its first insert and keeps entries keyed by home under linear
//!   probing, doubling (and rehashing its live entries) whenever an insert
//!   would take it past half load, until it reaches the full size, where
//!   every entry sits at its home. It therefore holds exactly the entries the
//!   full-size table would, so hits, misses and evictions match it lookup for
//!   lookup, while a cache that sees k distinct states holds at most about
//!   4k slots (plus 64 per touched shard). Replacements are made in place —
//!   the occupant's op-list buffer is reused — so a thrashing table costs no
//!   allocation per miss.
//! * **Cheap sharing.** Sixteen shards behind `parking_lot` mutexes keep the
//!   service workers that share one table for a recurring problem from
//!   serialising on one lock; a hit copies the op list into the caller's
//!   scratch under the shard lock, avoiding per-hit `Arc` traffic.
//!
//! The table pays off only where states recur. Per solve on the benchmark's
//! cold-mix problems, Hanoi-4 hits 0.999 of lookups, the grid pipeline 0.96,
//! the shipped DSL pairs 0.92 and generated DSL problems 0.71, but a shuffled
//! tile-4x4 only 0.38 — there most lookups miss, insert and evict (~2.4k
//! evictions per solve), and the enumeration runs anyway. The GA engine
//! therefore reads [`SuccessorCache::stats`] after each phase's first
//! generation and, below a 0.5 hit fraction, evaluates the rest of the phase
//! uncached. Since a lookup returns exactly what `valid_operations` would,
//! that bypass can change speed but never a result; counters raced by
//! workers sharing one table can make the decision itself racy, with the
//! same guarantee.
//!
//! Keys are [`Domain::state_signature`] values. The default signature is a
//! 64-bit hash, so two distinct states *can* collide; debug builds store the
//! full state in each entry and assert equality on every hit, turning any
//! collision into a loud panic instead of a silent wrong decode. Domains with
//! small state spaces (e.g. Towers of Hanoi) override `state_signature` with
//! an injective packing, making collisions impossible, not just improbable.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::domain::{Domain, OpId};
use crate::sig::hash_one;

/// Number of independently locked shards. Power of two; the low signature
/// bits pick the shard, the remaining bits pick the slot within it.
const SHARDS: usize = 16;

/// Default total capacity of a [`SuccessorCache`], in entries. Sized so the
/// benchmark domains (hanoi ≤ 3^20 reachable states but tiny hot sets, tile
/// and grid much hotter) rarely evict; a cache that fills it holds about
/// 2.5 MiB of slots in release builds, one that sees few states far less.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Slots a shard allocates on its first insert, before doubling toward its
/// full size.
const MIN_SLOTS: usize = 64;

/// One memoized state: its signature, valid-op list, and the FxHash of that
/// list (the decoder's `ValidOpSet` match key, precomputed).
struct Entry<S> {
    sig: u64,
    ops: Vec<OpId>,
    ops_key: u64,
    /// Debug builds keep the state itself so hits can verify the signature
    /// was not a collision.
    #[cfg(debug_assertions)]
    state: S,
    #[cfg(not(debug_assertions))]
    _marker: std::marker::PhantomData<S>,
}

/// Counter snapshot returned by [`SuccessorCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to `valid_operations`.
    pub misses: u64,
    /// Entries replaced by a different state mapping to the same slot.
    pub evictions: u64,
}

impl CacheStats {
    /// Counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.wrapping_sub(earlier.hits),
            misses: self.misses.wrapping_sub(earlier.misses),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
        }
    }

    /// Fraction of lookups served from the table (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard: a linear-probing table of at most `slots_per_shard` slots
/// that holds exactly what a direct-mapped table of that size would.
struct Shard<S> {
    /// Empty until the first insert, then [`MIN_SLOTS`] (or the full size,
    /// if smaller) doubling up to the full size.
    slots: Vec<Option<Entry<S>>>,
    /// Occupied slots.
    live: usize,
}

impl<S> Shard<S> {
    /// The slot holding the entry whose home is `home`, or else the empty
    /// slot where it would go. Below the full size, entries with another
    /// home are probed past; at the full size every entry sits at its home.
    fn find(&self, sig: u64, home: usize, full: usize) -> usize {
        let len = self.slots.len();
        if len == full {
            return home;
        }
        // Below the full size the length is a power of two (MIN_SLOTS doubled).
        let mask = len - 1;
        let mut i = home & mask;
        while let Some(entry) = &self.slots[i] {
            if entry.sig == sig || home_of(entry.sig, full) == home {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    /// Double the table (capped at `full` slots) and re-place every entry.
    fn grow(&mut self, full: usize) {
        let len = (self.slots.len() * 2).clamp(MIN_SLOTS.min(full), full);
        let old = std::mem::replace(&mut self.slots, Vec::with_capacity(len));
        self.slots.resize_with(len, || None);
        for entry in old.into_iter().flatten() {
            let i = self.find(entry.sig, home_of(entry.sig, full), full);
            debug_assert!(self.slots[i].is_none(), "two live entries share a home");
            self.slots[i] = Some(entry);
        }
    }
}

/// Slot of `sig` in a direct-mapped shard of `full` slots.
fn home_of(sig: u64, full: usize) -> usize {
    ((sig >> 4) as usize) % full
}

/// Sharded, bounded transposition table keyed by
/// [`Domain::state_signature`], behaving as a direct-mapped table of
/// [`capacity`](Self::capacity) slots whose memory grows with use. See the
/// module docs for the contract.
pub struct SuccessorCache<S> {
    shards: Vec<Mutex<Shard<S>>>,
    slots_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<S: Clone + PartialEq + Eq + Hash> SuccessorCache<S> {
    /// A cache holding at most (roughly) `capacity` entries; memory is
    /// allocated lazily and grows as entries arrive. Capacities below one
    /// slot per shard are rounded up.
    pub fn new(capacity: usize) -> Self {
        let slots_per_shard = capacity.div_ceil(SHARDS).max(1);
        SuccessorCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard { slots: Vec::new(), live: 0 })).collect(),
            slots_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total number of slots across all shards once fully grown.
    pub fn capacity(&self) -> usize {
        self.slots_per_shard * SHARDS
    }

    /// Memoized [`Domain::valid_operations`]: fill `out` with the valid ops
    /// of `state` (whose signature the caller already computed) and return
    /// the FxHash of that list — the decoder's `ValidOpSet` match key.
    ///
    /// On a hit the ops are copied out of the table; on a miss they are
    /// computed, hashed, and inserted. Either way `out` and the returned key
    /// are exactly what an uncached decode would have produced.
    pub fn successors<D>(&self, domain: &D, state: &S, sig: u64, out: &mut Vec<OpId>) -> u64
    where
        D: Domain<State = S> + ?Sized,
    {
        let full = self.slots_per_shard;
        let home = home_of(sig, full);
        let shard_idx = (sig as usize) % SHARDS;
        {
            let shard = self.shards[shard_idx].lock();
            if !shard.slots.is_empty() {
                if let Some(entry) = &shard.slots[shard.find(sig, home, full)] {
                    if entry.sig == sig {
                        #[cfg(debug_assertions)]
                        debug_assert!(
                            entry.state == *state,
                            "state_signature collision: two distinct states share signature {sig:#x}; \
                             override Domain::state_signature with an injective packing"
                        );
                        out.clear();
                        out.extend_from_slice(&entry.ops);
                        let key = entry.ops_key;
                        drop(shard);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return key;
                    }
                }
            }
        }
        // Miss: compute outside the lock (valid_operations may be costly),
        // then publish. Two threads racing on the same state insert the same
        // value, so losing the race is harmless.
        out.clear();
        domain.valid_operations(state, out);
        let ops_key = hash_one::<Vec<OpId>>(out);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shards[shard_idx].lock();
        if shard.slots.is_empty() {
            shard.grow(full);
        }
        let mut i = shard.find(sig, home, full);
        if shard.slots[i].is_none() && shard.slots.len() < full && 2 * (shard.live + 1) > shard.slots.len() {
            shard.grow(full);
            i = shard.find(sig, home, full);
        }
        match &mut shard.slots[i] {
            // Overwrite the home's occupant in place, reusing its op-list buffer.
            Some(entry) => {
                if entry.sig != sig {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                entry.sig = sig;
                entry.ops.clone_from(out);
                entry.ops_key = ops_key;
                #[cfg(debug_assertions)]
                entry.state.clone_from(state);
            }
            slot @ None => {
                *slot = Some(Entry {
                    sig,
                    ops: out.clone(),
                    ops_key,
                    #[cfg(debug_assertions)]
                    state: state.clone(),
                    #[cfg(not(debug_assertions))]
                    _marker: std::marker::PhantomData,
                });
                shard.live += 1;
            }
        }
        ops_key
    }

    /// Credit `n` hits observed by a caller-side front cache (e.g. a
    /// decoder's private L1 mirroring this table), so `stats()` reports the
    /// cache layer's full effectiveness rather than only the probes that
    /// reached the shared table.
    pub fn credit_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainExt;
    use std::sync::atomic::AtomicUsize;

    /// Counter domain that tallies how often `valid_operations` runs.
    struct Counted {
        calls: AtomicUsize,
    }

    impl Domain for Counted {
        type State = i64;

        fn initial_state(&self) -> i64 {
            0
        }
        fn num_operations(&self) -> usize {
            2
        }
        fn valid_operations(&self, state: &i64, out: &mut Vec<OpId>) {
            self.calls.fetch_add(1, Ordering::Relaxed);
            out.push(OpId(0));
            if *state > 0 {
                out.push(OpId(1));
            }
        }
        fn apply(&self, state: &i64, op: OpId) -> i64 {
            if op.0 == 0 {
                state + 1
            } else {
                state - 1
            }
        }
        fn goal_fitness(&self, state: &i64) -> f64 {
            if *state == 3 {
                1.0
            } else {
                0.0
            }
        }
    }

    fn counted() -> Counted {
        Counted { calls: AtomicUsize::new(0) }
    }

    #[test]
    fn hit_returns_same_ops_and_key_as_miss() {
        let d = counted();
        let cache = SuccessorCache::new(64);
        let state = 5i64;
        let sig = d.state_signature(&state);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let k1 = cache.successors(&d, &state, sig, &mut a);
        let k2 = cache.successors(&d, &state, sig, &mut b);
        assert_eq!(a, b);
        assert_eq!(k1, k2);
        assert_eq!(d.calls.load(Ordering::Relaxed), 1, "second lookup must be a hit");
        assert_eq!(a, d.valid_ops_vec(&state));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn ops_key_matches_uncached_valid_op_set_hash() {
        // The decoder's `ValidOpSet` match key is `hash_one` of the scratch
        // vector; the cached key must be byte-identical to it.
        let d = counted();
        let cache = SuccessorCache::new(64);
        for state in [-2i64, 0, 1, 7] {
            let sig = d.state_signature(&state);
            let mut out = Vec::new();
            let key = cache.successors(&d, &state, sig, &mut out);
            assert_eq!(key, hash_one(&d.valid_ops_vec(&state)));
        }
    }

    #[test]
    fn vec_hash_equals_repopulated_vec_hash() {
        // `hash_one(&Vec<OpId>)` must not depend on capacity or provenance:
        // a cloned entry and the caller's reused scratch hash identically.
        let ops = vec![OpId(3), OpId(1), OpId(4)];
        let mut scratch = Vec::with_capacity(128);
        scratch.extend_from_slice(&ops);
        assert_eq!(hash_one(&ops), hash_one(&scratch));
    }

    #[test]
    fn capacity_is_bounded_and_evictions_are_counted() {
        let d = counted();
        // 16 shards × 1 slot: 16 total slots, so 1000 distinct states must
        // recycle them rather than grow.
        let cache = SuccessorCache::<i64>::new(1);
        assert_eq!(cache.capacity(), 16);
        let mut out = Vec::new();
        for s in 0..1000i64 {
            let sig = d.state_signature(&s);
            cache.successors(&d, &s, sig, &mut out);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1000);
        assert!(stats.evictions > 0, "direct-mapped slots must evict under pressure");
        // Memory bound: no shard ever holds more than slots_per_shard slots.
        for shard in &cache.shards {
            assert!(shard.lock().slots.len() <= cache.slots_per_shard);
        }
    }

    /// Domain whose valid-op list differs from state to state, so a lookup
    /// answered from the wrong entry shows.
    struct Spread;

    impl Domain for Spread {
        type State = u64;

        fn initial_state(&self) -> u64 {
            0
        }
        fn num_operations(&self) -> usize {
            10
        }
        fn valid_operations(&self, state: &u64, out: &mut Vec<OpId>) {
            out.push(OpId((state % 5) as u32));
            out.push(OpId((state / 5 % 5 + 5) as u32));
        }
        fn apply(&self, state: &u64, op: OpId) -> u64 {
            state.wrapping_mul(31).wrapping_add(u64::from(op.0))
        }
        fn goal_fitness(&self, _state: &u64) -> f64 {
            0.0
        }
    }

    /// Slots currently allocated across all shards.
    fn allocated<S>(cache: &SuccessorCache<S>) -> usize {
        cache.shards.iter().map(|shard| shard.lock().slots.len()).sum()
    }

    /// xorshift64 stream of states in `0..n`.
    fn states(seed: u64, n: u64, count: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..count)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            })
            .collect()
    }

    #[test]
    fn growing_shards_count_exactly_like_a_full_size_direct_mapped_table() {
        // Reference: one signature per slot of a full-size table, home
        // `(sig >> 4) % slots_per_shard` within shard `sig % 16`.
        for (capacity, universe) in [(1 << 12, 3000), (1 << 12, 300), (1000, 5000), (1 << 16, 20_000)] {
            let cache = SuccessorCache::<u64>::new(capacity);
            let full = cache.slots_per_shard;
            let mut table: Vec<Option<u64>> = vec![None; cache.capacity()];
            let mut expected = CacheStats::default();
            let mut out = Vec::new();
            for s in states(capacity as u64, universe, 40_000) {
                let sig = Spread.state_signature(&s);
                let slot = &mut table[(sig as usize % SHARDS) * full + home_of(sig, full)];
                match *slot {
                    Some(occupant) if occupant == sig => expected.hits += 1,
                    Some(_) => {
                        expected.misses += 1;
                        expected.evictions += 1;
                    }
                    None => expected.misses += 1,
                }
                *slot = Some(sig);
                let key = cache.successors(&Spread, &s, sig, &mut out);
                assert_eq!(out, Spread.valid_ops_vec(&s));
                assert_eq!(key, hash_one(&out));
            }
            assert_eq!(cache.stats(), expected, "capacity {capacity}, {universe} states");
        }
    }

    #[test]
    fn concurrent_probes_stay_exact_across_growth() {
        use std::sync::Arc;
        let cache = Arc::new(SuccessorCache::<u64>::new(1 << 14));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                let start = &start;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    start.wait();
                    for s in states(t + 1, 6000, 20_000) {
                        let sig = Spread.state_signature(&s);
                        let key = cache.successors(&Spread, &s, sig, &mut out);
                        let expected = Spread.valid_ops_vec(&s);
                        assert_eq!(out, expected, "state {s}");
                        assert_eq!(key, hash_one(&expected), "state {s}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 80_000);
        for shard in &cache.shards {
            let shard = shard.lock();
            assert!(shard.slots.len() <= cache.capacity() / SHARDS);
            assert_eq!(shard.live, shard.slots.iter().flatten().count());
        }
    }

    #[test]
    fn allocation_follows_distinct_entries() {
        let cache = SuccessorCache::<u64>::new(DEFAULT_CAPACITY);
        assert_eq!(allocated(&cache), 0, "nothing is allocated before the first insert");
        let mut out = Vec::new();
        let mut inserted = 0;
        for k in [1usize, 10, 100, 1000, 4000] {
            while inserted < k {
                let s = inserted as u64;
                cache.successors(&Spread, &s, Spread.state_signature(&s), &mut out);
                inserted += 1;
            }
            // At most half load before each doubling, one minimum-size
            // table per shard.
            assert!(allocated(&cache) <= 4 * k + SHARDS * MIN_SLOTS, "{k} entries in {} slots", allocated(&cache));
        }
        assert!(allocated(&cache) < cache.capacity() / 4);
        // Enough distinct states fill every shard to exactly its full size.
        for s in 4000..400_000u64 {
            cache.successors(&Spread, &s, Spread.state_signature(&s), &mut out);
        }
        for shard in &cache.shards {
            assert_eq!(shard.lock().slots.len(), cache.capacity() / SHARDS);
        }
    }

    #[test]
    fn evicted_entries_are_recomputed_correctly() {
        let d = counted();
        let cache = SuccessorCache::<i64>::new(1);
        let mut out = Vec::new();
        for round in 0..3 {
            for s in 0..100i64 {
                let sig = d.state_signature(&s);
                let key = cache.successors(&d, &s, sig, &mut out);
                assert_eq!(out, d.valid_ops_vec(&s), "round {round} state {s}");
                assert_eq!(key, hash_one(&d.valid_ops_vec(&s)));
            }
        }
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let d = Arc::new(counted());
        let cache = Arc::new(SuccessorCache::new(256));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let d = Arc::clone(&d);
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for s in 0..50i64 {
                        let sig = d.state_signature(&s);
                        let key = cache.successors(&*d, &s, sig, &mut out);
                        assert_eq!(key, hash_one(&out));
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.hits >= 100, "at least the three late threads should mostly hit");
    }
}
