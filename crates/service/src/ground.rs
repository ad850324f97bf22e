//! Process-wide cache of grounded DSL domains.
//!
//! Building a [`crate::ProblemSpec::Dsl`] means lexing, parsing, type
//! checking and grounding two source files — work that is identical for
//! every request carrying the same `(domain, problem)` text, and which the
//! session thread repeats via [`crate::PlanRequest::cache_key`] before a
//! worker ever sees the job. This module memoizes `compile` keyed by a
//! signature of the two texts, so a hot domain is ground once and then
//! served as a cheap `Arc` clone. Compile *failures* are cached too: a
//! malformed domain resubmitted in a tight loop costs one hash lookup, not
//! a re-parse.
//!
//! The cache is a plain bounded map with clear-on-full (the same policy as
//! the worker succ-cache pool): grounded domains are a few hundred KB at
//! most and `CAPACITY` distinct texts per process is already far beyond any
//! realistic working set, so LRU bookkeeping isn't worth its locking.

use std::sync::{Arc, Mutex, OnceLock};

use gaplan_core::strips::StripsProblem;
use gaplan_core::SigBuilder;
use rustc_hash::FxHashMap;

use crate::metrics::{Metric, Metrics};

/// Distinct (domain, problem) texts cached per process.
const CAPACITY: usize = 128;

/// One memoized compile. `miss_pending` marks an entry compiled by an
/// uncounted probe: the first counted lookup to find it is the request that
/// compile was for, so it counts the miss (and clears the mark) instead of
/// a hit.
struct Grounded {
    result: Result<Arc<StripsProblem>, String>,
    miss_pending: bool,
}

type CacheMap = FxHashMap<u64, Grounded>;

fn cache() -> &'static Mutex<CacheMap> {
    static CACHE: OnceLock<Mutex<CacheMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// Stable signature of the raw source pair — the ground-cache key. Note
/// this is *textual*: two formattings of the same domain ground twice (and
/// then collide in the plan cache via the structural problem signature).
pub fn text_signature(domain: &str, problem: &str) -> u64 {
    let mut s = SigBuilder::new();
    s.tag("dsl-text-v1").str(domain).str(problem);
    s.finish()
}

/// Compile (or fetch) the grounded domain for a source pair. Counts a
/// ground-cache hit/miss on `metrics` when provided; probe-only callers
/// (the session thread computing cache keys) pass `None`.
///
/// Each request counts exactly once, at its counted lookup. When an
/// uncounted probe already compiled the pair on that request's behalf, the
/// counted lookup finds the entry but still counts the miss the compile
/// was — otherwise every fresh pair probed first would read as a hit.
pub fn ground_cached(domain: &str, problem: &str, metrics: Option<&Metrics>) -> Result<Arc<StripsProblem>, String> {
    let key = text_signature(domain, problem);
    if let Some(cached) = cache().lock().expect("ground cache mutex poisoned").get_mut(&key) {
        if let Some(m) = metrics {
            if std::mem::take(&mut cached.miss_pending) {
                m.inc(Metric::GroundCacheMisses);
            } else {
                m.inc(Metric::GroundCacheHits);
            }
        }
        return cached.result.clone();
    }
    // Compile outside the lock: grounding can take milliseconds and other
    // (domain, problem) pairs shouldn't serialize behind it. A racing
    // duplicate insert is deterministic, so last-write-wins is harmless.
    let result = match gaplan_lang::compile(domain, problem) {
        Ok(c) => Ok(Arc::new(c.strips)),
        Err(e) => Err(e.summary()),
    };
    if let Some(m) = metrics {
        m.inc(Metric::GroundCacheMisses);
    }
    let mut map = cache().lock().unwrap();
    if map.len() >= CAPACITY {
        map.clear();
    }
    map.insert(key, Grounded { result: result.clone(), miss_pending: metrics.is_none() });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOM: &str = "domain d\ntype t\npred p(x: t)\naction go(x: t)\n  pre: p(x)\n  del: p(x)\n";
    const PROB: &str = "problem q domain d\nobjects a: t\ninit: p(a)\ngoal: p(a)\n";

    #[test]
    fn hit_counts_and_identity() {
        let m = Metrics::new();
        let first = ground_cached(DOM, PROB, Some(&m)).unwrap();
        let second = ground_cached(DOM, PROB, Some(&m)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second build must be served from the cache");
        let s = m.snapshot();
        assert_eq!(s[Metric::GroundCacheMisses], 1);
        assert_eq!(s[Metric::GroundCacheHits], 1);
    }

    #[test]
    fn failures_are_cached() {
        let m = Metrics::new();
        let bad = "domain broken\n!";
        assert!(ground_cached(bad, PROB, Some(&m)).is_err());
        assert!(ground_cached(bad, PROB, Some(&m)).is_err());
        assert_eq!(m.snapshot()[Metric::GroundCacheHits], 1);
    }

    #[test]
    fn uncounted_probe_leaves_metrics_alone() {
        let m = Metrics::new();
        let _ = ground_cached(DOM, "problem q2 domain d\nobjects b: t\ninit: p(b)\ngoal: p(b)\n", None);
        assert_eq!(m.snapshot()[Metric::GroundCacheMisses], 0);
    }

    #[test]
    fn probe_compile_is_counted_as_a_miss_by_the_next_counted_lookup() {
        let m = Metrics::new();
        let prob = "problem q3 domain d\nobjects c: t\ninit: p(c)\ngoal: p(c)\n";
        // Request 1: the probe compiles, the counted lookup finds the entry.
        let _ = ground_cached(DOM, prob, None);
        let _ = ground_cached(DOM, prob, Some(&m));
        // Request 2: same pair, probe then counted lookup, both find it.
        let _ = ground_cached(DOM, prob, None);
        let _ = ground_cached(DOM, prob, Some(&m));
        let s = m.snapshot();
        assert_eq!((s[Metric::GroundCacheMisses], s[Metric::GroundCacheHits]), (1, 1));
    }
}
