//! Ground-cache accounting: a worker builds its job with one counted
//! lookup in the problem model's DSL memo ([`gaplan_problem::ground`]) and
//! counts the reported hit or miss here; probes stay uncounted.

use gaplan_problem::ground::GroundLookup;

use crate::metrics::{Metric, Metrics};

/// Count a counted lookup's hit or miss (nothing for `None`: no DSL
/// lookup) and pass its result through.
pub fn count<T>(metrics: &Metrics, (result, lookup): (T, Option<GroundLookup>)) -> T {
    match lookup {
        Some(GroundLookup::Hit) => metrics.inc(Metric::GroundCacheHits),
        Some(GroundLookup::Miss) => metrics.inc(Metric::GroundCacheMisses),
        None => {}
    }
    result
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gaplan_core::strips::StripsProblem;

    use super::*;

    /// One lookup as a worker (`Some`) or a probe (`None`) makes it.
    fn ground_cached(domain: &str, problem: &str, metrics: Option<&Metrics>) -> Result<Arc<StripsProblem>, String> {
        let lookup = gaplan_problem::ground::ground_cached(domain, problem, metrics.is_some());
        match metrics {
            Some(m) => count(m, lookup),
            None => lookup.0,
        }
    }

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
