//! Process-wide memo of grounded DSL domains.
//!
//! Building a [`crate::ProblemSpec::Dsl`] means lexing, parsing, type
//! checking and grounding two source files — work that is identical for
//! every request carrying the same `(domain, problem)` text, and which the
//! service's session thread repeats (computing a cache key) before a worker
//! ever sees the job. This module memoizes `compile`, failures included,
//! keyed by a signature of the two texts, so a hot domain is ground once
//! and then served as a cheap `Arc` clone. The map is bounded with
//! clear-on-full: `CAPACITY` distinct texts is far beyond any realistic
//! working set, so LRU bookkeeping isn't worth its locking. Each *counted*
//! lookup reports a [`GroundLookup`]; the caller keeps the counters.

use std::sync::{Arc, Mutex, OnceLock};

use gaplan_core::strips::StripsProblem;
use gaplan_core::SigBuilder;
use rustc_hash::FxHashMap;

/// Distinct (domain, problem) texts memoized per process.
const CAPACITY: usize = 128;

/// What a counted lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundLookup {
    /// The pair was already ground for an earlier counted lookup.
    Hit,
    /// This lookup's request is the one the pair was ground for.
    Miss,
}

/// One memoized compile. `miss_pending` marks an entry compiled by an
/// uncounted probe: the first counted lookup to find it is the request that
/// compile was for, so it reports the miss (and clears the mark) instead of
/// a hit.
struct Grounded {
    result: Result<Arc<StripsProblem>, String>,
    miss_pending: bool,
}

type MemoMap = FxHashMap<u64, Grounded>;

fn memo() -> &'static Mutex<MemoMap> {
    static MEMO: OnceLock<Mutex<MemoMap>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// Stable signature of the raw source pair — the memo key. Note this is
/// *textual*: two formattings of the same domain ground twice.
pub fn text_signature(domain: &str, problem: &str) -> u64 {
    let mut s = SigBuilder::new();
    s.tag("dsl-text-v1").str(domain).str(problem);
    s.finish()
}

/// Compile (or fetch) the grounded domain for a source pair. A `counted`
/// lookup also reports whether it hit or missed; an uncounted one (a probe)
/// reports `None`.
///
/// Each request counts exactly once, at its counted lookup. When an
/// uncounted probe already compiled the pair on that request's behalf, the
/// counted lookup finds the entry but still reports the miss the compile
/// was — otherwise every fresh pair probed first would read as a hit.
pub fn ground_cached(
    domain: &str,
    problem: &str,
    counted: bool,
) -> (Result<Arc<StripsProblem>, String>, Option<GroundLookup>) {
    let key = text_signature(domain, problem);
    if let Some(cached) = memo().lock().expect("ground memo mutex poisoned").get_mut(&key) {
        let lookup =
            counted.then(
                || {
                    if std::mem::take(&mut cached.miss_pending) {
                        GroundLookup::Miss
                    } else {
                        GroundLookup::Hit
                    }
                },
            );
        return (cached.result.clone(), lookup);
    }
    // Compile outside the lock: grounding can take milliseconds and other
    // (domain, problem) pairs shouldn't serialize behind it. A racing
    // duplicate insert is deterministic, so last-write-wins is harmless.
    let result = match gaplan_lang::compile(domain, problem) {
        Ok(c) => Ok(Arc::new(c.strips)),
        Err(e) => Err(e.summary()),
    };
    let mut map = memo().lock().unwrap();
    if map.len() >= CAPACITY {
        map.clear();
    }
    map.insert(key, Grounded { result: result.clone(), miss_pending: !counted });
    (result, counted.then_some(GroundLookup::Miss))
}
