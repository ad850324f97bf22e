//! Indirect genome decoding (paper §3.1).
//!
//! Each gene is a float `g ∈ [0, 1)`. If the state reached so far has `k`
//! valid operations, the gene maps to the operation at index `⌊g·k⌋` of the
//! domain's deterministic valid-operation ordering. The paper's example:
//! with four valid operations `o1..o4`, `[0, 0.25) → o1`, `[0.25, 0.5) → o2`
//! and so on. Decoding therefore *cannot* produce an invalid operation, and
//! the match fitness (Eq. 1) is identically 1.

use gaplan_core::{Domain, OpId, SuccessorCache};

use crate::config::{GoalEval, StateMatchMode};
use crate::Fitness;

/// Checkpoint of an individual's *unchanged prefix*, borrowed from the donor
/// parent's decode so re-decoding can replay the prefix instead of
/// re-deriving it.
///
/// Crossover copies genes `0..cut` of a parent verbatim into a child, and
/// replace-mutation leaves genes before the first flipped locus untouched.
/// The engine records this as each arena individual's
/// [`Provenance`](crate::arena::Provenance) and resolves it to a `PrefixRef`
/// at evaluation time, sliced straight out of the donor's `Evaluated`, so
/// breeding allocates nothing for hints. Decoding is a pure function of
/// `(start, genes)`, so the child's decode of that prefix is *guaranteed* to
/// equal the parent's: the same ops, the same match keys, the same
/// intermediate states. [`Decoder::decode_ref`] replays the prefix —
/// re-applying ops and re-accumulating cost/goal fitness bitwise-identically,
/// but skipping every `valid_operations` enumeration and match-key hash — and
/// resumes ordinary decoding at the first changed locus.
///
/// Invariants (upheld by construction, checked in tests):
/// * `ops.len() == keys.len() == goals.len()`, one entry per replayed gene;
/// * the hint covers at most the donor's `decoded_len` (genes the donor never
///   decoded — past a goal truncation or dead end — are not replayable);
/// * a hint is only attached to a child sharing the donor's start state and
///   its first `len()` genes.
#[derive(Debug, Clone, Copy)]
pub struct PrefixRef<'a> {
    ops: &'a [OpId],
    keys: &'a [u64],
    goals: &'a [f64],
}

impl<'a> PrefixRef<'a> {
    /// Borrow the first `prefix_genes` genes of a donor's decode outputs
    /// (including its per-step goal memo, so replay never re-computes goal
    /// fitness). Capped at the donor's decoded length: genes the donor never
    /// decoded cannot be replayed.
    pub fn new(
        donor_ops: &'a [OpId],
        donor_keys: &'a [u64],
        donor_goals: &'a [f64],
        prefix_genes: usize,
    ) -> PrefixRef<'a> {
        let k = prefix_genes.min(donor_ops.len()).min(donor_goals.len());
        debug_assert!(donor_keys.len() > donor_ops.len(), "match_keys must have decoded_len + 1 entries");
        debug_assert_eq!(donor_goals.len(), donor_ops.len(), "step_goals must have one entry per op");
        PrefixRef { ops: &donor_ops[..k], keys: &donor_keys[..k], goals: &donor_goals[..k] }
    }

    /// Number of replayable genes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the hint replays nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The result of decoding a genome from a start state.
#[derive(Debug, Clone)]
pub struct Decoded<S> {
    /// The decoded operation sequence (all valid by construction).
    pub ops: Vec<OpId>,
    /// Per-locus match keys: `match_keys[i]` identifies the decode state
    /// *before* gene `i`; the final entry identifies the final state. Used
    /// by state-aware crossover (two loci match iff their keys are equal).
    pub match_keys: Vec<u64>,
    /// Goal fitness after each decoded op (`step_goals[i]` is the goal of
    /// the state reached by `ops[..=i]`). A memo for prefix replay: a child
    /// sharing this decode's prefix reads these values instead of
    /// re-computing (or re-hashing) goal fitness along the prefix.
    pub step_goals: Vec<f64>,
    /// The state after applying every decoded operation.
    pub final_state: S,
    /// Total cost of the decoded operations.
    pub cost: f64,
    /// Number of genes actually decoded. Less than the genome length when
    /// decoding stopped early (goal truncation or a dead-end state with no
    /// valid operations).
    pub decoded_len: usize,
    /// Whether some decoded prefix (or the final state) satisfies the goal.
    pub reached_goal: bool,
    /// Highest goal fitness over all states visited (including start and
    /// final), used by `GoalEval::BestPrefix`.
    pub best_prefix_goal: f64,
    /// Number of operations of the prefix achieving `best_prefix_goal`.
    pub best_prefix_at: usize,
    /// The state reached by that prefix (used for phase chaining under
    /// `GoalEval::BestPrefix`).
    pub best_prefix_state: S,
}

/// A reusable decoder. Holds the scratch buffer for valid-operation lists so
/// per-individual decoding allocates only the output vectors; rayon workers
/// each keep their own `Decoder` (`map_init`).
///
/// When decoding through a [`SuccessorCache`], the decoder additionally
/// keeps a private, lock-free L1 front cache of recent successor lists, so
/// the hot path (re-visiting a state this worker just saw) costs a signature
/// compare and a copy instead of a shard lock. L1 hits are credited back to
/// the shared cache's statistics; correctness is unaffected — the L1 stores
/// exactly what the shared cache returned.
#[derive(Debug, Default, Clone)]
pub struct Decoder {
    scratch: Vec<OpId>,
    /// Direct-mapped L1 front cache (see [`L1Entry`]).
    l1: Vec<Option<L1Entry>>,
    /// Identity of the shared cache the L1 mirrors (its address); a decoder
    /// handed a different cache drops its L1 rather than serve stale lists.
    l1_of: usize,
    /// L1 hits not yet credited to the shared cache's counters.
    l1_hits: u64,
    /// Recycled output buffers (see [`Decoder::recycle`]): capacity handed
    /// back by a caller done with a `Decoded`, refilled by the next decode
    /// instead of fresh allocations.
    spare_ops: Vec<OpId>,
    spare_keys: Vec<u64>,
    spare_goals: Vec<f64>,
    /// Signature of the state about to be probed, pre-computed by
    /// [`Decoder::goal_of`] so the decode loop hashes each state once, not
    /// twice (once for the goal lookup, once for the successor probe).
    pending_sig: Option<u64>,
}

/// One L1 slot: everything the decode loop needs about a state, keyed by its
/// signature. `goal` is filled lazily the first time the loop asks for the
/// state's goal fitness.
#[derive(Debug, Clone)]
struct L1Entry {
    sig: u64,
    key: u64,
    ops: Vec<OpId>,
    goal: Option<f64>,
}

/// Slots in a decoder's L1 front cache. Covers all 3^7 = 2187 Hanoi-7
/// states with room to spare; bigger state spaces degrade gracefully to the
/// shared cache.
const L1_SLOTS: usize = 4096;

/// Map one gene to an index into a `k`-element valid-operation list.
#[inline]
pub fn gene_to_index(gene: f64, k: usize) -> usize {
    debug_assert!(k > 0);
    // genes live in [0,1) so gene*k < k, but guard against accumulated
    // floating error at the boundary anyway.
    ((gene * k as f64) as usize).min(k - 1)
}

impl Decoder {
    /// A fresh decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Hand a spent [`Decoded`] back to the decoder. Its output vectors
    /// become the scratch the next decode refills (cleared first), so a
    /// worker that decodes in a loop and discards or strips each result pays
    /// for its output allocations once, not per individual. Purely an
    /// allocation recycler — decode results are unaffected.
    pub fn recycle<S>(&mut self, decoded: Decoded<S>) {
        self.spare_ops = decoded.ops;
        self.spare_keys = decoded.match_keys;
        self.spare_goals = decoded.step_goals;
    }

    /// Decode `genes` against `domain`, starting from `start`.
    ///
    /// * `truncate_at_goal`: stop decoding at the first goal state reached
    ///   (see `GaConfig::truncate_at_goal` for the fidelity discussion).
    /// * `match_mode`: what the per-locus match keys identify (full state
    ///   signature, or the valid-op multiset of the state).
    /// * `cache`: an optional shared [`SuccessorCache`] (memoized
    ///   `valid_operations` + match keys).
    /// * `hint`: an optional [`PrefixRef`] (replay of the unchanged prefix).
    ///
    /// Cache and hint are pure optimizations — the returned [`Decoded`] is
    /// bitwise-identical to an uncached, hintless decode.
    #[allow(clippy::too_many_arguments)]
    pub fn decode_ref<D: Domain>(
        &mut self,
        domain: &D,
        start: &D::State,
        genes: &[f64],
        truncate_at_goal: bool,
        match_mode: StateMatchMode,
        cache: Option<&SuccessorCache<D::State>>,
        hint: Option<PrefixRef<'_>>,
    ) -> Decoded<D::State> {
        self.pending_sig = None;
        if let Some(cache) = cache {
            self.ensure_l1(domain, cache);
        }
        let mut ops = std::mem::take(&mut self.spare_ops);
        ops.clear();
        ops.reserve(genes.len());
        let mut match_keys = std::mem::take(&mut self.spare_keys);
        match_keys.clear();
        match_keys.reserve(genes.len() + 1);
        let mut step_goals = std::mem::take(&mut self.spare_goals);
        step_goals.clear();
        step_goals.reserve(genes.len());
        let mut state = start.clone();
        // Ping-pong buffer: `apply_into` writes the successor here, then the
        // buffers swap. States are never allocated per step — domains that
        // override `apply_into` reuse the buffer's storage.
        let mut next = start.clone();
        let mut cost = 0.0;
        let mut best_prefix_goal =
            if cache.is_some() { self.goal_of(domain, &state) } else { domain.goal_fitness(&state) };
        let mut best_prefix_at = 0usize;
        let mut best_prefix_state = state.clone();
        let mut reached_goal = best_prefix_goal >= 1.0;

        // Replay the unchanged prefix: the donor decoded these exact genes
        // from this exact start, so its ops, match keys and step goals are
        // this decode's ops, match keys and step goals — copied over
        // verbatim. `valid_operations`, key hashing and goal evaluation are
        // all skipped; only the state evolution (one `apply_into` per op)
        // and the float cost accumulation are re-run, in the original order
        // (bitwise determinism). Dead ends cannot occur inside the prefix —
        // the donor decoded an op at each of these states, so none was a
        // dead end.
        if let Some(hint) = hint {
            // Pass 1, over the memoized goals only: how far the replay runs
            // (the donor may have decoded past a goal state this decode must
            // truncate at), the best-prefix argmax, and goal attainment —
            // all without touching any state.
            let avail = hint.ops.len().min(genes.len());
            let mut k = avail;
            if truncate_at_goal && reached_goal {
                k = 0;
            } else if truncate_at_goal {
                if let Some(i) = hint.goals[..avail].iter().position(|&g| g >= 1.0) {
                    k = i + 1;
                }
            }
            let goals = &hint.goals[..k];
            for (i, &g) in goals.iter().enumerate() {
                if g > best_prefix_goal {
                    best_prefix_goal = g;
                    best_prefix_at = i + 1;
                }
            }
            if !reached_goal && goals.iter().any(|&g| g >= 1.0) {
                reached_goal = true;
            }
            // Pass 2: evolve the state through the replayed ops, capturing
            // the best-prefix state as it goes by.
            for (i, &op) in hint.ops[..k].iter().enumerate() {
                cost += domain.op_cost(op);
                domain.apply_into(&state, op, &mut next);
                std::mem::swap(&mut state, &mut next);
                debug_assert_eq!(
                    hint.goals[i].to_bits(),
                    domain.goal_fitness(&state).to_bits(),
                    "stale memoized step goal"
                );
                if i + 1 == best_prefix_at {
                    best_prefix_state.clone_from(&state);
                }
            }
            // Pass 3: bulk-copy the donor's outputs for the replayed genes.
            ops.extend_from_slice(&hint.ops[..k]);
            match_keys.extend_from_slice(&hint.keys[..k]);
            step_goals.extend_from_slice(goals);
            // The goal probe before the replay stashed the *start* state's
            // signature for the next pick; if the replay moved the state,
            // that memo is stale and the next probe must re-hash.
            if k > 0 {
                self.pending_sig = None;
            }
        }

        for &gene in &genes[ops.len()..] {
            if truncate_at_goal && reached_goal {
                break;
            }
            // One cache probe yields the valid-op list *and* this state's
            // match key (the signature it was keyed by, or the memoized
            // valid-op-set hash); the uncached path enumerates and hashes.
            // `None` for the op means a dead-end state: the paper's domains
            // always have valid operations, but STRIPS/grid domains may not.
            // Remaining genes are ignored.
            let (key, op) = match cache {
                Some(cache) => {
                    let (sig, ops_key, op) = self.pick(domain, &state, cache, gene);
                    let key = match match_mode {
                        StateMatchMode::ExactState => sig,
                        StateMatchMode::ValidOpSet => ops_key,
                    };
                    (key, op)
                }
                None => {
                    self.scratch.clear();
                    domain.valid_operations(&state, &mut self.scratch);
                    if self.scratch.is_empty() {
                        break;
                    }
                    // The list just enumerated is this state's valid-op
                    // set: hash it rather than enumerate a second time.
                    let key = match match_mode {
                        StateMatchMode::ExactState => domain.state_signature(&state),
                        StateMatchMode::ValidOpSet => gaplan_core::hash_one(&self.scratch),
                    };
                    (key, Some(self.scratch[gene_to_index(gene, self.scratch.len())]))
                }
            };
            let Some(op) = op else {
                break;
            };
            match_keys.push(key);
            cost += domain.op_cost(op);
            domain.apply_into(&state, op, &mut next);
            std::mem::swap(&mut state, &mut next);
            ops.push(op);
            let g = if cache.is_some() { self.goal_of(domain, &state) } else { domain.goal_fitness(&state) };
            step_goals.push(g);
            if g > best_prefix_goal {
                best_prefix_goal = g;
                best_prefix_at = ops.len();
                best_prefix_state.clone_from(&state);
            }
            if !reached_goal && g >= 1.0 {
                reached_goal = true;
            }
        }
        match_keys.push(match cache {
            Some(cache) => {
                let (sig, ops_key) = self.probe(domain, &state, cache);
                match match_mode {
                    StateMatchMode::ExactState => sig,
                    StateMatchMode::ValidOpSet => ops_key,
                }
            }
            None => self.match_key(domain, &state, match_mode),
        });
        if let Some(cache) = cache {
            if self.l1_hits > 0 {
                cache.credit_hits(std::mem::take(&mut self.l1_hits));
            }
        }

        Decoded {
            decoded_len: ops.len(),
            ops,
            match_keys,
            step_goals,
            final_state: state,
            cost,
            reached_goal,
            best_prefix_goal,
            best_prefix_at,
            best_prefix_state,
        }
    }

    /// (Re)arm the L1 for a `(domain, cache)` pairing, identified by the
    /// pair of addresses. A decoder that switches to a different cache or
    /// domain drops its L1 instead of serving lists memoized for another
    /// world. (Address identity is a heuristic: a freed-and-reallocated
    /// cache at the same address with the same state type could alias, but
    /// every in-tree caller builds a fresh `Decoder` per evaluation batch.)
    fn ensure_l1<D: Domain>(&mut self, domain: &D, cache: &SuccessorCache<D::State>) {
        let id = (cache as *const SuccessorCache<D::State> as usize) ^ (domain as *const D as *const () as usize);
        if self.l1_of != id || self.l1.is_empty() {
            self.l1.clear();
            self.l1.resize_with(L1_SLOTS, || None);
            self.l1_of = id;
            self.l1_hits = 0;
        }
    }

    /// Probe the L1 front cache for the state's match keys, falling back to
    /// the shared cache. Returns `(state_signature, memoized ValidOpSet
    /// key)`. On an L1 hit nothing is copied; on a miss the shared cache
    /// fills `self.scratch` as a side effect.
    fn probe<D: Domain>(&mut self, domain: &D, state: &D::State, cache: &SuccessorCache<D::State>) -> (u64, u64) {
        let sig = match self.pending_sig.take() {
            Some(sig) => sig,
            None => domain.state_signature(state),
        };
        debug_assert_eq!(sig, domain.state_signature(state), "stale pending signature");
        // Low bits index the L1: injective signature packings (hanoi's
        // base-3 fold) produce *dense* sigs, which low bits spread perfectly
        // and high bits collapse.
        let slot = sig as usize % L1_SLOTS;
        if let Some(e) = &self.l1[slot] {
            if e.sig == sig {
                self.l1_hits += 1;
                return (sig, e.key);
            }
        }
        let key = cache.successors(domain, state, sig, &mut self.scratch);
        self.store_l1(slot, sig, key);
        (sig, key)
    }

    /// [`Decoder::probe`] fused with the gene→op pick: on an L1 hit the op
    /// is read straight out of the resident entry — no copy of the valid-op
    /// list into scratch (the former per-step cost of the cached decode
    /// loop). Returns `(state_signature, ValidOpSet key, op)`; `op` is
    /// `None` at a dead-end state.
    fn pick<D: Domain>(
        &mut self,
        domain: &D,
        state: &D::State,
        cache: &SuccessorCache<D::State>,
        gene: f64,
    ) -> (u64, u64, Option<OpId>) {
        let sig = match self.pending_sig.take() {
            Some(sig) => sig,
            None => domain.state_signature(state),
        };
        debug_assert_eq!(sig, domain.state_signature(state), "stale pending signature");
        let slot = sig as usize % L1_SLOTS;
        if let Some(e) = &self.l1[slot] {
            if e.sig == sig {
                self.l1_hits += 1;
                let op = if e.ops.is_empty() { None } else { Some(e.ops[gene_to_index(gene, e.ops.len())]) };
                return (sig, e.key, op);
            }
        }
        let key = cache.successors(domain, state, sig, &mut self.scratch);
        let op =
            if self.scratch.is_empty() { None } else { Some(self.scratch[gene_to_index(gene, self.scratch.len())]) };
        self.store_l1(slot, sig, key);
        (sig, key, op)
    }

    /// Record `self.scratch` as the successor list of `sig` in L1 `slot`,
    /// overwriting the occupant in place so its op buffer is reused.
    fn store_l1(&mut self, slot: usize, sig: u64, key: u64) {
        match &mut self.l1[slot] {
            Some(e) => {
                e.sig = sig;
                e.key = key;
                e.ops.clone_from(&self.scratch);
                e.goal = None;
            }
            empty @ None => *empty = Some(L1Entry { sig, key, ops: self.scratch.clone(), goal: None }),
        }
    }

    /// Goal fitness of `state`, memoized in the L1 alongside the state's
    /// successor list (only called when a cache is armed). Also stashes the
    /// state's signature: the decode loop always probes this same state next
    /// (either for its successors or for the trailing match key), so the
    /// probe can skip re-hashing it.
    fn goal_of<D: Domain>(&mut self, domain: &D, state: &D::State) -> f64 {
        let sig = domain.state_signature(state);
        self.pending_sig = Some(sig);
        let slot = sig as usize % L1_SLOTS;
        if let Some(e) = &mut self.l1[slot] {
            if e.sig == sig {
                if let Some(g) = e.goal {
                    debug_assert_eq!(g.to_bits(), domain.goal_fitness(state).to_bits(), "stale memoized goal");
                    return g;
                }
                let g = domain.goal_fitness(state);
                e.goal = Some(g);
                return g;
            }
        }
        domain.goal_fitness(state)
    }

    #[inline]
    fn match_key<D: Domain>(&mut self, domain: &D, state: &D::State, mode: StateMatchMode) -> u64 {
        match mode {
            StateMatchMode::ExactState => domain.state_signature(state),
            StateMatchMode::ValidOpSet => {
                self.scratch.clear();
                domain.valid_operations(state, &mut self.scratch);
                gaplan_core::hash_one(&self.scratch)
            }
        }
    }

    /// Decode and score in one pass: [`Decoder::decode_ref`] under `cfg`'s
    /// decode settings, then the fitness of the result.
    pub fn evaluate_ref<D: Domain>(
        &mut self,
        domain: &D,
        start: &D::State,
        genes: &[f64],
        cfg: &crate::GaConfig,
        cache: Option<&SuccessorCache<D::State>>,
        hint: Option<PrefixRef<'_>>,
    ) -> (Decoded<D::State>, Fitness) {
        let decoded = self.decode_ref(domain, start, genes, cfg.truncate_at_goal, cfg.state_match, cache, hint);
        let goal = match cfg.goal_eval {
            GoalEval::FinalState => domain.goal_fitness(&decoded.final_state),
            GoalEval::BestPrefix => decoded.best_prefix_goal,
        };
        let fitness =
            Fitness::compute(goal, decoded.ops.len(), decoded.cost, cfg.weights, cfg.cost_fitness, cfg.max_len);
        (decoded, fitness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaplan_core::strips::StripsBuilder;
    use gaplan_core::{Domain, Plan};

    /// line domain: positions 0..=4 as conditions; ops move right (always
    /// from i to i+1 when at i) and left; goal at 4.
    fn line() -> gaplan_core::strips::StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..5 {
            b.condition(&format!("at{i}")).unwrap();
        }
        for i in 0..4 {
            b.op(&format!("right{i}"), &[&format!("at{i}")], &[&format!("at{}", i + 1)], &[&format!("at{i}")], 1.0)
                .unwrap();
        }
        for i in 1..5 {
            b.op(&format!("left{i}"), &[&format!("at{i}")], &[&format!("at{}", i - 1)], &[&format!("at{i}")], 1.0)
                .unwrap();
        }
        b.init(&["at0"]).unwrap();
        b.goal(&["at4"]).unwrap();
        b.build().unwrap()
    }

    type LineState = <gaplan_core::strips::StripsProblem as Domain>::State;

    /// Plain decode: no cache, no hint.
    fn scratch_decode(
        d: &gaplan_core::strips::StripsProblem,
        genes: &[f64],
        truncate: bool,
        mode: StateMatchMode,
    ) -> Decoded<LineState> {
        Decoder::new().decode_ref(d, &d.initial_state(), genes, truncate, mode, None, None)
    }

    fn decode_simple(d: &gaplan_core::strips::StripsProblem, genes: Vec<f64>) -> Decoded<LineState> {
        scratch_decode(d, &genes, false, StateMatchMode::ExactState)
    }

    #[test]
    fn gene_to_index_partitions_unit_interval() {
        // paper example: 4 valid ops, 0.62 -> third op (index 2)
        assert_eq!(gene_to_index(0.62, 4), 2);
        assert_eq!(gene_to_index(0.0, 4), 0);
        assert_eq!(gene_to_index(0.249, 4), 0);
        assert_eq!(gene_to_index(0.25, 4), 1);
        assert_eq!(gene_to_index(0.999_999, 4), 3);
        assert_eq!(gene_to_index(0.5, 1), 0);
    }

    #[test]
    fn decoded_ops_are_always_valid() {
        let d = line();
        let dec = decode_simple(&d, vec![0.9, 0.1, 0.7, 0.99, 0.3, 0.5]);
        // replay as a *checked* plan: must never error
        let plan = Plan::from_ops(dec.ops.clone());
        plan.simulate(&d, &d.initial_state()).expect("decoded plan must be valid");
    }

    #[test]
    fn decode_reaches_goal_with_all_right_moves() {
        let d = line();
        // at position 0 only `right0` is valid -> any gene moves right;
        // at interior positions the valid list is [rightK, leftK]; gene < 0.5
        // picks right.
        let dec = decode_simple(&d, vec![0.1, 0.1, 0.1, 0.1]);
        assert!(dec.reached_goal);
        assert_eq!(d.goal_fitness(&dec.final_state), 1.0);
        assert_eq!(dec.ops.len(), 4);
        assert_eq!(dec.cost, 4.0);
    }

    #[test]
    fn truncate_at_goal_stops_decoding() {
        let d = line();
        let genes = vec![0.1, 0.1, 0.1, 0.1, 0.9, 0.9]; // reach goal then walk back
        let full = scratch_decode(&d, &genes, false, StateMatchMode::ExactState);
        assert_eq!(full.decoded_len, 6);
        assert!(!d.is_goal(&full.final_state)); // walked past the goal

        let trunc = scratch_decode(&d, &genes, true, StateMatchMode::ExactState);
        assert_eq!(trunc.decoded_len, 4);
        assert!(d.is_goal(&trunc.final_state));
    }

    #[test]
    fn match_keys_align_with_states() {
        let d = line();
        let dec = decode_simple(&d, vec![0.1, 0.9]); // right, then left: back at 0
        assert_eq!(dec.match_keys.len(), 3);
        // state before gene 0 and state after gene 1 are both `at0`
        assert_eq!(dec.match_keys[0], dec.match_keys[2]);
        assert_ne!(dec.match_keys[0], dec.match_keys[1]);
    }

    #[test]
    fn dead_end_stops_decoding() {
        let mut b = StripsBuilder::new();
        b.condition("alive").unwrap();
        b.condition("dead").unwrap();
        b.op("die", &["alive"], &["dead"], &["alive"], 1.0).unwrap();
        b.init(&["alive"]).unwrap();
        b.goal(&["dead"]).unwrap();
        let d = b.build().unwrap();
        let dec = decode_simple(&d, vec![0.5, 0.5, 0.5]);
        assert_eq!(dec.decoded_len, 1); // only `die` decodable; then no valid ops
        assert!(dec.reached_goal);
    }

    #[test]
    fn identical_genomes_decode_identically() {
        let d = line();
        let genes = vec![0.3, 0.8, 0.44, 0.9];
        let a = decode_simple(&d, genes.clone());
        let b = decode_simple(&d, genes);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.match_keys, b.match_keys);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn valid_op_set_match_mode_produces_keys() {
        let d = line();
        let dec = scratch_decode(&d, &[0.1, 0.1, 0.9], false, StateMatchMode::ValidOpSet);
        // positions visited: 0, 1, 2, 1. Valid-op sets at position 1 (locus 1)
        // and position 1 again (final) coincide.
        assert_eq!(dec.match_keys[1], dec.match_keys[3]);
    }

    #[test]
    fn empty_genome_decodes_to_empty_plan() {
        let d = line();
        let dec = decode_simple(&d, vec![]);
        assert!(dec.ops.is_empty());
        assert_eq!(dec.match_keys.len(), 1);
        assert_eq!(dec.cost, 0.0);
        assert!(!dec.reached_goal);
    }

    /// Bit-for-bit comparison of two decodes, every field.
    fn assert_decoded_eq<S: PartialEq + std::fmt::Debug>(a: &Decoded<S>, b: &Decoded<S>, what: &str) {
        assert_eq!(a.ops, b.ops, "{what}: ops");
        assert_eq!(a.match_keys, b.match_keys, "{what}: match_keys");
        assert_eq!(a.final_state, b.final_state, "{what}: final_state");
        assert!(a.cost.to_bits() == b.cost.to_bits(), "{what}: cost {} vs {}", a.cost, b.cost);
        assert_eq!(a.decoded_len, b.decoded_len, "{what}: decoded_len");
        assert_eq!(a.reached_goal, b.reached_goal, "{what}: reached_goal");
        assert!(
            a.best_prefix_goal.to_bits() == b.best_prefix_goal.to_bits(),
            "{what}: best_prefix_goal {} vs {}",
            a.best_prefix_goal,
            b.best_prefix_goal
        );
        assert_eq!(a.best_prefix_at, b.best_prefix_at, "{what}: best_prefix_at");
        assert_eq!(a.best_prefix_state, b.best_prefix_state, "{what}: best_prefix_state");
    }

    #[test]
    fn cached_decode_is_bitwise_identical_to_uncached() {
        let d = line();
        let cache = SuccessorCache::new(256);
        let genomes =
            [vec![0.9, 0.1, 0.7, 0.99, 0.3, 0.5], vec![0.1, 0.1, 0.1, 0.1], vec![0.1, 0.9, 0.1, 0.9, 0.44], vec![]];
        for (mode, truncate) in [
            (StateMatchMode::ExactState, false),
            (StateMatchMode::ExactState, true),
            (StateMatchMode::ValidOpSet, false),
            (StateMatchMode::ValidOpSet, true),
        ] {
            for genes in &genomes {
                let start = d.initial_state();
                let plain = scratch_decode(&d, genes, truncate, mode);
                // twice through the cache: once cold, once warm
                let cold = Decoder::new().decode_ref(&d, &start, genes, truncate, mode, Some(&cache), None);
                let warm = Decoder::new().decode_ref(&d, &start, genes, truncate, mode, Some(&cache), None);
                assert_decoded_eq(&plain, &cold, "cold cache");
                assert_decoded_eq(&plain, &warm, "warm cache");
            }
        }
        assert!(cache.stats().hits > 0, "repeat decodes must hit the cache");
    }

    #[test]
    fn prefix_hint_replay_is_bitwise_identical() {
        let d = line();
        let donor_genes = vec![0.1, 0.1, 0.9, 0.3, 0.2, 0.8];
        let donor = scratch_decode(&d, &donor_genes, false, StateMatchMode::ValidOpSet);
        // A "child" sharing the first `cut` genes with the donor, for every
        // possible cut (including 0 and the full length).
        for cut in 0..=donor_genes.len() {
            let mut child = donor_genes[..cut].to_vec();
            child.extend([0.7, 0.05, 0.6]);
            let hint = PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, cut);
            assert!(hint.len() <= cut);
            let plain = scratch_decode(&d, &child, false, StateMatchMode::ValidOpSet);
            let hinted = Decoder::new().decode_ref(
                &d,
                &d.initial_state(),
                &child,
                false,
                StateMatchMode::ValidOpSet,
                None,
                Some(hint),
            );
            assert_decoded_eq(&plain, &hinted, &format!("hint cut {cut}"));
        }
    }

    #[test]
    fn prefix_hint_respects_goal_truncation() {
        let d = line();
        // Donor reaches the goal at gene 4 under truncation; its decoded_len
        // is 4 even though the genome is longer.
        let donor_genes = vec![0.1, 0.1, 0.1, 0.1, 0.9, 0.9];
        let donor = scratch_decode(&d, &donor_genes, true, StateMatchMode::ExactState);
        assert_eq!(donor.decoded_len, 4);
        // A hint "covering" 6 genes is capped at the donor's 4 decoded ops;
        // replaying it against the same genome reproduces the truncation.
        let hint = PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, 6);
        assert_eq!(hint.len(), 4);
        let replayed = Decoder::new().decode_ref(
            &d,
            &d.initial_state(),
            &donor_genes,
            true,
            StateMatchMode::ExactState,
            None,
            Some(hint),
        );
        assert_decoded_eq(&donor, &replayed, "goal-truncated replay");
    }

    #[test]
    fn prefix_hint_shorter_than_unchanged_prefix_replays() {
        let d = line();
        let genes = vec![0.1, 0.1, 0.9, 0.3];
        let donor = scratch_decode(&d, &genes, false, StateMatchMode::ExactState);
        // A hint may cover less than the genes the child shares with its
        // donor (e.g. after a mutation inside the prefix); decoding resumes
        // at the end of the hint.
        let hint = PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, 2);
        assert_eq!(hint.len(), 2);
        assert!(!hint.is_empty());
        let replayed = Decoder::new().decode_ref(
            &d,
            &d.initial_state(),
            &genes,
            false,
            StateMatchMode::ExactState,
            None,
            Some(hint),
        );
        assert_decoded_eq(&donor, &replayed, "short hint");
    }

    #[test]
    fn cache_and_hint_compose() {
        let d = line();
        let cache = SuccessorCache::new(256);
        let donor_genes = vec![0.1, 0.9, 0.1, 0.1, 0.1];
        let donor = scratch_decode(&d, &donor_genes, false, StateMatchMode::ValidOpSet);
        let mut child = donor_genes[..3].to_vec();
        child.extend([0.99, 0.0]);
        let hint = PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, 3);
        let plain = scratch_decode(&d, &child, false, StateMatchMode::ValidOpSet);
        let both = Decoder::new().decode_ref(
            &d,
            &d.initial_state(),
            &child,
            false,
            StateMatchMode::ValidOpSet,
            Some(&cache),
            Some(hint),
        );
        assert_decoded_eq(&plain, &both, "cache + hint");
    }
}
