//! Ground STRIPS problems: the paper's four-tuple `⟨C, O, I, G⟩` as data.

use rustc_hash::FxHashMap;

use super::{CondId, CondSet};
use crate::domain::{Domain, OpId};
use crate::{Error, Result};

/// A ground STRIPS operator: preconditions, postconditions split into an
/// add list and a delete list, and a cost (paper §1: "Each operation has
/// three attributes: a set of preconditions, a set of postconditions, and a
/// cost").
#[derive(Debug, Clone)]
pub struct StripsOp {
    /// Human-readable operator name.
    pub name: String,
    /// Conditions that must hold for the operator to be valid.
    pub pre: CondSet,
    /// Conditions made true by the operator.
    pub add: CondSet,
    /// Conditions made false by the operator.
    pub del: CondSet,
    /// Cost of executing the operator.
    pub cost: f64,
}

/// A ground STRIPS planning problem.
///
/// Implements [`Domain`] with `State = CondSet`, so every planner in the
/// workspace (GA and baselines) runs on it unchanged.
#[derive(Debug, Clone)]
pub struct StripsProblem {
    conditions: Vec<String>,
    ops: Vec<StripsOp>,
    init: CondSet,
    goal: CondSet,
    /// Every operator's precondition words in one row-major matrix, row `i`
    /// being `ops[i].pre`, `stride` words per row. Successor generation
    /// scans this instead of chasing one heap-allocated set per operator.
    pre_words: Vec<u64>,
    /// Words per condition set (`num_conditions().div_ceil(64)`, at least 1).
    stride: usize,
    /// `(goal condition, weight)` in `goal.iter()` order; weights are 1.0
    /// unless customized via [`StripsBuilder::goal_weight`].
    goal_terms: Vec<(CondId, f64)>,
    /// Sum of the `goal_terms` weights, accumulated in the same order.
    goal_total: f64,
}

impl StripsProblem {
    /// Number of ground conditions `|C|`.
    pub fn num_conditions(&self) -> usize {
        self.conditions.len()
    }

    /// Name of a condition.
    pub fn condition_name(&self, id: CondId) -> &str {
        &self.conditions[id.index()]
    }

    /// Look up a condition id by name.
    pub fn condition_id(&self, name: &str) -> Option<CondId> {
        self.conditions.iter().position(|c| c == name).map(|i| CondId(i as u32))
    }

    /// The operators `O`.
    pub fn operators(&self) -> &[StripsOp] {
        &self.ops
    }

    /// The goal condition set `G`.
    pub fn goal(&self) -> &CondSet {
        &self.goal
    }

    /// Stable 64-bit signature of the *semantic content* of this problem:
    /// conditions, operators (names, pre/add/del sets, costs), initial
    /// state, goal and goal weights. Two problems built the
    /// same way hash the same across runs and processes; changing any of
    /// the above changes the signature. Used by the planning service as
    /// (part of) its plan-cache key.
    pub fn signature(&self) -> u64 {
        let mut s = crate::sig::SigBuilder::new();
        s.tag("strips-problem-v1");
        s.tag("conds").usize(self.conditions.len());
        for c in &self.conditions {
            s.str(c);
        }
        s.tag("ops").usize(self.ops.len());
        for op in &self.ops {
            s.str(&op.name);
            for (label, set) in [("pre", &op.pre), ("add", &op.add), ("del", &op.del)] {
                s.tag(label).usize(set.count());
                for c in set.iter() {
                    s.u32(c.0);
                }
            }
            s.f64(op.cost);
        }
        s.tag("init").usize(self.init.count());
        for c in self.init.iter() {
            s.u32(c.0);
        }
        s.tag("goal").usize(self.goal.count());
        for c in self.goal.iter() {
            s.u32(c.0);
        }
        // Goal fitness is always the weighted fraction satisfied; the tag
        // keeps its old `false` so existing signatures do not move.
        s.tag("fitness").bool(false);
        // hash weights in goal-iteration order (deterministic), not map order
        s.tag("weights");
        for &(_, w) in &self.goal_terms {
            s.f64(w);
        }
        s.finish()
    }
}

impl Domain for StripsProblem {
    type State = CondSet;

    fn initial_state(&self) -> CondSet {
        self.init.clone()
    }

    fn num_operations(&self) -> usize {
        self.ops.len()
    }

    fn valid_operations(&self, state: &CondSet, out: &mut Vec<OpId>) {
        let s = state.words();
        debug_assert_eq!(s.len(), self.stride, "state of a different width");
        if let &[w] = s {
            for (i, &pre) in self.pre_words.iter().enumerate() {
                if pre & !w == 0 {
                    out.push(OpId(i as u32));
                }
            }
        } else {
            for (i, pre) in self.pre_words.chunks_exact(self.stride).enumerate() {
                if pre.iter().zip(s).all(|(p, w)| p & !w == 0) {
                    out.push(OpId(i as u32));
                }
            }
        }
    }

    fn apply(&self, state: &CondSet, op: OpId) -> CondSet {
        let mut next = state.clone();
        self.apply_into(state, op, &mut next);
        next
    }

    fn apply_into(&self, state: &CondSet, op: OpId, out: &mut CondSet) {
        let o = &self.ops[op.index()];
        debug_assert!(o.pre.is_subset_of(state), "apply() called with invalid op");
        out.clone_from(state);
        out.apply_effects(&o.add, &o.del);
    }

    fn is_goal(&self, state: &CondSet) -> bool {
        self.goal.is_subset_of(state)
    }

    /// Weighted fraction of goal conditions satisfied: the generic analogue
    /// of the paper's per-disk-weighted Hanoi fitness.
    fn goal_fitness(&self, state: &CondSet) -> f64 {
        if self.goal_total == 0.0 {
            return 1.0; // empty goal: every state is a goal state
        }
        let satisfied: f64 = self.goal_terms.iter().filter(|&&(c, _)| state.contains(c)).map(|&(_, w)| w).sum();
        satisfied / self.goal_total
    }

    fn op_cost(&self, op: OpId) -> f64 {
        self.ops[op.index()].cost
    }

    fn op_name(&self, op: OpId) -> String {
        self.ops[op.index()].name.clone()
    }
}

/// Pending operator inside the builder: (name, pre, add, del, cost).
type PendingOp = (String, Vec<CondId>, Vec<CondId>, Vec<CondId>, f64);

/// Programmatic builder for [`StripsProblem`].
///
/// ```
/// use gaplan_core::strips::StripsBuilder;
/// use gaplan_core::{Domain, DomainExt};
///
/// let mut b = StripsBuilder::new();
/// b.condition("at-home").unwrap();
/// b.condition("at-work").unwrap();
/// b.op("commute", &["at-home"], &["at-work"], &["at-home"], 1.0).unwrap();
/// b.init(&["at-home"]).unwrap();
/// b.goal(&["at-work"]).unwrap();
/// let p = b.build().unwrap();
/// let s = p.initial_state();
/// assert_eq!(p.valid_ops_vec(&s).len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct StripsBuilder {
    conditions: Vec<String>,
    index: FxHashMap<String, CondId>,
    ops: Vec<PendingOp>,
    init: Vec<CondId>,
    goal: Vec<CondId>,
    goal_weights: FxHashMap<CondId, f64>,
}

impl StripsBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a ground condition; returns its id.
    pub fn condition(&mut self, name: &str) -> Result<CondId> {
        if self.index.contains_key(name) {
            return Err(Error::DuplicateSymbol(name.to_string()));
        }
        let id = CondId(self.conditions.len() as u32);
        self.conditions.push(name.to_string());
        self.index.insert(name.to_string(), id);
        Ok(id)
    }

    fn resolve(&self, names: &[&str]) -> Result<Vec<CondId>> {
        names
            .iter()
            .map(|n| self.index.get(*n).copied().ok_or_else(|| Error::UnknownSymbol((*n).to_string())))
            .collect()
    }

    /// Declare an operator with precondition / add / delete condition names.
    pub fn op(&mut self, name: &str, pre: &[&str], add: &[&str], del: &[&str], cost: f64) -> Result<()> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(Error::Invalid(format!("operator `{name}` has invalid cost {cost}")));
        }
        let (pre, add, del) = (self.resolve(pre)?, self.resolve(add)?, self.resolve(del)?);
        self.ops.push((name.to_string(), pre, add, del, cost));
        Ok(())
    }

    /// Set the initial state.
    pub fn init(&mut self, conds: &[&str]) -> Result<()> {
        self.init = self.resolve(conds)?;
        Ok(())
    }

    /// Set the goal conditions.
    pub fn goal(&mut self, conds: &[&str]) -> Result<()> {
        self.goal = self.resolve(conds)?;
        Ok(())
    }

    /// Assign a goal-fitness weight to one goal condition (analogue of the
    /// paper's per-disk weights in the Hanoi goal fitness, Eq. 5).
    pub fn goal_weight(&mut self, cond: &str, weight: f64) -> Result<()> {
        let id = self.index.get(cond).copied().ok_or_else(|| Error::UnknownSymbol(cond.to_string()))?;
        if !weight.is_finite() || weight < 0.0 {
            return Err(Error::Invalid(format!("invalid goal weight {weight} for `{cond}`")));
        }
        self.goal_weights.insert(id, weight);
        Ok(())
    }

    /// Finalize into a [`StripsProblem`].
    pub fn build(self) -> Result<StripsProblem> {
        if self.conditions.is_empty() {
            return Err(Error::Invalid("no conditions declared".into()));
        }
        if self.ops.is_empty() {
            return Err(Error::Invalid("no operators declared".into()));
        }
        let w = self.conditions.len();
        let mk = |ids: &[CondId]| CondSet::from_ids(w, ids.iter().copied());
        let ops: Vec<StripsOp> = self
            .ops
            .iter()
            .map(|(name, pre, add, del, cost)| StripsOp {
                name: name.clone(),
                pre: mk(pre),
                add: mk(add),
                del: mk(del),
                cost: *cost,
            })
            .collect();
        let stride = w.div_ceil(64);
        let pre_words = ops.iter().flat_map(|op| op.pre.words().iter().copied()).collect();
        let goal = mk(&self.goal);
        let goal_terms: Vec<(CondId, f64)> =
            goal.iter().map(|c| (c, self.goal_weights.get(&c).copied().unwrap_or(1.0))).collect();
        let goal_total = goal_terms.iter().map(|&(_, w)| w).sum();
        Ok(StripsProblem {
            conditions: self.conditions,
            ops,
            init: mk(&self.init),
            goal,
            pre_words,
            stride,
            goal_terms,
            goal_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainExt;
    use crate::plan::Plan;

    /// Two-room robot: move between rooms, pick/drop a ball.
    fn robot() -> StripsProblem {
        let mut b = StripsBuilder::new();
        for c in ["robot-a", "robot-b", "ball-a", "ball-b", "holding"] {
            b.condition(c).unwrap();
        }
        b.op("move-a-b", &["robot-a"], &["robot-b"], &["robot-a"], 1.0).unwrap();
        b.op("move-b-a", &["robot-b"], &["robot-a"], &["robot-b"], 1.0).unwrap();
        b.op("pick-a", &["robot-a", "ball-a"], &["holding"], &["ball-a"], 1.0).unwrap();
        b.op("drop-b", &["robot-b", "holding"], &["ball-b"], &["holding"], 1.0).unwrap();
        b.init(&["robot-a", "ball-a"]).unwrap();
        b.goal(&["ball-b"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn valid_operations_respect_preconditions() {
        let p = robot();
        let s = p.initial_state();
        let names: Vec<String> = p.valid_ops_vec(&s).iter().map(|&o| p.op_name(o)).collect();
        assert_eq!(names, vec!["move-a-b", "pick-a"]);
    }

    #[test]
    fn plan_reaches_goal() {
        let p = robot();
        let pick = OpId(2);
        let mv = OpId(0);
        let drop = OpId(3);
        let plan = Plan::from_ops(vec![pick, mv, drop]);
        let out = plan.simulate(&p, &p.initial_state()).unwrap();
        assert!(out.solves);
        assert_eq!(out.cost, 3.0);
    }

    #[test]
    fn invalid_plan_rejected() {
        let p = robot();
        // drop before holding anything
        let plan = Plan::from_ops(vec![OpId(3)]);
        assert!(plan.simulate(&p, &p.initial_state()).is_err());
    }

    #[test]
    fn fraction_goal_fitness_grades_progress() {
        let mut b = StripsBuilder::new();
        for c in ["x", "y", "sx", "sy"] {
            b.condition(c).unwrap();
        }
        b.op("do-x", &["sx"], &["x"], &[], 1.0).unwrap();
        b.op("do-y", &["sy"], &["y"], &[], 1.0).unwrap();
        b.init(&["sx", "sy"]).unwrap();
        b.goal(&["x", "y"]).unwrap();
        let p = b.build().unwrap();
        let s0 = p.initial_state();
        assert_eq!(p.goal_fitness(&s0), 0.0);
        let s1 = p.apply(&s0, OpId(0));
        assert_eq!(p.goal_fitness(&s1), 0.5);
        let s2 = p.apply(&s1, OpId(1));
        assert_eq!(p.goal_fitness(&s2), 1.0);
        assert!(p.is_goal(&s2));
    }

    #[test]
    fn weighted_goal_fitness() {
        let mut b = StripsBuilder::new();
        for c in ["x", "y", "s"] {
            b.condition(c).unwrap();
        }
        b.op("do-x", &["s"], &["x"], &[], 1.0).unwrap();
        b.op("do-y", &["s"], &["y"], &[], 1.0).unwrap();
        b.init(&["s"]).unwrap();
        b.goal(&["x", "y"]).unwrap();
        b.goal_weight("x", 3.0).unwrap();
        let p = b.build().unwrap();
        let s1 = p.apply(&p.initial_state(), OpId(0)); // x satisfied
        assert!((p.goal_fitness(&s1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_duplicates_and_unknowns() {
        let mut b = StripsBuilder::new();
        b.condition("a").unwrap();
        assert_eq!(b.condition("a"), Err(Error::DuplicateSymbol("a".into())));
        assert!(matches!(b.op("o", &["missing"], &[], &[], 1.0), Err(Error::UnknownSymbol(_))));
        assert!(matches!(b.init(&["nope"]), Err(Error::UnknownSymbol(_))));
    }

    #[test]
    fn builder_rejects_bad_cost_and_empty_problem() {
        let mut b = StripsBuilder::new();
        b.condition("a").unwrap();
        assert!(b.op("o", &["a"], &[], &[], -1.0).is_err());
        assert!(b.op("o", &["a"], &[], &[], f64::NAN).is_err());
        assert!(StripsBuilder::new().build().is_err());
    }

    #[test]
    fn condition_lookup_roundtrip() {
        let p = robot();
        let id = p.condition_id("holding").unwrap();
        assert_eq!(p.condition_name(id), "holding");
        assert!(p.condition_id("absent").is_none());
        assert_eq!(p.num_conditions(), 5);
    }

    #[test]
    fn empty_goal_means_every_state_is_goal() {
        let mut b = StripsBuilder::new();
        b.condition("a").unwrap();
        b.op("noop", &[], &["a"], &[], 1.0).unwrap();
        b.init(&[]).unwrap();
        b.goal(&[]).unwrap();
        let p = b.build().unwrap();
        assert!(p.is_goal(&p.initial_state()));
        assert_eq!(p.goal_fitness(&p.initial_state()), 1.0);
    }

    /// SplitMix64: a seeded stream for the random-problem equivalence tests.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn chance(&mut self, p: f64) -> bool {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
        }
        fn subset(&mut self, width: usize, p: f64) -> Vec<u32> {
            (0..width as u32).filter(|_| self.chance(p)).collect()
        }
    }

    /// A seeded random problem over `width` conditions with non-uniform goal
    /// weights; returns it with the weight of every goal condition.
    fn random_problem(width: usize, seed: u64) -> (StripsProblem, FxHashMap<CondId, f64>) {
        fn names(ids: &[u32]) -> Vec<String> {
            ids.iter().map(|i| format!("c{i}")).collect()
        }
        fn strs(v: &[String]) -> Vec<&str> {
            v.iter().map(String::as_str).collect()
        }
        let mut rng = Mix(seed);
        let mut b = StripsBuilder::new();
        for c in names(&(0..width as u32).collect::<Vec<_>>()) {
            b.condition(&c).unwrap();
        }
        let sparse = (3.0 / width as f64).min(0.5);
        for o in 0..48 {
            let pre = names(&rng.subset(width, sparse));
            let add = names(&rng.subset(width, sparse));
            let del = names(&rng.subset(width, sparse));
            b.op(&format!("o{o}"), &strs(&pre), &strs(&add), &strs(&del), 1.0 + (o % 3) as f64).unwrap();
        }
        b.init(&strs(&names(&rng.subset(width, 0.7)))).unwrap();
        let mut goal = rng.subset(width, 0.4);
        if goal.is_empty() {
            goal.push((rng.next() % width as u64) as u32);
        }
        let goal = names(&goal);
        b.goal(&strs(&goal)).unwrap();
        let mut weights = FxHashMap::default();
        for g in &goal {
            // Weights like 0.1, 1.7, 3.3: sums of these round differently
            // depending on order, so bit equality checks the summation order.
            let w = (rng.next() % 50) as f64 / 10.0 + 0.1;
            b.goal_weight(g, w).unwrap();
            weights.insert(b.index[g], w);
        }
        (b.build().unwrap(), weights)
    }

    #[test]
    fn flat_strips_paths_match_per_set_reference_on_random_problems() {
        for width in [1, 63, 64, 65, 130] {
            for seed in 0..4u64 {
                let (p, weights) = random_problem(width, seed * 1000 + width as u64);
                let weight = |c: CondId| weights.get(&c).copied().unwrap_or(1.0);
                let mut rng = Mix(seed ^ 0xD1CE);
                let mut out = CondSet::empty(width);
                let mut scratch = Vec::new();
                let mut valid_seen = 0;
                for _ in 0..200 {
                    let ids = rng.subset(width, 0.75);
                    let state = CondSet::from_ids(width, ids.into_iter().map(CondId));

                    // valid_operations: same ops, same order, as a naive scan.
                    scratch.clear();
                    p.valid_operations(&state, &mut scratch);
                    let naive: Vec<OpId> = (0..p.ops.len())
                        .filter(|&i| p.ops[i].pre.is_subset_of(&state))
                        .map(|i| OpId(i as u32))
                        .collect();
                    assert_eq!(scratch, naive, "width {width} seed {seed}");
                    valid_seen += naive.len();

                    // apply_into == apply == clone + apply_effects, even into
                    // a buffer holding an unrelated state.
                    for &op in &naive {
                        let o = &p.ops[op.index()];
                        let mut reference = state.clone();
                        reference.apply_effects(&o.add, &o.del);
                        p.apply_into(&state, op, &mut out);
                        assert_eq!(out, reference, "width {width} op {op:?}");
                        assert_eq!(p.apply(&state, op), reference, "width {width} op {op:?}");
                    }

                    // goal_fitness: bit-identical to the per-call weighted sum.
                    let total: f64 = p.goal.iter().map(weight).sum();
                    let satisfied: f64 = p.goal.iter().filter(|&c| state.contains(c)).map(weight).sum();
                    assert_eq!(p.goal_fitness(&state).to_bits(), (satisfied / total).to_bits(), "width {width}");

                    // CondSet::clone_from == clone, reusing the buffer.
                    let mut copy = CondSet::from_ids(width, [CondId(0)]);
                    let buf = copy.words().as_ptr();
                    copy.clone_from(&state);
                    assert_eq!(copy, state.clone());
                    assert_eq!(copy.words().as_ptr(), buf, "same-width clone_from must reuse the buffer");
                    let mut wider = CondSet::empty(width + 200);
                    wider.clone_from(&state);
                    assert_eq!(wider, state, "clone_from across widths");
                }
                assert!(valid_seen > 0, "width {width} seed {seed}: no op ever valid, test is vacuous");
            }
        }
    }
}
