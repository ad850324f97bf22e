//! The HSP-family additive heuristic (Bonet & Geffner, the paper's ref.
//! \[3\]): "This approach assumes that subgoals are independent" — each goal
//! condition is costed separately by a fixpoint over the delete-relaxed
//! problem, and the costs are summed.
//!
//! `h_add` is informative but inadmissible (it over-counts shared
//! subplans); paired with [`crate::local::hill_climb`] it is the paper's
//! "HSP" and with [`crate::local::greedy_best_first`] its "HSP2".

use gaplan_core::strips::StripsProblem;
use gaplan_core::Domain;

use crate::heuristics::Heuristic;

/// The additive heuristic `h_add`. Stateless: each estimate runs the
/// fixpoint from the given state (simple and correct; memoization belongs
/// to a planner that evaluates many sibling states, which greedy searches
/// here do not need for the problem sizes involved).
#[derive(Debug, Clone, Copy, Default)]
pub struct HAdd;

impl HAdd {
    /// Per-condition reachability costs from `state` under delete
    /// relaxation: `cost(p) = 0` if `p ∈ state`, else
    /// `min over ops adding p of (op cost + Σ cost(pre))`, iterated to a
    /// fixpoint. Unreachable conditions keep `f64::INFINITY`.
    pub fn condition_costs(problem: &StripsProblem, state: &<StripsProblem as Domain>::State) -> Vec<f64> {
        let n = problem.num_conditions();
        let mut cost = vec![f64::INFINITY; n];
        for p in state.iter() {
            cost[p.index()] = 0.0;
        }
        loop {
            let mut changed = false;
            for op in problem.operators() {
                let pre_sum: f64 = op.pre.iter().map(|p| cost[p.index()]).sum();
                if !pre_sum.is_finite() {
                    continue;
                }
                let via = op.cost + pre_sum;
                for p in op.add.iter() {
                    if via + 1e-12 < cost[p.index()] {
                        cost[p.index()] = via;
                        changed = true;
                    }
                }
            }
            if !changed {
                return cost;
            }
        }
    }
}

impl Heuristic<StripsProblem> for HAdd {
    fn estimate(&self, problem: &StripsProblem, state: &<StripsProblem as Domain>::State) -> f64 {
        let cost = Self::condition_costs(problem, state);
        let total: f64 = problem.goal().iter().map(|g| cost[g.index()]).sum();
        if total.is_finite() {
            total
        } else {
            // unreachable goal: a very large finite value keeps planners'
            // arithmetic (f = g + h) well-behaved
            1e15
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::{greedy_best_first, hill_climb};
    use crate::result::SearchLimits;
    use gaplan_core::strips::StripsBuilder;
    use gaplan_domains::blocks_world;

    fn chain(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("s{i}")).unwrap();
        }
        for i in 0..n {
            b.op(&format!("go{i}"), &[&format!("s{i}")], &[&format!("s{}", i + 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        b.init(&["s0"]).unwrap();
        b.goal(&[&format!("s{n}")]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn exact_on_serial_chains() {
        // with a single goal and no sharing, h_add is exact
        let p = chain(6);
        assert_eq!(HAdd.estimate(&p, &p.initial_state()), 6.0);
        assert_eq!(HAdd.estimate(&p, &p.goal().clone()), 0.0);
    }

    #[test]
    fn respects_operator_costs() {
        let mut b = StripsBuilder::new();
        for c in ["a", "b", "g"] {
            b.condition(c).unwrap();
        }
        b.op("cheap-but-long-1", &["a"], &["b"], &[], 2.0).unwrap();
        b.op("cheap-but-long-2", &["b"], &["g"], &[], 2.0).unwrap();
        b.op("expensive-direct", &["a"], &["g"], &[], 10.0).unwrap();
        b.init(&["a"]).unwrap();
        b.goal(&["g"]).unwrap();
        let p = b.build().unwrap();
        // min(2+2, 10) = 4
        assert_eq!(HAdd.estimate(&p, &p.initial_state()), 4.0);
    }

    #[test]
    fn overcounts_shared_preconditions() {
        // two goals sharing one setup action: true cost 3, h_add counts the
        // setup twice -> 4 (the classic inadmissibility)
        let mut b = StripsBuilder::new();
        for c in ["setup", "g1", "g2", "start"] {
            b.condition(c).unwrap();
        }
        b.op("prep", &["start"], &["setup"], &[], 1.0).unwrap();
        b.op("do1", &["setup"], &["g1"], &[], 1.0).unwrap();
        b.op("do2", &["setup"], &["g2"], &[], 1.0).unwrap();
        b.init(&["start"]).unwrap();
        b.goal(&["g1", "g2"]).unwrap();
        let p = b.build().unwrap();
        assert_eq!(HAdd.estimate(&p, &p.initial_state()), 4.0);
    }

    #[test]
    fn unreachable_goal_is_huge_but_finite() {
        let mut b = StripsBuilder::new();
        b.condition("a").unwrap();
        b.condition("never").unwrap();
        b.op("idle", &["a"], &["a"], &[], 1.0).unwrap();
        b.init(&["a"]).unwrap();
        b.goal(&["never"]).unwrap();
        let p = b.build().unwrap();
        let h = HAdd.estimate(&p, &p.initial_state());
        assert!(h.is_finite() && h > 1e12);
    }

    #[test]
    fn hsp_style_planners_solve_blocks_world() {
        let p = blocks_world(4, &vec![vec![0, 1], vec![2, 3]], &vec![vec![3, 2, 1, 0]]).unwrap();
        // HSP2 (greedy best-first with h_add)
        let r = greedy_best_first(&p, &HAdd, SearchLimits::default());
        assert!(r.is_solved(), "HSP2-style search must solve 4 blocks");
        let out = r.plan.unwrap().simulate(&p, &p.initial_state()).unwrap();
        assert!(out.solves);
        // HSP (hill climbing with h_add) at least makes progress
        let hc = hill_climb(&p, &HAdd, SearchLimits::default());
        if let Some(plan) = hc.plan {
            assert!(plan.simulate(&p, &p.initial_state()).unwrap().solves);
        }
    }

    #[test]
    fn h_add_dominates_goal_count() {
        use crate::heuristics::GoalCount;
        let p = blocks_world(4, &vec![vec![0, 1, 2, 3]], &vec![vec![3, 2, 1, 0]]).unwrap();
        let s = p.initial_state();
        assert!(HAdd.estimate(&p, &s) >= GoalCount.estimate(&p, &s));
    }
}
