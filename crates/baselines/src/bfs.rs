//! Breadth-first search: optimal for unit costs, exponential in memory —
//! the paper's example of a general strategy that "rarely finds good
//! solutions efficiently" on planning problems.

use std::collections::VecDeque;

use gaplan_core::{Domain, OpId};
use rustc_hash::FxHashMap;

use crate::result::{SearchLimits, SearchOutcome, SearchResult};

/// Run BFS from the domain's initial state. Returns a shortest plan (by
/// operation count) when one is found within the limits.
pub fn bfs<D: Domain>(domain: &D, limits: SearchLimits) -> SearchResult {
    let start = domain.initial_state();
    if domain.is_goal(&start) {
        return SearchResult::solved(vec![], 0, 1);
    }
    // parent map: state -> (predecessor state index, op). States are interned
    // in `states` so the parent chain stores indices, not cloned states.
    let mut states: Vec<D::State> = vec![start.clone()];
    let mut parent: Vec<(usize, OpId)> = vec![(usize::MAX, OpId(u32::MAX))];
    let mut index: FxHashMap<D::State, usize> = FxHashMap::default();
    index.insert(start, 0);

    let mut queue: VecDeque<usize> = VecDeque::from([0usize]);
    let mut expanded = 0usize;
    let mut scratch = Vec::new();

    while let Some(cur) = queue.pop_front() {
        if expanded >= limits.max_expansions || states.len() >= limits.max_states {
            return SearchResult::unsolved(SearchOutcome::LimitReached, expanded, states.len());
        }
        expanded += 1;
        scratch.clear();
        domain.valid_operations(&states[cur], &mut scratch);
        let ops = scratch.clone();
        for op in ops {
            let next = domain.apply(&states[cur], op);
            if index.contains_key(&next) {
                continue;
            }
            let id = states.len();
            index.insert(next.clone(), id);
            parent.push((cur, op));
            let is_goal = domain.is_goal(&next);
            states.push(next);
            if is_goal {
                return SearchResult::solved(reconstruct(&parent, id), expanded, states.len());
            }
            queue.push_back(id);
        }
    }
    SearchResult::unsolved(SearchOutcome::Exhausted, expanded, states.len())
}

fn reconstruct(parent: &[(usize, OpId)], mut id: usize) -> Vec<OpId> {
    let mut ops = Vec::new();
    while parent[id].0 != usize::MAX {
        ops.push(parent[id].1);
        id = parent[id].0;
    }
    ops.reverse();
    ops
}

/// BFS over the whole reachable space, recording the distance *from the
/// initial state* of every state reached within the limits. Used by
/// diagnostics, admissibility tests and the distance-informed fitness
/// ablation (Ext-B).
pub fn bfs_all_distances<D: Domain>(domain: &D, limits: SearchLimits) -> FxHashMap<D::State, usize> {
    let start = domain.initial_state();
    let mut dist: FxHashMap<D::State, usize> = FxHashMap::default();
    dist.insert(start.clone(), 0);
    let mut queue = VecDeque::from([start]);
    let mut scratch = Vec::new();
    let mut expanded = 0usize;
    while let Some(cur) = queue.pop_front() {
        if expanded >= limits.max_expansions || dist.len() >= limits.max_states {
            break;
        }
        expanded += 1;
        let d = dist[&cur];
        scratch.clear();
        domain.valid_operations(&cur, &mut scratch);
        let ops = scratch.clone();
        for op in ops {
            let next = domain.apply(&cur, op);
            if !dist.contains_key(&next) {
                dist.insert(next.clone(), d + 1);
                queue.push_back(next);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaplan_domains::{Hanoi, SlidingTile};

    #[test]
    fn bfs_finds_optimal_hanoi_plans() {
        for n in 1..=6 {
            let h = Hanoi::new(n);
            let r = bfs(&h, SearchLimits::default());
            assert!(r.is_solved(), "n = {n}");
            assert_eq!(r.plan_len(), Some((1 << n) - 1), "BFS must be optimal");
            let out = r.plan.unwrap().simulate(&h, &h.initial_state()).unwrap();
            assert!(out.solves);
        }
    }

    #[test]
    fn bfs_solves_easy_8_puzzle() {
        // a few moves from goal
        let p = SlidingTile::new(3, vec![1, 2, 3, 4, 5, 6, 0, 7, 8]);
        let r = bfs(&p, SearchLimits::default());
        assert!(r.is_solved());
        assert_eq!(r.plan_len(), Some(2));
    }

    #[test]
    fn bfs_goal_at_start_returns_empty_plan() {
        let p = SlidingTile::new(3, SlidingTile::standard_goal(3));
        let r = bfs(&p, SearchLimits::default());
        assert!(r.is_solved());
        assert_eq!(r.plan_len(), Some(0));
        assert_eq!(r.expanded, 0);
    }

    #[test]
    fn bfs_respects_expansion_limit() {
        let h = Hanoi::new(10);
        let limits = SearchLimits { max_expansions: 100, max_states: 1_000_000 };
        let r = bfs(&h, limits);
        assert_eq!(r.outcome, SearchOutcome::LimitReached);
        assert!(r.expanded <= 101);
    }

    #[test]
    fn bfs_all_distances_covers_reachable_space() {
        let h = Hanoi::new(3);
        let d = bfs_all_distances(&h, SearchLimits::default());
        assert_eq!(d.len(), 27); // 3^3 states, all reachable
        assert_eq!(d[&h.initial_state()], 0);
        // the goal state is at distance 2^3 - 1 = 7
        assert_eq!(d[&vec![1u8, 1, 1]], 7);
        // distances are bounded by the state-space diameter
        assert!(d.values().all(|&v| v <= 7 + 4));
    }
}
