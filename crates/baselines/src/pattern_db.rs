//! Disjoint pattern database heuristics for the sliding-tile puzzle
//! (Korf & Felner 2002, the paper's ref. \[9\]): "the subgoals are split into
//! disjoint subsets so that an operation affects only the subgoals in one
//! subset. The values obtained for each subset are then combined to form
//! the result of the heuristic evaluation function."
//!
//! A pattern database stores, for every placement of a *pattern* (a subset
//! of tiles), the minimum number of **pattern-tile moves** needed to bring
//! them to their goal cells. Because only pattern-tile moves are counted,
//! databases over disjoint patterns are *additive*: their sum is still a
//! lower bound on the true distance, typically far stronger than Manhattan
//! distance.

use std::collections::VecDeque;

use gaplan_domains::sliding_tile::TileState;
use gaplan_domains::SlidingTile;
use rustc_hash::FxHashMap;

use crate::heuristics::Heuristic;

/// A single pattern database.
#[derive(Debug, Clone)]
pub struct PatternDb {
    n: usize,
    /// The pattern tiles, in lookup order.
    tiles: Vec<u8>,
    /// cost table: key = positions of pattern tiles (radix `n²` number in
    /// `tiles` order), value = minimal pattern-move count (minimized over
    /// blank positions, which keeps the lookup blank-independent and
    /// admissible).
    table: FxHashMap<u32, u16>,
}

impl PatternDb {
    /// Build the database for `tiles` on `domain`'s board by a 0/1-cost
    /// breadth-first search backwards from the goal (tile moves cost 1,
    /// blank-only moves cost 0 in the *abstract* space, implemented as
    /// 0-1 BFS over (pattern positions, blank position) states).
    pub fn build(domain: &SlidingTile, tiles: &[u8]) -> PatternDb {
        let n = domain.side();
        let cells = n * n;
        assert!(!tiles.is_empty() && tiles.len() <= 6, "pattern of 1..=6 tiles");
        assert!(tiles.iter().all(|&t| t != 0 && (t as usize) < cells), "pattern tiles must be real tiles");

        // goal positions
        let goal = domain.goal();
        let pos_of = |v: u8| goal.iter().position(|&x| x == v).expect("tile in goal") as u8;
        let start_positions: Vec<u8> = tiles.iter().map(|&t| pos_of(t)).collect();
        let start_blank = pos_of(0);

        // abstract state key: positions of pattern tiles + blank, radix cells
        let full_key = |positions: &[u8], blank: u8| -> u64 {
            let mut k = u64::from(blank);
            for &p in positions {
                k = k * cells as u64 + u64::from(p);
            }
            k
        };
        let pattern_key = |positions: &[u8]| -> u32 {
            let mut k = 0u32;
            for &p in positions {
                k = k * cells as u32 + u32::from(p);
            }
            k
        };

        let mut table: FxHashMap<u32, u16> = FxHashMap::default();
        let mut dist: FxHashMap<u64, u16> = FxHashMap::default();
        let mut queue: VecDeque<(Vec<u8>, u8)> = VecDeque::new();
        dist.insert(full_key(&start_positions, start_blank), 0);
        queue.push_back((start_positions, start_blank));

        while let Some((positions, blank)) = queue.pop_front() {
            let d = dist[&full_key(&positions, blank)];
            let entry = table.entry(pattern_key(&positions)).or_insert(u16::MAX);
            if d < *entry {
                *entry = d;
            }
            let (br, bc) = ((blank as usize / n) as i32, (blank as usize % n) as i32);
            for (dr, dc) in [(-1i32, 0i32), (1, 0), (0, -1), (0, 1)] {
                let (nr, nc) = (br + dr, bc + dc);
                if nr < 0 || nr >= n as i32 || nc < 0 || nc >= n as i32 {
                    continue;
                }
                let target = (nr as usize * n + nc as usize) as u8;
                // does the target cell hold a pattern tile?
                let mut new_positions = positions.clone();
                let mut cost = 0u16;
                if let Some(i) = positions.iter().position(|&p| p == target) {
                    new_positions[i] = blank;
                    cost = 1;
                }
                let key = full_key(&new_positions, target);
                let nd = d + cost;
                let better = dist.get(&key).is_none_or(|&old| nd < old);
                if better {
                    dist.insert(key, nd);
                    if cost == 0 {
                        queue.push_front((new_positions, target));
                    } else {
                        queue.push_back((new_positions, target));
                    }
                }
            }
        }

        PatternDb { n, tiles: tiles.to_vec(), table }
    }

    /// Look up the pattern cost for a concrete board.
    pub fn lookup(&self, state: &TileState) -> u16 {
        let cells = (self.n * self.n) as u32;
        let mut key = 0u32;
        for &t in &self.tiles {
            let pos = state.iter().position(|&x| x == t).expect("tile on board") as u32;
            key = key * cells + pos;
        }
        self.table.get(&key).copied().unwrap_or(0)
    }

    /// Number of distinct pattern placements stored.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the table empty? (Never, for a built database.)
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// An additive set of disjoint pattern databases.
#[derive(Debug, Clone)]
pub struct DisjointPdb {
    dbs: Vec<PatternDb>,
}

impl DisjointPdb {
    /// Build databases for the given disjoint tile groups.
    ///
    /// # Panics
    /// If groups overlap (additivity requires disjointness).
    pub fn build(domain: &SlidingTile, groups: &[Vec<u8>]) -> DisjointPdb {
        let mut seen = std::collections::HashSet::new();
        for g in groups {
            for &t in g {
                assert!(seen.insert(t), "tile {t} appears in two groups — not additive");
            }
        }
        DisjointPdb { dbs: groups.iter().map(|g| PatternDb::build(domain, g)).collect() }
    }

    /// The standard 8-puzzle partition: {1,2,3,4} and {5,6,7,8}.
    pub fn standard_8puzzle(domain: &SlidingTile) -> DisjointPdb {
        assert_eq!(domain.side(), 3);
        Self::build(domain, &[vec![1, 2, 3, 4], vec![5, 6, 7, 8]])
    }
}

impl Heuristic<SlidingTile> for DisjointPdb {
    fn estimate(&self, _domain: &SlidingTile, state: &TileState) -> f64 {
        self.dbs.iter().map(|db| f64::from(db.lookup(state))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::astar;
    use crate::bfs::bfs_all_distances;
    use crate::heuristics::ManhattanH;
    use crate::result::SearchLimits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_at_goal() {
        let p = SlidingTile::new(3, SlidingTile::standard_goal(3));
        let pdb = DisjointPdb::standard_8puzzle(&p);
        assert_eq!(pdb.estimate(&p, p.goal()), 0.0);
    }

    #[test]
    fn tables_cover_all_placements() {
        let p = SlidingTile::new(3, SlidingTile::standard_goal(3));
        let db = PatternDb::build(&p, &[1, 2]);
        // 9 * 8 ordered placements of two distinct tiles
        assert_eq!(db.len(), 72);
        assert!(!db.is_empty());
    }

    #[test]
    fn admissible_against_true_distances() {
        // BFS from the goal gives exact distances; the additive PDB must
        // never exceed them
        let goal = SlidingTile::standard_goal(3);
        let from_goal = SlidingTile::new(3, goal.clone());
        let dist = bfs_all_distances(&from_goal, SearchLimits { max_expansions: 50_000, max_states: 200_000 });
        let dom = SlidingTile::new(3, goal);
        let pdb = DisjointPdb::standard_8puzzle(&dom);
        for (state, &d) in dist.iter().take(20_000) {
            let h = pdb.estimate(&dom, state);
            assert!(h <= d as f64, "inadmissible at {state:?}: {h} > {d}");
        }
    }

    #[test]
    fn astar_with_pdb_is_optimal_and_cheaper_than_manhattan() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut pdb_total = 0usize;
        let mut md_total = 0usize;
        for _ in 0..5 {
            let p = SlidingTile::random_solvable(3, &mut rng);
            let pdb = DisjointPdb::standard_8puzzle(&p);
            let a_pdb = astar(&p, &pdb, SearchLimits::default());
            let a_md = astar(&p, &ManhattanH, SearchLimits::default());
            assert_eq!(a_pdb.plan_len(), a_md.plan_len(), "both must be optimal");
            pdb_total += a_pdb.expanded;
            md_total += a_md.expanded;
        }
        assert!(pdb_total < md_total, "PDB should expand fewer nodes overall: {pdb_total} vs {md_total}");
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_rejected() {
        let p = SlidingTile::new(3, SlidingTile::standard_goal(3));
        let _ = DisjointPdb::build(&p, &[vec![1, 2], vec![2, 3]]);
    }

    #[test]
    #[should_panic(expected = "real tiles")]
    fn blank_in_pattern_rejected() {
        let p = SlidingTile::new(3, SlidingTile::standard_goal(3));
        let _ = PatternDb::build(&p, &[0, 1]);
    }
}
