//! Ext-D: GA versus the deterministic baselines, contextualizing the
//! related-work discussion (§2) with measurements: who solves what, with
//! which plan quality, at what search effort.

use std::time::Instant;

use gaplan_baselines::{
    astar, backward_chain, bfs, forward_chain, graphplan, greedy_best_first, hill_climb, idastar, random_walk,
    DisjointPdb, GoalCount, HAdd, HanoiLowerBound, LinearConflict, ManhattanH, SearchLimits, SearchResult,
};
use gaplan_domains::blocks_world;
use gaplan_ga::rng::derive_seed;
use gaplan_ga::RunReport;
use gaplan_problem::GaOverrides;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::runner::run_batch;
use crate::table::{f1, f2, TextTable};
use crate::{hanoi, strips, ExpScale};

fn search_row(name: &str, r: &SearchResult, secs: f64) -> Vec<String> {
    vec![
        name.into(),
        if r.is_solved() { "yes".into() } else { "no".into() },
        r.plan_len().map_or("-".into(), |l| l.to_string()),
        r.expanded.to_string(),
        f2(secs),
    ]
}

/// GA-vs-baselines on Towers of Hanoi.
pub fn ext_baselines_hanoi(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let mut t = TextTable::new(
        "Ext-D1. Planner comparison on the Towers of Hanoi.",
        &["Planner", "Solved", "Plan Length", "Nodes Expanded", "Seconds"],
    );
    for n in [5usize, 6, 7] {
        let built = hanoi(n);
        let hanoi = &built.domain;
        let limits = SearchLimits::default();

        let cfg = scale.config(&built, |_| {});
        let (reports, agg) = run_batch(hanoi, &cfg, runs);
        // GA "nodes expanded" analogue: generations x population
        let evals = agg.avg_generations * cfg.population_size as f64;
        t.row(vec![
            format!("GA multi-phase (n={n}, {}/{} solved)", agg.solved_runs, agg.runs),
            if agg.solved_runs > 0 { "yes".into() } else { "no".into() },
            f1(avg_solved_len(&reports)),
            f1(evals),
            f2(agg.avg_seconds),
        ]);

        for (name, run) in [
            ("BFS", run_timed(|| bfs(hanoi, limits))),
            ("A* (Hanoi LB)", run_timed(|| astar(hanoi, &HanoiLowerBound, limits))),
            ("IDA* (Hanoi LB)", run_timed(|| idastar(hanoi, &HanoiLowerBound, limits))),
            ("Hill-climb (Hanoi LB)", run_timed(|| hill_climb(hanoi, &HanoiLowerBound, limits))),
            ("Random walk (5x opt)", {
                let mut rng = StdRng::seed_from_u64(derive_seed(scale.seed, n as u64));
                let steps = 5 * ((1 << n) - 1);
                run_timed(|| random_walk(hanoi, &mut rng, steps))
            }),
        ] {
            let (r, secs) = run;
            t.row(search_row(&format!("{name} (n={n})"), &r, secs));
        }
    }
    t
}

/// GA-vs-baselines on the 8-puzzle instance used by Table 4.
pub fn ext_baselines_tile(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let tile = scale.tile(3);
    let instance = &tile.domain;
    let limits = SearchLimits::default();
    let mut t = TextTable::new(
        "Ext-D2. Planner comparison on the Table-4 8-puzzle instance.",
        &["Planner", "Solved", "Plan Length", "Nodes Expanded", "Seconds"],
    );

    // The model's tile default crossover is the mixed one.
    let cfg = scale.config(&tile, |_| {});
    let (reports, agg) = run_batch(instance, &cfg, runs);
    t.row(vec![
        format!("GA multi-phase mixed ({}/{} solved)", agg.solved_runs, agg.runs),
        if agg.solved_runs > 0 { "yes".into() } else { "no".into() },
        f1(avg_solved_len(&reports)),
        f1(agg.avg_generations * cfg.population_size as f64),
        f2(agg.avg_seconds),
    ]);

    let pdb = DisjointPdb::standard_8puzzle(instance);
    for (name, (r, secs)) in [
        ("BFS", run_timed(|| bfs(instance, limits))),
        ("A* (Manhattan)", run_timed(|| astar(instance, &ManhattanH, limits))),
        ("A* (Linear conflict)", run_timed(|| astar(instance, &LinearConflict, limits))),
        ("A* (Disjoint PDB)", run_timed(|| astar(instance, &pdb, limits))),
        ("IDA* (Linear conflict)", run_timed(|| idastar(instance, &LinearConflict, limits))),
        ("Greedy best-first (MD)", run_timed(|| greedy_best_first(instance, &ManhattanH, limits))),
        ("Hill-climb (MD)", run_timed(|| hill_climb(instance, &ManhattanH, limits))),
        ("Random walk (5x init len)", {
            let mut rng = StdRng::seed_from_u64(derive_seed(scale.seed, 0xF00D));
            run_timed(|| random_walk(instance, &mut rng, 145))
        }),
    ] {
        t.row(search_row(name, &r, secs));
    }
    t
}

/// Ext-D3: STRIPS planner comparison on a Blocks World instance — the only
/// arena where *all* substrates meet (Graphplan requires ground STRIPS).
pub fn ext_baselines_strips(scale: &ExpScale) -> TextTable {
    let runs = scale.runs_or(10);
    let problem = blocks_world(5, &vec![vec![0, 1, 2], vec![3, 4]], &vec![vec![4, 2, 0], vec![1, 3]]).unwrap();
    // Run shape over the model's STRIPS defaults (one gene per ground
    // operation): 150 individuals, genomes of 12 genes capped at 60.
    let blocks =
        strips(problem, GaOverrides { population: Some(150), initial_len: Some(12), ..GaOverrides::default() });
    let problem = &blocks.domain;
    let limits = SearchLimits::default();
    let mut t = TextTable::new(
        "Ext-D3. Planner comparison on 5-block Blocks World (ground STRIPS).",
        &["Planner", "Solved", "Plan Length", "Nodes Expanded", "Seconds"],
    );

    let cfg = scale.config(&blocks, |_| {});
    let (reports, agg) = run_batch(problem, &cfg, runs);
    t.row(vec![
        format!("GA multi-phase ({}/{} solved)", agg.solved_runs, agg.runs),
        if agg.solved_runs > 0 { "yes".into() } else { "no".into() },
        f1(avg_solved_len(&reports)),
        f1(agg.avg_generations * cfg.population_size as f64),
        f2(agg.avg_seconds),
    ]);

    // chaining DFS can thrash for minutes at the default 2M-expansion cap;
    // bound it like the paper bounds its own deterministic comparisons
    let chain_limits = SearchLimits { max_expansions: 100_000, max_states: 200_000 };
    for (name, (r, secs)) in [
        ("Graphplan", run_timed(|| graphplan(problem, limits))),
        ("BFS", run_timed(|| bfs(problem, limits))),
        ("Forward chaining", run_timed(|| forward_chain(problem, chain_limits))),
        ("Backward chaining", run_timed(|| backward_chain(problem, chain_limits))),
        ("Greedy best-first (goal count)", run_timed(|| greedy_best_first(problem, &GoalCount, limits))),
        ("HSP-style hill-climb (h_add)", run_timed(|| hill_climb(problem, &HAdd, limits))),
        ("HSP2-style best-first (h_add)", run_timed(|| greedy_best_first(problem, &HAdd, limits))),
    ] {
        t.row(search_row(name, &r, secs));
    }
    t
}

fn avg_solved_len(reports: &[RunReport]) -> f64 {
    let solved: Vec<&RunReport> = reports.iter().filter(|r| r.solved).collect();
    if solved.is_empty() {
        return 0.0;
    }
    solved.iter().map(|r| r.plan_len as f64).sum::<f64>() / solved.len() as f64
}

fn run_timed<F: FnOnce() -> SearchResult>(f: F) -> (SearchResult, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hanoi_comparison_quick() {
        let t = ext_baselines_hanoi(&ExpScale::quick());
        // 3 disk sizes x 6 planners
        assert_eq!(t.rows.len(), 18);
        // BFS and A* rows for n=5 must show the optimal 31
        let bfs_row = t.rows.iter().find(|r| r[0].starts_with("BFS (n=5)")).unwrap();
        assert_eq!(bfs_row[2], "31");
        let astar_row = t.rows.iter().find(|r| r[0].starts_with("A* (Hanoi LB) (n=5)")).unwrap();
        assert_eq!(astar_row[2], "31");
    }
}
