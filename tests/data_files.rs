//! The shipped sample data files must stay consistent with the
//! programmatic scenarios and solvable by every relevant engine.

use ga_grid_planner::baselines::{bfs, graphplan, SearchLimits};
use ga_grid_planner::grid::{greedy_plan, image_pipeline, parse_grid};
use gaplan_core::strips::parse_strips;
use gaplan_core::{Domain, DomainExt};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("missing sample file {path}: {e}"))
}

#[test]
fn rover_strips_parses_and_is_solvable() {
    let p = parse_strips(&read("data/rover.strips")).unwrap();
    assert_eq!(p.num_operations(), 9);
    let b = bfs(&p, SearchLimits::default());
    assert!(b.is_solved());
    assert_eq!(b.plan_len(), Some(8));
    let g = graphplan(&p, SearchLimits::default());
    assert!(g.is_solved());
    // graphplan's serialized plan replays
    let out = g.plan.unwrap().simulate(&p, &p.initial_state()).unwrap();
    assert!(out.solves);
}

#[test]
fn pipeline_grid_matches_programmatic_scenario() {
    let parsed = parse_grid(&read("data/pipeline.grid")).unwrap();
    let built = image_pipeline().world;
    // same shape: sites, programs, ground operations, goals
    assert_eq!(parsed.sites().len(), built.sites().len());
    assert_eq!(parsed.programs().len(), built.programs().len());
    assert_eq!(parsed.num_operations(), built.num_operations());
    assert_eq!(parsed.goals().len(), built.goals().len());
    // same site parameters, by name
    for (a, b) in parsed.sites().iter().zip(built.sites()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.resources.cpu_gflops, b.resources.cpu_gflops);
        assert_eq!(a.cost_per_gflop, b.cost_per_gflop);
        assert_eq!(a.slots, b.slots);
    }
    // same valid operations (by display name) from the initial state
    let names = |w: &ga_grid_planner::grid::GridWorld| -> Vec<String> {
        let mut v: Vec<String> = w.valid_ops_vec(&w.initial_state()).iter().map(|&o| w.op_name(o)).collect();
        v.sort();
        v
    };
    assert_eq!(names(&parsed), names(&built));
}

#[test]
fn pipeline_grid_is_solvable_by_greedy_broker() {
    let world = parse_grid(&read("data/pipeline.grid")).unwrap();
    let plan = greedy_plan(&world, 4).expect("pipeline solvable in <= 4 steps");
    let out = plan.simulate(&world, &world.initial_state()).unwrap();
    assert!(out.solves);
}

/// Plan-cache keys, journal and `cache.snap` entries and checkpoints hold
/// STRIPS problem signatures, so their values are pinned: a change here
/// orphans every stored plan.
#[test]
fn strips_problem_signatures_are_pinned() {
    let rover = parse_strips(&read("data/rover.strips")).unwrap();
    assert_eq!(rover.signature(), 0x20ec_161b_70a8_4aae);
    let logistics =
        ga_grid_planner::lang::compile(&read("examples/domains/logistics.gap"), &read("data/logistics-1.gap")).unwrap();
    assert_eq!(logistics.strips.signature(), 0x96e4_33b0_3b38_57cf);
}
