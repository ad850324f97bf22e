//! Ext-E: the grid-workflow experiment — the paper's §1 motivating claim,
//! measured: "A static script is incapable of taking advantage of the full
//! range of alternatives to carry out a computation, while planning does."
//!
//! Protocol: plan the image pipeline with the multi-phase GA; execute it
//! under a scheduled overload of the home site; compare the static script
//! (no replanning) against the coordinator that replans with the GA when
//! the load changes.

use gaplan_core::{Domain, Plan};
use gaplan_ga::{GaConfig, MultiPhase};
use gaplan_grid::{
    climate_ensemble, greedy_plan, ActivityGraph, Coordinator, ExternalEvent, GridWorld, ReplanPolicy, SiteId,
};
use gaplan_problem::GaOverrides;

use crate::table::{f1, f3, TextTable};
use crate::{grid, Built, ExpScale};

/// The image pipeline of Ext-E and Ext-I and its sites (home site first).
/// The pipeline is a handful of steps, so its run shape overrides the
/// model's grid defaults (genomes of 12 capped at 32): genomes of 8 capped
/// at 16, and 100 individuals over 3 phases of 60 generations.
pub fn pipeline() -> (Built<GridWorld>, [SiteId; 3]) {
    let sc = gaplan_grid::image_pipeline();
    let shape = GaOverrides {
        population: Some(100),
        generations: Some(60),
        phases: Some(3),
        initial_len: Some(8),
        max_len: Some(16),
        seed: None,
    };
    (grid(sc.world, shape), sc.sites)
}

/// Plan a workflow with the multi-phase GA.
pub fn ga_plan(world: &GridWorld, cfg: &GaConfig) -> Plan {
    MultiPhase::new(world, cfg.clone()).run().plan
}

/// Ext-E: static script vs GA replanning under a load spike.
pub fn ext_grid(scale: &ExpScale) -> TextTable {
    let (pipeline, sites) = pipeline();
    let world = &pipeline.domain;
    let cfg = scale.config(&pipeline, |_| {});

    // initial plan, from the unloaded world
    let plan = ga_plan(world, &cfg);
    let graph = ActivityGraph::from_plan(world, &world.initial_state(), &plan);

    let overload = ExternalEvent::LoadChange { time: 3.0, site: sites[0], load: 0.95 };

    // baseline: calm weather, no events
    let calm = Coordinator::new(world).run(&plan, None);

    // static script under overload
    let mut static_coord = Coordinator::new(world);
    static_coord.schedule(overload);
    let static_trace = static_coord.run(&plan, None);

    // replanning coordinator: the GA replans from the current artifact set
    // whenever the resource picture changes
    let mut cfg_replan = cfg.clone();
    cfg_replan.seed ^= 0xD1CE;
    let replanner = move |snapshot: &GridWorld| -> Plan { ga_plan(snapshot, &cfg_replan) };
    let mut replan_coord = Coordinator::new(world);
    replan_coord.schedule(overload).policy(ReplanPolicy::OnLoadChange);
    let replanned = replan_coord.run(&plan, Some(&replanner));

    let mut t = TextTable::new(
        "Ext-E. Grid workflow: static script vs GA replanning under a home-site overload.",
        &["Scenario", "Goal Reached", "Makespan (s)", "Busy Time (s)", "Tasks", "Replans"],
    );
    let mut row = |name: &str, tr: &gaplan_grid::ExecutionTrace| {
        t.row(vec![
            name.into(),
            if tr.reached_goal() { "yes".into() } else { "no".into() },
            f1(tr.makespan),
            f1(tr.busy_time),
            tr.tasks.len().to_string(),
            tr.replans.to_string(),
        ]);
    };
    row("GA plan, no disturbance", &calm);
    row("GA plan, overload, static script", &static_trace);
    row("GA plan, overload, GA replanning", &replanned);

    // the broker's deterministic planner as a non-evolutionary comparator
    if let Some(greedy) = greedy_plan(world, 6) {
        let greedy_calm = Coordinator::new(world).run(&greedy, None);
        row("greedy broker plan, no disturbance", &greedy_calm);
        let greedy_replanner = |snapshot: &GridWorld| greedy_plan(snapshot, 6).unwrap_or_default();
        let mut gc = Coordinator::new(world);
        gc.schedule(overload).policy(ReplanPolicy::OnLoadChange);
        let greedy_replanned = gc.run(&greedy, Some(&greedy_replanner));
        row("greedy plan, overload, greedy replanning", &greedy_replanned);
    }

    let mut meta = format!(
        "\nplanned ops: {} (activity graph: {} nodes, width {}, critical path {:.1}s)\n",
        plan.len(),
        graph.len(),
        graph.width(),
        graph.critical_path()
    );
    for (i, op) in plan.ops().iter().enumerate() {
        meta.push_str(&format!("  {:2}. {}\n", i + 1, world.op_name(*op)));
    }
    t.title.push_str(&meta);
    t
}

/// Ext-E2: the five-site multi-goal climate ensemble — scale test for the
/// workflow domain (134 ground operations, a multi-input program, two
/// weighted goals) with an overload on the primary HPC system.
pub fn ext_grid_climate(scale: &ExpScale) -> TextTable {
    let sc = climate_ensemble();
    // Longer plans than the model's grid defaults (12 capped at 32):
    // genomes of 14 capped at 40, and 120 generations per phase.
    let shape =
        GaOverrides { generations: Some(120), initial_len: Some(14), max_len: Some(40), ..GaOverrides::default() };
    let climate = grid(sc.world, shape);
    let world = &climate.domain;
    let cfg = scale.config(&climate, |_| {});

    let plan = ga_plan(world, &cfg);
    let graph = ActivityGraph::from_plan(world, &world.initial_state(), &plan);
    let overload = ExternalEvent::LoadChange {
        time: 2.0,
        site: sc.sites[1], // hpc1
        load: 0.97,
    };

    let calm = Coordinator::new(world).run(&plan, None);
    let mut static_coord = Coordinator::new(world);
    static_coord.schedule(overload);
    let static_trace = static_coord.run(&plan, None);
    let mut cfg_replan = cfg.clone();
    cfg_replan.seed ^= 0xC11A;
    let replanner = move |snapshot: &GridWorld| -> Plan { ga_plan(snapshot, &cfg_replan) };
    let mut replan_coord = Coordinator::new(world);
    replan_coord.schedule(overload).policy(ReplanPolicy::OnLoadChange);
    let replanned = replan_coord.run(&plan, Some(&replanner));

    let mut t = TextTable::new(
        "Ext-E2. Climate-ensemble workflow (5 sites, 2 weighted goals) under an HPC overload.",
        &["Scenario", "Goal Fitness", "Makespan (s)", "Busy Time (s)", "Tasks", "Replans"],
    );
    let mut row = |name: &str, tr: &gaplan_grid::ExecutionTrace| {
        t.row(vec![
            name.into(),
            f3(tr.goal_fitness),
            f1(tr.makespan),
            f1(tr.busy_time),
            tr.tasks.len().to_string(),
            tr.replans.to_string(),
        ]);
    };
    row("GA plan, no disturbance", &calm);
    row("GA plan, overload, static script", &static_trace);
    row("GA plan, overload, GA replanning", &replanned);

    t.title.push_str(&format!(
        "
planned ops: {} (activity graph: {} nodes, width {}, critical path {:.1}s)
",
        plan.len(),
        graph.len(),
        graph.width(),
        graph.critical_path()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ga_plans_the_pipeline() {
        let (pipeline, _) = pipeline();
        let scale = ExpScale {
            budget: 0.5, // keep the test quick; the full budget runs in `tables`
            ..ExpScale::default()
        };
        let world = &pipeline.domain;
        let result = MultiPhase::new(world, scale.config(&pipeline, |_| {})).run();
        assert!(result.solved, "GA must plan the image pipeline (fitness {})", result.goal_fitness);
        // the plan replays validly
        let out = result.plan.simulate(world, &world.initial_state()).unwrap();
        assert!(out.solves);
    }

    #[test]
    fn ext_grid_quick_produces_five_scenarios() {
        let t = ext_grid(&ExpScale::quick());
        assert_eq!(t.rows.len(), 5);
        // calm runs (GA and greedy) must reach the goal
        assert_eq!(t.rows[0][1], "yes");
        assert_eq!(t.rows[3][1], "yes");
    }
}
