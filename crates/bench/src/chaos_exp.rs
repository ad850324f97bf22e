//! Ext-I: the chaos experiment — seeded fault injection replayed against
//! every replanning policy.
//!
//! Protocol: plan the image pipeline with the multi-phase GA, then execute
//! that same plan under one seeded fault schedule (a site failure, its
//! recovery, and a load spike from [`chaos_schedule`]) plus a per-attempt
//! operation fault rate, once per policy: `Never` (static script),
//! `OnLoadChange` (the paper's replanner, blind to failures) and
//! `OnFailure` (failure-aware). The schedule and the fault draws are
//! identical across rows — only the policy varies — so the table isolates
//! what failure-awareness buys.

use gaplan_core::Plan;
use gaplan_grid::{chaos_schedule, Coordinator, ExecutionTrace, FaultPlan, GridWorld, ReplanPolicy};

use crate::grid_exp::{ga_plan, pipeline};
use crate::table::{f1, f3, TextTable};
use crate::ExpScale;

/// Per-attempt operation fault rate used by the experiment.
pub const CHAOS_RATE: f64 = 0.05;

/// Execute `plan` under the seeded chaos schedule with the given policy.
///
/// Every call replays the same events and the same per-attempt fault draws
/// (both derive from `seed` alone), so traces from different policies are
/// directly comparable.
pub fn run_chaos(
    world: &GridWorld,
    plan: &Plan,
    seed: u64,
    horizon: f64,
    policy: ReplanPolicy,
    replanner: Option<&dyn Fn(&GridWorld) -> Plan>,
) -> ExecutionTrace {
    let mut coord = Coordinator::new(world);
    for ev in chaos_schedule(world, seed, horizon) {
        coord.schedule(ev);
    }
    coord.policy(policy).fault_plan(FaultPlan::new(seed, CHAOS_RATE));
    coord.run(plan, replanner)
}

/// Ext-I: one fault schedule, three policies.
pub fn ext_chaos(scale: &ExpScale) -> TextTable {
    let (pipeline, _) = pipeline();
    let world = &pipeline.domain;
    let cfg = scale.config(&pipeline, |_| {});
    let plan = ga_plan(world, &cfg);

    // Calm run sets the horizon: faults land mid-execution, recovery within
    // reach of a degraded-but-patient coordinator.
    let calm = Coordinator::new(world).run(&plan, None);
    let horizon = (calm.makespan * 3.0).max(30.0);

    // A schedule whose failure misses every site the plan touches proves
    // nothing; scan forward from the master seed to the first schedule
    // that actually intersects the plan mid-execution. Deterministic given
    // `scale.seed`.
    let seed = (scale.seed..scale.seed + 64)
        .find(|&s| {
            chaos_schedule(world, s, horizon).iter().any(|ev| match ev {
                gaplan_grid::ExternalEvent::SiteFailure { time, site } => {
                    calm.tasks.iter().any(|task| task.site == *site && task.end > *time)
                }
                _ => false,
            })
        })
        .unwrap_or(scale.seed);

    let mut cfg_replan = cfg.clone();
    cfg_replan.seed ^= 0xFA17;
    let replanner = move |snapshot: &GridWorld| -> Plan { ga_plan(snapshot, &cfg_replan) };

    let mut t = TextTable::new(
        &format!("Ext-I. Chaos run: seeded fault schedule (seed {seed:#x}, rate {CHAOS_RATE}) vs replanning policy."),
        &["Policy", "Goal Fitness", "Makespan (s)", "Replans", "Faults", "Retried", "Rerouted"],
    );
    let mut row = |name: &str, tr: &ExecutionTrace| {
        t.row(vec![
            name.into(),
            f3(tr.goal_fitness),
            f1(tr.makespan),
            tr.replans.to_string(),
            tr.faults_injected.to_string(),
            tr.tasks_retried.to_string(),
            tr.tasks_rerouted.to_string(),
        ]);
    };
    row("calm (no faults)", &calm);
    let never = run_chaos(world, &plan, seed, horizon, ReplanPolicy::Never, None);
    row("Never (static script)", &never);
    let on_load = run_chaos(world, &plan, seed, horizon, ReplanPolicy::OnLoadChange, Some(&replanner));
    row("OnLoadChange (failure-blind)", &on_load);
    let on_failure = run_chaos(world, &plan, seed, horizon, ReplanPolicy::OnFailure, Some(&replanner));
    row("OnFailure (failure-aware)", &on_failure);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_same_seed_replays_identically() {
        let sc = gaplan_grid::image_pipeline();
        let plan = gaplan_grid::greedy_plan(&sc.world, 6).expect("greedy plans the pipeline");
        let a = run_chaos(&sc.world, &plan, 41, 90.0, ReplanPolicy::Never, None);
        let b = run_chaos(&sc.world, &plan, 41, 90.0, ReplanPolicy::Never, None);
        assert_eq!(a.goal_fitness, b.goal_fitness);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.tasks_retried, b.tasks_retried);
    }

    #[test]
    fn chaos_table_compares_policies_under_one_schedule() {
        let t = ext_chaos(&ExpScale::quick());
        assert_eq!(t.rows.len(), 4);
        let fitness = |i: usize| t.rows[i][1].parse::<f64>().unwrap();
        assert_eq!(fitness(0), 1.0, "calm run must reach the goal: {:?}", t.rows);
        // Failure-awareness never does worse than the static script under
        // the identical schedule — and both terminate instead of spinning.
        assert!(fitness(3) >= fitness(1), "OnFailure must do at least as well as Never: {:?}", t.rows);
    }
}
