//! Output correctness: independent plan replay, reference solves and the
//! run's plan fingerprint.

use std::collections::HashMap;

use gaplan_core::{Budget, Domain, DomainExt, OpId};
use gaplan_ga::GaConfig;
use gaplan_service::{parse_command, BuiltProblem, Command, PlanRequest};

use crate::drive::{fingerprint, fnv, PlanRecord};
use crate::workload::Request;

/// The request behind `req`, read through the server's own protocol parser.
pub fn plan_request(req: &Request) -> Result<PlanRequest, String> {
    match parse_command(&req.line(0)) {
        Ok(Command::Plan(request)) => Ok(*request),
        Ok(other) => Err(format!("generated line parsed as {other:?}")),
        Err(e) => Err(e.message),
    }
}

/// The built problem and effective GA configuration a worker would run.
pub fn build(request: &PlanRequest) -> Result<(BuiltProblem, GaConfig), String> {
    let built = request.problem.build()?;
    let defaults = built.default_config();
    let cfg = match &request.ga {
        Some(overrides) => overrides.apply(defaults),
        None => defaults,
    };
    Ok((built, cfg))
}

/// Replay `rec`'s plan from the initial state with nothing but the domain:
/// every op must be valid, and the final state must agree with the reply's
/// `solved` and (bit for bit) `goal_fitness`.
pub fn replay(built: &BuiltProblem, rec: &PlanRecord) -> Result<(), String> {
    let domain = built.as_dyn().ok_or("problem has no planning domain")?;
    let mut state = domain.initial_state();
    for (step, &op) in rec.plan_ops.iter().enumerate() {
        if !domain.is_valid(&state, OpId(op)) {
            return Err(format!("op {op} at step {step} is not applicable"));
        }
        state = domain.apply(&state, OpId(op));
    }
    let goal = domain.goal_fitness(&state);
    if goal.to_bits() != rec.goal_fitness.to_bits() {
        return Err(format!("replayed goal fitness {goal} but the reply says {}", rec.goal_fitness));
    }
    if domain.is_goal(&state) != rec.solved {
        return Err(format!("replay reaches the goal: {}, reply says solved: {}", !rec.solved, rec.solved));
    }
    Ok(())
}

/// Replay every recorded plan; returns the failures.
pub fn replay_all(plans: &HashMap<u64, PlanRecord>, request_of: impl Fn(u64) -> Request) -> Vec<String> {
    let mut failures = Vec::new();
    let mut keys: Vec<&u64> = plans.keys().collect();
    keys.sort();
    for key in keys {
        let rec = &plans[key];
        let outcome =
            plan_request(&request_of(*key)).and_then(|r| build(&r)).and_then(|(built, _)| replay(&built, rec));
        if let Err(e) = outcome {
            failures.push(format!("key {key}: {e}"));
        }
    }
    failures
}

/// Solve each `(key, request)` in-process with the configuration the
/// server runs and compare with the server's plan for that key. Returns
/// the fingerprint over the checked keys, in key order.
pub fn reference(plans: &HashMap<u64, PlanRecord>, requests: &[(u64, Request)]) -> Result<u64, String> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (key, req) in requests {
        let rec = plans.get(key).ok_or_else(|| format!("no Done reply for reference key {key}"))?;
        let (built, cfg) = build(&plan_request(req)?)?;
        let out = built.solve(&cfg, Budget::unlimited());
        let fp = fingerprint(&out.plan_ops, out.solved, out.goal_fitness);
        if fp != rec.fingerprint {
            return Err(format!(
                "key {key}: server plan {:?} (solved {}) differs from the in-process solve {:?} (solved {})",
                rec.plan_ops, rec.solved, out.plan_ops, out.solved
            ));
        }
        hash = fnv(hash, &key.to_le_bytes());
        hash = fnv(hash, &fp.to_le_bytes());
    }
    Ok(hash)
}
