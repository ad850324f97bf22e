//! End-to-end tests for the planning service: concurrent jobs with mixed
//! deadlines over the in-process API and the JSON-lines wire protocol, the
//! plan cache, and property-based checks that the cache's signatures are
//! stable and discriminating.

use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use ga_grid_planner::ga::GaConfig;
use ga_grid_planner::service::{
    serve, GaOverrides, JobStatus, Metric, PlanRequest, PlanService, ProblemSpec, ServiceConfig,
};
use gaplan_core::strips::{StripsBuilder, StripsProblem};
use proptest::prelude::*;

fn small_ga() -> Option<GaOverrides> {
    Some(GaOverrides { population: Some(60), generations: Some(40), phases: Some(3), ..GaOverrides::default() })
}

fn request(id: u64, problem: ProblemSpec, deadline_ms: Option<u64>) -> PlanRequest {
    PlanRequest { id, problem, deadline_ms, ga: small_ga() }
}

#[test]
fn concurrent_jobs_with_mixed_deadlines_all_terminate() {
    let (service, responses) = PlanService::start(ServiceConfig {
        workers: 4,
        queue_capacity: 32,
        cache_capacity: 32,
        ..ServiceConfig::default()
    })
    .unwrap();

    // Eight solvable jobs across two domains, plus two whose deadline has
    // already expired at submit time — workers fast-fail those without
    // running the GA.
    let mut expected_expired = Vec::new();
    let mut submitted = Vec::new();
    for id in 1..=8u64 {
        let problem = if id % 2 == 0 {
            ProblemSpec::Hanoi { disks: 3 + (id as usize % 3) }
        } else {
            ProblemSpec::Tile { side: 3, shuffle_seed: id }
        };
        service.submit(request(id, problem, None)).unwrap();
        submitted.push(id);
    }
    for id in 9..=10u64 {
        // deadline_ms: 0 is expired before a worker ever dequeues the job,
        // so the expired-in-queue fast path replies DeadlineExpired without
        // building the problem or running a single generation.
        let mut req = request(id, ProblemSpec::Hanoi { disks: 12 }, Some(0));
        req.ga = None;
        service.submit(req).unwrap();
        expected_expired.push(id);
        submitted.push(id);
    }

    let mut by_id: HashMap<u64, _> = HashMap::new();
    for _ in 0..submitted.len() {
        let resp = responses.recv_timeout(Duration::from_secs(120)).expect("job hung");
        by_id.insert(resp.id, resp);
    }
    assert_eq!(by_id.len(), submitted.len(), "every job responds exactly once");

    for id in &submitted {
        let resp = &by_id[id];
        if expected_expired.contains(id) {
            assert_eq!(resp.status, JobStatus::DeadlineExpired, "job {id}: {resp:?}");
            assert!(resp.plan.is_empty(), "fast-failed job must not have run: {resp:?}");
            assert_eq!(resp.total_generations, 0, "fast-failed job must not have run: {resp:?}");
            assert!(!resp.solved);
        } else {
            assert_eq!(resp.status, JobStatus::Done, "job {id}: {resp:?}");
        }
        assert_eq!(resp.plan.len(), resp.plan_len);
        assert_eq!(resp.plan.len(), resp.plan_ops.len());
    }

    let metrics = service.metrics();
    assert_eq!(metrics[Metric::JobsSubmitted], 10);
    assert_eq!(metrics[Metric::JobsCompleted], 10);
    assert_eq!(metrics[Metric::JobsExpiredInQueue], 2);
    assert_eq!(metrics[Metric::JobsTimedOut], 0);
    assert_eq!(metrics[Metric::QueueDepth], 0);
    service.shutdown();
}

#[test]
fn repeated_request_is_a_cache_hit() {
    let (service, responses) = PlanService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        ..ServiceConfig::default()
    })
    .unwrap();
    let spec = ProblemSpec::Tile { side: 3, shuffle_seed: 7 };
    service.submit(request(1, spec.clone(), None)).unwrap();
    let first = responses.recv().unwrap();
    assert!(!first.cache_hit);

    service.submit(request(2, spec.clone(), None)).unwrap();
    let second = responses.recv().unwrap();
    assert!(second.cache_hit, "identical resubmission must hit the cache: {second:?}");
    assert_eq!(second.plan, first.plan);
    assert_eq!(second.solved, first.solved);

    // Different GA seed → different config signature → miss.
    let mut other = request(3, spec, None);
    other.ga.as_mut().unwrap().seed = Some(99);
    service.submit(other).unwrap();
    let third = responses.recv().unwrap();
    assert!(!third.cache_hit, "different config must miss: {third:?}");

    let metrics = service.metrics();
    assert_eq!(metrics[Metric::CacheHits], 1);
    assert_eq!(metrics[Metric::CacheMisses], 2);
    assert!((metrics.cache_hit_rate - 1.0 / 3.0).abs() < 1e-9);
    service.shutdown();
}

/// `Write` implementation collecting serve output for later inspection.
struct CollectWriter(Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for CollectWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn wire_protocol_handles_eight_concurrent_jobs() {
    let mut input = String::new();
    for id in 1..=8u64 {
        let disks = 3 + id % 2;
        input.push_str(&format!(
            r#"{{"cmd":"plan","id":{id},"problem":{{"Hanoi":{{"disks":{disks}}}}},"ga":{{"population":60,"generations":40,"phases":3}}}}"#,
        ));
        input.push('\n');
    }
    // An already-expired deadline on a big instance: the worker fast-fails
    // it as DeadlineExpired without running the GA at all.
    input.push_str(r#"{"cmd":"plan","id":9,"problem":{"Hanoi":{"disks":12}},"deadline_ms":0}"#);
    input.push('\n');
    input.push_str("{\"cmd\":\"metrics\"}\n{\"cmd\":\"shutdown\"}\n");

    let sink: Arc<std::sync::Mutex<Vec<u8>>> = Arc::default();
    serve(
        ServiceConfig { workers: 4, queue_capacity: 16, cache_capacity: 16, ..ServiceConfig::default() },
        input.as_bytes(),
        CollectWriter(sink.clone()),
    )
    .unwrap();

    let output = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
    let mut seen = HashMap::new();
    let mut saw_metrics = false;
    for line in output.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("output is JSON lines");
        if v.get("metrics").is_some() {
            saw_metrics = true;
        } else if let Some(id) = v.get("id") {
            let id = match id {
                serde_json::Value::Int(i) => *i as u64,
                other => panic!("non-integer id: {other:?}"),
            };
            seen.insert(id, v);
        }
    }
    assert!(saw_metrics, "metrics line missing:\n{output}");
    assert_eq!(seen.len(), 9, "all nine jobs must respond:\n{output}");
    for id in 1..=8u64 {
        let status = seen[&id].get("status").and_then(|s| s.as_str()).unwrap();
        assert_eq!(status, "Done", "job {id}:\n{output}");
    }
    let expired = &seen[&9];
    assert_eq!(expired.get("status").and_then(|s| s.as_str()), Some("DeadlineExpired"));
    match expired.get("plan_len") {
        Some(serde_json::Value::Int(n)) => assert_eq!(*n, 0, "fast-failed job must not have run"),
        other => panic!("bad plan_len: {other:?}"),
    }
}

/// Deterministic random STRIPS problem; `tweak_goal` flips one condition's
/// goal membership, leaving everything else identical.
fn build_strips(nc: usize, no: usize, seed: u64, tweak_goal: bool) -> StripsProblem {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = StripsBuilder::new();
    let names: Vec<String> = (0..nc).map(|i| format!("c{i}")).collect();
    for n in &names {
        b.condition(n).unwrap();
    }
    let pick = |rng: &mut StdRng, p: f64| -> Vec<usize> { (0..nc).filter(|_| rng.gen::<f64>() < p).collect() };
    for i in 0..no {
        let pre: Vec<&str> = pick(&mut rng, 0.3).into_iter().map(|i| names[i].as_str()).collect();
        let add: Vec<&str> = pick(&mut rng, 0.3).into_iter().map(|i| names[i].as_str()).collect();
        let del: Vec<&str> = pick(&mut rng, 0.2).into_iter().map(|i| names[i].as_str()).collect();
        b.op(&format!("op{i}"), &pre, &add, &del, 1.0 + rng.gen::<f64>()).unwrap();
    }
    let init: Vec<&str> = pick(&mut rng, 0.5).into_iter().map(|i| names[i].as_str()).collect();
    let mut goal_idx = pick(&mut rng, 0.3);
    if tweak_goal {
        match goal_idx.iter().position(|&i| i == 0) {
            Some(pos) => {
                goal_idx.remove(pos);
            }
            None => goal_idx.insert(0, 0),
        }
    }
    let goal: Vec<&str> = goal_idx.into_iter().map(|i| names[i].as_str()).collect();
    b.init(&init).unwrap();
    b.goal(&goal).unwrap();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cache key's problem half: rebuilding the same problem yields the
    /// same signature, and changing only the goal changes it.
    #[test]
    fn problem_signature_stable_and_goal_sensitive(
        nc in 3usize..8, no in 2usize..10, seed in any::<u64>()
    ) {
        let a = build_strips(nc, no, seed, false);
        let b = build_strips(nc, no, seed, false);
        prop_assert_eq!(a.signature(), b.signature(), "signature must be deterministic");

        let tweaked = build_strips(nc, no, seed, true);
        prop_assert_ne!(a.signature(), tweaked.signature(), "goal change must change signature");
    }

    /// The cache key's config half: equal configs agree, and every knob a
    /// request can override is discriminated. The `parallel` flag is
    /// excluded by design (it cannot change the result).
    #[test]
    fn config_signature_stable_and_knob_sensitive(
        pop in 2usize..500, gens in 1u32..200, seed in any::<u64>()
    ) {
        let cfg = GaConfig {
            population_size: pop,
            generations_per_phase: gens,
            seed,
            ..GaConfig::default()
        };
        prop_assert_eq!(cfg.signature(), cfg.clone().signature());

        let mut other = cfg.clone();
        other.population_size += 1;
        prop_assert_ne!(cfg.signature(), other.signature());
        let mut other = cfg.clone();
        other.generations_per_phase += 1;
        prop_assert_ne!(cfg.signature(), other.signature());
        let mut other = cfg.clone();
        other.seed ^= 1;
        prop_assert_ne!(cfg.signature(), other.signature());

        let mut par = cfg.clone();
        par.eval = match par.eval {
            gaplan_ga::EvalMode::Serial => gaplan_ga::EvalMode::Parallel,
            gaplan_ga::EvalMode::Parallel => gaplan_ga::EvalMode::Serial,
        };
        par.succ_cache = !par.succ_cache;
        par.succ_cache_capacity /= 2;
        prop_assert_eq!(cfg.signature(), par.signature(), "eval/cache knobs must not affect the key");
    }
}
