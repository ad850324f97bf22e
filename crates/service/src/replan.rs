//! Adapter that lets the grid simulator replan through the service.
//!
//! `gaplan_grid::sim::Coordinator` takes a `Fn(&GridWorld) -> Plan`
//! replanner; [`ServiceReplanner::replan`] has that shape, so the
//! coordinator's mid-execution replans flow through the service's queue,
//! deadline handling, plan cache and metrics instead of calling the GA
//! directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::time::Duration;

use gaplan_core::{OpId, Plan};
use gaplan_ga::GaConfig;
use gaplan_grid::GridWorld;

use crate::metrics::Metric;
use crate::service::PlanService;

/// Synchronous, service-backed replanner for the grid simulator.
pub struct ServiceReplanner<'s> {
    service: &'s PlanService,
    cfg: GaConfig,
    deadline: Option<Duration>,
    /// Ids for replan jobs; start high so they never collide with
    /// client-chosen wire ids in a shared service.
    next_id: AtomicU64,
}

impl<'s> ServiceReplanner<'s> {
    /// A replanner submitting to `service` with the given GA config.
    pub fn new(service: &'s PlanService, cfg: GaConfig) -> Self {
        ServiceReplanner { service, cfg, deadline: None, next_id: AtomicU64::new(1 << 48) }
    }

    /// Bound each replan by a wall-clock deadline; on expiry the
    /// best-so-far plan is used.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Plan for a world snapshot, blocking until the service answers.
    ///
    /// An empty plan can mean two very different things, and the metrics
    /// tell them apart: a *healthy* service that found no repair returns an
    /// empty plan quietly, while a dead or rejecting service (submit
    /// refused, or the reply channel dropped without an answer — the worker
    /// died and the service with it) also bumps the `replans_failed`
    /// counter so the simulator can surface service loss rather than
    /// mistake it for "no repair exists".
    pub fn replan(&self, snapshot: &GridWorld) -> Plan {
        let (reply_tx, reply_rx) = channel();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if self.service.submit_grid(id, snapshot.clone(), self.cfg.clone(), self.deadline, reply_tx).is_err() {
            self.service.metrics_ref().inc(Metric::ReplansFailed);
            return Plan::default();
        }
        match reply_rx.recv() {
            Ok(resp) => Plan::from_ops(resp.plan_ops.into_iter().map(OpId).collect()),
            Err(_) => {
                // The service dropped the reply sender without answering:
                // it is gone, not merely out of ideas.
                self.service.metrics_ref().inc(Metric::ReplansFailed);
                Plan::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use gaplan_core::Domain;
    use gaplan_ga::CostFitnessMode;
    use gaplan_grid::scenario::image_pipeline;

    fn replan_config(seed: u64) -> GaConfig {
        let mut cfg = GaConfig {
            population_size: 60,
            generations_per_phase: 30,
            max_phases: 2,
            initial_len: 10,
            max_len: 24,
            cost_fitness: CostFitnessMode::InverseCost,
            seed,
            ..GaConfig::default()
        };
        cfg.truncate_at_goal = true;
        cfg
    }

    #[test]
    fn replans_a_world_snapshot_through_the_service() {
        let world = image_pipeline().world;
        let (service, _responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
        .unwrap();
        let replanner = ServiceReplanner::new(&service, replan_config(11));
        let plan = replanner.replan(&world);
        assert!(!plan.is_empty(), "replanner should find some plan");
        assert!(plan.simulate(&world, &world.initial_state()).is_ok());
        // Same snapshot again → answered from the cache.
        let again = replanner.replan(&world);
        assert_eq!(again.ops(), plan.ops());
        assert_eq!(service.metrics()[Metric::CacheHits], 1);
        assert_eq!(service.metrics()[Metric::ReplansFailed], 0, "a healthy service is not a failed replan");
        service.shutdown();
    }

    #[test]
    fn chaos_dead_service_is_counted_as_failed_replan() {
        let world = image_pipeline().world;
        // Queue of 1 with no workers draining fast enough doesn't model
        // death; instead, shut the intake down by saturating with a
        // zero-capacity trick: submit against a service whose queue is
        // full of uncancellable work.
        let (service, _responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        // Pin the worker and fill the queue so the replan submit is refused.
        let slow = |id| crate::request::PlanRequest {
            id,
            problem: crate::request::ProblemSpec::Hanoi { disks: 10 },
            deadline_ms: None,
            ga: None,
        };
        service.submit(slow(1)).unwrap();
        // The worker may not have dequeued job 1 yet; retry until job 2
        // occupies the queue slot while job 1 pins the worker.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.submit(slow(2)).is_err() {
            assert!(std::time::Instant::now() < deadline, "worker never dequeued the pinning job");
            std::thread::sleep(Duration::from_millis(1));
        }
        let replanner = ServiceReplanner::new(&service, replan_config(11));
        let plan = replanner.replan(&world);
        assert!(plan.is_empty(), "refused replan degrades to an empty plan");
        assert_eq!(
            service.metrics()[Metric::ReplansFailed],
            1,
            "service loss must be distinguishable: {:?}",
            service.metrics()
        );
        service.cancel(1);
        service.cancel(2);
        service.shutdown();
    }
}
