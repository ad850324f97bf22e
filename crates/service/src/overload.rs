//! Adaptive overload control: deadline-aware admission, a CoDel-style
//! controlled-delay queue, and anytime GA brownout.
//!
//! The fixed admission timeout from the original service answers only one
//! question — "has the queue been full for too long?" — which under
//! sustained over-capacity traffic degenerates into timeout storms: every
//! queued job waits the maximum, workers burn full GA runs on jobs whose
//! callers have given up, and goodput collapses. This module adds three
//! complementary controls, all driven by cheap EWMAs maintained in
//! [`Metrics`]:
//!
//! 1. **Deadline-aware admission** ([`OverloadControl::would_miss_deadline`]):
//!    a job whose remaining deadline is smaller than the estimated queue
//!    wait is rejected *at submit time* with
//!    `SubmitError::WouldMissDeadline`, before it can displace feasible
//!    work. The wait estimate is
//!    `max(queue_wait_ewma, queue_depth × exec_ewma / workers)` — the
//!    observed wait covers steady state, the backlog product covers a
//!    sudden burst the EWMA has not caught up with.
//! 2. **CoDel head shedding** ([`OverloadControl::codel_on_dequeue`]): when
//!    the sojourn (queue wait) of dequeued jobs stays above `target` for a
//!    full `interval`, the controller enters a dropping state and sheds
//!    jobs *from the head of the queue* at `interval / √count` spacing —
//!    the classic controlled-delay law. Head drops bound the wait of the
//!    jobs that remain; a fixed admission timeout (tail control) bounds
//!    nothing once the queue is saturated.
//! 3. **Anytime brownout** ([`OverloadControl::brownout_factor`]): the GA
//!    is an anytime algorithm, so under pressure the service can degrade
//!    *quality* instead of availability — scale generations and population
//!    down toward a floor and mark the response `degraded`. Entry and exit
//!    use distinct thresholds on the wait EWMA (hysteresis), so the
//!    controller does not flap around a single boundary.
//!
//! Everything here defaults *off* ([`OverloadConfig::default`]), keeping
//! the service byte-for-byte compatible with the pre-overload releases
//! until `--target-ms` / `--brownout` opt in.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gaplan_obs::{self as obs, Event};
use parking_lot::Mutex;

use crate::metrics::{Metric, Metrics};

/// Tuning for the overload-control layer. The default disables every
/// control, reproducing the fixed-admission-timeout service exactly.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// CoDel sojourn target, milliseconds; 0 disables head shedding.
    pub codel_target_ms: u64,
    /// CoDel control interval, milliseconds (how long sojourn must stay
    /// above target before the first head drop, and the base spacing of
    /// subsequent drops).
    pub codel_interval_ms: u64,
    /// Reject jobs at admission when their deadline is provably unmeetable
    /// given the estimated queue wait.
    pub deadline_admission: bool,
    /// Brownout floor for the GA budget factor, in (0, 1); 0 or ≥ 1
    /// disables brownout.
    pub brownout_floor: f64,
    /// Queue-wait EWMA above which brownout engages, milliseconds.
    pub brownout_enter_ms: u64,
    /// Queue-wait EWMA below which brownout disengages, milliseconds
    /// (should be below `brownout_enter_ms` for hysteresis).
    pub brownout_exit_ms: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            codel_target_ms: 0,
            codel_interval_ms: 100,
            deadline_admission: false,
            brownout_floor: 1.0,
            brownout_enter_ms: 50,
            brownout_exit_ms: 12,
        }
    }
}

impl OverloadConfig {
    /// Is CoDel head shedding on?
    pub fn codel_enabled(&self) -> bool {
        self.codel_target_ms > 0
    }

    /// Is anytime brownout on?
    pub fn brownout_enabled(&self) -> bool {
        self.brownout_floor > 0.0 && self.brownout_floor < 1.0
    }
}

/// CoDel controller state (guarded by a mutex; touched once per dequeue).
#[derive(Debug, Default)]
struct CodelState {
    /// When sojourn first crossed the target; a drop is armed once it has
    /// stayed above for a full interval.
    first_above: Option<Instant>,
    /// In the dropping state?
    dropping: bool,
    /// Drops since entering the dropping state (sets the √count spacing).
    count: u32,
    /// Next scheduled drop while dropping.
    drop_next: Option<Instant>,
}

/// Shared overload controller, one per [`crate::PlanService`].
#[derive(Debug)]
pub struct OverloadControl {
    cfg: OverloadConfig,
    workers: usize,
    codel: Mutex<CodelState>,
    brownout_on: AtomicBool,
}

impl OverloadControl {
    /// Controller for a pool of `workers` workers.
    pub fn new(cfg: OverloadConfig, workers: usize) -> Self {
        OverloadControl {
            cfg,
            workers: workers.max(1),
            codel: Mutex::new(CodelState::default()),
            brownout_on: AtomicBool::new(false),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// Estimated queue wait for a job admitted now, milliseconds: the
    /// larger of the observed wait EWMA and the backlog estimate
    /// `queue_depth × exec_ewma / workers`.
    pub fn estimated_wait_ms(&self, metrics: &Metrics) -> u64 {
        let backlog = metrics.get(Metric::QueueDepth).saturating_mul(metrics.exec_ewma_ms()) / self.workers as u64;
        metrics.queue_wait_ewma_ms().max(backlog)
    }

    /// Would a job with this absolute deadline provably miss it just from
    /// queueing? Always false with deadline admission off or before any
    /// wait/exec samples exist (est = 0 ⇒ no evidence to reject on).
    pub fn would_miss_deadline(&self, metrics: &Metrics, deadline: Instant, now: Instant) -> bool {
        if !self.cfg.deadline_admission {
            return false;
        }
        let est = self.estimated_wait_ms(metrics);
        if est == 0 {
            return false;
        }
        let remaining = deadline.saturating_duration_since(now).as_millis() as u64;
        est > remaining
    }

    /// Feed one dequeue sojourn to the CoDel controller; `true` means the
    /// just-dequeued job should be shed (head drop). Call once per
    /// dequeue, *before* deciding to run the job.
    pub fn codel_on_dequeue(&self, sojourn_ms: u64) -> bool {
        if !self.cfg.codel_enabled() {
            return false;
        }
        let interval = Duration::from_millis(self.cfg.codel_interval_ms.max(1));
        let now = Instant::now();
        let mut st = self.codel.lock();
        if sojourn_ms < self.cfg.codel_target_ms {
            // Sojourn back under target: leave the dropping state entirely.
            st.first_above = None;
            st.dropping = false;
            st.count = 0;
            st.drop_next = None;
            return false;
        }
        if st.dropping {
            match st.drop_next {
                Some(t) if now >= t => {
                    st.count = st.count.saturating_add(1);
                    st.drop_next = Some(now + interval.div_f64((st.count as f64).sqrt()));
                    true
                }
                _ => false,
            }
        } else {
            match st.first_above {
                None => {
                    st.first_above = Some(now + interval);
                    false
                }
                Some(t) if now >= t => {
                    // Above target for a full interval: enter dropping and
                    // shed this head job.
                    st.dropping = true;
                    st.count = 1;
                    st.drop_next = Some(now + interval);
                    true
                }
                Some(_) => false,
            }
        }
    }

    /// GA budget factor for the next job: 1.0 when healthy, clamped to
    /// `[brownout_floor, 1]` while browned out. Emits a `svc.brownout`
    /// trace event on every state transition.
    pub fn brownout_factor(&self, metrics: &Metrics) -> f64 {
        if !self.cfg.brownout_enabled() {
            return 1.0;
        }
        let wait = metrics.queue_wait_ewma_ms();
        let enter = self.cfg.brownout_enter_ms.max(1);
        let on = self.brownout_on.load(Ordering::Relaxed);
        let next = if on { wait > self.cfg.brownout_exit_ms } else { wait >= enter };
        if next != on && self.brownout_on.compare_exchange(on, next, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
            obs::emit(|| Event::new("svc.brownout").bool("on", next).u64("queue_wait_ewma_ms", wait));
        }
        if !next {
            return 1.0;
        }
        // Deeper queues → smaller budgets, proportionally to how far the
        // wait has run past the engage threshold.
        (enter as f64 / wait.max(1) as f64).clamp(self.cfg.brownout_floor, 1.0)
    }

    /// Is the brownout controller currently engaged?
    pub fn brownout_active(&self) -> bool {
        self.brownout_on.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control(cfg: OverloadConfig, workers: usize) -> OverloadControl {
        OverloadControl::new(cfg, workers)
    }

    #[test]
    fn defaults_disable_every_control() {
        let cfg = OverloadConfig::default();
        assert!(!cfg.codel_enabled());
        assert!(!cfg.brownout_enabled());
        assert!(!cfg.deadline_admission);
        let ctl = control(cfg, 2);
        let m = Metrics::new();
        assert!(!ctl.codel_on_dequeue(10_000));
        assert_eq!(ctl.brownout_factor(&m), 1.0);
        assert!(!ctl.would_miss_deadline(&m, Instant::now(), Instant::now()));
    }

    #[test]
    fn codel_drops_only_after_a_sustained_interval_then_paces() {
        let cfg = OverloadConfig { codel_target_ms: 1, codel_interval_ms: 20, ..OverloadConfig::default() };
        let ctl = control(cfg, 1);
        // First above-target sojourn only arms the controller.
        assert!(!ctl.codel_on_dequeue(50));
        // Still within the interval: no drop yet.
        assert!(!ctl.codel_on_dequeue(50));
        std::thread::sleep(Duration::from_millis(25));
        // Above target for a full interval: head drop.
        assert!(ctl.codel_on_dequeue(50), "expected the first head drop");
        // Immediately after a drop the next one is paced out.
        assert!(!ctl.codel_on_dequeue(50));
        std::thread::sleep(Duration::from_millis(25));
        assert!(ctl.codel_on_dequeue(50), "expected a paced follow-up drop");
        // A below-target sojourn resets the controller completely.
        assert!(!ctl.codel_on_dequeue(0));
        assert!(!ctl.codel_on_dequeue(50));
    }

    #[test]
    fn brownout_engages_with_hysteresis_and_recovers() {
        let cfg = OverloadConfig {
            brownout_floor: 0.25,
            brownout_enter_ms: 20,
            brownout_exit_ms: 5,
            ..OverloadConfig::default()
        };
        let ctl = control(cfg, 1);
        let m = Metrics::new();
        assert_eq!(ctl.brownout_factor(&m), 1.0);
        // Push the wait EWMA to 100 ms → engaged at the floor (20/100 < 0.25).
        m.on_submit();
        m.on_dequeue(100);
        let f = ctl.brownout_factor(&m);
        assert!(ctl.brownout_active());
        assert!((f - 0.25).abs() < 1e-9, "expected the floor, got {f}");
        // Decay the EWMA with idle samples; between exit (5) and enter (20)
        // the controller must stay engaged (hysteresis)...
        while m.queue_wait_ewma_ms() > 5 {
            m.on_submit();
            m.on_dequeue(0);
            if (6..20).contains(&m.queue_wait_ewma_ms()) {
                ctl.brownout_factor(&m);
                assert!(ctl.brownout_active(), "must not disengage above the exit threshold");
            }
        }
        // ...and disengage only once the wait drops below exit.
        assert_eq!(ctl.brownout_factor(&m), 1.0);
        assert!(!ctl.brownout_active());
    }

    #[test]
    fn admission_rejects_unmeetable_deadlines_only_with_evidence() {
        let cfg = OverloadConfig { deadline_admission: true, ..OverloadConfig::default() };
        let ctl = control(cfg, 1);
        let m = Metrics::new();
        let now = Instant::now();
        // No samples yet: estimate is 0, nothing is rejected.
        assert!(!ctl.would_miss_deadline(&m, now + Duration::from_millis(1), now));
        // Backlog estimate: 3 queued × 50 ms exec / 1 worker = 150 ms.
        m.on_exec(50);
        m.on_submit();
        m.on_submit();
        m.on_submit();
        assert_eq!(ctl.estimated_wait_ms(&m), 150);
        assert!(ctl.would_miss_deadline(&m, now + Duration::from_millis(10), now));
        assert!(!ctl.would_miss_deadline(&m, now + Duration::from_secs(1), now));
        // A two-worker pool halves the backlog estimate.
        let ctl2 = control(OverloadConfig { deadline_admission: true, ..OverloadConfig::default() }, 2);
        assert_eq!(ctl2.estimated_wait_ms(&m), 75);
    }
}
