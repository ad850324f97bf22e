//! The multi-phase GA (paper §3.5): the search is divided into serially
//! independent GA runs. Phase 1 starts from the initial state; each later
//! phase starts from the final state of the previous phase's best solution;
//! the final plan is the concatenation of per-phase bests. The search ends
//! when a phase produces a valid solution or after `max_phases` phases.

use std::sync::Arc;

use gaplan_core::budget::{Budget, StopCause};
use gaplan_core::{Domain, OpId, Plan, SuccessorCache};
use gaplan_obs as obs;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{MultiPhaseCheckpoint, PhaseSnapshot, ResumeError, CHECKPOINT_VERSION};
use crate::config::{GaConfig, GoalEval};
use crate::engine::{Phase, PhaseResult};
use crate::seeding::SeedStrategy;
use crate::stats::GenStats;

/// Compact per-phase summary kept in the multi-phase result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// 1-based phase number.
    pub phase: u32,
    /// Goal fitness of the phase's best individual (evaluated at the end of
    /// the concatenated plan so far).
    pub best_goal_fitness: f64,
    /// Total fitness of the phase's best individual.
    pub best_total_fitness: f64,
    /// Decoded plan length contributed by this phase.
    pub plan_len: usize,
    /// Generations evolved in this phase.
    pub generations: u32,
    /// First generation of this phase at which an individual solved.
    pub first_solution_gen: Option<u32>,
}

/// The result of a multi-phase GA run.
#[derive(Debug, Clone)]
pub struct MultiPhaseResult<S> {
    /// The concatenated plan (paper §3.5 step 3).
    pub plan: Plan,
    /// Final state after executing the concatenated plan.
    pub final_state: S,
    /// Goal fitness of the final state.
    pub goal_fitness: f64,
    /// Did the run find a valid solution?
    pub solved: bool,
    /// 1-based phase in which the solution was found, if any (the paper's
    /// Table 5 statistic).
    pub solved_in_phase: Option<u32>,
    /// Per-phase summaries.
    pub phases: Vec<PhaseSummary>,
    /// Full per-generation history, concatenated across phases.
    pub history: Vec<GenStats>,
    /// Total generations evolved across all phases.
    pub total_generations: u32,
    /// Generations executed up to and including the solving phase; equals
    /// `total_generations` when unsolved. This is the paper's "number of
    /// generations to find a solution" column.
    pub generations_to_solution: u32,
    /// Cumulative generation index (across phases) at which *some*
    /// individual first solved, if any — finer-grained than the paper's
    /// phase-resolution statistic.
    pub first_solution_gen: Option<u32>,
    /// Why the run was cut short by its [`Budget`], if it was. Even when
    /// `Some`, `plan` holds the best-so-far concatenation (at least one
    /// generation of phase 1 always runs).
    pub stopped: Option<StopCause>,
}

/// Driver for the multi-phase GA.
pub struct MultiPhase<'d, D: Domain> {
    domain: &'d D,
    cfg: GaConfig,
    seeder: Option<(SeedStrategy, f64)>,
    budget: Budget,
    cache: Option<Arc<SuccessorCache<D::State>>>,
    problem_sig: u64,
}

impl<'d, D: Domain> MultiPhase<'d, D> {
    /// Create a driver. Use `cfg.max_phases = 1` (or
    /// [`GaConfig::single_phase`]) for the paper's single-phase baseline.
    pub fn new(domain: &'d D, cfg: GaConfig) -> Self {
        MultiPhase { domain, cfg, seeder: None, budget: Budget::unlimited(), cache: None, problem_sig: 0 }
    }

    /// Stamp checkpoints with the problem's signature, and refuse to resume
    /// a checkpoint carrying a different one. Without this (or with 0, the
    /// "unknown" sentinel), the problem check is skipped — the config check
    /// still applies either way.
    pub fn with_problem_sig(mut self, sig: u64) -> Self {
        self.problem_sig = sig;
        self
    }

    /// Share an external successor cache across this run's phases (and with
    /// whatever else holds the `Arc` — e.g. the planning service reuses one
    /// cache across replans of the same problem). Without this, the run
    /// builds one cache shared by its phases when `cfg.succ_cache` is on.
    pub fn with_cache(mut self, cache: Arc<SuccessorCache<D::State>>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach an execution budget (deadline and/or cancellation token). It
    /// is shared by all phases: each phase checks it between generations,
    /// and a stopped phase ends the whole run with its best-so-far plan.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Seed a fraction of every phase's initial population (see
    /// [`crate::seeding`]). Plan seeds apply to phase 1 only (later phases
    /// start from different states, where the plans rarely re-encode);
    /// walk-based strategies reseed from each phase's start state.
    pub fn with_seeder(mut self, strategy: SeedStrategy, fraction: f64) -> Self {
        self.seeder = Some((strategy, fraction));
        self
    }

    /// Run up to `max_phases` phases and assemble the concatenated solution.
    pub fn run(&self) -> MultiPhaseResult<D::State> {
        self.run_checkpointed(None, 0, &mut |_| {}).expect("no checkpoint to resume, so no resume errors")
    }

    /// [`MultiPhase::run`] with checkpointing: after every completed phase
    /// that leaves more work to do, a phase-boundary [`MultiPhaseCheckpoint`]
    /// is handed to `sink`; with `snapshot_every > 0`, mid-phase checkpoints
    /// (carrying a [`PhaseSnapshot`]) are additionally emitted every that
    /// many generations. Passing a previously emitted checkpoint as `resume`
    /// continues the run from that point, bitwise-identically to an
    /// uninterrupted run: phase RNG streams are freshly derived per phase,
    /// the resume start state is reconstructed by replaying the accumulated
    /// plan, and mid-phase snapshots carry the raw RNG state.
    ///
    /// Fails with [`ResumeError`] when the checkpoint does not belong to
    /// this (problem, config, engine version) — never resumes from a
    /// mismatched or corrupt checkpoint.
    pub fn run_checkpointed(
        &self,
        resume: Option<&MultiPhaseCheckpoint>,
        snapshot_every: u32,
        sink: &mut dyn FnMut(&MultiPhaseCheckpoint),
    ) -> Result<MultiPhaseResult<D::State>, ResumeError> {
        self.cfg.validate().expect("invalid GaConfig");
        let config_sig = self.cfg.signature();

        let start_phase;
        let mut phase_resume: Option<PhaseSnapshot> = None;
        let resume_plan: Option<Plan>;
        if let Some(cp) = resume {
            if cp.version != CHECKPOINT_VERSION {
                return Err(ResumeError::VersionMismatch { found: cp.version, expected: CHECKPOINT_VERSION });
            }
            // Checked before the config signature so a mid-phase snapshot
            // taken under a different island count gets the specific error
            // (the signature would also differ, but says only "config").
            if let Some(snap) = &cp.phase_snapshot {
                if snap.islands() != self.cfg.islands {
                    return Err(ResumeError::IslandMismatch { found: snap.islands(), expected: self.cfg.islands });
                }
            }
            if cp.config_sig != config_sig {
                return Err(ResumeError::ConfigMismatch { found: cp.config_sig, expected: config_sig });
            }
            if self.problem_sig != 0 && cp.problem_sig != 0 && cp.problem_sig != self.problem_sig {
                return Err(ResumeError::ProblemMismatch { found: cp.problem_sig, expected: self.problem_sig });
            }
            if cp.next_phase >= self.cfg.max_phases {
                return Err(ResumeError::PhaseOutOfRange {
                    next_phase: cp.next_phase,
                    max_phases: self.cfg.max_phases,
                });
            }
            if let Some(snap) = &cp.phase_snapshot {
                snap.validate()?;
                if snap.phase_index != cp.next_phase {
                    return Err(ResumeError::BadSnapshot(format!(
                        "snapshot phase {} != checkpoint next phase {}",
                        snap.phase_index, cp.next_phase
                    )));
                }
                if snap.next_gen >= self.cfg.generations_per_phase {
                    return Err(ResumeError::BadSnapshot(format!(
                        "snapshot next_gen {} >= generations_per_phase {}",
                        snap.next_gen, self.cfg.generations_per_phase
                    )));
                }
                phase_resume = Some(snap.clone());
            }
            start_phase = cp.next_phase;
            resume_plan = Some(Plan::from_ops(cp.plan_ops.iter().map(|&op| OpId(op)).collect()));
        } else {
            start_phase = 0;
            resume_plan = None;
        }

        let _run_span = obs::span("ga.run");
        // One successor cache for the whole run: later phases search the
        // same state space and start warm. Pure optimization — results are
        // identical with the cache off.
        let cache: Option<Arc<SuccessorCache<D::State>>> = if self.cfg.succ_cache {
            Some(self.cache.clone().unwrap_or_else(|| Arc::new(SuccessorCache::new(self.cfg.succ_cache_capacity))))
        } else {
            None
        };
        let mut plan = Plan::new();
        let mut state = self.domain.initial_state();
        let mut phases = Vec::new();
        let mut history = Vec::new();
        let mut total_generations = 0;
        let mut solved_in_phase = None;
        let mut generations_to_solution = 0;
        let mut first_solution_gen = None;
        let mut stopped = None;

        if let (Some(cp), Some(rp)) = (resume, resume_plan) {
            // Reconstruct the resume start state by replaying the
            // accumulated plan — checkpoints carry no domain state, so they
            // stay domain-agnostic and a stale plan fails here loudly
            // instead of resuming from a silently wrong state.
            state = rp.simulate_unchecked(self.domain, &state).final_state;
            plan = rp;
            phases = cp.phases.clone();
            history = cp.history.clone();
            total_generations = cp.total_generations;
            first_solution_gen = cp.first_solution_gen;
        }

        for p in start_phase..self.cfg.max_phases {
            // A phase always evaluates at least one generation, so check
            // the shared budget here to avoid starting a doomed phase —
            // except before phase 1, which must run for best-so-far to
            // exist.
            if p > 0 {
                if let Some(cause) = self.budget.check() {
                    stopped = Some(cause);
                    break;
                }
            }

            let PhaseResult {
                best,
                history: phase_history,
                generations_executed,
                first_solution_gen: phase_first_solution,
                stopped: phase_stopped,
            } = {
                let _phase_span = obs::span("ga.phase");
                let mut phase =
                    Phase::with_start(self.domain, self.cfg.clone(), state.clone(), p).with_budget(self.budget.clone());
                if let Some(cache) = &cache {
                    phase = phase.with_cache(Arc::clone(cache));
                }
                if let Some((strategy, fraction)) = &self.seeder {
                    let applies = match strategy {
                        SeedStrategy::Plans(_) => p == 0,
                        _ => true,
                    };
                    if applies {
                        phase = phase.with_seeder(strategy.clone(), *fraction);
                    }
                }
                // A mid-phase snapshot only ever resumes the phase it was
                // taken in; wrap each one in a full checkpoint carrying the
                // run-level accumulators as they stood when this phase began.
                let inner_resume = if p == start_phase { phase_resume.as_ref() } else { None };
                let mut inner_sink = |snap: PhaseSnapshot| {
                    sink(&MultiPhaseCheckpoint {
                        version: CHECKPOINT_VERSION,
                        problem_sig: self.problem_sig,
                        config_sig,
                        next_phase: p,
                        plan_ops: plan.ops().iter().map(|op| op.0).collect(),
                        phases: phases.clone(),
                        history: history.clone(),
                        total_generations,
                        first_solution_gen,
                        phase_snapshot: Some(snap),
                    });
                };
                phase.run_snapshotting(inner_resume, snapshot_every, &mut inner_sink)
            };

            if first_solution_gen.is_none() {
                if let Some(g) = phase_first_solution {
                    first_solution_gen = Some(total_generations + g);
                }
            }
            total_generations += generations_executed;
            history.extend(phase_history);
            let summary = PhaseSummary {
                phase: p + 1,
                best_goal_fitness: best.fitness.goal,
                best_total_fitness: best.fitness.total,
                plan_len: match self.cfg.goal_eval {
                    GoalEval::FinalState => best.ops.len(),
                    GoalEval::BestPrefix => best.best_prefix_at,
                },
                generations: generations_executed,
                first_solution_gen: phase_first_solution,
            };
            obs::emit(|| {
                obs::Event::new("ga.phase_end")
                    .u64("phase", summary.phase as u64)
                    .f64("best_goal", summary.best_goal_fitness)
                    .f64("best_total", summary.best_total_fitness)
                    .u64("plan_len", summary.plan_len as u64)
                    .u64("generations", summary.generations as u64)
                    .bool("solved", best.solves())
            });
            phases.push(summary);

            // keep the best solution of the phase and continue from its
            // final state (§3.5 step 2c). Under BestPrefix goal evaluation
            // the "solution" is the prefix achieving the best goal fitness,
            // so chaining continues from that prefix's state.
            match self.cfg.goal_eval {
                GoalEval::FinalState => {
                    plan.extend_from(&Plan::from_ops(best.ops.clone()));
                    state = best.final_state.clone();
                }
                GoalEval::BestPrefix => {
                    plan.extend_from(&Plan::from_ops(best.ops[..best.best_prefix_at].to_vec()));
                    state = best.best_prefix_state.clone();
                }
            }

            if best.solves() {
                solved_in_phase = Some(p + 1);
                generations_to_solution = total_generations;
                // A solving phase that was *cut* (deadline/cancel mid-
                // refinement) must still report the stop: its best-so-far
                // depends on where the cut landed, so callers that treat
                // `stopped: None` as "complete, deterministic run" (the
                // service's Done status and plan cache) would otherwise
                // cache and compare nondeterministic plans.
                stopped = phase_stopped;
                break;
            }

            if phase_stopped.is_some() {
                stopped = phase_stopped;
                break;
            }

            // Phase boundary with more phases to go: the natural checkpoint.
            // No RNG state is needed — phase `p + 1` derives a fresh stream
            // from `(seed, p + 1)` — so a resume from here is trivially
            // bitwise-identical.
            if p + 1 < self.cfg.max_phases {
                sink(&MultiPhaseCheckpoint {
                    version: CHECKPOINT_VERSION,
                    problem_sig: self.problem_sig,
                    config_sig,
                    next_phase: p + 1,
                    plan_ops: plan.ops().iter().map(|op| op.0).collect(),
                    phases: phases.clone(),
                    history: history.clone(),
                    total_generations,
                    first_solution_gen,
                    phase_snapshot: None,
                });
            }
        }

        if solved_in_phase.is_none() {
            generations_to_solution = total_generations;
        }
        let goal_fitness = self.domain.goal_fitness(&state);
        obs::emit(|| {
            obs::Event::new("ga.run_end")
                .bool("solved", solved_in_phase.is_some())
                .u64("phases", phases.len() as u64)
                .u64("total_generations", total_generations as u64)
                .f64("goal_fitness", goal_fitness)
                .u64("plan_len", plan.len() as u64)
        });
        Ok(MultiPhaseResult {
            solved: solved_in_phase.is_some(),
            solved_in_phase,
            plan,
            final_state: state,
            goal_fitness,
            phases,
            history,
            total_generations,
            generations_to_solution,
            first_solution_gen,
            stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaplan_core::strips::{StripsBuilder, StripsProblem};

    /// Bidirectional chain with permanent `reached-i` markers so the goal
    /// fitness is graded (a single-condition goal would give the GA no
    /// gradient at all).
    fn chain(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("s{i}")).unwrap();
        }
        for i in 1..=n {
            b.condition(&format!("reached{i}")).unwrap();
        }
        for i in 0..n {
            b.op(
                &format!("fwd{i}"),
                &[&format!("s{i}")],
                &[&format!("s{}", i + 1), &format!("reached{}", i + 1)],
                &[&format!("s{i}")],
                1.0,
            )
            .unwrap();
        }
        for i in 1..=n {
            b.op(&format!("bwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i - 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        b.init(&["s0"]).unwrap();
        let goal: Vec<String> = (1..=n).map(|i| format!("reached{i}")).collect();
        let goal_refs: Vec<&str> = goal.iter().map(String::as_str).collect();
        b.goal(&goal_refs).unwrap();
        b.build().unwrap()
    }

    fn cfg() -> GaConfig {
        GaConfig {
            population_size: 30,
            generations_per_phase: 25,
            max_phases: 4,
            initial_len: 6,
            max_len: 12,
            seed: 21,
            ..GaConfig::default()
        }
    }

    #[test]
    fn multiphase_solves_and_concatenated_plan_replays() {
        let d = chain(8); // long enough that later phases usually contribute
        let mut c = cfg();
        c.population_size = 50;
        c.generations_per_phase = 60;
        let r = MultiPhase::new(&d, c).run();
        assert!(r.solved, "goal fitness reached {}", r.goal_fitness);
        let out = r.plan.simulate(&d, &d.initial_state()).unwrap();
        assert!(out.solves);
        assert_eq!(out.final_state, r.final_state);
        assert_eq!(r.goal_fitness, 1.0);
    }

    #[test]
    fn phases_chain_states() {
        let d = chain(10);
        let r = MultiPhase::new(&d, cfg()).run();
        // total plan length equals the sum of per-phase contributions
        let total: usize = r.phases.iter().map(|p| p.plan_len).sum();
        assert_eq!(total, r.plan.len());
        // goal fitness is non-decreasing across phases (each phase keeps
        // its best-by-goal individual, and an empty plan preserves state)
        for w in r.phases.windows(2) {
            assert!(w[1].best_goal_fitness >= w[0].best_goal_fitness - 1e-9, "phase fitness regressed: {:?}", r.phases);
        }
    }

    #[test]
    fn stops_after_solving_phase() {
        let d = chain(4); // easy: solved in phase 1
        let r = MultiPhase::new(&d, cfg()).run();
        assert_eq!(r.solved_in_phase, Some(1));
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.total_generations, 25);
        assert_eq!(r.generations_to_solution, 25);
    }

    #[test]
    fn unsolved_run_reports_full_budget() {
        let d = chain(60); // impossible within 4 phases * max_len 12
        let r = MultiPhase::new(&d, cfg()).run();
        assert!(!r.solved);
        assert_eq!(r.solved_in_phase, None);
        assert_eq!(r.phases.len(), 4);
        assert_eq!(r.total_generations, 100);
        assert_eq!(r.generations_to_solution, 100);
        assert!(r.goal_fitness < 1.0);
    }

    #[test]
    fn single_phase_preset_runs_one_phase() {
        let d = chain(5);
        let mut c = cfg().single_phase();
        c.generations_per_phase = 40; // keep the test fast
        let r = MultiPhase::new(&d, c).run();
        assert_eq!(r.phases.len(), 1);
        // early stop: executed generations < budget when solved quickly
        if r.solved {
            assert!(r.total_generations <= 40);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = chain(8);
        let a = MultiPhase::new(&d, cfg()).run();
        let b = MultiPhase::new(&d, cfg()).run();
        assert_eq!(a.plan.ops(), b.plan.ops());
        assert_eq!(a.solved_in_phase, b.solved_in_phase);
        assert_eq!(a.total_generations, b.total_generations);
    }

    #[test]
    fn history_spans_all_phases() {
        let d = chain(60);
        let r = MultiPhase::new(&d, cfg()).run();
        assert_eq!(r.history.len() as u32, r.total_generations);
    }

    #[test]
    fn cancelled_run_returns_best_so_far_with_consistent_counts() {
        use gaplan_core::budget::{Budget, CancelToken, StopCause};
        let d = chain(60); // hard: would otherwise run all 4 phases
        let token = CancelToken::new();
        token.cancel();
        let r = MultiPhase::new(&d, cfg()).with_budget(Budget::unlimited().with_token(token)).run();
        assert_eq!(r.stopped, Some(StopCause::Cancelled));
        // phase 1 ran exactly one generation before noticing the token
        assert_eq!(r.total_generations, 1);
        assert_eq!(r.history.len() as u32, r.total_generations);
        assert_eq!(r.phases.len(), 1);
        // the best-so-far concatenation is still a valid (if poor) plan
        let out = r.plan.simulate(&d, &d.initial_state()).unwrap();
        assert_eq!(out.final_state, r.final_state);
    }

    #[test]
    fn solving_phase_cut_by_deadline_still_reports_the_stop() {
        use gaplan_core::budget::{Budget, StopCause};
        use std::time::{Duration, Instant};
        // Trivially solvable (single forced op), so the phase's best
        // solves even though the already-expired deadline cuts it after
        // one generation. The stop must not be masked by the solve: a cut
        // run's plan depends on where the cut landed, and downstream
        // consumers use `stopped: None` to mean "deterministic, cacheable".
        let d = chain(1);
        let deadline = Instant::now() - Duration::from_millis(1);
        let r = MultiPhase::new(&d, cfg()).with_budget(Budget::unlimited().with_deadline(deadline)).run();
        assert!(r.solved, "one-op chain must solve immediately: {r:?}");
        assert_eq!(r.stopped, Some(StopCause::Deadline), "deadline cut was masked by the solve");
    }

    #[test]
    fn trace_events_are_emitted_and_masked_stream_is_deterministic() {
        let d = chain(8);
        let run = || {
            let rec = std::sync::Arc::new(obs::RecordingSubscriber::default());
            let guard = obs::install(rec.clone());
            let r = MultiPhase::new(&d, cfg()).run();
            drop(guard);
            (r, rec.lines())
        };
        let (ra, la) = run();
        let (rb, lb) = run();
        // Same plan with and without tracing-driven clock reads.
        assert_eq!(ra.plan.ops(), rb.plan.ops());
        // One ga.gen and one ga.xover per generation, one phase_end per
        // phase, one run_end, balanced span lines.
        let count = |needle: &str| la.iter().filter(|l| l.starts_with(&format!("{{\"ev\":\"{needle}\""))).count();
        assert_eq!(count("ga.gen") as u32, ra.total_generations);
        // the final generation of each phase never breeds (the loop breaks
        // after evaluation), so xover events = generations - phases
        assert_eq!(count("ga.xover") as u32, ra.total_generations - ra.phases.len() as u32);
        assert_eq!(count("ga.phase_end"), ra.phases.len());
        // one cache-counter event per phase, cache on or off
        assert_eq!(count("ga.cache"), ra.phases.len());
        assert_eq!(count("ga.run_end"), 1);
        assert_eq!(count("span_enter"), count("span_exit"));
        // Byte-identical after masking wall-clock fields.
        let mask = |lines: &[String]| lines.iter().map(|l| obs::golden::mask_line(l)).collect::<Vec<_>>();
        assert_eq!(mask(&la), mask(&lb));
        // ...and the wall fields really did get masked to zero.
        assert!(mask(&la).iter().any(|l| l.contains(r#""eval_wall_ns":0"#)), "{la:?}");
    }

    #[test]
    fn multiphase_identical_with_cache_on_and_off() {
        let d = chain(10);
        let mut on = cfg();
        on.succ_cache = true;
        let mut off = cfg();
        off.succ_cache = false;
        let a = MultiPhase::new(&d, on).run();
        let b = MultiPhase::new(&d, off).run();
        assert_eq!(a.plan.ops(), b.plan.ops());
        assert_eq!(a.solved_in_phase, b.solved_in_phase);
        assert_eq!(a.total_generations, b.total_generations);
        assert_eq!(a.goal_fitness.to_bits(), b.goal_fitness.to_bits());
        assert_eq!(a.history.len(), b.history.len());
        for (ha, hb) in a.history.iter().zip(&b.history) {
            assert_eq!(ha.best_total.to_bits(), hb.best_total.to_bits());
            assert_eq!(ha.mean_total.to_bits(), hb.mean_total.to_bits());
        }
    }

    #[test]
    fn external_cache_is_shared_across_runs() {
        let d = chain(8);
        let cache = Arc::new(SuccessorCache::new(1 << 12));
        let r1 = MultiPhase::new(&d, cfg()).with_cache(Arc::clone(&cache)).run();
        let warm = cache.stats();
        let r2 = MultiPhase::new(&d, cfg()).with_cache(Arc::clone(&cache)).run();
        let second = cache.stats().since(&warm);
        // identical seeds: identical plans, but the second run decodes warm
        assert_eq!(r1.plan.ops(), r2.plan.ops());
        assert!(
            second.hits > second.misses,
            "second run should mostly hit (hits {} misses {})",
            second.hits,
            second.misses
        );
    }

    fn assert_bitwise_equal(
        a: &MultiPhaseResult<impl PartialEq + std::fmt::Debug>,
        b: &MultiPhaseResult<impl PartialEq + std::fmt::Debug>,
    ) {
        assert_eq!(a.plan.ops(), b.plan.ops());
        assert_eq!(a.goal_fitness.to_bits(), b.goal_fitness.to_bits());
        assert_eq!(a.solved, b.solved);
        assert_eq!(a.solved_in_phase, b.solved_in_phase);
        assert_eq!(a.total_generations, b.total_generations);
        assert_eq!(a.generations_to_solution, b.generations_to_solution);
        assert_eq!(a.first_solution_gen, b.first_solution_gen);
        assert_eq!(a.phases.len(), b.phases.len());
        assert_eq!(a.history.len(), b.history.len());
        for (ha, hb) in a.history.iter().zip(&b.history) {
            assert_eq!(ha.best_total.to_bits(), hb.best_total.to_bits());
            assert_eq!(ha.best_goal.to_bits(), hb.best_goal.to_bits());
            assert_eq!(ha.mean_total.to_bits(), hb.mean_total.to_bits());
            assert_eq!(ha.solvers, hb.solvers);
        }
    }

    #[test]
    fn resume_from_every_phase_boundary_is_bitwise_identical() {
        let d = chain(60); // hard: runs all 4 phases, so 3 boundary checkpoints
        let mut cps: Vec<MultiPhaseCheckpoint> = Vec::new();
        let full = MultiPhase::new(&d, cfg())
            .with_problem_sig(42)
            .run_checkpointed(None, 0, &mut |cp| cps.push(cp.clone()))
            .unwrap();
        assert_eq!(cps.len(), 3, "one checkpoint per non-final phase boundary");
        for cp in &cps {
            // Round trip through JSON exactly as the CLI persists it.
            let json = serde_json::to_string(cp).unwrap();
            let cp: MultiPhaseCheckpoint = serde_json::from_str(&json).unwrap();
            let resumed =
                MultiPhase::new(&d, cfg()).with_problem_sig(42).run_checkpointed(Some(&cp), 0, &mut |_| {}).unwrap();
            assert_bitwise_equal(&resumed, &full);
        }
    }

    #[test]
    fn resume_from_midphase_snapshot_is_bitwise_identical() {
        let d = chain(60);
        let mut cps: Vec<MultiPhaseCheckpoint> = Vec::new();
        let full = MultiPhase::new(&d, cfg()).run_checkpointed(None, 7, &mut |cp| cps.push(cp.clone())).unwrap();
        let mid: Vec<&MultiPhaseCheckpoint> = cps.iter().filter(|c| c.phase_snapshot.is_some()).collect();
        assert!(!mid.is_empty(), "25-generation phases at every-7 must snapshot");
        for cp in mid {
            let json = serde_json::to_string(cp).unwrap();
            let cp: MultiPhaseCheckpoint = serde_json::from_str(&json).unwrap();
            let resumed = MultiPhase::new(&d, cfg()).run_checkpointed(Some(&cp), 0, &mut |_| {}).unwrap();
            assert_bitwise_equal(&resumed, &full);
        }
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let d = chain(60); // unsolvable in 4 phases, so boundaries exist
        let mut cps: Vec<MultiPhaseCheckpoint> = Vec::new();
        MultiPhase::new(&d, cfg())
            .with_problem_sig(42)
            .run_checkpointed(None, 0, &mut |cp| cps.push(cp.clone()))
            .unwrap();
        let cp = cps.first().expect("unsolved 4-phase run leaves boundaries").clone();

        let mut bad = cp.clone();
        bad.version += 1;
        let err = MultiPhase::new(&d, cfg()).run_checkpointed(Some(&bad), 0, &mut |_| {}).unwrap_err();
        assert!(matches!(err, ResumeError::VersionMismatch { .. }));

        let mut other_cfg = cfg();
        other_cfg.seed += 1;
        let err = MultiPhase::new(&d, other_cfg).run_checkpointed(Some(&cp), 0, &mut |_| {}).unwrap_err();
        assert!(matches!(err, ResumeError::ConfigMismatch { .. }));

        let err =
            MultiPhase::new(&d, cfg()).with_problem_sig(7).run_checkpointed(Some(&cp), 0, &mut |_| {}).unwrap_err();
        assert!(matches!(err, ResumeError::ProblemMismatch { .. }));

        // problem sig 0 on either side skips the problem check
        MultiPhase::new(&d, cfg()).run_checkpointed(Some(&cp), 0, &mut |_| {}).unwrap();

        let mut bad = cp.clone();
        bad.next_phase = 99;
        let err = MultiPhase::new(&d, cfg()).run_checkpointed(Some(&bad), 0, &mut |_| {}).unwrap_err();
        assert!(matches!(err, ResumeError::PhaseOutOfRange { .. }));
    }

    #[test]
    fn resumed_run_trace_matches_uninterrupted_suffix() {
        // Phase-boundary resume must replay the *identical* event stream for
        // the remaining phases: the masked continuation trace (minus its
        // run-enter line) equals the uninterrupted trace's suffix from the
        // resumed phase's span_enter on (minus the final run-exit lines,
        // compared separately since both traces end with them).
        let d = chain(60);
        let mut cps: Vec<MultiPhaseCheckpoint> = Vec::new();
        let rec = std::sync::Arc::new(obs::RecordingSubscriber::default());
        let guard = obs::install(rec.clone());
        MultiPhase::new(&d, cfg()).run_checkpointed(None, 0, &mut |cp| cps.push(cp.clone())).unwrap();
        drop(guard);
        let full: Vec<String> = rec.lines().iter().map(|l| obs::golden::mask_line(l)).collect();

        for cp in &cps {
            let rec = std::sync::Arc::new(obs::RecordingSubscriber::default());
            let guard = obs::install(rec.clone());
            MultiPhase::new(&d, cfg()).run_checkpointed(Some(cp), 0, &mut |_| {}).unwrap();
            drop(guard);
            let resumed: Vec<String> = rec.lines().iter().map(|l| obs::golden::mask_line(l)).collect();

            // Uninterrupted suffix: from the (next_phase + 1)-th phase span
            // enter line onward.
            let phase_enters: Vec<usize> = full
                .iter()
                .enumerate()
                .filter(|(_, l)| l.starts_with("{\"ev\":\"span_enter\",\"span\":\"ga.phase\""))
                .map(|(i, _)| i)
                .collect();
            let suffix = &full[phase_enters[cp.next_phase as usize]..];
            // Resumed trace: drop its leading span_enter ga.run line.
            assert!(resumed[0].starts_with("{\"ev\":\"span_enter\",\"span\":\"ga.run\""), "{}", resumed[0]);
            assert_eq!(&resumed[1..], suffix, "trace suffix diverged for resume at phase {}", cp.next_phase);
        }
    }

    fn island_cfg() -> GaConfig {
        let mut c = cfg();
        c.population_size = 32; // divisible by 4 islands
        c.islands = 4;
        c.migration_interval = 5;
        c.emigrants = 2;
        c
    }

    #[test]
    fn island_multiphase_is_deterministic_and_traces_migrations() {
        let d = chain(60); // unsolvable: all 4 phases run their full budget
        let run = || {
            let rec = std::sync::Arc::new(obs::RecordingSubscriber::default());
            let guard = obs::install(rec.clone());
            let r = MultiPhase::new(&d, island_cfg()).run();
            drop(guard);
            (r, rec.lines())
        };
        let (ra, la) = run();
        let (rb, lb) = run();
        assert_eq!(ra.plan.ops(), rb.plan.ops());
        let mask = |lines: &[String]| lines.iter().map(|l| obs::golden::mask_line(l)).collect::<Vec<_>>();
        assert_eq!(mask(&la), mask(&lb), "island trace must be run-to-run deterministic");
        let count = |needle: &str| la.iter().filter(|l| l.starts_with(&format!("{{\"ev\":\"{needle}\""))).count();
        // the aggregated per-generation xover event keeps the single-
        // population trace shape: one per breeding generation
        assert_eq!(count("ga.xover") as u32, ra.total_generations - ra.phases.len() as u32);
        // migrations at gens 5/10/15/20 of each 25-generation phase
        assert_eq!(count("ga.migration"), 4 * ra.phases.len());
        // and masking blanks the migration wall field like any other
        assert!(
            mask(&la).iter().any(|l| l.starts_with("{\"ev\":\"ga.migration\"") && l.contains(r#""wall_ns":0"#)),
            "migration wall_ns must be masked"
        );
    }

    #[test]
    fn island_midphase_resume_is_bitwise_identical() {
        let d = chain(60);
        let mut cps: Vec<MultiPhaseCheckpoint> = Vec::new();
        let full = MultiPhase::new(&d, island_cfg()).run_checkpointed(None, 7, &mut |cp| cps.push(cp.clone())).unwrap();
        let mid: Vec<&MultiPhaseCheckpoint> = cps.iter().filter(|c| c.phase_snapshot.is_some()).collect();
        assert!(!mid.is_empty());
        for cp in mid {
            let json = serde_json::to_string(cp).unwrap();
            let cp: MultiPhaseCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(cp.phase_snapshot.as_ref().unwrap().islands(), 4);
            let resumed = MultiPhase::new(&d, island_cfg()).run_checkpointed(Some(&cp), 0, &mut |_| {}).unwrap();
            assert_bitwise_equal(&resumed, &full);
        }
    }

    #[test]
    fn resume_rejects_island_count_mismatch() {
        let d = chain(60);
        let mut cps: Vec<MultiPhaseCheckpoint> = Vec::new();
        MultiPhase::new(&d, island_cfg()).run_checkpointed(None, 7, &mut |cp| cps.push(cp.clone())).unwrap();
        let cp = cps.iter().find(|c| c.phase_snapshot.is_some()).expect("mid-phase checkpoint").clone();
        let mut two = island_cfg();
        two.islands = 2;
        let err = MultiPhase::new(&d, two).run_checkpointed(Some(&cp), 0, &mut |_| {}).unwrap_err();
        assert!(
            matches!(err, ResumeError::IslandMismatch { found: 4, expected: 2 }),
            "want the specific island error, got {err:?}"
        );
    }

    #[test]
    fn deadline_stops_between_phases() {
        use gaplan_core::budget::{Budget, StopCause};
        use std::time::Duration;
        let d = chain(60);
        let r = MultiPhase::new(&d, cfg()).with_budget(Budget::unlimited().with_timeout(Duration::ZERO)).run();
        assert_eq!(r.stopped, Some(StopCause::Deadline));
        assert!(r.total_generations < 100, "deadline should cut the 4x25 budget");
        assert_eq!(r.history.len() as u32, r.total_generations);
        assert!(!r.solved);
    }
}
