//! Checkpoint/resume types for multi-phase GA runs.
//!
//! The paper's phase decomposition (§3.5) makes the phase boundary a natural
//! checkpoint: each phase starts from a state fully determined by the
//! accumulated plan, and each phase's RNG stream is freshly derived from
//! `(seed, phase_index)`. A phase-boundary checkpoint therefore needs no RNG
//! state at all — just the plan so far plus the bookkeeping — and a resumed
//! run is *bitwise identical* to an uninterrupted one (proven by property
//! tests in `tests/checkpoint_resume.rs`).
//!
//! For long phases, an optional every-N-generations [`PhaseSnapshot`]
//! additionally captures the mid-phase population and the raw xoshiro256**
//! state, restoring the exact point in the evolve loop.
//!
//! These types deliberately contain only plain serde-friendly data (no
//! domain state): the resume path reconstructs the start state by replaying
//! `plan_ops` through the domain, which keeps checkpoints domain-agnostic
//! and self-validating — a plan that no longer replays fails loudly instead
//! of resuming from a silently wrong state.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::multiphase::PhaseSummary;
use crate::stats::GenStats;

/// Version tag embedded in every checkpoint; bumped whenever the layout or
/// the evolve loop's RNG consumption pattern changes incompatibly.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Mid-phase snapshot of the evolve loop, taken at the top of a generation
/// (after breeding generation `next_gen - 1`, before evaluating generation
/// `next_gen`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Which phase this snapshot belongs to (0-based).
    pub phase_index: u32,
    /// The next generation to evaluate (≥ 1: generation 0 always runs from
    /// the freshly derived phase RNG, so mid-phase snapshots start at 1).
    pub next_gen: u32,
    /// Raw xoshiro256** state (4 words), captured post-breeding so the
    /// resumed loop consumes the identical stream.
    pub rng: Vec<u64>,
    /// The bred-but-not-yet-evaluated population, as raw genes. Prefix-reuse
    /// hints are dropped: they are a pure optimization and never change
    /// results.
    pub genomes: Vec<Vec<f64>>,
    /// Genes of the best individual seen so far in this phase; re-evaluated
    /// on resume (decoding is deterministic, so the rebuilt individual is
    /// identical).
    pub best: Vec<f64>,
    /// Per-generation stats for generations `0..next_gen`.
    pub history: Vec<GenStats>,
    /// First generation of this phase at which some individual solved.
    pub first_solution_gen: Option<u32>,
    /// Island count the snapshot was taken under; `None` (a pre-island
    /// checkpoint) means 1. With `K` islands, `rng` holds `4·K` words (one
    /// xoshiro256** state per island, in island order) and `genomes` holds
    /// `K` equal contiguous blocks in island order.
    pub islands: Option<u32>,
}

/// A complete multi-phase checkpoint: everything needed to resume a run at a
/// phase boundary (or mid-phase when `phase_snapshot` is present) and finish
/// bitwise-identically to an uninterrupted run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiPhaseCheckpoint {
    /// Layout/semantics version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Signature of the problem this run is solving (0 = unknown; validated
    /// only when both the checkpoint and the resuming driver carry one).
    pub problem_sig: u64,
    /// `GaConfig::signature()` of the run. A checkpoint never resumes under
    /// a different configuration.
    pub config_sig: u64,
    /// The next phase to run (0-based).
    pub next_phase: u32,
    /// Accumulated plan (raw op ids) through the end of phase
    /// `next_phase - 1`; replayed through the domain to reconstruct the
    /// resume start state.
    pub plan_ops: Vec<u32>,
    /// Per-phase summaries for completed phases.
    pub phases: Vec<PhaseSummary>,
    /// Concatenated per-generation history for completed phases.
    pub history: Vec<GenStats>,
    /// Generations evolved across completed phases.
    pub total_generations: u32,
    /// Cumulative generation index of the first solution, if any.
    pub first_solution_gen: Option<u32>,
    /// Mid-phase snapshot of phase `next_phase`, when checkpointing
    /// every-N-generations was enabled and the run died inside a phase.
    pub phase_snapshot: Option<PhaseSnapshot>,
}

/// Why a checkpoint was rejected at resume time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// Checkpoint written by an incompatible version of the engine.
    VersionMismatch {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this engine expects.
        expected: u32,
    },
    /// Checkpoint belongs to a run with a different `GaConfig`.
    ConfigMismatch {
        /// Config signature found in the checkpoint.
        found: u64,
        /// Config signature of the resuming driver.
        expected: u64,
    },
    /// Checkpoint belongs to a different problem.
    ProblemMismatch {
        /// Problem signature found in the checkpoint.
        found: u64,
        /// Problem signature of the resuming driver.
        expected: u64,
    },
    /// `next_phase` is not below the configured `max_phases`.
    PhaseOutOfRange {
        /// The checkpoint's next phase.
        next_phase: u32,
        /// The configured phase budget.
        max_phases: u32,
    },
    /// The embedded snapshot was taken under a different island count than
    /// the resuming configuration runs with.
    IslandMismatch {
        /// Island count recorded in the checkpoint.
        found: u32,
        /// Island count of the resuming configuration.
        expected: u32,
    },
    /// The embedded [`PhaseSnapshot`] is internally inconsistent.
    BadSnapshot(String),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found} incompatible with engine version {expected}")
            }
            ResumeError::ConfigMismatch { found, expected } => {
                write!(f, "checkpoint config signature {found:#018x} != current config {expected:#018x}")
            }
            ResumeError::ProblemMismatch { found, expected } => {
                write!(f, "checkpoint problem signature {found:#018x} != current problem {expected:#018x}")
            }
            ResumeError::PhaseOutOfRange { next_phase, max_phases } => {
                write!(f, "checkpoint next phase {next_phase} out of range (max_phases {max_phases})")
            }
            ResumeError::IslandMismatch { found, expected } => {
                write!(f, "checkpoint taken with {found} island(s) cannot resume under {expected}")
            }
            ResumeError::BadSnapshot(why) => write!(f, "bad phase snapshot: {why}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl PhaseSnapshot {
    /// Structural validation (field consistency only; config/problem checks
    /// happen at the [`MultiPhaseCheckpoint`] level).
    pub fn validate(&self) -> Result<(), ResumeError> {
        let islands = self.islands();
        if islands == 0 {
            return Err(ResumeError::BadSnapshot("islands must be >= 1".into()));
        }
        if self.rng.len() != 4 * islands as usize {
            return Err(ResumeError::BadSnapshot(format!(
                "rng state has {} words, expected {} for {islands} island(s)",
                self.rng.len(),
                4 * islands as usize
            )));
        }
        if self.next_gen == 0 {
            return Err(ResumeError::BadSnapshot("next_gen must be >= 1".into()));
        }
        if self.history.len() as u32 != self.next_gen {
            return Err(ResumeError::BadSnapshot(format!(
                "history has {} entries for next_gen {}",
                self.history.len(),
                self.next_gen
            )));
        }
        if self.genomes.is_empty() {
            return Err(ResumeError::BadSnapshot("empty population".into()));
        }
        if !self.genomes.len().is_multiple_of(islands as usize) {
            return Err(ResumeError::BadSnapshot(format!(
                "population of {} does not split into {islands} equal islands",
                self.genomes.len()
            )));
        }
        let in_unit = |genes: &[f64]| genes.iter().all(|g| (0.0..1.0).contains(g));
        if !self.genomes.iter().all(|g| in_unit(g)) || !in_unit(&self.best) {
            return Err(ResumeError::BadSnapshot("gene outside [0, 1)".into()));
        }
        Ok(())
    }

    /// Island count the snapshot was taken under (pre-island checkpoints
    /// deserialize with `islands: None` and mean a single population).
    pub fn islands(&self) -> u32 {
        self.islands.unwrap_or(1)
    }

    /// Per-island RNG states, in island order (validated to `4·K` words).
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        self.rng.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gs(generation: u32) -> GenStats {
        GenStats {
            generation,
            best_total: 0.5,
            best_goal: 0.5,
            mean_total: 0.25,
            worst_total: 0.1,
            mean_len: 3.0,
            solvers: 0,
        }
    }

    fn snapshot() -> PhaseSnapshot {
        PhaseSnapshot {
            phase_index: 2,
            next_gen: 3,
            rng: vec![1, 2, 3, 4],
            genomes: vec![vec![0.1, 0.9], vec![0.5]],
            best: vec![0.25],
            history: vec![gs(0), gs(1), gs(2)],
            first_solution_gen: None,
            islands: None,
        }
    }

    #[test]
    fn valid_snapshot_passes() {
        snapshot().validate().unwrap();
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        let mut s = snapshot();
        s.rng = vec![1, 2, 3];
        assert!(matches!(s.validate(), Err(ResumeError::BadSnapshot(_))));

        let mut s = snapshot();
        s.next_gen = 0;
        assert!(s.validate().is_err());

        let mut s = snapshot();
        s.history.pop();
        assert!(s.validate().is_err());

        let mut s = snapshot();
        s.genomes.clear();
        assert!(s.validate().is_err());

        let mut s = snapshot();
        s.genomes[0][0] = 1.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn island_snapshot_validates_per_island_state() {
        // K islands need 4·K rng words and a K-divisible population.
        let mut s = snapshot();
        s.islands = Some(2);
        s.rng = vec![1, 2, 3, 4, 5, 6, 7, 8];
        s.validate().unwrap();
        assert_eq!(s.islands(), 2);
        assert_eq!(s.rng_states(), vec![[1, 2, 3, 4], [5, 6, 7, 8]]);

        let mut short = s.clone();
        short.rng.pop();
        assert!(matches!(short.validate(), Err(ResumeError::BadSnapshot(_))));

        let mut odd = s.clone();
        odd.genomes.push(vec![0.5]); // 3 genomes don't split into 2 islands
        assert!(odd.validate().is_err());

        let mut zero = s.clone();
        zero.islands = Some(0);
        assert!(zero.validate().is_err());

        // pre-island snapshots (islands: None) still validate as K=1
        let legacy = snapshot();
        assert_eq!(legacy.islands(), 1);
        legacy.validate().unwrap();
        assert_eq!(legacy.rng_states(), vec![[1, 2, 3, 4]]);
    }

    #[test]
    fn islands_field_is_optional_in_serialized_form() {
        // A checkpoint written before the island model (no `islands` key)
        // must deserialize as a single-population snapshot.
        let s = snapshot();
        let json = serde_json::to_string(&s).unwrap();
        // simulate an old writer by dropping the islands key entirely
        let legacy_json = json.replace(",\"islands\":null", "");
        assert_ne!(legacy_json, json, "islands key not found in serialized snapshot");
        let back: PhaseSnapshot = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(back.islands, None);
        assert_eq!(back.islands(), 1);
        back.validate().unwrap();
    }

    #[test]
    fn checkpoint_json_roundtrip_is_exact() {
        let cp = MultiPhaseCheckpoint {
            version: CHECKPOINT_VERSION,
            problem_sig: u64::MAX - 7,
            config_sig: 0xDEAD_BEEF_DEAD_BEEF,
            next_phase: 1,
            plan_ops: vec![0, 5, 2],
            phases: vec![],
            history: vec![],
            total_generations: 40,
            first_solution_gen: Some(12),
            phase_snapshot: Some(snapshot()),
        };
        let json = serde_json::to_string(&cp).unwrap();
        let back: MultiPhaseCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.problem_sig, cp.problem_sig);
        assert_eq!(back.config_sig, cp.config_sig);
        assert_eq!(back.plan_ops, cp.plan_ops);
        let (a, b) = (back.phase_snapshot.unwrap(), cp.phase_snapshot.unwrap());
        assert_eq!(a.rng, b.rng);
        // gene bits must survive the JSON round trip exactly
        let bits =
            |g: &Vec<Vec<f64>>| g.iter().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()).collect::<Vec<_>>();
        assert_eq!(bits(&a.genomes), bits(&b.genomes));
    }

    #[test]
    fn resume_errors_render() {
        let msgs = [
            ResumeError::VersionMismatch { found: 9, expected: 1 }.to_string(),
            ResumeError::ConfigMismatch { found: 1, expected: 2 }.to_string(),
            ResumeError::ProblemMismatch { found: 1, expected: 2 }.to_string(),
            ResumeError::PhaseOutOfRange { next_phase: 8, max_phases: 5 }.to_string(),
            ResumeError::IslandMismatch { found: 4, expected: 1 }.to_string(),
            ResumeError::BadSnapshot("x".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
