#![warn(missing_docs)]

//! # gaplan-ga
//!
//! The paper's primary contribution: a genetic algorithm for STRIPS-like
//! planning (Yu, Marinescu, Wu, Siegel — IPDPS 2003, §3).
//!
//! Key design points, each implemented faithfully:
//!
//! * **Indirect encoding** (§3.1): an individual is a variable-length
//!   sequence of floating-point genes in `[0, 1)`. Each gene is mapped to a
//!   *valid* operation of the state reached so far, by splitting `[0, 1)`
//!   into `k` equal intervals when `k` operations are valid. Every decoded
//!   plan therefore contains only valid operations, and the paper's match
//!   fitness is identically 1 (Eq. 1).
//! * **Fitness** (§3.3): `F = w_goal·F_goal + w_cost·F_cost` (Eq. 4) with
//!   `w_goal + w_cost = 1`; `F_goal` comes from the domain and `F_cost` is
//!   `1/len` for unit-cost domains (Eq. 2).
//! * **Tournament selection** (§3.4.1) plus roulette and rank selection as
//!   extensions.
//! * **Three crossover mechanisms** (§3.4.2): random, state-aware, mixed.
//! * **Per-gene replacement mutation** (§3.4.3), plus optional
//!   insertion/deletion length mutation as an extension.
//! * **Multi-phase search** (§3.5): serially independent GA runs, each
//!   starting from the final state of the previous phase's best individual;
//!   the final plan is the concatenation of per-phase bests.
//!
//! ## Quickstart
//!
//! ```
//! use gaplan_ga::{GaConfig, MultiPhase};
//! use gaplan_core::strips::StripsBuilder;
//!
//! let mut b = StripsBuilder::new();
//! b.condition("raw").unwrap();
//! b.condition("clean").unwrap();
//! b.condition("done").unwrap();
//! b.op("filter", &["raw"], &["clean"], &["raw"], 1.0).unwrap();
//! b.op("transform", &["clean"], &["done"], &[], 1.0).unwrap();
//! b.init(&["raw"]).unwrap();
//! b.goal(&["done"]).unwrap();
//! let problem = b.build().unwrap();
//! // tiny problem: small population and few generations suffice
//! let cfg = GaConfig {
//!     population_size: 20,
//!     generations_per_phase: 50,
//!     max_phases: 2,
//!     initial_len: 4,
//!     max_len: 8,
//!     seed: 1,
//!     ..GaConfig::default()
//! };
//! let result = MultiPhase::new(&problem, cfg).run();
//! assert!(result.solved);
//! ```

pub mod annealing;
pub mod arena;
pub mod checkpoint;
pub mod config;
pub mod crossover;
pub mod decode;
pub mod encode;
pub mod engine;
pub mod fitness;
pub mod genome;
pub mod individual;
pub mod multiphase;
pub mod mutation;
pub mod population;
pub mod report;
pub mod rng;
pub mod seeding;
pub mod selection;
pub mod stats;

pub use annealing::{one_plus_one, simulated_annealing, AnnealConfig, AnnealResult};
pub use arena::{PopulationArena, Provenance};
pub use checkpoint::{MultiPhaseCheckpoint, PhaseSnapshot, ResumeError, CHECKPOINT_VERSION};
pub use config::{CostFitnessMode, CrossoverKind, FitnessWeights, GaConfig, GoalEval, SelectionScheme, StateMatchMode};
pub use decode::{Decoded, Decoder, PrefixRef};
pub use encode::{encode_plan, EncodeError};
pub use engine::{Phase, PhaseResult};
pub use fitness::Fitness;
pub use genome::Genome;
pub use individual::Evaluated;
pub use multiphase::{MultiPhase, MultiPhaseResult};
pub use report::{aggregate, AggregateReport, RunReport};
pub use seeding::{seeded_population, SeedStrategy};
pub use stats::GenStats;
