#![warn(missing_docs)]

//! # gaplan-baselines
//!
//! Deterministic and stochastic baseline planners, covering the approaches
//! the paper's related-work section (§2) positions the GA against:
//!
//! * [`bfs`](mod@bfs) — breadth-first search ("general search strategies such as
//!   breadth first search, though applicable to planning problems, rarely
//!   find good solutions efficiently").
//! * [`astar`](mod@astar) / [`idastar`](mod@idastar) — heuristic search in the style of Korf &
//!   Taylor and Bonet & Geffner's HSP planners.
//! * [`heuristics`] — Manhattan distance, linear conflict (Korf & Taylor),
//!   misplaced tiles, Hanoi lower bound, and goal-count for STRIPS.
//! * [`local`] — hill-climbing (HSP-style) and greedy best-first
//!   (HSP2-style) searches.
//! * [`random_walk`](mod@random_walk) — the weakest stochastic baseline.
//! * [`chaining`] — forward and backward chaining over ground STRIPS
//!   problems ("general planning algorithms such as forward- and
//!   backward-chaining are based upon deterministic search methods").
//!
//! All planners speak [`gaplan_core::Domain`] and return a [`SearchResult`]
//! with the plan plus search-effort counters, so GA-vs-baseline tables can
//! report nodes expanded and plan quality side by side.

pub mod astar;
pub mod bfs;
pub mod chaining;
pub mod graphplan;
pub mod heuristics;
pub mod hsp;
pub mod idastar;
pub mod local;
pub mod pattern_db;
pub mod random_walk;
pub mod result;
pub mod universal;

pub use astar::astar;
pub use bfs::bfs;
pub use chaining::{backward_chain, forward_chain};
pub use graphplan::{graphplan, graphplan_plan, PlanningGraph};
pub use heuristics::{GoalCount, HanoiLowerBound, Heuristic, LinearConflict, ManhattanH, MisplacedTiles, ZeroH};
pub use hsp::HAdd;
pub use idastar::idastar;
pub use local::{greedy_best_first, hill_climb};
pub use pattern_db::{DisjointPdb, PatternDb};
pub use random_walk::random_walk;
pub use result::{SearchLimits, SearchOutcome, SearchResult};
pub use universal::{PolicyOutcome, UniversalPlan};
