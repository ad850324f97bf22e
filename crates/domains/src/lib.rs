#![warn(missing_docs)]

//! # gaplan-domains
//!
//! Planning domains used in the paper's evaluation (§4) and in the related
//! work it compares against (§2):
//!
//! * [`hanoi`] — Towers of Hanoi (§4.1, Tables 1–2, Figures 1–2), with the
//!   paper's disk-weighted goal fitness (Eq. 5).
//! * [`sliding_tile`] — the Sliding-tile puzzle (§4.2, Tables 3–5,
//!   Figure 3), with the Manhattan-distance goal fitness (Eq. 6) and the
//!   Johnson & Story (1879) solvability test.
//! * [`blocks`] — Blocks World (the GenPlan seeding-strategy domain),
//!   generated as a ground STRIPS problem to exercise the data-driven
//!   substrate.
//! * [`navigation`] — multi-robot grid navigation (the Sinergy evaluation
//!   domain).
//! * [`briefcase`](mod@briefcase) — the Briefcase domain (also from the Sinergy paper),
//!   generated as a ground STRIPS problem.
//! * [`gripper`](mod@gripper) — the classic Gripper benchmark (robot with grippers
//!   ferrying balls), generated as a ground STRIPS problem.

pub mod blocks;
pub mod briefcase;
pub mod gripper;
pub mod hanoi;
pub mod navigation;
pub mod sliding_tile;

pub use blocks::blocks_world;
pub use briefcase::briefcase;
pub use gripper::gripper;
pub use hanoi::Hanoi;
pub use navigation::Navigation;
pub use sliding_tile::SlidingTile;
