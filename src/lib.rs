#![warn(missing_docs)]

//! Umbrella crate re-exporting the full GA-planner workspace API.
pub use gaplan_baselines as baselines;
pub use gaplan_core as core;
pub use gaplan_domains as domains;
pub use gaplan_durable as durable;
pub use gaplan_ga as ga;
pub use gaplan_grid as grid;
pub use gaplan_lang as lang;
pub use gaplan_net as net;
pub use gaplan_obs as obs;
pub use gaplan_problem as problem;
pub use gaplan_service as service;

pub mod trace_report;
