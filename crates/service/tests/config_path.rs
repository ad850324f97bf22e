//! The one config path: for any Hanoi or tile size and any (or no) `ga`
//! overrides, building the problem and resolving its config either fails
//! with a message or yields a config that validates and stays within the
//! size limits — never a panic. The request's cache key agrees: a request
//! is cacheable exactly when its config resolves.

use gaplan_service::request::{MAX_GENES_PER_GENERATION, MAX_TOTAL_GENERATIONS};
use gaplan_service::{GaOverrides, PlanRequest, ProblemSpec};
use proptest::prelude::*;

/// An optional knob: absent a quarter of the time, otherwise spread over
/// every magnitude from 0 to `u64::MAX`.
fn knob() -> impl Strategy<Value = Option<u64>> {
    (0u8..4, any::<u64>(), 0u32..64).prop_map(|(pick, v, shift)| (pick > 0).then_some(v >> shift))
}

fn overrides() -> impl Strategy<Value = Option<GaOverrides>> {
    (any::<bool>(), (knob(), knob(), knob()), (knob(), knob(), knob())).prop_map(
        |(given, (population, generations, phases), (initial_len, max_len, seed))| {
            given.then_some(GaOverrides {
                population: population.map(|v| v as usize),
                generations: generations.map(|v| v.min(u64::from(u32::MAX)) as u32),
                phases: phases.map(|v| v.min(u64::from(u32::MAX)) as u32),
                initial_len: initial_len.map(|v| v as usize),
                max_len: max_len.map(|v| v as usize),
                seed,
            })
        },
    )
}

fn spec() -> impl Strategy<Value = ProblemSpec> {
    (any::<bool>(), 0usize..=64, any::<u64>()).prop_map(|(hanoi, size, shuffle_seed)| {
        if hanoi {
            ProblemSpec::Hanoi { disks: size }
        } else {
            ProblemSpec::Tile { side: size, shuffle_seed }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn build_then_resolve_refuses_or_stays_within_limits(problem in spec(), ga in overrides()) {
        let resolved = problem.build().and_then(|built| ga.unwrap_or_default().resolve(built.default_config()));
        if let Ok(cfg) = &resolved {
            prop_assert!(cfg.validate().is_ok(), "{cfg:?}");
            prop_assert!((cfg.population_size as u64).saturating_mul(cfg.max_len as u64) <= MAX_GENES_PER_GENERATION);
            prop_assert!(u64::from(cfg.generations_per_phase) * u64::from(cfg.max_phases) <= MAX_TOTAL_GENERATIONS);
        }
        let request = PlanRequest { id: 1, problem, deadline_ms: None, ga };
        prop_assert_eq!(request.cache_key().is_some(), resolved.is_ok());
    }
}
