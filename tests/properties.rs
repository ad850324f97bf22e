//! Cross-crate property-based tests (proptest): the invariants that make
//! the indirect encoding sound, on randomly generated domains, genomes and
//! operator applications.

use ga_grid_planner::baselines::{bfs, graphplan, SearchLimits};
use ga_grid_planner::domains::sliding_tile::is_reachable;
use ga_grid_planner::domains::{Hanoi, SlidingTile};
use ga_grid_planner::ga::{Decoder, GaConfig, StateMatchMode};
use gaplan_core::strips::{StripsBuilder, StripsProblem};
use gaplan_core::{Domain, DomainExt, Plan};
use proptest::prelude::*;

/// A random ground STRIPS problem: `nc` conditions, `no` operators with
/// random pre/add/del sets.
fn arb_strips() -> impl Strategy<Value = StripsProblem> {
    (3usize..8, 2usize..10, any::<u64>()).prop_map(|(nc, no, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = StripsBuilder::new();
        let names: Vec<String> = (0..nc).map(|i| format!("c{i}")).collect();
        for n in &names {
            b.condition(n).unwrap();
        }
        let pick = |rng: &mut StdRng, p: f64| -> Vec<&str> {
            names.iter().filter(|_| rng.gen::<f64>() < p).map(String::as_str).collect()
        };
        for i in 0..no {
            let pre = pick(&mut rng, 0.3);
            let add = pick(&mut rng, 0.3);
            let del = pick(&mut rng, 0.2);
            b.op(&format!("op{i}"), &pre, &add, &del, 1.0 + rng.gen::<f64>()).unwrap();
        }
        let init = pick(&mut rng, 0.5);
        let goal = pick(&mut rng, 0.3);
        b.init(&init).unwrap();
        b.goal(&goal).unwrap();
        b.build().unwrap()
    })
}

proptest! {
    /// The paper's core encoding guarantee: any float sequence decodes to a
    /// plan of exclusively valid operations, on any domain.
    #[test]
    fn decoded_plans_always_replay(problem in arb_strips(), genes in proptest::collection::vec(0.0f64..1.0, 0..40)) {
        let mut dec = Decoder::new();
        let decoded = dec.decode_ref(&problem, &problem.initial_state(), &genes, false, StateMatchMode::ExactState, None, None);
        let plan = Plan::from_ops(decoded.ops.clone());
        // checked simulation must accept every decoded op
        let out = plan.simulate(&problem, &problem.initial_state()).expect("decoded ops are valid");
        prop_assert_eq!(out.final_state, decoded.final_state);
        // match keys have one entry per decoded op plus the final state
        prop_assert_eq!(decoded.match_keys.len(), decoded.decoded_len + 1);
    }

    /// Decoding is total and deterministic.
    #[test]
    fn decode_is_deterministic(problem in arb_strips(), genes in proptest::collection::vec(0.0f64..1.0, 0..40)) {
        let start = problem.initial_state();
        let a = Decoder::new().decode_ref(&problem, &start, &genes, false, StateMatchMode::ExactState, None, None);
        let b = Decoder::new().decode_ref(&problem, &start, &genes, false, StateMatchMode::ExactState, None, None);
        prop_assert_eq!(a.ops, b.ops);
        prop_assert_eq!(a.cost, b.cost);
    }

    /// STRIPS validity is the subset relation: every op reported valid has
    /// its preconditions satisfied; every other op does not.
    #[test]
    fn valid_operations_iff_preconditions_hold(problem in arb_strips()) {
        let s = problem.initial_state();
        let valid = problem.valid_ops_vec(&s);
        for (i, op) in problem.operators().iter().enumerate() {
            let id = gaplan_core::OpId(i as u32);
            prop_assert_eq!(valid.contains(&id), op.pre.is_subset_of(&s));
        }
    }

    /// Hanoi invariant: from any reachable state, applying any valid move
    /// never places a disk on a smaller one (stacking is encodable: every
    /// state vector is legal, but moves must respect tops).
    #[test]
    fn hanoi_moves_respect_stacking(seed in any::<u64>(), moves in 1usize..60) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let h = Hanoi::new(5);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = h.initial_state();
        for _ in 0..moves {
            let ops = h.valid_ops_vec(&s);
            prop_assert!(ops.len() >= 2, "Hanoi never dead-ends");
            let op = ops[rng.gen_range(0..ops.len())];
            let next = h.apply(&s, op);
            // exactly one disk moved, and it was the top of its source peg
            let moved: Vec<usize> = (0..5).filter(|&d| next[d] != s[d]).collect();
            prop_assert_eq!(moved.len(), 1);
            let d = moved[0];
            prop_assert!( (0..d).all(|smaller| s[smaller] != s[d]), "moved disk was not on top");
            prop_assert!( (0..d).all(|smaller| next[smaller] != next[d]), "landed on a smaller disk");
            s = next;
        }
    }

    /// Tile invariant: moves preserve the tile multiset and the
    /// Johnson & Story reachability class.
    #[test]
    fn tile_moves_preserve_reachability_class(seed in any::<u64>(), moves in 1usize..60) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = SlidingTile::random_solvable(3, &mut rng);
        let mut s = p.initial_state();
        for _ in 0..moves {
            let ops = p.valid_ops_vec(&s);
            let op = ops[rng.gen_range(0..ops.len())];
            s = p.apply(&s, op);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&sorted, &(0..9u8).collect::<Vec<_>>());
            prop_assert!(is_reachable(3, &s, p.goal()));
        }
    }

    /// Goal fitness is always in [0, 1] and exactly 1 on goals, across
    /// random STRIPS states produced by random walks.
    #[test]
    fn goal_fitness_is_normalized(problem in arb_strips(), genes in proptest::collection::vec(0.0f64..1.0, 0..30)) {
        let mut dec = Decoder::new();
        let decoded = dec.decode_ref(&problem, &problem.initial_state(), &genes, false, StateMatchMode::ExactState, None, None);
        let f = problem.goal_fitness(&decoded.final_state);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(problem.is_goal(&decoded.final_state), f >= 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Graphplan agrees with BFS on solvability of random STRIPS problems,
    /// and its serialized plans always replay to the goal. (Graphplan is
    /// optimal in parallel steps, so its serial length may exceed BFS's but
    /// its *level count* cannot.)
    #[test]
    fn graphplan_agrees_with_bfs(problem in arb_strips()) {
        let limits = SearchLimits {
            max_expansions: 200_000,
            max_states: 400_000,
        };
        let b = bfs(&problem, limits);
        let g = graphplan(&problem, limits);
        // only compare when neither hit a resource limit
        if b.outcome != ga_grid_planner::baselines::SearchOutcome::LimitReached
            && g.outcome != ga_grid_planner::baselines::SearchOutcome::LimitReached
        {
            prop_assert_eq!(b.is_solved(), g.is_solved(), "solvability disagreement");
        }
        if let Some(plan) = g.plan {
            let out = plan.simulate(&problem, &problem.initial_state()).expect("graphplan plan replays");
            prop_assert!(out.solves);
            if let Some(optimal) = b.plan_len() {
                prop_assert!(plan.len() >= optimal, "graphplan shorter than optimal?");
            }
        }
    }

    /// Full multi-phase runs on random STRIPS problems never panic and
    /// always return replayable concatenated plans.
    #[test]
    fn multiphase_total_on_random_domains(problem in arb_strips(), seed in any::<u64>()) {
        let cfg = GaConfig {
            population_size: 16,
            generations_per_phase: 8,
            max_phases: 2,
            initial_len: 6,
            max_len: 12,
            seed,
            eval: gaplan_ga::EvalMode::Serial,
            ..GaConfig::default()
        };
        let r = ga_grid_planner::ga::MultiPhase::new(&problem, cfg).run();
        let out = r.plan.simulate(&problem, &problem.initial_state()).expect("concatenated plan replays");
        prop_assert_eq!(&out.final_state, &r.final_state);
        prop_assert_eq!(r.solved, problem.is_goal(&r.final_state));
    }
}
