//! Population seeding strategies, after Westerberg & Levine (the paper's
//! ref. \[22\]): "Seeding partial solutions and keeping some randomness in
//! the initial population appear to benefit GP performance."
//!
//! A seeding strategy replaces a fraction of the random initial population
//! with individuals re-encoded (via [`crate::encode::encode_plan`]) from
//! plans produced by a cheap heuristic:
//!
//! * [`SeedStrategy::GreedyWalk`] — from the start state, repeatedly take
//!   the valid operation whose successor has the highest goal fitness
//!   (ties random); stop at the goal or after `len` steps. The GA then
//!   repairs/extends these greedy skeletons.
//! * [`SeedStrategy::BiasedWalk`] — a random walk that prefers improving
//!   moves with probability `bias` (a softer greedy — retains diversity).
//! * [`SeedStrategy::Plans`] — seed explicit plans (e.g. a previous
//!   solution for a *similar* problem: the plan-reuse setting of §2; or a
//!   baseline planner's output).

use gaplan_core::{Domain, OpId};
use rand::Rng;

use crate::config::GaConfig;
use crate::encode::encode_plan;
use crate::genome::Genome;
use crate::population::init_population;

/// How seed individuals are generated.
#[derive(Debug, Clone)]
pub enum SeedStrategy {
    /// Greedy goal-fitness walks of at most `initial_len` steps.
    GreedyWalk,
    /// Random walks preferring improving moves with the given probability.
    BiasedWalk {
        /// Probability of taking the best successor instead of a uniform one.
        bias: f64,
    },
    /// Explicit plans to re-encode (invalid plans are skipped).
    Plans(Vec<Vec<OpId>>),
}

/// Build an initial population with `seed_fraction` of the individuals
/// produced by `strategy` and the rest random (ref. \[22\]'s "keeping some
/// randomness" finding). Always returns exactly `cfg.population_size`
/// genomes.
pub fn seeded_population<D: Domain, R: Rng + ?Sized>(
    domain: &D,
    start: &D::State,
    cfg: &GaConfig,
    strategy: &SeedStrategy,
    seed_fraction: f64,
    rng: &mut R,
) -> Vec<Genome> {
    assert!((0.0..=1.0).contains(&seed_fraction), "seed_fraction in [0,1]");
    let mut population = init_population(rng, cfg);
    let n_seeds = ((cfg.population_size as f64) * seed_fraction).round() as usize;
    let mut produced = 0usize;
    let mut attempts = 0usize;
    while produced < n_seeds && attempts < n_seeds * 4 {
        attempts += 1;
        let genome = match strategy {
            SeedStrategy::GreedyWalk => walk_genome(domain, start, cfg.initial_len, 1.0, rng),
            SeedStrategy::BiasedWalk { bias } => walk_genome(domain, start, cfg.initial_len, *bias, rng),
            SeedStrategy::Plans(plans) => {
                if plans.is_empty() {
                    break;
                }
                let plan = &plans[produced % plans.len()];
                match encode_plan(domain, start, plan) {
                    Ok(mut g) => {
                        g.truncate(cfg.max_len);
                        Some(g)
                    }
                    Err(_) => None,
                }
            }
        };
        if let Some(genome) = genome {
            population[produced] = genome;
            produced += 1;
        }
    }
    population
}

/// A (possibly biased) goal-fitness-improving walk, re-encoded as a genome.
fn walk_genome<D: Domain, R: Rng + ?Sized>(
    domain: &D,
    start: &D::State,
    len: usize,
    bias: f64,
    rng: &mut R,
) -> Option<Genome> {
    let mut state = start.clone();
    let mut ops = Vec::with_capacity(len);
    let mut valid = Vec::new();
    for _ in 0..len {
        if domain.is_goal(&state) {
            break;
        }
        valid.clear();
        domain.valid_operations(&state, &mut valid);
        if valid.is_empty() {
            break;
        }
        let op = if rng.gen::<f64>() < bias {
            // best successor by goal fitness, ties broken uniformly
            let mut best_score = f64::NEG_INFINITY;
            let mut best_ops: Vec<OpId> = Vec::new();
            for &o in &valid {
                let f = domain.goal_fitness(&domain.apply(&state, o));
                if f > best_score + 1e-12 {
                    best_score = f;
                    best_ops.clear();
                    best_ops.push(o);
                } else if (f - best_score).abs() <= 1e-12 {
                    best_ops.push(o);
                }
            }
            best_ops[rng.gen_range(0..best_ops.len())]
        } else {
            valid[rng.gen_range(0..valid.len())]
        };
        state = domain.apply(&state, op);
        ops.push(op);
    }
    encode_plan(domain, start, &ops).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StateMatchMode;
    use crate::decode::Decoder;
    use gaplan_core::strips::{StripsBuilder, StripsProblem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graded_chain(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("s{i}")).unwrap();
        }
        for i in 1..=n {
            b.condition(&format!("r{i}")).unwrap();
        }
        for i in 0..n {
            b.op(
                &format!("fwd{i}"),
                &[&format!("s{i}")],
                &[&format!("s{}", i + 1), &format!("r{}", i + 1)],
                &[&format!("s{i}")],
                1.0,
            )
            .unwrap();
        }
        for i in 1..=n {
            b.op(&format!("bwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i - 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        b.init(&["s0"]).unwrap();
        let goal: Vec<String> = (1..=n).map(|i| format!("r{i}")).collect();
        let refs: Vec<&str> = goal.iter().map(String::as_str).collect();
        b.goal(&refs).unwrap();
        b.build().unwrap()
    }

    fn cfg() -> GaConfig {
        GaConfig { population_size: 20, initial_len: 8, max_len: 16, seed: 4, ..GaConfig::default() }
    }

    #[test]
    fn greedy_seeds_decode_to_goalward_plans() {
        let d = graded_chain(6);
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let pop = seeded_population(&d, &d.initial_state(), &c, &SeedStrategy::GreedyWalk, 0.5, &mut rng);
        assert_eq!(pop.len(), 20);
        // the first 10 slots hold seeds; greedy walks on the graded chain go
        // straight forward, so they decode to high-fitness states
        let mut dec = Decoder::new();
        let seeded =
            dec.decode_ref(&d, &d.initial_state(), pop[0].genes(), false, StateMatchMode::ExactState, None, None);
        let fit = gaplan_core::Domain::goal_fitness(&d, &seeded.final_state);
        assert!(fit >= 0.9, "greedy seed reached fitness {fit}");
    }

    #[test]
    fn plan_seeds_roundtrip() {
        let d = graded_chain(4);
        let c = cfg();
        // explicit optimal plan: fwd0..fwd3 = op ids 0..4
        let plan: Vec<OpId> = (0..4).map(|i| OpId(i as u32)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let pop =
            seeded_population(&d, &d.initial_state(), &c, &SeedStrategy::Plans(vec![plan.clone()]), 0.3, &mut rng);
        let mut dec = Decoder::new();
        let decoded =
            dec.decode_ref(&d, &d.initial_state(), pop[0].genes(), false, StateMatchMode::ExactState, None, None);
        assert_eq!(decoded.ops, plan);
    }

    #[test]
    fn invalid_plan_seeds_are_skipped() {
        let d = graded_chain(3);
        let c = cfg();
        let bad: Vec<OpId> = vec![OpId(5)]; // bwd3 invalid at start
        let mut rng = StdRng::seed_from_u64(6);
        let pop = seeded_population(&d, &d.initial_state(), &c, &SeedStrategy::Plans(vec![bad]), 0.5, &mut rng);
        // population still full-size, all random
        assert_eq!(pop.len(), 20);
    }

    #[test]
    fn zero_fraction_is_pure_random() {
        let d = graded_chain(3);
        let c = cfg();
        let mut rng_a = StdRng::seed_from_u64(7);
        let seeded = seeded_population(&d, &d.initial_state(), &c, &SeedStrategy::GreedyWalk, 0.0, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(7);
        let random = init_population(&mut rng_b, &c);
        assert_eq!(seeded.len(), random.len());
        assert_eq!(seeded[0], random[0]);
    }

    #[test]
    fn biased_walk_interpolates() {
        let d = graded_chain(8);
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(8);
        let pop = seeded_population(&d, &d.initial_state(), &c, &SeedStrategy::BiasedWalk { bias: 0.8 }, 1.0, &mut rng);
        assert_eq!(pop.len(), 20);
        // seeds should on average beat pure random walks in goal fitness
        let mut dec = Decoder::new();
        let avg_seeded: f64 = pop
            .iter()
            .map(|g| {
                let r =
                    dec.decode_ref(&d, &d.initial_state(), g.genes(), false, StateMatchMode::ExactState, None, None);
                gaplan_core::Domain::goal_fitness(&d, &r.final_state)
            })
            .sum::<f64>()
            / pop.len() as f64;
        let mut rng2 = StdRng::seed_from_u64(9);
        let random = init_population(&mut rng2, &c);
        let avg_random: f64 = random
            .iter()
            .map(|g| {
                let r =
                    dec.decode_ref(&d, &d.initial_state(), g.genes(), false, StateMatchMode::ExactState, None, None);
                gaplan_core::Domain::goal_fitness(&d, &r.final_state)
            })
            .sum::<f64>()
            / random.len() as f64;
        assert!(avg_seeded > avg_random, "seeded {avg_seeded} vs random {avg_random}");
    }

    #[test]
    #[should_panic(expected = "seed_fraction")]
    fn bad_fraction_panics() {
        let d = graded_chain(3);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = seeded_population(&d, &d.initial_state(), &cfg(), &SeedStrategy::GreedyWalk, 1.5, &mut rng);
    }
}
