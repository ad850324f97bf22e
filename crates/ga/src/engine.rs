//! The single-phase GA engine: one "independent GA run" in the paper's
//! terminology (§3.5 step 2a): evaluate → select → crossover → mutate →
//! replace, for a fixed number of generations.

use std::sync::Arc;
use std::time::Instant;

use gaplan_core::budget::{Budget, StopCause};
use gaplan_core::{Domain, SuccessorCache};
use gaplan_obs as obs;
use rand::rngs::StdRng;
use rand::Rng;

use crate::arena::{PopulationArena, Provenance};
use crate::checkpoint::PhaseSnapshot;
use crate::config::GaConfig;
use crate::crossover::{crossover_plan, CrossoverPlan};
use crate::decode::Decoder;
use crate::genome::Genome;
use crate::individual::Evaluated;
use crate::mutation::{length_mutate_plan, mutate_slice, LengthEdit};
use crate::population::{evaluate_arena, init_population, island_rng};
use crate::seeding::{seeded_population, SeedStrategy};
use crate::selection::select_parent;
use crate::stats::GenStats;

/// One GA phase: an independent run over a fixed generation budget,
/// starting from a given state.
pub struct Phase<'d, D: Domain> {
    domain: &'d D,
    cfg: GaConfig,
    start: D::State,
    phase_index: u32,
    seeder: Option<(SeedStrategy, f64)>,
    budget: Budget,
    cache: Option<Arc<SuccessorCache<D::State>>>,
}

/// The outcome of a phase.
#[derive(Debug, Clone)]
pub struct PhaseResult<S> {
    /// The best individual found across all generations of the phase,
    /// ranked by `(goal fitness, total fitness)` lexicographically — the
    /// paper both reports and chains phases on "the individual with the
    /// highest goal fitness".
    pub best: Evaluated<S>,
    /// Per-generation statistics.
    pub history: Vec<GenStats>,
    /// Number of generations actually evolved. Always equals
    /// `history.len()`, and is less than the configured budget iff the
    /// phase stopped early (solution found, deadline, or cancellation).
    pub generations_executed: u32,
    /// First generation (0-based) at which some individual solved the
    /// problem, if any. When `Some(g)`, `g < generations_executed`.
    pub first_solution_gen: Option<u32>,
    /// Why the phase was cut short by its [`Budget`], if it was. `None`
    /// means the phase ran to its configured end or early-stopped on a
    /// solution. Even when `Some`, at least one generation was evaluated,
    /// so `best` is the genuine best-so-far.
    pub stopped: Option<StopCause>,
}

/// A phase whose first evaluated generation served less than this fraction
/// of its successor lookups from the cache evaluates the rest of the phase
/// uncached: on large state spaces a miss pays for the lookup, the insert
/// and an eviction on top of the enumeration. The measured per-solve hit
/// rates sit on either side with room to spare: Hanoi-4 0.999, grid 0.96
/// and the shipped DSL pairs 0.92 keep the cache; tile-4x4 0.42 and
/// generated DSL problems 0.28 bypass it.
const CACHE_BYPASS_HIT_FRAC: f64 = 0.5;

/// Ranking used for "best individual": goal fitness first (the paper picks
/// by goal fitness), total fitness as tie-break (prefers cheaper plans).
#[inline]
fn better<S>(a: &Evaluated<S>, b: &Evaluated<S>) -> bool {
    (a.fitness.goal, a.fitness.total) > (b.fitness.goal, b.fitness.total)
}

impl<'d, D: Domain> Phase<'d, D> {
    /// Create a phase starting from the domain's initial state.
    pub fn new(domain: &'d D, cfg: GaConfig) -> Self {
        let start = domain.initial_state();
        Phase { domain, cfg, start, phase_index: 0, seeder: None, budget: Budget::unlimited(), cache: None }
    }

    /// Create a phase starting from an arbitrary state (used by the
    /// multi-phase driver: "the final state of the solution is taken as the
    /// initial state for the search during the next phase"). `phase_index`
    /// selects an independent RNG stream.
    pub fn with_start(domain: &'d D, cfg: GaConfig, start: D::State, phase_index: u32) -> Self {
        Phase { domain, cfg, start, phase_index, seeder: None, budget: Budget::unlimited(), cache: None }
    }

    /// Share a successor cache with this phase (the multi-phase driver and
    /// the planning service pass one cache across phases/replans, so later
    /// runs start warm). Without this, the phase builds a private cache when
    /// `cfg.succ_cache` is on; `cfg.succ_cache = false` disables caching
    /// entirely, including a cache passed here.
    pub fn with_cache(mut self, cache: Arc<SuccessorCache<D::State>>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Seed a fraction of the initial population with heuristic individuals
    /// (Westerberg & Levine-style seeding; see [`crate::seeding`]).
    pub fn with_seeder(mut self, strategy: SeedStrategy, fraction: f64) -> Self {
        self.seeder = Some((strategy, fraction));
        self
    }

    /// Attach an execution budget (deadline and/or cancellation token),
    /// checked between generations. The first generation always runs, so a
    /// stopped phase still returns a meaningful best-so-far individual.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Run the phase to completion (or early stop) and return the result.
    pub fn run(&self) -> PhaseResult<D::State> {
        self.run_snapshotting(None, 0, &mut |_| {})
    }

    /// [`Phase::run`] with mid-phase checkpointing: when `snapshot_every > 0`
    /// the evolve loop hands a [`PhaseSnapshot`] to `sink` every
    /// `snapshot_every` generations (taken at the top of the loop, before
    /// evaluation), and a run resumed from such a snapshot via `resume`
    /// continues bitwise-identically — the snapshot captures the
    /// bred-but-unevaluated population plus the raw RNG state, and decoding
    /// is a pure function of the genome.
    ///
    /// Panics on a structurally invalid or mismatched snapshot (callers that
    /// load snapshots from disk validate first; see
    /// [`crate::checkpoint::PhaseSnapshot::validate`]).
    pub fn run_snapshotting(
        &self,
        resume: Option<&PhaseSnapshot>,
        snapshot_every: u32,
        sink: &mut dyn FnMut(PhaseSnapshot),
    ) -> PhaseResult<D::State> {
        self.cfg.validate().expect("invalid GaConfig");
        let cfg = &self.cfg;
        // The successor cache is shared when the caller provided one,
        // phase-private otherwise; `succ_cache = false` switches the layer
        // off regardless. Either way decode results are identical — only
        // `valid_operations` call counts change.
        let cache: Option<Arc<SuccessorCache<D::State>>> = if cfg.succ_cache {
            Some(self.cache.clone().unwrap_or_else(|| Arc::new(SuccessorCache::new(cfg.succ_cache_capacity))))
        } else {
            None
        };
        let cache_start = cache.as_ref().map(|c| c.stats()).unwrap_or_default();

        // Island layout: the population is partitioned into `islands` equal
        // blocks, each with its own RNG stream. `islands == 1` reduces to
        // the historical single-population engine, byte for byte.
        let islands = cfg.islands.max(1) as usize;
        let island_pop = cfg.population_size / islands;

        let mut rngs: Vec<StdRng>;
        let mut arena: PopulationArena;
        // Previous generation's evaluated individuals; arena provenance
        // indexes into this. Empty for fresh or resumed populations (whose
        // provenance is `NONE`).
        let mut parents: Vec<Evaluated<D::State>> = Vec::new();
        let mut best: Option<Evaluated<D::State>>;
        let mut history;
        let mut first_solution_gen;
        let mut generations_executed;
        let start_gen;
        match resume {
            Some(snap) => {
                snap.validate().expect("invalid phase snapshot");
                assert_eq!(snap.phase_index, self.phase_index, "snapshot belongs to another phase");
                assert!(snap.next_gen < cfg.generations_per_phase, "snapshot next_gen {} out of range", snap.next_gen);
                assert_eq!(snap.islands(), cfg.islands, "snapshot island count mismatch");
                rngs = snap.rng_states().into_iter().map(StdRng::from_state).collect();
                arena = PopulationArena::with_capacity(snap.genomes.len(), snap.genomes.iter().map(Vec::len).sum());
                for genes in &snap.genomes {
                    arena.push(genes, Provenance::NONE);
                }
                // Rebuild the best-so-far individual by re-evaluating its
                // genome: decoding is deterministic and RNG-free, so the
                // result is identical to the pre-crash individual.
                let (decoded, fitness) =
                    Decoder::new().evaluate_ref(self.domain, &self.start, &snap.best, cfg, cache.as_deref(), None);
                best = Some(Evaluated::new(Genome::from_genes(snap.best.clone()), decoded, fitness));
                history = snap.history.clone();
                first_solution_gen = snap.first_solution_gen;
                generations_executed = snap.next_gen;
                start_gen = snap.next_gen;
            }
            None => {
                rngs = (0..cfg.islands.max(1)).map(|i| island_rng(cfg, self.phase_index, i)).collect();
                arena = PopulationArena::new();
                let mut icfg = cfg.clone();
                icfg.population_size = island_pop;
                for rng in &mut rngs {
                    let genomes = match &self.seeder {
                        Some((strategy, fraction)) => {
                            seeded_population(self.domain, &self.start, &icfg, strategy, *fraction, rng)
                        }
                        None => init_population(rng, &icfg),
                    };
                    for g in &genomes {
                        arena.push(g.genes(), Provenance::NONE);
                    }
                }
                best = None;
                history = Vec::with_capacity(cfg.generations_per_phase as usize);
                first_solution_gen = None;
                generations_executed = 0;
                start_gen = 0;
            }
        }
        let mut stopped = None;
        // Per-phase cache bypass: set after the first evaluated generation
        // when its hit fraction falls below `CACHE_BYPASS_HIT_FRAC`. Decoding
        // is identical with and without the cache, so this only changes
        // speed; under parallel evaluation (or a cache shared with other
        // runs) the counters race and so may the decision — still only speed.
        let mut eval_cache = cache.as_deref();

        for gen in start_gen..cfg.generations_per_phase {
            // Budget check gates every generation but the first: generation
            // 0 always evaluates, so `best` exists and a timed-out job can
            // still report its best-so-far plan.
            if gen > 0 {
                if let Some(cause) = self.budget.check() {
                    stopped = Some(cause);
                    break;
                }
            }

            // Mid-phase checkpoint: the population here is bred but not yet
            // evaluated, and the RNG is exactly between the breeding of
            // generation `gen - 1` and the selection of generation `gen`, so
            // this point fully determines the rest of the phase. Skipped at
            // `start_gen` (nothing new to save) and free of RNG draws and
            // obs events, so checkpointing never perturbs the run.
            if snapshot_every > 0 && gen > start_gen && gen % snapshot_every == 0 {
                sink(PhaseSnapshot {
                    phase_index: self.phase_index,
                    next_gen: gen,
                    rng: rngs.iter().flat_map(|r| r.state().to_vec()).collect(),
                    genomes: arena.iter().map(|g| g.to_vec()).collect(),
                    best: best
                        .as_ref()
                        .expect("gen > start_gen implies an evaluated generation")
                        .genome
                        .genes()
                        .to_vec(),
                    history: history.clone(),
                    first_solution_gen,
                    islands: Some(cfg.islands),
                });
            }

            // (i) evaluate each individual. The clock is only read while a
            // trace subscriber is installed: eval wall time is telemetry,
            // and the disabled path must stay free of syscalls.
            let eval_started = if obs::enabled() { Some(Instant::now()) } else { None };
            let gen_cache_start = eval_cache.filter(|_| gen == start_gen).map(SuccessorCache::stats);
            let mut evaluated = evaluate_arena(self.domain, &self.start, &arena, &parents, cfg, eval_cache);
            let eval_wall_ns = eval_started.map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let (Some(c), Some(before)) = (eval_cache, gen_cache_start) {
                if c.stats().since(&before).hit_rate() < CACHE_BYPASS_HIT_FRAC {
                    eval_cache = None;
                }
            }
            generations_executed = gen + 1;

            let stats = GenStats::from_population(gen, &evaluated);
            if stats.solvers > 0 && first_solution_gen.is_none() {
                first_solution_gen = Some(gen);
            }
            obs::emit(|| {
                obs::Event::new("ga.gen")
                    .u64("phase", self.phase_index as u64)
                    .u64("gen", gen as u64)
                    .f64("best_total", stats.best_total)
                    .f64("best_goal", stats.best_goal)
                    .f64("mean_total", stats.mean_total)
                    .f64("worst_total", stats.worst_total)
                    .f64("mean_len", stats.mean_len)
                    .u64("solvers", stats.solvers as u64)
                    .u64("eval_wall_ns", eval_wall_ns)
            });
            history.push(stats);

            // track best-ever across the phase
            if let Some(gen_best) = evaluated.iter().max_by(|a, b| {
                (a.fitness.goal, a.fitness.total)
                    .partial_cmp(&(b.fitness.goal, b.fitness.total))
                    .expect("fitness values are never NaN")
            }) {
                if best.as_ref().is_none_or(|b| better(gen_best, b)) {
                    best = Some(gen_best.clone());
                }
            }

            let stop_early = cfg.early_stop_on_solution && best.as_ref().is_some_and(|b| b.solves());
            if stop_early || gen + 1 == cfg.generations_per_phase {
                break;
            }

            // Deterministic ring migration (paper-style island model): every
            // `migration_interval` generations the top `emigrants` of island
            // `i` replace the worst individuals of island `i + 1`, with all
            // ranking done against the pre-migration population and ties
            // broken by genome bytes — zero RNG draws, so the per-island
            // streams are untouched. The budget is re-checked immediately
            // before committing: a deadline or cancellation that lands here
            // stops the phase with its proper cause rather than committing a
            // partial migration.
            if islands > 1 && cfg.emigrants > 0 && gen > 0 && gen % cfg.migration_interval == 0 {
                if let Some(cause) = self.budget.check() {
                    stopped = Some(cause);
                    break;
                }
                let mig_started = if obs::enabled() { Some(Instant::now()) } else { None };
                let moved = migrate(&mut evaluated, islands, island_pop, cfg.emigrants);
                obs::emit(|| {
                    obs::Event::new("ga.migration")
                        .u64("phase", self.phase_index as u64)
                        .u64("gen", gen as u64)
                        .u64("islands", islands as u64)
                        .u64("emigrants", cfg.emigrants as u64)
                        .u64("moved", moved)
                        .u64("wall_ns", mig_started.map_or(0, |t| t.elapsed().as_nanos() as u64))
                });
            }

            // (ii) + (iii) select, cross over, and mutate each island
            // independently, appending children into a fresh arena. Each
            // island draws only from its own RNG stream, so island outcomes
            // are independent of evaluation order and of each other.
            // Crossover outcomes are tallied across islands so the trace
            // exposes how often the state-aware mechanism fires vs. falls
            // back, exactly as in the single-population engine.
            let mut next = PopulationArena::with_capacity(cfg.population_size, arena.total_genes());
            let mut tallies = XoTallies::default();
            for (isl, rng) in rngs.iter_mut().enumerate() {
                let base = isl * island_pop;
                breed_island(rng, &evaluated[base..base + island_pop], base, cfg, &mut next, &mut tallies);
            }
            obs::emit(|| {
                obs::Event::new("ga.xover")
                    .u64("phase", self.phase_index as u64)
                    .u64("gen", gen as u64)
                    .u64("children", tallies.children)
                    .u64("fallback", tallies.fallback)
                    .u64("unchanged", tallies.unchanged)
                    .u64("skipped", tallies.skipped)
            });

            // (iv) replace old with new population
            arena = next;
            parents = evaluated;
        }

        // Cache telemetry for the phase. Emitted even with the cache off
        // (all-zero counters) so cache-on and cache-off traces stay
        // line-aligned; the counter *values* are masked in golden traces
        // because parallel workers race on hits vs. misses.
        obs::emit(|| {
            let delta = cache.as_ref().map(|c| c.stats().since(&cache_start)).unwrap_or_default();
            obs::Event::new("ga.cache")
                .u64("phase", self.phase_index as u64)
                .u64("hits", delta.hits)
                .u64("misses", delta.misses)
                .u64("evictions", delta.evictions)
                .u64("capacity", cache.as_ref().map_or(0, |c| c.capacity() as u64))
        });

        debug_assert_eq!(history.len() as u32, generations_executed);
        debug_assert!(first_solution_gen.is_none_or(|g| g < generations_executed));
        PhaseResult {
            best: best.expect("at least one generation was evaluated"),
            history,
            generations_executed,
            first_solution_gen,
            stopped,
        }
    }
}

/// Per-generation crossover outcome tallies, summed across islands for the
/// `ga.xover` trace event.
#[derive(Debug, Default)]
struct XoTallies {
    children: u64,
    fallback: u64,
    unchanged: u64,
    skipped: u64,
}

/// Breed one island's next generation into `next`, drawing only from that
/// island's RNG: selection, crossover, mutation, then elitism — the same
/// operator sequence (and, with one island, the same RNG draw order) as the
/// historical single-population loop. `block` is the island's slice of the
/// evaluated population and `base` its offset, so recorded provenance
/// indexes the *global* parent generation.
fn breed_island<S: Clone>(
    rng: &mut StdRng,
    block: &[Evaluated<S>],
    base: usize,
    cfg: &GaConfig,
    next: &mut PopulationArena,
    t: &mut XoTallies,
) {
    let n = block.len();
    let block_start = next.len();
    let fitnesses: Vec<f64> = block.iter().map(|e| e.fitness.total).collect();
    let sel: Vec<usize> = (0..n).map(|_| select_parent(rng, &fitnesses, cfg.selection)).collect();
    let mut i = 0;
    while i + 1 < sel.len() {
        let (ia, ib) = (sel[i], sel[i + 1]);
        let (pa, pb) = (&block[ia], &block[ib]);
        if rng.gen::<f64>() < cfg.crossover_rate {
            let plan = crossover_plan(rng, cfg.crossover, pa, pb);
            match plan {
                CrossoverPlan::Splice { fallback: false, .. } | CrossoverPlan::TwoPoint { .. } => t.children += 1,
                // mixed crossover found no matching cut and fell back to a
                // random second cut
                CrossoverPlan::Splice { fallback: true, .. } => t.fallback += 1,
                // state-aware found no matching cut: "both parents are
                // included in the population of the next generation"
                CrossoverPlan::Unchanged => t.unchanged += 1,
            }
            plan.materialize_into(next, pa, base + ia, pb, base + ib, cfg.max_len);
        } else {
            t.skipped += 1;
            next.push(pa.genome.genes(), Provenance::full(base + ia));
            next.push(pb.genome.genes(), Provenance::full(base + ib));
        }
        i += 2;
    }
    if i < sel.len() {
        next.push(block[sel[i]].genome.genes(), Provenance::full(base + sel[i]));
    }
    for j in block_start..next.len() {
        let m = mutate_slice(rng, next.genes_mut(j), cfg.mutation_rate);
        let lm = match length_mutate_plan(rng, next.genes(j).len(), cfg.length_mutation_rate, cfg.max_len) {
            Some(LengthEdit::Insert { at, v }) => {
                next.insert_gene(j, at, v);
                Some(at)
            }
            Some(LengthEdit::Remove { at }) => {
                next.remove_gene(j, at);
                Some(at)
            }
            None => None,
        };
        // The prefix-reuse provenance stays valid only up to the first
        // locus any mutation touched.
        if let Some(first_changed) = [m, lm].into_iter().flatten().min() {
            next.prov_mut(j).truncate(first_changed);
        }
    }

    // elitism: the island's best `elitism` individuals survive unchanged,
    // overwriting the tail of its offspring block
    if cfg.elitism > 0 {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            block[b].fitness.total.partial_cmp(&block[a].fitness.total).expect("fitness values are never NaN")
        });
        let produced = next.len() - block_start;
        for (slot, &idx) in order.iter().take(cfg.elitism.min(produced)).enumerate() {
            next.replace(block_start + produced - 1 - slot, block[idx].genome.genes(), Provenance::full(base + idx));
        }
    }
}

/// Rank an island block best-first by `(goal, total)` fitness, with a fully
/// deterministic tie-break: genome gene bits lexicographically, then index.
/// Migration must not depend on the incidental order of equal-fitness
/// individuals, or island runs would stop being reproducible.
fn ranked_indices<S>(block: &[Evaluated<S>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..block.len()).collect();
    order.sort_by(|&x, &y| {
        let (a, b) = (&block[x], &block[y]);
        (b.fitness.goal, b.fitness.total)
            .partial_cmp(&(a.fitness.goal, a.fitness.total))
            .expect("fitness values are never NaN")
            .then_with(|| {
                a.genome.genes().iter().map(|g| g.to_bits()).cmp(b.genome.genes().iter().map(|g| g.to_bits()))
            })
            .then_with(|| x.cmp(&y))
    });
    order
}

/// Ring migration: clone the top `emigrants` of every island (ranked
/// against the pre-migration population), then overwrite the worst
/// individuals of each island's ring successor. All emigrants are captured
/// before any island is modified, so a migration never forwards an
/// individual that itself just migrated in. Returns the number moved.
fn migrate<S: Clone>(pop: &mut [Evaluated<S>], islands: usize, island_pop: usize, emigrants: usize) -> u64 {
    let ranked: Vec<Vec<usize>> =
        (0..islands).map(|i| ranked_indices(&pop[i * island_pop..(i + 1) * island_pop])).collect();
    let emigrant_pool: Vec<Vec<Evaluated<S>>> = (0..islands)
        .map(|i| ranked[i][..emigrants].iter().map(|&x| pop[i * island_pop + x].clone()).collect())
        .collect();
    let mut moved = 0u64;
    for (i, emis) in emigrant_pool.into_iter().enumerate() {
        let dest = (i + 1) % islands;
        let dest_base = dest * island_pop;
        let worst = &ranked[dest][island_pop - emigrants..];
        for (e, &slot) in emis.into_iter().zip(worst) {
            pop[dest_base + slot] = e;
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CrossoverKind, EvalMode, SelectionScheme};
    use gaplan_core::strips::{StripsBuilder, StripsProblem};
    use gaplan_core::{DomainExt, Plan};

    /// Linear chain domain of length n with a distractor "undo" op at each
    /// step; goal-fitness graded by progress.
    fn chain(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("s{i}")).unwrap();
        }
        for i in 0..n {
            b.op(&format!("fwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i + 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        for i in 1..=n {
            b.op(&format!("bwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i - 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        b.init(&["s0"]).unwrap();
        b.goal(&[&format!("s{n}")]).unwrap();
        b.build().unwrap()
    }

    fn cfg() -> GaConfig {
        GaConfig {
            population_size: 40,
            generations_per_phase: 60,
            initial_len: 10,
            max_len: 24,
            seed: 7,
            eval: EvalMode::Serial,
            ..GaConfig::default()
        }
    }

    #[test]
    fn phase_solves_small_chain() {
        let d = chain(6);
        let r = Phase::new(&d, cfg()).run();
        assert!(r.best.solves(), "best goal fitness = {}", r.best.fitness.goal);
        assert!(r.first_solution_gen.is_some());
        // the decoded best must replay as a valid plan that solves
        let plan = Plan::from_ops(r.best.ops.clone());
        let out = plan.simulate(&d, &d.initial_state()).unwrap();
        assert!(out.solves);
    }

    #[test]
    fn early_stop_shortens_run() {
        let d = chain(4);
        let mut c = cfg();
        c.early_stop_on_solution = true;
        let r = Phase::new(&d, c).run();
        assert!(r.best.solves());
        assert!(r.generations_executed < 60, "executed {}", r.generations_executed);
        assert_eq!(r.history.len() as u32, r.generations_executed);
    }

    #[test]
    fn run_is_deterministic_for_fixed_seed() {
        let d = chain(5);
        let a = Phase::new(&d, cfg()).run();
        let b = Phase::new(&d, cfg()).run();
        assert_eq!(a.best.genome, b.best.genome);
        assert_eq!(a.best.fitness.total, b.best.fitness.total);
        assert_eq!(a.generations_executed, b.generations_executed);
        assert_eq!(a.first_solution_gen, b.first_solution_gen);
    }

    #[test]
    fn different_seeds_differ() {
        let d = chain(5);
        let mut c2 = cfg();
        c2.seed = 8;
        let a = Phase::new(&d, cfg()).run();
        let b = Phase::new(&d, c2).run();
        // overwhelmingly likely the runs diverge
        assert!(a.best.genome != b.best.genome || a.first_solution_gen != b.first_solution_gen);
    }

    #[test]
    fn best_fitness_is_monotone_in_history() {
        let d = chain(8);
        let r = Phase::new(&d, cfg()).run();
        let mut peak = f64::NEG_INFINITY;
        for s in &r.history {
            peak = peak.max(s.best_goal);
        }
        assert_eq!(peak, r.best.fitness.goal);
    }

    #[test]
    fn all_crossover_kinds_run_and_respect_max_len() {
        let d = chain(5);
        for kind in [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed, CrossoverKind::TwoPoint] {
            let mut c = cfg();
            c.crossover = kind;
            c.generations_per_phase = 20;
            let r = Phase::new(&d, c).run();
            assert!(r.best.genome.len() <= 24, "{kind:?} overflowed MaxLen");
        }
    }

    #[test]
    fn alternative_selection_schemes_run() {
        let d = chain(4);
        for sel in [SelectionScheme::Roulette, SelectionScheme::Rank, SelectionScheme::Tournament(4)] {
            let mut c = cfg();
            c.selection = sel;
            c.generations_per_phase = 30;
            let r = Phase::new(&d, c).run();
            assert!(r.best.fitness.goal > 0.0);
        }
    }

    #[test]
    fn with_start_searches_from_given_state() {
        let d = chain(6);
        // start two steps in
        let mut s = d.initial_state();
        for _ in 0..2 {
            let ops = d.valid_ops_vec(&s);
            let fwd = ops.iter().copied().find(|&o| d.op_name(o).starts_with("fwd")).unwrap();
            s = d.apply(&s, fwd);
        }
        let r = Phase::with_start(&d, cfg(), s.clone(), 3).run();
        // plan must replay validly from the custom start
        let plan = Plan::from_ops(r.best.ops.clone());
        plan.simulate(&d, &s).unwrap();
    }

    #[test]
    fn odd_population_size_is_handled() {
        let d = chain(3);
        let mut c = cfg();
        c.population_size = 31;
        let r = Phase::new(&d, c).run();
        assert!(r.best.fitness.goal > 0.0);
    }

    #[test]
    fn elitism_makes_population_best_monotone() {
        let d = chain(8);
        let mut c = cfg();
        c.elitism = 1;
        c.generations_per_phase = 40;
        let r = Phase::new(&d, c).run();
        // with one elite surviving every generation, the population's best
        // total fitness never decreases
        for w in r.history.windows(2) {
            assert!(
                w[1].best_total >= w[0].best_total - 1e-9,
                "best regressed: {} -> {}",
                w[0].best_total,
                w[1].best_total
            );
        }
    }

    #[test]
    fn without_elitism_best_can_regress() {
        // stochastic property: across a handful of seeds, strict
        // generational replacement loses its best individual at least once
        let d = chain(8);
        let regressed = (0..5).any(|seed| {
            let mut c = cfg();
            c.elitism = 0;
            c.generations_per_phase = 60;
            c.seed = 100 + seed;
            let r = Phase::new(&d, c).run();
            r.history.windows(2).any(|w| w[1].best_total < w[0].best_total - 1e-9)
        });
        assert!(regressed, "no regression across 5 seeds - elitism would be redundant");
    }

    /// Like `chain` but each forward move also adds a persistent `r{i}`
    /// marker that is part of the goal, so goal fitness is graded and the
    /// greedy seeding walk has a gradient to follow (the plain chain's 0/1
    /// fitness makes greedy walks indistinguishable from random ones).
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

    #[test]
    fn seeded_phase_uses_heuristic_individuals() {
        use crate::seeding::SeedStrategy;
        let d = graded_chain(8);
        let mut c = cfg();
        c.generations_per_phase = 5;
        let seeded = Phase::new(&d, c.clone()).with_seeder(SeedStrategy::GreedyWalk, 0.5).run();
        let unseeded = Phase::new(&d, c).run();
        // greedy seeds give the seeded phase a head start on this graded chain
        assert!(
            seeded.history[0].best_goal >= unseeded.history[0].best_goal,
            "seeded gen-0 best {} < unseeded {}",
            seeded.history[0].best_goal,
            unseeded.history[0].best_goal
        );
        // and the greedy walks themselves reach the goal on a graded chain
        assert!(
            seeded.history[0].best_goal >= 1.0 - 1e-12,
            "greedy seeds should solve the graded chain at gen 0, got {}",
            seeded.history[0].best_goal
        );
    }

    #[test]
    fn cancelled_phase_returns_consistent_best_so_far() {
        use gaplan_core::budget::{Budget, CancelToken, StopCause};
        let d = chain(8);
        let mut c = cfg();
        c.generations_per_phase = 50;
        let token = CancelToken::new();
        token.cancel(); // cancelled before the run even starts
        let r = Phase::new(&d, c).with_budget(Budget::unlimited().with_token(token)).run();
        // generation 0 always runs, so there is a genuine best-so-far...
        assert_eq!(r.stopped, Some(StopCause::Cancelled));
        assert_eq!(r.generations_executed, 1);
        // ...and the bookkeeping stays consistent when cut short:
        assert_eq!(r.history.len() as u32, r.generations_executed);
        if let Some(g) = r.first_solution_gen {
            assert!(g < r.generations_executed, "first_solution_gen {g} out of range");
        }
    }

    #[test]
    fn expired_deadline_stops_phase_after_one_generation() {
        use gaplan_core::budget::{Budget, StopCause};
        use std::time::Duration;
        let d = chain(8);
        let mut c = cfg();
        c.generations_per_phase = 50;
        let r = Phase::new(&d, c).with_budget(Budget::unlimited().with_timeout(Duration::ZERO)).run();
        assert_eq!(r.stopped, Some(StopCause::Deadline));
        assert_eq!(r.generations_executed, 1);
        assert_eq!(r.history.len(), 1);
    }

    #[test]
    fn unlimited_budget_leaves_run_unchanged() {
        let d = chain(6);
        let with = Phase::new(&d, cfg()).with_budget(gaplan_core::Budget::unlimited()).run();
        let without = Phase::new(&d, cfg()).run();
        assert_eq!(with.generations_executed, without.generations_executed);
        assert_eq!(with.best.ops, without.best.ops);
        assert_eq!(with.stopped, None);
    }

    #[test]
    #[should_panic(expected = "invalid GaConfig")]
    fn invalid_config_panics() {
        let d = chain(3);
        let mut c = cfg();
        c.crossover_rate = 2.0;
        Phase::new(&d, c).run();
    }

    /// Whole-phase equivalence: the evaluation layer (successor cache +
    /// prefix hints) must not change a single bit of the outcome, for every
    /// crossover kind and both match modes.
    #[test]
    fn phase_results_identical_with_cache_on_and_off() {
        use crate::config::StateMatchMode;
        let d = chain(6);
        for kind in [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed, CrossoverKind::TwoPoint] {
            for mode in [StateMatchMode::ValidOpSet, StateMatchMode::ExactState] {
                let mut on = cfg();
                on.crossover = kind;
                on.state_match = mode;
                on.generations_per_phase = 25;
                on.length_mutation_rate = 0.05;
                let mut off = on.clone();
                on.succ_cache = true;
                off.succ_cache = false;
                let a = Phase::new(&d, on).run();
                let b = Phase::new(&d, off).run();
                assert_eq!(a.best.genome, b.best.genome, "{kind:?}/{mode:?}: genome");
                assert_eq!(a.best.ops, b.best.ops, "{kind:?}/{mode:?}: ops");
                assert_eq!(a.best.match_keys, b.best.match_keys, "{kind:?}/{mode:?}: match keys");
                assert_eq!(
                    a.best.fitness.total.to_bits(),
                    b.best.fitness.total.to_bits(),
                    "{kind:?}/{mode:?}: fitness"
                );
                assert_eq!(a.generations_executed, b.generations_executed, "{kind:?}/{mode:?}: generations");
                assert_eq!(a.first_solution_gen, b.first_solution_gen, "{kind:?}/{mode:?}: first solution");
                for (ha, hb) in a.history.iter().zip(&b.history) {
                    assert_eq!(ha.best_total.to_bits(), hb.best_total.to_bits(), "{kind:?}/{mode:?}: history");
                    assert_eq!(ha.mean_total.to_bits(), hb.mean_total.to_bits(), "{kind:?}/{mode:?}: history mean");
                }
            }
        }
    }

    /// The cache hit-rate guard from the perf issue: on a seeded run the
    /// population revisits states so heavily that well over half of all
    /// successor lookups must be served from the table.
    #[test]
    fn seeded_run_cache_hit_rate_exceeds_half() {
        let d = chain(8);
        let mut c = cfg();
        c.generations_per_phase = 30;
        let cache = Arc::new(SuccessorCache::new(c.succ_cache_capacity));
        Phase::new(&d, c).with_cache(Arc::clone(&cache)).run();
        let stats = cache.stats();
        assert!(
            stats.hit_rate() > 0.5,
            "cache hit rate {:.1}% (hits {} misses {}) — expected > 50%",
            stats.hit_rate() * 100.0,
            stats.hits,
            stats.misses
        );
    }

    #[test]
    fn shared_cache_stays_warm_across_phases() {
        let d = chain(6);
        let c = cfg();
        let cache = Arc::new(SuccessorCache::new(1 << 12));
        Phase::new(&d, c.clone()).with_cache(Arc::clone(&cache)).run();
        let after_first = cache.stats();
        Phase::with_start(&d, c, d.initial_state(), 1).with_cache(Arc::clone(&cache)).run();
        let after_second = cache.stats();
        let second = after_second.since(&after_first);
        // The second phase starts from the same state space: its miss count
        // must be far below its hit count because the table is already warm.
        assert!(
            second.hits > second.misses,
            "warm-start phase should mostly hit: hits {} misses {}",
            second.hits,
            second.misses
        );
    }

    /// A shuffled tile-4x4 (first-generation hit rate well under
    /// `CACHE_BYPASS_HIT_FRAC`) and Hanoi-4 (81 states, nearly all hits).
    fn tile4() -> (gaplan_domains::SlidingTile, GaConfig) {
        use rand::SeedableRng;
        let d = gaplan_domains::SlidingTile::random_solvable(4, &mut StdRng::seed_from_u64(11));
        let c = GaConfig {
            population_size: 60,
            generations_per_phase: 12,
            initial_len: 64,
            max_len: 160,
            crossover: CrossoverKind::Mixed,
            ..cfg()
        };
        (d, c)
    }

    fn hanoi4() -> (gaplan_domains::Hanoi, GaConfig) {
        let c = GaConfig { population_size: 60, generations_per_phase: 12, initial_len: 15, max_len: 45, ..cfg() };
        (gaplan_domains::Hanoi::new(4), c)
    }

    /// Successor lookups (shared-table probes plus credited L1 hits) a
    /// serial phase makes through a fresh cache. Every probe counts once
    /// whichever level answers it, so this is deterministic.
    fn lookups<D: gaplan_core::Domain>(d: &D, c: &GaConfig) -> u64 {
        let cache = Arc::new(SuccessorCache::new(c.succ_cache_capacity));
        Phase::new(d, c.clone()).with_cache(Arc::clone(&cache)).run();
        let s = cache.stats();
        s.hits + s.misses
    }

    /// The per-phase bypass changes speed only: cache on or off, serial or
    /// parallel, the phase result is the same bit for bit.
    fn assert_bypass_invariant<D: gaplan_core::Domain>(d: &D, base: &GaConfig, what: &str) {
        let reference = Phase::new(d, base.clone()).run();
        for succ_cache in [true, false] {
            for eval in [EvalMode::Serial, EvalMode::Parallel] {
                let c = GaConfig { succ_cache, eval, ..base.clone() };
                let r = Phase::new(d, c).run();
                assert_results_identical(&reference, &r, &format!("{what} cache={succ_cache} {eval:?}"));
            }
        }
    }

    #[test]
    fn cache_bypass_fires_on_tile4_and_changes_no_result() {
        let (d, c) = tile4();
        assert_bypass_invariant(&d, &c, "tile4");
        let first = lookups(&d, &GaConfig { generations_per_phase: 1, ..c.clone() });
        let whole = lookups(&d, &c);
        assert!(first > 0);
        assert_eq!(whole, first, "a bypassed phase makes no lookups after generation 0");
    }

    #[test]
    fn cache_bypass_stays_off_on_hanoi4_and_changes_no_result() {
        let (d, c) = hanoi4();
        assert_bypass_invariant(&d, &c, "hanoi4");
        let first = lookups(&d, &GaConfig { generations_per_phase: 1, ..c.clone() });
        let whole = lookups(&d, &c);
        assert!(whole > first, "hanoi4 keeps the cache after generation 0 ({whole} vs {first} lookups)");
    }

    fn island_cfg() -> GaConfig {
        let mut c = cfg();
        c.islands = 4;
        c.migration_interval = 5;
        c.emigrants = 2;
        c
    }

    fn assert_results_identical<S>(a: &PhaseResult<S>, b: &PhaseResult<S>, what: &str) {
        assert_eq!(a.best.genome, b.best.genome, "{what}: genome");
        assert_eq!(a.best.ops, b.best.ops, "{what}: ops");
        assert_eq!(a.best.fitness.total.to_bits(), b.best.fitness.total.to_bits(), "{what}: fitness");
        assert_eq!(a.best.fitness.goal.to_bits(), b.best.fitness.goal.to_bits(), "{what}: goal fitness");
        assert_eq!(a.generations_executed, b.generations_executed, "{what}: generations");
        assert_eq!(a.first_solution_gen, b.first_solution_gen, "{what}: first solution");
        assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
        for (ha, hb) in a.history.iter().zip(&b.history) {
            assert_eq!(ha.best_total.to_bits(), hb.best_total.to_bits(), "{what}: history best");
            assert_eq!(ha.mean_total.to_bits(), hb.mean_total.to_bits(), "{what}: history mean");
        }
    }

    #[test]
    fn island_run_is_bitwise_reproducible() {
        let d = chain(6);
        let a = Phase::new(&d, island_cfg()).run();
        let b = Phase::new(&d, island_cfg()).run();
        assert_results_identical(&a, &b, "run-to-run");
    }

    #[test]
    fn island_run_identical_serial_and_parallel() {
        let d = chain(6);
        let mut par = island_cfg();
        par.eval = EvalMode::Parallel;
        let a = Phase::new(&d, island_cfg()).run();
        let b = Phase::new(&d, par).run();
        assert_results_identical(&a, &b, "serial vs parallel");
    }

    #[test]
    fn island_run_identical_with_cache_on_and_off() {
        let d = chain(6);
        let mut off = island_cfg();
        off.succ_cache = false;
        let a = Phase::new(&d, island_cfg()).run();
        let b = Phase::new(&d, off).run();
        assert_results_identical(&a, &b, "cache on vs off");
    }

    #[test]
    fn islands_diverge_from_single_population() {
        let d = chain(6);
        let one = Phase::new(&d, cfg()).run();
        let four = Phase::new(&d, island_cfg()).run();
        // different RNG streams per island: overwhelmingly likely to diverge
        assert!(
            one.best.genome != four.best.genome || one.first_solution_gen != four.first_solution_gen,
            "4-island run coincided with the single-population run"
        );
    }

    #[test]
    fn migration_fires_on_schedule_and_is_traced() {
        use gaplan_obs::RecordingSubscriber;
        let d = chain(12); // hard enough that no early stop interferes
        let mut c = island_cfg();
        c.generations_per_phase = 18; // migrations at gens 5, 10, 15
        let rec = Arc::new(RecordingSubscriber::default());
        let guard = obs::install(rec.clone());
        Phase::new(&d, c).run();
        drop(guard);
        let migrations: Vec<String> =
            rec.lines().into_iter().filter(|l| l.contains(r#""ev":"ga.migration""#)).collect();
        assert_eq!(migrations.len(), 3, "{migrations:?}");
        for (line, gen) in migrations.iter().zip([5u32, 10, 15]) {
            assert!(line.contains(&format!(r#""gen":{gen}"#)), "{line}");
            assert!(line.contains(r#""islands":4"#), "{line}");
            assert!(line.contains(r#""moved":8"#), "4 islands x 2 emigrants: {line}");
        }
    }

    #[test]
    fn migrate_moves_best_over_ring_and_replaces_worst() {
        // Two islands of three; fitness identifies individuals.
        let genome = |v: f64| Genome::from_genes(vec![v]);
        let mut pop: Vec<Evaluated<()>> = (0..6)
            .map(|i| {
                let mut e = Evaluated {
                    genome: genome(i as f64 / 10.0),
                    ops: vec![],
                    match_keys: vec![0],
                    step_goals: vec![],
                    final_state: (),
                    decoded_len: 0,
                    best_prefix_at: 0,
                    best_prefix_state: (),
                    fitness: Default::default(),
                };
                e.fitness.total = i as f64;
                e
            })
            .collect();
        // island 0 = fitness [0,1,2], island 1 = fitness [3,4,5]
        let moved = migrate(&mut pop, 2, 3, 1);
        assert_eq!(moved, 2);
        // island 1's best (5) replaced island 0's worst (0); island 0's
        // best (2) replaced island 1's worst (3) — ranked pre-migration.
        let totals: Vec<f64> = pop.iter().map(|e| e.fitness.total).collect();
        assert_eq!(totals, vec![5.0, 1.0, 2.0, 2.0, 4.0, 5.0]);
    }

    #[test]
    fn mid_phase_island_snapshot_resume_is_identical() {
        let d = chain(8);
        let mut c = island_cfg();
        c.generations_per_phase = 30;
        let mut snaps: Vec<PhaseSnapshot> = Vec::new();
        let full = Phase::new(&d, c.clone()).run_snapshotting(None, 7, &mut |s| snaps.push(s));
        assert!(!snaps.is_empty(), "expected mid-phase snapshots");
        let snap = snaps.last().unwrap();
        assert_eq!(snap.islands(), 4);
        assert_eq!(snap.rng.len(), 16, "4 islands x 4 words of RNG state");
        let resumed = Phase::new(&d, c).run_snapshotting(Some(snap), 0, &mut |_| {});
        assert_results_identical(&full, &resumed, "resume");
    }

    #[test]
    #[should_panic(expected = "snapshot island count mismatch")]
    fn resume_with_wrong_island_count_panics() {
        let d = chain(6);
        let mut snaps: Vec<PhaseSnapshot> = Vec::new();
        Phase::new(&d, island_cfg()).run_snapshotting(None, 7, &mut |s| snaps.push(s));
        let mut two = island_cfg();
        two.islands = 2;
        Phase::new(&d, two).run_snapshotting(Some(&snaps[0]), 0, &mut |_| {});
    }

    /// Regression test for the masked-stop bug class: a cancellation that
    /// lands *inside* a migration step (between evaluation and the ring
    /// exchange) must surface as the phase's stop cause, and the migration
    /// must not be committed partially (here: not at all).
    #[test]
    fn cancel_inside_migration_step_propagates_stop_cause() {
        use gaplan_core::budget::{Budget, CancelToken, StopCause};
        use std::sync::Mutex;

        /// Records every event and cancels the token the moment evaluation
        /// of `cancel_at` finishes (its `ga.gen` event) — exactly the window
        /// in which the engine is about to migrate.
        struct CancelOnGen {
            token: CancelToken,
            cancel_at: u64,
            lines: Mutex<Vec<String>>,
        }
        impl obs::Subscriber for CancelOnGen {
            fn on_event(&self, event: &obs::Event) {
                self.lines.lock().unwrap().push(event.to_json());
                if event.name() == "ga.gen"
                    && event.fields().iter().any(|(k, v)| *k == "gen" && *v == obs::FieldValue::U64(self.cancel_at))
                {
                    self.token.cancel();
                }
            }
        }

        let d = chain(12);
        let mut c = island_cfg();
        c.migration_interval = 10;
        c.generations_per_phase = 30;
        let token = CancelToken::new();
        let sub = Arc::new(CancelOnGen { token: token.clone(), cancel_at: 10, lines: Mutex::new(Vec::new()) });
        let guard = obs::install(sub.clone());
        let r = Phase::new(&d, c).with_budget(Budget::unlimited().with_token(token)).run();
        drop(guard);

        assert_eq!(r.stopped, Some(StopCause::Cancelled), "stop cause must survive the migration path");
        assert_eq!(r.generations_executed, 11, "generation 10 evaluated, then the cut landed");
        assert_eq!(r.history.len() as u32, r.generations_executed);
        let lines = sub.lines.lock().unwrap();
        assert!(
            !lines.iter().any(|l| l.contains(r#""ev":"ga.migration""#)),
            "a cancelled migration step must not commit (even partially)"
        );
    }
}
