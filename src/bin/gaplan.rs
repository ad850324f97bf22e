//! `gaplan` — command-line planner over the workspace's engines.
//!
//! ```text
//! gaplan strips <file> [--planner ga|bfs|graphplan|forward|backward|hsp2]
//!                      [--seed N] [--pop N] [--gens N] [--phases N]
//!                      [--islands K] [--migrate-every M] [--emigrants E]
//! gaplan solve  --domain FILE --problem FILE [--planner ...] [GA flags]
//! gaplan check  --domain FILE [--problem FILE] [--print]
//! gaplan grid   <file> [--planner ga|greedy] [--simulate]
//!                      [--overload SITE:TIME:LOAD] [--faults SEED]
//!                      [--fault-rate F]
//! gaplan hanoi  [<disks>] [--disks N] [--single] [--seed N]
//! gaplan tile   <side>  [--crossover random|state-aware|mixed] [--seed N]
//! gaplan serve  [--workers N] [--queue N] [--cache N]
//!               [--admission-ms N] [--job-retries N] [--journal DIR]
//!               [--listen HOST:PORT] [--max-frame BYTES] [--no-coalesce]
//!               [--backlog N] [--idle-ms N]
//!               [--target-ms N] [--codel-interval-ms N] [--brownout F]
//!               [--brownout-enter-ms N] [--brownout-exit-ms N]
//! gaplan loadgen --addr HOST:PORT [--jobs N] [--conns N] [--inflight N]
//!               [--keys N] [--skew F] [--deadline-ms N] [--seed N]
//!               [--rate R] [--burst B] [--shutdown-after] [--out FILE]
//!               [--domain FILE --problem FILE]
//! gaplan trace-report <file> [--top K]
//! ```
//!
//! `serve` without `--listen` speaks JSON lines on stdin/stdout; with
//! `--listen` it serves the same protocol over TCP (thread per connection,
//! singleflight coalescing of identical in-flight requests unless
//! `--no-coalesce`). `loadgen` drives a TCP server with skewed-key traffic
//! and writes throughput/latency results to `BENCH_service.json`.
//!
//! Overload control (see DESIGN.md §12): `--target-ms N` enables the
//! CoDel-style controlled-delay queue (head shedding when sojourn stays
//! above N ms) *and* deadline-aware admission; `--brownout F` (0 < F < 1)
//! enables anytime GA brownout with budget floor F — under queue pressure
//! jobs run a scaled-down GA and replies carry `"degraded":true`.
//! `--idle-ms N` reaps TCP connections idle longer than N ms (slowloris
//! defense; 0 disables). `loadgen --rate R` switches from closed-loop to
//! open-loop (paced arrivals at R jobs/s overall, bursts of B), reporting
//! goodput within deadline and shed/rejected/degraded/expired counts.
//!
//! Every planning command also accepts `--trace FILE`, writing a JSON-lines
//! event trace (see `gaplan-obs`) that `gaplan trace-report` analyzes.
//!
//! GA commands accept `--islands K [--migrate-every M] [--emigrants E]`: the
//! population is split into K independently-seeded islands with
//! deterministic ring migration of the top E individuals every M
//! generations (`--islands 1`, the default, is byte-identical to the
//! pre-island engine — see DESIGN.md §13).
//!
//! GA commands accept `--checkpoint FILE [--checkpoint-gens N]`: the run
//! snapshots its full state to FILE after every phase (and every N
//! generations within a phase when N > 0), resumes from an existing FILE
//! bitwise-identically, and deletes FILE on completion. `serve --journal DIR`
//! write-ahead journals every accepted job and terminal reply under DIR, so
//! a killed service replays unfinished work on restart (see `gaplan-durable`).
//!
//! `solve` compiles a typed-DSL domain/problem pair (see `gaplan-lang` and
//! DESIGN.md §14) into ground STRIPS and plans it with the same planners and
//! flags as `strips`; `check` stops after parse/typecheck/grounding and
//! reports diagnostics (exit 0 clean, 1 with errors). Example domains live
//! in `examples/domains/` with problems in `data/`.
//!
//! STRIPS files use the `gaplan-core` text format; grid files use the
//! `gaplan-grid` format (see `data/` for samples).

use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use ga_grid_planner::baselines::{
    backward_chain, bfs, forward_chain, graphplan, greedy_best_first, HAdd, SearchLimits,
};
use ga_grid_planner::domains::{Hanoi, SlidingTile};
use ga_grid_planner::durable::{load_snapshot, save_snapshot, FsStorage, Storage};
use ga_grid_planner::ga::{
    CostFitnessMode, CrossoverKind, GaConfig, MultiPhase, MultiPhaseCheckpoint, MultiPhaseResult,
};
use ga_grid_planner::grid::{
    chaos_schedule, greedy_plan, parse_grid, ActivityGraph, Coordinator, ExternalEvent, FaultPlan, ReplanPolicy,
};
use ga_grid_planner::lang;
use ga_grid_planner::net::{
    self as gaplan_net, ChaosConfig, ChaosProxy, HedgeMode, LoadgenConfig, NetOptions, TcpServer,
};
use ga_grid_planner::obs;
use ga_grid_planner::service::{
    serve_with_journal, JobJournal, Metric, ObsHandle, OverloadConfig, PlanService, ServiceConfig, ServiceReplanner,
};
use gaplan_core::{Domain, Plan, SigBuilder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage("no command") };
    match cmd.as_str() {
        "strips" => strips_cmd(&args[1..]),
        "solve" => solve_cmd(&args[1..]),
        "check" => check_cmd(&args[1..]),
        "grid" => grid_cmd(&args[1..]),
        "hanoi" => hanoi_cmd(&args[1..]),
        "tile" => tile_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "loadgen" => loadgen_cmd(&args[1..]),
        "chaosproxy" => chaosproxy_cmd(&args[1..]),
        "trace-report" => trace_report_cmd(&args[1..]),
        other => usage(&format!("unknown command `{other}`")),
    }
}

/// Open the `--trace FILE` sink, if requested, as a service-shareable
/// handle. The file is created eagerly so a bad path fails before planning.
fn trace_handle(args: &[String]) -> Option<ObsHandle> {
    let path = flag_value(args, "--trace")?;
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create trace file {path}: {e}");
        exit(1);
    });
    Some(ObsHandle::new(Arc::new(obs::JsonlSink::new(std::io::BufWriter::new(file)))))
}

/// Install the `--trace FILE` sink on this thread for the duration of the
/// returned guard (none when the flag is absent).
fn install_trace(args: &[String]) -> Option<obs::InstallGuard> {
    trace_handle(args).map(|h| h.install())
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  gaplan strips <file> [--planner ga|bfs|graphplan|forward|backward|hsp2] [--seed N] [--pop N] [--gens N] [--phases N]\n  gaplan solve --domain FILE --problem FILE [--planner ...] [GA flags]    (typed DSL → ground STRIPS → plan)\n  gaplan check --domain FILE [--problem FILE] [--print]    (parse/typecheck/ground only; exit 1 on errors)\n  gaplan grid <file> [--planner ga|greedy] [--simulate] [--overload SITE:TIME:LOAD] [--faults SEED] [--fault-rate F]\n  gaplan hanoi [<disks>] [--disks N] [--single] [--seed N]\n  gaplan tile <side> [--crossover random|state-aware|mixed] [--seed N]\n  gaplan serve [--workers N] [--queue N] [--cache N] [--admission-ms N] [--job-retries N] [--journal DIR]    (JSON lines on stdin/stdout)\n               [--listen HOST:PORT] [--max-frame BYTES] [--no-coalesce] [--backlog N] [--idle-ms N]    (same protocol over TCP)\n               [--target-ms N] [--codel-interval-ms N] [--brownout F] [--brownout-enter-ms N] [--brownout-exit-ms N]    (overload control)\n  gaplan loadgen --addr HOST:PORT [--jobs N] [--conns N] [--inflight N] [--keys N] [--skew F] [--deadline-ms N] [--seed N] [--rate R] [--burst B] [--shutdown-after] [--out FILE] [--domain FILE --problem FILE]\n                 [--retry] [--hedge | --hedge-ms N] [--proxy HOST:PORT | --chaos [chaos flags]]    (resilient client / fault injection)\n  gaplan chaosproxy --upstream HOST:PORT [--listen HOST:PORT] [chaos flags]    (standalone fault-injecting proxy)\n    chaos flags: [--chaos-seed N] [--chaos-resets F] [--chaos-cuts F] [--chaos-refuse F] [--chaos-latency-ms N] [--chaos-jitter-ms N] [--chaos-partial F] [--chaos-throttle BYTES_PER_SEC]\n  gaplan trace-report <file> [--top K]\nevery planning command also accepts --trace FILE (JSON-lines event trace)\nGA commands also accept --checkpoint FILE [--checkpoint-gens N] (crash-safe snapshot/resume),\n--islands K [--migrate-every M] [--emigrants E] (island-model GA with deterministic ring migration),\n--no-succ-cache (disable the successor cache; identical plans, slower decode)\nand --succ-cache N (successor-cache capacity in entries, default 65536)"
    );
    exit(2);
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_or<T: std::str::FromStr>(v: Option<&str>, default: T) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn ga_config_from_flags(args: &[String], initial_len: usize) -> GaConfig {
    let defaults = GaConfig::default();
    let cfg = GaConfig {
        population_size: parse_or(flag_value(args, "--pop"), 200),
        generations_per_phase: parse_or(flag_value(args, "--gens"), 100),
        max_phases: parse_or(flag_value(args, "--phases"), 5),
        initial_len,
        max_len: 5 * initial_len,
        seed: parse_or(flag_value(args, "--seed"), 2003),
        succ_cache: !flag_present(args, "--no-succ-cache"),
        succ_cache_capacity: parse_or(flag_value(args, "--succ-cache"), defaults.succ_cache_capacity),
        // Island model: `--islands 1` (the default) is byte-identical to a
        // run without any island flags.
        islands: parse_or(flag_value(args, "--islands"), defaults.islands),
        migration_interval: parse_or(flag_value(args, "--migrate-every"), defaults.migration_interval),
        emigrants: parse_or(flag_value(args, "--emigrants"), defaults.emigrants),
        ..defaults
    };
    if let Err(e) = cfg.validate() {
        usage(&format!("invalid GA configuration: {e}"));
    }
    cfg
}

/// Run the multi-phase GA for `domain`, honoring `--checkpoint FILE` and
/// `--checkpoint-gens N`: after every phase (and, with `N > 0`, every `N`
/// generations inside a phase) the run's full state is written atomically
/// to FILE. An existing FILE resumes the run — bitwise-identically to an
/// uninterrupted one — and a completed run deletes it.
fn run_with_checkpoint<D: Domain>(
    domain: &D,
    cfg: GaConfig,
    problem_sig: u64,
    args: &[String],
) -> MultiPhaseResult<D::State> {
    let Some(path) = flag_value(args, "--checkpoint") else {
        return MultiPhase::new(domain, cfg).run();
    };
    let every: u32 = parse_or(flag_value(args, "--checkpoint-gens"), 0);
    let path = std::path::Path::new(path);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        usage("--checkpoint needs a file path");
    };
    let storage: Arc<dyn Storage> = Arc::new(FsStorage::new(&dir).unwrap_or_else(|e| {
        eprintln!("cannot open checkpoint directory {}: {e}", dir.display());
        exit(1);
    }));
    let resume: Option<MultiPhaseCheckpoint> = match load_snapshot(&storage, &name) {
        Ok(Some(bytes)) => {
            match std::str::from_utf8(&bytes).ok().and_then(|s| serde_json::from_str::<MultiPhaseCheckpoint>(s).ok()) {
                Some(cp) => {
                    eprintln!("resuming from checkpoint {} (phase {})", path.display(), cp.next_phase);
                    Some(cp)
                }
                None => {
                    eprintln!("warning: checkpoint {} is unreadable; starting fresh", path.display());
                    None
                }
            }
        }
        Ok(None) => None,
        Err(e) => {
            eprintln!("warning: checkpoint {} is corrupt ({e}); starting fresh", path.display());
            None
        }
    };
    let result = {
        let mp = MultiPhase::new(domain, cfg).with_problem_sig(problem_sig);
        let mut sink = |cp: &MultiPhaseCheckpoint| match serde_json::to_string(cp) {
            Ok(json) => {
                if let Err(e) = save_snapshot(&storage, &name, json.as_bytes()) {
                    eprintln!("warning: checkpoint write failed: {e}");
                }
            }
            Err(e) => eprintln!("warning: checkpoint serialize failed: {e}"),
        };
        mp.run_checkpointed(resume.as_ref(), every, &mut sink)
    };
    match result {
        Ok(r) => {
            // The run is over; a later fresh invocation must not resume it.
            let _ = storage.remove(&name);
            r
        }
        Err(e) => {
            eprintln!("cannot resume from {}: {e}", path.display());
            exit(1);
        }
    }
}

fn report_plan<D: Domain>(domain: &D, plan: &Plan, elapsed: f64, extra: &str) {
    let out = plan.simulate(domain, &domain.initial_state()).expect("planner produced an invalid plan");
    println!("plan: {} ops, cost {:.1}, reaches goal: {} ({:.3}s){extra}", plan.len(), out.cost, out.solves, elapsed);
    print!("{}", plan.display(domain));
}

/// Plan a ground STRIPS problem with the planner selected by `--planner`
/// (GA by default, with checkpoint/island/trace flags honored), printing
/// the plan. Shared by `strips` (legacy text format) and `solve` (DSL).
fn plan_strips(problem: &gaplan_core::strips::StripsProblem, args: &[String]) {
    let planner = flag_value(args, "--planner").unwrap_or("ga");
    let limits = SearchLimits::default();
    let _trace = install_trace(args);
    let started = Instant::now();
    match planner {
        "ga" => {
            let cfg = ga_config_from_flags(args, 16.max(problem.num_operations()));
            let r = run_with_checkpoint(problem, cfg, problem.signature(), args);
            println!(
                "GA: solved={} goal-fitness={:.3} generations={}",
                r.solved, r.goal_fitness, r.generations_to_solution
            );
            report_plan(problem, &r.plan, started.elapsed().as_secs_f64(), "");
        }
        other => {
            let result = match other {
                "bfs" => bfs(problem, limits),
                "graphplan" => graphplan(problem, limits),
                "forward" => forward_chain(problem, limits),
                "backward" => backward_chain(problem, limits),
                "hsp2" => greedy_best_first(problem, &HAdd, limits),
                _ => usage(&format!("unknown planner `{other}`")),
            };
            match result.plan {
                Some(plan) => report_plan(
                    problem,
                    &plan,
                    started.elapsed().as_secs_f64(),
                    &format!(", {} nodes expanded", result.expanded),
                ),
                None => {
                    println!("{other}: no plan found ({:?}, {} expanded)", result.outcome, result.expanded);
                    exit(1);
                }
            }
        }
    }
}

fn strips_cmd(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else { usage("strips needs a file") };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let problem = gaplan_core::strips::parse_strips(&text).unwrap_or_else(|e| {
        // Parse failures get the full caret treatment from the DSL's
        // diagnostic renderer; other errors print as before.
        match &e {
            gaplan_core::Error::Parse { line, msg } => {
                eprint!("{}", lang::render_legacy_parse(path, &text, *line, msg))
            }
            other => eprintln!("{other}"),
        }
        exit(1);
    });
    println!("{path}: {} conditions, {} ground operators", problem.num_conditions(), problem.num_operations());
    plan_strips(&problem, args);
}

/// Read `--domain FILE` and `--problem FILE` sources for `solve`/`check`.
fn read_dsl_sources(args: &[String], problem_required: bool) -> (String, String, Option<String>) {
    let Some(dpath) = flag_value(args, "--domain") else { usage("needs --domain FILE") };
    let dsrc = std::fs::read_to_string(dpath).unwrap_or_else(|e| {
        eprintln!("cannot read {dpath}: {e}");
        exit(1);
    });
    let ppath = flag_value(args, "--problem");
    if problem_required && ppath.is_none() {
        usage("needs --problem FILE");
    }
    let psrc = ppath.map(|p| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            exit(1);
        })
    });
    (dpath.to_string(), dsrc, psrc)
}

fn solve_cmd(args: &[String]) {
    let (dpath, dsrc, psrc) = read_dsl_sources(args, true);
    let ppath = flag_value(args, "--problem").unwrap().to_string();
    let psrc = psrc.unwrap();
    let compiled = match lang::compile(&dsrc, &psrc) {
        Ok(c) => c,
        Err(e) => {
            eprint!("{}", e.render(&dpath, &dsrc, &ppath, &psrc));
            exit(1);
        }
    };
    // Warnings (e.g. unreachable goals) still plan, but the user should
    // know the GA may be chasing an unsatisfiable goal.
    eprint!("{}", lang::render_diagnostics(&compiled.warnings, &dpath, &dsrc, &ppath, &psrc));
    let s = &compiled.stats;
    println!(
        "{ppath}: {} objects, {} conditions, {} ground operators ({} bindings enumerated, {} pruned)",
        s.objects, s.conditions, s.ops, s.candidates, s.pruned
    );
    plan_strips(&compiled.strips, args);
}

fn check_cmd(args: &[String]) {
    let (dpath, dsrc, psrc) = read_dsl_sources(args, false);
    match psrc {
        // Full pipeline: parse both, typecheck, ground.
        Some(psrc) => {
            let ppath = flag_value(args, "--problem").unwrap().to_string();
            match lang::compile(&dsrc, &psrc) {
                Ok(c) => {
                    eprint!("{}", lang::render_diagnostics(&c.warnings, &dpath, &dsrc, &ppath, &psrc));
                    let s = &c.stats;
                    println!(
                        "ok: {} objects, {} conditions, {} ground operators ({} warning{})",
                        s.objects,
                        s.conditions,
                        s.ops,
                        c.warnings.len(),
                        if c.warnings.len() == 1 { "" } else { "s" }
                    );
                }
                Err(e) => {
                    eprint!("{}", e.render(&dpath, &dsrc, &ppath, &psrc));
                    exit(1);
                }
            }
        }
        // Domain only: parse + typecheck, no grounding possible.
        None => {
            let ast = lang::parse_domain(&dsrc).unwrap_or_else(|d| {
                eprint!("{}", d.render(&dpath, &dsrc));
                exit(1);
            });
            let mut diags = Vec::new();
            let checked = lang::check::check_domain(&ast, &mut diags);
            for d in &diags {
                eprint!("{}", d.render(&dpath, &dsrc));
            }
            let Some(dom) = checked else { exit(1) };
            if flag_present(args, "--print") {
                print!("{}", lang::pretty::print_domain(&ast));
            } else {
                println!(
                    "ok: domain `{}` — {} types, {} predicates, {} actions",
                    dom.name,
                    dom.types.len(),
                    dom.preds.len(),
                    dom.actions.len()
                );
            }
        }
    }
}

fn grid_cmd(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else { usage("grid needs a file") };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let world = parse_grid(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1);
    });
    println!(
        "{path}: {} sites, {} programs, {} ground operations, {} goal(s)",
        world.sites().len(),
        world.programs().len(),
        world.num_operations(),
        world.goals().len()
    );
    let planner = flag_value(args, "--planner").unwrap_or("ga");
    // Planning and the simulator timeline trace on this thread. Service
    // replan workers deliberately stay untraced: their wall-clock scheduling
    // would interleave nondeterministically with the sim-time timeline.
    let _trace = install_trace(args);
    let started = Instant::now();
    let plan = match planner {
        "ga" => {
            let mut cfg = ga_config_from_flags(args, 12);
            cfg.max_len = 32;
            cfg.cost_fitness = CostFitnessMode::InverseCost;
            run_with_checkpoint(&world, cfg, world.signature(), args).plan
        }
        "greedy" => greedy_plan(&world, 8).unwrap_or_default(),
        other => usage(&format!("unknown planner `{other}`")),
    };
    report_plan(&world, &plan, started.elapsed().as_secs_f64(), "");

    let graph = ActivityGraph::from_plan(&world, &world.initial_state(), &plan);
    println!(
        "activity graph: {} nodes, width {}, critical path {:.1}s",
        graph.len(),
        graph.width(),
        graph.critical_path()
    );

    if flag_present(args, "--simulate") {
        let mut coord = Coordinator::new(&world);
        if let Some(spec) = flag_value(args, "--overload") {
            let parts: Vec<&str> = spec.split(':').collect();
            if parts.len() != 3 {
                usage("--overload SITE:TIME:LOAD");
            }
            let site = world
                .sites()
                .iter()
                .position(|s| s.name == parts[0])
                .unwrap_or_else(|| usage(&format!("unknown site `{}`", parts[0])));
            coord
                .schedule(ExternalEvent::LoadChange {
                    time: parse_or(Some(parts[1]), 0.0),
                    site: ga_grid_planner::grid::SiteId(site as u32),
                    load: parse_or(Some(parts[2]), 0.9),
                })
                .policy(ReplanPolicy::OnLoadChange);
        }
        if let Some(fseed) = flag_value(args, "--faults") {
            let fseed: u64 = parse_or(Some(fseed), 7);
            let rate: f64 = parse_or(flag_value(args, "--fault-rate"), 0.05);
            let horizon = (graph.critical_path() * 2.0).max(10.0);
            let events = chaos_schedule(&world, fseed, horizon);
            println!("fault schedule (seed {fseed}, rate {rate}):");
            for ev in &events {
                match ev {
                    ExternalEvent::SiteFailure { time, site } => {
                        println!("  [{time:8.1}] FAIL     {}", world.sites()[site.0 as usize].name);
                    }
                    ExternalEvent::SiteRecovery { time, site } => {
                        println!("  [{time:8.1}] RECOVER  {}", world.sites()[site.0 as usize].name);
                    }
                    ExternalEvent::LoadChange { time, site, load } => {
                        println!("  [{time:8.1}] LOAD {load:.2} {}", world.sites()[site.0 as usize].name);
                    }
                }
                coord.schedule(*ev);
            }
            coord.fault_plan(FaultPlan::new(fseed, rate)).policy(ReplanPolicy::OnAnyChange);
        }
        let seed = parse_or(flag_value(args, "--seed"), 2003);
        // Replans go through the planning service: queued, budgeted, cached.
        let (service, _responses) = PlanService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 32,
            ..ServiceConfig::default()
        })
        .unwrap_or_else(|e| {
            eprintln!("grid: start planning service: {e}");
            exit(1);
        });
        let cache_flags = ga_config_from_flags(args, 1);
        let mut replan_cfg = GaConfig {
            population_size: 100,
            generations_per_phase: 60,
            max_phases: 3,
            initial_len: 10,
            max_len: 24,
            cost_fitness: CostFitnessMode::InverseCost,
            seed: seed ^ 0xD1CE,
            // replans honor the CLI successor-cache knobs too
            succ_cache: cache_flags.succ_cache,
            succ_cache_capacity: cache_flags.succ_cache_capacity,
            ..GaConfig::default()
        };
        replan_cfg.truncate_at_goal = true;
        let replanner = ServiceReplanner::new(&service, replan_cfg);
        let replan = |snapshot: &ga_grid_planner::grid::GridWorld| replanner.replan(snapshot);
        let trace = coord.run(&plan, Some(&replan));
        println!("\nsimulated execution:");
        for t in &trace.tasks {
            println!("  [{:8.1} - {:8.1}] {}", t.start, t.end, t.name);
        }
        println!(
            "goal fitness {:.3}, makespan {:.1}s, busy {:.1}s, {} replans",
            trace.goal_fitness, trace.makespan, trace.busy_time, trace.replans
        );
        if trace.faults_injected > 0 || trace.failed {
            println!(
                "faults: {} injected, {} tasks retried, {} rerouted{}",
                trace.faults_injected,
                trace.tasks_retried,
                trace.tasks_rerouted,
                if trace.failed { " — DEGRADED (goal not reached)" } else { "" }
            );
        }
        let m = service.metrics();
        println!(
            "planning service: {} jobs, cache {}/{} hits, mean {:.0}ms/job",
            m[Metric::JobsCompleted],
            m[Metric::CacheHits],
            m[Metric::CacheHits] + m[Metric::CacheMisses],
            m.mean_wall_ms
        );
        service.shutdown();
    }
}

/// Build the overload-control config from `serve` flags.
///
/// `--target-ms N` (N > 0) is the single opt-in switch: it enables the
/// CoDel queue controller at that sojourn target *and* deadline-aware
/// admission, and derives brownout hysteresis thresholds (enter = 2×target,
/// exit = target/2) so `--brownout F` composes without extra flags.
/// Everything stays off by default, preserving pre-overload behavior.
fn overload_config_from_flags(args: &[String]) -> OverloadConfig {
    let defaults = OverloadConfig::default();
    let target_ms: u64 = parse_or(flag_value(args, "--target-ms"), 0);
    let brownout: f64 = parse_or(flag_value(args, "--brownout"), 1.0);
    if !(0.0..=1.0).contains(&brownout) {
        usage("--brownout F must be in [0, 1] (0 or 1 disables brownout)");
    }
    let enter_default = if target_ms > 0 { target_ms * 2 } else { defaults.brownout_enter_ms };
    let exit_default = if target_ms > 0 { (target_ms / 2).max(1) } else { defaults.brownout_exit_ms };
    OverloadConfig {
        codel_target_ms: target_ms,
        codel_interval_ms: parse_or(flag_value(args, "--codel-interval-ms"), defaults.codel_interval_ms),
        deadline_admission: target_ms > 0,
        // 0.0 and 1.0 both mean "off" (brownout_enabled() needs floor in (0,1)).
        brownout_floor: if brownout == 0.0 { 1.0 } else { brownout },
        brownout_enter_ms: parse_or(flag_value(args, "--brownout-enter-ms"), enter_default),
        brownout_exit_ms: parse_or(flag_value(args, "--brownout-exit-ms"), exit_default),
    }
}

fn serve_cmd(args: &[String]) {
    let cfg = ServiceConfig {
        workers: parse_or(flag_value(args, "--workers"), 2),
        queue_capacity: parse_or(flag_value(args, "--queue"), 64),
        cache_capacity: parse_or(flag_value(args, "--cache"), 128),
        admission_timeout: std::time::Duration::from_millis(parse_or(flag_value(args, "--admission-ms"), 0)),
        max_job_retries: parse_or(flag_value(args, "--job-retries"), 1),
        overload: overload_config_from_flags(args),
        obs: trace_handle(args),
    };
    let journal = flag_value(args, "--journal").map(|dir| {
        let storage: Arc<dyn Storage> = Arc::new(FsStorage::new(dir).unwrap_or_else(|e| {
            eprintln!("cannot open journal directory {dir}: {e}");
            exit(1);
        }));
        JobJournal::new(storage)
    });
    if let Some(addr) = flag_value(args, "--listen") {
        let idle_ms: u64 = parse_or(flag_value(args, "--idle-ms"), 300_000);
        let opts = NetOptions {
            max_frame: parse_or(flag_value(args, "--max-frame"), gaplan_net::DEFAULT_MAX_FRAME),
            coalesce: !flag_present(args, "--no-coalesce"),
            backlog_limit: parse_or(flag_value(args, "--backlog"), 1024),
            idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
        };
        let server = TcpServer::bind(cfg, journal, opts, addr).unwrap_or_else(|e| {
            eprintln!("serve: cannot listen on {addr}: {e}");
            exit(1);
        });
        // Machine-readable so tests (and scripts) can discover port 0 binds.
        eprintln!("gaplan: listening on {}", server.local_addr());
        if let Err(e) = server.wait() {
            eprintln!("serve: {e}");
            exit(1);
        }
        return;
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = serve_with_journal(cfg, journal, stdin.lock(), stdout) {
        eprintln!("serve: {e}");
        exit(1);
    }
}

fn loadgen_cmd(args: &[String]) {
    let Some(addr) = flag_value(args, "--addr") else { usage("loadgen needs --addr HOST:PORT") };
    let cfg = LoadgenConfig {
        addr: addr.to_string(),
        jobs: parse_or(flag_value(args, "--jobs"), 100_000),
        conns: parse_or(flag_value(args, "--conns"), 8),
        inflight: parse_or(flag_value(args, "--inflight"), 32),
        key_space: parse_or(flag_value(args, "--keys"), 64),
        skew: parse_or(flag_value(args, "--skew"), 0.5),
        deadline_ms: flag_value(args, "--deadline-ms").map(|v| parse_or(Some(v), 0)),
        seed: parse_or(flag_value(args, "--seed"), 42),
        rate: flag_value(args, "--rate").and_then(|v| v.parse::<f64>().ok()).filter(|r| *r > 0.0),
        burst: parse_or(flag_value(args, "--burst"), 1),
        shutdown_after: flag_present(args, "--shutdown-after"),
        dsl: match (flag_value(args, "--domain"), flag_value(args, "--problem")) {
            (Some(d), Some(p)) => {
                let read = |path: &str| {
                    std::fs::read_to_string(path).unwrap_or_else(|e| {
                        eprintln!("cannot read {path}: {e}");
                        exit(1);
                    })
                };
                Some((read(d), read(p)))
            }
            (None, None) => None,
            _ => usage("loadgen --domain and --problem must be given together"),
        },
        proxy: flag_value(args, "--proxy").map(str::to_string),
        // The proxy upstream is filled in by loadgen::run with --addr.
        chaos: flag_present(args, "--chaos").then(|| chaos_cfg_from_flags(args, String::new())),
        resilient: flag_present(args, "--retry"),
        hedge: match flag_value(args, "--hedge-ms") {
            Some(ms) => HedgeMode::After(parse_or(Some(ms), 100)),
            None if flag_present(args, "--hedge") => HedgeMode::AutoP99 { floor_ms: 10 },
            None => HedgeMode::Off,
        },
    };
    let report = gaplan_net::loadgen::run(&cfg).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        exit(1);
    });
    println!(
        "loadgen: {} jobs in {:.1}s — {:.0} jobs/s, p50 {}µs p90 {}µs p99 {}µs",
        report.replies,
        report.wall_ms as f64 / 1000.0,
        report.throughput_jobs_per_sec,
        report.latency_us_p50,
        report.latency_us_p90,
        report.latency_us_p99
    );
    if cfg.rate.is_some() {
        println!(
            "loadgen: open loop at {:.0} jobs/s — goodput {} within deadline, rejected {}, expired {}, degraded {}, done p50 {}µs p99 {}µs",
            report.offered_rate_jobs_per_sec,
            report.goodput,
            report.rejected,
            report.expired,
            report.degraded,
            report.done_latency_us_p50,
            report.done_latency_us_p99
        );
    }
    println!(
        "loadgen: lost {}, errors {}, shed {}, coalesced {}, cache hits {}, {} keys, plans_hash {:#018x}{}",
        report.lost,
        report.errors + report.rejected,
        report.shed,
        report.coalesced_jobs,
        report.cache_hits,
        report.distinct_keys,
        report.plans_hash,
        if report.plan_mismatches > 0 {
            format!(" — {} PLAN MISMATCHES", report.plan_mismatches)
        } else {
            String::new()
        }
    );
    if cfg.resilient || cfg.proxy.is_some() || cfg.chaos.is_some() || cfg.hedge != HedgeMode::Off {
        println!(
            "loadgen: retries {}, reconnects {}, hedges {} (won {}), breaker opens {}, duplicates {}",
            report.client_retries,
            report.client_reconnects,
            report.client_hedges,
            report.hedges_won,
            report.breaker_opens,
            report.duplicates
        );
    }
    if cfg.chaos.is_some() {
        println!(
            "chaosproxy: conns {} refused {} resets {} cuts {} delays {} ({} ms) partial {} throttled {}",
            report.proxy_conns,
            report.proxy_refused,
            report.proxy_resets,
            report.proxy_cuts,
            report.proxy_delays,
            report.proxy_delay_ms,
            report.proxy_partial_writes,
            report.proxy_throttle_sleeps
        );
    }
    let out = flag_value(args, "--out").unwrap_or("BENCH_service.json");
    if let Err(e) = gaplan_net::loadgen::write_report(std::path::Path::new(out), &report) {
        eprintln!("loadgen: cannot write {out}: {e}");
        exit(1);
    }
    println!("loadgen: report written to {out}");
    if report.lost > 0 || report.plan_mismatches > 0 || report.duplicates > 0 {
        exit(2);
    }
}

/// Build a [`ChaosConfig`] from the shared `--chaos-*` flags.
fn chaos_cfg_from_flags(args: &[String], upstream: String) -> ChaosConfig {
    ChaosConfig {
        upstream,
        seed: parse_or(flag_value(args, "--chaos-seed"), 42),
        refuse_rate: parse_or(flag_value(args, "--chaos-refuse"), 0.0),
        reset_rate: parse_or(flag_value(args, "--chaos-resets"), 0.0),
        cut_rate: parse_or(flag_value(args, "--chaos-cuts"), 0.0),
        latency_ms: parse_or(flag_value(args, "--chaos-latency-ms"), 0),
        jitter_ms: parse_or(flag_value(args, "--chaos-jitter-ms"), 0),
        partial_rate: parse_or(flag_value(args, "--chaos-partial"), 0.0),
        throttle_bytes_per_sec: flag_value(args, "--chaos-throttle").and_then(|v| v.parse().ok()),
    }
}

/// Standalone fault-injecting proxy: forwards `--listen` to `--upstream`
/// with the configured toxics until killed, printing its stats line every
/// 10 seconds on stderr.
fn chaosproxy_cmd(args: &[String]) {
    let Some(upstream) = flag_value(args, "--upstream") else { usage("chaosproxy needs --upstream HOST:PORT") };
    let listen = flag_value(args, "--listen").unwrap_or("127.0.0.1:0");
    let cfg = chaos_cfg_from_flags(args, upstream.to_string());
    let proxy = ChaosProxy::start(listen, cfg).unwrap_or_else(|e| {
        eprintln!("chaosproxy: cannot listen on {listen}: {e}");
        exit(1);
    });
    eprintln!("gaplan: chaosproxy listening on {} -> {}", proxy.local_addr(), upstream);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        eprintln!("{}", proxy.stats_line());
    }
}

fn hanoi_cmd(args: &[String]) {
    // Disk count: positional (`gaplan hanoi 5`) or `--disks 5`.
    let positional = args.first().filter(|a| !a.starts_with("--")).map(String::as_str);
    let n: usize = parse_or(flag_value(args, "--disks").or(positional), 5);
    let hanoi = Hanoi::new(n);
    let mut cfg = ga_config_from_flags(args, hanoi.optimal_len());
    if flag_present(args, "--single") {
        cfg = cfg.single_phase();
    } else {
        cfg = cfg.multi_phase();
    }
    let _trace = install_trace(args);
    let started = Instant::now();
    let sig = {
        let mut s = SigBuilder::new();
        s.tag("hanoi-v1").usize(n);
        s.finish()
    };
    let r = run_with_checkpoint(&hanoi, cfg, sig, args);
    println!(
        "hanoi {n}: solved={} goal-fitness={:.3} generations={} plan-length={} (optimal {}) in {:.2}s",
        r.solved,
        r.goal_fitness,
        r.generations_to_solution,
        r.plan.len(),
        hanoi.optimal_len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", hanoi.render(&r.final_state));
}

fn tile_cmd(args: &[String]) {
    let n: usize = parse_or(args.first().map(String::as_str), 3);
    let seed: u64 = parse_or(flag_value(args, "--seed"), 2003);
    let crossover = match flag_value(args, "--crossover").unwrap_or("mixed") {
        "random" => CrossoverKind::Random,
        "state-aware" => CrossoverKind::StateAware,
        "mixed" => CrossoverKind::Mixed,
        other => usage(&format!("unknown crossover `{other}`")),
    };
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let puzzle = SlidingTile::random_solvable(n, &mut rng);
    println!("instance:\n{}", puzzle.render(&puzzle.initial_state()));
    let initial_len = ((n * n) as f64 * ((n * n) as f64).log2()).ceil() as usize;
    let mut cfg = ga_config_from_flags(args, initial_len);
    cfg.crossover = crossover;
    let _trace = install_trace(args);
    let started = Instant::now();
    let sig = {
        let mut s = SigBuilder::new();
        s.tag("tile-v1").usize(n).u64(seed);
        s.finish()
    };
    let r = run_with_checkpoint(&puzzle, cfg, sig, args);
    println!(
        "tile {n}x{n} ({}): solved={} goal-fitness={:.3} plan-length={} in {:.2}s",
        crossover.name(),
        r.solved,
        r.goal_fitness,
        r.plan.len(),
        started.elapsed().as_secs_f64()
    );
    println!("final state:\n{}", puzzle.render(&r.final_state));
}

fn trace_report_cmd(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else { usage("trace-report needs a file") };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let top_k = parse_or(flag_value(args, "--top"), 5);
    print!("{}", ga_grid_planner::trace_report::render(&text, top_k));
}
