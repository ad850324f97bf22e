//! `gaplan` — command-line planner over the workspace's engines.
//!
//! ```text
//! gaplan strips <file> [--planner ga|bfs|graphplan|forward|backward|hsp2]
//!                      [GA flags]
//! gaplan solve  --domain FILE --problem FILE [--planner ...] [GA flags]
//! gaplan check  --domain FILE [--problem FILE] [--print]
//! gaplan grid   <file> [--planner ga|greedy] [--simulate]
//!                      [--overload SITE:TIME:LOAD] [--faults SEED]
//!                      [--fault-rate F] [GA flags]
//! gaplan hanoi  [<disks> | --disks N] [--single] [GA flags]
//! gaplan tile   [<side>] [--crossover random|state-aware|mixed] [GA flags]
//! gaplan serve  [--workers N] [--queue N] [--cache N]
//!               [--admission-ms N] [--journal DIR]
//!               [--listen HOST:PORT] [--max-frame BYTES] [--no-coalesce]
//!               [--backlog N] [--idle-ms N] [--target-ms N] [--brownout F]
//! gaplan loadgen --addr HOST:PORT [--jobs N] [--conns N] [--inflight N]
//!               [--keys N] [--skew F] [--deadline-ms N] [--seed N]
//!               [--rate R] [--burst B] [--shutdown-after] [--out FILE]
//!               [--domain FILE --problem FILE] [--hedge | --hedge-ms N]
//!               [--proxy HOST:PORT | --chaos [chaos flags]]
//! gaplan chaosproxy --upstream HOST:PORT [--listen HOST:PORT] [chaos flags]
//! gaplan trace-report <file> [--top K]
//!
//! GA flags: [--seed N] [--pop N] [--gens N] [--phases N]
//!           [--islands K [--migrate-every M] [--emigrants E]]
//!           [--checkpoint FILE [--checkpoint-gens N]]
//!           [--no-succ-cache] [--succ-cache N] [--trace FILE]
//! ```
//!
//! The planning commands share the service's problem model
//! (`gaplan-problem`): `hanoi` and `tile` build a `ProblemSpec` (with its
//! range checks), `strips`, `solve` and `grid` wrap what they parse in a
//! `BuiltProblem`, and every GA run starts from
//! `BuiltProblem::default_config`. `--pop/--gens/--phases/--seed`
//! are the wire request's `ga` overrides, resolved by the same size-checked
//! `GaOverrides::resolve` (after `--single`/`--crossover`), so a run the
//! service would refuse is refused here too. Checkpoints are keyed by
//! `BuiltProblem::signature`. GA flags are read under every `--planner`.
//!
//! `serve` without `--listen` speaks JSON lines on stdin/stdout; with
//! `--listen` it serves the same protocol over TCP (thread per connection,
//! singleflight coalescing of identical in-flight requests unless
//! `--no-coalesce`). `loadgen` drives a TCP server with skewed-key traffic,
//! one resilient client (reconnect, idempotent retry, optional hedging)
//! per connection, and writes throughput/latency results, with the nested
//! client and chaos-proxy counters, to `--out` (default
//! `BENCH_service.json`).
//!
//! Overload control (see DESIGN.md §12): `--target-ms N` enables the
//! CoDel-style controlled-delay queue (head shedding when sojourn stays
//! above N ms for a 100 ms interval) *and* deadline-aware admission;
//! `--brownout F` (0 < F < 1) enables anytime GA brownout with budget floor
//! F — once the queue-wait average reaches 2N ms (50 ms without a target)
//! jobs run a scaled-down GA and replies carry `"degraded":true`, until it
//! falls below N/2 ms (12 ms). Every other threshold derives from these
//! two flags. Unparsable flag values are usage errors.
//! `--idle-ms N` reaps TCP connections idle longer than N ms (slowloris
//! defense; 0 disables). `loadgen --rate R` switches from closed-loop to
//! open-loop (paced arrivals at R jobs/s overall, bursts of B, each job
//! timed from its scheduled arrival), reporting goodput within deadline
//! and shed/rejected/degraded/expired counts; it combines with `--proxy`,
//! `--chaos` and hedging. Every command refuses any argument no flag lookup
//! read (unknown, repeated or stray) with a usage error, before it opens a
//! file, trace, checkpoint or socket.
//!
//! Of the other GA flags, `--trace FILE` writes a JSON-lines event trace
//! (see `gaplan-obs`) that `gaplan trace-report` analyzes; `--islands K`
//! splits the population into K seeded islands with ring migration of the
//! top E every M generations (`--islands 1`, the default, is byte-identical
//! to the pre-island engine; DESIGN.md §13); `--checkpoint FILE` snapshots
//! the run after every phase (and every N generations when N > 0), resumes
//! from an existing FILE bitwise-identically and deletes FILE on completion.
//! `serve --journal DIR` write-ahead journals every accepted job and reply
//! under DIR, so a killed service replays unfinished work on restart.
//!
//! `solve` compiles a typed-DSL domain/problem pair (see `gaplan-lang` and
//! DESIGN.md §14) into ground STRIPS and plans it with the same planners and
//! flags as `strips`; `check` stops after parse/typecheck/grounding and
//! reports diagnostics (exit 0 clean, 1 with errors). Example domains live
//! in `examples/domains/` with problems in `data/`.
//!
//! STRIPS files use the `gaplan-core` text format; grid files use the
//! `gaplan-grid` format (see `data/` for samples).

use std::cell::Cell;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use ga_grid_planner::baselines::{
    backward_chain, bfs, forward_chain, graphplan, greedy_best_first, HAdd, SearchLimits,
};
use ga_grid_planner::durable::{load_snapshot, save_snapshot, FsStorage, Storage};
use ga_grid_planner::ga::{CrossoverKind, GaConfig, MultiPhase, MultiPhaseCheckpoint, MultiPhaseResult};
use ga_grid_planner::grid::{
    chaos_schedule, greedy_plan, parse_grid, ActivityGraph, Coordinator, ExternalEvent, FaultPlan, ReplanPolicy,
};
use ga_grid_planner::lang;
use ga_grid_planner::net::{
    self as gaplan_net, ChaosConfig, ChaosProxy, HedgeMode, LoadgenConfig, NetOptions, TcpServer,
};
use ga_grid_planner::obs;
use ga_grid_planner::problem::{BuiltProblem, GaOverrides, ProblemSpec, DEFAULT_SEED};
use ga_grid_planner::service::{
    serve_with_journal, JobJournal, Metric, ObsHandle, OverloadConfig, PlanService, ServiceConfig, ServiceReplanner,
};
use gaplan_core::strips::StripsProblem;
use gaplan_core::{Domain, Plan};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else { usage("no command") };
    let args = &Args::new(rest);
    match cmd.as_str() {
        "strips" => strips_cmd(args),
        "solve" => solve_cmd(args),
        "check" => check_cmd(args),
        "grid" => grid_cmd(args),
        "hanoi" => hanoi_cmd(args),
        "tile" => tile_cmd(args),
        "serve" => serve_cmd(args),
        "loadgen" => loadgen_cmd(args),
        "chaosproxy" => chaosproxy_cmd(args),
        "trace-report" => trace_report_cmd(args),
        other => usage(&format!("unknown command `{other}`")),
    }
}

/// Open the trace sink at `path` (the `--trace FILE` value), if given, as
/// a service-shareable handle. The file is created eagerly so a bad path
/// fails before planning.
fn open_trace(path: Option<&str>) -> Option<ObsHandle> {
    let path = path?;
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create trace file {path}: {e}");
        exit(1);
    });
    Some(ObsHandle::new(Arc::new(obs::JsonlSink::new(std::io::BufWriter::new(file)))))
}

/// The contents of `path`; an unreadable file exits 1.
fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    })
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage:\n  gaplan strips <file> [--planner ga|bfs|graphplan|forward|backward|hsp2] [GA flags]\n  gaplan solve --domain FILE --problem FILE [--planner ...] [GA flags]    (typed DSL → ground STRIPS → plan)\n  gaplan check --domain FILE [--problem FILE] [--print]    (parse/typecheck/ground only; exit 1 on errors)\n  gaplan grid <file> [--planner ga|greedy] [--simulate] [--overload SITE:TIME:LOAD] [--faults SEED] [--fault-rate F] [GA flags]\n  gaplan hanoi [<disks> | --disks N] [--single] [GA flags]\n  gaplan tile [<side>] [--crossover random|state-aware|mixed] [GA flags]\n  gaplan serve [--workers N] [--queue N] [--cache N] [--admission-ms N] [--journal DIR]    (JSON lines on stdin/stdout)\n               [--listen HOST:PORT] [--max-frame BYTES] [--no-coalesce] [--backlog N] [--idle-ms N]    (same protocol over TCP)\n               [--target-ms N] [--brownout F]    (overload control: CoDel + deadline admission at N ms, GA brownout floor F)\n  gaplan loadgen --addr HOST:PORT [--jobs N] [--conns N] [--inflight N] [--keys N] [--skew F] [--deadline-ms N] [--seed N] [--rate R] [--burst B] [--shutdown-after] [--out FILE] [--domain FILE --problem FILE]\n                 [--hedge | --hedge-ms N] [--proxy HOST:PORT | --chaos [chaos flags]]    (hedging / fault injection; combine with either loop)\n  gaplan chaosproxy --upstream HOST:PORT [--listen HOST:PORT] [chaos flags]    (standalone fault-injecting proxy)\n    chaos flags: [--chaos-seed N] [--chaos-resets F] [--chaos-cuts F] [--chaos-refuse F] [--chaos-latency-ms N] [--chaos-jitter-ms N] [--chaos-partial F] [--chaos-throttle BYTES_PER_SEC]\n  gaplan trace-report <file> [--top K]\nGA flags, accepted by every GA command (also under a baseline --planner):\n  [--seed N] [--pop N] [--gens N] [--phases N]    (the service's `ga` overrides on the problem's defaults, with its size limits)\n  [--islands K [--migrate-every M] [--emigrants E]]    (island-model GA with deterministic ring migration)\n  [--checkpoint FILE [--checkpoint-gens N]]    (crash-safe snapshot/resume)\n  [--no-succ-cache] [--succ-cache N]    (disable the successor cache, or set its capacity in entries; identical plans)\n  [--trace FILE]    (JSON-lines event trace)\nevery command refuses an unknown, repeated or stray argument"
    );
    exit(2);
}

/// A command's arguments (after the command name). The flag lookups below
/// record which arguments they read, so a command can refuse the rest with
/// [`Args::refuse_unread`].
struct Args<'a> {
    args: &'a [String],
    read: Vec<Cell<bool>>,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args { args, read: vec![Cell::new(false); args.len()] }
    }

    /// Mark `name` (and, for a value flag, its value) read; its index.
    fn find(&self, name: &str, takes_value: bool) -> Option<usize> {
        let i = self.args.iter().position(|a| a == name)?;
        self.read[i].set(true);
        if takes_value {
            self.read.get(i + 1).unwrap_or_else(|| usage(&format!("{name} needs a value"))).set(true);
        }
        Some(i)
    }

    /// The leading positional argument (`gaplan hanoi 5`), when the first
    /// argument is not a flag; marks it read.
    fn positional(&self) -> Option<&'a str> {
        let first = self.args.first().filter(|a| !a.starts_with("--"))?;
        self.read[0].set(true);
        Some(first)
    }

    /// Refuse any argument no flag lookup has read, so a mistyped, retired
    /// or repeated flag never silently runs something else. Call it once
    /// every flag is read and before anything is opened or connected.
    fn refuse_unread(&self, cmd: &str) {
        let Some(i) = self.read.iter().position(|r| !r.get()) else { return };
        let arg = &self.args[i];
        if self.args[..i].contains(arg) {
            usage(&format!("{cmd} flag `{arg}` given twice"));
        }
        if arg.starts_with("--") {
            usage(&format!("unknown {cmd} flag `{arg}`"));
        }
        usage(&format!("unexpected {cmd} argument `{arg}`"));
    }
}

/// The argument after flag `name`, if the flag is given; a flag given as
/// the last argument, without its value, is a usage error.
fn flag_value<'a>(args: &Args<'a>, name: &str) -> Option<&'a str> {
    args.find(name, true).map(|i| args.args[i + 1].as_str())
}

fn flag_present(args: &Args, name: &str) -> bool {
    args.find(name, false).is_some()
}

/// Parse `v`, the value given for `what`; an unparsable value is a usage
/// error, never a silent default.
fn parse_arg<T: std::str::FromStr>(what: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| usage(&format!("invalid value `{v}` for {what}")))
}

/// The parsed value of flag `name`, or `default` when the flag is absent.
fn flag_or<T: std::str::FromStr>(args: &Args, name: &str, default: T) -> T {
    flag_opt(args, name).unwrap_or(default)
}

/// The parsed value of flag `name`, if given.
fn flag_opt<T: std::str::FromStr>(args: &Args, name: &str) -> Option<T> {
    flag_value(args, name).map(|v| parse_arg(name, v))
}

/// The GA flags, which every GA command reads (also under a baseline
/// `--planner`) before [`Args::refuse_unread`].
struct GaFlags<'a> {
    /// `--pop/--gens/--phases/--seed`: a service request's `ga` overrides.
    overrides: GaOverrides,
    islands: Option<u32>,
    migration_interval: Option<u32>,
    emigrants: Option<usize>,
    no_succ_cache: bool,
    succ_cache_capacity: Option<usize>,
    checkpoint: Option<&'a str>,
    checkpoint_gens: u32,
    trace: Option<&'a str>,
}

impl<'a> GaFlags<'a> {
    fn read(args: &Args<'a>) -> Self {
        GaFlags {
            overrides: GaOverrides {
                population: flag_opt(args, "--pop"),
                generations: flag_opt(args, "--gens"),
                phases: flag_opt(args, "--phases"),
                seed: flag_opt(args, "--seed"),
                ..GaOverrides::default()
            },
            islands: flag_opt(args, "--islands"),
            migration_interval: flag_opt(args, "--migrate-every"),
            emigrants: flag_opt(args, "--emigrants"),
            no_succ_cache: flag_present(args, "--no-succ-cache"),
            succ_cache_capacity: flag_opt(args, "--succ-cache"),
            checkpoint: flag_value(args, "--checkpoint"),
            checkpoint_gens: flag_or(args, "--checkpoint-gens", 0),
            trace: flag_value(args, "--trace"),
        }
    }

    /// The run's config: the overrides on `defaults` through the service's
    /// size-checked [`GaOverrides::resolve`], then the island and
    /// successor-cache knobs (`--islands 1`, the default, is byte-identical
    /// to a run without island flags). A refused config is a usage error.
    fn config(&self, defaults: GaConfig) -> GaConfig {
        let mut cfg = self.overrides.resolve(defaults).unwrap_or_else(|e| usage(&e));
        cfg.succ_cache &= !self.no_succ_cache;
        cfg.succ_cache_capacity = self.succ_cache_capacity.unwrap_or(cfg.succ_cache_capacity);
        cfg.islands = self.islands.unwrap_or(cfg.islands);
        cfg.migration_interval = self.migration_interval.unwrap_or(cfg.migration_interval);
        cfg.emigrants = self.emigrants.unwrap_or(cfg.emigrants);
        if let Err(e) = cfg.validate() {
            usage(&format!("invalid GA configuration: {e}"));
        }
        cfg
    }

    /// Install the `--trace FILE` sink on this thread for the duration of
    /// the returned guard (none when the flag is absent).
    fn install_trace(&self) -> Option<obs::InstallGuard> {
        open_trace(self.trace).map(|h| h.install())
    }

    /// Run the multi-phase GA for `domain`, the domain of `built`, honoring
    /// `--checkpoint FILE` and `--checkpoint-gens N`: after every phase
    /// (and, with `N > 0`, every `N` generations inside a phase) the run's
    /// full state is written atomically to FILE, keyed by
    /// [`BuiltProblem::signature`]. An existing FILE resumes the run —
    /// bitwise-identically to an uninterrupted one — and a completed run
    /// deletes it.
    fn run<D: Domain>(&self, domain: &D, built: &BuiltProblem, cfg: GaConfig) -> MultiPhaseResult<D::State> {
        let Some(path) = self.checkpoint else {
            return MultiPhase::new(domain, cfg).run();
        };
        let path = std::path::Path::new(path);
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(std::path::Path::new("."));
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            usage("--checkpoint needs a file path");
        };
        let storage: Arc<dyn Storage> = Arc::new(FsStorage::new(dir).unwrap_or_else(|e| {
            eprintln!("cannot open checkpoint directory {}: {e}", dir.display());
            exit(1);
        }));
        let resume = match load_snapshot(&storage, &name) {
            Ok(None) => None,
            Ok(Some(bytes)) => {
                let cp =
                    std::str::from_utf8(&bytes).ok().and_then(|s| serde_json::from_str::<MultiPhaseCheckpoint>(s).ok());
                match &cp {
                    Some(cp) => eprintln!("resuming from checkpoint {} (phase {})", path.display(), cp.next_phase),
                    None => eprintln!("warning: checkpoint {} is unreadable; starting fresh", path.display()),
                }
                cp
            }
            Err(e) => {
                eprintln!("warning: checkpoint {} is corrupt ({e}); starting fresh", path.display());
                None
            }
        };
        let mut sink = |cp: &MultiPhaseCheckpoint| match serde_json::to_string(cp) {
            Ok(json) => {
                if let Err(e) = save_snapshot(&storage, &name, json.as_bytes()) {
                    eprintln!("warning: checkpoint write failed: {e}");
                }
            }
            Err(e) => eprintln!("warning: checkpoint serialize failed: {e}"),
        };
        let result = MultiPhase::new(domain, cfg).with_problem_sig(built.signature()).run_checkpointed(
            resume.as_ref(),
            self.checkpoint_gens,
            &mut sink,
        );
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
}

fn report_plan<D: Domain>(domain: &D, plan: &Plan, elapsed: f64, extra: &str) {
    let out = plan.simulate(domain, &domain.initial_state()).expect("planner produced an invalid plan");
    println!("plan: {} ops, cost {:.1}, reaches goal: {} ({:.3}s){extra}", plan.len(), out.cost, out.solves, elapsed);
    print!("{}", plan.display(domain));
}

/// Plan `built`, a STRIPS or DSL problem, with `planner` (a baseline or
/// the GA under `ga`'s flags), printing the plan. Shared by `strips`
/// (legacy text format) and `solve` (DSL).
fn plan_strips(built: &BuiltProblem, planner: &str, ga: &GaFlags) {
    let problem: &StripsProblem = match built {
        BuiltProblem::Strips(p) => p,
        BuiltProblem::Dsl(p) => p,
        _ => unreachable!("plan_strips plans STRIPS problems"),
    };
    let cfg = (planner == "ga").then(|| ga.config(built.default_config()));
    let _trace = ga.install_trace();
    let started = Instant::now();
    if let Some(cfg) = cfg {
        let r = ga.run(problem, built, cfg);
        println!(
            "GA: solved={} goal-fitness={:.3} generations={}",
            r.solved, r.goal_fitness, r.generations_to_solution
        );
        report_plan(problem, &r.plan, started.elapsed().as_secs_f64(), "");
        return;
    }
    let limits = SearchLimits::default();
    let result = match planner {
        "bfs" => bfs(problem, limits),
        "graphplan" => graphplan(problem, limits),
        "forward" => forward_chain(problem, limits),
        "backward" => backward_chain(problem, limits),
        "hsp2" => greedy_best_first(problem, &HAdd, limits),
        other => usage(&format!("unknown planner `{other}`")),
    };
    match result.plan {
        Some(plan) => report_plan(
            problem,
            &plan,
            started.elapsed().as_secs_f64(),
            &format!(", {} nodes expanded", result.expanded),
        ),
        None => {
            println!("{planner}: no plan found ({:?}, {} expanded)", result.outcome, result.expanded);
            exit(1);
        }
    }
}

fn strips_cmd(args: &Args) {
    let Some(path) = args.positional() else { usage("strips needs a file") };
    let (planner, ga) = (flag_value(args, "--planner").unwrap_or("ga"), GaFlags::read(args));
    args.refuse_unread("strips");
    let text = read_file(path);
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
    plan_strips(&BuiltProblem::Strips(Box::new(problem)), planner, &ga);
}

fn solve_cmd(args: &Args) {
    let Some(dpath) = flag_value(args, "--domain") else { usage("needs --domain FILE") };
    let Some(ppath) = flag_value(args, "--problem") else { usage("needs --problem FILE") };
    let (planner, ga) = (flag_value(args, "--planner").unwrap_or("ga"), GaFlags::read(args));
    args.refuse_unread("solve");
    let (dsrc, psrc) = (read_file(dpath), read_file(ppath));
    let compiled = match lang::compile(&dsrc, &psrc) {
        Ok(c) => c,
        Err(e) => {
            eprint!("{}", e.render(dpath, &dsrc, ppath, &psrc));
            exit(1);
        }
    };
    // Warnings (e.g. unreachable goals) still plan, but the user should
    // know the GA may be chasing an unsatisfiable goal.
    eprint!("{}", lang::render_diagnostics(&compiled.warnings, dpath, &dsrc, ppath, &psrc));
    let s = &compiled.stats;
    println!(
        "{ppath}: {} objects, {} conditions, {} ground operators ({} bindings enumerated, {} pruned)",
        s.objects, s.conditions, s.ops, s.candidates, s.pruned
    );
    plan_strips(&BuiltProblem::Dsl(Arc::new(compiled.strips)), planner, &ga);
}

fn check_cmd(args: &Args) {
    let Some(dpath) = flag_value(args, "--domain") else { usage("needs --domain FILE") };
    // `--print` is read (and so accepted) with `--problem` too.
    let (ppath, print) = (flag_value(args, "--problem"), flag_present(args, "--print"));
    args.refuse_unread("check");
    let dsrc = read_file(dpath);
    match ppath {
        // Full pipeline: parse both, typecheck, ground.
        Some(ppath) => {
            let psrc = read_file(ppath);
            match lang::compile(&dsrc, &psrc) {
                Ok(c) => {
                    eprint!("{}", lang::render_diagnostics(&c.warnings, dpath, &dsrc, ppath, &psrc));
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
                    eprint!("{}", e.render(dpath, &dsrc, ppath, &psrc));
                    exit(1);
                }
            }
        }
        // Domain only: parse + typecheck, no grounding possible.
        None => {
            let ast = lang::parse_domain(&dsrc).unwrap_or_else(|d| {
                eprint!("{}", d.render(dpath, &dsrc));
                exit(1);
            });
            let mut diags = Vec::new();
            let checked = lang::check::check_domain(&ast, &mut diags);
            for d in &diags {
                eprint!("{}", d.render(dpath, &dsrc));
            }
            let Some(dom) = checked else { exit(1) };
            if print {
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

fn grid_cmd(args: &Args) {
    let Some(path) = args.positional() else { usage("grid needs a file") };
    let (planner, ga) = (flag_value(args, "--planner").unwrap_or("ga"), GaFlags::read(args));
    // The simulator flags are read (and so accepted) without --simulate.
    let (simulate, overload) = (flag_present(args, "--simulate"), flag_value(args, "--overload"));
    let (faults, fault_rate) = (flag_opt::<u64>(args, "--faults"), flag_or(args, "--fault-rate", 0.05));
    args.refuse_unread("grid");
    let world = parse_grid(&read_file(path)).unwrap_or_else(|e| {
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
    let built = BuiltProblem::Grid(Box::new(world));
    let BuiltProblem::Grid(world) = &built else { unreachable!() };
    // Resolved under every planner: the simulator's replans take its seed
    // and successor-cache knobs.
    let cfg = ga.config(built.default_config());
    // Planning and the simulator timeline trace on this thread. Service
    // replan workers deliberately stay untraced: their wall-clock scheduling
    // would interleave nondeterministically with the sim-time timeline.
    let _trace = ga.install_trace();
    let started = Instant::now();
    let plan = match planner {
        "ga" => ga.run(world.as_ref(), &built, cfg.clone()).plan,
        "greedy" => greedy_plan(world, 8).unwrap_or_default(),
        other => usage(&format!("unknown planner `{other}`")),
    };
    report_plan(world.as_ref(), &plan, started.elapsed().as_secs_f64(), "");

    let graph = ActivityGraph::from_plan(world.as_ref(), &world.initial_state(), &plan);
    println!(
        "activity graph: {} nodes, width {}, critical path {:.1}s",
        graph.len(),
        graph.width(),
        graph.critical_path()
    );

    if simulate {
        let mut coord = Coordinator::new(world);
        if let Some(spec) = overload {
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
                    time: parse_arg("--overload TIME", parts[1]),
                    site: ga_grid_planner::grid::SiteId(site as u32),
                    load: parse_arg("--overload LOAD", parts[2]),
                })
                .policy(ReplanPolicy::OnLoadChange);
        }
        if let Some(fseed) = faults {
            let horizon = (graph.critical_path() * 2.0).max(10.0);
            let events = chaos_schedule(world, fseed, horizon);
            println!("fault schedule (seed {fseed}, rate {fault_rate}):");
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
            coord.fault_plan(FaultPlan::new(fseed, fault_rate)).policy(ReplanPolicy::OnAnyChange);
        }
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
        // A smaller, goal-truncating replan budget with the run's cost
        // fitness, seed stream and successor-cache knobs.
        let replan_cfg = GaConfig {
            population_size: 100,
            generations_per_phase: 60,
            max_phases: 3,
            initial_len: 10,
            max_len: 24,
            cost_fitness: cfg.cost_fitness,
            seed: cfg.seed ^ 0xD1CE,
            truncate_at_goal: true,
            succ_cache: cfg.succ_cache,
            succ_cache_capacity: cfg.succ_cache_capacity,
            ..GaConfig::default()
        };
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

fn serve_cmd(args: &Args) {
    let brownout: f64 = flag_or(args, "--brownout", 1.0);
    if !(0.0..=1.0).contains(&brownout) {
        usage("--brownout F must be in [0, 1] (0 or 1 disables brownout)");
    }
    let mut cfg = ServiceConfig {
        workers: flag_or(args, "--workers", 2),
        queue_capacity: flag_or(args, "--queue", 64),
        cache_capacity: flag_or(args, "--cache", 128),
        admission_timeout: std::time::Duration::from_millis(flag_or(args, "--admission-ms", 0)),
        overload: OverloadConfig { codel_target_ms: flag_or(args, "--target-ms", 0), brownout_floor: brownout },
        obs: None,
    };
    let idle_ms: u64 = flag_or(args, "--idle-ms", 300_000);
    let opts = NetOptions {
        max_frame: flag_or(args, "--max-frame", gaplan_net::DEFAULT_MAX_FRAME),
        coalesce: !flag_present(args, "--no-coalesce"),
        backlog_limit: flag_or(args, "--backlog", 1024),
        idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
    };
    let (trace, journal_dir, listen) =
        (flag_value(args, "--trace"), flag_value(args, "--journal"), flag_value(args, "--listen"));
    args.refuse_unread("serve");
    cfg.obs = open_trace(trace);
    let journal = journal_dir.map(|dir| {
        let storage: Arc<dyn Storage> = Arc::new(FsStorage::new(dir).unwrap_or_else(|e| {
            eprintln!("cannot open journal directory {dir}: {e}");
            exit(1);
        }));
        JobJournal::new(storage)
    });
    if let Some(addr) = listen {
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

fn loadgen_cmd(args: &Args) {
    let Some(addr) = flag_value(args, "--addr") else { usage("loadgen needs --addr HOST:PORT") };
    // Read (and so accepted) even without --chaos; the proxy upstream is
    // filled in by loadgen::run with --addr.
    let chaos = chaos_cfg_from_flags(args, String::new());
    let cfg = LoadgenConfig {
        addr: addr.to_string(),
        jobs: flag_or(args, "--jobs", 100_000),
        conns: flag_or(args, "--conns", 8),
        inflight: flag_or(args, "--inflight", 32),
        key_space: flag_or(args, "--keys", 64),
        skew: flag_or(args, "--skew", 0.5),
        deadline_ms: flag_opt(args, "--deadline-ms"),
        seed: flag_or(args, "--seed", 42),
        rate: flag_opt::<f64>(args, "--rate").filter(|r| *r > 0.0),
        burst: flag_or(args, "--burst", 1),
        shutdown_after: flag_present(args, "--shutdown-after"),
        dsl: match (flag_value(args, "--domain"), flag_value(args, "--problem")) {
            (Some(d), Some(p)) => Some((read_file(d), read_file(p))),
            (None, None) => None,
            _ => usage("loadgen --domain and --problem must be given together"),
        },
        proxy: flag_value(args, "--proxy").map(str::to_string),
        chaos: flag_present(args, "--chaos").then_some(chaos),
        hedge: match (flag_value(args, "--hedge-ms"), flag_present(args, "--hedge")) {
            (Some(ms), _) => HedgeMode::After(parse_arg("--hedge-ms", ms)),
            (None, true) => HedgeMode::AutoP99 { floor_ms: 10 },
            (None, false) => HedgeMode::Off,
        },
    };
    let out = flag_value(args, "--out").unwrap_or("BENCH_service.json");
    args.refuse_unread("loadgen");
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
    let client = &report.client;
    println!(
        "loadgen: retries {}, reconnects {}, hedges {} (won {}), breaker opens {}, duplicates {}",
        client.retries, client.reconnects, client.hedges, client.hedges_won, client.breaker_opens, report.duplicates
    );
    if cfg.chaos.is_some() {
        println!("{}", report.proxy);
    }
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
fn chaos_cfg_from_flags(args: &Args, upstream: String) -> ChaosConfig {
    ChaosConfig {
        upstream,
        seed: flag_or(args, "--chaos-seed", 42),
        refuse_rate: flag_or(args, "--chaos-refuse", 0.0),
        reset_rate: flag_or(args, "--chaos-resets", 0.0),
        cut_rate: flag_or(args, "--chaos-cuts", 0.0),
        latency_ms: flag_or(args, "--chaos-latency-ms", 0),
        jitter_ms: flag_or(args, "--chaos-jitter-ms", 0),
        partial_rate: flag_or(args, "--chaos-partial", 0.0),
        throttle_bytes_per_sec: flag_opt(args, "--chaos-throttle"),
    }
}

/// Standalone fault-injecting proxy: forwards `--listen` to `--upstream`
/// with the configured toxics until killed, printing its stats line every
/// 10 seconds on stderr.
fn chaosproxy_cmd(args: &Args) {
    let Some(upstream) = flag_value(args, "--upstream") else { usage("chaosproxy needs --upstream HOST:PORT") };
    let listen = flag_value(args, "--listen").unwrap_or("127.0.0.1:0");
    let cfg = chaos_cfg_from_flags(args, upstream.to_string());
    args.refuse_unread("chaosproxy");
    let proxy = ChaosProxy::start(listen, cfg).unwrap_or_else(|e| {
        eprintln!("chaosproxy: cannot listen on {listen}: {e}");
        exit(1);
    });
    eprintln!("gaplan: chaosproxy listening on {} -> {}", proxy.local_addr(), upstream);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        eprintln!("{}", proxy.stats());
    }
}

fn hanoi_cmd(args: &Args) {
    // Disk count: `--disks 5` or positional (`gaplan hanoi 5`).
    let disks = flag_value(args, "--disks").or_else(|| args.positional()).map_or(5, |v| parse_arg("disk count", v));
    let (single, ga) = (flag_present(args, "--single"), GaFlags::read(args));
    args.refuse_unread("hanoi");
    let built = ProblemSpec::Hanoi { disks }.build().unwrap_or_else(|e| usage(&e));
    let BuiltProblem::Hanoi { domain: hanoi, .. } = &built else { unreachable!() };
    let defaults = built.default_config();
    let cfg = ga.config(if single { defaults.single_phase() } else { defaults });
    let _trace = ga.install_trace();
    let started = Instant::now();
    let r = ga.run(hanoi, &built, cfg);
    println!(
        "hanoi {disks}: solved={} goal-fitness={:.3} generations={} plan-length={} (optimal {}) in {:.2}s",
        r.solved,
        r.goal_fitness,
        r.generations_to_solution,
        r.plan.len(),
        hanoi.optimal_len(),
        started.elapsed().as_secs_f64()
    );
    println!("{}", hanoi.render(&r.final_state));
}

fn tile_cmd(args: &Args) {
    let side = args.positional().map_or(3, |v| parse_arg("tile side", v));
    let crossover = flag_value(args, "--crossover").map(|v| match v {
        "random" => CrossoverKind::Random,
        "state-aware" => CrossoverKind::StateAware,
        "mixed" => CrossoverKind::Mixed,
        other => usage(&format!("unknown crossover `{other}`")),
    });
    let ga = GaFlags::read(args);
    args.refuse_unread("tile");
    // `--seed` both shuffles the instance and seeds the GA.
    let spec = ProblemSpec::Tile { side, shuffle_seed: ga.overrides.seed.unwrap_or(DEFAULT_SEED) };
    let built = spec.build().unwrap_or_else(|e| usage(&e));
    let BuiltProblem::Tile { domain: puzzle, .. } = &built else { unreachable!() };
    let mut defaults = built.default_config();
    defaults.crossover = crossover.unwrap_or(defaults.crossover);
    let cfg = ga.config(defaults);
    println!("instance:\n{}", puzzle.render(&puzzle.initial_state()));
    let _trace = ga.install_trace();
    let started = Instant::now();
    let crossover = cfg.crossover;
    let r = ga.run(puzzle, &built, cfg);
    println!(
        "tile {side}x{side} ({}): solved={} goal-fitness={:.3} plan-length={} in {:.2}s",
        crossover.name(),
        r.solved,
        r.goal_fitness,
        r.plan.len(),
        started.elapsed().as_secs_f64()
    );
    println!("final state:\n{}", puzzle.render(&r.final_state));
}

fn trace_report_cmd(args: &Args) {
    let Some(path) = args.positional() else { usage("trace-report needs a file") };
    let top_k = flag_or(args, "--top", 5);
    args.refuse_unread("trace-report");
    print!("{}", ga_grid_planner::trace_report::render(&read_file(path), top_k));
}
