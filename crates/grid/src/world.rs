//! [`GridWorld`]: the workflow *planning domain* over a simulated grid.
//!
//! This is the paper's target application made concrete: "given a set of
//! initial data and a set of desired results, construct an activity graph to
//! produce the results given the initial data" (§1). States are sets of
//! data artifacts (with genealogy and location); ground operations are
//! *run program P at site S* and *transfer data of kind K from S1 to S2*;
//! operation costs combine execution time under load, price, and transfer
//! time — so the GA's cost fitness prefers cheap fast sites, and a change in
//! site load changes which plans are good (the dynamic-replanning story).

use gaplan_core::{Domain, OpId};

use crate::data::{DataItem, TransformRecord};
use crate::ontology::{Ontology, Sym};
use crate::program::{DataRequirement, Program, ProgramId};
use crate::site::{Site, SiteId};

/// A workflow state: the set of data artifacts currently available,
/// canonically sorted (set semantics — data is copied, never consumed).
pub type WorkflowState = Vec<DataItem>;

/// One desired result (paper: "a set of desired results").
#[derive(Debug, Clone)]
pub struct GoalSpec {
    /// What the result must look like.
    pub requirement: DataRequirement,
    /// Where it must reside (None = anywhere).
    pub location: Option<SiteId>,
    /// Weight in the goal fitness (analogue of the paper's per-disk Hanoi
    /// weights).
    pub weight: f64,
}

/// A ground operation of the workflow domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridOp {
    /// Execute a program at a site.
    Run(ProgramId, SiteId),
    /// Copy the best item of a kind from one site to another.
    Transfer(Sym, SiteId, SiteId),
}

/// The grid workflow planning domain. Build via [`GridWorldBuilder`].
#[derive(Debug, Clone)]
pub struct GridWorld {
    ontology: Ontology,
    sites: Vec<Site>,
    programs: Vec<Program>,
    /// Nominal size (GB) per transferable kind, indexed by position in
    /// `transferable_kinds`.
    kind_sizes: Vec<(Sym, f64)>,
    initial: WorkflowState,
    goals: Vec<GoalSpec>,
    /// Enumerated ground operations; `OpId` indexes this list.
    ops: Vec<GridOp>,
    /// Precomputed state-independent cost per ground op (the paper models
    /// cost as an *attribute of the operation*).
    costs: Vec<f64>,
    /// Weight of monetary price relative to seconds in the cost.
    price_weight: f64,
    /// Per-site availability: `true` means the site has failed and can
    /// neither run programs nor take part in transfers. Data already at a
    /// down site persists on disk but is inaccessible until recovery.
    down: Vec<bool>,
}

impl GridWorld {
    /// The ontology.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The programs.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// The goal specifications.
    pub fn goals(&self) -> &[GoalSpec] {
        &self.goals
    }

    /// Decode a ground op id.
    pub fn op(&self, op: OpId) -> GridOp {
        self.ops[op.index()]
    }

    /// Find the ground op id of a [`GridOp`], if enumerated.
    pub fn op_id(&self, op: GridOp) -> Option<OpId> {
        self.ops.iter().position(|&o| o == op).map(OpId::from)
    }

    /// Rebuild this world with site loads replaced by `loads` (one entry
    /// per site). Costs are re-derived — this is the replanning snapshot:
    /// same programs and data, new resource picture.
    pub fn with_loads(&self, loads: &[f64]) -> GridWorld {
        assert_eq!(loads.len(), self.sites.len());
        let mut w = self.clone();
        for (site, &load) in w.sites.iter_mut().zip(loads) {
            assert!((0.0..1.0).contains(&load), "load must be in [0, 1)");
            site.load = load;
        }
        w.costs = compute_costs(&w.ops, &w.sites, &w.programs, &w.kind_sizes, w.price_weight);
        w
    }

    /// Rebuild this world with a different initial state (the replanning
    /// start: everything produced so far).
    pub fn with_initial(&self, state: WorkflowState) -> GridWorld {
        let mut w = self.clone();
        w.initial = canonical(state);
        w
    }

    /// Rebuild this world with site availability replaced by `down` (one
    /// entry per site, `true` = failed). Operations touching a down site
    /// become invalid, so planners running against the snapshot route
    /// around the failure.
    pub fn with_down(&self, down: &[bool]) -> GridWorld {
        assert_eq!(down.len(), self.sites.len());
        let mut w = self.clone();
        w.down = down.to_vec();
        w
    }

    /// Is `site` currently marked failed?
    pub fn site_down(&self, site: SiteId) -> bool {
        self.down[site.index()]
    }

    /// Is `op` executable in `state` under the current resource picture
    /// (including site availability)? Same predicate [`Domain::valid_operations`]
    /// applies to every op; exposed per-op so the coordination service can
    /// re-check a single task after data loss without scanning all ops.
    pub fn op_valid(&self, state: &WorkflowState, op: OpId) -> bool {
        match self.ops[op.index()] {
            GridOp::Run(p, s) => {
                if self.down[s.index()] {
                    return false;
                }
                let prog = &self.programs[p.index()];
                let site = &self.sites[s.index()];
                site.resources.satisfies(&prog.min_resources)
                    && prog
                        .inputs
                        .iter()
                        .all(|req| state.iter().any(|i| i.location == s && req.accepts(&self.ontology, i)))
            }
            GridOp::Transfer(kind, s1, s2) => {
                if self.down[s1.index()] || self.down[s2.index()] {
                    return false;
                }
                match self.best_of_kind_at(state, kind, s1) {
                    // a transfer that would duplicate an existing copy
                    // is invalid (keeps the branching factor honest)
                    Some(item) => !state.iter().any(|i| i.location == s2 && i.same_data(item)),
                    None => false,
                }
            }
        }
    }

    /// Nominal size of a kind in GB (0 if unregistered).
    pub fn kind_size(&self, kind: Sym) -> f64 {
        self.kind_sizes.iter().find(|(k, _)| *k == kind).map_or(0.0, |&(_, s)| s)
    }

    /// Stable 64-bit signature of everything that can change a planning
    /// result on this world: sites (including current loads), ground
    /// operations and their derived costs, the initial state and the
    /// goals. Two snapshots of the same world with different loads or
    /// different initial states (the replanning case) therefore hash
    /// differently, which is what the planning service's cache needs.
    pub fn signature(&self) -> u64 {
        use gaplan_core::sig::SigBuilder;
        let mut s = SigBuilder::new();
        s.tag("grid-world-v1");
        s.tag("sites").usize(self.sites.len());
        for site in &self.sites {
            s.str(&site.name)
                .f64(site.resources.cpu_gflops)
                .f64(site.resources.memory_gb)
                .f64(site.resources.disk_tb)
                .f64(site.resources.net_mbps)
                .f64(site.load)
                .f64(site.cost_per_gflop)
                .usize(site.slots);
        }
        s.tag("ops").usize(self.ops.len());
        for (op, &cost) in self.ops.iter().zip(&self.costs) {
            match *op {
                GridOp::Run(p, site) => s.str("run").u32(p.0).u32(site.0),
                GridOp::Transfer(kind, from, to) => s.str("xfer").u32(kind.0).u32(from.0).u32(to.0),
            };
            s.f64(cost);
        }
        s.tag("init").u64(Domain::state_signature(self, &self.initial));
        s.tag("goals").usize(self.goals.len());
        for g in &self.goals {
            s.u32(g.requirement.kind.0).u32(g.requirement.min_resolution as u32);
            s.usize(g.requirement.formats.len());
            for f in &g.requirement.formats {
                s.u32(f.0);
            }
            s.usize(g.requirement.forbidden_history.len());
            for h in &g.requirement.forbidden_history {
                s.u32(h.0);
            }
            match g.location {
                Some(site) => s.bool(true).u32(site.0),
                None => s.bool(false),
            };
            s.f64(g.weight);
        }
        s.tag("price-weight").f64(self.price_weight);
        s.tag("down");
        for &d in &self.down {
            s.bool(d);
        }
        s.finish()
    }

    /// The best (highest-resolution) item of exactly `kind` at `site`.
    fn best_of_kind_at<'s>(&self, state: &'s WorkflowState, kind: Sym, site: SiteId) -> Option<&'s DataItem> {
        state
            .iter()
            .filter(|i| i.kind == kind && i.location == site)
            .max_by(|a, b| a.resolution.cmp(&b.resolution).then_with(|| b.cmp(a)))
    }

    /// For each input requirement of `p`, the best matching item at `site`.
    fn match_inputs<'s>(&self, state: &'s WorkflowState, p: &Program, site: SiteId) -> Option<Vec<&'s DataItem>> {
        p.inputs
            .iter()
            .map(|req| {
                state
                    .iter()
                    .filter(|i| i.location == site && req.accepts(&self.ontology, i))
                    .max_by(|a, b| a.resolution.cmp(&b.resolution).then_with(|| b.cmp(a)))
            })
            .collect()
    }

    /// The items an operation would consume (read) and produce (write) in
    /// `state`. Used by the activity-graph dataflow analysis. The operation
    /// must be valid in `state`.
    pub fn op_io(&self, state: &WorkflowState, op: OpId) -> (Vec<DataItem>, Vec<DataItem>) {
        match self.ops[op.index()] {
            GridOp::Run(p, s) => {
                let prog = &self.programs[p.index()];
                let inputs: Vec<DataItem> = self
                    .match_inputs(state, prog, s)
                    .expect("op_io() requires a valid operation")
                    .into_iter()
                    .cloned()
                    .collect();
                let next = self.apply(state, op);
                let produced: Vec<DataItem> = next.iter().filter(|i| !state.contains(i)).cloned().collect();
                (inputs, produced)
            }
            GridOp::Transfer(kind, s1, _s2) => {
                let item = self.best_of_kind_at(state, kind, s1).expect("op_io() requires a valid operation").clone();
                let next = self.apply(state, op);
                let produced: Vec<DataItem> = next.iter().filter(|i| !state.contains(i)).cloned().collect();
                (vec![item], produced)
            }
        }
    }

    /// The site an operation executes at (transfers are attributed to the
    /// destination, whose slot the coordination service occupies).
    pub fn op_site(&self, op: OpId) -> SiteId {
        match self.ops[op.index()] {
            GridOp::Run(_, s) => s,
            GridOp::Transfer(_, _, s2) => s2,
        }
    }

    /// Is a goal spec satisfied in `state`?
    fn goal_satisfied(&self, state: &WorkflowState, g: &GoalSpec) -> bool {
        state.iter().any(|i| g.requirement.accepts(&self.ontology, i) && g.location.is_none_or(|loc| i.location == loc))
    }
}

fn canonical(mut state: WorkflowState) -> WorkflowState {
    state.sort();
    state.dedup();
    state
}

fn compute_costs(
    ops: &[GridOp],
    sites: &[Site],
    programs: &[Program],
    kind_sizes: &[(Sym, f64)],
    price_weight: f64,
) -> Vec<f64> {
    ops.iter()
        .map(|op| match *op {
            GridOp::Run(p, s) => {
                let site = &sites[s.index()];
                let prog = &programs[p.index()];
                site.execution_seconds(prog.gflops) + price_weight * site.execution_price(prog.gflops)
            }
            GridOp::Transfer(kind, s1, s2) => {
                let size_gb = kind_sizes.iter().find(|(k, _)| *k == kind).map_or(0.0, |&(_, s)| s);
                let bw = sites[s1.index()].resources.net_mbps.min(sites[s2.index()].resources.net_mbps);
                // GB -> Mbit: x8000; seconds = Mbit / Mbps
                size_gb * 8000.0 / bw
            }
        })
        .collect()
}

impl Domain for GridWorld {
    type State = WorkflowState;

    fn initial_state(&self) -> WorkflowState {
        self.initial.clone()
    }

    fn num_operations(&self) -> usize {
        self.ops.len()
    }

    fn valid_operations(&self, state: &WorkflowState, out: &mut Vec<OpId>) {
        for i in 0..self.ops.len() {
            let op = OpId(i as u32);
            if self.op_valid(state, op) {
                out.push(op);
            }
        }
    }

    fn apply(&self, state: &WorkflowState, op: OpId) -> WorkflowState {
        let mut next = state.clone();
        match self.ops[op.index()] {
            GridOp::Run(p, s) => {
                let prog = &self.programs[p.index()];
                let inputs = self.match_inputs(state, prog, s).expect("apply() requires a valid operation");
                let min_res = inputs.iter().map(|i| i.resolution).min().unwrap_or(0);
                // genealogy: concatenate input histories in input order,
                // then record this program
                let mut history: Vec<TransformRecord> = Vec::new();
                for item in &inputs {
                    for rec in &item.history {
                        if !history.contains(rec) {
                            history.push(*rec);
                        }
                    }
                }
                history.push(TransformRecord { program: prog.name });
                next.push(DataItem {
                    kind: prog.output.kind,
                    format: prog.output.format,
                    resolution: prog.output.output_resolution(min_res),
                    location: s,
                    history,
                });
            }
            GridOp::Transfer(kind, s1, s2) => {
                let item = self.best_of_kind_at(state, kind, s1).expect("apply() requires a valid operation").clone();
                let mut copy = item;
                copy.location = s2;
                next.push(copy);
            }
        }
        canonical(next)
    }

    fn goal_fitness(&self, state: &WorkflowState) -> f64 {
        let total: f64 = self.goals.iter().map(|g| g.weight).sum();
        if total == 0.0 {
            return 1.0;
        }
        let satisfied: f64 = self.goals.iter().filter(|g| self.goal_satisfied(state, g)).map(|g| g.weight).sum();
        // An empty f64 sum is -0.0; normalize so "nothing satisfied"
        // renders as 0 rather than -0.
        satisfied / total + 0.0
    }

    fn op_cost(&self, op: OpId) -> f64 {
        self.costs[op.index()]
    }

    fn op_name(&self, op: OpId) -> String {
        match self.ops[op.index()] {
            GridOp::Run(p, s) => {
                format!("run {} @ {}", self.ontology.name(self.programs[p.index()].name), self.sites[s.index()].name)
            }
            GridOp::Transfer(kind, s1, s2) => format!(
                "xfer {} {} -> {}",
                self.ontology.name(kind),
                self.sites[s1.index()].name,
                self.sites[s2.index()].name
            ),
        }
    }
}

/// Builder for [`GridWorld`].
#[derive(Debug, Default)]
pub struct GridWorldBuilder {
    ontology: Ontology,
    sites: Vec<Site>,
    programs: Vec<Program>,
    kind_sizes: Vec<(Sym, f64)>,
    initial: WorkflowState,
    goals: Vec<GoalSpec>,
    price_weight: f64,
}

impl GridWorldBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        GridWorldBuilder { price_weight: 1.0, ..Default::default() }
    }

    /// Mutable access to the ontology for interning concepts.
    pub fn ontology_mut(&mut self) -> &mut Ontology {
        &mut self.ontology
    }

    /// Register a site; returns its id.
    pub fn site(&mut self, site: Site) -> SiteId {
        assert!(site.resources.validate().is_ok(), "invalid site resources");
        let id = SiteId(self.sites.len() as u32);
        self.sites.push(site);
        id
    }

    /// Register a transferable data kind with its nominal size in GB.
    pub fn kind(&mut self, name: &str, size_gb: f64) -> Sym {
        assert!(size_gb >= 0.0 && size_gb.is_finite());
        let sym = self.ontology.intern(name);
        if !self.kind_sizes.iter().any(|(k, _)| *k == sym) {
            self.kind_sizes.push((sym, size_gb));
        }
        sym
    }

    /// Register a program; returns its id.
    pub fn program(&mut self, program: Program) -> ProgramId {
        assert!(!program.inputs.is_empty(), "programs must consume at least one input");
        assert!(!program.installed_at.is_empty(), "program installed nowhere");
        for site in &program.installed_at {
            assert!(site.index() < self.sites.len(), "program installed at unknown site");
        }
        let id = ProgramId(self.programs.len() as u32);
        self.programs.push(program);
        id
    }

    /// Add an initial data item.
    pub fn item(&mut self, item: DataItem) {
        assert!(item.location.index() < self.sites.len(), "item at unknown site");
        self.initial.push(item);
    }

    /// Add a goal specification.
    pub fn goal(&mut self, goal: GoalSpec) {
        assert!(goal.weight > 0.0 && goal.weight.is_finite());
        self.goals.push(goal);
    }

    /// Set the weight of price relative to time in operation costs.
    pub fn price_weight(&mut self, w: f64) {
        assert!(w >= 0.0 && w.is_finite());
        self.price_weight = w;
    }

    /// Enumerate ground operations and finalize the world.
    ///
    /// # Panics
    /// If no sites, programs or goals were declared.
    pub fn build(self) -> GridWorld {
        assert!(!self.sites.is_empty(), "no sites");
        assert!(!self.programs.is_empty(), "no programs");
        assert!(!self.goals.is_empty(), "no goals");
        let mut ops = Vec::new();
        for (pi, p) in self.programs.iter().enumerate() {
            for &s in &p.installed_at {
                ops.push(GridOp::Run(ProgramId(pi as u32), s));
            }
        }
        for &(kind, _) in &self.kind_sizes {
            for s1 in 0..self.sites.len() {
                for s2 in 0..self.sites.len() {
                    if s1 != s2 {
                        ops.push(GridOp::Transfer(kind, SiteId(s1 as u32), SiteId(s2 as u32)));
                    }
                }
            }
        }
        let costs = compute_costs(&ops, &self.sites, &self.programs, &self.kind_sizes, self.price_weight);
        let down = vec![false; self.sites.len()];
        GridWorld {
            ontology: self.ontology,
            sites: self.sites,
            programs: self.programs,
            kind_sizes: self.kind_sizes,
            initial: canonical(self.initial),
            goals: self.goals,
            ops,
            costs,
            price_weight: self.price_weight,
            down,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::DataProduct;
    use crate::resource::ResourceSpec;
    use gaplan_core::DomainExt;

    fn res(cpu: f64, net: f64) -> ResourceSpec {
        ResourceSpec { cpu_gflops: cpu, memory_gb: 16.0, disk_tb: 1.0, net_mbps: net }
    }

    /// Two sites; raw image at site 0; one program "proc" (raw -> result)
    /// installed at site 1 only — forcing a transfer-then-run plan.
    fn two_site_world() -> (GridWorld, Sym, Sym) {
        let mut b = GridWorldBuilder::new();
        let s0 = b.site(Site::new("alpha", res(10.0, 1000.0)));
        let s1 = b.site(Site::new("beta", res(100.0, 1000.0)));
        let raw = b.kind("raw-image", 1.0);
        let result = b.kind("result", 0.5);
        let fmt = b.ontology_mut().intern("binary");
        let proc_name = b.ontology_mut().intern("proc");
        b.program(Program {
            name: proc_name,
            inputs: vec![DataRequirement::of_kind(raw)],
            output: DataProduct { kind: result, format: fmt, resolution_num: 1, resolution_den: 1 },
            min_resources: ResourceSpec::NONE,
            gflops: 100.0,
            installed_at: vec![s1],
        });
        b.item(DataItem::source(raw, fmt, 1024, s0));
        b.goal(GoalSpec { requirement: DataRequirement::of_kind(result), location: None, weight: 1.0 });
        (b.build(), raw, result)
    }

    #[test]
    fn initially_only_transfers_are_valid() {
        let (w, _, _) = two_site_world();
        let s = w.initial_state();
        let names: Vec<String> = w.valid_ops_vec(&s).iter().map(|&o| w.op_name(o)).collect();
        assert_eq!(names, vec!["xfer raw-image alpha -> beta"]);
    }

    #[test]
    fn transfer_then_run_reaches_goal() {
        let (w, raw, _) = two_site_world();
        let s0 = w.initial_state();
        let xfer = w.op_id(GridOp::Transfer(raw, SiteId(0), SiteId(1))).unwrap();
        let s1 = w.apply(&s0, xfer);
        assert_eq!(s1.len(), 2, "copy, not move");
        let run = w.op_id(GridOp::Run(ProgramId(0), SiteId(1))).unwrap();
        assert!(w.valid_ops_vec(&s1).contains(&run));
        let s2 = w.apply(&s1, run);
        assert!(w.is_goal(&s2));
        assert_eq!(w.goal_fitness(&s2), 1.0);
        // output genealogy records the program
        let out = s2.iter().find(|i| !i.history.is_empty()).unwrap();
        assert_eq!(out.history.len(), 1);
    }

    #[test]
    fn duplicate_transfer_is_invalid() {
        let (w, raw, _) = two_site_world();
        let xfer = w.op_id(GridOp::Transfer(raw, SiteId(0), SiteId(1))).unwrap();
        let s1 = w.apply(&w.initial_state(), xfer);
        assert!(!w.valid_ops_vec(&s1).contains(&xfer), "copy already exists at beta");
    }

    /// `op_valid` as it was before it tested inputs and duplicate copies
    /// in place: through `match_inputs` and a relocated clone.
    fn reference_op_valid(w: &GridWorld, state: &WorkflowState, op: OpId) -> bool {
        match w.ops[op.index()] {
            GridOp::Run(p, s) => {
                let prog = &w.programs[p.index()];
                !w.down[s.index()]
                    && w.sites[s.index()].resources.satisfies(&prog.min_resources)
                    && w.match_inputs(state, prog, s).is_some()
            }
            GridOp::Transfer(kind, s1, s2) => {
                !w.down[s1.index()]
                    && !w.down[s2.index()]
                    && w.best_of_kind_at(state, kind, s1).is_some_and(|item| {
                        let mut copy = item.clone();
                        copy.location = s2;
                        !state.contains(&copy)
                    })
            }
        }
    }

    #[test]
    fn op_valid_matches_reference_on_pipeline_walks() {
        let pipeline = crate::parser::parse_grid(include_str!("../../../data/pipeline.grid")).unwrap();
        let mut x = 2003u64;
        for w in [pipeline.with_down(&[false, false, false]), pipeline.with_down(&[false, true, false])] {
            for _ in 0..100 {
                let mut state = w.initial_state();
                for _ in 0..10 {
                    for i in 0..w.num_operations() {
                        let op = OpId(i as u32);
                        assert_eq!(w.op_valid(&state, op), reference_op_valid(&w, &state, op), "{}", w.op_name(op));
                    }
                    let valid = w.valid_ops_vec(&state);
                    if valid.is_empty() {
                        break;
                    }
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    state = w.apply(&state, valid[(x >> 33) as usize % valid.len()]);
                }
            }
        }
    }

    #[test]
    fn rerunning_program_is_idempotent_on_state() {
        let (w, raw, _) = two_site_world();
        let xfer = w.op_id(GridOp::Transfer(raw, SiteId(0), SiteId(1))).unwrap();
        let run = w.op_id(GridOp::Run(ProgramId(0), SiteId(1))).unwrap();
        let s = w.apply(&w.apply(&w.initial_state(), xfer), run);
        let s2 = w.apply(&s, run);
        assert_eq!(s, s2, "identical product deduplicates");
    }

    #[test]
    fn costs_reflect_load_and_speed() {
        let (w, _, _) = two_site_world();
        let run = w.op_id(GridOp::Run(ProgramId(0), SiteId(1))).unwrap();
        // 100 GFLOP at 100 GFLOP/s unloaded = 1 s, price 0
        assert!((w.op_cost(run) - 1.0).abs() < 1e-9);
        let loaded = w.with_loads(&[0.0, 0.75]);
        assert!((loaded.op_cost(run) - 4.0).abs() < 1e-9, "load stretches execution");
    }

    #[test]
    fn transfer_cost_uses_bottleneck_bandwidth() {
        let (w, raw, _) = two_site_world();
        let xfer = w.op_id(GridOp::Transfer(raw, SiteId(0), SiteId(1))).unwrap();
        // 1 GB over 1000 Mbps = 8000/1000 = 8 s
        assert!((w.op_cost(xfer) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn down_site_invalidates_its_operations() {
        let (w, raw, _) = two_site_world();
        let xfer = w.op_id(GridOp::Transfer(raw, SiteId(0), SiteId(1))).unwrap();
        let run = w.op_id(GridOp::Run(ProgramId(0), SiteId(1))).unwrap();
        let mid = w.apply(&w.initial_state(), xfer);
        assert!(w.op_valid(&mid, run));

        // beta down: the run there and any transfer touching beta die
        let dark = w.with_down(&[false, true]);
        assert!(!dark.op_valid(&mid, run));
        assert!(!dark.op_valid(&w.initial_state(), xfer));
        assert!(dark.valid_ops_vec(&mid).is_empty());
        assert!(dark.site_down(SiteId(1)));
        assert!(!dark.site_down(SiteId(0)));

        // availability is part of the planning signature (cache safety)
        assert_ne!(w.signature(), dark.signature());
        // recovery restores the original picture
        let back = dark.with_down(&[false, false]);
        assert_eq!(w.signature(), back.signature());
        assert!(back.op_valid(&mid, run));
    }

    #[test]
    fn with_initial_restarts_from_given_state() {
        let (w, raw, _) = two_site_world();
        let xfer = w.op_id(GridOp::Transfer(raw, SiteId(0), SiteId(1))).unwrap();
        let mid = w.apply(&w.initial_state(), xfer);
        let w2 = w.with_initial(mid.clone());
        assert_eq!(w2.initial_state(), mid);
    }

    #[test]
    fn resource_requirements_gate_execution() {
        let mut b = GridWorldBuilder::new();
        let s0 = b.site(Site::new("tiny", res(1.0, 100.0)));
        let raw = b.kind("raw", 1.0);
        let out_kind = b.kind("out", 1.0);
        let fmt = b.ontology_mut().intern("fmt");
        let name = b.ontology_mut().intern("big-job");
        b.program(Program {
            name,
            inputs: vec![DataRequirement::of_kind(raw)],
            output: DataProduct { kind: out_kind, format: fmt, resolution_num: 1, resolution_den: 1 },
            min_resources: ResourceSpec {
                cpu_gflops: 50.0, // more than "tiny" has
                ..ResourceSpec::NONE
            },
            gflops: 10.0,
            installed_at: vec![s0],
        });
        b.item(DataItem::source(raw, fmt, 1, s0));
        b.goal(GoalSpec { requirement: DataRequirement::of_kind(out_kind), location: None, weight: 1.0 });
        let w = b.build();
        assert!(w.valid_ops_vec(&w.initial_state()).is_empty(), "under-resourced site must not run the program");
    }

    #[test]
    fn goal_location_constraint() {
        let (w, raw, result) = two_site_world();
        // build a variant requiring the result back at alpha
        let mut b = GridWorldBuilder::new();
        let s0 = b.site(Site::new("alpha", res(10.0, 1000.0)));
        let s1 = b.site(Site::new("beta", res(100.0, 1000.0)));
        let raw2 = b.kind("raw-image", 1.0);
        let result2 = b.kind("result", 0.5);
        let fmt = b.ontology_mut().intern("binary");
        let name = b.ontology_mut().intern("proc");
        b.program(Program {
            name,
            inputs: vec![DataRequirement::of_kind(raw2)],
            output: DataProduct { kind: result2, format: fmt, resolution_num: 1, resolution_den: 1 },
            min_resources: ResourceSpec::NONE,
            gflops: 100.0,
            installed_at: vec![s1],
        });
        b.item(DataItem::source(raw2, fmt, 1024, s0));
        b.goal(GoalSpec { requirement: DataRequirement::of_kind(result2), location: Some(s0), weight: 1.0 });
        let w2 = b.build();
        // run at beta satisfies the kind but not the location
        let xfer = w2.op_id(GridOp::Transfer(raw2, s0, s1)).unwrap();
        let run = w2.op_id(GridOp::Run(ProgramId(0), s1)).unwrap();
        let s = w2.apply(&w2.apply(&w2.initial_state(), xfer), run);
        assert_eq!(w2.goal_fitness(&s), 0.0);
        let back = w2.op_id(GridOp::Transfer(result2, s1, s0)).unwrap();
        let s_done = w2.apply(&s, back);
        assert_eq!(w2.goal_fitness(&s_done), 1.0);
        // silence unused warnings from the first world
        let _ = (w, raw, result);
    }

    #[test]
    #[should_panic(expected = "installed nowhere")]
    fn program_without_installation_rejected() {
        let mut b = GridWorldBuilder::new();
        b.site(Site::new("a", res(1.0, 1.0)));
        let k = b.kind("k", 1.0);
        let f = b.ontology_mut().intern("f");
        let n = b.ontology_mut().intern("n");
        b.program(Program {
            name: n,
            inputs: vec![DataRequirement::of_kind(k)],
            output: DataProduct { kind: k, format: f, resolution_num: 1, resolution_den: 1 },
            min_resources: ResourceSpec::NONE,
            gflops: 1.0,
            installed_at: vec![],
        });
    }
}
