//! Seeded request generation for the benchmark's workloads.
//!
//! Every request is a pure function of `(seed, index)`, so one seed always
//! yields the same traffic whatever order connections happen to draw
//! indices in. The server only ever sees the generated request lines.

use std::io;
use std::path::Path;

use serde::json::write_json_string;

/// GA overrides shared by every request: small enough that one cold solve
/// costs milliseconds, the `gaplan loadgen` budget.
const GA_BUDGET: &str = "\"population\":48,\"generations\":40,\"phases\":2";

/// Distinct cold keys of hot-keys; key 0 is the extra hot key.
pub const HOT_KEY_SPACE: u64 = 64;
/// Probability a hot-keys request picks the hot key.
const HOT_SKEW: f64 = 0.5;
/// Per-request deadline of overload-hanoi.
pub const OVERLOAD_DEADLINE_MS: u64 = 500;
/// Open-loop arrival rate of hot-keys: well below what two workers serve
/// from the plan cache, so latency measures the serving path rather than
/// how much CPU the shared machine happens to grant.
pub const HOT_RATE: f64 = 12_000.0;
/// Open-loop arrival rate of overload-hanoi: about twice the cold Hanoi-4
/// capacity of two workers on a two-core machine.
pub const OVERLOAD_RATE: f64 = 280.0;

/// Problem family of a request; the per-layer metrics are split by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Towers of Hanoi, 4 disks: 81 states, one successor cache shared
    /// by every request.
    Hanoi4,
    /// 4x4 sliding tile with a fresh shuffle per request: a large state
    /// space and a new successor cache each time.
    Tile4,
    /// The shipped `data/pipeline.grid` workflow.
    Grid,
    /// One of the eight shipped DSL pairs (grounding memo hits).
    Dsl,
    /// A DSL problem generated from the seed (grounding memo misses).
    DslGen,
}

impl Kind {
    pub const ALL: [Kind; 5] = [Kind::Hanoi4, Kind::Tile4, Kind::Grid, Kind::Dsl, Kind::DslGen];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hanoi4 => "hanoi4",
            Kind::Tile4 => "tile4",
            Kind::Grid => "grid",
            Kind::Dsl => "dsl",
            Kind::DslGen => "dslgen",
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotKeys,
    ColdMix,
    OverloadHanoi,
}

/// How a workload offers load.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Each connection keeps `inflight` requests outstanding.
    Closed { conns: usize, inflight: usize },
    /// Requests are due at fixed times, `rate` per second, over one
    /// connection.
    Open { rate: f64 },
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-keys" => Some(Workload::HotKeys),
            "cold-mix" => Some(Workload::ColdMix),
            "overload-hanoi" => Some(Workload::OverloadHanoi),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotKeys => "hot-keys",
            Workload::ColdMix => "cold-mix",
            Workload::OverloadHanoi => "overload-hanoi",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotKeys => {
                "per-request serving path (codec, proto, session, coalescing, plan cache, reply write): open loop \
                 at 12k/s over 65 primed Hanoi-4 keys at skew 0.5, so the GA never runs in the window"
            }
            Workload::ColdMix => {
                "headline planning throughput: every request has its own cache key over Hanoi-4, tile-4x4, \
                 the grid pipeline, shipped and generated DSL problems, so cache and coalescing are bypassed"
            }
            Workload::OverloadHanoi => {
                "overload control (deadline admission, CoDel, brownout) and queueing: open loop at about twice \
                 the cold Hanoi-4 capacity with 500 ms deadlines; no other workload reaches that layer"
            }
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::HotKeys => Shape::Open { rate: HOT_RATE },
            Workload::ColdMix => Shape::Closed { conns: 2, inflight: 4 },
            Workload::OverloadHanoi => Shape::Open { rate: OVERLOAD_RATE },
        }
    }

    /// Extra `gaplan serve` flags; everything else is the default
    /// `ServiceConfig` (2 workers, plan cache and coalescing on).
    pub fn server_args(self) -> &'static [&'static str] {
        match self {
            Workload::OverloadHanoi => &["--target-ms", "50", "--brownout", "0.25"],
            _ => &[],
        }
    }

    /// Deadline a reply must meet to count as goodput.
    pub fn deadline_ms(self) -> Option<u64> {
        match self {
            Workload::OverloadHanoi => Some(OVERLOAD_DEADLINE_MS),
            _ => None,
        }
    }
}

/// One generated request: its plan-cache identity and its wire body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Plan identity: equal keys must receive identical plans.
    pub key: u64,
    /// The JSON members after `"id"` (problem, GA overrides, deadline).
    pub body: String,
}

impl Request {
    /// The full protocol line for this request under client id `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"cmd\":\"plan\",\"id\":{id},{}}}", self.body)
    }
}

/// The shipped inputs the generated traffic draws on.
pub struct Inputs {
    grid: String,
    /// The eight shipped DSL `(domain, problem)` pairs.
    pairs: Vec<(String, String)>,
    blocks: String,
    logistics: String,
}

impl Inputs {
    /// Read the shipped problem files below the checkout root `root`.
    pub fn load(root: &Path) -> io::Result<Inputs> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| io::Error::new(e.kind(), format!("{rel}: {e}")))
        };
        let mut pairs = Vec::new();
        for domain in ["blocks", "elevator", "gridflow", "logistics"] {
            let domain_src = read(&format!("examples/domains/{domain}.gap"))?;
            for n in 1..=2 {
                pairs.push((domain_src.clone(), read(&format!("data/{domain}-{n}.gap"))?));
            }
        }
        Ok(Inputs {
            grid: read("data/pipeline.grid")?,
            blocks: read("examples/domains/blocks.gap")?,
            logistics: read("examples/domains/logistics.gap")?,
            pairs,
        })
    }
}

/// Seeded request source for one workload.
pub struct Generator<'a> {
    pub workload: Workload,
    seed: u64,
    inputs: &'a Inputs,
    /// hot-keys: the body of every key, built once.
    hot_bodies: Vec<String>,
}

impl<'a> Generator<'a> {
    pub fn new(workload: Workload, seed: u64, inputs: &'a Inputs) -> Generator<'a> {
        let mut gen = Generator { workload, seed, inputs, hot_bodies: Vec::new() };
        if workload == Workload::HotKeys {
            gen.hot_bodies = (0..=HOT_KEY_SPACE).map(|key| hanoi_body(gen.ga_seed(key), None)).collect();
        }
        gen
    }

    /// The GA seed of plan key `key`: distinct keys, distinct cache keys.
    fn ga_seed(&self, key: u64) -> u64 {
        mix(self.seed ^ mix(key.wrapping_add(0x5eed)))
    }

    /// Request number `index` of this workload.
    pub fn request(&self, index: u64) -> Request {
        match self.workload {
            Workload::HotKeys => {
                let u = mix(self.seed.wrapping_add(mix(index)));
                let key = if unit(u) < HOT_SKEW { 0 } else { 1 + mix(u) % HOT_KEY_SPACE };
                Request { key, body: self.hot_bodies[key as usize].clone() }
            }
            Workload::ColdMix => self.cold(Kind::ALL[(index % 5) as usize], index),
            Workload::OverloadHanoi => {
                Request { key: index, body: hanoi_body(self.ga_seed(index), Some(OVERLOAD_DEADLINE_MS)) }
            }
        }
    }

    /// Every distinct key hot-keys can draw, for priming the plan cache
    /// (none for the other workloads).
    pub fn hot_keys(&self) -> Vec<Request> {
        (0u64..).zip(&self.hot_bodies).map(|(key, body)| Request { key, body: body.clone() }).collect()
    }

    /// A cold request of `kind` whose key is `index` (never a cache hit).
    pub fn cold(&self, kind: Kind, index: u64) -> Request {
        let ga_seed = self.ga_seed(index);
        let problem = match kind {
            Kind::Hanoi4 => return Request { key: index, body: hanoi_body(ga_seed, None) },
            Kind::Tile4 => {
                format!("{{\"Tile\":{{\"side\":4,\"shuffle_seed\":{}}}}}", mix(ga_seed ^ 0x7113))
            }
            Kind::Grid => format!("{{\"Grid\":{{\"text\":{}}}}}", json_str(&self.inputs.grid)),
            Kind::Dsl => {
                let (domain, problem) = &self.inputs.pairs[((index / 5) % 8) as usize];
                dsl_problem(domain, problem)
            }
            Kind::DslGen => {
                let mut rng = Rng(mix(ga_seed ^ 0xd51));
                if rng.below(2) == 0 {
                    dsl_problem(&self.inputs.blocks, &gen_blocks(&mut rng, index))
                } else {
                    dsl_problem(&self.inputs.logistics, &gen_logistics(&mut rng, index))
                }
            }
        };
        Request { key: index, body: format!("\"problem\":{problem},\"ga\":{{{GA_BUDGET},\"seed\":{ga_seed}}}") }
    }
}

fn hanoi_body(ga_seed: u64, deadline_ms: Option<u64>) -> String {
    let deadline = deadline_ms.map(|ms| format!(",\"deadline_ms\":{ms}")).unwrap_or_default();
    format!("\"problem\":{{\"Hanoi\":{{\"disks\":4}}}}{deadline},\"ga\":{{{GA_BUDGET},\"seed\":{ga_seed}}}")
}

fn dsl_problem(domain: &str, problem: &str) -> String {
    format!("{{\"Dsl\":{{\"domain\":{},\"problem\":{}}}}}", json_str(domain), json_str(problem))
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json_string(&mut out, s);
    out
}

/// A random blocks-world problem: 5 or 6 blocks in random towers, goal a
/// random tower over some of them.
fn gen_blocks(rng: &mut Rng, index: u64) -> String {
    let n = 5 + rng.below(2) as usize;
    let names: Vec<String> = (0..n).map(|i| format!("b{i}")).collect();
    let mut init = vec!["hand-empty()".to_string()];
    let mut order = rng.permutation(n);
    while !order.is_empty() {
        let height = 1 + rng.below(order.len() as u64) as usize;
        let tower: Vec<usize> = order.drain(..height).collect();
        init.push(format!("on-table({})", names[tower[0]]));
        for pair in tower.windows(2) {
            init.push(format!("on({}, {})", names[pair[1]], names[pair[0]]));
        }
        init.push(format!("clear({})", names[tower[height - 1]]));
    }
    let goal_tower = rng.permutation(n);
    let goal_height = 2 + rng.below(n as u64 - 1) as usize;
    let goal: Vec<String> = goal_tower[..goal_height]
        .windows(2)
        .map(|pair| format!("on({}, {})", names[pair[1]], names[pair[0]]))
        .collect();
    format!(
        "problem gen-blocks-{index}\ndomain blocks\n\nobjects {}: block\n\ninit: {}\n\ngoal: {}\n",
        names.join(" "),
        init.join(" "),
        goal.join(" ")
    )
}

/// A random logistics problem: 4 or 5 locations on a two-way ring, 2
/// trucks, 3 or 4 packages that each must move to another location.
fn gen_logistics(rng: &mut Rng, index: u64) -> String {
    let locs = 4 + rng.below(2) as usize;
    let trucks = 2;
    let packages = 3 + rng.below(2) as usize;
    let mut init = Vec::new();
    for l in 0..locs {
        let next = (l + 1) % locs;
        init.push(format!("road(l{l}, l{next}) road(l{next}, l{l})"));
    }
    for t in 0..trucks {
        init.push(format!("truck-at(t{t}, l{})", rng.below(locs as u64)));
    }
    let mut goal = Vec::new();
    for p in 0..packages {
        let from = rng.below(locs as u64);
        let to = (from + 1 + rng.below(locs as u64 - 1)) % locs as u64;
        init.push(format!("at(p{p}, l{from})"));
        goal.push(format!("at(p{p}, l{to})"));
    }
    let names = |prefix: &str, n: usize| (0..n).map(|i| format!("{prefix}{i}")).collect::<Vec<_>>().join(" ");
    format!(
        "problem gen-logistics-{index}\ndomain logistics\n\nobjects {}: location\nobjects {}: truck\n\
         objects {}: package\n\ninit: {}\n\ngoal: {}\n",
        names("l", locs),
        names("t", trucks),
        names("p", packages),
        init.join(" "),
        goal.join(" ")
    )
}

/// SplitMix64 finalizer: a fixed bijective scramble of a `u64`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `u` mapped to `[0, 1)`.
fn unit(u: u64) -> f64 {
    (u >> 11) as f64 / (1u64 << 53) as f64
}

/// Small deterministic generator for problem texts.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
        v
    }
}
