//! Regenerate every table and figure of the paper, plus the extension
//! experiments.
//!
//! Usage:
//! ```text
//! tables [--quick] [--runs N] [--budget F] [--seed S] [--json DIR] CMD...
//! ```
//! `CMD` is an experiment or group name from `gaplan_bench::EXPERIMENTS`
//! and `gaplan_bench::GROUPS`, or `all`. Flags may come in any order and
//! each at most once; `--quick` only changes the defaults of `--runs` and
//! `--budget`.

use std::collections::HashMap;
use std::str::FromStr;
use std::time::Instant;

use gaplan_bench::{resolve, ExpScale, EXPERIMENTS, GROUPS};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut flags = HashMap::new();
    let mut commands = Vec::new();
    while let Some(arg) = args.next() {
        let value = match arg.as_str() {
            "--quick" => String::new(),
            "--runs" | "--budget" | "--seed" | "--json" => {
                args.next().unwrap_or_else(|| usage(&format!("{arg} needs a value")))
            }
            cmd if !cmd.starts_with('-') => {
                commands.push(arg);
                continue;
            }
            other => usage(&format!("unknown flag {other}")),
        };
        if flags.insert(arg.clone(), value).is_some() {
            usage(&format!("{arg} given twice"));
        }
    }
    if commands.is_empty() {
        usage("no command given");
    }
    let defaults = if flags.contains_key("--quick") { ExpScale::quick() } else { ExpScale::default() };
    let budget =
        flag(&flags, "--budget").map(|b: f64| if b > 0.0 && b <= 1.0 { b } else { usage("--budget F in (0,1]") });
    let scale = ExpScale {
        runs: flag(&flags, "--runs").unwrap_or(defaults.runs),
        budget: budget.unwrap_or(defaults.budget),
        seed: flag(&flags, "--seed").unwrap_or(defaults.seed),
    };
    let json_dir = flags.get("--json");
    let experiments: Vec<_> =
        commands.iter().flat_map(|c| resolve(c).unwrap_or_else(|| usage(&format!("unknown command {c}")))).collect();

    for (name, run) in experiments {
        let started = Instant::now();
        eprintln!(">> running {name} ...");
        let table = run(&scale);
        println!("{}", table.render());
        // The figures (a table without columns) are text, not data.
        if let (Some(dir), false) = (json_dir, table.headers.is_empty()) {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{name}.json");
            std::fs::write(&path, table.to_json()).expect("write json");
            eprintln!(">> wrote {path}");
        }
        eprintln!(">> {name} done in {:.1}s\n", started.elapsed().as_secs_f64());
    }
}

/// The parsed value of `name`, if it was given.
fn flag<T: FromStr>(flags: &HashMap<String, String>, name: &str) -> Option<T> {
    flags.get(name).map(|v| v.parse().unwrap_or_else(|_| usage(&format!("{name}: cannot parse {v:?}"))))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: tables [--quick] [--runs N] [--budget F] [--seed S] [--json DIR] CMD...");
    let experiments: Vec<_> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    let groups: Vec<_> = GROUPS.iter().map(|(n, _)| *n).collect();
    eprintln!("experiments: {}\ngroups: {} all", experiments.join(" "), groups.join(" "));
    std::process::exit(2);
}
