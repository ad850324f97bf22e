//! Golden test for the experiment harness: every registered experiment at
//! [`ExpScale::quick`] must print exactly the committed tables, apart from
//! wall-clock columns. A change that moves a GA trajectory, a default
//! config or an instance shows up here as a diff of the JSON golden.
//!
//! The simulated `Makespan`/`Busy Time` columns are deterministic and stay
//! in the comparison; only measured seconds are masked. Re-bless after an
//! intended change (and say why in CHANGES.md) with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release -p gaplan-bench --test quick_tables
//! ```

use std::path::PathBuf;

use gaplan_bench::{ExpScale, EXPERIMENTS};

/// Columns holding measured wall-clock time.
const TIMING_COLUMNS: &[&str] = &["Seconds", "Average Time (seconds)"];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_tables.json")
}

/// Every experiment's table at the quick scale, timing masked, as one JSON
/// document keyed by experiment name (in registry order).
fn quick_tables() -> String {
    let scale = ExpScale::quick();
    let mut out = String::from("{\n");
    for (i, (name, run)) in EXPERIMENTS.iter().enumerate() {
        let mut table = run(&scale);
        for (col, header) in table.headers.iter().enumerate() {
            if TIMING_COLUMNS.contains(&header.as_str()) {
                for row in &mut table.rows {
                    row[col] = "*".into();
                }
            }
        }
        let sep = if i + 1 < EXPERIMENTS.len() { "," } else { "" };
        out.push_str(&format!("\"{name}\": {}{sep}\n", table.to_json()));
    }
    out.push_str("}\n");
    out
}

#[test]
fn quick_tables_match_the_golden() {
    let actual = quick_tables();
    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun GOLDEN_BLESS=1 cargo test -p gaplan-bench --test quick_tables",
            path.display()
        )
    });
    if actual != expected {
        let first = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
        let line = first.unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "quick tables differ from {} at line {}:\n  golden: {:?}\n  actual: {:?}\n\
             if the change is intentional: GOLDEN_BLESS=1 cargo test --release -p gaplan-bench --test quick_tables",
            path.display(),
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line),
        );
    }
}
