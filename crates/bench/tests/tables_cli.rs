//! The `tables` command line: flags are order-independent, `--quick` only
//! changes the defaults of `--runs` and `--budget`, and a repeated flag or
//! unknown command is a usage error (exit 2).

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables")).args(args).output().expect("run tables")
}

fn stdout(args: &[&str]) -> String {
    let out = tables(args);
    assert!(out.status.success(), "tables {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn explicit_flags_win_over_quick_in_any_order() {
    let seeded = stdout(&["--seed", "7", "--quick", "--runs", "1", "table5"]);
    assert_eq!(seeded, stdout(&["--quick", "--runs", "1", "--seed", "7", "table5"]));
    assert_ne!(seeded, stdout(&["--quick", "--runs", "1", "table5"]), "--seed before --quick was dropped");

    for args in [["--budget", "0.5", "--quick", "table1"], ["--quick", "--budget", "0.5", "table1"]] {
        let out = stdout(&args);
        assert!(out.lines().any(|l| l.contains("Number of generations") && l.contains(" 250 ")), "{args:?}: {out}");
    }
    let one_run = stdout(&["--runs", "1", "--quick", "table2"]);
    assert!(one_run.contains("/1 |") && !one_run.contains("/3 |"), "--runs before --quick was dropped: {one_run}");
}

#[test]
fn repeated_flags_and_unknown_commands_are_usage_errors() {
    for args in [
        &["--quick", "--quick", "table1"][..],
        &["--seed", "1", "--seed", "2", "table1"],
        &["--runs", "1", "--runs", "1", "table1"],
        &["--budget", "0.5", "--budget", "0.5", "table1"],
        &["--quick", "no-such-table"],
        &["--quick"],
    ] {
        let out = tables(args);
        assert_eq!(out.status.code(), Some(2), "tables {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "tables {args:?} ran something before refusing");
    }
}
