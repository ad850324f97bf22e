//! Convergence histories: per-generation statistics for representative
//! runs — the data behind the convergence figures a modern write-up of the
//! paper would include (the original reports only endpoint aggregates).

use gaplan_ga::{CrossoverKind, MultiPhase};

use crate::table::{f1, f3, TextTable};
use crate::{hanoi, ExpScale};

/// Sample a run's history every `stride` generations into table rows.
fn sample_history(t: &mut TextTable, label: &str, history: &[gaplan_ga::GenStats], stride: usize) {
    for s in history.iter().step_by(stride.max(1)) {
        t.row(vec![
            label.into(),
            s.generation.to_string(),
            f3(s.best_goal),
            f3(s.mean_total),
            f1(s.mean_len),
            s.solvers.to_string(),
        ]);
    }
}

/// Convergence of one multi-phase run per domain/crossover combination.
/// Generation numbers restart at each phase boundary (the paper's phases
/// are independent GA runs).
pub fn history(scale: &ExpScale) -> TextTable {
    let mut t = TextTable::new(
        "History. Per-generation convergence of representative multi-phase runs (sampled every 10 generations).",
        &["Run", "Generation", "Best Goal Fitness", "Mean Total Fitness", "Mean Plan Length", "Solvers"],
    );

    let hanoi = hanoi(6);
    let r = MultiPhase::new(&hanoi.domain, scale.config(&hanoi, |_| {})).run();
    sample_history(&mut t, "hanoi6/random", &r.history, 10);

    let tile = scale.tile(3);
    for kind in [CrossoverKind::Random, CrossoverKind::StateAware] {
        let r = MultiPhase::new(&tile.domain, scale.config(&tile, |c| c.crossover = kind)).run();
        sample_history(&mut t, &format!("tile3/{}", kind.name()), &r.history, 10);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_has_rows_for_each_run() {
        let t = history(&ExpScale::quick());
        assert!(t.rows.len() >= 3);
        let labels: std::collections::HashSet<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(labels.contains("hanoi6/random"));
        assert!(labels.contains("tile3/state-aware"));
        // best goal fitness is monotone within a run only per-phase; just
        // check the values parse and are normalized
        for row in &t.rows {
            let f: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&f));
        }
    }
}
