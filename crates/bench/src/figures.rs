//! Figures 1–3: the paper's state diagrams, rendered as ASCII art.

use gaplan_core::Domain;
use gaplan_domains::sliding_tile::render_board;
use gaplan_domains::{Hanoi, SlidingTile};

use crate::table::TextTable;
use crate::ExpScale;

/// Figure 1: the initial state of the 5-disk Towers of Hanoi problem.
pub fn figure1() -> String {
    let h = Hanoi::new(5);
    format!("Figure 1. The initial state of the 5-disk Towers of Hanoi problem.\n\n{}", h.render(&h.initial_state()))
}

/// Figure 2: the goal state of the 5-disk Towers of Hanoi problem.
pub fn figure2() -> String {
    let h = Hanoi::new(5);
    format!("Figure 2. The goal state of the 5-disk Towers of Hanoi problem.\n\n{}", h.render(&vec![1u8; 5]))
}

/// Figure 3: (a) the reversed 15-puzzle board shown as the paper's initial
/// state illustration (unsolvable by the Johnson & Story criterion — the
/// paper cites that very result); (b) the goal state.
pub fn figure3() -> String {
    let a = render_board(4, &SlidingTile::reversed_board(4));
    let b = render_board(4, &SlidingTile::standard_goal(4));
    format!(
        "Figure 3. (a) An initial state of the 15-puzzle (illustration; unsolvable\nper Johnson & Story 1879). (b) The goal state.\n\n(a)\n{a}\n(b)\n{b}"
    )
}

/// All figures, as a registered experiment: a table with no columns, which
/// renders as its title alone. The scale is unused; the figures are fixed.
pub fn figures(_: &ExpScale) -> TextTable {
    TextTable::new(&format!("{}\n{}\n{}", figure1(), figure2(), figure3()), &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shows_full_stack_on_a() {
        let f = figure1();
        assert!(f.contains("Figure 1"));
        assert!(f.contains(&"=".repeat(11))); // largest disk
    }

    #[test]
    fn figure2_is_goal_on_b() {
        let f = figure2();
        assert!(f.contains("Figure 2"));
    }

    #[test]
    fn figure3_contains_both_boards() {
        let f = figure3();
        assert!(f.contains("(a)"));
        assert!(f.contains("(b)"));
        assert!(f.contains("15"));
        assert!(f.contains(" 1 "));
    }

    #[test]
    fn all_figures_concatenates() {
        let f = figures(&ExpScale::default()).render();
        assert!(f.contains("Figure 1") && f.contains("Figure 2") && f.contains("Figure 3"));
    }
}
