//! Ground STRIPS representation (paper §1: "We are particularly interested
//! in STRIPS-like domains. In such domains, the change of system state is
//! given by operations which are defined by preconditions and
//! postconditions.").
//!
//! States are bitsets over the finite set of ground atomic conditions `C`;
//! operators carry a precondition set and add/delete postcondition sets plus
//! a cost, exactly matching the paper's four-tuple `⟨C, O, I, G⟩`.
//!
//! Problems can be built programmatically ([`StripsBuilder`]) or parsed from
//! a small text format ([`parse_strips`]).

mod condset;
mod parser;
mod problem;

pub use condset::CondSet;
pub use parser::parse_strips;
pub use problem::{StripsBuilder, StripsOp, StripsProblem};

/// Identifier of a ground atomic condition within a [`StripsProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondId(pub u32);

impl CondId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
