//! Data items and their genealogy.
//!
//! The paper's §1 footnote motivates tracking "the genealogy, or the history
//! of the data": a program may require a minimum resolution, or refuse data
//! that already passed through a transformation that would interact badly
//! ("B could do a filtering in the Fourier domain that would cancel the
//! effect of the histogram equalization").

use serde::{Deserialize, Serialize};

use crate::ontology::Sym;
use crate::site::SiteId;

/// One step in a data item's history: which program produced/transformed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TransformRecord {
    /// Name symbol of the program applied.
    pub program: Sym,
}

/// A concrete data artifact living at some site.
///
/// Ordering/equality include the full history so that two artifacts of the
/// same kind with different genealogies are distinct planning objects —
/// exactly what the paper's footnote requires.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DataItem {
    /// Data kind concept (e.g. "2d-image").
    pub kind: Sym,
    /// Format concept (e.g. "tiff").
    pub format: Sym,
    /// Resolution level (domain-defined units, e.g. pixels per side).
    pub resolution: u16,
    /// Site the item currently resides at.
    pub location: SiteId,
    /// Genealogy: transformations applied so far, oldest first.
    pub history: Vec<TransformRecord>,
}

impl DataItem {
    /// A fresh (unprocessed) item.
    pub fn source(kind: Sym, format: Sym, resolution: u16, location: SiteId) -> Self {
        DataItem { kind, format, resolution, location, history: Vec::new() }
    }

    /// Has this item been processed by `program` at any point?
    pub fn was_processed_by(&self, program: Sym) -> bool {
        self.history.iter().any(|t| t.program == program)
    }

    /// Is `other` the same data as this item — equal in every field but
    /// its location?
    pub(crate) fn same_data(&self, other: &DataItem) -> bool {
        let DataItem { kind, format, resolution, location: _, history } = self;
        *kind == other.kind && *format == other.format && *resolution == other.resolution && *history == other.history
    }

    /// Derive a new item produced by `program` from this item's lineage.
    pub fn derive(&self, program: Sym, kind: Sym, format: Sym, resolution: u16, location: SiteId) -> DataItem {
        let mut history = self.history.clone();
        history.push(TransformRecord { program });
        DataItem { kind, format, resolution, location, history }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_items_have_empty_history() {
        let item = DataItem::source(Sym(1), Sym(2), 1024, SiteId(0));
        assert!(item.history.is_empty());
        assert!(!item.was_processed_by(Sym(9)));
    }

    #[test]
    fn derive_appends_history() {
        let raw = DataItem::source(Sym(1), Sym(2), 1024, SiteId(0));
        let eq = raw.derive(Sym(10), Sym(1), Sym(2), 1024, SiteId(0));
        let filtered = eq.derive(Sym(11), Sym(1), Sym(2), 512, SiteId(1));
        assert!(filtered.was_processed_by(Sym(10)));
        assert!(filtered.was_processed_by(Sym(11)));
        assert!(!filtered.was_processed_by(Sym(12)));
        assert_eq!(filtered.history.len(), 2);
        assert_eq!(filtered.resolution, 512);
        assert_eq!(filtered.location, SiteId(1));
    }

    #[test]
    fn history_distinguishes_items() {
        let a = DataItem::source(Sym(1), Sym(2), 100, SiteId(0));
        let b = a.derive(Sym(5), Sym(1), Sym(2), 100, SiteId(0));
        assert_ne!(a, b, "same kind/format/resolution but different genealogy");
    }
}
