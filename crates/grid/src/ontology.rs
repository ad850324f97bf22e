//! A small ontology: interned concept symbols with transitive *is-a*
//! relations. The paper (§1): "An ontology is a description of the concepts
//! and relationships among them for an agent or a confederation of agents;
//! sometime the scientific community calls this meta-information."
//!
//! Concepts name data kinds ("2d-image"), formats ("tiff"), and program
//! capabilities; the subtype relation lets a program requirement for
//! "image" accept a "2d-image" item.

use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};

/// An interned concept symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Sym(pub u32);

/// The concept registry.
#[derive(Debug, Default, Clone)]
pub struct Ontology {
    names: Vec<String>,
    index: FxHashMap<String, Sym>,
    /// direct supertypes per symbol
    parents: FxHashMap<Sym, Vec<Sym>>,
}

impl Ontology {
    /// A fresh, empty ontology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a concept name, returning its symbol (idempotent).
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = Sym(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), s);
        s
    }

    /// Look up an already-interned concept.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied()
    }

    /// The name of a symbol.
    pub fn name(&self, s: Sym) -> &str {
        &self.names[s.0 as usize]
    }

    /// Number of interned concepts.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the ontology empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Declare `child` *is-a* `parent`.
    ///
    /// # Panics
    /// If the declaration would create an is-a cycle.
    pub fn declare_is_a(&mut self, child: Sym, parent: Sym) {
        assert!(
            !self.is_subtype(parent, child) && child != parent,
            "is-a cycle: {} <-> {}",
            self.name(child),
            self.name(parent)
        );
        self.parents.entry(child).or_default().push(parent);
    }

    /// Is `a` a subtype of `b` (reflexively, transitively)? Answers a
    /// symbol without parents, or a direct parent, without allocating; it
    /// runs on every requirement check of grid planning.
    pub fn is_subtype(&self, a: Sym, b: Sym) -> bool {
        if a == b {
            return true;
        }
        let Some(direct) = self.parents.get(&a) else {
            return false;
        };
        if direct.contains(&b) {
            return true;
        }
        let mut seen = FxHashSet::default();
        let mut stack = direct.clone();
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            if let Some(ps) = self.parents.get(&s) {
                for &p in ps {
                    if p == b {
                        return true;
                    }
                    stack.push(p);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating DFS `is_subtype` ran on every call before its fast
    /// paths.
    fn reference_is_subtype(o: &Ontology, a: Sym, b: Sym) -> bool {
        if a == b {
            return true;
        }
        let mut seen = FxHashSet::default();
        let mut stack = vec![a];
        while let Some(s) = stack.pop() {
            if !seen.insert(s) {
                continue;
            }
            if let Some(ps) = o.parents.get(&s) {
                for &p in ps {
                    if p == b {
                        return true;
                    }
                    stack.push(p);
                }
            }
        }
        false
    }

    proptest! {
        #[test]
        fn is_subtype_matches_reference_dfs_on_random_dags(
            n in 1usize..16,
            edges in proptest::collection::vec((0usize..16, 0usize..16), 0..40),
        ) {
            let mut o = Ontology::new();
            let syms: Vec<Sym> = (0..n).map(|i| o.intern(&format!("c{i}"))).collect();
            for (x, y) in edges {
                let (x, y) = (x % n, y % n);
                // Edges run from the higher to the lower index, so the
                // graph stays acyclic.
                if x != y {
                    o.declare_is_a(syms[x.max(y)], syms[x.min(y)]);
                }
            }
            for &a in &syms {
                for &b in &syms {
                    prop_assert_eq!(o.is_subtype(a, b), reference_is_subtype(&o, a, b));
                }
            }
        }
    }

    #[test]
    fn intern_is_idempotent() {
        let mut o = Ontology::new();
        let a = o.intern("image");
        let b = o.intern("image");
        assert_eq!(a, b);
        assert_eq!(o.len(), 1);
        assert_eq!(o.name(a), "image");
        assert_eq!(o.get("image"), Some(a));
        assert_eq!(o.get("absent"), None);
    }

    #[test]
    fn subtype_is_reflexive_and_transitive() {
        let mut o = Ontology::new();
        let data = o.intern("data");
        let image = o.intern("image");
        let tiff = o.intern("tiff-image");
        o.declare_is_a(image, data);
        o.declare_is_a(tiff, image);
        assert!(o.is_subtype(tiff, tiff));
        assert!(o.is_subtype(tiff, image));
        assert!(o.is_subtype(tiff, data));
        assert!(o.is_subtype(image, data));
        assert!(!o.is_subtype(data, tiff));
        assert!(!o.is_subtype(image, tiff));
    }

    #[test]
    fn multiple_parents_supported() {
        let mut o = Ontology::new();
        let a = o.intern("2d-array");
        let img = o.intern("image");
        let matrix = o.intern("matrix");
        o.declare_is_a(a, img);
        o.declare_is_a(a, matrix);
        assert!(o.is_subtype(a, img));
        assert!(o.is_subtype(a, matrix));
        assert!(!o.is_subtype(img, matrix));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_rejected() {
        let mut o = Ontology::new();
        let a = o.intern("a");
        let b = o.intern("b");
        o.declare_is_a(a, b);
        o.declare_is_a(b, a);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn self_loop_rejected() {
        let mut o = Ontology::new();
        let a = o.intern("a");
        o.declare_is_a(a, a);
    }
}
