//! Object-safe domain dispatch.
//!
//! The GA engine is generic over [`Domain`], which monomorphizes a full copy
//! of the decode/evaluate/breed pipeline per state type. That is the right
//! trade for benchmarks, but the planning service selects its domain at
//! runtime from a `ProblemSpec`-style enum, and a per-variant match arm
//! instantiating a dedicated engine copy multiplies compile time and code
//! size for zero runtime benefit (decode cost is dominated by
//! `valid_operations`, not dispatch).
//!
//! This module provides the erasure layer: [`DynState`] (a boxed,
//! clone/eq/hash-able state) and [`DynDomain`] (an object-safe wrapper that
//! itself implements [`Domain`] with `State = DynState`). One compiled engine
//! then serves every runtime-selected domain.
//!
//! Two invariants make erased runs *bitwise-identical* to typed runs:
//!
//! * `DynState`'s `Hash` forwards the inner state's `Hash` writes verbatim,
//!   so `hash_one(&DynState(s))` equals `hash_one(&s)`.
//! * [`DynDomain`]'s `state_signature` delegates to the *typed* domain's
//!   override (after downcasting), so domains with injective signature
//!   packings keep them behind erasure, and successor-cache keys agree
//!   between typed and erased runs.

use std::any::Any;
use std::hash::{Hash, Hasher};

use crate::domain::{Domain, OpId};

/// Object-safe mirror of the `Clone + PartialEq + Eq + Hash` bounds on
/// [`Domain::State`], implemented for every eligible `'static` state type.
pub trait ErasedState: Any + Send + Sync {
    /// Clone behind the box.
    fn clone_box(&self) -> Box<dyn ErasedState>;
    /// Copy `self` into `target` in place (`Clone::clone_from`, reusing the
    /// target's storage) when both have the same concrete type; returns
    /// false, leaving `target` untouched, otherwise.
    fn clone_into_dyn(&self, target: &mut dyn ErasedState) -> bool;
    /// Equality against another erased state (false across types).
    fn eq_dyn(&self, other: &dyn ErasedState) -> bool;
    /// Forward the inner `Hash` impl's writes to `hasher` unchanged.
    fn hash_dyn(&self, hasher: &mut dyn Hasher);
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support (in-place [`Domain::apply_into`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T> ErasedState for T
where
    T: Any + Clone + PartialEq + Eq + Hash + Send + Sync,
{
    fn clone_box(&self) -> Box<dyn ErasedState> {
        Box::new(self.clone())
    }
    fn clone_into_dyn(&self, target: &mut dyn ErasedState) -> bool {
        match target.as_any_mut().downcast_mut::<T>() {
            Some(slot) => {
                slot.clone_from(self);
                true
            }
            None => false,
        }
    }
    fn eq_dyn(&self, other: &dyn ErasedState) -> bool {
        other.as_any().downcast_ref::<T>().is_some_and(|o| self == o)
    }
    fn hash_dyn(&self, mut hasher: &mut dyn Hasher) {
        self.hash(&mut hasher);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A type-erased domain state. Satisfies every bound [`Domain::State`]
/// requires, so generic planners run over it unchanged.
pub struct DynState(Box<dyn ErasedState>);

impl DynState {
    /// Erase a concrete state.
    pub fn new<T>(state: T) -> Self
    where
        T: Any + Clone + PartialEq + Eq + Hash + Send + Sync,
    {
        DynState(Box::new(state))
    }

    /// Borrow the inner state as `T`, if that is its concrete type.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_any().downcast_ref::<T>()
    }

    /// Mutably borrow the inner state as `T`, if that is its concrete type.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.0.as_any_mut().downcast_mut::<T>()
    }
}

impl Clone for DynState {
    fn clone(&self) -> Self {
        DynState(self.0.clone_box())
    }

    /// Copies into the existing box when the concrete types match, so a
    /// state snapshot taken in a loop allocates once, not per copy.
    fn clone_from(&mut self, source: &Self) {
        if !source.0.clone_into_dyn(&mut *self.0) {
            *self = source.clone();
        }
    }
}

impl PartialEq for DynState {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_dyn(&*other.0)
    }
}

impl Eq for DynState {}

impl Hash for DynState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Forward the inner writes with no framing, so hashing a `DynState`
        // is indistinguishable from hashing the state it wraps.
        self.0.hash_dyn(state);
    }
}

impl std::fmt::Debug for DynState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DynState(..)")
    }
}

/// Object-safe mirror of [`Domain`], operating on [`DynState`]s.
///
/// Implemented automatically for every domain whose state is `'static`;
/// methods panic if handed a state of the wrong concrete type (which cannot
/// happen through [`DynDomain`], the only intended caller).
pub trait ErasedDomain: Send + Sync {
    /// See [`Domain::initial_state`].
    fn initial_state_dyn(&self) -> DynState;
    /// See [`Domain::num_operations`].
    fn num_operations_dyn(&self) -> usize;
    /// See [`Domain::valid_operations`].
    fn valid_operations_dyn(&self, state: &DynState, out: &mut Vec<OpId>);
    /// See [`Domain::apply`].
    fn apply_dyn(&self, state: &DynState, op: OpId) -> DynState;
    /// See [`Domain::apply_into`]: writes the successor into `out`'s inner
    /// box when the concrete types line up, avoiding a fresh allocation.
    fn apply_into_dyn(&self, state: &DynState, op: OpId, out: &mut DynState);
    /// See [`Domain::is_goal`].
    fn is_goal_dyn(&self, state: &DynState) -> bool;
    /// See [`Domain::goal_fitness`].
    fn goal_fitness_dyn(&self, state: &DynState) -> f64;
    /// See [`Domain::op_cost`].
    fn op_cost_dyn(&self, op: OpId) -> f64;
    /// See [`Domain::op_name`].
    fn op_name_dyn(&self, op: OpId) -> String;
    /// See [`Domain::state_signature`].
    fn state_signature_dyn(&self, state: &DynState) -> u64;
}

fn unwrap_state<S: Any>(state: &DynState) -> &S {
    state.downcast_ref::<S>().expect("DynState of foreign type passed to erased domain")
}

impl<D> ErasedDomain for D
where
    D: Domain,
    D::State: Any,
{
    fn initial_state_dyn(&self) -> DynState {
        DynState::new(self.initial_state())
    }
    fn num_operations_dyn(&self) -> usize {
        self.num_operations()
    }
    fn valid_operations_dyn(&self, state: &DynState, out: &mut Vec<OpId>) {
        self.valid_operations(unwrap_state(state), out)
    }
    fn apply_dyn(&self, state: &DynState, op: OpId) -> DynState {
        DynState::new(self.apply(unwrap_state(state), op))
    }
    fn apply_into_dyn(&self, state: &DynState, op: OpId, out: &mut DynState) {
        match out.downcast_mut::<D::State>() {
            Some(slot) => self.apply_into(unwrap_state(state), op, slot),
            None => *out = self.apply_dyn(state, op),
        }
    }
    fn is_goal_dyn(&self, state: &DynState) -> bool {
        self.is_goal(unwrap_state(state))
    }
    fn goal_fitness_dyn(&self, state: &DynState) -> f64 {
        self.goal_fitness(unwrap_state(state))
    }
    fn op_cost_dyn(&self, op: OpId) -> f64 {
        self.op_cost(op)
    }
    fn op_name_dyn(&self, op: OpId) -> String {
        self.op_name(op)
    }
    fn state_signature_dyn(&self, state: &DynState) -> u64 {
        // Delegate to the typed override: injective signatures (and thus
        // successor-cache keys) survive erasure bit-for-bit.
        self.state_signature(unwrap_state(state))
    }
}

/// A borrowed, type-erased [`Domain`]. `DynDomain::new(&hanoi)` and `&hanoi`
/// run the same planner code paths and produce identical plans, generations
/// and signatures; only the state representation is boxed.
#[derive(Clone, Copy)]
pub struct DynDomain<'a> {
    inner: &'a dyn ErasedDomain,
}

impl<'a> DynDomain<'a> {
    /// Erase a concrete domain behind an object-safe wrapper.
    pub fn new<D>(domain: &'a D) -> Self
    where
        D: Domain,
        D::State: Any,
    {
        DynDomain { inner: domain }
    }
}

impl Domain for DynDomain<'_> {
    type State = DynState;

    fn initial_state(&self) -> DynState {
        self.inner.initial_state_dyn()
    }
    fn num_operations(&self) -> usize {
        self.inner.num_operations_dyn()
    }
    fn valid_operations(&self, state: &DynState, out: &mut Vec<OpId>) {
        self.inner.valid_operations_dyn(state, out)
    }
    fn apply(&self, state: &DynState, op: OpId) -> DynState {
        self.inner.apply_dyn(state, op)
    }
    fn apply_into(&self, state: &DynState, op: OpId, out: &mut DynState) {
        self.inner.apply_into_dyn(state, op, out)
    }
    fn is_goal(&self, state: &DynState) -> bool {
        self.inner.is_goal_dyn(state)
    }
    fn goal_fitness(&self, state: &DynState) -> f64 {
        self.inner.goal_fitness_dyn(state)
    }
    fn op_cost(&self, op: OpId) -> f64 {
        self.inner.op_cost_dyn(op)
    }
    fn op_name(&self, op: OpId) -> String {
        self.inner.op_name_dyn(op)
    }
    fn state_signature(&self, state: &DynState) -> u64 {
        self.inner.state_signature_dyn(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainExt;
    use crate::sig::hash_one;

    struct Counter {
        target: i64,
    }

    impl Domain for Counter {
        type State = i64;

        fn initial_state(&self) -> i64 {
            0
        }
        fn num_operations(&self) -> usize {
            2
        }
        fn valid_operations(&self, state: &i64, out: &mut Vec<OpId>) {
            out.push(OpId(0));
            if *state > 0 {
                out.push(OpId(1));
            }
        }
        fn apply(&self, state: &i64, op: OpId) -> i64 {
            if op.0 == 0 {
                state + 1
            } else {
                state - 1
            }
        }
        fn goal_fitness(&self, state: &i64) -> f64 {
            let d = (self.target - state).unsigned_abs() as f64;
            1.0 - (d / (self.target.unsigned_abs() as f64 + 1.0)).min(1.0)
        }
        fn state_signature(&self, state: &i64) -> u64 {
            // Deliberately non-default, to prove erasure keeps overrides.
            *state as u64 ^ 0xABCD
        }
    }

    #[test]
    fn erased_domain_mirrors_typed_domain() {
        let d = Counter { target: 3 };
        let dd = DynDomain::new(&d);
        assert_eq!(dd.num_operations(), 2);
        let s0 = dd.initial_state();
        assert_eq!(s0.downcast_ref::<i64>(), Some(&0));
        assert_eq!(dd.valid_ops_vec(&s0), d.valid_ops_vec(&0));
        let s1 = dd.apply(&s0, OpId(0));
        assert_eq!(s1.downcast_ref::<i64>(), Some(&1));
        assert_eq!(dd.goal_fitness(&s1), d.goal_fitness(&1));
        assert_eq!(dd.op_name(OpId(1)), d.op_name(OpId(1)));
        assert_eq!(dd.op_cost(OpId(1)), d.op_cost(OpId(1)));
        assert!(!dd.is_goal(&s1));
    }

    #[test]
    fn apply_into_reuses_erased_slot() {
        let d = Counter { target: 3 };
        let dd = DynDomain::new(&d);
        let s = DynState::new(4i64);
        let mut out = DynState::new(0i64);
        dd.apply_into(&s, OpId(0), &mut out);
        assert_eq!(out.downcast_ref::<i64>(), Some(&5));
        assert_eq!(out, dd.apply(&s, OpId(0)));
    }

    #[test]
    fn signature_override_survives_erasure() {
        let d = Counter { target: 3 };
        let dd = DynDomain::new(&d);
        let s = DynState::new(7i64);
        assert_eq!(dd.state_signature(&s), d.state_signature(&7));
        assert_eq!(dd.state_signature(&s), 7 ^ 0xABCD);
    }

    #[test]
    fn dyn_state_hash_is_transparent() {
        // ValidOpSet/ExactState keys depend on this: hashing the wrapper
        // must equal hashing the wrapped value.
        for v in [0i64, 1, -9, 1 << 40] {
            assert_eq!(hash_one(&DynState::new(v)), hash_one(&v));
        }
        let vec_state = vec![1u8, 2, 0];
        assert_eq!(hash_one(&DynState::new(vec_state.clone())), hash_one(&vec_state));
    }

    #[test]
    fn clone_from_reuses_same_type_slot_and_falls_back_across_types() {
        let src = DynState::new(vec![3u8, 1, 4]);
        let mut dst = DynState::new(vec![0u8; 3]);
        let boxed = &*dst.0 as *const dyn ErasedState as *const ();
        let buf = dst.downcast_ref::<Vec<u8>>().unwrap().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(&*dst.0 as *const dyn ErasedState as *const (), boxed, "same-type copy must keep the box");
        assert_eq!(dst.downcast_ref::<Vec<u8>>().unwrap().as_ptr(), buf, "and the inner buffer");

        let mut other = DynState::new(7i64);
        other.clone_from(&src);
        assert_eq!(other, src, "cross-type copy falls back to clone");
        assert_eq!(other.downcast_ref::<Vec<u8>>(), Some(&vec![3u8, 1, 4]));
    }

    #[test]
    fn dyn_state_eq_and_clone() {
        let a = DynState::new(41i64);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, DynState::new(42i64));
        // Cross-type comparison is false, not a panic.
        assert_ne!(a, DynState::new(41u32));
    }
}
