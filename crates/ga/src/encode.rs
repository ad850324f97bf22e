//! Inverse encoding: turn an operation sequence back into a genome that
//! decodes to exactly that sequence.
//!
//! This is the bridge the plan-reuse literature the paper discusses (§2,
//! Nebel & Koehler) needs: an existing plan — from a baseline planner, a
//! previous GA run, or a truncated prefix of either — becomes genetic
//! material. It also powers the seeding strategies of
//! [`crate::seeding`] (Westerberg & Levine, the paper's ref. \[22\], found
//! seeding partial solutions "appears to benefit GP performance").

use gaplan_core::{Domain, OpId};

use crate::genome::Genome;

/// Error produced when a plan cannot be re-encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The operation at this index is not valid in the state reached there.
    InvalidOp {
        /// Index within the plan.
        at: usize,
        /// The offending operation.
        op: OpId,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::InvalidOp { at, op } => {
                write!(f, "operation {op:?} at index {at} is invalid in its state")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encode an operation sequence as a genome that decodes back to it.
///
/// For each step, the gene is placed at the *midpoint* of the interval that
/// maps to the desired operation (`(idx + 0.5) / k`), so the decoding is
/// robust to floating-point rounding and to small mutations.
///
/// # Errors
/// [`EncodeError::InvalidOp`] if some operation is invalid where it occurs.
pub fn encode_plan<D: Domain>(domain: &D, start: &D::State, ops: &[OpId]) -> Result<Genome, EncodeError> {
    let mut state = start.clone();
    let mut genes = Vec::with_capacity(ops.len());
    let mut valid = Vec::new();
    for (at, &op) in ops.iter().enumerate() {
        valid.clear();
        domain.valid_operations(&state, &mut valid);
        let idx = valid.iter().position(|&o| o == op).ok_or(EncodeError::InvalidOp { at, op })?;
        genes.push((idx as f64 + 0.5) / valid.len() as f64);
        state = domain.apply(&state, op);
    }
    Ok(Genome::from_genes(genes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StateMatchMode;
    use crate::decode::Decoder;
    use gaplan_core::strips::{StripsBuilder, StripsProblem};
    use gaplan_core::DomainExt;

    fn chain(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("s{i}")).unwrap();
        }
        for i in 0..n {
            b.op(&format!("fwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i + 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        for i in 1..=n {
            b.op(&format!("bwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i - 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        b.init(&["s0"]).unwrap();
        b.goal(&[&format!("s{n}")]).unwrap();
        b.build().unwrap()
    }

    /// Walk the domain taking a fixed op pattern, collecting the ops.
    fn walk(d: &StripsProblem, steps: usize, pick: impl Fn(usize, &[OpId]) -> OpId) -> Vec<OpId> {
        let mut state = d.initial_state();
        let mut ops = Vec::new();
        for i in 0..steps {
            let valid = d.valid_ops_vec(&state);
            let op = pick(i, &valid);
            state = d.apply(&state, op);
            ops.push(op);
        }
        ops
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = chain(6);
        let ops = walk(&d, 10, |i, valid| valid[i % valid.len()]);
        let genome = encode_plan(&d, &d.initial_state(), &ops).unwrap();
        let decoded = Decoder::new().decode_ref(
            &d,
            &d.initial_state(),
            genome.genes(),
            false,
            StateMatchMode::ExactState,
            None,
            None,
        );
        assert_eq!(decoded.ops, ops, "decode must reproduce the encoded plan");
    }

    #[test]
    fn encode_rejects_invalid_ops() {
        let d = chain(3);
        // bwd1 (OpId 3) is invalid at the initial state s0
        let err = encode_plan(&d, &d.initial_state(), &[OpId(3)]).unwrap_err();
        assert_eq!(err, EncodeError::InvalidOp { at: 0, op: OpId(3) });
        assert!(err.to_string().contains("index 0"));
    }

    #[test]
    fn encoded_genes_are_interval_midpoints() {
        let d = chain(4);
        let ops = walk(&d, 4, |_, valid| valid[0]);
        let genome = encode_plan(&d, &d.initial_state(), &ops).unwrap();
        for &g in genome.genes() {
            assert!((0.0..1.0).contains(&g));
            // with k <= 2 valid ops, midpoints are 0.25, 0.5+0.25, or 0.5
            let frac2 = (g * 2.0).fract();
            let frac1 = g;
            assert!((frac2 - 0.5).abs() < 1e-9 || (frac1 - 0.5).abs() < 1e-9, "gene {g} is not a midpoint");
        }
    }

    #[test]
    fn roundtrip_survives_small_perturbation() {
        // midpoint placement tolerates perturbations smaller than half the
        // interval width
        let d = chain(6);
        let ops = walk(&d, 8, |i, valid| valid[i % valid.len()]);
        let genome = encode_plan(&d, &d.initial_state(), &ops).unwrap();
        let nudged: Vec<f64> = genome.genes().iter().map(|g| (g + 0.05).min(0.999_999)).collect();
        let decoded =
            Decoder::new().decode_ref(&d, &d.initial_state(), &nudged, false, StateMatchMode::ExactState, None, None);
        assert_eq!(decoded.ops, ops);
    }

    #[test]
    fn empty_plan_encodes_to_empty_genome() {
        let d = chain(3);
        let genome = encode_plan(&d, &d.initial_state(), &[]).unwrap();
        assert!(genome.is_empty());
    }
}
