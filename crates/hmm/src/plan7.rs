//! The Plan-7 core model — HMMER's `P7_HMM`.
//!
//! A core model of length `M` has one node per consensus column, each with a
//! Match state (position-specific emissions), an Insert state (background-like
//! emissions) and a Delete state (silent). Seven transition types connect
//! consecutive nodes (Fig. 3 of the paper): M→M, M→I, M→D, I→M, I→I, D→M,
//! D→D. The search profile (entry/exit, N/C/J flanks, length model) is
//! derived from this core model by [`crate::profile::Profile::config`].

use crate::alphabet::N_STANDARD;

/// Transition probabilities out of one node of the core model.
///
/// `mm + mi + md = 1`, `im + ii = 1`, `dm + dd = 1` (within tolerance).
/// For node `k` these are the transitions from state `k` to state `k+1`
/// (`mi`/`ii` loop within node `k`'s insert).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeTrans {
    pub mm: f32,
    pub mi: f32,
    pub md: f32,
    pub im: f32,
    pub ii: f32,
    pub dm: f32,
    pub dd: f32,
}

impl NodeTrans {
    /// Transition set typical of a well-conserved column.
    pub fn conserved() -> Self {
        NodeTrans {
            mm: 0.95,
            mi: 0.03,
            md: 0.02,
            im: 0.60,
            ii: 0.40,
            dm: 0.70,
            dd: 0.30,
        }
    }

    /// Largest deviation of the three outgoing distributions from 1.
    pub fn normalization_error(&self) -> f32 {
        let em = (self.mm + self.mi + self.md - 1.0).abs();
        let ei = (self.im + self.ii - 1.0).abs();
        let ed = (self.dm + self.dd - 1.0).abs();
        em.max(ei).max(ed)
    }
}

/// One node of the core model: match emissions, insert emissions, and
/// outgoing transitions.
#[derive(Debug, Clone)]
pub struct Node {
    /// Match emission distribution over the 20 standard residues.
    pub mat: [f32; N_STANDARD],
    /// Insert emission distribution over the 20 standard residues.
    pub ins: [f32; N_STANDARD],
    /// Outgoing transitions of this node.
    pub t: NodeTrans,
}

/// A Plan-7 core model.
#[derive(Debug, Clone)]
pub struct CoreModel {
    /// Model name (e.g. a synthetic Pfam-like accession).
    pub name: String,
    /// Nodes `1..=M`; `nodes[k-1]` is node `k`.
    pub nodes: Vec<Node>,
    /// Consensus residue per node (standard residue codes), for trace and
    /// homolog-sequence sampling.
    pub consensus: Vec<u8>,
}

/// Validation failure for a [`CoreModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Model must have at least one node.
    Empty,
    /// Emission or transition distribution of node `k` is not normalized.
    NotNormalized { node: usize, error: f32 },
    /// Consensus length differs from node count.
    ConsensusMismatch,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Empty => write!(f, "model has no nodes"),
            ModelError::NotNormalized { node, error } => {
                write!(f, "node {node} distributions off by {error}")
            }
            ModelError::ConsensusMismatch => write!(f, "consensus length != node count"),
        }
    }
}

impl std::error::Error for ModelError {}

impl CoreModel {
    /// Model length `M` (number of consensus columns).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the model has no nodes (invalid for search).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Check distribution normalization and structural invariants.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.nodes.is_empty() {
            return Err(ModelError::Empty);
        }
        if self.consensus.len() != self.nodes.len() {
            return Err(ModelError::ConsensusMismatch);
        }
        const TOL: f32 = 1e-3;
        for (i, node) in self.nodes.iter().enumerate() {
            let me: f32 = node.mat.iter().sum::<f32>() - 1.0;
            let ie: f32 = node.ins.iter().sum::<f32>() - 1.0;
            let err = me.abs().max(ie.abs()).max(node.t.normalization_error());
            if err > TOL {
                return Err(ModelError::NotNormalized {
                    node: i + 1,
                    error: err,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> CoreModel {
        let mut mat = [0.0f32; N_STANDARD];
        mat[0] = 1.0;
        let ins = [1.0 / N_STANDARD as f32; N_STANDARD];
        let node = Node {
            mat,
            ins,
            t: NodeTrans::conserved(),
        };
        CoreModel {
            name: "tiny".into(),
            nodes: vec![node.clone(), node.clone(), node],
            consensus: vec![0, 0, 0],
        }
    }

    #[test]
    fn valid_model_passes() {
        tiny_model().validate().unwrap();
    }

    #[test]
    fn empty_model_rejected() {
        let m = CoreModel {
            name: "e".into(),
            nodes: vec![],
            consensus: vec![],
        };
        assert_eq!(m.validate(), Err(ModelError::Empty));
    }

    #[test]
    fn consensus_mismatch_rejected() {
        let mut m = tiny_model();
        m.consensus.pop();
        assert_eq!(m.validate(), Err(ModelError::ConsensusMismatch));
    }

    #[test]
    fn denormalized_rejected() {
        let mut m = tiny_model();
        m.nodes[1].t.mm = 0.5; // breaks mm+mi+md=1
        match m.validate() {
            Err(ModelError::NotNormalized { node: 2, .. }) => {}
            other => panic!("expected NotNormalized node 2, got {other:?}"),
        }
    }
}
