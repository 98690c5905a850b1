//! Structural validation: the properties that make SPN inference exact.
//!
//! A network computes a valid probability distribution in a single
//! bottom-up pass iff it is *complete* (every sum node's children share
//! one scope) and *decomposable* (every product node's children have
//! pairwise disjoint scopes) — Poon & Domingos 2011. We additionally
//! check that mixture weights are non-negative and normalized, that every
//! leaf distribution is well-formed, that all nodes are reachable from
//! the root, and that the arena respects the children-before-parents
//! invariant.

use crate::graph::{Node, Spn};
use crate::leaf::LeafError;

/// Validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SpnError {
    /// Arena/topology problem (dangling ids, unreachable nodes, bad root).
    Structure(String),
    /// A sum node whose children cover different scopes.
    Incomplete {
        /// Arena index of the offending sum node.
        node: usize,
        /// Explanation.
        detail: String,
    },
    /// A product node whose children share variables.
    NotDecomposable {
        /// Arena index of the offending product node.
        node: usize,
        /// Explanation.
        detail: String,
    },
    /// Sum weights negative / non-finite / not normalized.
    BadWeights {
        /// Arena index of the offending sum node.
        node: usize,
        /// Explanation.
        detail: String,
    },
    /// An invalid leaf distribution.
    BadLeaf {
        /// Arena index of the offending leaf.
        node: usize,
        /// Underlying leaf error.
        source: LeafError,
    },
}

impl std::fmt::Display for SpnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpnError::Structure(s) => write!(f, "structure error: {s}"),
            SpnError::Incomplete { node, detail } => {
                write!(f, "sum node {node} is not complete: {detail}")
            }
            SpnError::NotDecomposable { node, detail } => {
                write!(f, "product node {node} is not decomposable: {detail}")
            }
            SpnError::BadWeights { node, detail } => {
                write!(f, "sum node {node} has bad weights: {detail}")
            }
            SpnError::BadLeaf { node, source } => {
                write!(f, "leaf node {node}: {source}")
            }
        }
    }
}
impl std::error::Error for SpnError {}

/// Tolerance for weight normalization.
pub(crate) const WEIGHT_TOLERANCE: f64 = 1e-6;

/// Run all structural checks.
pub fn validate(spn: &Spn) -> Result<(), SpnError> {
    if spn.is_empty() {
        return Err(SpnError::Structure("network has no nodes".into()));
    }

    // 1. Arena invariant: children strictly precede parents.
    for (i, node) in spn.nodes().iter().enumerate() {
        for c in node.children() {
            if c.index() >= i {
                return Err(SpnError::Structure(format!(
                    "node {i} references child {} which does not precede it",
                    c.index()
                )));
            }
        }
        if node.children().is_empty() && !node.is_leaf() {
            return Err(SpnError::Structure(format!(
                "inner node {i} has no children"
            )));
        }
    }

    // 2. Leaf distributions.
    for (i, node) in spn.nodes().iter().enumerate() {
        if let Node::Leaf { var, dist } = node {
            if *var >= spn.num_vars() {
                return Err(SpnError::Structure(format!(
                    "leaf {i} models variable {var}, but the network has only {} variables",
                    spn.num_vars()
                )));
            }
            dist.validate()
                .map_err(|source| SpnError::BadLeaf { node: i, source })?;
        }
    }

    // 3. Weights.
    for (i, node) in spn.nodes().iter().enumerate() {
        if let Node::Sum { children, weights } = node {
            if children.len() != weights.len() {
                return Err(SpnError::BadWeights {
                    node: i,
                    detail: format!("{} children but {} weights", children.len(), weights.len()),
                });
            }
            if weights.is_empty() {
                return Err(SpnError::BadWeights {
                    node: i,
                    detail: "no weights".into(),
                });
            }
            if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(SpnError::BadWeights {
                    node: i,
                    detail: format!("weights must be finite and >= 0, got {weights:?}"),
                });
            }
            let total: f64 = weights.iter().sum();
            if (total - 1.0).abs() > WEIGHT_TOLERANCE {
                return Err(SpnError::BadWeights {
                    node: i,
                    detail: format!("weights sum to {total}, expected ~1"),
                });
            }
        }
    }

    // 4. Completeness + decomposability via bottom-up scopes.
    let scopes = spn.scopes();
    for (i, node) in spn.nodes().iter().enumerate() {
        match node {
            Node::Sum { children, .. } => {
                let first = &scopes[children[0].index()];
                for c in &children[1..] {
                    if !first.same_as(&scopes[c.index()]) {
                        return Err(SpnError::Incomplete {
                            node: i,
                            detail: format!(
                                "child {} has scope {:?} but child {} has scope {:?}",
                                children[0].index(),
                                first,
                                c.index(),
                                scopes[c.index()]
                            ),
                        });
                    }
                }
            }
            Node::Product { children } => {
                // Pairwise disjointness is equivalent to: union size equals
                // sum of sizes. O(children * scope words) instead of O(n^2).
                let mut union = crate::scope::Scope::empty();
                let mut size_sum = 0usize;
                for c in children {
                    let cs = &scopes[c.index()];
                    size_sum += cs.len();
                    union.union_with(cs);
                }
                if union.len() != size_sum {
                    return Err(SpnError::NotDecomposable {
                        node: i,
                        detail: format!(
                            "children scopes overlap (union {} vars, sum of sizes {})",
                            union.len(),
                            size_sum
                        ),
                    });
                }
            }
            Node::Leaf { .. } => {}
        }
    }

    // 5. Reachability: every node participates in the root's computation.
    let mut reachable = vec![false; spn.len()];
    reachable[spn.root().index()] = true;
    for i in (0..spn.len()).rev() {
        if reachable[i] {
            for c in spn.nodes()[i].children() {
                reachable[c.index()] = true;
            }
        }
    }
    if let Some(orphan) = reachable.iter().position(|&r| !r) {
        return Err(SpnError::Structure(format!(
            "node {orphan} is unreachable from the root"
        )));
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;
    use crate::leaf::Leaf;

    fn coin(b: &mut SpnBuilder, var: usize, p: f64) -> crate::graph::NodeId {
        b.leaf(var, Leaf::byte_histogram(&[1.0 - p, p]))
    }

    #[test]
    fn valid_network_passes() {
        let mut b = SpnBuilder::new(2);
        let a0 = coin(&mut b, 0, 0.5);
        let a1 = coin(&mut b, 1, 0.3);
        let b0 = coin(&mut b, 0, 0.1);
        let b1 = coin(&mut b, 1, 0.9);
        let p1 = b.product(vec![a0, a1]);
        let p2 = b.product(vec![b0, b1]);
        let root = b.sum(vec![(0.4, p1), (0.6, p2)]);
        assert!(b.finish(root, "ok").is_ok());
    }

    #[test]
    fn incomplete_sum_rejected() {
        let mut b = SpnBuilder::new(2);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 1, 0.5);
        let s = b.sum(vec![(0.5, a), (0.5, c)]);
        match b.finish(s, "x").unwrap_err() {
            SpnError::Incomplete { node, .. } => assert_eq!(node, 2),
            e => panic!("wrong error {e}"),
        }
    }

    #[test]
    fn overlapping_product_rejected() {
        let mut b = SpnBuilder::new(2);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 0, 0.5); // same variable!
        let p = b.product(vec![a, c]);
        match b.finish(p, "x").unwrap_err() {
            SpnError::NotDecomposable { node, .. } => assert_eq!(node, 2),
            e => panic!("wrong error {e}"),
        }
    }

    #[test]
    fn unnormalized_weights_rejected() {
        let mut b = SpnBuilder::new(1);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 0, 0.1);
        let s = b.sum(vec![(0.5, a), (0.6, c)]);
        match b.finish(s, "x").unwrap_err() {
            SpnError::BadWeights { node, .. } => assert_eq!(node, 2),
            e => panic!("wrong error {e}"),
        }
    }

    #[test]
    fn negative_weight_rejected() {
        let mut b = SpnBuilder::new(1);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 0, 0.1);
        let s = b.sum(vec![(-0.5, a), (1.5, c)]);
        assert!(matches!(
            b.finish(s, "x").unwrap_err(),
            SpnError::BadWeights { .. }
        ));
    }

    #[test]
    fn bad_leaf_rejected() {
        let mut b = SpnBuilder::new(1);
        // Densities sum to 2: invalid histogram mass.
        let l = b.leaf(0, Leaf::byte_histogram(&[1.0, 1.0]));
        assert!(matches!(
            b.finish(l, "x").unwrap_err(),
            SpnError::BadLeaf { node: 0, .. }
        ));
    }

    #[test]
    fn unreachable_node_rejected() {
        let mut b = SpnBuilder::new(1);
        let a = coin(&mut b, 0, 0.5);
        let _orphan = coin(&mut b, 0, 0.9);
        // Root is just `a`; the orphan never participates.
        match b.finish(a, "x").unwrap_err() {
            SpnError::Structure(msg) => assert!(msg.contains("unreachable")),
            e => panic!("wrong error {e}"),
        }
    }

    #[test]
    fn single_leaf_is_valid() {
        let mut b = SpnBuilder::new(1);
        let a = coin(&mut b, 0, 0.5);
        assert!(b.finish(a, "leaf-only").is_ok());
    }

    #[test]
    fn weight_tolerance_accepts_near_one() {
        let mut b = SpnBuilder::new(1);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 0, 0.1);
        let s = b.sum(vec![(0.5 + 1e-9, a), (0.5, c)]);
        assert!(b.finish(s, "x").is_ok());
    }
}
