//! Bottom-up construction of SPNs with validation at `finish`.
//!
//! The builder hands out [`NodeId`]s as nodes are added; because ids are
//! assigned in insertion order and children must already exist, the
//! resulting arena is topologically sorted by construction — the
//! invariant everything downstream (inference, pipeline scheduling)
//! relies on.

use crate::graph::{Node, NodeId, Spn};
use crate::leaf::Leaf;
use crate::validate::{validate, SpnError};

/// Incremental SPN constructor.
///
/// ```
/// use spn_core::{SpnBuilder, Leaf};
///
/// let mut b = SpnBuilder::new(2);
/// let x0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
/// let x1 = b.leaf(1, Leaf::byte_histogram(&[0.2, 0.8]));
/// let prod = b.product(vec![x0, x1]);
/// let spn = b.finish(prod, "example").unwrap();
/// assert_eq!(spn.len(), 3);
/// ```
pub struct SpnBuilder {
    nodes: Vec<Node>,
    num_vars: usize,
}

impl SpnBuilder {
    /// Start building a network over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        SpnBuilder {
            nodes: Vec::new(),
            num_vars,
        }
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("more than 2^32 nodes"));
        self.nodes.push(node);
        id
    }

    /// Add a leaf for variable `var`.
    ///
    /// # Panics
    /// Panics if `var` is out of range — that is a construction bug, not
    /// a data error.
    pub fn leaf(&mut self, var: usize, dist: Leaf) -> NodeId {
        assert!(
            var < self.num_vars,
            "leaf variable {var} out of range (num_vars = {})",
            self.num_vars
        );
        self.push(Node::Leaf { var, dist })
    }

    /// Add a product over existing children.
    pub fn product(&mut self, children: Vec<NodeId>) -> NodeId {
        self.assert_children_exist(&children);
        self.push(Node::Product { children })
    }

    /// Add a weighted sum over existing children.
    pub fn sum(&mut self, weighted: Vec<(f64, NodeId)>) -> NodeId {
        let (weights, children): (Vec<f64>, Vec<NodeId>) = weighted.into_iter().unzip();
        self.assert_children_exist(&children);
        self.push(Node::Sum { children, weights })
    }

    fn assert_children_exist(&self, children: &[NodeId]) {
        for c in children {
            assert!(
                c.index() < self.nodes.len(),
                "child {c:?} does not exist yet (arena has {} nodes)",
                self.nodes.len()
            );
        }
    }

    /// Finalize with `root` and run full structural validation
    /// (completeness, decomposability, normalized weights, reachability).
    pub fn finish(self, root: NodeId, name: &str) -> Result<Spn, SpnError> {
        if root.index() >= self.nodes.len() {
            return Err(SpnError::Structure(format!(
                "root {root:?} does not exist (arena has {} nodes)",
                self.nodes.len()
            )));
        }
        let spn = Spn {
            nodes: self.nodes,
            root,
            num_vars: self.num_vars,
            name: name.to_string(),
        };
        validate(&spn)?;
        Ok(spn)
    }

    /// Finalize without validation. For tests that deliberately construct
    /// invalid networks, and for trusted generators on hot paths.
    pub fn finish_unchecked(self, root: NodeId, name: &str) -> Spn {
        Spn {
            nodes: self.nodes,
            root,
            num_vars: self.num_vars,
            name: name.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin(b: &mut SpnBuilder, var: usize, p: f64) -> NodeId {
        b.leaf(var, Leaf::byte_histogram(&[1.0 - p, p]))
    }

    #[test]
    fn builds_valid_network() {
        let mut b = SpnBuilder::new(2);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 1, 0.3);
        let p = b.product(vec![a, c]);
        assert_eq!(b.nodes.len(), 3);
        let spn = b.finish(p, "t").unwrap();
        assert_eq!(spn.num_vars(), 2);
        assert_eq!(spn.name, "t");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn leaf_var_out_of_range_panics() {
        let mut b = SpnBuilder::new(1);
        b.leaf(1, Leaf::byte_histogram(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn dangling_child_panics() {
        let mut b = SpnBuilder::new(1);
        b.product(vec![NodeId(5)]);
    }

    #[test]
    fn bad_root_is_error() {
        let mut b = SpnBuilder::new(1);
        let _ = coin(&mut b, 0, 0.5);
        let err = b.finish(NodeId(9), "bad").unwrap_err();
        assert!(format!("{err}").contains("root"));
    }

    #[test]
    fn invalid_structure_rejected_at_finish() {
        // Sum over mismatched scopes violates completeness.
        let mut b = SpnBuilder::new(2);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 1, 0.5);
        let s = b.sum(vec![(0.5, a), (0.5, c)]);
        assert!(b.finish(s, "incomplete").is_err());
    }

    #[test]
    fn finish_unchecked_skips_validation() {
        let mut b = SpnBuilder::new(2);
        let a = coin(&mut b, 0, 0.5);
        let c = coin(&mut b, 1, 0.5);
        let s = b.sum(vec![(0.5, a), (0.5, c)]);
        let spn = b.finish_unchecked(s, "invalid-ok");
        assert_eq!(spn.len(), 3);
    }
}
