//! The SPN graph: an arena of sum, product and leaf nodes forming a DAG.
//!
//! Nodes live in a flat arena indexed by [`NodeId`]; children always have
//! *smaller* ids than their parents (the arena is constructed bottom-up),
//! so a forward scan of the arena is already a topological order. That
//! invariant makes inference a single linear pass and mirrors how the
//! hardware generator levelizes the network into a pipeline.

use crate::leaf::Leaf;
use crate::scope::Scope;
use serde::{Deserialize, Serialize};

/// Index of a node in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Mixture: weighted sum of children over the *same* scope.
    Sum {
        /// Child node ids (must precede this node in the arena).
        children: Vec<NodeId>,
        /// Mixture weights, parallel to `children`; must sum to ~1.
        weights: Vec<f64>,
    },
    /// Factorization: product of children over *disjoint* scopes.
    Product {
        /// Child node ids (must precede this node in the arena).
        children: Vec<NodeId>,
    },
    /// Univariate distribution over variable `var`.
    Leaf {
        /// Variable index this leaf models.
        var: usize,
        /// The distribution.
        dist: Leaf,
    },
}

impl Node {
    /// Child ids of this node (empty for leaves).
    pub(crate) fn children(&self) -> &[NodeId] {
        match self {
            Node::Sum { children, .. } | Node::Product { children } => children,
            Node::Leaf { .. } => &[],
        }
    }

    /// True for product nodes.
    pub(crate) fn is_product(&self) -> bool {
        matches!(self, Node::Product { .. })
    }

    /// True for leaf nodes.
    pub(crate) fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }
}

/// A complete Sum-Product Network.
///
/// Construct via [`crate::builder::SpnBuilder`], the textual parser in
/// [`crate::text`] (how an SPFlow-trained model enters), or the
/// generators in [`crate::random`] / [`crate::nips`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spn {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeId,
    pub(crate) num_vars: usize,
    /// Human-readable name (benchmark id etc.).
    pub name: String,
}

/// Aggregate structural statistics of a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpnStats {
    /// Total node count.
    pub nodes: usize,
    /// Sum node count.
    pub sums: usize,
    /// Product node count.
    pub products: usize,
    /// Leaf node count.
    pub leaves: usize,
    /// Total edge count (sum of child-list lengths).
    pub edges: usize,
    /// Longest root-to-leaf path length in edges.
    pub depth: usize,
    /// Number of random variables.
    pub variables: usize,
}

impl Spn {
    /// Access the node arena (topologically ordered, leaves first).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Look up one node.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The root node id (always the last arena slot).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of random variables the network is defined over.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the arena is empty (never the case for a built SPN).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Compute the scope of every node bottom-up. Index by `NodeId::index`.
    pub(crate) fn scopes(&self) -> Vec<Scope> {
        let mut scopes: Vec<Scope> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let s = match node {
                Node::Leaf { var, .. } => Scope::singleton(*var),
                Node::Sum { children, .. } | Node::Product { children } => {
                    let mut s = Scope::empty();
                    for c in children {
                        s.union_with(&scopes[c.index()]);
                    }
                    s
                }
            };
            scopes.push(s);
        }
        scopes
    }

    /// Per-node depth (longest path to a leaf, leaves = 0), bottom-up.
    pub(crate) fn node_depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            depth[i] = node
                .children()
                .iter()
                .map(|c| depth[c.index()] + 1)
                .max()
                .unwrap_or(0);
        }
        depth
    }

    /// Structural statistics.
    pub fn stats(&self) -> SpnStats {
        let mut sums = 0;
        let mut products = 0;
        let mut leaves = 0;
        let mut edges = 0;
        for n in &self.nodes {
            match n {
                Node::Sum { .. } => sums += 1,
                Node::Product { .. } => products += 1,
                Node::Leaf { .. } => leaves += 1,
            }
            edges += n.children().len();
        }
        SpnStats {
            nodes: self.nodes.len(),
            sums,
            products,
            leaves,
            edges,
            depth: self.node_depths()[self.root.index()],
            variables: self.num_vars,
        }
    }

    /// A structural fingerprint of the network: identical structure
    /// and parameters (name excluded) hash identically; any change to
    /// topology, weights, or leaf parameters changes the hash with
    /// overwhelming probability. This is the key the runtime's plan
    /// cache uses to recognize a model it has already compiled.
    ///
    /// The value is the same on every platform and in every build of
    /// one version of the library (the hash folds every integer as a
    /// `u64` word, never as native-endian bytes), but it is *not* a stable
    /// serialization format across versions.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = WordHasher(0xcbf2_9ce4_8422_2325);
        self.num_vars.hash(&mut h);
        self.root.0.hash(&mut h);
        self.nodes.len().hash(&mut h);
        for node in &self.nodes {
            match node {
                Node::Sum { children, weights } => {
                    0u8.hash(&mut h);
                    children.len().hash(&mut h);
                    for (c, w) in children.iter().zip(weights) {
                        c.0.hash(&mut h);
                        w.to_bits().hash(&mut h);
                    }
                }
                Node::Product { children } => {
                    1u8.hash(&mut h);
                    children.len().hash(&mut h);
                    for c in children {
                        c.0.hash(&mut h);
                    }
                }
                Node::Leaf { var, dist } => {
                    2u8.hash(&mut h);
                    var.hash(&mut h);
                    match dist {
                        Leaf::Histogram { breaks, densities } => {
                            3u8.hash(&mut h);
                            breaks.len().hash(&mut h);
                            for b in breaks {
                                b.to_bits().hash(&mut h);
                            }
                            for d in densities {
                                d.to_bits().hash(&mut h);
                            }
                        }
                        Leaf::Gaussian { mean, std } => {
                            4u8.hash(&mut h);
                            mean.to_bits().hash(&mut h);
                            std.to_bits().hash(&mut h);
                        }
                        Leaf::Categorical { probs } => {
                            5u8.hash(&mut h);
                            probs.len().hash(&mut h);
                            for p in probs {
                                p.to_bits().hash(&mut h);
                            }
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

/// [`Spn::fingerprint`]'s hash: one multiply–rotate per 64-bit word,
/// then the splitmix64 finaliser (`sim-core`'s, copied: `spn-core`
/// does not depend on `sim-core`). Not cryptographic. For a fixed word
/// each step (xor, multiply by an odd constant, rotate) is a bijection
/// of the running state, so two inputs of one length that differ in a
/// single word always hash apart; the rotate brings the product's
/// well-mixed high bits down to where the next multiply spreads them,
/// and the finaliser supplies the avalanche. Every integer is widened
/// to a `u64` word, so the value does not depend on the platform's
/// endianness or `usize` width. A NIPS80 fingerprint (~82 k words) is
/// a ~0.19 ms dependent chain on a 2.1 GHz Xeon, where std's SipHash
/// took 0.5–0.9 ms.
struct WordHasher(u64);

impl std::hash::Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;

    impl Spn {
        /// Ids of all leaf nodes in arena order.
        fn leaf_ids(&self) -> Vec<NodeId> {
            self.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_leaf())
                .map(|(i, _)| NodeId(i as u32))
                .collect()
        }
    }

    /// Tiny two-variable mixture used across graph tests.
    fn small_spn() -> Spn {
        let mut b = SpnBuilder::new(2);
        let l0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let l1 = b.leaf(1, Leaf::byte_histogram(&[0.25, 0.75]));
        let l0b = b.leaf(0, Leaf::byte_histogram(&[0.9, 0.1]));
        let l1b = b.leaf(1, Leaf::byte_histogram(&[0.1, 0.9]));
        let p1 = b.product(vec![l0, l1]);
        let p2 = b.product(vec![l0b, l1b]);
        let s = b.sum(vec![(0.3, p1), (0.7, p2)]);
        b.finish(s, "small").unwrap()
    }

    #[test]
    fn arena_is_topological() {
        let spn = small_spn();
        for (i, node) in spn.nodes().iter().enumerate() {
            for c in node.children() {
                assert!(c.index() < i, "child {c:?} not before parent {i}");
            }
        }
        assert_eq!(spn.root().index(), spn.len() - 1);
    }

    #[test]
    fn scopes_propagate() {
        let spn = small_spn();
        let scopes = spn.scopes();
        let root_scope = &scopes[spn.root().index()];
        assert_eq!(root_scope.len(), 2);
        assert!(root_scope.contains(0) && root_scope.contains(1));
        // Leaves have singleton scopes.
        for id in spn.leaf_ids() {
            assert_eq!(scopes[id.index()].len(), 1);
        }
    }

    #[test]
    fn stats_counts() {
        let spn = small_spn();
        let st = spn.stats();
        assert_eq!(st.nodes, 7);
        assert_eq!(st.sums, 1);
        assert_eq!(st.products, 2);
        assert_eq!(st.leaves, 4);
        assert_eq!(st.edges, 2 + 2 + 2);
        assert_eq!(st.depth, 2);
        assert_eq!(st.variables, 2);
    }

    #[test]
    fn node_depths() {
        let spn = small_spn();
        let d = spn.node_depths();
        assert_eq!(d[spn.root().index()], 2);
        for id in spn.leaf_ids() {
            assert_eq!(d[id.index()], 0);
        }
    }

    #[test]
    fn fingerprint_tracks_structure_not_name() {
        let spn = small_spn();
        let mut renamed = spn.clone();
        renamed.name = "other".into();
        assert_eq!(spn.fingerprint(), renamed.fingerprint());

        let mut reweighted = spn.clone();
        if let Node::Sum { weights, .. } = &mut reweighted.nodes[6] {
            weights[0] = 0.4;
            weights[1] = 0.6;
        }
        assert_ne!(spn.fingerprint(), reweighted.fingerprint());

        let mut releafed = spn.clone();
        if let Node::Leaf { dist, .. } = &mut releafed.nodes[0] {
            *dist = Leaf::byte_histogram(&[0.25, 0.75]);
        }
        assert_ne!(spn.fingerprint(), releafed.fingerprint());
    }

    /// The fingerprint hashes fixed-width words, so its value is pinned:
    /// the same on every platform and build of this version.
    #[test]
    fn fingerprint_known_answers() {
        use crate::nips::NipsBenchmark;
        assert_eq!(
            NipsBenchmark::Nips10.build_spn().fingerprint(),
            0x7cd5_f280_a26c_33e8
        );
        assert_eq!(
            NipsBenchmark::Nips80.build_spn().fingerprint(),
            0xae52_6635_d44c_329d
        );
    }

    /// One parameter or one child's position changes the fingerprint,
    /// for each leaf kind and for a product.
    #[test]
    fn fingerprint_tracks_every_parameter_and_child_order() {
        let mut b = SpnBuilder::new(3);
        let g = b.leaf(
            0,
            Leaf::Gaussian {
                mean: 40.0,
                std: 9.0,
            },
        );
        let c = b.leaf(
            1,
            Leaf::Categorical {
                probs: vec![0.2, 0.3, 0.5],
            },
        );
        let h = b.leaf(2, Leaf::byte_histogram(&[0.25, 0.25, 0.5]));
        let p = b.product(vec![g, c, h]);
        let spn = b.finish(p, "mixed").unwrap();
        type Edit = fn(&mut [Node]);
        let edits: [(&str, Edit); 4] = [
            ("a Gaussian's std", |n| match &mut n[0] {
                Node::Leaf {
                    dist: Leaf::Gaussian { std, .. },
                    ..
                } => *std = 9.5,
                _ => unreachable!(),
            }),
            ("a categorical prob", |n| match &mut n[1] {
                Node::Leaf {
                    dist: Leaf::Categorical { probs },
                    ..
                } => probs[2] = 0.45,
                _ => unreachable!(),
            }),
            ("a histogram break", |n| match &mut n[2] {
                Node::Leaf {
                    dist: Leaf::Histogram { breaks, .. },
                    ..
                } => breaks[1] = 1.5,
                _ => unreachable!(),
            }),
            ("a product's child order", |n| match &mut n[3] {
                Node::Product { children } => children.swap(0, 2),
                _ => unreachable!(),
            }),
        ];
        for (what, edit) in edits {
            let mut other = spn.clone();
            edit(&mut other.nodes);
            assert_ne!(other, spn);
            assert_ne!(
                other.fingerprint(),
                spn.fingerprint(),
                "changing {what} left the fingerprint as it was"
            );
        }
    }

    #[test]
    fn node_kind_predicates() {
        let spn = small_spn();
        let root = spn.node(spn.root());
        assert!(matches!(root, Node::Sum { .. }) && !root.is_product() && !root.is_leaf());
        assert_eq!(root.children().len(), 2);
    }
}
