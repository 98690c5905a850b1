//! Compiled inference plans: compile once, execute many.
//!
//! The tree-walking [`crate::Evaluator`] re-dispatches on every node of
//! every sample — enum match, bounds checks, and a binary search per
//! histogram leaf. This module compiles an [`Spn`] *once* into a flat
//! [`CompiledPlan`] and evaluates whole byte [`crate::Dataset`] slices
//! with a batched [`PlanExecutor`]:
//!
//! * **Flat `Copy` ops over four arenas.** The arena is already a
//!   level-consistent topological order (children strictly precede
//!   parents), so ops are emitted in arena order and executed as a
//!   linear scan — the same schedule the hardware pipeline uses. An op
//!   is a kind, its operand counts and the scratch row it writes (a sum
//!   group's rows sit in an arena). Product factors, sum rows and sum
//!   weights live in three arenas in op order, so the scan consumes them
//!   front to back and an op's operands are "the next `n`"; leaf tables
//!   live in a fourth, indexed by record. No op owns a heap allocation.
//! * **The paper's arithmetic: linear, with a carried exponent.** A
//!   value is a pair `(m, e)` meaning `m·2^e` (`math.rs`), as the
//!   paper's CFP format keeps a wide exponent beside its mantissa.
//!   Products multiply mantissas and add exponents, then renormalise
//!   once, or after every factor where a compile-time range check
//!   (`infer::renormalises_each_factor`) says the running product could
//!   leave the normal doubles. Sums scale each term onto the largest
//!   exponent by an exact power of two and add the weighted mantissas.
//!   The root's one `ln` gives the log-likelihood: no `exp` anywhere,
//!   and one `ln` per sample where a log-sum-exp took one per sum and an
//!   `exp` per term (NIPS80: 31 and 62).
//! * **Only live values have rows.** A value nobody reads has no op. A
//!   product reads a leaf's table entry in place, at the leaf's position
//!   in its child order — as the paper's datapath feeds a histogram
//!   lookup straight into its multiplier tree — so a leaf has an op and
//!   a row only where a sum reads it or it is the root. Every other
//!   value takes a scratch row (a mantissa and an exponent lane array)
//!   from a free list and gives it back after its last reader, so the
//!   scratch holds what is live at once (12 rows for NIPS80's 283
//!   nodes). The root's row, the one a caller reads, is never freed.
//! * **Sums that read the same children share a max and a scale
//!   pass.** A sum whose `w > 0` children are the same nodes, in the
//!   same order, as those of the sum op just before it joins that op. A
//!   region's sums mix the same products with different weights, so
//!   their largest exponent and every scaled term are the same bits: the
//!   group computes them once and each member accumulates its own
//!   weighted sum in its own row. NIPS80's 31 sums run as 16 ops.
//! * **Leaf lookup tables.** Datasets are byte matrices (domain ≤ 256),
//!   so every leaf lowers to a 256-entry density table,
//!   [`Leaf::byte_table`](crate::Leaf::byte_table), bit for bit the
//!   oracle's density — one indexed load per sample replaces a binary
//!   search, and the compile takes no logarithm.
//! * **One lane-wide kernel.** The executor evaluates up to [`LANES`]
//!   samples per pass; a pass of `W` lanes views its scratch as
//!   `[[f64; W]; 2]` rows, so a child's lanes are one indexed row (the
//!   lane stride is in the type). Every op reads and writes fixed-size
//!   lane arrays: trip counts are constants and no lane is bounds-
//!   checked. The one kernel body runs whole `W = LANES` chunks, then
//!   `W = 16` chunks of what is left, then single rows; a chunk runs
//!   at the widest instruction-set tier the CPU supports ([`crate::isa`]),
//!   a single row at the build's own.
//!
//! Bit-exactness against the [`crate::Evaluator`] oracle is a hard
//! contract (pinned by `tests/plan_differential.rs`). Lane-wide
//! execution keeps it because lanes never mix: each pass applies to lane
//! `l` exactly the operations, in exactly the order, the oracle applies
//! to sample `l` — only the interleaving *between* samples changes — and
//! both sides call the same `math.rs` functions, which use no fused
//! multiply-add and so compute the same bits at every register width.
//! A group member's sum is its own row, and the shared largest exponent
//! and scaled terms are the oracle's bits for each member. A leaf read
//! in place multiplies in the very density the oracle's leaf value
//! holds, with the exponent `0` the oracle adds; a leaf row holds it
//! renormalised, as the oracle renormalises a sum's leaf term.

use crate::dataset::Dataset;
use crate::graph::{Node, Spn};
use crate::infer::renormalises_each_factor;
use crate::isa;
use crate::math;
use crate::query::Query;
use serde::{Deserialize, Serialize};

/// Samples evaluated per executor pass (the batch-major lane width),
/// chosen by measurement: see DESIGN.md, "Plan lane width".
pub const LANES: usize = 64;

/// Lane width of the passes over what [`LANES`] chunks leave (≤ 15 single rows remain).
const TAIL_LANES: usize = 16;

/// Entries in a lowered leaf table: one per possible byte value.
const TABLE_SIZE: usize = 256;

/// One product factor in the factor arena, in source child order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Factor {
    /// A child's value, read from this scratch row.
    Row(u32),
    /// A leaf read in place: this leaf record, at the sample's byte.
    Leaf(u32),
}

/// One leaf's record in the leaf arena: its table and its variable. The
/// extra slot also keeps the stride (2056 bytes) off a power of two —
/// at a bare 2 KiB, entry `v` of every table maps to the same two L1
/// sets, and a row that repeats a byte value across variables evicts its
/// own tables.
#[derive(Debug, Clone, PartialEq)]
struct LeafTable {
    /// `table[v]` = density at byte value `v`.
    table: [f64; TABLE_SIZE],
    /// Variable (= dataset column) this leaf reads.
    var: u32,
}

/// One flat instruction: a kind, how much of an arena it consumes and
/// where it writes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanOp {
    /// A leaf a sum reads, or the root: this record's density at the
    /// sample's byte, renormalised, into this row.
    Leaf { leaf: u32, row: u32 },
    /// Product of the next `n` factors, in order, into this row:
    /// renormalised after every factor when `each`, else once.
    Product { n: u32, row: u32, each: bool },
    /// A sum group: `k` sums over the same `n` children in the same
    /// order. Each member's weighted sum of the children's rows — the
    /// next `n` sum rows — goes into its own row, the `k` after them;
    /// the next `k × n` weights are the members', member by member.
    Sum { n: u32, k: u32 },
}

/// Structural statistics of a compiled plan (telemetry payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Total op count (= node count of the source network).
    pub ops: usize,
    /// Leaf-table ops.
    pub leaf_ops: usize,
    /// Product ops.
    pub product_ops: usize,
    /// Sum ops.
    pub sum_ops: usize,
    /// Largest compiled sum fan-in.
    pub max_sum_fan_in: usize,
    /// Bytes held in leaf lookup tables.
    pub table_bytes: usize,
}

/// An [`Spn`] compiled to a flat instruction buffer.
///
/// Compile once with [`CompiledPlan::compile`], then evaluate any
/// number of batches through [`PlanExecutor`]. The plan is immutable
/// and shareable (`Arc<CompiledPlan>` is the unit the runtime's plan
/// cache stores).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// The ops, in arena order.
    ops: Vec<PlanOp>,
    /// Product factors of every op, in op order.
    factors: Vec<Factor>,
    /// Rows every sum op reads and writes, in op order.
    sum_rows: Vec<u32>,
    /// Linear sum weights (all `> 0`) of every op, in op order.
    weights: Vec<f64>,
    /// One record per leaf, in arena order.
    leaves: Vec<LeafTable>,
    /// Scratch rows a pass needs: the most values live at once.
    scratch_rows: usize,
    /// The scratch row of the root, the one value a pass yields.
    root_row: u32,
    num_vars: usize,
    name: String,
    stats: PlanStats,
}

/// The children a node's op reads, in child order, with their weights:
/// a product's every factor (weight 1), a sum's `w > 0` terms.
fn operands(node: &Node) -> impl Iterator<Item = (usize, f64)> + '_ {
    let weights = match node {
        Node::Sum { weights, .. } => &weights[..],
        _ => &[],
    };
    let weights = weights.iter().copied().chain(std::iter::repeat(1.0));
    node.children()
        .iter()
        .zip(weights)
        .filter(|&(_, w)| w > 0.0)
        .map(|(c, w)| (c.index(), w))
}

impl CompiledPlan {
    /// Lower `spn` into a flat plan that yields the root's value. Cost
    /// is one pass over the arena plus, per leaf, one walk of its
    /// buckets ([`Leaf::byte_table`](crate::Leaf::byte_table)).
    pub fn compile(spn: &Spn) -> CompiledPlan {
        let (nodes, shape) = (spn.nodes(), spn.stats());
        let (n, root) = (nodes.len(), spn.root().index());
        // A product reads a leaf in place; every other read is of a row.
        let reads_row = |parent: &Node, c: usize| !(parent.is_product() && nodes[c].is_leaf());
        // Who reads each value's row: the ops of its live parents, and —
        // without end — the caller, for the root. A value whose row
        // nobody reads gets no op.
        let mut readers = vec![0u32; n];
        readers[root] = u32::MAX;
        for (i, node) in nodes.iter().enumerate().rev() {
            if readers[i] > 0 {
                for (c, _) in operands(node).filter(|&(c, _)| reads_row(node, c)) {
                    readers[c] = readers[c].saturating_add(1);
                }
            }
        }

        let (mut leaves, mut leaf_of) = (Vec::with_capacity(shape.leaves), vec![0u32; n]);
        let (mut ops, mut factors) = (Vec::with_capacity(n), Vec::new());
        let (mut sum_rows, mut weights) = (Vec::new(), Vec::new());
        let (mut row_of, mut free, mut rows) = (vec![0u32; n], Vec::new(), 0);
        let (mut max_sum_fan_in, mut prev) = (0, 0);
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Leaf { var, dist } = node {
                leaf_of[i] = leaves.len() as u32;
                leaves.push(LeafTable {
                    table: dist.byte_table(|d| d),
                    var: *var as u32,
                });
            }
            if readers[i] == 0 {
                continue;
            }
            // An op takes its row before its operands give theirs back,
            // so a sum group can write its members' rows while it still
            // reads its children.
            let row = free.pop().unwrap_or(rows);
            rows = rows.max(row + 1);
            row_of[i] = row;
            match node {
                Node::Leaf { .. } => ops.push(PlanOp::Leaf {
                    leaf: leaf_of[i],
                    row,
                }),
                Node::Product { children } => {
                    factors.extend(children.iter().map(|c| match nodes[c.index()].is_leaf() {
                        true => Factor::Leaf(leaf_of[c.index()]),
                        false => Factor::Row(row_of[c.index()]),
                    }));
                    let n = children.len() as u32;
                    let each = renormalises_each_factor(spn, children);
                    ops.push(PlanOp::Product { n, row, each });
                }
                Node::Sum { .. } => {
                    let children = |node| operands(node).map(|(c, _)| c);
                    // A sum joins the sum op just before it when both
                    // read the same children in the same order.
                    let same = children(&nodes[prev]).eq(children(node));
                    match ops.last_mut() {
                        Some(PlanOp::Sum { k, .. }) if same => *k += 1,
                        _ => {
                            sum_rows.extend(children(node).map(|c| row_of[c]));
                            let n = children(node).count();
                            max_sum_fan_in = max_sum_fan_in.max(n);
                            ops.push(PlanOp::Sum { n: n as u32, k: 1 });
                        }
                    }
                    sum_rows.push(row);
                    weights.extend(operands(node).map(|(_, w)| w));
                }
            }
            // A row is free once its value's last reader has run.
            for (c, _) in operands(node).filter(|&(c, _)| reads_row(node, c)) {
                readers[c] -= 1;
                if readers[c] == 0 {
                    free.push(row_of[c]);
                }
            }
            prev = i;
        }
        CompiledPlan {
            ops,
            factors,
            sum_rows,
            weights,
            leaves,
            scratch_rows: rows as usize,
            root_row: row_of[root],
            num_vars: spn.num_vars(),
            name: spn.name.clone(),
            stats: PlanStats {
                ops: shape.nodes,
                leaf_ops: shape.leaves,
                product_ops: shape.products,
                sum_ops: shape.sums,
                max_sum_fan_in,
                table_bytes: shape.leaves * TABLE_SIZE * std::mem::size_of::<f64>(),
            },
        }
    }

    /// Number of variables the source network models.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Name of the source network.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural statistics.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Number of ops (= source node count).
    pub fn len(&self) -> usize {
        self.stats.ops
    }

    /// True when the plan is empty (never for a compiled network).
    pub fn is_empty(&self) -> bool {
        self.stats.ops == 0
    }
}

/// Batched plan interpreter. Owns the scratch (the plan's rows of
/// lanes, grown to the widest pass a call runs) and streams a
/// [`Dataset`] through the plan up to [`LANES`] samples at a time.
pub struct PlanExecutor<'p> {
    plan: &'p CompiledPlan,
    /// `scratch[(2 * row + half) * W + lane]`: the mantissa (`half = 0`)
    /// or exponent (`half = 1`) scratch row `row` holds for a `W`-lane
    /// pass's row `lane`.
    scratch: Vec<f64>,
}

impl<'p> PlanExecutor<'p> {
    /// Build an executor; the first call sizes the scratch to its needs.
    pub fn new(plan: &'p CompiledPlan) -> Self {
        PlanExecutor {
            plan,
            scratch: Vec::new(),
        }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &CompiledPlan {
        self.plan
    }

    /// The joint log-likelihood of every row of `data`, in order.
    ///
    /// # Panics
    /// Panics if the dataset width does not match the plan's variable
    /// count.
    pub fn eval_batch(&mut self, query: &Query, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::new();
        self.eval_batch_into(query, data, &mut out);
        out
    }

    /// [`PlanExecutor::eval_batch`] appending into a caller-owned
    /// buffer (the allocation-free inner loop the server batcher uses).
    pub(crate) fn eval_batch_into(&mut self, query: &Query, data: &Dataset, out: &mut Vec<f64>) {
        self.eval_batch_raw(query, data.raw(), data.num_features(), out);
    }

    /// The joint log-likelihood of every row packed contiguously in
    /// `raw` (`num_features` bytes per row), appended to `out` in row
    /// order. This is the zero-copy entry the runtime's host backend
    /// feeds block-sized dataset slices through.
    ///
    /// Whole [`LANES`]-row chunks, then 16-row chunks, then single rows
    /// go through the same kernel.
    ///
    /// # Panics
    /// Panics if `raw` is not a whole number of `num_features`-byte
    /// rows, or if `num_features` does not match the plan's variable
    /// count.
    pub fn eval_batch_raw(
        &mut self,
        query: &Query,
        raw: &[u8],
        num_features: usize,
        out: &mut Vec<f64>,
    ) {
        let Query::Complete = query;
        let nf = self.plan.num_vars;
        assert_eq!(
            num_features, nf,
            "rows have {num_features} features but the plan models {nf} variables"
        );
        assert_eq!(
            raw.len() % nf,
            0,
            "raw byte length {} is not a whole number of {nf}-byte rows",
            raw.len()
        );
        let rows = raw.len() / nf;
        out.reserve(rows);
        // As wide as the widest pass this call runs: a mantissa and an
        // exponent lane array per row.
        let widest = [LANES, TAIL_LANES, 1].into_iter().find(|&w| rows >= w);
        let need = 2 * self.plan.scratch_rows * widest.unwrap_or(0);
        if self.scratch.len() < need {
            self.scratch.resize(need, 0.0);
        }
        let rest = self.run_chunks::<LANES>(raw, out);
        let rest = self.run_chunks::<TAIL_LANES>(rest, out);
        self.run_chunks::<1>(rest, out);
    }

    /// Run every whole `W`-row chunk at the front of `raw` through the
    /// kernel, appending each row's log-likelihood to `out`, and return
    /// the rows left over. A chunk runs at the widest tier this CPU
    /// supports, a single row at `Base`: one lane has no register to
    /// widen into.
    fn run_chunks<'r, const W: usize>(
        &mut self,
        mut raw: &'r [u8],
        out: &mut Vec<f64>,
    ) -> &'r [u8] {
        let plan = self.plan;
        let chunk = Chunk::<W> { plan };
        while raw.len() >= W * plan.num_vars {
            let (rows, rest) = raw.split_at(W * plan.num_vars);
            if W == 1 {
                isa::Kernel::run(&chunk, rows, &mut self.scratch);
            } else {
                isa::run(&chunk, rows, &mut self.scratch);
            }
            // The root row's mantissa lanes hold the chunk's
            // log-likelihoods, in row order.
            let root = 2 * plan.root_row as usize * W;
            out.extend_from_slice(&self.scratch[root..root + W]);
            raw = rest;
        }
        raw
    }
}

/// The kernel: one pass of the plan over `W` rows.
struct Chunk<'a, const W: usize> {
    plan: &'a CompiledPlan,
}

/// The next `n` operands of an arena the scan consumes front to back.
#[inline(always)]
fn next<'a, T>(arena: &mut &'a [T], n: u32) -> &'a [T] {
    let (these, rest) = arena.split_at(n as usize);
    *arena = rest;
    these
}

impl<const W: usize> Chunk<'_, W> {
    /// Leaf record `leaf`'s densities over the chunk's rows.
    #[inline(always)]
    fn leaf(&self, leaf: u32, rows: &[u8]) -> [f64; W] {
        let leaf = &self.plan.leaves[leaf as usize];
        let (var, nf) = (leaf.var as usize, self.plan.num_vars);
        std::array::from_fn(|l| leaf.table[rows[l * nf + var] as usize])
    }
}

impl<const W: usize> isa::Kernel for Chunk<'_, W> {
    type Out = [f64];

    /// Evaluate every op over the `W` samples in `rows`, leaving each
    /// op's `(m, e)` lanes in its row, then the root's log-likelihood in
    /// the root row's mantissa lanes.
    #[inline(always)]
    fn run(&self, rows: &[u8], scratch: &mut [f64]) {
        let plan = self.plan;
        let (scratch, _) = scratch.as_chunks_mut::<W>();
        let (scratch, _) = scratch.as_chunks_mut::<2>();
        // Ops consume the operand arenas front to back: no per-op range
        // to check, no index to scale.
        let mut factors = &plan.factors[..];
        let mut sum_rows = &plan.sum_rows[..];
        let mut weights = &plan.weights[..];
        // Every operand's row was written by an earlier op. Each step is
        // the oracle's, lane by lane (`infer.rs`).
        for &op in &plan.ops {
            match op {
                PlanOp::Leaf { leaf, row } => {
                    let d = self.leaf(leaf, rows);
                    let [m, e] = &mut scratch[row as usize];
                    for l in 0..W {
                        (m[l], e[l]) = math::renormalise(d[l], 0.0);
                    }
                }
                PlanOp::Product { n, row, each } => {
                    // From (1, 0), in child order, a leaf at its own
                    // position; then renormalised.
                    let (mut m, mut e) = ([1.0; W], [0.0; W]);
                    for f in next(&mut factors, n) {
                        match *f {
                            Factor::Row(r) => {
                                let [cm, ce] = &scratch[r as usize];
                                for l in 0..W {
                                    m[l] *= cm[l];
                                    e[l] += ce[l];
                                }
                            }
                            Factor::Leaf(leaf) => {
                                let d = self.leaf(leaf, rows);
                                for l in 0..W {
                                    m[l] *= d[l];
                                }
                            }
                        }
                        if each {
                            for l in 0..W {
                                (m[l], e[l]) = math::renormalise(m[l], e[l]);
                            }
                        }
                    }
                    // Without `each`, the range check proved every
                    // running product zero or normal.
                    let [rm, re] = &mut scratch[row as usize];
                    for l in 0..W {
                        (rm[l], re[l]) = math::renormalise_normal(m[l], e[l]);
                    }
                }
                PlanOp::Sum { n, k } => {
                    let (xs, outs) = next(&mut sum_rows, n + k).split_at(n as usize);
                    let ws = next(&mut weights, n * k);
                    let n = n as usize;
                    // Shared by every member: the largest exponent in
                    // term order, and each term's `m·2^(e − top)`. Each
                    // member's `Σ w·v` runs in term order in its own row,
                    // then is renormalised onto `top`.
                    let mut top = [f64::NEG_INFINITY; W];
                    for &x in xs {
                        let [_, e] = &scratch[x as usize];
                        for l in 0..W {
                            top[l] = top[l].max(e[l]);
                        }
                    }
                    for &out in outs {
                        scratch[out as usize][0] = [0.0; W];
                    }
                    for (i, &x) in xs.iter().enumerate() {
                        let [m, e] = &scratch[x as usize];
                        let mut v = [0.0; W];
                        for l in 0..W {
                            v[l] = math::scale(m[l], e[l] - top[l]);
                        }
                        for (j, &out) in outs.iter().enumerate() {
                            let (w, s) = (ws[j * n + i], &mut scratch[out as usize][0]);
                            for l in 0..W {
                                s[l] += w * v[l];
                            }
                        }
                    }
                    for &out in outs {
                        let [s, e] = &mut scratch[out as usize];
                        for l in 0..W {
                            (s[l], e[l]) = math::renormalise(s[l], top[l]);
                        }
                    }
                }
            }
        }
        let [m, e] = &mut scratch[plan.root_row as usize];
        for l in 0..W {
            m[l] = math::ln(m[l], e[l]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;
    use crate::infer::Evaluator;
    use crate::leaf::Leaf;

    fn mixture() -> Spn {
        let mut b = SpnBuilder::new(2);
        let a0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let a1 = b.leaf(1, Leaf::byte_histogram(&[0.25, 0.75]));
        let c0 = b.leaf(0, Leaf::byte_histogram(&[0.9, 0.1]));
        let c1 = b.leaf(1, Leaf::byte_histogram(&[0.1, 0.9]));
        let p1 = b.product(vec![a0, a1]);
        let p2 = b.product(vec![c0, c1]);
        let s = b.sum(vec![(0.3, p1), (0.7, p2)]);
        b.finish(s, "mix").unwrap()
    }

    fn all_rows() -> Dataset {
        Dataset::from_raw(vec![0, 0, 0, 1, 1, 0, 1, 1], 2, 2)
    }

    #[test]
    fn compile_counts_ops() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        assert_eq!(plan.len(), spn.len());
        let st = plan.stats();
        assert_eq!(st.leaf_ops, 4);
        assert_eq!(st.product_ops, 2);
        assert_eq!(st.sum_ops, 1);
        assert_eq!(st.max_sum_fan_in, 2);
        assert_eq!(st.table_bytes, 4 * 256 * 8);
        assert_eq!(plan.name(), "mix");
        assert!(!plan.is_empty());
    }

    #[test]
    fn complete_matches_oracle_bit_exactly() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let out = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            let want = ev.eval_bytes(&Query::Complete, row);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn remainder_lanes_match_whole_chunks() {
        // One full chunk plus five leftover rows.
        let n = LANES + 5;
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let raw: Vec<u8> = (0..2 * n).map(|i| (i % 3 % 2) as u8).collect();
        let data = Dataset::from_raw(raw, 2, 2);
        let out = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
        assert_eq!(out.len(), n);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            assert_eq!(
                got.to_bits(),
                ev.eval_bytes(&Query::Complete, row).to_bits()
            );
        }
    }

    #[test]
    fn zero_weight_children_are_filtered_like_the_oracle() {
        let mut b = SpnBuilder::new(1);
        let l0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let l1 = b.leaf(0, Leaf::byte_histogram(&[1.0]));
        let s = b.sum(vec![(1.0, l0), (0.0, l1)]);
        let spn = b.finish(s, "zw").unwrap();
        let plan = CompiledPlan::compile(&spn);
        let data = Dataset::from_raw(vec![0, 1], 1, 2);
        let out = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            assert_eq!(
                got.to_bits(),
                ev.eval_bytes(&Query::Complete, row).to_bits()
            );
        }
    }

    /// Every tier this CPU supports against `Base`, through
    /// `isa::run_on`: every op's lanes of every whole chunk of the
    /// cascade, `to_bits`, on the five benchmark networks. Each batch
    /// also goes through `eval_batch` against the tree-walk oracle, at
    /// sizes that take every step of the cascade (single rows run at
    /// `Base` only).
    #[test]
    fn every_instantiation_of_the_kernel_computes_the_same_bits() {
        use isa::Tier;
        /// Every whole `W`-row chunk at the front of `raw`, at every tier
        /// this CPU supports against `Base`; returns the rows left over.
        fn same_bits<'r, const W: usize>(
            plan: &CompiledPlan,
            raw: &'r [u8],
            case: &str,
        ) -> &'r [u8] {
            let chunk = Chunk::<W> { plan };
            let mut chunks = raw.chunks_exact(W * plan.num_vars());
            for rows in &mut chunks {
                let run = |at| {
                    let mut scratch = vec![0.0; 2 * plan.scratch_rows * W];
                    isa::run_on(at, &chunk, rows, &mut scratch);
                    scratch.into_iter().map(f64::to_bits).collect::<Vec<_>>()
                };
                let base = run(Tier::Base);
                for at in Tier::ALL.into_iter().filter(|&t| t <= isa::tier()) {
                    assert!(run(at) == base, "{case}: {W}-row chunk at {at:?} differs");
                }
            }
            chunks.remainder()
        }
        for missing in Tier::ALL.into_iter().filter(|&t| t > isa::tier()) {
            println!("SKIPPED: {missing:?}: this CPU does not support it");
        }
        for bench in crate::nips::ALL_BENCHMARKS {
            let spn = bench.build_spn();
            let plan = CompiledPlan::compile(&spn);
            let mut ex = PlanExecutor::new(&plan);
            let mut ev = Evaluator::new(&spn);
            let sizes = [1, 15, 16, 17, 63, 64, 65, LANES + TAIL_LANES + 3, 4096];
            for n in sizes {
                let case = format!("{bench:?}, {n} rows");
                let data = bench.dataset(n, 0xA5A5 + n as u64);
                let got = ex.eval_batch(&Query::Complete, &data);
                for (i, (row, g)) in data.rows().zip(got).enumerate() {
                    let want = ev.eval_bytes(&Query::Complete, row);
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{case}: row {i} against the oracle"
                    );
                }
                let rest = same_bits::<LANES>(&plan, data.raw(), &case);
                same_bits::<TAIL_LANES>(&plan, rest, &case);
            }
        }
    }

    /// Only live values hold a row: in-place leaves take none, and a
    /// row is reused once its value is dead. NIPS80's 283 nodes (one row
    /// each in a node-per-row layout) need 12 rows, NIPS10's 31 need 6.
    #[test]
    fn scratch_holds_only_live_values() {
        use crate::nips::NipsBenchmark;
        let rows = |b: NipsBenchmark| CompiledPlan::compile(&b.build_spn()).scratch_rows;
        assert_eq!(rows(NipsBenchmark::Nips80), 12);
        assert_eq!(rows(NipsBenchmark::Nips10), 6);
    }

    /// A region's sums mix the same products in the same order, so they
    /// share one sum op: NIPS80's 31 sums run as 16 ops, NIPS10's 3 as 2.
    #[test]
    fn sums_over_the_same_children_share_one_op() {
        use crate::nips::NipsBenchmark;
        let sum_ops = |b: NipsBenchmark| {
            let spn = b.build_spn();
            let plan = CompiledPlan::compile(&spn);
            let ops = plan
                .ops
                .iter()
                .filter(|op| matches!(op, PlanOp::Sum { .. }));
            (spn.stats().sums, ops.count())
        };
        assert_eq!(sum_ops(NipsBenchmark::Nips80), (31, 16));
        assert_eq!(sum_ops(NipsBenchmark::Nips10), (3, 2));
    }

    #[test]
    #[should_panic(expected = "features")]
    fn wrong_width_panics() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = Dataset::from_raw(vec![0, 0, 0], 3, 2);
        PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
    }
}
