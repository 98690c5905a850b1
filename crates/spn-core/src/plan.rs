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
//! * **Only live values have rows.** A value nobody reads has no op. A
//!   leaf whose one reader is a product, and which is not a plan
//!   output, has no op either: the product adds its table entry in
//!   place, at the leaf's position in its child order — as the paper's
//!   datapath feeds a histogram lookup straight into its multiplier
//!   tree. Every other value takes a scratch row from a free list and
//!   gives it back after its last reader, so the scratch holds what is
//!   live at once (12 rows for NIPS80's 283 nodes). The rows a caller
//!   reads — the root, or a shard's taps — are fixed at compile time
//!   and never freed.
//! * **Sums that read the same children share a max and an `exp`
//!   pass.** A sum whose `w > 0` children are the same nodes, in the
//!   same order, as those of the sum op just before it joins that op. A
//!   region's sums mix the same products with different weights, so
//!   their max and every `exp(x − m)` are the same bits: the group
//!   computes them once and each member accumulates its own weighted
//!   sum in its own row. NIPS80's 31 sums run as 16 ops.
//! * **Leaf lookup tables.** Datasets are byte matrices (domain ≤ 256),
//!   so every leaf lowers to a 256-entry log-density table,
//!   [`Leaf::byte_table`](crate::Leaf::byte_table), bit for bit the
//!   oracle's `log_density` — one indexed load per sample replaces a
//!   binary search.
//! * **One lane-wide kernel.** The executor evaluates up to [`LANES`]
//!   samples per pass; a pass of `W` lanes views its scratch as
//!   `[f64; W]` rows, so a child's lanes are one indexed row (the lane
//!   stride is in the type). Every op reads and writes fixed-size
//!   lane arrays: trip counts are constants and no lane is bounds-
//!   checked. The one kernel body runs whole `W = LANES` chunks, then
//!   `W = 16` chunks of what is left, then single rows; a chunk runs
//!   at the widest instruction-set tier the CPU supports ([`crate::isa`]),
//!   a single row at the build's own.
//! * **No math library.** A sum's `exp` and `ln` are this crate's own
//!   (`math.rs`): branch-free straight-line arithmetic that inlines into
//!   the lane passes, so a whole sum — max, `Σ w·exp(x − m)`,
//!   `m + ln s` — stays in vector registers instead of spilling every
//!   lane array around 153 libm calls per NIPS80 sample.
//!
//! Bit-exactness against the [`crate::Evaluator`] oracle is a hard
//! contract (pinned by `tests/plan_differential.rs`). Lane-wide
//! execution keeps it because lanes never mix: each pass over a sum's
//! terms (`max`, then `s += w·exp(x − m)`, both in term order, then
//! `m + ln s`) applies to lane `l` exactly the operations, in exactly
//! the order, the oracle applies to sample `l` — only the interleaving
//! *between* samples changes — and both sides call the same `exp` and
//! `ln`, which use no fused multiply-add and so compute the same bits
//! at every register width. A group member's `s` is its own row, and
//! the shared `m` and `exp(x − m)` are the oracle's bits for each
//! member. A lane whose max is `−inf` computes a `NaN` sum
//! (`−inf − −inf`) that the final per-lane select discards, where the
//! oracle returns early. An in-place leaf adds the very value its row
//! would have held, at the same point of the product's fold.

use crate::dataset::Dataset;
use crate::graph::{Node, Spn};
use crate::infer::mode_log_density;
use crate::isa;
use crate::leaf::{log_of, MARGINALIZED_LOG};
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
    /// An in-place leaf: this leaf record, read at the sample's byte.
    Leaf(u32),
}

/// One sum weight in the weight arena.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Weight {
    /// Linear mixture weight (> 0).
    weight: f64,
    /// `ln weight`, precomputed for the MPE max kernel.
    log_weight: f64,
}

/// One leaf's record in the leaf arena: its table, its mode and its
/// variable. The two extra slots also keep the stride (2064 bytes) off
/// a power of two — at a bare 2 KiB, entry `v` of every table maps to
/// the same two L1 sets, and a row that repeats a byte value across
/// variables evicts its own tables.
#[derive(Debug, Clone, PartialEq)]
struct LeafTable {
    /// `table[v]` = log density at byte value `v`.
    table: [f64; TABLE_SIZE],
    /// Log-density at the distribution's mode (MPE's value for an
    /// unobserved variable).
    mode_log: f64,
    /// Variable (= dataset column) this leaf reads.
    var: u32,
}

/// One flat instruction: a kind, how much of an arena it consumes and
/// where it writes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanOp {
    /// Leaf lowered to a byte-indexed log-density table: this record,
    /// into this row.
    Leaf { leaf: u32, row: u32 },
    /// Product: log-domain sum of the next `n` factors, in order, into
    /// this row.
    Product { n: u32, row: u32 },
    /// A sum group: `k` sums over the same `n` children in the same
    /// order. Each member's weighted log-sum-exp (or weighted max for
    /// MPE) of the children's rows — the next `n` sum rows — goes into
    /// its own row, the `k` after them; the next `k × n` weights are the
    /// members', member by member.
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
    /// Sum weights of every op, in op order.
    weights: Vec<Weight>,
    /// One record per leaf, in arena order.
    leaves: Vec<LeafTable>,
    /// Scratch rows a pass needs: the most values live at once.
    scratch_rows: usize,
    /// The nodes whose values a pass yields, in order.
    outputs: Vec<u32>,
    /// Their scratch rows.
    output_rows: Vec<u32>,
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
    /// Lower `spn` into a flat plan whose one output is the root. Cost
    /// is one pass over the arena plus, per leaf, one walk of its
    /// buckets ([`Leaf::byte_table`](crate::Leaf::byte_table)) with a
    /// `ln` per bucket.
    pub fn compile(spn: &Spn) -> CompiledPlan {
        CompiledPlan::compile_with_outputs(spn, &[spn.root().0])
    }

    /// Lower `spn` into a flat plan that yields, for every row, the
    /// values of the nodes `outputs` (arena indices) in that order —
    /// how the sharded executor reads a shard's taps.
    ///
    /// # Panics
    /// Panics if an output is not a node of `spn`.
    pub fn compile_with_outputs(spn: &Spn, outputs: &[u32]) -> CompiledPlan {
        let (nodes, shape) = (spn.nodes(), spn.stats());
        let n = nodes.len();
        assert!(
            outputs.iter().all(|&o| (o as usize) < n),
            "output out of range for a {n}-node network: {outputs:?}"
        );
        // Who reads each value: the ops of its live parents, and —
        // without end — the caller, for an output. A value nobody reads
        // is dead and gets no op.
        let (mut readers, mut read_by_product) = (vec![0u32; n], vec![false; n]);
        for &o in outputs {
            readers[o as usize] = u32::MAX;
        }
        for (i, node) in nodes.iter().enumerate().rev() {
            if readers[i] > 0 {
                for (c, _) in operands(node) {
                    readers[c] = readers[c].saturating_add(1);
                    read_by_product[c] |= node.is_product();
                }
            }
        }
        let in_place: Vec<bool> = (0..n)
            .map(|c| nodes[c].is_leaf() && readers[c] == 1 && read_by_product[c])
            .collect();

        let (mut leaves, mut leaf_of) = (Vec::with_capacity(shape.leaves), vec![0u32; n]);
        let (mut ops, mut factors) = (Vec::with_capacity(n), Vec::new());
        let (mut sum_rows, mut weights) = (Vec::new(), Vec::new());
        let (mut row_of, mut free, mut rows) = (vec![0u32; n], Vec::new(), 0);
        let (mut max_sum_fan_in, mut prev) = (0, 0);
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Leaf { var, dist } = node {
                leaf_of[i] = leaves.len() as u32;
                leaves.push(LeafTable {
                    table: dist.byte_table(log_of),
                    mode_log: mode_log_density(dist),
                    var: *var as u32,
                });
            }
            if readers[i] == 0 || in_place[i] {
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
                    factors.extend(children.iter().map(|c| match in_place[c.index()] {
                        true => Factor::Leaf(leaf_of[c.index()]),
                        false => Factor::Row(row_of[c.index()]),
                    }));
                    let n = children.len() as u32;
                    ops.push(PlanOp::Product { n, row });
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
                    weights.extend(operands(node).map(|(_, w)| Weight {
                        weight: w,
                        log_weight: w.ln(),
                    }));
                }
            }
            // A row is free once its value's last reader has run.
            for (c, _) in operands(node) {
                readers[c] -= 1;
                if readers[c] == 0 && !in_place[c] {
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
            outputs: outputs.to_vec(),
            output_rows: outputs.iter().map(|&o| row_of[o as usize]).collect(),
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

    /// The nodes whose values a pass yields per row, in order.
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
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
    /// `scratch[row * W + lane]`: the value scratch row `row` holds for
    /// a `W`-lane pass's row `lane`.
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

    /// Evaluate `query` over every row of `data`: the plan's outputs
    /// for each sample, in order (one value per sample for a plan
    /// compiled with [`CompiledPlan::compile`]). For [`Query::Mpe`] the
    /// result is the max log-probability (the oracle's upward-pass root
    /// value).
    ///
    /// # Panics
    /// Panics if the dataset width or query mask does not match the
    /// plan's variable count.
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

    /// Evaluate `query` over rows packed contiguously in `raw`
    /// (`num_features` bytes per row), appending each row's output
    /// values to `out` in output order (sample-major). This is the
    /// zero-copy entry the runtime's host backend feeds block-sized
    /// dataset slices through, and the sharded backend reads a shard's
    /// taps through.
    ///
    /// Whole [`LANES`]-row chunks, then 16-row chunks, then single rows
    /// go through the same kernel.
    ///
    /// # Panics
    /// Panics if `raw` is not a whole number of `num_features`-byte
    /// rows, or if `num_features` or the query mask does not match the
    /// plan's variable count.
    pub fn eval_batch_raw(
        &mut self,
        query: &Query,
        raw: &[u8],
        num_features: usize,
        out: &mut Vec<f64>,
    ) {
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
        query.check_arity(nf);
        let rows = raw.len() / nf;
        out.reserve(rows * self.plan.outputs.len());
        // As wide as the widest pass this call runs.
        let widest = [LANES, TAIL_LANES, 1].into_iter().find(|&w| rows >= w);
        let need = self.plan.scratch_rows * widest.unwrap_or(0);
        if self.scratch.len() < need {
            self.scratch.resize(need, 0.0);
        }
        let rest = self.run_chunks::<LANES>(query, raw, out);
        let rest = self.run_chunks::<TAIL_LANES>(query, rest, out);
        self.run_chunks::<1>(query, rest, out);
    }

    /// Run every whole `W`-row chunk at the front of `raw` through the
    /// kernel, appending each row's outputs to `out`, and return the
    /// rows left over. A chunk runs at the widest tier this CPU
    /// supports, a single row at `Base`: one lane has no register to
    /// widen into.
    fn run_chunks<'r, const W: usize>(
        &mut self,
        query: &Query,
        mut raw: &'r [u8],
        out: &mut Vec<f64>,
    ) -> &'r [u8] {
        let plan = self.plan;
        let chunk = Chunk::<W> { plan, query };
        while raw.len() >= W * plan.num_vars {
            let (rows, rest) = raw.split_at(W * plan.num_vars);
            if W == 1 {
                isa::Kernel::run(&chunk, rows, &mut self.scratch);
            } else {
                isa::run(&chunk, rows, &mut self.scratch);
            }
            // Sample-major: row by row, each row's outputs in order.
            let (scratch, outputs) = (&self.scratch, &plan.output_rows);
            (0..W).for_each(|l| out.extend(outputs.iter().map(|&r| scratch[r as usize * W + l])));
            raw = rest;
        }
        raw
    }
}

/// The kernel: one pass of the plan over `W` rows, for one query.
struct Chunk<'a, const W: usize> {
    plan: &'a CompiledPlan,
    query: &'a Query,
}

/// The next `n` operands of an arena the scan consumes front to back.
#[inline(always)]
fn next<'a, T>(arena: &mut &'a [T], n: u32) -> &'a [T] {
    let (these, rest) = arena.split_at(n as usize);
    *arena = rest;
    these
}

impl<const W: usize> Chunk<'_, W> {
    /// Leaf record `leaf`'s values over the chunk's rows: the table
    /// entry at an observed byte, the mode's density for an unobserved
    /// variable under MPE, else the marginalised `MARGINALIZED_LOG`.
    #[inline(always)]
    fn leaf(&self, leaf: u32, rows: &[u8]) -> [f64; W] {
        let leaf = &self.plan.leaves[leaf as usize];
        let (var, nf) = (leaf.var as usize, self.plan.num_vars);
        if self.query.is_observed(var) {
            std::array::from_fn(|l| leaf.table[rows[l * nf + var] as usize])
        } else if self.query.is_mpe() {
            [leaf.mode_log; W]
        } else {
            [MARGINALIZED_LOG; W]
        }
    }
}

impl<const W: usize> isa::Kernel for Chunk<'_, W> {
    type Out = [f64];

    /// Evaluate every op over the `W` samples in `rows`, leaving each
    /// op's results in its row, `scratch[row * W..][..W]`.
    #[inline(always)]
    fn run(&self, rows: &[u8], scratch: &mut [f64]) {
        let plan = self.plan;
        let mpe = self.query.is_mpe();
        let (scratch, _) = scratch.as_chunks_mut::<W>();
        // Ops consume the operand arenas front to back: no per-op range
        // to check, no index to scale.
        let mut factors = &plan.factors[..];
        let mut sum_rows = &plan.sum_rows[..];
        let mut weights = &plan.weights[..];
        // Every operand's row was written by an earlier op.
        for &op in &plan.ops {
            match op {
                PlanOp::Leaf { leaf, row } => scratch[row as usize] = self.leaf(leaf, rows),
                PlanOp::Product { n, row } => {
                    // Same fold as the oracle: 0.0, then += in child
                    // order, an in-place leaf at its own position.
                    let mut acc = [0.0; W];
                    for f in next(&mut factors, n) {
                        let x = match *f {
                            Factor::Row(r) => scratch[r as usize],
                            Factor::Leaf(leaf) => self.leaf(leaf, rows),
                        };
                        for l in 0..W {
                            acc[l] += x[l];
                        }
                    }
                    scratch[row as usize] = acc;
                }
                PlanOp::Sum { n, k } => {
                    let (xs, outs) = next(&mut sum_rows, n + k).split_at(n as usize);
                    let ws = next(&mut weights, n * k);
                    let n = n as usize;
                    if mpe {
                        // Oracle's MPE kernel, member by member: strict
                        // `>`, first term wins ties.
                        for (j, &out) in outs.iter().enumerate() {
                            let mut best = [f64::NEG_INFINITY; W];
                            for (&x, w) in xs.iter().zip(&ws[j * n..][..n]) {
                                let x = &scratch[x as usize];
                                for l in 0..W {
                                    let v = w.log_weight + x[l];
                                    if v > best[l] {
                                        best[l] = v;
                                    }
                                }
                            }
                            scratch[out as usize] = best;
                        }
                        continue;
                    }
                    // Oracle's log-sum-exp, one pass per step, with the
                    // max and each term's `exp(x − m)` shared by every
                    // member: max in term order, each member's
                    // `Σ w·exp(x − m)` in term order in its own row, then
                    // `m + ln s` unless the lane's max is −inf (an empty
                    // sum is the all-−inf case).
                    let mut m = [f64::NEG_INFINITY; W];
                    for &x in xs {
                        let x = &scratch[x as usize];
                        for l in 0..W {
                            m[l] = m[l].max(x[l]);
                        }
                    }
                    for &out in outs {
                        scratch[out as usize] = [0.0; W];
                    }
                    for (i, &x) in xs.iter().enumerate() {
                        let x = &scratch[x as usize];
                        let mut e = [0.0; W];
                        for l in 0..W {
                            e[l] = math::exp(x[l] - m[l]);
                        }
                        for (j, &out) in outs.iter().enumerate() {
                            let (w, s) = (ws[j * n + i].weight, &mut scratch[out as usize]);
                            for l in 0..W {
                                s[l] += w * e[l];
                            }
                        }
                    }
                    for &out in outs {
                        let s = &mut scratch[out as usize];
                        for l in 0..W {
                            s[l] = if m[l] == f64::NEG_INFINITY {
                                f64::NEG_INFINITY
                            } else {
                                m[l] + math::ln(s[l])
                            };
                        }
                    }
                }
            }
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
    fn marginal_matches_oracle_bit_exactly() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let q = Query::marginal(vec![true, false]);
        let out = PlanExecutor::new(&plan).eval_batch(&q, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            let want = ev.eval_bytes(&q, row);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // And against the classic evidence API: P(X0=0) = 0.78.
        assert!((out[0] - 0.78f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn mpe_scores_match_oracle_bit_exactly() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let q = Query::mpe(vec![false, true]);
        let out = PlanExecutor::new(&plan).eval_batch(&q, &data);
        let mut ev = Evaluator::new(&spn);
        for (row, &got) in data.rows().zip(&out) {
            let want = ev.eval_bytes(&q, row);
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

    #[test]
    fn tap_extraction_matches_scratch_semantics() {
        let spn = mixture();
        let data = all_rows();
        // Tapping the root reproduces the root path bit for bit;
        // tapping a leaf yields that leaf's table value.
        let root = (spn.len() - 1) as u32;
        let tapped = CompiledPlan::compile_with_outputs(&spn, &[root, 0]);
        let tapped = PlanExecutor::new(&tapped).eval_batch(&Query::Complete, &data);
        assert_eq!(tapped.len(), 2 * data.num_samples());
        let plan = CompiledPlan::compile(&spn);
        let roots = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
        for i in 0..data.num_samples() {
            assert_eq!(tapped[2 * i].to_bits(), roots[i].to_bits());
            // Leaf 0 models var 0 with P(0) = P(1) = 0.5.
            assert!((tapped[2 * i + 1] - 0.5f64.ln()).abs() < 1e-12);
        }
    }

    /// Every tier this CPU supports against `Base`, through
    /// `isa::run_on`: every op's lanes of every whole chunk of the
    /// cascade, `to_bits`, on the five benchmark networks and the three
    /// query shapes. Two plans per network: the root-only plan (in-place
    /// leaves, reused rows) and one whose every node is an output, so
    /// each node's value keeps its own row and is compared. Each batch
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
            query: &Query,
            raw: &'r [u8],
            case: &str,
        ) -> &'r [u8] {
            let chunk = Chunk::<W> { plan, query };
            let mut chunks = raw.chunks_exact(W * plan.num_vars());
            for rows in &mut chunks {
                let run = |at| {
                    let mut scratch = vec![0.0; plan.scratch_rows * W];
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
            let every_node: Vec<u32> = (0..spn.len() as u32).collect();
            let every_node = CompiledPlan::compile_with_outputs(&spn, &every_node);
            assert_eq!(every_node.scratch_rows, spn.len());
            let nf = plan.num_vars();
            let mask: Vec<bool> = (0..nf).map(|v| v % 3 != 0).collect();
            let queries = [
                Query::Complete,
                Query::marginal(mask.clone()),
                Query::mpe(mask),
            ];
            let mut ex = PlanExecutor::new(&plan);
            let mut ev = Evaluator::new(&spn);
            let sizes = [1, 15, 16, 17, 63, 64, 65, LANES + TAIL_LANES + 3, 4096];
            for (query, n) in queries.iter().flat_map(|q| sizes.map(|n| (q, n))) {
                let case = format!("{bench:?} {} query, {n} rows", query.label());
                let data = bench.dataset(n, 0xA5A5 + n as u64);
                let got = ex.eval_batch(query, &data);
                for (i, (row, g)) in data.rows().zip(got).enumerate() {
                    let want = ev.eval_bytes(query, row);
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{case}: row {i} against the oracle"
                    );
                }
                for plan in [&plan, &every_node] {
                    let rest = same_bits::<LANES>(plan, query, data.raw(), &case);
                    same_bits::<TAIL_LANES>(plan, query, rest, &case);
                }
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
    #[should_panic(expected = "out of range")]
    fn tap_out_of_range_panics() {
        CompiledPlan::compile_with_outputs(&mixture(), &[99]);
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
