//! Compiled inference plans: compile once, execute many.
//!
//! The tree-walking [`crate::Evaluator`] re-dispatches on every node of
//! every sample — enum match, bounds checks, and a binary search per
//! histogram leaf. This module compiles an [`Spn`] *once* into a flat
//! [`CompiledPlan`] and evaluates whole byte [`crate::Dataset`] slices
//! with a batched [`PlanExecutor`]:
//!
//! * **One `Copy` op per node, two arenas.** The arena is already a
//!   level-consistent topological order (children strictly precede
//!   parents), so ops are emitted 1:1 in arena order and executed as a
//!   linear scan — the same schedule the hardware pipeline uses. An op
//!   is a kind plus an operand count: product children and sum terms
//!   live in one operand arena (child row, weight, log-weight), leaf
//!   tables in one leaf arena, both in op order, so the scan consumes
//!   them front to back and an op's operand range is "the next `n`". No
//!   op owns a heap allocation.
//! * **Leaf lookup tables.** Datasets are byte matrices (domain ≤ 256),
//!   so every leaf lowers to a 256-entry log-density table built with
//!   the oracle's own `log_density` — one indexed load per sample
//!   replaces a binary search, with bit-identical results.
//! * **One lane-wide kernel.** The executor evaluates [`LANES`] samples
//!   per pass; its scratch holds one `[f64; LANES]` row per op, so a
//!   child's lanes are one indexed row (the lane stride is in the
//!   type). Every op reads and writes fixed-size lane arrays
//!   (`[f64; W]`): trip counts are constants and no lane is bounds-
//!   checked. The one kernel body is instantiated at `W = LANES` for
//!   whole chunks — once with the build's default target features and,
//!   on x86-64, once more for AVX2, picked per chunk from what the CPU
//!   reports — and at `W = 1` for the rows left over.
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
//! at every register width. A lane whose max is `−inf` computes a `NaN`
//! sum (`−inf − −inf`) that the final per-lane select discards, where
//! the oracle returns early.

use crate::dataset::Dataset;
use crate::graph::{Node, Spn};
use crate::infer::mode_log_density;
use crate::leaf::MARGINALIZED_LOG;
use crate::math;
use crate::query::Query;
use serde::{Deserialize, Serialize};

/// Samples evaluated per executor pass (the batch-major lane width),
/// chosen by measurement: see DESIGN.md, "Plan lane width".
pub const LANES: usize = 16;

/// Entries in a lowered leaf table: one per possible byte value.
const TABLE_SIZE: usize = 256;

/// One product child or sum term in the operand arena. Sums hold only
/// their `weight > 0` terms, in source child order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Operand {
    /// Plan index of the child op (= its row in the scratch).
    child: u32,
    /// Linear mixture weight (> 0); unused by products.
    weight: f64,
    /// `ln weight`, precomputed for the MPE max kernel.
    log_weight: f64,
}

/// One leaf's record in the leaf arena: its table, then its mode. The
/// extra slot also keeps the stride (2056 bytes) off a power of two —
/// at a bare 2 KiB, entry `v` of every table maps to the same two L1
/// sets, and a row that repeats a byte value across variables evicts
/// its own tables.
#[derive(Debug, Clone, PartialEq)]
struct LeafTable {
    /// `table[v]` = log density at byte value `v`.
    table: [f64; TABLE_SIZE],
    /// Log-density at the distribution's mode (MPE's value for an
    /// unobserved variable).
    mode_log: f64,
}

/// One flat instruction: a kind and how much of an arena it consumes
/// (a leaf: the next leaf record; a product or sum: the next `n`
/// operands).
#[derive(Debug, Clone, Copy, PartialEq)]
enum PlanOp {
    /// Leaf lowered to a byte-indexed log-density table.
    Leaf {
        /// Variable (= dataset column) this leaf reads.
        var: u32,
    },
    /// Product: log-domain sum of the next `n` operands, in order.
    Product { n: u32 },
    /// Sum: weighted log-sum-exp (or weighted max for MPE) of the next
    /// `n` operands, in order.
    Sum { n: u32 },
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
    ops: Vec<PlanOp>,
    /// Product children and sum terms of every op, in op order.
    operands: Vec<Operand>,
    /// One record per leaf op, in op order.
    leaves: Vec<LeafTable>,
    num_vars: usize,
    fingerprint: u64,
    name: String,
    stats: PlanStats,
}

impl CompiledPlan {
    /// Lower `spn` into a flat plan. Cost is one pass over the arena
    /// plus 256 oracle `log_density` calls per leaf.
    pub fn compile(spn: &Spn) -> CompiledPlan {
        // Exact capacities: the arenas are the plan's two large
        // allocations and never grow after this.
        let shape = spn.stats();
        let mut ops = Vec::with_capacity(shape.nodes);
        let mut operands = Vec::with_capacity(shape.edges);
        let mut leaves = Vec::with_capacity(shape.leaves);
        let mut max_sum_fan_in = 0;
        for node in spn.nodes() {
            let start = operands.len() as u32;
            let op = match node {
                Node::Leaf { var, dist } => {
                    leaves.push(LeafTable {
                        table: std::array::from_fn(|v| dist.log_density(Some(v as f64))),
                        mode_log: mode_log_density(dist),
                    });
                    PlanOp::Leaf { var: *var as u32 }
                }
                Node::Product { children } => {
                    operands.extend(children.iter().map(|c| Operand {
                        child: c.0,
                        weight: 1.0,
                        log_weight: 0.0,
                    }));
                    PlanOp::Product {
                        n: children.len() as u32,
                    }
                }
                Node::Sum { children, weights } => {
                    let terms = children.iter().zip(weights).filter(|(_, &w)| w > 0.0);
                    operands.extend(terms.map(|(c, &w)| Operand {
                        child: c.0,
                        weight: w,
                        log_weight: w.ln(),
                    }));
                    let n = operands.len() as u32 - start;
                    max_sum_fan_in = max_sum_fan_in.max(n as usize);
                    PlanOp::Sum { n }
                }
            };
            ops.push(op);
        }
        CompiledPlan {
            ops,
            operands,
            leaves,
            num_vars: spn.num_vars(),
            fingerprint: spn.fingerprint(),
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

    /// Fingerprint of the source network ([`Spn::fingerprint`]) — the
    /// runtime's cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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
        self.ops.len()
    }

    /// True when the plan is empty (never for a compiled network).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Batched plan interpreter. Owns the scratch (one `[f64; LANES]` row
/// per op, allocated once) and streams a [`Dataset`] through the plan
/// [`LANES`] samples at a time.
pub struct PlanExecutor<'p> {
    plan: &'p CompiledPlan,
    /// `scratch[op][lane]`: the op's value for the chunk's `lane`-th row.
    scratch: Vec<[f64; LANES]>,
}

impl<'p> PlanExecutor<'p> {
    /// Build an executor (allocates the scratch once).
    pub fn new(plan: &'p CompiledPlan) -> Self {
        PlanExecutor {
            plan,
            scratch: vec![[0.0; LANES]; plan.ops.len()],
        }
    }

    /// The plan this executor runs.
    pub fn plan(&self) -> &CompiledPlan {
        self.plan
    }

    /// Evaluate `query` over every row of `data`: one result per
    /// sample, in order. For [`Query::Mpe`] the result is the max
    /// log-probability (the oracle's upward-pass root value).
    ///
    /// # Panics
    /// Panics if the dataset width or query mask does not match the
    /// plan's variable count.
    pub fn eval_batch(&mut self, query: &Query, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::with_capacity(data.num_samples());
        self.eval_batch_into(query, data, &mut out);
        out
    }

    /// [`PlanExecutor::eval_batch`] appending into a caller-owned
    /// buffer (the allocation-free inner loop the server batcher uses).
    pub fn eval_batch_into(&mut self, query: &Query, data: &Dataset, out: &mut Vec<f64>) {
        self.eval_batch_raw(query, data.raw(), data.num_features(), out);
    }

    /// Evaluate `query` over rows packed contiguously in `raw`
    /// (`num_features` bytes per row), appending one result per row to
    /// `out`. This is the zero-copy entry the runtime's host backend
    /// feeds block-sized dataset slices through.
    ///
    /// # Panics
    /// Panics if `raw` is not a whole number of rows or the query mask
    /// does not match the plan's variable count.
    pub fn eval_batch_raw(
        &mut self,
        query: &Query,
        raw: &[u8],
        num_features: usize,
        out: &mut Vec<f64>,
    ) {
        let root = self.plan.ops.len() as u32 - 1;
        self.eval_taps_batch_raw(query, raw, num_features, &[root], out);
    }

    /// Evaluate `query` over rows packed in `raw` and extract the
    /// values of the given `taps` (plan/arena op indices) instead of
    /// the root: for each row, `taps.len()` values are appended to
    /// `out` in tap order (sample-major). This is the multi-output
    /// entry the sharded executor reads shard boundary values through —
    /// a shard subgraph has several consumers, not one root.
    ///
    /// Whole [`LANES`]-row chunks and then the leftover rows, one at a
    /// time, go through the same kernel; [`eval_batch_raw`] is this
    /// with the last op as the only tap.
    ///
    /// # Panics
    /// Panics if `raw` is not a whole number of `num_features`-byte
    /// rows, if `num_features` or the query mask does not match the
    /// plan's variable count, or if a tap index is out of range.
    ///
    /// [`eval_batch_raw`]: PlanExecutor::eval_batch_raw
    pub fn eval_taps_batch_raw(
        &mut self,
        query: &Query,
        raw: &[u8],
        num_features: usize,
        taps: &[u32],
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
        for &t in taps {
            assert!(
                (t as usize) < self.plan.ops.len(),
                "tap {t} out of range for a {}-op plan",
                self.plan.ops.len()
            );
        }
        out.reserve(raw.len() / nf * taps.len());
        let mut emit = |scratch: &[[f64; LANES]], width| {
            // Sample-major: row by row, each row's taps in tap order.
            (0..width).for_each(|l| out.extend(taps.iter().map(|&t| scratch[t as usize][l])));
        };
        let mut rest = raw;
        while rest.len() >= LANES * nf {
            let (rows, tail) = rest.split_at(LANES * nf);
            self.run_lanes(query, rows);
            emit(&self.scratch, LANES);
            rest = tail;
        }
        while !rest.is_empty() {
            let (row, tail) = rest.split_at(nf);
            self.run_chunk::<1>(query, row);
            emit(&self.scratch, 1);
            rest = tail;
        }
    }

    /// One whole chunk through the widest instantiation of the kernel
    /// this CPU has. The choice is the platform's, never an option, and
    /// cannot change a bit: the body has no fused multiply-add to gain
    /// and Rust never contracts `a * b + c`, so wider registers only
    /// hold more lanes of the same IEEE operations.
    fn run_lanes(&mut self, query: &Query, rows: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the line above detected AVX2 on the running CPU,
            // the only requirement `run_chunk_avx2` adds to the body.
            return unsafe { self.run_chunk_avx2(query, rows) };
        }
        self.run_chunk::<LANES>(query, rows)
    }

    /// [`PlanExecutor::run_chunk`] at `W = LANES`, compiled with 256-bit
    /// registers: the body is inlined here, not written again.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_chunk_avx2(&mut self, query: &Query, rows: &[u8]) {
        self.run_chunk::<LANES>(query, rows)
    }

    /// The kernel: evaluate every op over the `W` samples in `rows`,
    /// leaving op `i`'s results in `scratch[i][..W]`.
    #[inline(always)]
    fn run_chunk<const W: usize>(&mut self, query: &Query, rows: &[u8]) {
        let plan = self.plan;
        let nf = plan.num_vars;
        let mpe = query.is_mpe();
        // Ops consume the two arenas front to back: no per-op range
        // to check, no index to scale.
        let mut operands = &plan.operands[..];
        let mut leaves = plan.leaves.iter();
        for (i, op) in plan.ops.iter().enumerate() {
            // Children strictly precede parents: every row below `i`
            // is final.
            let (done, rest) = self.scratch.split_at_mut(i);
            let mut take = |n: u32| {
                let (terms, tail) = operands.split_at(n as usize);
                operands = tail;
                terms.iter().map(|t| {
                    let x: &[f64; W] = done[t.child as usize].first_chunk().expect("W <= LANES");
                    (t, x)
                })
            };
            let out: [f64; W] = match *op {
                PlanOp::Leaf { var } => {
                    let leaf = leaves.next().expect("one record per leaf op");
                    let var = var as usize;
                    if query.is_observed(var) {
                        std::array::from_fn(|l| leaf.table[rows[l * nf + var] as usize])
                    } else if mpe {
                        [leaf.mode_log; W]
                    } else {
                        [MARGINALIZED_LOG; W]
                    }
                }
                PlanOp::Product { n } => {
                    // Same fold as the oracle: 0.0, then += in child
                    // order.
                    let mut acc = [0.0; W];
                    for (_, x) in take(n) {
                        for l in 0..W {
                            acc[l] += x[l];
                        }
                    }
                    acc
                }
                PlanOp::Sum { n } if mpe => {
                    // Oracle's MPE kernel: strict `>`, first term wins
                    // ties.
                    let mut best = [f64::NEG_INFINITY; W];
                    for (t, x) in take(n) {
                        for l in 0..W {
                            let v = t.log_weight + x[l];
                            if v > best[l] {
                                best[l] = v;
                            }
                        }
                    }
                    best
                }
                PlanOp::Sum { n } => {
                    let terms = take(n);
                    // Oracle's log-sum-exp, one pass per step: max in
                    // term order, `Σ w·exp(x − m)` in term order, then
                    // `m + ln s` unless the lane's max is −inf (an
                    // empty sum is the all-−inf case).
                    let mut m = [f64::NEG_INFINITY; W];
                    for (_, x) in terms.clone() {
                        for l in 0..W {
                            m[l] = m[l].max(x[l]);
                        }
                    }
                    let mut s = [0.0; W];
                    for (t, x) in terms {
                        for l in 0..W {
                            s[l] += t.weight * math::exp(x[l] - m[l]);
                        }
                    }
                    for l in 0..W {
                        s[l] = if m[l] == f64::NEG_INFINITY {
                            f64::NEG_INFINITY
                        } else {
                            m[l] + math::ln(s[l])
                        };
                    }
                    s
                }
            };
            rest[0][..W].copy_from_slice(&out);
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
        assert_eq!(plan.fingerprint(), spn.fingerprint());
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
        let plan = CompiledPlan::compile(&spn);
        let data = all_rows();
        let mut ex = PlanExecutor::new(&plan);
        // Tapping the root op reproduces the root path bit for bit;
        // tapping a leaf op yields that leaf's table value.
        let root = (plan.len() - 1) as u32;
        let mut tapped = Vec::new();
        ex.eval_taps_batch_raw(&Query::Complete, data.raw(), 2, &[root, 0], &mut tapped);
        assert_eq!(tapped.len(), 2 * data.num_samples());
        let roots = ex.eval_batch(&Query::Complete, &data);
        for i in 0..data.num_samples() {
            assert_eq!(tapped[2 * i].to_bits(), roots[i].to_bits());
            // Leaf 0 models var 0 with P(0) = P(1) = 0.5.
            assert!((tapped[2 * i + 1] - 0.5f64.ln()).abs() < 1e-12);
        }
    }

    /// The chunk kernel `eval_batch` dispatches to (AVX2 where the CPU
    /// has it) against the default-feature instantiation of the same
    /// body: every op's row of every whole chunk, `to_bits`, on the five
    /// benchmark networks, the three query shapes and batch sizes around
    /// the lane width (leftover rows take `W = 1` either way).
    #[test]
    fn every_instantiation_of_the_kernel_computes_the_same_bits() {
        #[cfg(target_arch = "x86_64")]
        let wide = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        if !wide {
            println!("SKIPPED: no AVX2 on this CPU, the default instantiation is the only one");
            return;
        }
        for bench in crate::nips::ALL_BENCHMARKS {
            let plan = CompiledPlan::compile(&bench.build_spn());
            let nf = plan.num_vars();
            let mask: Vec<bool> = (0..nf).map(|v| v % 3 != 0).collect();
            let queries = [
                Query::Complete,
                Query::marginal(mask.clone()),
                Query::mpe(mask),
            ];
            let mut ex = PlanExecutor::new(&plan);
            for (query, n) in queries
                .iter()
                .flat_map(|q| [LANES, LANES + 1, 2 * LANES + 3].map(|n| (q, n)))
            {
                let data = bench.dataset(n, 0xA5A5 + n as u64);
                for rows in data.raw().chunks_exact(LANES * nf) {
                    ex.run_lanes(query, rows);
                    let dispatched = ex.scratch.clone();
                    ex.run_chunk::<LANES>(query, rows);
                    for (op, (a, b)) in dispatched.iter().zip(&ex.scratch).enumerate() {
                        assert_eq!(
                            a.map(f64::to_bits),
                            b.map(f64::to_bits),
                            "{bench:?} {} query, {n} rows, op {op}",
                            query.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tap_out_of_range_panics() {
        let spn = mixture();
        let plan = CompiledPlan::compile(&spn);
        let mut out = Vec::new();
        PlanExecutor::new(&plan).eval_taps_batch_raw(&Query::Complete, &[0, 0], 2, &[99], &mut out);
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
