//! Compiling an SPN into a hardware datapath program.
//!
//! The paper's generator turns an SPFlow description into a fully
//! pipelined arithmetic circuit. This module performs the same
//! compilation step: the SPN graph is lowered to a flat list of
//! [`DatapathOp`]s in dataflow order —
//!
//! * each leaf becomes a **table lookup** (the histogram lives in
//!   BRAM/LUTRAM, indexed by the input byte),
//! * each product node becomes a balanced **multiplier tree**,
//! * each sum node becomes one constant **weight multiplier per edge**
//!   feeding a balanced **adder tree** (weights are baked into the
//!   circuit at synthesis time).
//!
//! The resulting [`DatapathProgram`] is both *executable* (generic over
//! any [`SpnNumber`] arithmetic — this is the bit-accurate functional
//! model of the hardware) and *analyzable* (operation counts drive the
//! resource model; dependence structure drives pipeline scheduling).
//!
//! It is executable twice over, on purpose. [`DatapathProgram::execute`]
//! is the readable per-sample reference: it converts each constant where
//! it meets it and is what every bit-for-bit oracle calls.
//! `DatapathProgram::synthesize` does what the generator does at
//! synthesis time — converts every table entry and weight into the
//! datapath format once — and the resulting `SynthesizedDatapath` is
//! what a core ([`crate::AcceleratorCore::run_job`]) streams batches
//! through. Neither is built on the other.

use serde::{Deserialize, Serialize};
use spn_arith::{RangeLimits, SpnNumber};
use spn_core::{isa, Leaf, Node, Spn};

/// Index of an operation's result in the program's value space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpId(pub u32);

impl OpId {
    /// As a usize index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One hardware operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DatapathOp {
    /// Histogram/categorical lookup: `table[input[var]]`.
    LeafLookup {
        /// Input variable index (byte lane).
        var: usize,
        /// The table contents as probabilities in f64, one entry per
        /// input byte value from 0 (at most 256); a byte past the end reads 0.0.
        /// The program is format-agnostic, so they stay f64 here:
        /// a core converts them once for its format when it is built,
        /// [`DatapathProgram::execute`] at every lookup.
        table: Vec<f64>,
    },
    /// Two-input multiplier.
    Mul {
        /// Left operand.
        a: OpId,
        /// Right operand.
        b: OpId,
    },
    /// Multiplication by a synthesis-time constant (sum-edge weight).
    ConstMul {
        /// Operand.
        a: OpId,
        /// The constant weight.
        weight: f64,
    },
    /// Two-input adder.
    Add {
        /// Left operand.
        a: OpId,
        /// Right operand.
        b: OpId,
    },
}

/// Operation-count summary (drives the resource model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpCounts {
    /// Leaf lookup tables.
    pub lookups: usize,
    /// Total table entries across all lookups.
    pub table_entries: usize,
    /// Variable × variable multipliers.
    pub muls: usize,
    /// Constant (weight) multipliers.
    pub const_muls: usize,
    /// Adders.
    pub adds: usize,
}

impl OpCounts {
    /// All multipliers (hardware-wise, constant multipliers are
    /// multipliers too, sometimes strength-reduced).
    pub fn total_muls(&self) -> usize {
        self.muls + self.const_muls
    }
}

/// A compiled datapath.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatapathProgram {
    ops: Vec<DatapathOp>,
    root: OpId,
    num_vars: usize,
    /// Name inherited from the source SPN.
    pub name: String,
}

impl DatapathProgram {
    /// Compile an SPN. The SPN must be valid (checked at construction by
    /// `spn-core`); Gaussian leaves are rejected, as the Mixed-SPN
    /// hardware only supports table-based leaves.
    ///
    /// # Panics
    /// Panics when the SPN contains a Gaussian leaf.
    pub fn compile(spn: &Spn) -> DatapathProgram {
        let mut ops: Vec<DatapathOp> = Vec::with_capacity(spn.len() * 2);
        // Result op of each SPN node, filled in arena order.
        let mut result: Vec<OpId> = Vec::with_capacity(spn.len());

        for node in spn.nodes() {
            let id = match node {
                Node::Leaf { var, dist } => {
                    let len = table_len(dist);
                    let table = dist.byte_table(|d| d)[..len].to_vec();
                    push(&mut ops, DatapathOp::LeafLookup { var: *var, table })
                }
                Node::Product { children } => {
                    let inputs: Vec<OpId> = children.iter().map(|c| result[c.index()]).collect();
                    reduce_tree(&mut ops, &inputs, |a, b| DatapathOp::Mul { a, b })
                }
                Node::Sum { children, weights } => {
                    let weighted: Vec<OpId> = children
                        .iter()
                        .zip(weights)
                        .map(|(c, &w)| {
                            push(
                                &mut ops,
                                DatapathOp::ConstMul {
                                    a: result[c.index()],
                                    weight: w,
                                },
                            )
                        })
                        .collect();
                    reduce_tree(&mut ops, &weighted, |a, b| DatapathOp::Add { a, b })
                }
            };
            result.push(id);
        }

        DatapathProgram {
            root: result[spn.root().index()],
            ops,
            num_vars: spn.num_vars(),
            name: spn.name.clone(),
        }
    }

    /// The operation list, in dataflow order.
    pub fn ops(&self) -> &[DatapathOp] {
        &self.ops
    }

    /// The op producing the final probability.
    pub(crate) fn root(&self) -> OpId {
        self.root
    }

    /// Number of input byte lanes.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Count operations by kind.
    pub fn op_counts(&self) -> OpCounts {
        let mut c = OpCounts::default();
        for op in &self.ops {
            match op {
                DatapathOp::LeafLookup { table, .. } => {
                    c.lookups += 1;
                    c.table_entries += table.len();
                }
                DatapathOp::Mul { .. } => c.muls += 1,
                DatapathOp::ConstMul { .. } => c.const_muls += 1,
                DatapathOp::Add { .. } => c.adds += 1,
            }
        }
        c
    }

    /// Execute the datapath on one input sample, in the given arithmetic.
    /// This is the bit-accurate functional model: every intermediate is
    /// rounded exactly as the hardware would round it.
    pub fn execute<F: SpnNumber>(&self, format: &F, sample: &[u8]) -> f64 {
        assert_eq!(
            sample.len(),
            self.num_vars,
            "sample width {} != datapath input width {}",
            sample.len(),
            self.num_vars
        );
        let mut values: Vec<F::Value> = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let v = match op {
                DatapathOp::LeafLookup { var, table } => {
                    let idx = sample[*var] as usize;
                    let p = table.get(idx).copied().unwrap_or(0.0);
                    format.from_f64(p)
                }
                DatapathOp::Mul { a, b } => format.mul(values[a.index()], values[b.index()]),
                DatapathOp::ConstMul { a, weight } => {
                    format.mul(values[a.index()], format.from_f64(*weight))
                }
                DatapathOp::Add { a, b } => format.add(values[a.index()], values[b.index()]),
            };
            values.push(v);
        }
        format.to_f64(values[self.root.index()])
    }

    /// Bake the program into `format`, as the hardware generator does
    /// at synthesis time: every leaf becomes a full 256-entry ROM and
    /// every sum weight a constant of its multiplier, each converted
    /// exactly once, here. In the same pass over the ops in dataflow
    /// order, each result gets a value slot, which goes back on a free
    /// list after the result's last reader, and a range bound, from
    /// which an op is marked to run without its flush and saturate
    /// checks where the format's [`SpnNumber::range_limits`] show that
    /// neither can fire.
    pub(crate) fn synthesize<F: SpnNumber + Clone>(&self, format: &F) -> SynthesizedDatapath<F> {
        let index = |n: usize| u32::try_from(n).expect("datapath too large");
        let root = self.root.index();
        // The op after which each result is dead: its last reader's, the
        // end for the root, its own for a result nobody reads.
        let mut last_read: Vec<usize> = (0..self.ops.len()).collect();
        for (i, op) in self.ops.iter().enumerate() {
            for a in op.operands().into_iter().flatten() {
                last_read[a.index()] = i;
            }
        }
        last_read[root] = usize::MAX;
        let limits = format.range_limits();
        // Only a format with limits to prove needs its constants' ranges.
        let range_of = |values: &[F::Value]| match limits {
            Some(_) => Range::of(values.iter().map(|&v| format.to_f64(v))),
            None => Range::NOTHING,
        };
        let mut slot_of = Vec::with_capacity(self.ops.len());
        let mut ranges: Vec<Range> = Vec::with_capacity(self.ops.len());
        let mut free: Vec<u32> = Vec::new();
        let mut slots = 0;
        let mut tables = Vec::with_capacity(self.op_counts().lookups);
        let zero = format.from_f64(0.0);
        let mut ops = Vec::with_capacity(self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            // The result's slot is taken before the operands' are given
            // back, so an op never writes a slot it reads.
            let dst = free.pop().unwrap_or_else(|| {
                slots += 1;
                index(slots - 1)
            });
            let slot = |a: &OpId| slot_of[a.index()];
            let (synth, range) = match op {
                DatapathOp::LeafLookup { var, table } => {
                    // Filled in its arena slot; a byte past the table's
                    // end reads the converted 0.0.
                    let k = tables.len();
                    tables.push([zero; 256]);
                    for (entry, &x) in tables[k].iter_mut().zip(table) {
                        *entry = format.from_f64(x);
                    }
                    let range = range_of(&tables[k]);
                    (
                        SynthOp::Lookup {
                            var: index(*var),
                            table: index(k),
                            dst,
                        },
                        range,
                    )
                }
                DatapathOp::Mul { a, b } => {
                    let (in_range, range) = ranges[a.index()].mul(&ranges[b.index()], limits);
                    (
                        SynthOp::Mul {
                            a: slot(a),
                            b: slot(b),
                            dst,
                            in_range,
                        },
                        range,
                    )
                }
                DatapathOp::ConstMul { a, weight } => {
                    let weight = format.from_f64(*weight);
                    let (in_range, range) = ranges[a.index()].mul(&range_of(&[weight]), limits);
                    (
                        SynthOp::Scale {
                            a: slot(a),
                            weight,
                            dst,
                            in_range,
                        },
                        range,
                    )
                }
                DatapathOp::Add { a, b } => {
                    let (in_range, range) = ranges[a.index()].add(&ranges[b.index()], limits);
                    (
                        SynthOp::Add {
                            a: slot(a),
                            b: slot(b),
                            dst,
                            in_range,
                        },
                        range,
                    )
                }
            };
            ops.push(synth);
            ranges.push(range);
            slot_of.push(dst);
            for a in op.operands().into_iter().flatten().chain([OpId(index(i))]) {
                if last_read[a.index()] == i {
                    free.push(slot_of[a.index()]);
                }
            }
        }
        SynthesizedDatapath {
            ops,
            slots,
            tables,
            root: slot_of[root] as usize,
            num_vars: self.num_vars,
            format: format.clone(),
        }
    }
}

impl DatapathOp {
    /// The ops whose results this one reads, each once.
    fn operands(&self) -> [Option<OpId>; 2] {
        match *self {
            DatapathOp::LeafLookup { .. } => [None, None],
            DatapathOp::ConstMul { a, .. } => [Some(a), None],
            DatapathOp::Mul { a, b } | DatapathOp::Add { a, b } => [Some(a), (b != a).then_some(b)],
        }
    }
}

/// What synthesis knows of the values an op can produce: 0, or a value
/// in `[lo, hi]`. `lo` is `inf` when only 0 is possible.
#[derive(Debug, Clone, Copy)]
struct Range {
    lo: f64,
    hi: f64,
}

impl Range {
    /// Only 0.
    const NOTHING: Range = Range {
        lo: f64::INFINITY,
        hi: 0.0,
    };

    /// The range of a set of converted constants. Nonnegative `f64`s
    /// order as their bit patterns, and 0 minus one wraps past every
    /// other, so both ends are one integer reduction, which vectorises.
    fn of(values: impl Iterator<Item = f64>) -> Range {
        let (lo, hi) = values.map(f64::to_bits).fold((u64::MAX, 0), |(lo, hi), b| {
            (lo.min(b.wrapping_sub(1)), hi.max(b))
        });
        match lo.wrapping_add(1) {
            0 => Range::NOTHING,
            lo => Range {
                lo: f64::from_bits(lo),
                hi: f64::from_bits(hi),
            },
        }
    }

    /// Whether a product of a value from `self` and one from `other`
    /// runs unchecked, and the range of its rounded result.
    fn mul(&self, other: &Range, limits: Option<RangeLimits>) -> (bool, Range) {
        Range::rounded(self.lo * other.lo, self.hi * other.hi, limits)
    }

    /// As [`Range::mul`], for a sum: a nonzero sum of nonnegative
    /// values is at least the smaller nonzero operand.
    fn add(&self, other: &Range, limits: Option<RangeLimits>) -> (bool, Range) {
        Range::rounded(self.lo.min(other.lo), self.hi + other.hi, limits)
    }

    /// The exact result of an op lies in `[lo, hi]`, each computed with
    /// one `f64` rounding. Widened by twice the larger of the format's
    /// unit roundoff and an `f64` ulp — which covers that `f64` rounding
    /// as well as the format's own — the bound holds both the exact and
    /// the rounded result. The op runs unchecked when the widened bound
    /// lies inside the format's limits, and every nonzero value of the
    /// format lies inside them in any case.
    fn rounded(lo: f64, hi: f64, limits: Option<RangeLimits>) -> (bool, Range) {
        let Some(limits) = limits else {
            return (false, Range { lo, hi });
        };
        let widen = 2.0 * limits.unit_roundoff.max(f64::EPSILON);
        let (lo, hi) = (lo * (1.0 - widen), hi * (1.0 + widen));
        let in_range = lo >= limits.flush_below && hi <= limits.saturate_above;
        let range = Range {
            lo: lo.max(limits.flush_below),
            hi: hi.min(limits.saturate_above),
        };
        (in_range, range)
    }
}

/// One operation of a [`SynthesizedDatapath`]. Operands and results are
/// value slots; `dst` is never an operand's slot. An op marked
/// `in_range` runs its format's unchecked arithmetic
/// ([`SpnNumber::mul_in_range`] / [`SpnNumber::add_in_range`]).
#[derive(Debug, Clone, Copy)]
enum SynthOp<V> {
    /// `tables[table][input[var]]`.
    Lookup { var: u32, table: u32, dst: u32 },
    /// Product of two slots.
    Mul {
        a: u32,
        b: u32,
        dst: u32,
        in_range: bool,
    },
    /// A sum edge's weight multiplier: the weight is a constant of the op.
    Scale {
        a: u32,
        weight: V,
        dst: u32,
        in_range: bool,
    },
    Add {
        a: u32,
        b: u32,
        dst: u32,
        in_range: bool,
    },
}

/// A [`DatapathProgram`] synthesised for one arithmetic format
/// ([`DatapathProgram::synthesize`]): the batch datapath of a core.
/// Results are bit-identical to [`DatapathProgram::execute`] row by row.
#[derive(Debug, Clone)]
pub(crate) struct SynthesizedDatapath<F: SpnNumber> {
    ops: Vec<SynthOp<F::Value>>,
    /// Value slots: as many as the most results live at once.
    slots: usize,
    /// Every leaf's ROM, converted, in op order: one entry per byte.
    tables: Vec<[F::Value; 256]>,
    /// The root's slot.
    root: usize,
    num_vars: usize,
    format: F,
}

/// Samples a [`SynthesizedDatapath`] carries through one op before it
/// moves to the next. Within a sample every op waits for its operands;
/// across a lane nothing does, so the host overlaps the arithmetic the
/// way the pipelined circuit overlaps samples, and the branch-free CFP
/// arithmetic — the `f64` path and the integer emulation alike — runs
/// four (AVX2) or eight (AVX-512) lanes to a register. One sample at a
/// time is four times as slow (integer emulation, NIPS10, AVX2: 274–341
/// vs 74–77 ns/sample). With one slot per live value and no weight
/// rows the scratch is 9 × `LANES` values on NIPS10 and 15 × on NIPS80,
/// so a wider lane costs little memory and spreads each op's fixed
/// cost over more samples. The paper's format on the `f64` path,
/// AVX-512, `AcceleratorCore::run_job` over 4096 rows, range of the
/// per-round minima over five interleaved rounds, slow-mode rounds left
/// out, NIPS10 / NIPS80 ns/sample: 13.7–14.2 / 142–151 at 64 lanes,
/// 11.4–11.7 / 122–128 at 128, 12.2–12.6 / 114–121 at 256 and
/// 12.3–12.4 / 146–148 at 512. 128 is quickest on NIPS10 (its 40 KiB of
/// ROMs and 9 KiB of scratch just about fit the 48 KiB L1d), 256 on
/// NIPS80 (whose 320 KiB of ROMs fit no L1d); 256 is 6 % behind on the
/// one and 7 % ahead on the other. A constant.
const LANES: usize = 256;

impl<F: SpnNumber> SynthesizedDatapath<F> {
    /// Stream a batch of samples (row-major, `num_vars` bytes each)
    /// through the datapath, appending one probability per sample to
    /// `out`. One value scratch serves the whole batch, `LANES` (256)
    /// samples at a time, through the kernel compiled for the widest
    /// instruction-set tier this CPU supports ([`spn_core::isa`]).
    pub(crate) fn execute_into(&self, data: &[u8], out: &mut Vec<f64>) {
        isa::run(self, data, out)
    }
}

impl<F: SpnNumber> isa::Kernel for SynthesizedDatapath<F> {
    type Out = Vec<f64>;

    /// The kernel: every op over a lane of samples, then the next op.
    /// Always inlined, so each tier's instantiation compiles the
    /// arithmetic for its own registers.
    #[inline(always)]
    fn run(&self, data: &[u8], out: &mut Vec<f64>) {
        assert!(data.len().is_multiple_of(self.num_vars), "ragged batch");
        let f = &self.format;
        // Lane-major value slots: lane `l` of slot `s` is
        // `values[s * LANES + l]`.
        let mut values = vec![f.zero(); self.slots * LANES];
        out.reserve(data.len() / self.num_vars);
        for chunk in data.chunks(LANES * self.num_vars) {
            let lanes = chunk.len() / self.num_vars;
            for op in &self.ops {
                let (SynthOp::Lookup { dst, .. }
                | SynthOp::Mul { dst, .. }
                | SynthOp::Scale { dst, .. }
                | SynthOp::Add { dst, .. }) = *op;
                // The result's slot apart from every other.
                let (below, rest) = values.split_at_mut(dst as usize * LANES);
                let (dst, above) = rest.split_at_mut(LANES);
                let dst = &mut dst[..lanes];
                let slot = |s: u32| {
                    let row = match (s as usize).checked_sub(below.len() / LANES) {
                        None => &below[s as usize * LANES..],
                        Some(past) => &above[(past - 1) * LANES..],
                    };
                    &row[..lanes]
                };
                match *op {
                    SynthOp::Lookup { var, table, .. } => {
                        let rom = &self.tables[table as usize];
                        for (d, sample) in dst.iter_mut().zip(chunk.chunks_exact(self.num_vars)) {
                            *d = rom[usize::from(sample[var as usize])];
                        }
                    }
                    SynthOp::Mul {
                        a,
                        b,
                        in_range: true,
                        ..
                    } => {
                        for ((d, &x), &y) in dst.iter_mut().zip(slot(a)).zip(slot(b)) {
                            *d = f.mul_in_range(x, y);
                        }
                    }
                    SynthOp::Mul { a, b, .. } => f.mul_lanes(dst, slot(a), slot(b)),
                    SynthOp::Scale {
                        a,
                        weight,
                        in_range: true,
                        ..
                    } => {
                        for (d, &x) in dst.iter_mut().zip(slot(a)) {
                            *d = f.mul_in_range(x, weight);
                        }
                    }
                    SynthOp::Scale { a, weight, .. } => f.mul_lanes(dst, slot(a), &[weight; LANES]),
                    SynthOp::Add {
                        a,
                        b,
                        in_range: true,
                        ..
                    } => {
                        for ((d, &x), &y) in dst.iter_mut().zip(slot(a)).zip(slot(b)) {
                            *d = f.add_in_range(x, y);
                        }
                    }
                    SynthOp::Add { a, b, .. } => {
                        for ((d, &x), &y) in dst.iter_mut().zip(slot(a)).zip(slot(b)) {
                            *d = f.add(x, y);
                        }
                    }
                }
            }
            let root = &values[self.root * LANES..][..lanes];
            out.extend(root.iter().map(|&v| f.to_f64(v)));
        }
    }
}

fn push(ops: &mut Vec<DatapathOp>, op: DatapathOp) -> OpId {
    let id = OpId(u32::try_from(ops.len()).expect("datapath too large"));
    ops.push(op);
    id
}

/// Reduce n inputs with a balanced binary tree of `make` ops — the
/// minimum-depth structure the hardware generator emits.
fn reduce_tree(
    ops: &mut Vec<DatapathOp>,
    inputs: &[OpId],
    make: impl Fn(OpId, OpId) -> DatapathOp,
) -> OpId {
    assert!(!inputs.is_empty(), "cannot reduce zero inputs");
    let mut layer: Vec<OpId> = inputs.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if pair.len() == 2 {
                next.push(push(ops, make(pair[0], pair[1])));
            } else {
                next.push(pair[0]); // odd one passes through
            }
        }
        layer = next;
    }
    layer[0]
}

/// Entries in a leaf's lookup table, which the hardware addresses with
/// the raw input byte: a histogram's every integer point below its last
/// break (at least one), a categorical's every outcome an 8-bit address
/// reaches. Entry `v` is the density at `v` (`Leaf::byte_table`).
///
/// # Panics
/// Panics on a Gaussian leaf.
fn table_len(dist: &Leaf) -> usize {
    match dist {
        Leaf::Histogram { breaks, .. } => {
            (breaks[breaks.len() - 1].ceil() as i64).clamp(1, 256) as usize
        }
        Leaf::Categorical { probs } => probs.len().min(256),
        Leaf::Gaussian { .. } => panic!("the Mixed-SPN datapath supports only table leaves"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfp_on_f64::CfpOnF64;
    use spn_arith::{truncating_cfp, CfpFormat, F64Format, LnsFormat, PositFormat, Rounding};
    use spn_core::{
        random_spn, Evaluator, NipsBenchmark, Query, RandomSpnConfig, SpnBuilder, ALL_BENCHMARKS,
    };

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

    #[test]
    fn f64_execution_matches_reference_inference() {
        let spn = mixture();
        let prog = DatapathProgram::compile(&spn);
        let mut ev = Evaluator::new(&spn);
        for s in [[0u8, 0], [0, 1], [1, 0], [1, 1]] {
            let hw = prog.execute(&F64Format, &s);
            let reference = ev.eval_bytes(&Query::Complete, &s).exp();
            assert!(
                (hw - reference).abs() < 1e-15,
                "sample {s:?}: hw {hw} vs ref {reference}"
            );
        }
    }

    #[test]
    fn cfp_execution_is_close_lns_and_posit_too() {
        let spn = NipsBenchmark::Nips10.build_spn();
        let prog = DatapathProgram::compile(&spn);
        let mut ev = Evaluator::new(&spn);
        let data = NipsBenchmark::Nips10.dataset(50, 3);
        let cfp = CfpFormat::paper_default();
        let lns = LnsFormat::paper_default();
        let posit = PositFormat::paper_default();
        for row in data.rows() {
            let reference = ev.eval_bytes(&Query::Complete, row).exp();
            // Posit precision tapers away from 1.0; probabilities of
            // ~1e-24 sit deep in the regime where fraction bits are
            // scarce — exactly the weakness [4] reports for posits.
            for (label, tol, got) in [
                ("cfp", 1e-3, prog.execute(&cfp, row)),
                ("lns", 1e-3, prog.execute(&lns, row)),
                ("posit", 1e-1, prog.execute(&posit, row)),
            ] {
                let rel = ((got - reference) / reference).abs();
                assert!(rel < tol, "{label}: {got} vs {reference} (rel {rel})");
            }
        }
    }

    #[test]
    fn op_counts_are_consistent() {
        let spn = mixture();
        let prog = DatapathProgram::compile(&spn);
        let c = prog.op_counts();
        assert_eq!(c.lookups, 4);
        assert_eq!(c.muls, 2); // two 2-input products
        assert_eq!(c.const_muls, 2); // two weighted sum edges
        assert_eq!(c.adds, 1);
        assert_eq!(c.total_muls(), 4);
        assert_eq!(c.table_entries, 4 * 2);
        assert_eq!(prog.ops().len(), 4 + 2 + 2 + 1);
    }

    #[test]
    fn balanced_tree_reduction() {
        // A product of 5 children: 4 muls arranged in ceil(log2(5)) = 3
        // levels; check count here, depth in the pipeline tests.
        let mut b = SpnBuilder::new(5);
        let leaves: Vec<_> = (0..5)
            .map(|v| b.leaf(v, Leaf::byte_histogram(&[1.0])))
            .collect();
        let p = b.product(leaves);
        let spn = b.finish(p, "prod5").unwrap();
        let prog = DatapathProgram::compile(&spn);
        assert_eq!(prog.op_counts().muls, 4);
    }

    #[test]
    fn batch_matches_single() {
        let spn = mixture();
        let prog = DatapathProgram::compile(&spn);
        // The last row's bytes lie past both 2-entry tables.
        let data = [0u8, 0, 1, 1, 0, 1, 2, 255];
        let cfp = CfpFormat::paper_default();
        let mut batch = vec![-1.0];
        prog.synthesize(&F64Format).execute_into(&data, &mut batch);
        prog.synthesize(&cfp).execute_into(&data, &mut batch);
        assert_eq!(batch.len(), 1 + 4 + 4, "appends, one result per row");
        for (i, row) in data.chunks(2).enumerate() {
            assert_eq!(batch[1 + i], prog.execute(&F64Format, row));
            assert_eq!(batch[5 + i], prog.execute(&cfp, row));
        }
        assert_eq!(batch[4], 0.0);
    }

    /// Every tier this CPU supports against `Base`, through
    /// `isa::run_on`: `to_bits`, in the six formats
    /// `tests/datapath_differential.rs` covers and on the `f64` path, at
    /// batch sizes around the lane width and a whole block.
    #[test]
    fn every_instantiation_of_the_kernel_computes_the_same_bits() {
        use isa::Tier;
        fn same_bits<F: SpnNumber + Clone>(prog: &DatapathProgram, format: &F, data: &[u8]) {
            let datapath = prog.synthesize(format);
            for rows in [0, 1, LANES - 1, LANES, LANES + 1, 4096] {
                let data = &data[..rows * prog.num_vars()];
                let run = |at| {
                    let mut out = Vec::new();
                    isa::run_on(at, &datapath, data, &mut out);
                    out.into_iter().map(f64::to_bits).collect::<Vec<_>>()
                };
                let base = run(Tier::Base);
                for at in Tier::ALL.into_iter().filter(|&t| t <= isa::tier()) {
                    assert!(
                        run(at) == base,
                        "{}, {rows} rows, at {at:?}",
                        format.describe()
                    );
                }
            }
        }
        for missing in Tier::ALL.into_iter().filter(|&t| t > isa::tier()) {
            println!("SKIPPED: {missing:?}: this CPU does not support it");
        }
        let cfg = RandomSpnConfig {
            num_vars: 3,
            domain: 4,
            repetitions: 2,
            max_leaf_region: 1,
            seed: 19,
        };
        let prog = DatapathProgram::compile(&random_spn(&cfg, "instantiations").unwrap());
        // Bytes 0..=5 against 4-entry tables: a third lie past the end.
        let data: Vec<u8> = (0..4096 * 3u32).map(|i| (i * 7 % 13 % 6) as u8).collect();
        same_bits(&prog, &CfpFormat::paper_default(), &data);
        same_bits(&prog, &truncating_cfp(11, 22), &data);
        same_bits(&prog, &CfpFormat::new(4, 3, Rounding::NearestEven), &data);
        same_bits(&prog, &LnsFormat::paper_default(), &data);
        same_bits(&prog, &PositFormat::paper_default(), &data);
        same_bits(&prog, &F64Format, &data);
        // The f64 path's selects and bit operations, in the paper's
        // format and in one narrow enough that products flush.
        for cfp in [
            CfpFormat::paper_default(),
            CfpFormat::new(4, 3, Rounding::NearestEven),
        ] {
            same_bits(&prog, &CfpOnF64::new(cfp).unwrap(), &data);
        }
    }

    /// The dense ROMs' padding and truncation edges: tables shorter
    /// than, as long as and longer than an 8-bit address reaches, read
    /// at every byte value, in the six formats
    /// `tests/datapath_differential.rs` covers and on the `f64` path.
    /// Outcomes past 255 are no ROM entries: an 8-bit address cannot
    /// reach them, so the resource model and the netlist do not count them.
    #[test]
    fn every_byte_reads_its_rom_entry_at_every_table_length() {
        fn same_bits<F: SpnNumber + Clone>(prog: &DatapathProgram, format: &F) {
            let bytes: Vec<u8> = (0..=255).collect();
            let mut out = Vec::new();
            prog.synthesize(format).execute_into(&bytes, &mut out);
            for (&byte, got) in bytes.iter().zip(out) {
                let want = prog.execute(format, &[byte]);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}, byte {byte}: {got} vs {want}",
                    format.describe()
                );
            }
        }
        for len in [1, 2, 255, 256, 257, 300] {
            // One leaf, a categorical of `len` distinct outcomes.
            let total = (len * (len + 1) / 2) as f64;
            let probs = (1..=len).map(|i| i as f64 / total).collect();
            let mut b = SpnBuilder::new(1);
            let leaf = b.leaf(0, Leaf::Categorical { probs });
            let prog = DatapathProgram::compile(&b.finish(leaf, "rom").unwrap());
            assert_eq!(prog.op_counts().table_entries, len.min(256));
            same_bits(&prog, &CfpFormat::paper_default());
            same_bits(&prog, &truncating_cfp(11, 22));
            same_bits(&prog, &CfpFormat::new(4, 3, Rounding::NearestEven));
            same_bits(&prog, &LnsFormat::paper_default());
            same_bits(&prog, &PositFormat::paper_default());
            same_bits(&prog, &F64Format);
            same_bits(&prog, &CfpOnF64::new(CfpFormat::paper_default()).unwrap());
        }
    }

    /// Whether an arithmetic op is marked to run unchecked.
    fn mark<V>(op: &SynthOp<V>) -> Option<bool> {
        match *op {
            SynthOp::Lookup { .. } => None,
            SynthOp::Mul { in_range, .. }
            | SynthOp::Scale { in_range, .. }
            | SynthOp::Add { in_range, .. } => Some(in_range),
        }
    }

    /// How many of a synthesised datapath's arithmetic ops are marked,
    /// and how many there are.
    fn marked<F: SpnNumber>(datapath: &SynthesizedDatapath<F>) -> (usize, usize) {
        let marks: Vec<bool> = datapath.ops.iter().filter_map(mark).collect();
        (marks.iter().filter(|&&m| m).count(), marks.len())
    }

    /// Runs `prog` on every sample of `data` in `cfp` on the `f64` path
    /// op by op, and wherever a limit fires — the checked op's bits
    /// differ from the unchecked one's — asserts that the synthesised op
    /// is not marked. Then holds the synthesised batch `to_bits`-equal
    /// to `execute` in the integer emulation. Returns how many results
    /// flushed and how many saturated.
    fn limits_fire_only_unmarked(
        prog: &DatapathProgram,
        cfp: CfpFormat,
        data: &[u8],
    ) -> (usize, usize) {
        let on = CfpOnF64::new(cfp).unwrap();
        let datapath = prog.synthesize(&on);
        let (mut flushed, mut saturated) = (0, 0);
        for sample in data.chunks(prog.num_vars()) {
            let mut values: Vec<f64> = Vec::with_capacity(prog.ops().len());
            for (i, (op, synth)) in prog.ops().iter().zip(&datapath.ops).enumerate() {
                let v = |a: &OpId| values[a.index()];
                let (checked, unchecked) = match op {
                    DatapathOp::LeafLookup { var, table } => {
                        let p = on
                            .from_f64(table.get(usize::from(sample[*var])).copied().unwrap_or(0.0));
                        (p, p)
                    }
                    DatapathOp::Mul { a, b } => (on.mul(v(a), v(b)), on.mul_in_range(v(a), v(b))),
                    DatapathOp::ConstMul { a, weight } => {
                        let w = on.from_f64(*weight);
                        (on.mul(v(a), w), on.mul_in_range(v(a), w))
                    }
                    DatapathOp::Add { a, b } => (on.add(v(a), v(b)), on.add_in_range(v(a), v(b))),
                };
                if checked.to_bits() != unchecked.to_bits() {
                    assert_eq!(
                        mark(synth),
                        Some(false),
                        "{}: op {i} on {sample:?}",
                        on.describe()
                    );
                    if checked == 0.0 {
                        flushed += 1;
                    } else {
                        saturated += 1;
                    }
                }
                values.push(checked);
            }
        }
        let mut batch = Vec::new();
        datapath.execute_into(data, &mut batch);
        for (sample, got) in data.chunks(prog.num_vars()).zip(batch) {
            let want = prog.execute(&cfp, sample);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: {sample:?}",
                on.describe()
            );
        }
        (flushed, saturated)
    }

    /// The marks are only as good as the range analysis behind them,
    /// and no other test reaches a limit: NIPS values stay 10²⁵⁰ away
    /// from both. Here products do saturate and flush.
    #[test]
    fn range_limits_still_fire_where_they_can() {
        // Narrow bins: byte 0 reads density 5e299, byte 1 reads 1e-155,
        // byte 2 reads 0.5, every other byte 0. 5e299² saturates; 1e-155²
        // is an `f64` subnormal the format flushes, where rounding alone
        // would keep it (one below 2⁻¹⁰⁴⁵ rounds to 0 either way).
        let narrow = || Leaf::Histogram {
            breaks: vec![0.0, 1e-300, 1.0, 2.0, 3.0],
            densities: vec![5e299, 0.0, 1e-155, 0.5],
        };
        let mut b = SpnBuilder::new(2);
        let x0 = b.leaf(0, narrow());
        let x1 = b.leaf(1, narrow());
        let y0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let y1 = b.leaf(1, Leaf::byte_histogram(&[0.25, 0.75]));
        let p = b.product(vec![x0, x1]);
        let q = b.product(vec![y0, y1]);
        let s = b.sum(vec![(0.5, p), (0.5, q)]);
        let prog = DatapathProgram::compile(&b.finish(s, "narrow").unwrap());
        let every_pair: Vec<u8> = (0..=255)
            .flat_map(|x| (0..=255).flat_map(move |y| [x, y]))
            .collect();
        let (flushed, saturated) =
            limits_fire_only_unmarked(&prog, CfpFormat::paper_default(), &every_pair);
        assert!(
            flushed > 0 && saturated > 0,
            "flushed {flushed}, saturated {saturated}"
        );

        // A 4-bit exponent flushes below 2⁻⁶: products of a few
        // probabilities reach that.
        let cfg = RandomSpnConfig {
            num_vars: 3,
            domain: 4,
            repetitions: 2,
            max_leaf_region: 1,
            seed: 19,
        };
        let prog = DatapathProgram::compile(&random_spn(&cfg, "narrow-format").unwrap());
        // Every byte in each table and one past it, in every combination.
        let data: Vec<u8> = (0..5 * 5 * 5)
            .flat_map(|i: u8| [i % 5, i / 5 % 5, i / 25])
            .collect();
        let small = CfpFormat::new(4, 3, Rounding::NearestEven);
        let (flushed, _) = limits_fire_only_unmarked(&prog, small, &data);
        assert!(flushed > 0, "no result flushed");
    }

    /// The most results a program holds at once, its operands counted
    /// until the op that reads them last has written its own.
    fn most_live(prog: &DatapathProgram) -> usize {
        let mut last = vec![usize::MAX; prog.ops().len()];
        for (i, op) in prog.ops().iter().enumerate() {
            for a in op.operands().into_iter().flatten() {
                last[a.index()] = i;
            }
        }
        last[prog.root().index()] = prog.ops().len();
        (0..prog.ops().len())
            .map(|i| {
                (0..=i)
                    .filter(|&j| j == i || (last[j] != usize::MAX && last[j] >= i))
                    .count()
            })
            .max()
            .unwrap()
    }

    #[test]
    fn datapath_holds_only_live_values() {
        let on_f64 = CfpOnF64::new(CfpFormat::paper_default()).unwrap();
        for (bench, want_slots, want_marked) in [
            (NipsBenchmark::Nips10, 9..=9, 37),
            (NipsBenchmark::Nips80, 0..=16, 380),
        ] {
            let prog = DatapathProgram::compile(&bench.build_spn());
            let datapath = prog.synthesize(&on_f64);
            let (marked, arithmetic) = marked(&datapath);
            println!(
                "{bench:?}: {} slots (most live {}), {marked} / {arithmetic} marked",
                datapath.slots,
                most_live(&prog)
            );
            assert!(
                want_slots.contains(&datapath.slots),
                "{bench:?}: {} slots",
                datapath.slots
            );
            // A weight holds no slot: there are as many as results are
            // live at once.
            assert_eq!(datapath.slots, most_live(&prog), "{bench:?}");
            assert!(
                marked >= want_marked,
                "{bench:?}: {marked} / {arithmetic} marked"
            );
        }
    }

    /// A histogram leaf's table as `compile` builds it.
    fn histogram_table(breaks: &[f64], densities: &[f64]) -> Vec<f64> {
        let leaf = Leaf::Histogram {
            breaks: breaks.to_vec(),
            densities: densities.to_vec(),
        };
        leaf.byte_table(|d| d)[..table_len(&leaf)].to_vec()
    }

    #[test]
    fn histogram_expansion_dense_and_offset() {
        // Breaks [0,1,3): densities 0.5, 0.25 -> table [0.5, 0.25, 0.25].
        let t = histogram_table(&[0.0, 1.0, 3.0], &[0.5, 0.25]);
        assert_eq!(t, vec![0.5, 0.25, 0.25]);
        // Offset support [2,4): values 0,1 get 0.
        let t = histogram_table(&[2.0, 4.0], &[0.5]);
        assert_eq!(t, vec![0.0, 0.0, 0.5, 0.5]);
    }

    /// Table lengths are what the netlist and the resource model count:
    /// pinned to the lengths the per-byte expansion this builder replaced
    /// gave — `ceil(last break)` clamped to `1..=256` for a histogram,
    /// the outcome count up to 256 for a categorical.
    #[test]
    fn table_lengths_are_pinned() {
        let hist = |breaks: &[f64]| Leaf::Histogram {
            breaks: breaks.to_vec(),
            densities: vec![0.1; breaks.len() - 1],
        };
        let cases = [
            (hist(&[0.0, 1.0, 3.0]), 3),
            (hist(&[2.0, 4.0]), 4),
            (hist(&[0.5, 2.25, 7.75]), 8),
            (hist(&[0.0, 200.0]), 200),
            (hist(&[0.0, 255.5]), 256),
            (hist(&[10.0, 300.0]), 256),
            (hist(&[-2.0, -1.0]), 1),
            (hist(&[-2.0, 0.5]), 1),
            (
                Leaf::Categorical {
                    probs: vec![0.5; 2],
                },
                2,
            ),
            (
                Leaf::Categorical {
                    probs: vec![0.0; 300],
                },
                256,
            ),
        ];
        for (leaf, len) in &cases {
            assert_eq!(table_len(leaf), *len, "{leaf:?}");
        }
        // Every NIPS leaf is a full byte histogram.
        for bench in ALL_BENCHMARKS {
            let prog = DatapathProgram::compile(&bench.build_spn());
            for op in &prog.ops {
                if let DatapathOp::LeafLookup { table, .. } = op {
                    assert_eq!(table.len(), 256, "{bench:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "table leaves")]
    fn gaussian_leaves_rejected() {
        let mut b = SpnBuilder::new(1);
        let g = b.leaf(
            0,
            Leaf::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
        );
        let spn = b.finish(g, "gauss").unwrap();
        DatapathProgram::compile(&spn);
    }

    #[test]
    fn nips_programs_scale_linearly() {
        let c10 = DatapathProgram::compile(&NipsBenchmark::Nips10.build_spn()).op_counts();
        let c80 = DatapathProgram::compile(&NipsBenchmark::Nips80.build_spn()).op_counts();
        let ratio = c80.total_muls() as f64 / c10.total_muls() as f64;
        assert!(
            (4.0..16.0).contains(&ratio),
            "NIPS80/NIPS10 multiplier ratio {ratio}"
        );
        assert!(c80.lookups == 8 * c10.lookups);
    }
}
