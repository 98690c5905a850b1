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
use spn_arith::SpnNumber;
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
                    let table = match dist {
                        Leaf::Histogram { breaks, densities } => {
                            // The hardware addresses the table with the raw
                            // input byte; expand the histogram to one entry
                            // per integer value in [breaks[0], breaks[last]).
                            expand_histogram(breaks, densities)
                        }
                        // An 8-bit address reaches no outcome past 255.
                        Leaf::Categorical { probs } => probs[..probs.len().min(256)].to_vec(),
                        Leaf::Gaussian { .. } => {
                            panic!("the Mixed-SPN datapath supports only table leaves")
                        }
                    };
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

    /// Bake the program into `format`: every sum weight, and every leaf
    /// as a full 256-entry ROM, is converted exactly once, here, as the
    /// hardware generator does at synthesis time.
    pub(crate) fn synthesize<F: SpnNumber + Clone>(&self, format: &F) -> SynthesizedDatapath<F> {
        let index = |n: usize| u32::try_from(n).expect("datapath too large");
        // Value slots: the weights first, then one result per op.
        let counts = self.op_counts();
        let num_weights = counts.const_muls;
        let result = |op: OpId| index(num_weights + op.index());
        let mut weights = Vec::with_capacity(num_weights);
        let mut tables = Vec::with_capacity(counts.lookups);
        let ops = self
            .ops
            .iter()
            .map(|op| match op {
                DatapathOp::LeafLookup { var, table } => {
                    // A byte past the table's end reads the converted 0.0.
                    tables.push(std::array::from_fn(|v| {
                        format.from_f64(table.get(v).copied().unwrap_or(0.0))
                    }));
                    SynthOp::Lookup {
                        var: index(*var),
                        table: index(tables.len() - 1),
                    }
                }
                DatapathOp::Mul { a, b } => SynthOp::Mul {
                    a: result(*a),
                    b: result(*b),
                },
                DatapathOp::ConstMul { a, weight } => {
                    weights.push(format.from_f64(*weight));
                    SynthOp::Mul {
                        a: result(*a),
                        b: index(weights.len() - 1),
                    }
                }
                DatapathOp::Add { a, b } => SynthOp::Add {
                    a: result(*a),
                    b: result(*b),
                },
            })
            .collect();
        SynthesizedDatapath {
            ops,
            weights,
            tables,
            root: num_weights + self.root.index(),
            num_vars: self.num_vars,
            format: format.clone(),
        }
    }
}

/// One operation of a [`SynthesizedDatapath`]. Operands are value
/// slots: a weight's, or an earlier op's result.
#[derive(Debug, Clone, Copy)]
enum SynthOp {
    /// `tables[table][input[var]]`.
    Lookup {
        var: u32,
        table: u32,
    },
    /// Product of two slots; a sum edge's weight multiplier is one
    /// whose `b` is the weight's slot.
    Mul {
        a: u32,
        b: u32,
    },
    Add {
        a: u32,
        b: u32,
    },
}

/// A [`DatapathProgram`] synthesised for one arithmetic format
/// ([`DatapathProgram::synthesize`]): the batch datapath of a core.
/// Results are bit-identical to [`DatapathProgram::execute`] row by row.
#[derive(Debug, Clone)]
pub(crate) struct SynthesizedDatapath<F: SpnNumber> {
    ops: Vec<SynthOp>,
    /// Every sum weight, converted, in op order: the constant head of
    /// the value slots.
    weights: Vec<F::Value>,
    /// Every leaf's ROM, converted, in op order: one entry per byte.
    tables: Vec<[F::Value; 256]>,
    root: usize,
    num_vars: usize,
    format: F,
}

/// Samples a [`SynthesizedDatapath`] carries through one op before it
/// moves to the next. Within a sample every op waits for its operands;
/// across a lane nothing does, so the host overlaps the arithmetic the
/// way the pipelined circuit overlaps samples, and the branch-free CFP
/// arithmetic — the `f64` path and the integer emulation alike — runs
/// four (AVX2) or eight (AVX-512) lanes to a register. The integer
/// emulation measured flat from 32 to 128 on NIPS10 at both tiers, and
/// four times as slow one sample at a time (274–341 vs 74–77 ns/sample,
/// NIPS10, AVX2). The `f64` path over dense leaf ROMs at AVX-512, min
/// ns/sample of 200+ calls: NIPS10 16.8 / 16.1 / 16.1 at 32 / 64 / 128
/// lanes, 162 one sample at a time; NIPS80 202 / 176 / 166. A constant.
const LANES: usize = 64;

impl<F: SpnNumber> SynthesizedDatapath<F> {
    /// Stream a batch of samples (row-major, `num_vars` bytes each)
    /// through the datapath, appending one probability per sample to
    /// `out`. One value scratch serves the whole batch, `LANES` (64)
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
        let num_weights = self.weights.len();
        // Lane-major value slots: lane `l` of slot `s` is
        // `values[s * LANES + l]`; a weight fills its slot's lanes.
        let slots = num_weights + self.ops.len();
        let mut values = Vec::with_capacity(slots * LANES);
        for &w in &self.weights {
            values.extend([w; LANES]);
        }
        values.resize(slots * LANES, f.zero());
        out.reserve(data.len() / self.num_vars);
        for chunk in data.chunks(LANES * self.num_vars) {
            let lanes = chunk.len() / self.num_vars;
            for (i, op) in self.ops.iter().enumerate() {
                // Operands are weights or results of earlier ops
                // (dataflow order), so they all lie below the result.
                let (operands, results) = values.split_at_mut((num_weights + i) * LANES);
                let slot = |s: u32| &operands[s as usize * LANES..][..lanes];
                let dst = &mut results[..lanes];
                match *op {
                    SynthOp::Lookup { var, table } => {
                        let rom = &self.tables[table as usize];
                        for (d, sample) in dst.iter_mut().zip(chunk.chunks_exact(self.num_vars)) {
                            *d = rom[usize::from(sample[var as usize])];
                        }
                    }
                    SynthOp::Mul { a, b } => f.mul_lanes(dst, slot(a), slot(b)),
                    SynthOp::Add { a, b } => {
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

/// Expand a histogram with unit-aligned breaks into a dense lookup table
/// indexed by the raw byte value. Non-integer or offset breaks are
/// handled by sampling the density at each integer point.
fn expand_histogram(breaks: &[f64], densities: &[f64]) -> Vec<f64> {
    let lo = breaks[0];
    let hi = *breaks.last().unwrap();
    let size = (hi.ceil() as i64).clamp(1, 256) as usize;
    let mut table = vec![0.0; size];
    for (i, slot) in table.iter_mut().enumerate() {
        let x = i as f64;
        if x < lo || x >= hi {
            continue;
        }
        // Find the bucket containing integer point x.
        let idx = match breaks.binary_search_by(|b| b.partial_cmp(&x).unwrap()) {
            Ok(k) => k.min(densities.len() - 1),
            Err(k) => k - 1,
        };
        *slot = densities[idx.min(densities.len() - 1)];
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfp_on_f64::CfpOnF64;
    use spn_arith::{truncating_cfp, CfpFormat, F64Format, LnsFormat, PositFormat, Rounding};
    use spn_core::{random_spn, Evaluator, NipsBenchmark, Query, RandomSpnConfig, SpnBuilder};

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

    #[test]
    fn histogram_expansion_dense_and_offset() {
        // Breaks [0,1,3): densities 0.5, 0.25 -> table [0.5, 0.25, 0.25].
        let t = expand_histogram(&[0.0, 1.0, 3.0], &[0.5, 0.25]);
        assert_eq!(t, vec![0.5, 0.25, 0.25]);
        // Offset support [2,4): values 0,1 get 0.
        let t = expand_histogram(&[2.0, 4.0], &[0.5]);
        assert_eq!(t, vec![0.0, 0.0, 0.5, 0.5]);
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
