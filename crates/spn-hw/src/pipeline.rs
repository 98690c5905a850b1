//! Pipeline scheduling of a compiled datapath.
//!
//! The hardware generator fully pipelines the arithmetic circuit: every
//! operator is itself a small pipeline (an FPGA floating-point adder
//! takes several cycles), and registers balance all reconvergent paths so
//! a new sample can enter **every cycle** (initiation interval 1). The
//! schedule computed here is the classic ASAP levelling: an op starts at
//! the latest finish time of its operands; the pipeline depth is the
//! finish time of the root. Depth costs latency and registers (the
//! resource model charges for balancing), but *throughput* is one sample
//! per cycle regardless — the property the paper's performance analysis
//! rests on.

use crate::program::{DatapathOp, DatapathProgram};
use serde::{Deserialize, Serialize};

/// Per-operator pipeline latencies in clock cycles, dependent on the
/// arithmetic implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatencies {
    /// BRAM/LUTRAM table read.
    pub lookup: u32,
    /// Multiplier pipeline depth.
    pub mul: u32,
    /// Constant-multiplier pipeline depth.
    pub const_mul: u32,
    /// Adder pipeline depth.
    pub add: u32,
}

impl OpLatencies {
    /// CFP operator depths at 225 MHz on UltraScale+ (from the operator
    /// library of \[4\]): DSP-based multiplier 3 stages, LUT-based
    /// magnitude adder 4 stages, table read 2.
    pub fn cfp() -> Self {
        OpLatencies {
            lookup: 2,
            mul: 3,
            const_mul: 3,
            add: 4,
        }
    }

    /// LNS operator depths (from \[11\]): multiplication is a fixed-point
    /// add (1 stage); addition needs the interpolated F(d) table (6).
    pub fn lns() -> Self {
        OpLatencies {
            lookup: 2,
            mul: 1,
            const_mul: 1,
            add: 6,
        }
    }

    /// Latency of one op kind.
    pub(crate) fn of(&self, op: &DatapathOp) -> u32 {
        match op {
            DatapathOp::LeafLookup { .. } => self.lookup,
            DatapathOp::Mul { .. } => self.mul,
            DatapathOp::ConstMul { .. } => self.const_mul,
            DatapathOp::Add { .. } => self.add,
        }
    }
}

/// The computed schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineSchedule {
    /// Cycle at which each op's inputs are consumed (ASAP).
    pub start_cycle: Vec<u32>,
    /// Total pipeline depth in cycles (root finish time).
    pub depth: u32,
    /// Register-balancing cost: total value-cycles of delay registers
    /// inserted on edges whose producer finishes before the consumer
    /// starts.
    pub balance_registers: u64,
}

impl PipelineSchedule {
    /// Schedule a program with the given operator latencies.
    pub fn asap(prog: &DatapathProgram, lat: &OpLatencies) -> PipelineSchedule {
        let ops = prog.ops();
        let mut start = vec![0u32; ops.len()];
        let mut finish = vec![0u32; ops.len()];
        let mut balance: u64 = 0;

        for (i, op) in ops.iter().enumerate() {
            let ready = operands(op)
                .iter()
                .map(|a| finish[a.index()])
                .max()
                .unwrap_or(0);
            start[i] = ready;
            finish[i] = ready + lat.of(op);
            // Every operand that finished before `ready` needs delay
            // registers on its edge to stay aligned.
            for a in operands(op) {
                balance += (ready - finish[a.index()]) as u64;
            }
        }

        PipelineSchedule {
            depth: finish[prog.root().index()],
            start_cycle: start,
            balance_registers: balance,
        }
    }

    /// Latency of one sample through the pipe at `clock_hz`.
    pub fn latency_secs(&self, clock_hz: u64) -> f64 {
        self.depth as f64 / clock_hz as f64
    }
}

fn operands(op: &DatapathOp) -> Vec<crate::program::OpId> {
    match op {
        DatapathOp::LeafLookup { .. } => vec![],
        DatapathOp::ConstMul { a, .. } => vec![*a],
        DatapathOp::Mul { a, b } | DatapathOp::Add { a, b } => vec![*a, *b],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::DatapathProgram;
    use spn_core::{Leaf, NipsBenchmark, SpnBuilder};

    fn chain_spn(vars: usize) -> DatapathProgram {
        // One big product over `vars` leaves: a balanced mul tree.
        let mut b = SpnBuilder::new(vars);
        let leaves: Vec<_> = (0..vars)
            .map(|v| b.leaf(v, Leaf::byte_histogram(&[1.0])))
            .collect();
        let p = b.product(leaves);
        DatapathProgram::compile(&b.finish(p, "chain").unwrap())
    }

    #[test]
    fn depth_of_balanced_tree_is_logarithmic() {
        let lat = OpLatencies::cfp();
        // 8 leaves -> 3 mul levels: depth = lookup + 3*mul.
        let prog = chain_spn(8);
        let s = PipelineSchedule::asap(&prog, &lat);
        assert_eq!(s.depth, lat.lookup + 3 * lat.mul);
        // 16 leaves -> 4 levels.
        let prog = chain_spn(16);
        let s = PipelineSchedule::asap(&prog, &lat);
        assert_eq!(s.depth, lat.lookup + 4 * lat.mul);
    }

    #[test]
    fn single_leaf_depth() {
        let prog = chain_spn(1);
        let s = PipelineSchedule::asap(&prog, &OpLatencies::cfp());
        assert_eq!(s.depth, OpLatencies::cfp().lookup);
        assert_eq!(s.balance_registers, 0);
    }

    #[test]
    fn odd_fanin_inserts_balance_registers() {
        // 3 leaves: level 1 multiplies leaves 0,1; leaf 2 passes through
        // and must be delayed by one mul latency.
        let prog = chain_spn(3);
        let lat = OpLatencies::cfp();
        let s = PipelineSchedule::asap(&prog, &lat);
        assert_eq!(s.depth, lat.lookup + 2 * lat.mul);
        assert_eq!(s.balance_registers, lat.mul as u64);
    }

    #[test]
    fn start_cycles_respect_dependences() {
        let prog = DatapathProgram::compile(&NipsBenchmark::Nips10.build_spn());
        let lat = OpLatencies::cfp();
        let s = PipelineSchedule::asap(&prog, &lat);
        for (i, op) in prog.ops().iter().enumerate() {
            for a in super::operands(op) {
                let producer_finish = s.start_cycle[a.index()] + lat.of(&prog.ops()[a.index()]);
                assert!(
                    s.start_cycle[i] >= producer_finish,
                    "op {i} starts before operand {} finishes",
                    a.index()
                );
            }
        }
        assert!(s.depth > 0);
    }

    #[test]
    fn lns_muls_are_shallower_adds_deeper() {
        let prog = DatapathProgram::compile(&NipsBenchmark::Nips20.build_spn());
        let cfp = PipelineSchedule::asap(&prog, &OpLatencies::cfp());
        let lns = PipelineSchedule::asap(&prog, &OpLatencies::lns());
        // Both schedules are valid; they just differ. For mul-heavy SPN
        // datapaths LNS is shallower overall.
        assert!(
            lns.depth < cfp.depth,
            "lns {} vs cfp {}",
            lns.depth,
            cfp.depth
        );
    }

    #[test]
    fn latency_seconds() {
        let prog = chain_spn(4);
        let s = PipelineSchedule::asap(&prog, &OpLatencies::cfp());
        let secs = s.latency_secs(225_000_000);
        assert!((secs - s.depth as f64 / 225e6).abs() < 1e-18);
    }

    #[test]
    fn nips_depths_grow_with_size() {
        let lat = OpLatencies::cfp();
        let d10 = PipelineSchedule::asap(
            &DatapathProgram::compile(&NipsBenchmark::Nips10.build_spn()),
            &lat,
        )
        .depth;
        let d80 = PipelineSchedule::asap(
            &DatapathProgram::compile(&NipsBenchmark::Nips80.build_spn()),
            &lat,
        )
        .depth;
        assert!(d80 > d10);
        // Depth grows logarithmically, so the gap is modest.
        assert!(d80 < d10 * 3);
    }
}
