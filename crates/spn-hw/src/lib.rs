//! # spn-hw — the SPN accelerator core model
//!
//! Software twin of the paper's hardware generator and accelerator
//! (Fig. 3). An SPN is **compiled** ([`program`]) into a flat datapath —
//! leaf lookups, multiplier trees, weighted adder trees — that is
//!
//! * **executed** bit-accurately in any `spn-arith` format (the
//!   functional model: exactly the values the FPGA would produce) —
//!   per sample by the reference `execute`, in batches by the datapath
//!   *synthesised* for one format with its constants pre-converted (a
//!   round-to-nearest-even CFP of ≤ 24 mantissa bits, the paper's
//!   among them, on the host's `f64` unit with the same bits),
//! * **scheduled** ([`pipeline`]) into a fully pipelined circuit with
//!   per-operator latencies and balancing registers,
//! * **costed** ([`resources`]) by the Table I resource model, and
//! * **timed** ([`core`]) by the throughput model calibrated to the
//!   paper's measured single-core rates.
//!
//! [`regfile`] models the AXI4-Lite control interface including the
//! 64-bit HBM addressing and the configuration-readout execution mode;
//! [`calib`] records every paper-reported number for comparison.

pub mod calib;
mod cfp_on_f64;
pub mod core;
pub mod netlist;
pub mod pipeline;
pub mod program;
pub mod regfile;
pub mod resources;

pub use crate::core::{AcceleratorConfig, AcceleratorCore};
pub use netlist::{emit_verilog, Netlist};
pub use pipeline::{OpLatencies, PipelineSchedule};
pub use program::{DatapathOp, DatapathProgram, OpCounts, OpId};
pub use regfile::{Reg, RegisterFile, SynthConfig};
pub use resources::{datapath_cost, design_cost, max_cores, ArithCosts, PlatformCosts, Resources};
