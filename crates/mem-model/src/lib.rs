//! # mem-model — HBM and DDR memory-system models
//!
//! The memory substrate of the reproduction. Two memory systems are
//! modelled, matching the paper's comparison axis:
//!
//! * [`hbm`] — the Xilinx VU37P's HBM2: 2 stacks × 16 independent
//!   channels, 256-bit AXI3 @ 450 MHz each, with request-size-dependent
//!   efficiency (Fig. 2), two user-side clocking configurations, an
//!   optional crossbar, and hard-IP controllers (zero fabric cost).
//! * [`ddr`] — the AWS F1's DDR4 with *soft* controllers: few channels,
//!   shared between accelerator cores, expensive in fabric resources.
//!
//! [`axi`] describes the interface/conversion layer (SmartConnect) and
//! [`traffic`] is the Fig. 2 micro-benchmark block as an event-driven
//! simulation.

pub mod axi;
pub mod ddr;
pub mod hbm;
pub mod latency;
pub mod traffic;

pub use axi::{AxiPort, AxiProtocol, SmartConnect};
pub use ddr::{DdrChannelConfig, DdrConfig};
pub use hbm::{ClockConfig, CrossbarMode, HbmChannelConfig, HbmConfig, HbmDevice, HbmError};
pub use latency::{
    outstanding_sweep, pointer_chase, saturation_window, LatencyModel, OutstandingPoint,
    PointerChaseResult,
};
pub use traffic::sweep_request_sizes;
