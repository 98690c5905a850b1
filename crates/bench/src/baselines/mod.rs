//! # baselines — the comparison platforms of Fig. 6
//!
//! * [`cpu`] — a real, measured multi-threaded CPU baseline (the one
//!   platform this reproduction can run natively);
//! * [`models`] — calibrated analytic models of the platforms we cannot
//!   run: the paper's Xeon E5-2680 v3, the Nvidia V100, and the
//!   prior-work AWS F1 FPGA design \[8\], plus the best-case HBM rate
//!   from the `spn-runtime` simulation.

pub mod cpu;
pub mod models;

pub use cpu::CpuBaseline;
pub use models::{hbm_best_rate, F1Model, V100Model, XeonModel};
