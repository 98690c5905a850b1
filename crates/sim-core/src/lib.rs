//! # sim-core — discrete-event simulation kernel
//!
//! The foundation of the SPN-HBM reproduction: a small, deterministic
//! discrete-event simulation (DES) kernel in the style of SimPy/OMNeT++,
//! specialized for performance modelling of memory systems, interconnects
//! and accelerators.
//!
//! The kernel offers two complementary modelling styles:
//!
//! 1. **Event-driven** ([`Engine`] + [`Model`]): explicit events on a
//!    virtual-time calendar, for models with genuinely reactive behaviour
//!    (the Fig. 2 traffic block's outstanding-request windows, the
//!    control threads of the Figs. 4/6 pipeline).
//! 2. **Analytic reservation** ([`Timeline`]): a sequential server whose
//!    occupancy is computed by chaining `start = max(request, free)`
//!    reservations, for pipelined dataflows where FIFO service times are
//!    deterministic (PCIe DMA directions, HBM channels, accelerator
//!    cores).
//!
//! The styles compose — a [`Model`] reserves [`Timeline`]s from its
//! handlers when several actors contend for shared servers — and share
//! one clock ([`SimTime`], picosecond resolution), one log-bucketed
//! histogram ([`histogram`]) and one set of bandwidth/size units
//! ([`units`]), so numbers compose across models without unit
//! conversions sprinkled through model code.
//!
//! Determinism is a hard requirement — every figure in the paper
//! reproduction must regenerate bit-identically — so the calendar breaks
//! timestamp ties by insertion order and the only randomness source is
//! the seedable [`SplitMix64`].

pub mod engine;
pub mod histogram;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use engine::{Engine, Model, Scheduler};
pub use histogram::{HistogramSummary, LogBuckets, LogHistogram};
pub use resource::{Grant, Timeline};
pub use rng::{fnv1a_mix64, SplitMix64};
pub use stats::geometric_mean;
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, GB, GIB, KIB, MIB};
