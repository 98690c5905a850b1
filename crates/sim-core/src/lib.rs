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
//!    (the HBM channel with queued AXI bursts, for example).
//! 2. **Analytic reservation** ([`Timeline`] / [`MultiServer`]): sequential
//!    servers whose occupancy is computed by chaining
//!    `start = max(request, free)` reservations, for pipelined dataflows
//!    where FIFO service times are deterministic (PCIe DMA directions,
//!    accelerator cores, control threads).
//!
//! Both styles share one clock ([`SimTime`], picosecond resolution), one
//! set of statistics collectors ([`stats`]) and one set of bandwidth/size
//! units ([`units`]), so numbers compose across models without unit
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
pub use queue::EventQueue;
pub use resource::{Grant, MultiServer, Timeline};
pub use rng::{fnv1a_mix64, SplitMix64};
pub use stats::{geometric_mean, Summary, ThroughputMeter, TimeWeighted};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, GB, GIB, KIB, MIB};
