//! # spn-runtime — the multi-threaded host runtime and system simulation
//!
//! The software half of the paper's contribution, plus the end-to-end
//! performance simulation that regenerates its figures. [`scheduler`]
//! is the one way to run a job, one or many at a time: a persistent pool
//! of control threads over the virtual [`device`], each block run by one
//! of two executors (the device pipeline or a [`plan_cache`] plan). Its
//! claim core is the one [`perf`] drives in virtual time for Figs. 4
//! and 6.
//!
//! ## Runtime API in one example
//!
//! ```no_run
//! use spn_runtime::prelude::*;
//! use std::sync::Arc;
//! # fn device() -> Arc<VirtualDevice> { unimplemented!() }
//! # fn dataset() -> Arc<spn_core::Dataset> { unimplemented!() }
//!
//! let config = RuntimeConfig::builder()
//!     .block_samples(4096)
//!     .threads_per_pe(2)
//!     .build()?;
//! let scheduler = Scheduler::new(device(), config)?;
//!
//! // Submit as many jobs as you like; they share the PEs fairly.
//! let a = scheduler.submit(dataset(), JobOptions::default())?;
//! let b = scheduler.submit(
//!     dataset(),
//!     JobOptions::builder().max_retries(8).build()?,
//! )?;
//!
//! println!("job {} submitted", a.id());
//! let results_b = b.wait()?;   // per-sample probabilities
//! let results_a = a.wait()?;
//!
//! println!("{}", scheduler.metrics_snapshot().to_json());
//! # let _ = (results_a, results_b);
//! # Ok::<(), RuntimeError>(())
//! ```

pub mod analysis;
pub mod device;
pub(crate) mod dispatch;
pub(crate) mod executor;
pub mod job;
pub mod memmgr;
pub mod metrics;
pub mod perf;
pub mod plan_cache;
pub mod runtime;
pub mod scheduler;
pub mod streaming;

pub use analysis::{
    hbm_limits, max_cores_by_hbm, pcie_outlook, required_bandwidth, HbmLimits, OutlookRow,
};
pub use device::{DeviceError, FaultInjection, VirtualDevice};
pub use job::{split_into_blocks, Block, ExecBackend, JobOptions, JobOptionsBuilder};
pub use memmgr::{AllocError, DeviceBuffer, DeviceMemoryManager};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use perf::{scaling_series, simulate, simulate_traced, PerfConfig, PerfResult};
pub use plan_cache::PlanCache;
pub use runtime::{RuntimeConfig, RuntimeConfigBuilder, RuntimeError};
pub use scheduler::{JobHandle, JobResult, Scheduler};
pub use streaming::{
    min_replication_for_line_rate, simulate_streaming, StreamingModel, StreamingSimConfig,
    StreamingSimResult,
};

// Re-exported so scheduler users can mint trace contexts and attach a
// live collector without depending on `spn-telemetry` directly.
pub use spn_telemetry::{SpanCtx, TraceCollector, TraceId};

/// One-stop import for the runtime API: scheduler, options, errors,
/// the device, and the query and trace types a job is submitted with.
///
/// ```
/// use spn_runtime::prelude::*;
/// ```
pub mod prelude {
    pub use crate::device::{FaultInjection, VirtualDevice};
    pub use crate::job::{ExecBackend, JobOptions};
    pub use crate::plan_cache::PlanCache;
    pub use crate::runtime::{RuntimeConfig, RuntimeError};
    pub use crate::scheduler::{JobResult, Scheduler};
    pub use spn_core::Query;
    pub use spn_telemetry::{SpanCtx, TraceCollector};
}
