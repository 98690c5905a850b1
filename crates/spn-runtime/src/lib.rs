//! # spn-runtime — the multi-threaded host runtime and system simulation
//!
//! The software half of the paper's contribution, plus the end-to-end
//! performance simulation that regenerates its figures:
//!
//! * [`memmgr`] — the thread-safe per-HBM-channel device memory manager
//!   the paper built because TaPaSCo could not split the address space;
//! * [`device`] — the functional virtual accelerator card: per-channel
//!   byte storage, register files, bit-accurate cores;
//! * [`runtime`] — the TaPaSCo-style host runtime's configuration,
//!   errors and result provenance;
//! * [`scheduler`] — the one way to run a job, one or many at a time:
//!   a persistent pool of control threads overlapping transfer and
//!   compute, `submit`/`wait` job handles, per-block fault retry,
//!   round-robin fairness and a bounded backpressure queue. It is
//!   backend-agnostic: each job's blocks run through one of three
//!   block executors (device pipeline, compiled plan, shard cut) that
//!   live beside [`device`], [`plan_cache`] and [`sharded`];
//! * [`plan_cache`] — the fingerprint-keyed cache of compiled inference
//!   plans behind the scheduler's host fast path
//!   ([`job::ExecBackend::HostPlan`]);
//! * [`sharded`] — scope-sharded multi-device execution: K concurrent
//!   shard devices each holding one stripe of the model, merged
//!   bit-exactly ([`job::ExecBackend::Sharded`]);
//! * [`metrics`] — atomic runtime counters/gauges, snapshotted into the
//!   unified `spn-telemetry` schema;
//! * [`job`] — block decomposition and per-job options;
//! * [`perf`] — the virtual-time end-to-end simulation behind Figs. 4/6,
//!   traced in the same `spn-telemetry` spans a live scheduler records;
//! * [`analysis`] — the Fig. 5 scaling-potential study and the §V-C
//!   PCIe-generation outlook;
//! * [`streaming`] — the 100G in-network comparison model (\[7\]).
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
//! println!("job {} progress: {:?}", a.id(), a.progress());
//! let results_b = b.wait()?;   // per-sample probabilities
//! let results_a = a.wait()?;
//!
//! println!("{}", scheduler.metrics_snapshot().to_json());
//! # let _ = (results_a, results_b);
//! # Ok::<(), RuntimeError>(())
//! ```

pub mod analysis;
pub mod device;
pub(crate) mod executor;
pub mod job;
pub mod memmgr;
pub mod metrics;
pub mod perf;
pub mod plan_cache;
pub mod runtime;
pub mod scheduler;
pub mod sharded;
pub mod streaming;

pub use analysis::{
    hbm_limits, max_cores_by_hbm, pcie_outlook, required_bandwidth, HbmLimits, OutlookRow,
};
pub use device::{DeviceError, FaultInjection, VirtualDevice};
pub use job::{
    assign_to_pes, split_into_blocks, Block, ExecBackend, JobOptions, JobOptionsBuilder,
};
pub use memmgr::{AllocError, DeviceBuffer, DeviceMemoryManager};
pub use metrics::{JobOutcome, MetricsRegistry, MetricsSnapshot};
pub use perf::{scaling_series, simulate, simulate_traced, PerfConfig, PerfResult};
pub use plan_cache::PlanCache;
pub use runtime::{ExecProvenance, RuntimeConfig, RuntimeConfigBuilder, RuntimeError};
pub use scheduler::{JobHandle, JobResult, JobStatus, Scheduler};
pub use sharded::{ShardedExecutor, DEFAULT_SHARD_SEED};
pub use streaming::{
    min_replication_for_line_rate, simulate_streaming, StreamingModel, StreamingSimConfig,
    StreamingSimResult,
};

// Re-exported so scheduler users can mint trace contexts and attach a
// live collector without depending on `spn-telemetry` directly.
pub use spn_telemetry::{SpanCtx, TraceCollector, TraceId};

/// One-stop import for the runtime API: scheduler, job handles,
/// options, metrics, errors and the device types they operate on.
///
/// ```
/// use spn_runtime::prelude::*;
/// ```
pub mod prelude {
    pub use crate::device::{DeviceError, FaultInjection, VirtualDevice};
    pub use crate::job::{Block, ExecBackend, JobOptions, JobOptionsBuilder};
    pub use crate::memmgr::{AllocError, DeviceBuffer, DeviceMemoryManager};
    pub use crate::metrics::{JobOutcome, MetricsRegistry, MetricsSnapshot};
    pub use crate::plan_cache::PlanCache;
    pub use crate::runtime::{ExecProvenance, RuntimeConfig, RuntimeConfigBuilder, RuntimeError};
    pub use crate::scheduler::{JobHandle, JobResult, JobStatus, Scheduler};
    pub use crate::sharded::{ShardedExecutor, DEFAULT_SHARD_SEED};
    pub use spn_core::{CompiledPlan, PlanExecutor, Query, ShardPlan};
    pub use spn_telemetry::{SpanCtx, TraceCollector, TraceId};
}
