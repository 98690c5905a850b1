//! The multi-threaded host runtime (the paper's software contribution).
//!
//! Mirrors the TaPaSCo-based runtime of Section IV-B:
//!
//! * the runtime **queries the device** for PE count and each PE's
//!   synthesis-time configuration (no manual parameter plumbing),
//! * an inference job is **split into block-sized sub-jobs**,
//! * each PE is driven by one or more **control threads**, each looping
//!   `transfer → launch & wait → read back`,
//! * with ≥2 threads per PE, thread A transfers block *n+1* while
//!   thread B waits on the accelerator computing block *n* — the
//!   overlap scheme that hides transfer time.
//!
//! The control threads live in a persistent [`crate::Scheduler`]
//! worker pool, the one way to run a job: `submit` / `submit_blocking`
//! return a job handle whose `wait` yields the results and whose
//! `provenance` says how they were computed. This module holds what the
//! scheduler and its callers share: the [`RuntimeConfig`] knobs, the
//! [`RuntimeError`] they can fail with and the [`ExecProvenance`] of a
//! job's results. [`crate::JobOptions`] selects the execution backend:
//! the device (default) or the host through the model's compiled
//! inference plan ([`crate::job::ExecBackend::HostPlan`]).
//!
//! These are real OS threads moving real bytes through the
//! [`crate::VirtualDevice`]; the results are bit-exact accelerator
//! output.

use crate::device::DeviceError;
use crate::memmgr::AllocError;

/// Runtime configuration knobs (the paper's user-visible parameters,
/// plus the scheduler's queue bound).
///
/// Construct via [`RuntimeConfig::builder`] for validation, or rely on
/// [`RuntimeConfig::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Samples per sub-job block.
    pub block_samples: u64,
    /// Control threads per PE (the paper found 2 sufficient to saturate
    /// DMA, and used 1 for ≥4 PEs).
    pub threads_per_pe: u32,
    /// Fraction of results to re-verify against the host golden model
    /// (0.0 disables). Catches transient device faults at proportional
    /// host cost.
    pub verify_fraction: f64,
    /// Maximum number of jobs the scheduler accepts before exerting
    /// backpressure (`submit` returns [`RuntimeError::QueueFull`];
    /// `submit_blocking` waits).
    pub queue_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            block_samples: 1 << 16,
            threads_per_pe: 2,
            verify_fraction: 0.0,
            queue_capacity: 32,
        }
    }
}

impl RuntimeConfig {
    /// Fluent, validating builder.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            cfg: RuntimeConfig::default(),
        }
    }
}

/// Builder for [`RuntimeConfig`]; see [`RuntimeConfig::builder`].
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    cfg: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Samples per sub-job block (must be positive).
    pub fn block_samples(mut self, n: u64) -> Self {
        self.cfg.block_samples = n;
        self
    }

    /// Control threads per PE (must be at least 1).
    pub fn threads_per_pe(mut self, n: u32) -> Self {
        self.cfg.threads_per_pe = n;
        self
    }

    /// Verification sampling fraction (must lie in `[0, 1]`).
    pub fn verify_fraction(mut self, f: f64) -> Self {
        self.cfg.verify_fraction = f;
        self
    }

    /// Scheduler queue bound (must be at least 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.cfg.queue_capacity = n;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<RuntimeConfig, RuntimeError> {
        validate_config(&self.cfg)?;
        Ok(self.cfg)
    }
}

/// Range-check a configuration; every entry point into the scheduler
/// funnels through this, so a hand-rolled struct literal gets the same
/// validation as the builder.
pub(crate) fn validate_config(cfg: &RuntimeConfig) -> Result<(), RuntimeError> {
    if cfg.block_samples == 0 {
        return Err(RuntimeError::InvalidConfig {
            reason: "block_samples must be positive".into(),
        });
    }
    if cfg.threads_per_pe == 0 {
        return Err(RuntimeError::InvalidConfig {
            reason: "threads_per_pe must be at least 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&cfg.verify_fraction) {
        return Err(RuntimeError::InvalidConfig {
            reason: format!(
                "verify_fraction must lie in [0, 1], got {}",
                cfg.verify_fraction
            ),
        });
    }
    if cfg.queue_capacity == 0 {
        return Err(RuntimeError::InvalidConfig {
            reason: "queue_capacity must be at least 1".into(),
        });
    }
    Ok(())
}

/// Errors surfaced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Device memory exhausted.
    Alloc(AllocError),
    /// Device interaction failed.
    Device(DeviceError),
    /// Input shape mismatch with the PE configuration.
    ShapeMismatch {
        /// What the device expects per sample.
        expected_bytes: u64,
        /// What the dataset provides per sample.
        got_bytes: u64,
    },
    /// A verified sample disagreed with the host golden model.
    VerificationFailed {
        /// Sample index that failed.
        index: usize,
        /// Device result.
        got: f64,
        /// Golden result.
        expected: f64,
    },
    /// A configuration or request parameter is out of range.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// The scheduler's bounded queue is full (backpressure). Retry
    /// later or use `submit_blocking`.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The job was cancelled before completion.
    Cancelled,
    /// The scheduler is draining or shutting down and no longer
    /// accepts new jobs.
    ShuttingDown,
}

impl RuntimeError {
    /// Is this error worth retrying the block for? Transient device
    /// faults, plus out-of-memory — which under concurrent jobs is
    /// usually another job's buffers transiently occupying the channel.
    pub(crate) fn is_transient(&self) -> bool {
        match self {
            RuntimeError::Device(d) => d.is_transient(),
            RuntimeError::Alloc(AllocError::OutOfMemory { .. }) => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Alloc(e) => write!(f, "{e}"),
            RuntimeError::Device(e) => write!(f, "{e}"),
            RuntimeError::ShapeMismatch {
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "dataset has {got_bytes} bytes/sample but the PE expects {expected_bytes}"
            ),
            RuntimeError::VerificationFailed {
                index,
                got,
                expected,
            } => write!(
                f,
                "verification failed at sample {index}: device {got}, golden {expected}"
            ),
            RuntimeError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            RuntimeError::QueueFull { capacity } => write!(
                f,
                "scheduler queue full ({capacity} jobs in flight); retry or submit_blocking"
            ),
            RuntimeError::Cancelled => write!(f, "job cancelled"),
            RuntimeError::ShuttingDown => {
                write!(f, "scheduler is shutting down; no new jobs accepted")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    /// Wrapped [`AllocError`] / [`DeviceError`] chains are
    /// introspectable through the standard error-source mechanism.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Alloc(e) => Some(e),
            RuntimeError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AllocError> for RuntimeError {
    fn from(e: AllocError) -> Self {
        RuntimeError::Alloc(e)
    }
}
impl From<DeviceError> for RuntimeError {
    fn from(e: DeviceError) -> Self {
        RuntimeError::Device(e)
    }
}

/// How a job's results were produced, as its
/// [`crate::JobHandle::provenance`] reports from submission on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecProvenance {
    /// Executed on the virtual accelerator device (CFP/LNS/Posit
    /// datapath precision).
    Device,
    /// Executed on the host through a compiled inference plan
    /// ([`spn_core::CompiledPlan`], full f64 precision). `cache_hit`
    /// is `true` when the plan was served from a [`crate::PlanCache`]
    /// rather than compiled for this scheduler/job.
    CompiledPlan {
        /// Whether the plan came out of a warm cache.
        cache_hit: bool,
    },
    /// Executed by the scope-sharded multi-device path
    /// ([`crate::ShardedExecutor`], full f64 precision): the model was
    /// cut into `shards` scope-disjoint subgraphs evaluated
    /// concurrently and merged.
    Sharded {
        /// Effective shard count of the cut (≤ the requested count
        /// when the model has fewer atomic scope regions).
        shards: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::VirtualDevice;
    use crate::job::{ExecBackend, JobOptions};
    use crate::scheduler::{JobResult, Scheduler};
    use sim_core::MIB;
    use spn_arith::{AnyFormat, CfpFormat};
    use spn_core::{Dataset, Evaluator, NipsBenchmark, Query};
    use spn_hw::{AcceleratorConfig, DatapathProgram};
    use std::sync::Arc;

    /// A NIPS10 device with `pes` PEs, carrying its model (which the
    /// HostPlan backend needs) when `with_model`.
    fn device(pes: u32, with_model: bool) -> Arc<VirtualDevice> {
        let spn = NipsBenchmark::Nips10.build_spn();
        let dev = VirtualDevice::new(
            DatapathProgram::compile(&spn),
            AnyFormat::Cfp(CfpFormat::paper_default()),
            AcceleratorConfig::paper_default(),
            pes,
            16 * MIB,
        );
        Arc::new(if with_model {
            dev.with_model(Arc::new(spn))
        } else {
            dev
        })
    }

    fn scheduler(pes: u32, cfg: RuntimeConfig) -> (Scheduler, NipsBenchmark) {
        let sched = Scheduler::new(device(pes, false), cfg).unwrap();
        (sched, NipsBenchmark::Nips10)
    }

    /// One job, submitted and waited for.
    fn run(sched: &Scheduler, data: &Dataset, opts: JobOptions) -> JobResult {
        sched.submit_blocking(Arc::new(data.clone()), opts)?.wait()
    }

    fn reference(bench: NipsBenchmark, data: &Dataset) -> Vec<f64> {
        let spn = bench.build_spn();
        let mut ev = Evaluator::new(&spn);
        data.rows()
            .map(|r| ev.eval_bytes(&Query::Complete, r).exp())
            .collect()
    }

    #[test]
    fn inference_matches_reference_order_preserved() {
        let (sched, bench) = scheduler(
            4,
            RuntimeConfig::builder()
                .block_samples(100)
                .threads_per_pe(2)
                .build()
                .unwrap(),
        );
        let data = bench.dataset(1234, 11); // deliberately not block-aligned
        let got = run(&sched, &data, JobOptions::default()).unwrap();
        let want = reference(bench, &data);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let rel = ((g - w) / w).abs();
            assert!(rel < 1e-4, "sample {i}: {g} vs {w}");
        }
    }

    #[test]
    fn single_pe_single_thread_works() {
        let (sched, bench) = scheduler(
            1,
            RuntimeConfig::builder()
                .block_samples(64)
                .threads_per_pe(1)
                .build()
                .unwrap(),
        );
        let data = bench.dataset(500, 3);
        let got = run(&sched, &data, JobOptions::default()).unwrap();
        assert_eq!(got.len(), 500);
        assert!(got.iter().all(|p| p.is_finite() && *p > 0.0));
    }

    #[test]
    fn many_threads_per_pe_are_consistent() {
        let (sched, bench) = scheduler(
            2,
            RuntimeConfig::builder()
                .block_samples(32)
                .threads_per_pe(4)
                .build()
                .unwrap(),
        );
        let data = bench.dataset(1000, 17);
        let a = run(&sched, &data, JobOptions::default()).unwrap();
        let b = run(&sched, &data, JobOptions::default()).unwrap();
        assert_eq!(a, b, "runtime results are deterministic");
    }

    #[test]
    fn restricted_pe_count() {
        let (sched, bench) = scheduler(4, RuntimeConfig::default());
        let data = bench.dataset(100, 2);
        let two = JobOptions::builder().num_pes(2).build().unwrap();
        let got = run(&sched, &data, two).unwrap();
        let want = reference(bench, &data);
        for (g, w) in got.iter().zip(&want) {
            assert!(((g - w) / w).abs() < 1e-4);
        }
    }

    #[test]
    fn zero_and_out_of_range_pe_counts_are_errors_not_panics() {
        let (sched, bench) = scheduler(2, RuntimeConfig::default());
        let data = bench.dataset(16, 2);
        // Zero is rejected by the options builder...
        assert!(matches!(
            JobOptions::builder().num_pes(0).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        // ...and an out-of-range count by submission.
        let three = JobOptions::builder().num_pes(3).build().unwrap();
        assert!(matches!(
            run(&sched, &data, three),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        // The scheduler still works afterwards.
        let two = JobOptions::builder().num_pes(2).build().unwrap();
        assert_eq!(run(&sched, &data, two).unwrap().len(), 16);
    }

    #[test]
    fn zero_block_samples_is_an_error_not_a_panic() {
        let cfg = RuntimeConfig {
            block_samples: 0,
            ..RuntimeConfig::default()
        };
        match Scheduler::new(device(1, false), cfg) {
            Err(RuntimeError::InvalidConfig { reason }) => {
                assert!(reason.contains("block_samples"), "got: {reason}")
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a scheduler"),
        }
    }
    #[test]
    fn builder_validates_ranges() {
        assert!(RuntimeConfig::builder().build().is_ok());
        assert!(matches!(
            RuntimeConfig::builder().block_samples(0).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RuntimeConfig::builder().threads_per_pe(0).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RuntimeConfig::builder().verify_fraction(1.5).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RuntimeConfig::builder().verify_fraction(-0.1).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RuntimeConfig::builder().verify_fraction(f64::NAN).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            RuntimeConfig::builder().queue_capacity(0).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        let cfg = RuntimeConfig::builder()
            .block_samples(128)
            .threads_per_pe(3)
            .verify_fraction(0.5)
            .queue_capacity(4)
            .build()
            .unwrap();
        assert_eq!(cfg.block_samples, 128);
        assert_eq!(cfg.threads_per_pe, 3);
        assert_eq!(cfg.verify_fraction, 0.5);
        assert_eq!(cfg.queue_capacity, 4);
    }

    #[test]
    fn error_sources_are_introspectable() {
        use std::error::Error as _;
        let e = RuntimeError::from(AllocError::NoSuchChannel(3));
        assert!(e.source().is_some());
        assert!(e.source().unwrap().to_string().contains("3"));
        let e = RuntimeError::from(DeviceError::NoSuchPe(1));
        assert!(e.source().is_some());
        let e = RuntimeError::Cancelled;
        assert!(e.source().is_none());
    }

    #[test]
    fn only_transient_faults_and_oom_are_retryable() {
        assert!(RuntimeError::from(DeviceError::TransientFault { pe: 0 }).is_transient());
        assert!(RuntimeError::from(AllocError::OutOfMemory {
            requested: 64,
            largest_free: 0,
        })
        .is_transient());
        assert!(!RuntimeError::from(DeviceError::OutOfBounds).is_transient());
        assert!(!RuntimeError::from(AllocError::NoSuchChannel(9)).is_transient());
        assert!(!RuntimeError::Cancelled.is_transient());
    }

    #[test]
    fn empty_job() {
        let (sched, bench) = scheduler(2, RuntimeConfig::default());
        let data = bench.dataset(0, 1);
        assert!(run(&sched, &data, JobOptions::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn shape_mismatch_detected() {
        let (sched, _) = scheduler(1, RuntimeConfig::default());
        let wrong = NipsBenchmark::Nips20.dataset(10, 1);
        assert!(matches!(
            run(&sched, &wrong, JobOptions::default()),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn device_memory_is_returned_after_inference() {
        let (sched, bench) = scheduler(
            2,
            RuntimeConfig::builder()
                .block_samples(128)
                .threads_per_pe(2)
                .build()
                .unwrap(),
        );
        let memory = sched.device().memory();
        let before: Vec<u64> = (0..2).map(|c| memory.free_bytes(c).unwrap()).collect();
        let data = bench.dataset(2000, 23);
        run(&sched, &data, JobOptions::default()).unwrap();
        for (c, b) in before.iter().enumerate() {
            assert_eq!(
                memory.free_bytes(c as u32).unwrap(),
                *b,
                "channel {c} leaked device memory"
            );
        }
    }

    #[test]
    fn host_plan_backend_is_bit_exact_with_the_oracle() {
        let cfg = RuntimeConfig::builder()
            .block_samples(100)
            .threads_per_pe(2)
            .build()
            .unwrap();
        let sched = Scheduler::new(device(2, true), cfg).unwrap();
        let bench = NipsBenchmark::Nips10;
        let data = Arc::new(bench.dataset(1234, 11));
        let opts = JobOptions::builder()
            .backend(ExecBackend::HostPlan)
            .build()
            .unwrap();
        // The provenance is known at submission, before the results.
        let submit = |opts| sched.submit_blocking(Arc::clone(&data), opts).unwrap();
        let first = submit(opts);
        assert_eq!(
            first.provenance(),
            ExecProvenance::CompiledPlan { cache_hit: false },
            "first HostPlan job compiled the plan"
        );
        let want = reference(bench, &data);
        for (i, (g, w)) in first.wait().unwrap().iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "sample {i}: {g} vs {w}");
        }
        // A second job reuses the compiled plan; device jobs report
        // device provenance.
        for (opts, want) in [
            (opts, ExecProvenance::CompiledPlan { cache_hit: true }),
            (JobOptions::default(), ExecProvenance::Device),
        ] {
            let handle = submit(opts);
            assert_eq!(handle.provenance(), want);
            assert_eq!(handle.wait().unwrap().len(), data.num_samples());
        }
    }

    #[test]
    fn host_plan_requires_a_model_on_the_device() {
        let (sched, bench) = scheduler(1, RuntimeConfig::default());
        let data = bench.dataset(8, 1);
        let opts = JobOptions::builder()
            .backend(ExecBackend::HostPlan)
            .build()
            .unwrap();
        match run(&sched, &data, opts) {
            Err(RuntimeError::InvalidConfig { reason }) => {
                assert!(reason.contains("with_model"), "got: {reason}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn infer_feeds_the_metrics_registry() {
        let (sched, bench) = scheduler(
            2,
            RuntimeConfig::builder()
                .block_samples(50)
                .threads_per_pe(1)
                .build()
                .unwrap(),
        );
        let data = bench.dataset(525, 9);
        run(&sched, &data, JobOptions::default()).unwrap();
        let m = sched.metrics_snapshot();
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.blocks_executed, 11); // ceil(525 / 50)
        assert_eq!(m.h2d_bytes, 525 * 10); // NIPS10: 10 B/sample
        assert_eq!(m.d2h_bytes, 525 * 8);
        assert_eq!(m.block_retries, 0);
    }
}
