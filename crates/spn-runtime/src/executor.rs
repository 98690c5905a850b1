//! The block-execution seam between the scheduler and its backends.
//!
//! The claim core decides *which* block runs next, the scheduler *where
//! its results go*; a [`BlockExecutor`] decides *how* the block's
//! samples become probabilities. There are exactly two, each beside
//! the code it drives: [`VirtualDevice`] (the alloc → h2d → launch →
//! d2h pipeline) and [`CompiledPlan`] (in `plan_cache.rs`: the batched
//! host interpreter). [`Executors`] turns a job's [`ExecBackend`] into
//! one of them once, at submission; workers never look a backend up
//! again.

use crate::device::VirtualDevice;
use crate::job::ExecBackend;
use crate::metrics::MetricsRegistry;
use crate::plan_cache::PlanCache;
use crate::runtime::{ExecProvenance, RuntimeError};
use spn_core::CompiledPlan;
use spn_telemetry::{LiveSpan, SpanCtx, SpanKind, TraceCollector};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What an executor may know about the block it is running.
pub(crate) struct BlockCx<'a> {
    /// The PE (= HBM channel) whose control thread runs the block.
    pub pe: u32,
    /// That control thread: scheduler worker `tid` drives PE
    /// `tid % num_pes`.
    pub tid: u32,
    /// Index of the block within its job.
    pub block: u64,
    /// Samples in the block.
    pub samples: usize,
    /// Trace context of the submitting job.
    pub ctx: SpanCtx,
    /// Live span collector (`None` when tracing is off).
    pub trace: Option<&'a TraceCollector>,
    /// The scheduler's counters (executors account the bytes they move).
    pub metrics: &'a MetricsRegistry,
}

impl BlockCx<'_> {
    /// Record a `kind` span from `t0` to now on the control thread's
    /// track, stamped with the job's trace context. No-op when tracing
    /// is off.
    pub(crate) fn span(&self, kind: SpanKind, t0: Instant) {
        if let Some(t) = self.trace {
            let when = t0..Instant::now();
            t.record(kind, self.ctx, self.pe, self.tid, self.block, when);
        }
    }
}

/// One way of turning a block of samples into probabilities.
pub(crate) trait BlockExecutor: Send + Sync {
    /// Evaluate the `cx.samples` samples packed in `src`, appending one
    /// linear probability per sample to the empty `out` — the one
    /// result format every backend shares. Holds no resource past its
    /// return, on any path.
    fn run_block(&self, cx: &BlockCx, src: &[u8], out: &mut Vec<f64>) -> Result<(), RuntimeError>;

    /// Whether a `samples`-sample block costs no more than the hand-off
    /// to a control thread ([`crate::Scheduler::submit_then`]). Never a
    /// device block: PE occupancy is modelled on the control threads.
    fn runs_inline(&self, _samples: usize) -> bool {
        false
    }
}

/// Turn root log-likelihoods into the linear probabilities
/// [`BlockExecutor::run_block`] promises (the device convention), in
/// place.
pub(crate) fn to_probabilities(log_likelihoods: &mut [f64]) {
    for v in log_likelihoods {
        *v = v.exp();
    }
}

/// The executors of one scheduler, and what is per-scheduler rather
/// than per-block about them.
pub(crate) struct Executors {
    device: Arc<VirtualDevice>,
    /// The plan below compiles through this cache (shareable across
    /// schedulers — a server passes one to all its models).
    plan_cache: Arc<PlanCache>,
    /// The device model's plan, compiled eagerly when the device
    /// carries its model ([`VirtualDevice::with_model`]).
    plan: Option<Arc<CompiledPlan>>,
    /// Whether a `HostPlan` job finds the plan already paid for: it
    /// came out of a warm cache, or an earlier job has used it.
    plan_warm: AtomicBool,
}

impl Executors {
    /// Compiles (or fetches) the device model's plan, recording a
    /// `plan-compile` span on a cache miss.
    pub(crate) fn new(
        device: Arc<VirtualDevice>,
        plan_cache: Arc<PlanCache>,
        trace: Option<&TraceCollector>,
    ) -> Self {
        let t0 = Instant::now();
        let compiled = device.model().map(|m| plan_cache.get_or_compile(m));
        let (plan, hit) = compiled.unzip();
        // A compile serves no single request and runs on no control
        // thread: no trace context, PE 0, a track of its own.
        if let (Some(false), Some(t)) = (hit, trace) {
            let (ctx, tid) = (SpanCtx::NONE, LiveSpan::NO_THREAD);
            t.record(SpanKind::PlanCompile, ctx, 0, tid, 0, t0..Instant::now());
        }
        Executors {
            device,
            plan_cache,
            plan,
            plan_warm: AtomicBool::new(hit == Some(true)),
        }
    }

    /// The executor for `backend` and the provenance its results will
    /// carry; `InvalidConfig` when the backend needs a device model
    /// that is not there.
    pub(crate) fn resolve(
        &self,
        backend: ExecBackend,
    ) -> Result<(Arc<dyn BlockExecutor>, ExecProvenance), RuntimeError> {
        Ok(match backend {
            // (`.clone()` rather than `Arc::clone` so the concrete `Arc`s
            // coerce to the trait object.)
            ExecBackend::Device => (self.device.clone(), ExecProvenance::Device),
            ExecBackend::HostPlan => {
                let plan = self
                    .plan
                    .as_ref()
                    .ok_or_else(|| RuntimeError::InvalidConfig {
                        reason: "HostPlan backend requires a device built with its model \
                             (VirtualDevice::with_model)"
                            .into(),
                    })?;
                let cache_hit = self.plan_warm.swap(true, Ordering::Relaxed);
                (plan.clone(), ExecProvenance::CompiledPlan { cache_hit })
            }
        })
    }

    /// The plan cache the executors compile through.
    pub(crate) fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_arith::AnyFormat;
    use spn_core::NipsBenchmark;
    use spn_hw::{AcceleratorConfig, DatapathProgram};

    fn executors(with_model: bool, cache: &Arc<PlanCache>) -> Executors {
        let spn = Arc::new(NipsBenchmark::Nips10.build_spn());
        let mut device = VirtualDevice::new(
            DatapathProgram::compile(&spn),
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            1,
            1 << 20,
        );
        if with_model {
            device = device.with_model(spn);
        }
        Executors::new(Arc::new(device), Arc::clone(cache), None)
    }

    fn provenance(ex: &Executors, backend: ExecBackend) -> Result<ExecProvenance, RuntimeError> {
        ex.resolve(backend).map(|(_, provenance)| provenance)
    }

    #[test]
    fn resolution_fixes_provenance_and_rejects_what_the_device_cannot_run() {
        let cache = Arc::new(PlanCache::new());
        // Cold cache: the first HostPlan job pays for the compile, later
        // ones do not.
        let cold = executors(true, &cache);
        assert_eq!(cache.telemetry().cache_misses, 1, "compiled eagerly");
        let host = |ex: &Executors| provenance(ex, ExecBackend::HostPlan).unwrap();
        assert_eq!(
            host(&cold),
            ExecProvenance::CompiledPlan { cache_hit: false }
        );
        assert_eq!(
            host(&cold),
            ExecProvenance::CompiledPlan { cache_hit: true }
        );
        // Warm cache: a hit from the first job on.
        let warm = executors(true, &cache);
        assert_eq!(
            host(&warm),
            ExecProvenance::CompiledPlan { cache_hit: true }
        );
        assert_eq!(cache.telemetry().cache_misses, 1);

        assert_eq!(
            provenance(&cold, ExecBackend::Device).unwrap(),
            ExecProvenance::Device
        );

        let bare = executors(false, &cache);
        assert!(matches!(
            provenance(&bare, ExecBackend::HostPlan),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(provenance(&bare, ExecBackend::Device).is_ok());
    }
}
