//! The block-execution seam between the scheduler and its backends.
//!
//! The claim core decides *which* block runs next, the scheduler *where
//! its results go*; a [`BlockExecutor`] decides *how* the block's
//! samples become probabilities. There are exactly three, each beside
//! the code it drives: [`VirtualDevice`] (the alloc → h2d → launch →
//! d2h pipeline), [`CompiledPlan`] (in `plan_cache.rs`: the batched
//! host interpreter) and [`ShardedExecutor`] (concurrent shards, then
//! the merge). [`Executors`] turns a job's [`ExecBackend`] into one of
//! them once, at submission; workers never look a backend up again.

use crate::device::VirtualDevice;
use crate::job::ExecBackend;
use crate::metrics::MetricsRegistry;
use crate::plan_cache::PlanCache;
use crate::runtime::{ExecProvenance, RuntimeError};
use crate::sharded::{ShardedExecutor, DEFAULT_SHARD_SEED};
use parking_lot::Mutex;
use spn_core::{CompiledPlan, ShardPlan};
use spn_telemetry::{LiveSpan, ShardTelemetry, SpanCtx, SpanKind, TraceCollector};
use std::collections::HashMap;
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
    /// Every plan below compiles through this cache (shareable across
    /// schedulers — a server passes one to all its models).
    plan_cache: Arc<PlanCache>,
    trace: Option<Arc<TraceCollector>>,
    /// The device model's plan, compiled eagerly when the device
    /// carries its model ([`VirtualDevice::with_model`]).
    plan: Option<Arc<CompiledPlan>>,
    /// Whether a `HostPlan` job finds the plan already paid for: it
    /// came out of a warm cache, or an earlier job has used it.
    plan_warm: AtomicBool,
    /// Shard executors by requested shard count, built on first use.
    sharded: Mutex<HashMap<u32, Arc<ShardedExecutor>>>,
}

impl Executors {
    /// Compiles (or fetches) the device model's plan, recording a
    /// `plan-compile` span on a cache miss.
    pub(crate) fn new(
        device: Arc<VirtualDevice>,
        plan_cache: Arc<PlanCache>,
        trace: Option<Arc<TraceCollector>>,
    ) -> Self {
        let t0 = Instant::now();
        let compiled = device.model().map(|m| plan_cache.get_or_compile(m));
        let (plan, hit) = compiled.unzip();
        let executors = Executors {
            device,
            plan_cache,
            trace,
            plan,
            plan_warm: AtomicBool::new(hit == Some(true)),
            sharded: Mutex::new(HashMap::new()),
        };
        if hit == Some(false) {
            executors.compile_span(t0);
        }
        executors
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
                let plan = self.plan.as_ref().ok_or_else(|| needs_model("HostPlan"))?;
                let cache_hit = self.plan_warm.swap(true, Ordering::Relaxed);
                (plan.clone(), ExecProvenance::CompiledPlan { cache_hit })
            }
            ExecBackend::Sharded(k) => {
                let ex = self.sharded_executor(k)?;
                // The *effective* count: the cut clamps to the model's
                // atomic scope regions.
                let shards = ex.num_shards() as u32;
                (ex, ExecProvenance::Sharded { shards })
            }
        })
    }

    /// The plan cache the executors compile through.
    pub(crate) fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// Counters of the sharded path, or `None` before the first
    /// `Sharded` resolution.
    pub(crate) fn shard_telemetry(&self) -> Option<ShardTelemetry> {
        let map = self.sharded.lock();
        (!map.is_empty()).then(|| ShardTelemetry {
            shard_sets: map.len() as u64,
            shards: map.values().map(|ex| ex.num_shards() as u64).sum(),
            sharded_blocks: map.values().map(|ex| ex.blocks_run()).sum(),
        })
    }

    /// The shard executor for a requested count: cut the device model
    /// with [`DEFAULT_SHARD_SEED`] on first use (the cut is a pure
    /// function, so every job asking for `k` shares one executor and
    /// warm shard plans).
    fn sharded_executor(&self, k: u32) -> Result<Arc<ShardedExecutor>, RuntimeError> {
        if k == 0 {
            return Err(RuntimeError::InvalidConfig {
                reason: "Sharded backend needs at least 1 shard".into(),
            });
        }
        let model = self.device.model().ok_or_else(|| needs_model("Sharded"))?;
        let mut map = self.sharded.lock();
        if let Some(ex) = map.get(&k) {
            return Ok(Arc::clone(ex));
        }
        let t0 = Instant::now();
        let plan = Arc::new(ShardPlan::cut(model, k as usize, DEFAULT_SHARD_SEED));
        let ex = Arc::new(ShardedExecutor::new(plan, &self.plan_cache));
        self.compile_span(t0);
        map.insert(k, Arc::clone(&ex));
        Ok(ex)
    }

    /// Plan compiles serve no single request and run on no control
    /// thread: no trace context, PE 0, a track of their own.
    fn compile_span(&self, t0: Instant) {
        if let Some(t) = self.trace.as_deref() {
            let (ctx, tid) = (SpanCtx::NONE, LiveSpan::NO_THREAD);
            t.record(SpanKind::PlanCompile, ctx, 0, tid, 0, t0..Instant::now());
        }
    }
}

fn needs_model(backend: &str) -> RuntimeError {
    RuntimeError::InvalidConfig {
        reason: format!(
            "{backend} backend requires a device built with its model (VirtualDevice::with_model)"
        ),
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
        // The effective shard count, one executor per requested count.
        assert_eq!(cold.shard_telemetry(), None);
        match provenance(&cold, ExecBackend::Sharded(2)).unwrap() {
            ExecProvenance::Sharded { shards } => assert!((1..=2).contains(&shards)),
            other => panic!("unexpected provenance {other:?}"),
        }
        provenance(&cold, ExecBackend::Sharded(2)).unwrap();
        assert_eq!(cold.shard_telemetry().unwrap().shard_sets, 1);

        let bare = executors(false, &cache);
        for backend in [
            ExecBackend::HostPlan,
            ExecBackend::Sharded(2),
            ExecBackend::Sharded(0),
        ] {
            assert!(
                matches!(
                    provenance(&bare, backend),
                    Err(RuntimeError::InvalidConfig { .. })
                ),
                "{backend:?}"
            );
        }
        assert!(matches!(
            provenance(&cold, ExecBackend::Sharded(0)),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert!(provenance(&bare, ExecBackend::Device).is_ok());
    }
}
