//! The runtime's compiled-plan cache.
//!
//! Compiling an [`Spn`] into a [`CompiledPlan`] is linear in the
//! network but still far too expensive to repeat per request. The
//! [`PlanCache`] memoizes compilations keyed by
//! [`Spn::fingerprint`] — a structural hash over topology, weights and
//! leaf parameters — so every scheduler (and, through a shared cache,
//! every model a server hosts) compiles each distinct model exactly
//! once. Plans are handed out as `Arc`s: executors borrow them
//! concurrently while the cache retains its copy.
//!
//! The cache also keeps hit/miss/invalidation counters that surface in
//! the unified telemetry document as the `plan` section
//! ([`spn_telemetry::PlanTelemetry`]).

use crate::executor::{to_probabilities, BlockCx, BlockExecutor};
use crate::runtime::RuntimeError;
use parking_lot::Mutex;
use spn_core::{CompiledPlan, PlanExecutor, Query, Spn};
use spn_telemetry::{PlanTelemetry, SpanKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A fingerprint-keyed memo of compiled inference plans.
///
/// Thread-safe; cheap to share via `Arc`. See the module docs.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// One plan per fingerprint.
    plans: Mutex<HashMap<u64, Arc<CompiledPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for `spn`, compiling it on a miss. The boolean is
    /// `true` when the plan came from the cache.
    pub fn get_or_compile(&self, spn: &Spn) -> (Arc<CompiledPlan>, bool) {
        // Hash before locking: a hit then holds the lock for one map
        // probe, not for a walk over every parameter of the model.
        let fingerprint = spn.fingerprint();
        let mut plans = self.plans.lock();
        if let Some(plan) = plans.get(&fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(plan), true);
        }
        // Compile under the lock: a concurrent miss on the same model
        // would otherwise compile twice, and plan compilation is fast
        // enough (one linear pass) that blocking peers is the lesser
        // evil.
        let plan = Arc::new(CompiledPlan::compile(spn));
        plans.insert(fingerprint, Arc::clone(&plan));
        self.misses.fetch_add(1, Ordering::Relaxed);
        (plan, false)
    }

    /// Drop the plan compiled for `spn` (after retraining, say, the
    /// fingerprint changes and the stale entry would never be hit again
    /// — but an *in-place* parameter update reuses the old
    /// fingerprint's slot until invalidated).
    /// Returns `true` if an entry was removed.
    pub fn invalidate(&self, spn: &Spn) -> bool {
        let fingerprint = spn.fingerprint();
        let removed = self.plans.lock().remove(&fingerprint).is_some();
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters for the telemetry document's `plan` section.
    pub fn telemetry(&self) -> PlanTelemetry {
        PlanTelemetry {
            cached_plans: self.len() as u64,
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// The largest block, in ops × rows, that runs on its submitter: 512
/// op-rows at ~6.5 ns cost the ~3.3 µs of CPU a hand-off to a control
/// thread does. NIPS10 (31 ops) up to 16 rows, NIPS80 (283 ops) one.
pub(crate) const INLINE_OP_ROWS: usize = 512;

/// The host fast path: evaluate one block through the compiled plan,
/// entirely on the CPU. No device buffers, no DMA — just the batched
/// [`PlanExecutor`] over the block's bytes, traced as one `plan-exec`
/// span.
impl BlockExecutor for CompiledPlan {
    fn run_block(&self, cx: &BlockCx, src: &[u8], out: &mut Vec<f64>) -> Result<(), RuntimeError> {
        let t0 = Instant::now();
        PlanExecutor::new(self).eval_batch_raw(&Query::Complete, src, self.num_vars(), out);
        cx.span(SpanKind::PlanExec, t0);
        to_probabilities(out);
        Ok(())
    }

    fn runs_inline(&self, samples: usize) -> bool {
        samples.saturating_mul(self.len()) <= INLINE_OP_ROWS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::{random_spn, RandomSpnConfig};

    fn model(seed: u64) -> Spn {
        let cfg = RandomSpnConfig {
            num_vars: 4,
            domain: 4,
            seed,
            ..RandomSpnConfig::default()
        };
        random_spn(&cfg, "cache-test").unwrap()
    }

    #[test]
    fn first_lookup_compiles_then_hits() {
        let cache = PlanCache::new();
        let spn = model(1);
        let (p1, hit1) = cache.get_or_compile(&spn);
        assert!(!hit1);
        let (p2, hit2) = cache.get_or_compile(&spn);
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        let t = cache.telemetry();
        assert_eq!((t.cached_plans, t.cache_hits, t.cache_misses), (1, 1, 1));
    }

    #[test]
    fn distinct_models_get_distinct_entries() {
        let cache = PlanCache::new();
        cache.get_or_compile(&model(1));
        cache.get_or_compile(&model(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.telemetry().cache_misses, 2);
    }

    #[test]
    fn renamed_model_is_the_same_entry() {
        let cache = PlanCache::new();
        let spn = model(1);
        let mut renamed = spn.clone();
        renamed.name = "other".into();
        cache.get_or_compile(&spn);
        let (_, hit) = cache.get_or_compile(&renamed);
        assert!(hit, "fingerprint ignores the name");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidation_forces_recompilation() {
        let cache = PlanCache::new();
        let spn = model(1);
        cache.get_or_compile(&spn);
        assert!(cache.invalidate(&spn));
        assert!(!cache.invalidate(&spn), "second invalidation is a no-op");
        assert!(cache.is_empty());
        let (_, hit) = cache.get_or_compile(&spn);
        assert!(!hit);
        let t = cache.telemetry();
        assert_eq!(t.invalidations, 1);
        assert_eq!(t.cache_misses, 2);
    }
}
