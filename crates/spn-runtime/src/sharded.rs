//! Multi-device sharded execution of one network.
//!
//! [`ShardedExecutor`] takes a [`ShardPlan`] (a scope cut of one SPN,
//! see [`spn_core::shard`]) and runs its K shards *concurrently*, one
//! host thread per shard, the way K accelerator cards would each hold
//! one stripe of the model. Each shard evaluates through its own
//! compiled inference plan ([`spn_core::CompiledPlan`], obtained from
//! the shared [`PlanCache`] — identical shards of different models
//! share compilations), exporting its boundary *tap* values; the cut's
//! [`spn_core::MergePlan`] then combines the per-shard partials into
//! the root value per sample.
//!
//! **Bit-exactness carries through.** The shard plans and the merge
//! replay exactly the float-op order of the tree-walk oracle, so the
//! sharded result equals [`spn_core::Evaluator`] and a single-device
//! [`spn_core::PlanExecutor`] bit for bit — `tests/shard_differential.rs`
//! enforces this across random networks, cuts and query shapes.
//!
//! As a test seam, [`ShardedExecutor::with_pacing`] models each
//! shard-device as real hardware with a fixed per-node service rate:
//! every shard evaluation sleeps `per_node × shard_nodes × samples`
//! while its thread holds the (virtual) device. Because shards split
//! the *model*, a balanced K-way cut makes each device hold ~1/K of
//! the nodes. That the shard threads overlap is proved by this
//! module's `pacing_overlaps_across_shards`; how much a cut can buy —
//! `total_nodes / largest_shard_nodes` — is a pure function of the
//! [`ShardPlan`], pinned by `tests/shard_differential.rs`.

use crate::executor::{to_probabilities, BlockCx, BlockExecutor};
use crate::plan_cache::PlanCache;
use crate::runtime::RuntimeError;
use spn_core::{CompiledPlan, PlanExecutor, Query, ShardPlan};
use spn_telemetry::SpanKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cut seed the scheduler uses when a job asks for
/// [`crate::job::ExecBackend::Sharded`] execution: one fixed seed keeps
/// the cut — and therefore the compiled shard plans — stable across
/// jobs, so the plan cache is warm after the first submission.
pub const DEFAULT_SHARD_SEED: u64 = 0xD1F7;

/// Per-shard boundary values for a batch of samples — the intermediate
/// between the shard phase and the merge, so the two can be timed (and
/// traced) independently.
struct ShardPartials {
    /// Samples in the batch.
    samples: usize,
    /// `per_shard[s][i * tap_count(s) + t]` = value of tap `t` of
    /// shard `s` on sample `i` (sample-major, like the executor's
    /// output buffers).
    per_shard: Vec<Vec<f64>>,
}

/// Runs one [`ShardPlan`]'s shards concurrently and merges their
/// partials. Cheap to clone-share behind an [`Arc`]; evaluation takes
/// `&self` (each call spawns its own scoped shard threads and scratch).
pub struct ShardedExecutor {
    plan: Arc<ShardPlan>,
    shard_plans: Vec<Arc<CompiledPlan>>,
    pacing_per_node: Option<Duration>,
    /// Blocks run through the scheduler seam (for telemetry).
    blocks_run: AtomicU64,
}

impl ShardedExecutor {
    /// Compile every shard of `plan`, with its taps as the plan's
    /// outputs, through `cache` (cache-warm shards are not recompiled).
    pub fn new(plan: Arc<ShardPlan>, cache: &PlanCache) -> Self {
        let shard_plans = plan
            .shards()
            .iter()
            .map(|s| cache.get_or_compile_with_outputs(&s.spn, &s.taps).0)
            .collect();
        ShardedExecutor {
            plan,
            shard_plans,
            pacing_per_node: None,
            blocks_run: AtomicU64::new(0),
        }
    }

    /// Model each shard-device as hardware with a fixed per-node
    /// service rate: every shard evaluation additionally sleeps
    /// `per_node × shard_nodes × samples` on its own thread. The host
    /// CPU is idle during the sleep, so K paced shards genuinely
    /// overlap — shard count, not host core count, becomes the
    /// resource under test.
    pub fn with_pacing(mut self, per_node: Duration) -> Self {
        self.pacing_per_node = Some(per_node);
        self
    }

    /// Effective shard count (= concurrent shard threads per batch).
    pub(crate) fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Scheduler blocks this executor has run.
    pub(crate) fn blocks_run(&self) -> u64 {
        self.blocks_run.load(Ordering::Relaxed)
    }

    /// Phase 1: evaluate all shards concurrently over a raw byte batch
    /// (`num_features` bytes per sample), collecting every shard's tap
    /// values for every sample.
    fn shard_partials(&self, query: &Query, raw: &[u8], num_features: usize) -> ShardPartials {
        assert_eq!(
            num_features,
            self.plan.num_vars(),
            "batch has {} features but the cut models {} variables",
            num_features,
            self.plan.num_vars()
        );
        assert!(
            num_features > 0 && raw.len().is_multiple_of(num_features),
            "raw batch of {} bytes is not a whole number of {num_features}-byte samples",
            raw.len()
        );
        let samples = raw.len() / num_features;
        let pacing = self.pacing_per_node;
        let mut per_shard: Vec<Vec<f64>> = Vec::with_capacity(self.num_shards());
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .plan
                .shards()
                .iter()
                .zip(&self.shard_plans)
                .map(|(shard, plan)| {
                    scope.spawn(move || {
                        let mut ex = PlanExecutor::new(plan);
                        let mut vals = Vec::with_capacity(samples * shard.taps.len());
                        ex.eval_batch_raw(query, raw, num_features, &mut vals);
                        if let Some(per_node) = pacing {
                            let nanos =
                                per_node.as_nanos() * shard.spn.len() as u128 * samples as u128;
                            std::thread::sleep(Duration::from_nanos(
                                nanos.min(u64::MAX as u128) as u64
                            ));
                        }
                        vals
                    })
                })
                .collect();
            for w in workers {
                per_shard.push(w.join().expect("shard worker panicked"));
            }
        });
        ShardPartials { samples, per_shard }
    }

    /// Phase 2: combine shard partials into per-sample root
    /// log-likelihoods, appended to `out` in sample order.
    fn merge_partials(&self, query: &Query, partials: &ShardPartials, out: &mut Vec<f64>) {
        let tap_counts: Vec<usize> = self.plan.shards().iter().map(|s| s.taps.len()).collect();
        let merge = self.plan.merge();
        let mpe = query.is_mpe();
        let mut scratch = Vec::with_capacity(merge.ops().len());
        out.reserve(partials.samples);
        for i in 0..partials.samples {
            out.push(merge.eval_with(mpe, &mut scratch, |s, t| {
                let s = s as usize;
                partials.per_shard[s][i * tap_counts[s] + t as usize]
            }));
        }
    }

    /// Both phases in one call: per-sample root log-likelihoods of a
    /// raw byte batch, appended to `out`.
    pub fn eval_batch_raw(
        &self,
        query: &Query,
        raw: &[u8],
        num_features: usize,
        out: &mut Vec<f64>,
    ) {
        let partials = self.shard_partials(query, raw, num_features);
        self.merge_partials(query, &partials, out);
    }
}

/// The sharded host path: evaluate one block's samples across the K
/// concurrent shard executors, then merge the shard partials into root
/// values. Two spans per block when tracing — `shard-exec` around the
/// concurrent shard phase, `shard-merge` around the combine — so a
/// Chrome-trace export shows where a cut's time goes.
impl BlockExecutor for ShardedExecutor {
    fn run_block(&self, cx: &BlockCx, src: &[u8], out: &mut Vec<f64>) -> Result<(), RuntimeError> {
        let t0 = Instant::now();
        let partials = self.shard_partials(&Query::Complete, src, src.len() / cx.samples);
        cx.span(SpanKind::ShardExec, t0);
        let t0 = Instant::now();
        self.merge_partials(&Query::Complete, &partials, out);
        cx.span(SpanKind::ShardMerge, t0);
        self.blocks_run.fetch_add(1, Ordering::Relaxed);
        to_probabilities(out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::runtime::ExecProvenance;
    use sim_core::MIB;
    use spn_arith::{AnyFormat, CfpFormat};
    use spn_core::{Evaluator, NipsBenchmark};
    use spn_hw::{AcceleratorConfig, DatapathProgram};
    use spn_telemetry::SpanKind;

    fn executor(k: usize) -> (ShardedExecutor, NipsBenchmark, PlanCache) {
        let bench = NipsBenchmark::Nips10;
        let spn = bench.build_spn();
        let cache = PlanCache::new();
        let plan = Arc::new(ShardPlan::cut(&spn, k, DEFAULT_SHARD_SEED));
        (ShardedExecutor::new(plan, &cache), bench, cache)
    }

    #[test]
    fn sharded_batch_matches_tree_walk_bit_exactly() {
        for k in [1usize, 2, 3, 4] {
            let (ex, bench, _cache) = executor(k);
            let spn = bench.build_spn();
            let mut ev = Evaluator::new(&spn);
            let data = bench.dataset(37, 5);
            let nf = data.num_features();
            let mut marg = vec![false; nf];
            marg[0] = true;
            marg[nf / 2] = true;
            for q in [
                Query::Complete,
                Query::marginal(marg.clone()),
                Query::mpe(marg),
            ] {
                let mut got = Vec::new();
                ex.eval_batch_raw(&q, data.raw(), nf, &mut got);
                for (i, row) in data.rows().enumerate() {
                    let want = ev.eval_bytes(&q, row);
                    assert_eq!(
                        got[i].to_bits(),
                        want.to_bits(),
                        "k={k} {} sample {i}",
                        q.label()
                    );
                }
            }
        }
    }

    #[test]
    fn shard_plans_come_from_the_shared_cache() {
        let bench = NipsBenchmark::Nips10;
        let spn = bench.build_spn();
        let cache = PlanCache::new();
        let plan = Arc::new(ShardPlan::cut(&spn, 3, DEFAULT_SHARD_SEED));
        let _a = ShardedExecutor::new(Arc::clone(&plan), &cache);
        let t = cache.telemetry();
        assert_eq!(t.cached_plans as usize, plan.num_shards());
        assert_eq!(t.cache_misses as usize, plan.num_shards());
        // A second executor over the same cut compiles nothing.
        let _b = ShardedExecutor::new(plan, &cache);
        assert_eq!(cache.telemetry().cache_misses, t.cache_misses);
        assert!(cache.telemetry().cache_hits > 0);
    }

    #[test]
    fn pacing_overlaps_across_shards() {
        // With per-node pacing, a balanced 2-way cut must take clearly
        // less wall time than the single-shard model: the sleeps run
        // concurrently on the shard threads.
        let per_node = Duration::from_nanos(40_000);
        let (ex1, bench, _c1) = executor(1);
        let (ex2, _, _c2) = executor(2);
        let ex1 = ex1.with_pacing(per_node);
        let ex2 = ex2.with_pacing(per_node);
        let data = bench.dataset(8, 3);
        let nf = data.num_features();
        let time = |ex: &ShardedExecutor| {
            let mut out = Vec::new();
            let t0 = Instant::now();
            ex.eval_batch_raw(&Query::Complete, data.raw(), nf, &mut out);
            (t0.elapsed(), out)
        };
        let (t1, r1) = time(&ex1);
        let (t2, r2) = time(&ex2);
        assert_eq!(r1, r2, "pacing must not change results");
        assert!(t2 < t1, "2 paced shards ({t2:?}) should beat 1 ({t1:?})");
    }

    #[test]
    #[should_panic(expected = "features")]
    fn wrong_width_batch_panics() {
        let (ex, _, _cache) = executor(2);
        let mut out = Vec::new();
        ex.eval_batch_raw(&Query::Complete, &[0u8; 7], 7, &mut out);
    }

    // The scheduler-level view of this executor: jobs submitted with
    // `ExecBackend::Sharded` reach it through the block-executor seam.

    fn device(pes: u32, with_model: bool) -> (Arc<VirtualDevice>, NipsBenchmark) {
        let bench = NipsBenchmark::Nips10;
        let spn = Arc::new(bench.build_spn());
        let mut dev = VirtualDevice::new(
            DatapathProgram::compile(&spn),
            AnyFormat::Cfp(CfpFormat::paper_default()),
            AcceleratorConfig::paper_default(),
            pes,
            16 * MIB,
        );
        if with_model {
            dev = dev.with_model(spn);
        }
        (Arc::new(dev), bench)
    }

    fn config(block: u64, threads: u32) -> RuntimeConfig {
        RuntimeConfig::builder()
            .block_samples(block)
            .threads_per_pe(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn sharded_backend_matches_host_plan_bit_exactly() {
        let (dev, bench) = device(2, true);
        let sched = Scheduler::new(dev, config(64, 2)).unwrap();
        let data = Arc::new(bench.dataset(333, 9));
        let host = sched
            .submit(
                Arc::clone(&data),
                JobOptions::builder()
                    .backend(ExecBackend::HostPlan)
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .wait()
            .unwrap();
        for k in [1u32, 2, 3, 4] {
            let h = sched
                .submit(
                    Arc::clone(&data),
                    JobOptions::builder()
                        .backend(ExecBackend::Sharded(k))
                        .build()
                        .unwrap(),
                )
                .unwrap();
            match h.provenance() {
                ExecProvenance::Sharded { shards } => assert!(shards >= 1 && shards <= k),
                other => panic!("unexpected provenance {other:?}"),
            }
            let got = h.wait().unwrap();
            assert_eq!(got.len(), host.len());
            for (i, (g, w)) in got.iter().zip(&host).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "k={k} sample {i}: sharded {g} vs host plan {w}"
                );
            }
        }
        let shard = sched.shard_telemetry().expect("sharded jobs ran");
        assert_eq!(shard.shard_sets, 4);
        assert!(shard.shards >= 4, "k=1..4 cuts hold at least 4 shards");
        assert!(shard.sharded_blocks >= 4 * 333u64.div_ceil(64));
    }

    #[test]
    fn sharded_backend_requires_a_model_and_positive_count() {
        let (dev, bench) = device(1, false);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let data = Arc::new(bench.dataset(10, 1));
        let opts = JobOptions {
            backend: ExecBackend::Sharded(2),
            ..JobOptions::default()
        };
        assert!(matches!(
            sched.submit(Arc::clone(&data), opts),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        // A zero shard count is caught even when the builder is bypassed.
        let (dev, _) = device(1, true);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let opts = JobOptions {
            backend: ExecBackend::Sharded(0),
            ..JobOptions::default()
        };
        assert!(matches!(
            sched.submit(data, opts),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        assert_eq!(sched.shard_telemetry(), None);
    }

    #[test]
    fn traced_sharded_job_records_exec_and_merge_spans() {
        let (dev, bench) = device(1, true);
        let trace = Arc::new(TraceCollector::new());
        let sched = Scheduler::with_trace(dev, config(64, 1), Some(Arc::clone(&trace))).unwrap();
        let ctx = spn_telemetry::SpanCtx::mint();
        let data = Arc::new(bench.dataset(130, 3));
        let opts = JobOptions::builder()
            .backend(ExecBackend::Sharded(2))
            .ctx(ctx)
            .build()
            .unwrap();
        sched.submit(data, opts).unwrap().wait().unwrap();
        let spans = trace.spans();
        // 3 blocks × (shard-exec, shard-merge), plus shard-plan
        // compiles recorded without a request ctx.
        for kind in [SpanKind::ShardExec, SpanKind::ShardMerge] {
            let of_kind: Vec<_> = spans.iter().filter(|s| s.kind == kind).collect();
            assert_eq!(of_kind.len(), 3, "{kind:?}");
            assert!(of_kind.iter().all(|s| s.ctx == ctx));
        }
    }
}
