//! Differential suite: the compiled plan executor must be **bit-exact**
//! against the tree-walking [`Evaluator`] oracle — not merely close.
//! Both paths are pure f64 pipelines over the same arena, so any
//! divergence (a reordered reduction, a fused step, a wrong LUT entry)
//! shows up as a `to_bits` mismatch here before it can corrupt the
//! runtime's host fast path.
//!
//! Coverage axes: random SPN structures, batch sizes straddling the
//! executor's lane width (1, the lane count, one past it, odd
//! remainders), and all three [`Query`] shapes — including marginals
//! whose unobserved slots hold NaN on the oracle side and arbitrary
//! bytes on the plan side, and fully-summed-out evidence.

use proptest::prelude::*;
use spn_core::{CompiledPlan, Dataset, Evaluator, PlanExecutor, Query, RandomSpnConfig};
use spn_runtime::PlanCache;
use std::sync::Arc;
use system_tests::small_spn_configs;

/// Strategy: a random-but-valid SPN configuration plus a batch size
/// chosen to exercise whole lane chunks, scalar remainders and the
/// single-row path.
fn config_and_batch() -> impl Strategy<Value = (RandomSpnConfig, usize)> {
    let batch = (0usize..8).prop_map(|i| [1usize, 2, 7, 8, 9, 13, 64, 67][i]);
    (small_spn_configs(), batch)
}

/// Deterministic pseudo-random feature rows (an LCG keeps proptest's
/// input space small; the structure seed already varies per case).
fn raw_rows(seed: u64, n: usize, nf: usize, domain: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n * nf)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as u8) % domain as u8
        })
        .collect()
}

/// Deterministic observation mask with roughly half the variables
/// observed (never panics on num_vars == 1).
fn mask(seed: u64, num_vars: usize) -> Vec<bool> {
    (0..num_vars).map(|v| (seed >> (v % 64)) & 1 == 1).collect()
}

fn assert_bit_exact(
    cfg: &RandomSpnConfig,
    batch: usize,
    query: &Query,
    oracle_nan_unobserved: bool,
) {
    let spn = spn_core::random_spn(cfg, "plan-diff").unwrap();
    let raw = raw_rows(cfg.seed ^ 0xD1FF, batch, cfg.num_vars, cfg.domain);
    let data = Dataset::from_raw(raw.clone(), cfg.num_vars, cfg.domain);

    let plan = CompiledPlan::compile(&spn);
    let got = PlanExecutor::new(&plan).eval_batch(query, &data);

    let mut ev = Evaluator::new(&spn);
    for (i, row) in data.rows().enumerate() {
        let want = if oracle_nan_unobserved {
            // The oracle sees NaN in every unobserved slot while the
            // plan sees the raw byte: both must ignore them entirely.
            let observed = query.observed().expect("masked query");
            let frow: Vec<f64> = row
                .iter()
                .zip(observed)
                .map(|(&b, &obs)| if obs { b as f64 } else { f64::NAN })
                .collect();
            ev.eval(query, &frow)
        } else {
            ev.eval_bytes(query, row)
        };
        assert_eq!(
            got[i].to_bits(),
            want.to_bits(),
            "row {i}: plan {} vs oracle {} for {} query",
            got[i],
            want,
            query.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Complete-evidence likelihood: every row, bit-for-bit.
    #[test]
    fn complete_query_is_bit_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        assert_bit_exact(&cfg, batch, &Query::Complete, false);
    }

    /// Marginals with a random mask; the oracle reads NaN in the
    /// summed-out slots to prove neither path touches them.
    #[test]
    fn marginal_query_is_bit_exact_with_nan_unobserved(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        let query = Query::marginal(mask(cfg.seed, cfg.num_vars));
        assert_bit_exact(&cfg, batch, &query, true);
    }

    /// Fully-summed-out marginal: P(anything) = 1 on both paths.
    #[test]
    fn fully_summed_out_marginal_is_bit_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        let query = Query::marginal(vec![false; cfg.num_vars]);
        assert_bit_exact(&cfg, batch, &query, true);
        let spn = spn_core::random_spn(&cfg, "plan-diff").unwrap();
        let plan = CompiledPlan::compile(&spn);
        let raw = raw_rows(1, 1, cfg.num_vars, cfg.domain);
        let data = Dataset::from_raw(raw, cfg.num_vars, cfg.domain);
        let ll = PlanExecutor::new(&plan).eval_batch(&query, &data)[0];
        prop_assert!((ll.exp() - 1.0).abs() < 1e-9, "total mass {}", ll.exp());
    }

    /// MPE max log-probability under partial evidence.
    #[test]
    fn mpe_query_is_bit_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        let query = Query::mpe(mask(cfg.seed, cfg.num_vars));
        assert_bit_exact(&cfg, batch, &query, true);
    }

    /// One executor answering different queries back-to-back must not
    /// leak scratch state between calls.
    #[test]
    fn executor_reuse_across_queries_stays_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        let spn = spn_core::random_spn(&cfg, "plan-diff").unwrap();
        let raw = raw_rows(cfg.seed ^ 0xD1FF, batch, cfg.num_vars, cfg.domain);
        let data = Dataset::from_raw(raw, cfg.num_vars, cfg.domain);
        let plan = CompiledPlan::compile(&spn);
        let mut ex = PlanExecutor::new(&plan);
        let marginal = Query::marginal(mask(cfg.seed, cfg.num_vars));

        let first = ex.eval_batch(&Query::Complete, &data);
        let _ = ex.eval_batch(&marginal, &data);
        let _ = ex.eval_batch(&Query::mpe(mask(cfg.seed, cfg.num_vars)), &data);
        let again = ex.eval_batch(&Query::Complete, &data);
        for (a, b) in first.iter().zip(&again) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// The runtime's cache hands out the same compiled plan on a repeat
/// request (pointer-identical, not merely equal) and counts it.
#[test]
fn plan_cache_hits_share_the_compiled_plan() {
    let cfg = RandomSpnConfig {
        num_vars: 4,
        domain: 3,
        repetitions: 2,
        max_leaf_region: 2,
        seed: 11,
    };
    let spn = Arc::new(spn_core::random_spn(&cfg, "cache-diff").unwrap());
    let cache = PlanCache::new();

    let (first, hit0) = cache.get_or_compile(&spn);
    let (second, hit1) = cache.get_or_compile(&spn);
    assert!(!hit0, "first request compiles");
    assert!(hit1, "second request hits");
    assert!(Arc::ptr_eq(&first, &second), "hit returns the cached plan");

    let t = cache.telemetry();
    assert_eq!((t.cache_hits, t.cache_misses), (1, 1));
    assert_eq!(t.cached_plans, 1);
}

/// Invalidation evicts exactly the named model and forces a fresh
/// compile on the next request.
#[test]
fn plan_cache_invalidation_forces_recompile() {
    let mk = |seed| {
        let cfg = RandomSpnConfig {
            num_vars: 3,
            domain: 3,
            repetitions: 2,
            max_leaf_region: 2,
            seed,
        };
        Arc::new(spn_core::random_spn(&cfg, "cache-diff").unwrap())
    };
    let (a, b) = (mk(1), mk(2));
    let cache = PlanCache::new();
    let (plan_a, _) = cache.get_or_compile(&a);
    cache.get_or_compile(&b);
    assert_eq!(cache.len(), 2);

    cache.invalidate(&a);
    assert_eq!(cache.len(), 1, "only the invalidated entry is evicted");
    let (plan_a2, hit) = cache.get_or_compile(&a);
    assert!(!hit, "recompiles after invalidation");
    assert!(!Arc::ptr_eq(&plan_a, &plan_a2));
    let (_, b_hit) = cache.get_or_compile(&b);
    assert!(b_hit, "the other model's entry survives");
    assert_eq!(cache.telemetry().invalidations, 1);
}
