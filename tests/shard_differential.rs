//! Differential suite for scope-aware sharding: a model cut into K
//! scope-disjoint shards and recombined at the merge plan must be
//! **bit-exact** against the tree-walking [`Evaluator`] oracle and the
//! single-device [`PlanExecutor`] — not merely close. Both the pure
//! `spn-core` merge (`ShardPlan::eval_*`) and the concurrent runtime
//! path (`ShardedExecutor` over per-shard compiled plans) replay the
//! oracle's exact float-op order, so any divergence (a reordered
//! reduction at the cut, a tap indexed off by one, a spanning node
//! assigned to the wrong side) shows up as a `to_bits` mismatch here.
//!
//! Coverage axes: random SPN structures × random shard counts
//! K ∈ {2, 3, 4} × random cut seeds × batch sizes straddling the lane
//! width × all three [`Query`] shapes — including marginals whose
//! unobserved slots hold NaN on the oracle side, and fully-summed-out
//! evidence where every shard's scope is marginalised away.

use proptest::prelude::*;
use spn_core::{Dataset, Evaluator, Query, RandomSpnConfig, ShardPlan};
use spn_runtime::{PlanCache, ShardedExecutor};
use std::sync::Arc;

/// Strategy: a random-but-valid SPN configuration, a batch size
/// exercising whole lane chunks and scalar remainders, a requested
/// shard count and an arbitrary cut seed.
fn config_batch_and_cut() -> impl Strategy<Value = (RandomSpnConfig, usize, usize, u64)> {
    let cfg = (1usize..=5, 2usize..=4, 1usize..=3, 1usize..=2, any::<u64>()).prop_map(
        |(num_vars, domain, repetitions, max_leaf_region, seed)| RandomSpnConfig {
            num_vars,
            domain,
            repetitions,
            max_leaf_region,
            seed,
        },
    );
    let batch = (0usize..8).prop_map(|i| [1usize, 2, 7, 8, 9, 13, 64, 67][i]);
    (cfg, batch, 2usize..=4, any::<u64>())
}

/// Deterministic pseudo-random feature rows (an LCG keeps proptest's
/// input space small; structure and cut seeds already vary per case).
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

/// Both sharded paths — the pure-core merge and the concurrent
/// runtime executor — against the tree-walk oracle, bit for bit.
fn assert_sharded_bit_exact(
    cfg: &RandomSpnConfig,
    batch: usize,
    k: usize,
    cut_seed: u64,
    query: &Query,
    oracle_nan_unobserved: bool,
) {
    let spn = spn_core::random_spn(cfg, "shard-diff").unwrap();
    let raw = raw_rows(cfg.seed ^ 0x5AAD, batch, cfg.num_vars, cfg.domain);
    let data = Dataset::from_raw(raw, cfg.num_vars, cfg.domain);

    let plan = Arc::new(ShardPlan::cut(&spn, k, cut_seed));
    assert!(plan.num_shards() >= 1 && plan.num_shards() <= k);

    // Runtime path: per-shard compiled plans run concurrently, partials
    // recombined at the merge node.
    let cache = PlanCache::new();
    let ex = ShardedExecutor::new(Arc::clone(&plan), &cache);
    let mut got = Vec::with_capacity(batch);
    ex.eval_batch_raw(query, data.raw(), data.num_features(), &mut got);
    assert_eq!(got.len(), batch);

    let mut ev = Evaluator::new(&spn);
    for (i, row) in data.rows().enumerate() {
        let (want, core) = if oracle_nan_unobserved {
            // The oracle (and the core merge path) see NaN in every
            // unobserved slot while the runtime path sees the raw
            // byte: all three must ignore them entirely.
            let observed = query.observed().expect("masked query");
            let frow: Vec<f64> = row
                .iter()
                .zip(observed)
                .map(|(&b, &obs)| if obs { b as f64 } else { f64::NAN })
                .collect();
            (ev.eval(query, &frow), plan.eval_row(query, &frow))
        } else {
            (ev.eval_bytes(query, row), plan.eval_bytes(query, row))
        };
        assert_eq!(
            core.to_bits(),
            want.to_bits(),
            "row {i}: core merge {core} vs oracle {want}, K={k} seed={cut_seed:#x}, {} query",
            query.label()
        );
        assert_eq!(
            got[i].to_bits(),
            want.to_bits(),
            "row {i}: runtime {} vs oracle {want}, K={k} seed={cut_seed:#x}, {} query",
            got[i],
            query.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Complete-evidence likelihood through a random cut: every row,
    /// bit-for-bit, on both the core merge and the runtime executor.
    #[test]
    fn complete_query_sharded_is_bit_exact(cbk in config_batch_and_cut()) {
        let (cfg, batch, k, cut_seed) = cbk;
        assert_sharded_bit_exact(&cfg, batch, k, cut_seed, &Query::Complete, false);
    }

    /// Marginals with a random mask; the oracle reads NaN in the
    /// summed-out slots to prove no path touches them — including
    /// masks that sum out a shard's *entire* scope.
    #[test]
    fn marginal_query_sharded_is_bit_exact_with_nan_unobserved(cbk in config_batch_and_cut()) {
        let (cfg, batch, k, cut_seed) = cbk;
        let query = Query::marginal(mask(cfg.seed, cfg.num_vars));
        assert_sharded_bit_exact(&cfg, batch, k, cut_seed, &query, true);
    }

    /// Fully-summed-out marginal: every shard's scope is marginalised
    /// away, every partial is 0 in log space, and the merged mass is 1.
    #[test]
    fn fully_summed_out_marginal_sharded_is_bit_exact(cbk in config_batch_and_cut()) {
        let (cfg, batch, k, cut_seed) = cbk;
        let query = Query::marginal(vec![false; cfg.num_vars]);
        assert_sharded_bit_exact(&cfg, batch, k, cut_seed, &query, true);
        let spn = spn_core::random_spn(&cfg, "shard-diff").unwrap();
        let plan = ShardPlan::cut(&spn, k, cut_seed);
        let row = vec![f64::NAN; cfg.num_vars];
        let ll = plan.eval_row(&query, &row);
        prop_assert!((ll.exp() - 1.0).abs() < 1e-9, "total mass {}", ll.exp());
    }

    /// MPE max log-probability under partial evidence survives the cut.
    #[test]
    fn mpe_query_sharded_is_bit_exact(cbk in config_batch_and_cut()) {
        let (cfg, batch, k, cut_seed) = cbk;
        let query = Query::mpe(mask(cfg.seed, cfg.num_vars));
        assert_sharded_bit_exact(&cfg, batch, k, cut_seed, &query, true);
    }

    /// The cut seed shuffles which scopes land in which shard, but can
    /// never change a result: two arbitrary seeds (and every K) agree
    /// bit-for-bit on every row.
    #[test]
    fn cut_seed_never_changes_results(cbk in config_batch_and_cut(), other_seed in any::<u64>()) {
        let (cfg, batch, k, cut_seed) = cbk;
        let spn = spn_core::random_spn(&cfg, "shard-diff").unwrap();
        let raw = raw_rows(cfg.seed ^ 0x5AAD, batch, cfg.num_vars, cfg.domain);
        let data = Dataset::from_raw(raw, cfg.num_vars, cfg.domain);
        let a = ShardPlan::cut(&spn, k, cut_seed);
        let b = ShardPlan::cut(&spn, k, other_seed);
        for row in data.rows() {
            prop_assert_eq!(
                a.eval_bytes(&Query::Complete, row).to_bits(),
                b.eval_bytes(&Query::Complete, row).to_bits()
            );
        }
    }
}

/// One shared plan cache serving cuts at K = 2, 3, 4 of the same
/// model: every executor stays bit-exact against the single-device
/// `PlanExecutor`, and shards with identical subgraphs share cache
/// entries rather than recompiling.
#[test]
fn all_shard_counts_agree_through_a_shared_cache() {
    use spn_core::{CompiledPlan, PlanExecutor};
    let cfg = RandomSpnConfig {
        num_vars: 5,
        domain: 3,
        repetitions: 3,
        max_leaf_region: 2,
        seed: 0xBEEF,
    };
    let spn = spn_core::random_spn(&cfg, "shard-diff").unwrap();
    let raw = raw_rows(99, 67, cfg.num_vars, cfg.domain);
    let data = Dataset::from_raw(raw, cfg.num_vars, cfg.domain);

    let single = CompiledPlan::compile(&spn);
    let want = PlanExecutor::new(&single).eval_batch(&Query::Complete, &data);

    let cache = PlanCache::new();
    for k in 2..=4usize {
        let plan = Arc::new(ShardPlan::cut(&spn, k, 0xD1F7));
        let ex = ShardedExecutor::new(Arc::clone(&plan), &cache);
        let mut got = Vec::new();
        ex.eval_batch_raw(&Query::Complete, data.raw(), data.num_features(), &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "row {i} diverged from the single-device plan at K={k}"
            );
        }
    }
    let t = cache.telemetry();
    assert!(
        t.cached_plans >= 2,
        "per-shard plans land in the shared cache"
    );
}

/// Scaling shape, K = 1 → 4 shards: what a cut can buy is how much
/// smaller the largest per-device model gets, `total_nodes /
/// largest_shard_nodes` — a pure function of the `ShardPlan`, no
/// device and no clock. (That shard threads really overlap is
/// `spn-runtime`'s `sharded::pacing_overlaps_across_shards`.) A cut
/// that stops splitting NIPS10 reads 1.0 at every K and fails.
#[test]
fn largest_shard_shrinks_as_the_shard_count_grows() {
    let spn = spn_core::NipsBenchmark::Nips10.build_spn();
    let series: Vec<(usize, f64)> = (1..=4)
        .map(|k| {
            let plan = ShardPlan::cut(&spn, k, spn_runtime::DEFAULT_SHARD_SEED);
            let largest = plan.shards().iter().map(|s| s.spn.len()).max().unwrap();
            (k, plan.total_nodes() as f64 / largest as f64)
        })
        .collect();
    system_tests::assert_scales("shard model split", &series, 0.625);
}
