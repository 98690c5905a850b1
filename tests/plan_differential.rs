//! Differential suite: the compiled plan executor must be **bit-exact**
//! against the tree-walking [`Evaluator`] oracle — not merely close.
//! Both paths are pure f64 pipelines over the same arena, so any
//! divergence (a reordered reduction, a fused step, a wrong LUT entry)
//! shows up as a `to_bits` mismatch here before it can corrupt the
//! runtime's host fast path.
//!
//! Coverage axes: random SPN structures, batch sizes straddling the
//! executor's lane width (empty, one row, one short of a chunk, a
//! whole chunk, one past it, chunks plus odd remainders), and all
//! three [`Query`] shapes — including marginals whose unobserved slots
//! hold NaN on the oracle side and arbitrary bytes on the plan side,
//! and fully-summed-out evidence. Beside the random small networks:
//! out-of-support bytes (`−inf` lanes next to finite ones in one
//! chunk), the five benchmark networks at full size (256-entry tables,
//! fan-in-4 sums over fan-in-5 products), the four frozen learned
//! models (deep, unbalanced, data-shaped), the in-place leaf rule's and
//! the sum-group rule's edge cases, and the raw-byte entry across a
//! chunk boundary.

use proptest::prelude::*;
use spn_core::plan::LANES;
use spn_core::{
    CompiledPlan, Dataset, Evaluator, Leaf, NodeId, PlanExecutor, Query, RandomSpnConfig, Spn,
    SpnBuilder, ALL_BENCHMARKS,
};
use spn_runtime::PlanCache;
use std::sync::Arc;
use system_tests::{learned_model, small_spn_configs, LEARNED_MODELS};

/// Batch sizes around the executor's lane width: nothing, the
/// single-row path, one short of a chunk, exactly one, one past it,
/// and whole chunks plus leftover rows.
const BATCHES: [usize; 7] = [
    0,
    1,
    LANES - 1,
    LANES,
    LANES + 1,
    2 * LANES + 3,
    4 * LANES + 1,
];

/// Strategy: a random-but-valid SPN configuration plus one of
/// [`BATCHES`].
fn config_and_batch() -> impl Strategy<Value = (RandomSpnConfig, usize)> {
    let batch = (0..BATCHES.len()).prop_map(|i| BATCHES[i]);
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
            ((x >> 33) as u8 as usize % domain) as u8
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
    let data = Dataset::from_raw(raw, cfg.num_vars, cfg.domain);
    assert_rows_bit_exact(&spn, &data, query, oracle_nan_unobserved);
}

/// Every row of `data`, plan against oracle, `to_bits`.
fn assert_rows_bit_exact(spn: &Spn, data: &Dataset, query: &Query, oracle_nan_unobserved: bool) {
    let plan = CompiledPlan::compile(spn);
    let got = PlanExecutor::new(&plan).eval_batch(query, data);
    assert_eq!(got.len(), data.num_samples(), "one result per row");

    let mut ev = Evaluator::new(spn);
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
            "{} row {i}: plan {} vs oracle {} for {} query",
            spn.name,
            got[i],
            want,
            query.label()
        );
    }
}

/// Rows over the whole byte range: about one byte in eight is drawn
/// from 0..=255 instead of the leaves' `domain`, so roughly half the
/// rows of a small network hit a value outside some leaf's support.
fn rows_with_out_of_support_bytes(seed: u64, n: usize, nf: usize, domain: usize) -> Dataset {
    let wild = raw_rows(seed ^ 0xBAD, n, nf, 256);
    let pick = raw_rows(seed ^ 0x5E1, n, nf, 8);
    let mut raw = raw_rows(seed, n, nf, domain);
    for ((b, &w), &p) in raw.iter_mut().zip(&wild).zip(&pick) {
        if p == 0 {
            *b = w;
        }
    }
    Dataset::from_raw(raw, nf, 256)
}

/// The three query shapes under one mask.
fn query_shapes(seed: u64, num_vars: usize) -> [Query; 3] {
    [
        Query::Complete,
        Query::marginal(mask(seed, num_vars)),
        Query::mpe(mask(seed, num_vars)),
    ]
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

    /// Bytes outside the leaves' support: a chunk then holds `−inf`
    /// lanes beside finite ones at every level, and the per-lane
    /// `m == −inf` select must not leak the `NaN` of `−inf − −inf`
    /// into a neighbour (or into its own lane).
    #[test]
    fn out_of_support_bytes_are_bit_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        let spn = spn_core::random_spn(&cfg, "plan-diff").unwrap();
        let data = rows_with_out_of_support_bytes(cfg.seed, batch, cfg.num_vars, cfg.domain);
        for query in query_shapes(cfg.seed, cfg.num_vars) {
            assert_rows_bit_exact(&spn, &data, &query, false);
        }
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

/// A row no leaf supports is `−inf` at every op; it sits in the middle
/// of a chunk of ordinary rows and again alone on the single-row path.
#[test]
fn all_neg_inf_row_stays_neg_inf_beside_finite_rows() {
    let cfg = RandomSpnConfig {
        num_vars: 5,
        domain: 4,
        repetitions: 3,
        max_leaf_region: 2,
        seed: 77,
    };
    let spn = spn_core::random_spn(&cfg, "plan-diff").unwrap();
    let n = LANES + 1;
    let mut raw = raw_rows(3, n, cfg.num_vars, cfg.domain);
    for dead in [LANES / 2, n - 1] {
        raw[dead * cfg.num_vars..][..cfg.num_vars].fill(255);
    }
    let data = Dataset::from_raw(raw, cfg.num_vars, 256);
    let plan = CompiledPlan::compile(&spn);
    let got = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
    for (i, ll) in got.iter().enumerate() {
        let dead = i == LANES / 2 || i == n - 1;
        assert_eq!(*ll == f64::NEG_INFINITY, dead, "row {i}: {ll}");
        assert!(dead || ll.is_finite(), "row {i}: {ll}");
    }
    for query in query_shapes(cfg.seed, cfg.num_vars) {
        assert_rows_bit_exact(&spn, &data, &query, false);
    }
}

/// A sum whose terms disagree on support: for value 1 the first leaf
/// is finite and the second `−inf` *within one lane*, so the term's
/// `exp(−inf − m)` must contribute exactly 0 as it does in the oracle.
#[test]
fn sum_terms_with_different_support_are_bit_exact() {
    let mut b = SpnBuilder::new(1);
    let wide = b.leaf(0, Leaf::byte_histogram(&[0.25, 0.25, 0.5]));
    let narrow = b.leaf(0, Leaf::byte_histogram(&[1.0]));
    let dead = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
    let s = b.sum(vec![(0.2, narrow), (0.5, wide), (0.0, dead), (0.3, narrow)]);
    let spn = b.finish(s, "mixed-support").unwrap();
    let raw: Vec<u8> = (0..2 * LANES + 3).map(|i| (i % 5) as u8).collect();
    let data = Dataset::from_raw(raw, 1, 256);
    for query in query_shapes(1, 1) {
        assert_rows_bit_exact(&spn, &data, &query, false);
    }
}

/// The in-place leaf rule's edge cases in one hand-built DAG, under all
/// three query shapes and both halves of the variables observed,
/// `to_bits` against the oracle: a leaf shared by two products, leaves
/// that are direct sum terms, a leaf read by both a product and a sum,
/// and a network whose root is a leaf.
#[test]
fn in_place_leaf_edge_cases_are_bit_exact() {
    let h = Leaf::byte_histogram;
    let mut b = SpnBuilder::new(3);
    let shared = b.leaf(0, h(&[0.2, 0.5, 0.3]));
    let lone = b.leaf(1, h(&[0.6, 0.4]));
    let other = b.leaf(1, h(&[0.1, 0.9]));
    let p1 = b.product(vec![shared, lone]);
    let p2 = b.product(vec![other, shared]);
    let s01 = b.sum(vec![(0.35, p1), (0.65, p2)]);
    let term_and_factor = b.leaf(2, h(&[0.5, 0.25, 0.25]));
    let term_only = b.leaf(2, h(&[0.1, 0.1, 0.8]));
    let s2 = b.sum(vec![(0.7, term_and_factor), (0.3, term_only)]);
    let left = b.product(vec![s01, term_and_factor]);
    let right = b.product(vec![s2, s01]);
    let root = b.sum(vec![(0.45, left), (0.55, right)]);
    let spn = b.finish(root, "in-place-edges").unwrap();

    let mut b = SpnBuilder::new(3);
    let only = b.leaf(1, h(&[0.6, 0.4]));
    let leaf_root = b.finish(only, "leaf-root").unwrap();

    let data = rows_with_out_of_support_bytes(13, 2 * LANES + 5, 3, 3);
    for query in [0b101, 0b010].into_iter().flat_map(|m| query_shapes(m, 3)) {
        assert_rows_bit_exact(&spn, &data, &query, false);
        assert_rows_bit_exact(&leaf_root, &data, &query, false);
    }
}

/// The sum-group rule's edge cases in one hand-built DAG, under all
/// three query shapes and three masks, `to_bits` against the oracle: a
/// three-member group; right after it, a sum over the same children in
/// another order (not a member); a sum followed by one over the same
/// children with a zero weight (different kept lists: not grouped),
/// which is grouped with a sum over its kept children; and a byte
/// outside `narrow`'s support, which drives that group's lane to `−inf`
/// beside finite lanes. The network is rooted in turn at the trio's
/// middle member, that group's last member, a sum over the same
/// children as the root, and the root.
#[test]
fn sum_group_edge_cases_are_bit_exact() {
    /// The network rooted at the `pick`-th of the trio's middle member,
    /// the narrow pair, the root's sibling and the root.
    fn network(pick: usize) -> Spn {
        let h = Leaf::byte_histogram;
        let mut b = SpnBuilder::new(2);
        let wide = b.leaf(0, h(&[0.2, 0.5, 0.3]));
        let narrow = b.leaf(0, h(&[0.6, 0.4]));
        let x = b.leaf(1, h(&[0.5, 0.5]));
        let y = b.leaf(1, h(&[0.1, 0.3, 0.6]));
        let products = [(wide, x), (wide, y), (narrow, x), (narrow, y)];
        let [p0, p1, p2, p3] = products.map(|(a, c)| b.product(vec![a, c]));
        let mix = |b: &mut SpnBuilder, w: &[f64], children: &[NodeId]| {
            b.sum(w.iter().copied().zip(children.iter().copied()).collect())
        };
        let trio = [[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], [0.25; 4]]
            .map(|w| mix(&mut b, &w, &[p0, p1, p2, p3]));
        let swapped = mix(&mut b, &[0.1, 0.2, 0.3, 0.4], &[p3, p2, p1, p0]);
        let full = mix(&mut b, &[0.5, 0.3, 0.2], &[p2, p3, p0]);
        let zeroed = mix(&mut b, &[0.6, 0.4, 0.0], &[p2, p3, p0]);
        let narrow_pair = mix(&mut b, &[0.1, 0.9], &[p2, p3]);
        let tops = [
            trio[0],
            trio[1],
            trio[2],
            swapped,
            full,
            zeroed,
            narrow_pair,
        ];
        let sibling = mix(&mut b, &[0.2, 0.1, 0.1, 0.2, 0.1, 0.2, 0.1], &tops);
        let root = mix(&mut b, &[0.1, 0.15, 0.15, 0.1, 0.2, 0.1, 0.2], &tops);
        let nodes = [trio[1], narrow_pair, sibling, root];
        b.finish_unchecked(nodes[pick], "sum-groups")
    }
    let networks: Vec<Spn> = (0..4).map(network).collect();
    let data = rows_with_out_of_support_bytes(21, LANES + 16 + 3, 2, 3);
    for query in [0b01, 0b10, 0b11]
        .into_iter()
        .flat_map(|m| query_shapes(m, 2))
    {
        for spn in &networks {
            assert_rows_bit_exact(spn, &data, &query, false);
        }
    }
    // The narrow pair's first chunk holds `−inf` lanes beside finite ones.
    let plan = CompiledPlan::compile(&networks[1]);
    let got = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &data);
    let pair = &got[..LANES];
    assert!(pair.contains(&f64::NEG_INFINITY), "no −inf lane");
    assert!(pair.iter().any(|v| v.is_finite()), "no finite lane");
}

/// The five benchmark networks at full size — 256-entry tables,
/// fan-in-4 sums over fan-in-5 products, hundreds of ops — over a batch
/// that ends in three leftover rows, for every query shape.
#[test]
fn nips_benchmarks_are_bit_exact_for_every_query_shape() {
    for bench in ALL_BENCHMARKS {
        let spn = bench.build_spn();
        let data = bench.dataset(4099, 0xD1FF);
        for query in query_shapes(0xA5A5_5A5A_F00D_BEEF, bench.num_vars()) {
            assert_rows_bit_exact(&spn, &data, &query, false);
        }
    }
}

/// The frozen learned models (`tests/models/`): data-shaped, deeper and
/// less balanced than what `random_spn` builds (`learned` is depth 11
/// with 50 leaves), over in-domain rows and rows with out-of-support
/// bytes, for every query shape.
#[test]
fn learned_models_are_bit_exact_for_every_query_shape() {
    for name in LEARNED_MODELS {
        let spn = learned_model(name);
        let nf = spn.num_vars();
        let data = [
            Dataset::from_raw(raw_rows(0x1EA2, 4 * LANES + 1, nf, 16), nf, 16),
            rows_with_out_of_support_bytes(0x1EA2, 2 * LANES + 3, nf, 16),
        ];
        for query in query_shapes(0xA5A5_5A5A_F00D_BEEF, nf) {
            for rows in &data {
                assert_rows_bit_exact(&spn, rows, &query, false);
            }
        }
    }
}

/// The tree walk once more, written here with libm's `exp` / `ln`: the
/// one implementation in this suite that shares no arithmetic with
/// `spn-core`'s own two functions.
fn libm_reference(spn: &Spn, query: &Query, row: &[u8]) -> f64 {
    let mut values = vec![0.0f64; spn.len()];
    for (i, node) in spn.nodes().iter().enumerate() {
        values[i] = match node {
            spn_core::Node::Leaf { var, dist } => {
                dist.log_density(query.is_observed(*var).then(|| row[*var] as f64))
            }
            spn_core::Node::Product { children } => {
                children.iter().map(|c| values[c.index()]).sum()
            }
            spn_core::Node::Sum { children, weights } => {
                let terms = || {
                    let positive = children.iter().zip(weights).filter(|(_, &w)| w > 0.0);
                    positive.map(|(c, &w)| (values[c.index()], w))
                };
                let m = terms().map(|(x, _)| x).fold(f64::NEG_INFINITY, f64::max);
                if m == f64::NEG_INFINITY {
                    m
                } else {
                    m + terms().map(|(x, w)| w * (x - m).exp()).sum::<f64>().ln()
                }
            }
        };
    }
    values[spn.root().index()]
}

/// Oracle and plan share one `exp` and one `ln`, so "both sides agree"
/// no longer says either is right. This holds the oracle to the libm
/// reference above: on the five benchmark networks, complete and
/// marginal queries, every log-likelihood within 4 ulp (measured: at
/// most 1, on under 1 % of rows — the max term dominates `ln s`).
#[test]
fn oracle_stays_within_four_ulp_of_a_libm_reference() {
    let (mut rows, mut moved, mut worst) = (0u32, 0u32, 0u64);
    for bench in ALL_BENCHMARKS {
        let spn = bench.build_spn();
        let data = bench.dataset(500, 0x11B);
        let mut ev = Evaluator::new(&spn);
        for query in &query_shapes(0xA5A5_5A5A_F00D_BEEF, bench.num_vars())[..2] {
            for (i, row) in data.rows().enumerate() {
                let ours = ev.eval_bytes(query, row);
                let libm = libm_reference(&spn, query, row);
                assert!(ours.is_finite() && libm.is_finite(), "{} row {i}", spn.name);
                // Both are negative and finite: bit distance is ulp distance.
                let d = ours.to_bits().abs_diff(libm.to_bits());
                assert!(
                    d <= 4,
                    "{} row {i}, {} query: oracle {ours:e} is {d} ulp from libm's {libm:e}",
                    spn.name,
                    query.label()
                );
                rows += 1;
                moved += (d > 0) as u32;
                worst = worst.max(d);
            }
        }
    }
    println!(
        "{moved} of {rows} log-likelihoods differ from the libm reference, by at most {worst} ulp"
    );
}

/// The raw-byte entry on a batch that is not a lane multiple: each
/// row's root against `eval_bytes`, in row order across the chunk
/// boundary and into the leftover rows.
#[test]
fn roots_are_bit_exact_across_a_chunk_boundary() {
    let cfg = RandomSpnConfig {
        num_vars: 4,
        domain: 3,
        repetitions: 2,
        max_leaf_region: 2,
        seed: 5,
    };
    let spn = spn_core::random_spn(&cfg, "plan-diff").unwrap();
    let n = 2 * LANES + 3;
    let raw = raw_rows(9, n, cfg.num_vars, cfg.domain);
    let plan = CompiledPlan::compile(&spn);
    let mut got = Vec::new();
    PlanExecutor::new(&plan).eval_batch_raw(&Query::Complete, &raw, cfg.num_vars, &mut got);
    assert_eq!(got.len(), n);
    let mut ev = Evaluator::new(&spn);
    for (row, v) in raw.chunks(cfg.num_vars).zip(got) {
        let want = ev.eval_bytes(&Query::Complete, row);
        assert_eq!(v.to_bits(), want.to_bits());
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
