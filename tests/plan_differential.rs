//! Differential suite: the compiled plan executor must be **bit-exact**
//! against the tree-walking [`Evaluator`] oracle — not merely close.
//! Both paths are pure f64 pipelines over the same arena, so any
//! divergence (a reordered reduction, a fused step, a wrong LUT entry)
//! shows up as a `to_bits` mismatch here before it can corrupt the
//! runtime's host fast path.
//!
//! Coverage axes: random SPN structures and batch sizes straddling the
//! executor's lane width (empty, one row, one short of a chunk, a
//! whole chunk, one past it, chunks plus odd remainders), all on
//! complete evidence, the one [`Query`]. Beside the random small
//! networks: out-of-support bytes (`−inf` lanes next to finite ones in
//! one chunk), the five benchmark networks at full size (256-entry
//! tables, fan-in-4 sums over fan-in-5 products), the four frozen
//! learned models (deep, unbalanced, data-shaped), the in-place leaf
//! rule's and the sum-group rule's edge cases, the raw-byte entry
//! across a chunk boundary, and the range the carried exponent exists
//! for: 200- and 400-variable networks whose likelihoods a linear
//! double flushes to 0, densities from 1e-300 to 1e300, and subnormal
//! densities.

use proptest::prelude::*;
use spn_core::plan::LANES;
use spn_core::{
    CompiledPlan, Dataset, Evaluator, Leaf, Node, NodeId, PlanExecutor, Query, RandomSpnConfig,
    Spn, SpnBuilder, ALL_BENCHMARKS,
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

fn assert_bit_exact(cfg: &RandomSpnConfig, batch: usize) {
    let spn = spn_core::random_spn(cfg, "plan-diff").unwrap();
    let raw = raw_rows(cfg.seed ^ 0xD1FF, batch, cfg.num_vars, cfg.domain);
    let data = Dataset::from_raw(raw, cfg.num_vars, cfg.domain);
    assert_rows_bit_exact(&spn, &data);
}

/// Every row of `data`, plan against oracle, `to_bits`; returns the
/// plan's log-likelihoods.
fn assert_rows_bit_exact(spn: &Spn, data: &Dataset) -> Vec<f64> {
    let plan = CompiledPlan::compile(spn);
    let got = PlanExecutor::new(&plan).eval_batch(&Query::Complete, data);
    assert_eq!(got.len(), data.num_samples(), "one result per row");

    let mut ev = Evaluator::new(spn);
    for (i, row) in data.rows().enumerate() {
        let want = ev.eval_bytes(&Query::Complete, row);
        assert_eq!(
            got[i].to_bits(),
            want.to_bits(),
            "{} row {i}: plan {} vs oracle {}",
            spn.name,
            got[i],
            want
        );
    }
    got
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Complete-evidence likelihood: every row, bit-for-bit.
    #[test]
    fn complete_query_is_bit_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        assert_bit_exact(&cfg, batch);
    }

    /// Bytes outside the leaves' support: a chunk then holds zero
    /// (`−inf`) lanes beside finite ones at every level, and a sum whose
    /// terms are all zero (largest exponent `−∞`, so `−∞ − −∞` in its
    /// scale) must not leak a NaN into a neighbour or its own lane.
    #[test]
    fn out_of_support_bytes_are_bit_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        let spn = spn_core::random_spn(&cfg, "plan-diff").unwrap();
        let data = rows_with_out_of_support_bytes(cfg.seed, batch, cfg.num_vars, cfg.domain);
        assert_rows_bit_exact(&spn, &data);
    }

    /// One executor running batches of different widths back-to-back
    /// must not leak scratch state between calls.
    #[test]
    fn executor_reuse_across_batches_stays_exact(cb in config_and_batch()) {
        let (cfg, batch) = cb;
        let spn = spn_core::random_spn(&cfg, "plan-diff").unwrap();
        let rows = |seed, n| Dataset::from_raw(raw_rows(seed, n, cfg.num_vars, cfg.domain), cfg.num_vars, cfg.domain);
        let data = rows(cfg.seed ^ 0xD1FF, batch);
        let plan = CompiledPlan::compile(&spn);
        let mut ex = PlanExecutor::new(&plan);

        let first = ex.eval_batch(&Query::Complete, &data);
        let _ = ex.eval_batch(&Query::Complete, &rows(cfg.seed, 2 * LANES + 17));
        let _ = ex.eval_batch(&Query::Complete, &rows(cfg.seed ^ 1, 1));
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
    assert_rows_bit_exact(&spn, &data);
}

/// A sum whose terms disagree on support: for value 1 the first leaf
/// is finite and the second zero *within one lane*, so the zero term's
/// `(0, −∞)` must contribute exactly 0 as it does in the oracle.
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
    assert_rows_bit_exact(&spn, &data);
}

/// The in-place leaf rule's edge cases in one hand-built DAG, `to_bits`
/// against the oracle: a leaf shared by two products (read in place by
/// both), leaves that are direct sum terms, a leaf read by both a
/// product and a sum, and a network whose root is a leaf.
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
    assert_rows_bit_exact(&spn, &data);
    assert_rows_bit_exact(&leaf_root, &data);
}

/// The sum-group rule's edge cases in one hand-built DAG, `to_bits`
/// against the oracle: a three-member group; right after it, a sum over the same children in
/// another order (not a member); a sum followed by one over the same
/// children with a zero weight (different kept lists: not grouped),
/// which is grouped with a sum over its kept children; and a byte
/// outside `narrow`'s support, which drives that group's lane to zero
/// (`−inf`) beside finite lanes. The network is rooted in turn at the trio's
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
    for spn in &networks {
        assert_rows_bit_exact(spn, &data);
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
/// that ends in three leftover rows, on complete evidence, the one
/// query shape.
#[test]
fn nips_benchmarks_are_bit_exact_for_every_query_shape() {
    for bench in ALL_BENCHMARKS {
        let spn = bench.build_spn();
        let data = bench.dataset(4099, 0xD1FF);
        assert_rows_bit_exact(&spn, &data);
    }
}

/// The frozen learned models (`tests/models/`): data-shaped, deeper and
/// less balanced than what `random_spn` builds (`learned` is depth 11
/// with 50 leaves), over in-domain rows and rows with out-of-support
/// bytes, on complete evidence, the one query shape.
#[test]
fn learned_models_are_bit_exact_for_every_query_shape() {
    for name in LEARNED_MODELS {
        let spn = learned_model(name);
        let nf = spn.num_vars();
        let data = [
            Dataset::from_raw(raw_rows(0x1EA2, 4 * LANES + 1, nf, 16), nf, 16),
            rows_with_out_of_support_bytes(0x1EA2, 2 * LANES + 3, nf, 16),
        ];
        for rows in &data {
            assert_rows_bit_exact(&spn, rows);
        }
    }
}

/// The log-domain tree walk, written here with libm's `exp` / `ln`: the
/// one implementation in this suite that shares no arithmetic with
/// `spn-core`'s carried exponent. Built once per network: every leaf's
/// `ln` density table.
struct LibmReference<'a> {
    spn: &'a Spn,
    log_tables: Vec<Option<[f64; 256]>>,
}

impl<'a> LibmReference<'a> {
    fn new(spn: &'a Spn) -> Self {
        let log_tables = spn.nodes().iter().map(|node| match node {
            Node::Leaf { dist, .. } => Some(dist.byte_table(f64::ln)),
            _ => None,
        });
        LibmReference {
            spn,
            log_tables: log_tables.collect(),
        }
    }

    fn eval(&self, row: &[u8]) -> f64 {
        let mut values = vec![0.0f64; self.spn.len()];
        for (i, node) in self.spn.nodes().iter().enumerate() {
            values[i] = match node {
                Node::Leaf { var, .. } => self.log_tables[i].as_ref().unwrap()[row[*var] as usize],
                Node::Product { children } => children.iter().map(|c| values[c.index()]).sum(),
                Node::Sum { children, weights } => {
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
        values[self.spn.root().index()]
    }
}

/// Ulp distance between two doubles of the same sign.
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

/// Oracle and plan share one arithmetic, so "both sides agree" says
/// nothing about whether either is right. This holds the oracle to the
/// libm reference above: on the five benchmark networks, every
/// log-likelihood within 4 ulp (measured: at most 2, on 891 of the
/// 2 500 rows — the root's `ln` and the rounding of each product and
/// sum).
#[test]
fn oracle_stays_within_four_ulp_of_a_libm_reference() {
    let (mut rows, mut moved, mut worst) = (0u32, 0u32, 0u64);
    for bench in ALL_BENCHMARKS {
        let spn = bench.build_spn();
        let data = bench.dataset(500, 0x11B);
        let mut ev = Evaluator::new(&spn);
        let libm = LibmReference::new(&spn);
        for (i, row) in data.rows().enumerate() {
            let ours = ev.eval_bytes(&Query::Complete, row);
            let libm = libm.eval(row);
            assert!(ours.is_finite() && libm.is_finite(), "{} row {i}", spn.name);
            // Both are negative and finite: bit distance is ulp distance.
            let d = ulps(ours, libm);
            assert!(
                d <= 4,
                "{} row {i}: oracle {ours:e} is {d} ulp from libm's {libm:e}",
                spn.name
            );
            rows += 1;
            moved += (d > 0) as u32;
            worst = worst.max(d);
        }
    }
    println!(
        "{moved} of {rows} log-likelihoods differ from the libm reference, by at most {worst} ulp"
    );
}

/// Plan against oracle at each width the executor runs — the whole
/// batch (64-, 16-lane and single-row passes) and every row alone —
/// then every log-likelihood against `reference`: finite and within 4
/// ulp where the reference is finite, `−inf` exactly where it is.
/// Returns the worst ulp distance seen.
fn assert_exact_and_close(spn: &Spn, data: &Dataset, reference: impl Fn(&[u8]) -> f64) -> u64 {
    let got = assert_rows_bit_exact(spn, data);
    let plan = CompiledPlan::compile(spn);
    let mut ex = PlanExecutor::new(&plan);
    let mut worst = 0;
    for (i, (row, &ll)) in data.rows().zip(&got).enumerate() {
        let alone = ex.eval_batch(
            &Query::Complete,
            &Dataset::from_raw(row.to_vec(), row.len(), 256),
        );
        assert_eq!(
            alone[0].to_bits(),
            ll.to_bits(),
            "{} row {i} alone",
            spn.name
        );
        let want = reference(row);
        if want == f64::NEG_INFINITY {
            assert_eq!(
                ll,
                f64::NEG_INFINITY,
                "{} row {i}: {ll:e} where the reference has −inf",
                spn.name
            );
            continue;
        }
        assert!(
            want.is_finite() && ll.is_finite(),
            "{} row {i}: {ll:e} vs {want:e}",
            spn.name
        );
        let d = if ll.signum() == want.signum() {
            ulps(ll, want)
        } else {
            u64::MAX
        };
        assert!(
            d <= 4,
            "{} row {i}: {ll:e} is {d} ulp from the reference's {want:e}",
            spn.name
        );
        worst = worst.max(d);
    }
    worst
}

/// A double-double mantissa with an integer exponent, `(hi + lo)·2^e`:
/// about 106 bits, so that a likelihood whose logarithm cancels (a
/// product of 1e300s and 1e-300s that lands near 1) is still known to a
/// fraction of a double's ulp. Error-free transformations only (Knuth's
/// two-sum, Dekker's product): no fused multiply-add, no `spn-core`
/// arithmetic.
#[derive(Clone, Copy)]
struct Wide {
    hi: f64,
    lo: f64,
    e: i64,
}

impl Wide {
    const ZERO: Wide = Wide {
        hi: 0.0,
        lo: 0.0,
        e: 0,
    };

    fn pow2(k: i64) -> f64 {
        f64::from_bits(((k + 1023) as u64) << 52)
    }

    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    fn two_prod(a: f64, b: f64) -> (f64, f64) {
        let split = |x: f64| {
            let c = 134_217_729.0 * x;
            let hi = c - (c - x);
            (hi, x - hi)
        };
        let p = a * b;
        let ((ah, al), (bh, bl)) = (split(a), split(b));
        (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
    }

    /// `hi` moved into `[1, 2)`; zero stays zero.
    fn norm(hi: f64, lo: f64, e: i64) -> Wide {
        if hi == 0.0 {
            return Wide::ZERO;
        }
        let k = ((hi.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        let s = Wide::pow2(-k);
        let (hi, lo) = Wide::two_sum(hi * s, lo * s);
        Wide { hi, lo, e: e + k }
    }

    /// A density or weight; none in these tests is subnormal.
    fn of(x: f64) -> Wide {
        assert!(x == 0.0 || x >= f64::MIN_POSITIVE, "{x:e}");
        Wide::norm(x, 0.0, 0)
    }

    fn mul(self, b: Wide) -> Wide {
        let (p, err) = Wide::two_prod(self.hi, b.hi);
        let err = err + (self.hi * b.lo + self.lo * b.hi);
        let (hi, lo) = Wide::two_sum(p, err);
        Wide::norm(hi, lo, self.e + b.e)
    }

    fn add(self, b: Wide) -> Wide {
        let (big, small) = match (self.hi == 0.0, b.hi == 0.0) {
            (true, _) => return b,
            (_, true) => return self,
            _ if self.e >= b.e => (self, b),
            _ => (b, self),
        };
        // Past 2^-200 the smaller one is below both halves' precision.
        if big.e - small.e > 200 {
            return big;
        }
        let s = Wide::pow2(small.e - big.e);
        let (hi, err) = Wide::two_sum(big.hi, small.hi * s);
        let (hi, lo) = Wide::two_sum(hi, err + big.lo + small.lo * s);
        Wide::norm(hi, lo, big.e)
    }

    /// `ln((hi + lo)·2^e)`, one rounding from the result: `e·ln 2` in
    /// two parts, `ln hi` from libm (on `[1, 2)`, a small absolute
    /// error), `lo/hi` for the low half.
    fn ln(self) -> f64 {
        const LN2_HI: f64 = std::f64::consts::LN_2;
        const LN2_LO: f64 = 2.319_046_813_846_299_6e-17;
        if self.hi == 0.0 {
            return f64::NEG_INFINITY;
        }
        let e = self.e as f64;
        let (p, err) = Wide::two_prod(e, LN2_HI);
        p + (err + e * LN2_LO + (self.hi.ln() + self.lo / self.hi))
    }
}

/// The tree walk in [`Wide`] arithmetic: the likelihood to about 106
/// bits, then one `ln`.
fn wide_reference(spn: &Spn, row: &[u8]) -> f64 {
    let mut values = vec![Wide::ZERO; spn.len()];
    for (i, node) in spn.nodes().iter().enumerate() {
        values[i] = match node {
            Node::Leaf { var, dist } => Wide::of(dist.byte_table(|d| d)[row[*var] as usize]),
            Node::Product { children } => children
                .iter()
                .fold(Wide::of(1.0), |p, c| p.mul(values[c.index()])),
            Node::Sum { children, weights } => {
                children.iter().zip(weights).fold(Wide::ZERO, |s, (c, &w)| {
                    s.add(values[c.index()].mul(Wide::of(w)))
                })
            }
        };
    }
    values[spn.root().index()].ln()
}

/// The range the carried exponent exists for: on 200- and 400-variable
/// networks over 256-value bytes, `ll` falls to about −1155 and −2305,
/// where a linear double is 0. Every row stays finite, bit-exact
/// between plan and oracle at every pass width, and within 4 ulp of
/// the libm reference — and of the wide one, which the extreme-density
/// test below relies on.
#[test]
fn deep_networks_stay_finite_where_a_linear_double_flushes() {
    for num_vars in [200, 400] {
        let cfg = RandomSpnConfig {
            num_vars,
            domain: 256,
            repetitions: 2,
            max_leaf_region: 2,
            seed: num_vars as u64,
        };
        let spn = spn_core::random_spn(&cfg, &format!("random-{num_vars}")).unwrap();
        let data = Dataset::from_raw(
            raw_rows(0xDEE9, LANES + 16 + 1, num_vars, 256),
            num_vars,
            256,
        );
        let libm = LibmReference::new(&spn);
        let worst = assert_exact_and_close(&spn, &data, |row| libm.eval(row));
        assert_exact_and_close(&spn, &data, |row| wide_reference(&spn, row));
        let mut ev = Evaluator::new(&spn);
        let deepest = data
            .rows()
            .map(|r| ev.eval_bytes(&Query::Complete, r))
            .fold(f64::INFINITY, f64::min);
        assert!(
            deepest < -745.2,
            "{num_vars} variables: ll only reaches {deepest}"
        );
        println!("{num_vars} variables: ll down to {deepest:.1}, at most {worst} ulp from libm");
    }
}

/// Histogram leaves whose densities span 1e-300 to 1e300 (a bucket
/// narrower than a byte holds the huge ones), with zero-density bytes,
/// in products of 8 such leaves: a running product leaves the double
/// range after two factors, so these products renormalise after every
/// factor. A mixture over three such products and one over sums of two
/// leaves (leaf terms in a sum) covers both sides of that rule. Every
/// row of 4⁸ byte combinations: finite and within 4 ulp where the
/// reference is, `−inf` exactly where it is, plan ≡ oracle bits.
///
/// The reference is [`wide_reference`], not the libm walk: a product of
/// 1e300s and 1e-300s sums logarithms near ±690 whose own rounding
/// (`ulp(690)` each) dwarfs a result near −56, so the libm walk is
/// itself up to 68 ulp from the likelihood there (printed below).
#[test]
fn densities_from_1e_minus_300_to_1e300_stay_exact_and_accurate() {
    /// Over bytes 0..=3: `huge` at 0 (in a bucket `1/huge` wide, so its
    /// mass is 0.5), `tiny` at 1, the rest of the mass at 2, and
    /// `at3` at 3 (zero for some leaves).
    fn leaf(huge: f64, tiny: f64, at3: f64) -> Leaf {
        let w = 0.5 / huge;
        Leaf::Histogram {
            breaks: vec![0.0, w, 1.0, 2.0, 3.0, 4.0],
            densities: vec![huge, 0.0, tiny, 0.5 - tiny - at3, at3],
        }
    }
    let huge = [1e300, 1e250, 1e200, 1e150, 1e100, 1e50, 1e10, 1.0];
    let tiny = [1e-300, 1e-250, 1e-200, 1e-150, 1e-100, 1e-50, 1e-10, 0.25];
    let mut b = SpnBuilder::new(8);
    let component = |b: &mut SpnBuilder, shift: usize, at3: f64| {
        let leaves: Vec<NodeId> = (0..8)
            .map(|v| {
                b.leaf(
                    v,
                    leaf(huge[(v + shift) % 8], tiny[(v + 3 * shift) % 8], at3),
                )
            })
            .collect();
        b.product(leaves)
    };
    let (p0, p1, p2) = (
        component(&mut b, 0, 0.0),
        component(&mut b, 1, 0.125),
        component(&mut b, 5, 0.0),
    );
    let mixed: Vec<NodeId> = (0..8)
        .map(|v| {
            let a = b.leaf(v, leaf(huge[v], tiny[7 - v], 0.0));
            let c = b.leaf(v, leaf(huge[7 - v], tiny[v], 0.25));
            b.sum(vec![(0.75, a), (0.25, c)])
        })
        .collect();
    let p3 = b.product(mixed);
    let root = b.sum(vec![(0.4, p0), (0.3, p1), (0.2, p2), (0.1, p3)]);
    let spn = b.finish(root, "extreme-densities").unwrap();
    let raw: Vec<u8> = (0..1u32 << 16)
        .flat_map(|r| (0..8).map(move |v| (r >> (2 * v) & 3) as u8))
        .collect();
    let data = Dataset::from_raw(raw, 8, 256);
    let worst = assert_exact_and_close(&spn, &data, |row| wide_reference(&spn, row));
    let libm = LibmReference::new(&spn);
    let libm_worst = data
        .rows()
        .map(|row| (libm.eval(row), wide_reference(&spn, row)))
        .filter(|&(l, w)| w.is_finite() && l.signum() == w.signum())
        .map(|(l, w)| ulps(l, w))
        .max();
    println!(
        "densities 1e-300..1e300: at most {worst} ulp from the wide reference \
         (the libm walk: {libm_worst:?})"
    );
}

/// Subnormal densities, alone and in products and sums beside normal
/// ones: no panic, and plan ≡ oracle bits at every pass width. (A
/// subnormal density carries fewer bits than the format, so no
/// accuracy bound is asked of it.)
#[test]
fn subnormal_densities_keep_plan_and_oracle_bit_exact() {
    let sub = [5e-324, 1e-310, 2.2e-308, 1e-320];
    let leaf = |d: f64| Leaf::Histogram {
        breaks: vec![0.0, 1.0, 2.0, 3.0],
        densities: vec![d, 1.0 - 2.0 * d, d],
    };
    let mut b = SpnBuilder::new(4);
    let products: Vec<NodeId> = (0..3)
        .map(|k| {
            let leaves: Vec<NodeId> = (0..4).map(|v| b.leaf(v, leaf(sub[(v + k) % 4]))).collect();
            b.product(leaves)
        })
        .collect();
    let lone = b.leaf(0, leaf(sub[1]));
    let normal = b.leaf(0, leaf(0.25));
    let with_leaf = b.sum(vec![(0.5, lone), (0.5, normal)]);
    let rest: Vec<NodeId> = (1..4).map(|v| b.leaf(v, leaf(sub[v]))).collect();
    let mut factors = vec![with_leaf];
    factors.extend(rest);
    let p = b.product(factors);
    let root = b.sum(vec![
        (0.25, products[0]),
        (0.25, products[1]),
        (0.25, products[2]),
        (0.25, p),
    ]);
    let spn = b.finish(root, "subnormal").unwrap();
    let raw: Vec<u8> = (0..256u32)
        .flat_map(|r| (0..4).map(move |v| (r >> (2 * v) & 3) as u8))
        .collect();
    let data = Dataset::from_raw(raw, 4, 256);
    let got = assert_rows_bit_exact(&spn, &data);
    let plan = CompiledPlan::compile(&spn);
    for (row, ll) in data.rows().zip(got) {
        let alone = PlanExecutor::new(&plan)
            .eval_batch(&Query::Complete, &Dataset::from_raw(row.to_vec(), 4, 256));
        assert_eq!(alone[0].to_bits(), ll.to_bits(), "row {row:?} alone");
        assert!(!ll.is_nan(), "row {row:?}: NaN");
    }
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
