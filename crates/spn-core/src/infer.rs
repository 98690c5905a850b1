//! Reference inference: the ground truth every accelerator model and
//! baseline is verified against.
//!
//! Inference on a valid SPN is one bottom-up pass over linear
//! densities, as in the paper's datapath, with an exponent carried
//! beside each value so that deep networks do not underflow: a value is
//! a pair `(m, e)` meaning `m·2^e` (`math.rs`). Leaves give their
//! density, products multiply mantissas and add exponents, sums scale
//! each term by an exact power of two onto the largest exponent and add
//! the weighted mantissas, and one `ln` at the root gives the
//! log-likelihood. The arena's topological order makes this a linear
//! scan with a flat value buffer — no recursion and no hashing, which
//! is also exactly the evaluation order the hardware pipeline uses.
//!
//! The per-sample tree walk here is the *bit-exactness oracle*; the
//! compiled fast path in [`crate::plan`] performs the same operations in
//! the same order and must reproduce it exactly. The log-domain
//! evaluator it replaced stays in the tests below as the accuracy
//! reference.

use crate::graph::{Node, NodeId, Spn};
use crate::math;
use crate::query::Query;

/// Whether a product over `children` renormalises after every factor
/// rather than once at the end. Each factor is 0 or lies in
/// `[2^lo, 2^hi)`: a renormalised child in `[1, 2)`, a leaf between
/// its density extremes ([`crate::Leaf`]'s `density_range`). Once at
/// the end is exact only while every running product stays a normal
/// double, so this is true as soon as a prefix of the factors could
/// leave `[2^−1022, 2^1023)`. Either way the bits are the same wherever
/// no prefix leaves that range: moving a power of two out of a normal
/// product does not change its rounding.
///
/// The compiled plan and [`Evaluator::new`] both decide here, so the
/// two fold every product alike. (A density at or above `2^1023` can
/// still overflow the renormalised product it enters; a histogram holds
/// one only in a bucket narrower than `2^−1023`.)
pub(crate) fn renormalises_each_factor(spn: &Spn, children: &[NodeId]) -> bool {
    let (mut lo, mut hi) = (0, 0);
    children.iter().any(|c| {
        let (l, h) = match spn.node(*c) {
            Node::Leaf { dist, .. } => {
                let (min, max) = dist.density_range();
                (binade(min), binade(max) + 1)
            }
            _ => (0, 1),
        };
        (lo, hi) = (lo + l, hi + h);
        lo < -1022 || hi > 1023
    })
}

/// `⌊log₂ x⌋` of a finite `x > 0`, subnormals included.
fn binade(x: f64) -> i32 {
    let bits = x.to_bits();
    match (bits >> 52) as i32 {
        0 => -1011 - bits.leading_zeros() as i32,
        biased => biased - 1023,
    }
}

/// A reusable evaluation workspace. Allocates one `(m, e)` pair per node
/// once and reuses it across samples — the pattern the perf guide calls
/// a "workhorse collection".
pub struct Evaluator<'a> {
    spn: &'a Spn,
    /// Each node's value for the current sample: a leaf's density as it
    /// is (`e = 0`), every other node's renormalised.
    values: Vec<(f64, f64)>,
    /// Per node: a product that renormalises after every factor.
    each: Vec<bool>,
}

impl<'a> Evaluator<'a> {
    /// Build a workspace for `spn`.
    pub fn new(spn: &'a Spn) -> Self {
        let each = spn
            .nodes()
            .iter()
            .map(|node| match node {
                Node::Product { children } => renormalises_each_factor(spn, children),
                _ => false,
            })
            .collect();
        Evaluator {
            spn,
            values: vec![(0.0, 0.0); spn.len()],
            each,
        }
    }

    /// The joint log-likelihood of one sample `row` (one f64 per
    /// variable); `−inf` where a leaf has no support.
    ///
    /// # Panics
    /// Panics if `row` does not match `spn.num_vars()`.
    pub fn eval(&mut self, query: &Query, row: &[f64]) -> f64 {
        let Query::Complete = query;
        self.check_row(row.len());
        self.eval_internal(|var| row[var])
    }

    /// [`Evaluator::eval`] for a byte row (the benchmark input format:
    /// one byte per variable).
    pub fn eval_bytes(&mut self, query: &Query, row: &[u8]) -> f64 {
        let Query::Complete = query;
        self.check_row(row.len());
        self.eval_internal(|var| f64::from(row[var]))
    }

    fn check_row(&self, row_len: usize) {
        assert_eq!(
            row_len,
            self.spn.num_vars(),
            "sample has {} values but the network models {} variables",
            row_len,
            self.spn.num_vars()
        );
    }

    /// The one scalar spelling of every op; its operation order is the
    /// contract the plan's lane-wide passes reproduce.
    fn eval_internal(&mut self, value_of: impl Fn(usize) -> f64) -> f64 {
        let values = &mut self.values;
        for (i, node) in self.spn.nodes().iter().enumerate() {
            values[i] = match node {
                // A product multiplies a leaf's density in as it is; a
                // sum or the root renormalises it first.
                Node::Leaf { var, dist } => (dist.density(value_of(*var)), 0.0),
                // From (1, 0), in child order, then renormalised.
                Node::Product { children } => {
                    let (mut m, mut e) = (1.0, 0.0);
                    for c in children {
                        let (cm, ce) = values[c.index()];
                        (m, e) = (m * cm, e + ce);
                        if self.each[i] {
                            (m, e) = math::renormalise(m, e);
                        }
                    }
                    math::renormalise(m, e)
                }
                // Over the `w > 0` terms in term order: the largest
                // exponent, then `Σ w·m·2^(e − top)` from 0, renormalised.
                Node::Sum { children, weights } => {
                    let terms = || {
                        let kept = children.iter().zip(weights).filter(|&(_, &w)| w > 0.0);
                        kept.map(|(c, &w)| {
                            let (m, e) = values[c.index()];
                            (math::renormalise(m, e), w)
                        })
                    };
                    let top = terms().fold(f64::NEG_INFINITY, |top, ((_, e), _)| top.max(e));
                    let s = terms().fold(0.0, |s, ((m, e), w)| s + w * math::scale(m, e - top));
                    math::renormalise(s, top)
                }
            };
        }
        let (m, e) = values[self.spn.root().index()];
        let (m, e) = math::renormalise(m, e);
        math::ln(m, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;
    use crate::leaf::Leaf;

    /// Numerically stable `log Σ wᵢ·exp(xᵢ)` over `(xᵢ, wᵢ)` terms: log
    /// values with linear weights. Terms with `w ≤ 0` are skipped; an
    /// empty or all-`−inf` sum is `−inf`. The log-domain sum the oracle
    /// computed before it carried an exponent: max in term order,
    /// `Σ w·exp(x − m)` in term order, then `m + ln s`.
    fn log_sum_exp_weighted(terms: impl Iterator<Item = (f64, f64)> + Clone) -> f64 {
        let terms = terms.filter(|&(_, w)| w > 0.0);
        let m = terms
            .clone()
            .map(|(x, _)| x)
            .fold(f64::NEG_INFINITY, f64::max);
        if m == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        let s: f64 = terms.map(|(x, w)| w * math::exp(x - m)).sum();
        m + math::ln(s, 0.0)
    }

    impl Evaluator<'_> {
        /// Linear-domain likelihood with no exponent, the cross-check on
        /// small models (it underflows on deep networks).
        fn likelihood_linear(&self, sample: &[f64]) -> f64 {
            let mut values = vec![0.0; self.spn.len()];
            for (i, node) in self.spn.nodes().iter().enumerate() {
                values[i] = match node {
                    Node::Leaf { var, dist } => dist.density(sample[*var]),
                    Node::Product { children } => {
                        children.iter().map(|c| values[c.index()]).product()
                    }
                    Node::Sum { children, weights } => children
                        .iter()
                        .zip(weights)
                        .map(|(c, &w)| w * values[c.index()])
                        .sum(),
                };
            }
            values[self.spn.root().index()]
        }

        /// The log-domain walk: leaves' `ln` density, products adding,
        /// sums through [`log_sum_exp_weighted`] — the accuracy
        /// reference of the carried-exponent oracle.
        fn log_likelihood_reference(&self, sample: &[f64]) -> f64 {
            let mut values = vec![0.0; self.spn.len()];
            for (i, node) in self.spn.nodes().iter().enumerate() {
                values[i] = match node {
                    Node::Leaf { var, dist } => match dist.density(sample[*var]) {
                        d if d > 0.0 => d.ln(),
                        _ => f64::NEG_INFINITY,
                    },
                    Node::Product { children } => children.iter().map(|c| values[c.index()]).sum(),
                    Node::Sum { children, weights } => log_sum_exp_weighted(
                        children
                            .iter()
                            .zip(weights)
                            .map(|(c, &w)| (values[c.index()], w)),
                    ),
                };
            }
            values[self.spn.root().index()]
        }
    }

    /// P(X0, X1) = 0.3 * P1 + 0.7 * P2 with independent byte coins.
    fn mixture() -> Spn {
        let mut b = SpnBuilder::new(2);
        let a0 = b.leaf(0, Leaf::byte_histogram(&[0.5, 0.5]));
        let a1 = b.leaf(1, Leaf::byte_histogram(&[0.25, 0.75]));
        let c0 = b.leaf(0, Leaf::byte_histogram(&[0.9, 0.1]));
        let c1 = b.leaf(1, Leaf::byte_histogram(&[0.1, 0.9]));
        let p1 = b.product(vec![a0, a1]);
        let p2 = b.product(vec![c0, c1]);
        let s = b.sum(vec![(0.3, p1), (0.7, p2)]);
        b.finish(s, "mix").unwrap()
    }

    #[test]
    fn hand_computed_likelihood() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        // P(0,0) = 0.3*0.5*0.25 + 0.7*0.9*0.1 = 0.0375 + 0.063 = 0.1005
        let ll = ev.eval(&Query::Complete, &[0.0, 0.0]);
        assert!((ll - 0.1005f64.ln()).abs() < 1e-12);
        // P(1,1) = 0.3*0.5*0.75 + 0.7*0.1*0.9 = 0.1125 + 0.063 = 0.1755
        let ll = ev.eval(&Query::Complete, &[1.0, 1.0]);
        assert!((ll - 0.1755f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn distribution_normalizes() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        let total: f64 = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
            .iter()
            .map(|s| ev.eval(&Query::Complete, s).exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-12, "total mass {total}");
    }

    #[test]
    fn linear_matches_log_domain() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        for s in [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] {
            let log = ev.eval(&Query::Complete, &s);
            let lin = ev.likelihood_linear(&s);
            assert!((log.exp() - lin).abs() < 1e-12);
        }
    }

    /// The carried exponent against the log-domain walk it replaced, on
    /// the five benchmark networks: every log-likelihood within 4 ulp.
    #[test]
    fn carried_exponent_stays_within_four_ulp_of_the_log_domain() {
        for bench in crate::nips::ALL_BENCHMARKS {
            let spn = bench.build_spn();
            let mut ev = Evaluator::new(&spn);
            for row in bench.dataset(200, 0x10C).rows() {
                let row: Vec<f64> = row.iter().map(|&b| f64::from(b)).collect();
                let (ours, log) = (
                    ev.eval(&Query::Complete, &row),
                    ev.log_likelihood_reference(&row),
                );
                assert!(ours.is_finite(), "{bench:?}: {ours}");
                let d = ours.to_bits().abs_diff(log.to_bits());
                assert!(d <= 4, "{bench:?}: {ours:e} is {d} ulp from {log:e}");
            }
        }
    }

    /// NIPS products are five leaves of densities around 1e-3: one
    /// renormalisation at the end is exact. Eight leaves of 1e300 would
    /// overflow, eight of 1e-300 would leave the normals, and a Gaussian
    /// reaches the subnormals on its own: those renormalise after every
    /// factor. So do enough renormalised children to pass 2^1023.
    #[test]
    fn products_renormalise_each_factor_only_where_the_range_demands() {
        use crate::nips::NipsBenchmark;
        let spn = NipsBenchmark::Nips80.build_spn();
        let each = Evaluator::new(&spn).each;
        assert!(
            !each.iter().any(|&e| e),
            "a NIPS80 product renormalises each factor"
        );

        let product_of = |leaf: Leaf, n: usize| {
            let mut b = SpnBuilder::new(n);
            let leaves: Vec<_> = (0..n).map(|v| b.leaf(v, leaf.clone())).collect();
            let p = b.product(leaves.clone());
            let spn = b.finish_unchecked(p, "p");
            renormalises_each_factor(&spn, &leaves)
        };
        let huge = Leaf::Histogram {
            breaks: vec![0.0, 1e-300, 1.0],
            densities: vec![1e300, 1.0 - 1e-300],
        };
        let tiny = Leaf::byte_histogram(&[1.0 - 1e-300, 1e-300]);
        let gaussian = Leaf::Gaussian {
            mean: 0.0,
            std: 1.0,
        };
        assert!(!product_of(huge.clone(), 1));
        assert!(product_of(huge, 8));
        assert!(!product_of(tiny.clone(), 1));
        assert!(product_of(tiny, 8));
        assert!(product_of(gaussian, 1));
        let mut b = SpnBuilder::new(1);
        let leaf = b.leaf(0, Leaf::byte_histogram(&[1.0]));
        let mut children = vec![leaf];
        for _ in 0..1100 {
            children.push(b.product(vec![leaf]));
        }
        let spn = b.finish_unchecked(children[1], "deep");
        assert!(!renormalises_each_factor(&spn, &children[..1000]));
        assert!(renormalises_each_factor(&spn, &children));
    }

    #[test]
    fn bytes_and_floats_agree() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        assert_eq!(
            ev.eval_bytes(&Query::Complete, &[1, 0]),
            ev.eval(&Query::Complete, &[1.0, 0.0])
        );
    }

    #[test]
    fn out_of_support_is_neg_infinity() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        assert_eq!(ev.eval(&Query::Complete, &[5.0, 0.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_sum_exp_weighted_stability() {
        // Values that would underflow in linear space.
        let xs = [-800.0, -801.0];
        let ws = [0.5, 0.5];
        let r = log_sum_exp_weighted(xs.into_iter().zip(ws));
        assert!(r.is_finite());
        assert!(r < -799.0 && r > -801.0);
        // Degenerate: all weights zero.
        assert_eq!(
            log_sum_exp_weighted([(-1.0, 0.0)].into_iter()),
            f64::NEG_INFINITY
        );
        // Exact small case: log(0.3 e^0 + 0.7 e^0) = log 1.
        let r = log_sum_exp_weighted([(0.0, 0.3), (0.0, 0.7)].into_iter());
        assert!(r.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "variables")]
    fn wrong_sample_arity_panics() {
        let spn = mixture();
        Evaluator::new(&spn).eval(&Query::Complete, &[0.0]);
    }
}
