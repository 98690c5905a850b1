//! Reference inference: the ground truth every accelerator model and
//! baseline is verified against.
//!
//! Inference on a valid SPN is one bottom-up pass: leaves evaluate their
//! distribution at the sample's value, products add log-densities, sums
//! log-sum-exp their weighted children. The arena's topological order
//! makes this a linear scan with a flat value buffer — no recursion and
//! no hashing, which is also exactly the evaluation order the hardware
//! pipeline uses.
//!
//! All query shapes go through one surface: build a [`Query`]
//! (complete / marginal / MPE) and call [`Evaluator::eval`] with a
//! value row, or [`Evaluator::eval_mpe`] when the arg-max assignment is
//! wanted too. The per-sample tree walk here is the *bit-exactness
//! oracle*; the compiled fast path in [`crate::plan`] must reproduce it
//! exactly.

use crate::graph::{Node, NodeId, Spn};
use crate::math;
use crate::query::Query;

/// Numerically stable `log Σ wᵢ·exp(xᵢ)` over `(xᵢ, wᵢ)` terms: log
/// values with linear weights. Terms with `w ≤ 0` are skipped; an empty
/// or all-`−inf` sum is `−inf`.
///
/// This is the one scalar spelling of the sum node — the oracle calls
/// it — and its operation order is the contract the plan's lane-wide passes
/// reproduce: max in term order, `Σ w·exp(x − m)` in term order, then
/// `m + ln s`, on the crate's own `exp` / `ln` (`math.rs`).
#[inline]
pub(crate) fn log_sum_exp_weighted(terms: impl Iterator<Item = (f64, f64)> + Clone) -> f64 {
    let terms = terms.filter(|&(_, w)| w > 0.0);
    let m = terms
        .clone()
        .map(|(x, _)| x)
        .fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = terms.map(|(x, w)| w * math::exp(x - m)).sum();
    m + math::ln(s)
}

/// A reusable evaluation workspace. Allocates one f64 per node once and
/// reuses it across samples — the pattern the perf guide calls a
/// "workhorse collection".
pub struct Evaluator<'a> {
    spn: &'a Spn,
    values: Vec<f64>,
}

impl<'a> Evaluator<'a> {
    /// Build a workspace for `spn`.
    pub fn new(spn: &'a Spn) -> Self {
        Evaluator {
            spn,
            values: vec![0.0; spn.len()],
        }
    }

    /// Answer `query` about one sample `row` (one f64 per variable).
    ///
    /// * [`Query::Complete`] — joint log-likelihood of the row.
    /// * [`Query::Marginal`] — marginal log-likelihood; unobserved
    ///   entries of `row` are never read (they may be NaN).
    /// * [`Query::Mpe`] — the max log-probability over completions of
    ///   the observed evidence (use [`Evaluator::eval_mpe`] for the
    ///   arg-max assignment itself).
    ///
    /// # Panics
    /// Panics if `row` or the query mask does not match
    /// `spn.num_vars()`.
    pub fn eval(&mut self, query: &Query, row: &[f64]) -> f64 {
        self.check_row(query, row.len());
        match query {
            Query::Complete => self.eval_internal(|var| Some(row[var])),
            Query::Marginal { observed } => {
                self.eval_internal(|var| observed[var].then(|| row[var]))
            }
            Query::Mpe { observed } => {
                self.mpe_upward(|var| observed[var].then(|| row[var]), &mut [])
            }
        }
    }

    /// [`Evaluator::eval`] for a byte row (the benchmark input format:
    /// one byte per variable).
    pub fn eval_bytes(&mut self, query: &Query, row: &[u8]) -> f64 {
        self.check_row(query, row.len());
        match query {
            Query::Complete => self.eval_internal(|var| Some(row[var] as f64)),
            Query::Marginal { observed } => {
                self.eval_internal(|var| observed[var].then(|| row[var] as f64))
            }
            Query::Mpe { observed } => {
                self.mpe_upward(|var| observed[var].then(|| row[var] as f64), &mut [])
            }
        }
    }

    /// Most Probable Explanation with traceback: returns the max
    /// log-probability and one value per variable (observed variables
    /// keep their `row` value; the rest get the arg-max branch's leaf
    /// modes).
    ///
    /// # Panics
    /// Panics if `query` is not [`Query::Mpe`], or on arity mismatch.
    pub fn eval_mpe(&mut self, query: &Query, row: &[f64]) -> (f64, Vec<f64>) {
        let observed = match query {
            Query::Mpe { observed } => observed,
            other => panic!(
                "eval_mpe requires Query::Mpe, got a {} query",
                other.label()
            ),
        };
        self.check_row(query, row.len());
        let spn = self.spn;
        let mut best_child: Vec<u32> = vec![0; spn.len()];
        let score = self.mpe_upward(|var| observed[var].then(|| row[var]), &mut best_child);
        // Traceback: walk the induced tree from the root, assigning each
        // leaf's variable.
        let mut assignment: Vec<f64> = row
            .iter()
            .zip(observed)
            .map(|(&v, &obs)| if obs { v } else { f64::NAN })
            .collect();
        let mut stack: Vec<NodeId> = vec![spn.root()];
        while let Some(id) = stack.pop() {
            match spn.node(id) {
                Node::Leaf { var, dist } => {
                    if !observed[*var] {
                        assignment[*var] = mode_value(dist);
                    }
                }
                Node::Product { children } => stack.extend(children.iter().copied()),
                Node::Sum { children, .. } => {
                    stack.push(children[best_child[id.index()] as usize]);
                }
            }
        }
        (score, assignment)
    }

    fn check_row(&self, query: &Query, row_len: usize) {
        assert_eq!(
            row_len,
            self.spn.num_vars(),
            "sample has {} values but the network models {} variables",
            row_len,
            self.spn.num_vars()
        );
        query.check_arity(self.spn.num_vars());
    }

    fn eval_internal(&mut self, value_of: impl Fn(usize) -> Option<f64>) -> f64 {
        for (i, node) in self.spn.nodes().iter().enumerate() {
            self.values[i] = match node {
                Node::Leaf { var, dist } => dist.log_density(value_of(*var)),
                Node::Product { children } => children.iter().map(|c| self.values[c.index()]).sum(),
                Node::Sum { children, weights } => log_sum_exp_weighted(
                    children
                        .iter()
                        .zip(weights)
                        .map(|(c, &w)| (self.values[c.index()], w)),
                ),
            };
        }
        self.values[self.spn.root().index()]
    }

    /// The MPE upward pass: sums become weighted maxes. When
    /// `best_child` is non-empty it records the arg-max branch per sum
    /// node (for traceback); pass `&mut []` when only the score is
    /// needed.
    fn mpe_upward(
        &mut self,
        value_of: impl Fn(usize) -> Option<f64>,
        best_child: &mut [u32],
    ) -> f64 {
        let track = !best_child.is_empty();
        for (i, node) in self.spn.nodes().iter().enumerate() {
            self.values[i] = match node {
                Node::Leaf { var, dist } => match value_of(*var) {
                    Some(v) => dist.log_density(Some(v)),
                    None => mode_log_density(dist),
                },
                Node::Product { children } => children.iter().map(|c| self.values[c.index()]).sum(),
                Node::Sum { children, weights } => {
                    let mut best = f64::NEG_INFINITY;
                    let mut arg = 0u32;
                    for (k, (c, &w)) in children.iter().zip(weights).enumerate() {
                        if w <= 0.0 {
                            continue;
                        }
                        let v = w.ln() + self.values[c.index()];
                        if v > best {
                            best = v;
                            arg = k as u32;
                        }
                    }
                    if track {
                        best_child[i] = arg;
                    }
                    best
                }
            };
        }
        self.values[self.spn.root().index()]
    }
}

/// Log-density of a leaf at its mode.
pub(crate) fn mode_log_density(dist: &crate::leaf::Leaf) -> f64 {
    dist.log_density(Some(mode_value(dist)))
}

/// The value at which the leaf's density is maximal.
pub(crate) fn mode_value(dist: &crate::leaf::Leaf) -> f64 {
    use crate::leaf::Leaf;
    match dist {
        Leaf::Histogram { breaks, densities } => {
            let (idx, _) = densities
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .expect("validated histogram has buckets");
            breaks[idx]
        }
        Leaf::Gaussian { mean, .. } => *mean,
        Leaf::Categorical { probs } => {
            probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .expect("validated categorical has outcomes")
                .0 as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;
    use crate::leaf::Leaf;

    impl Evaluator<'_> {
        /// Linear-domain likelihood, the cross-check of the log-domain
        /// path on small models (it underflows on deep networks).
        fn likelihood_linear(&mut self, sample: &[f64]) -> f64 {
            assert_eq!(sample.len(), self.spn.num_vars());
            for (i, node) in self.spn.nodes().iter().enumerate() {
                self.values[i] = match node {
                    Node::Leaf { var, dist } => dist.density(sample[*var]),
                    Node::Product { children } => {
                        children.iter().map(|c| self.values[c.index()]).product()
                    }
                    Node::Sum { children, weights } => children
                        .iter()
                        .zip(weights)
                        .map(|(c, &w)| w * self.values[c.index()])
                        .sum(),
                };
            }
            self.values[self.spn.root().index()]
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

    #[test]
    fn marginal_sums_out_variables() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        // P(X0=0) = sum over X1 of P(0, x1) = 0.3*0.5 + 0.7*0.9 = 0.78
        let m = ev.eval(&Query::marginal(vec![true, false]), &[0.0, f64::NAN]);
        assert!((m - 0.78f64.ln()).abs() < 1e-12);
        // Marginalizing everything gives probability 1.
        let all = ev.eval(&Query::marginal(vec![false, false]), &[f64::NAN, f64::NAN]);
        assert!(all.abs() < 1e-12);
    }

    #[test]
    fn marginal_equals_explicit_sum() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        let explicit = ev.eval(&Query::Complete, &[1.0, 0.0]).exp()
            + ev.eval(&Query::Complete, &[1.0, 1.0]).exp();
        let marginal = ev
            .eval(&Query::marginal(vec![true, false]), &[1.0, 0.0])
            .exp();
        assert!((explicit - marginal).abs() < 1e-12);
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
    fn mpe_with_full_evidence_is_identity() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        let (score, out) = ev.eval_mpe(&Query::mpe(vec![true, true]), &[1.0, 0.0]);
        assert_eq!(out, vec![1.0, 0.0]);
        // With full evidence the MPE score is the max component's
        // weighted joint: max(0.3*0.5*0.25, 0.7*0.1*0.1) = 0.0375.
        assert!((score.exp() - 0.3 * 0.5 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn mpe_infers_most_probable_branch() {
        let spn = mixture();
        let mut ev = Evaluator::new(&spn);
        // With no evidence the heavier component (0.7, favouring X0=0,
        // X1=1) should win: its max joint is 0.7*0.9*0.9 = 0.567 versus
        // 0.3*0.5*0.75 = 0.1125.
        let q = Query::mpe(vec![false, false]);
        let (score, out) = ev.eval_mpe(&q, &[0.0, 0.0]);
        assert_eq!(out, vec![0.0, 1.0]);
        assert!((score.exp() - 0.567).abs() < 1e-12);
        // Score-only evaluation agrees with the traceback variant.
        assert_eq!(ev.eval(&q, &[0.0, 0.0]).to_bits(), score.to_bits());
    }

    #[test]
    #[should_panic(expected = "requires Query::Mpe")]
    fn eval_mpe_rejects_other_queries() {
        let spn = mixture();
        Evaluator::new(&spn).eval_mpe(&Query::Complete, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "variables")]
    fn wrong_sample_arity_panics() {
        let spn = mixture();
        Evaluator::new(&spn).eval(&Query::Complete, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "variables")]
    fn wrong_mask_arity_panics() {
        let spn = mixture();
        Evaluator::new(&spn).eval(&Query::marginal(vec![true]), &[0.0, 0.0]);
    }
}
