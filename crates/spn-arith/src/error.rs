//! Accuracy analysis: how far a reduced-precision format strays from f64.
//!
//! Reproduces the methodology of the paper's arithmetic study \[4\]:
//! evaluate the same computation in the candidate format and in `f64`,
//! and report maximum/mean relative error. Benches use this to justify
//! the CFP configuration chosen for the NIPS accelerators.

/// Accumulated error statistics between a format and the f64 reference.
#[derive(Debug, Clone, Default)]
pub struct ErrorStats {
    count: u64,
    sum_rel: f64,
    max_rel: f64,
    /// Results that were non-zero in f64 but zero in the format
    /// (underflow events — the failure mode LNS avoids).
    pub underflows: u64,
    /// Results where the format saturated while f64 did not.
    pub overflows: u64,
}

impl ErrorStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one (reference, approximate) result pair.
    pub fn record(&mut self, reference: f64, approx: f64) {
        self.count += 1;
        let abs = (approx - reference).abs();
        if reference != 0.0 {
            if approx == 0.0 {
                self.underflows += 1;
            }
            let rel = abs / reference.abs();
            self.sum_rel += rel;
            self.max_rel = self.max_rel.max(rel);
        }
        if approx.is_infinite() || (reference.is_finite() && approx.abs() > reference.abs() * 1e6) {
            self.overflows += 1;
        }
    }

    /// Mean relative error.
    pub fn mean_relative(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_rel / self.count as f64
        }
    }

    /// Maximum relative error.
    pub fn max_relative(&self) -> f64 {
        self.max_rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfp::CfpFormat;
    use crate::format::{F64Format, SpnNumber};
    use crate::lns::LnsFormat;

    /// Evaluate a mixture-of-products expression — the SPN inner loop — in
    /// both arithmetics and record the error. `terms` is a slice of
    /// (weight, factor list) pairs: result = Σ wᵢ · Π fᵢⱼ.
    fn compare_mixture<F: SpnNumber>(
        format: &F,
        terms: &[(f64, Vec<f64>)],
        stats: &mut ErrorStats,
    ) -> (f64, f64) {
        // Reference in f64.
        let reference: f64 = terms
            .iter()
            .map(|(w, fs)| w * fs.iter().product::<f64>())
            .sum();
        // Same dataflow in the candidate format.
        let mut acc = format.zero();
        for (w, fs) in terms {
            let mut prod = format.from_f64(*w);
            for &f in fs {
                prod = format.mul(prod, format.from_f64(f));
            }
            acc = format.add(acc, prod);
        }
        let approx = format.to_f64(acc);
        stats.record(reference, approx);
        (reference, approx)
    }

    #[test]
    fn stats_accumulate() {
        let mut s = ErrorStats::new();
        s.record(1.0, 1.001);
        s.record(2.0, 2.0);
        assert_eq!(s.count, 2);
        assert!((s.max_relative() - 0.001).abs() < 1e-12);
        assert!((s.mean_relative() - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn underflow_detection() {
        let mut s = ErrorStats::new();
        s.record(1e-300, 0.0);
        assert_eq!(s.underflows, 1);
    }

    #[test]
    fn f64_format_has_zero_error() {
        let mut s = ErrorStats::new();
        let terms = vec![(0.5, vec![0.3, 0.2]), (0.5, vec![0.9, 0.8, 0.7])];
        let (r, a) = compare_mixture(&F64Format, &terms, &mut s);
        assert_eq!(r, a);
        assert_eq!(s.max_relative(), 0.0);
    }

    #[test]
    fn cfp_error_is_small_and_bounded() {
        let f = CfpFormat::paper_default();
        let mut s = ErrorStats::new();
        let terms = vec![
            (0.25, vec![0.1, 0.2, 0.3]),
            (0.25, vec![0.9, 0.8]),
            (0.5, vec![0.123, 0.456, 0.789]),
        ];
        compare_mixture(&f, &terms, &mut s);
        assert!(s.max_relative() < 1e-5, "rel {}", s.max_relative());
        assert_eq!(s.underflows, 0);
    }

    #[test]
    fn lns_survives_deep_products_where_cfp_underflows() {
        // 200 factors of 0.01: result 1e-400, below f64 range but not
        // below the LNS range. The CFP result underflows to 0.
        let deep: Vec<f64> = vec![0.01; 200];
        let terms = vec![(1.0, deep)];

        let cfp = CfpFormat::paper_default();
        let mut s_cfp = ErrorStats::new();
        compare_mixture(&cfp, &terms, &mut s_cfp);
        // Reference itself underflows f64 here (1e-400 == 0.0 in f64),
        // so compare format-internal state instead.
        let lns = LnsFormat::paper_default();
        let mut acc = lns.one();
        let p = LnsFormat::from_f64(&lns, 0.01);
        for _ in 0..200 {
            acc = LnsFormat::mul(&lns, acc, p);
        }
        assert!(!acc.zero, "LNS keeps the tiny probability alive");
        // And its log is the exact 200-fold sum.
        assert_eq!(acc.log, 200 * p.log);
    }
}
