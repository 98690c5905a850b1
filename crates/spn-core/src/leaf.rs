//! Leaf distributions: univariate densities at the fringe of an SPN.
//!
//! The paper's accelerators target *Mixed SPNs* (Molina et al., AAAI'18),
//! whose leaves are histograms — piecewise-constant densities that map
//! directly to a BRAM lookup in hardware. We also support Gaussian and
//! categorical leaves so the reference implementation covers the classic
//! SPN literature (Fig. 1(a) of the paper shows the Gaussian flavour that
//! histograms approximate).
//!
//! Evaluation happens in log space wherever possible: products of
//! hundreds of probabilities underflow `f64` quickly, which is the very
//! motivation for the paper's LNS arithmetic.

use serde::{Deserialize, Serialize};

/// Value a leaf evaluates to when its variable is marginalized out.
pub(crate) const MARGINALIZED_LOG: f64 = 0.0; // log(1)

/// A univariate leaf distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Leaf {
    /// Piecewise-constant density: `breaks` has one more entry than
    /// `densities`; bucket `i` spans `[breaks[i], breaks[i+1])` with
    /// density `densities[i]`. This is the Mixed-SPN leaf the hardware
    /// implements as a lookup table.
    Histogram {
        /// Ascending bucket boundaries (len = buckets + 1).
        breaks: Vec<f64>,
        /// Per-bucket density values (len = buckets).
        densities: Vec<f64>,
    },
    /// Normal distribution N(mean, std²).
    Gaussian {
        /// Location parameter.
        mean: f64,
        /// Scale parameter (> 0).
        std: f64,
    },
    /// Probability table over `0..k` integer values.
    Categorical {
        /// `probs[v]` is P(X = v); must sum to ~1.
        probs: Vec<f64>,
    },
}

/// Error raised by [`Leaf::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafError(pub String);

impl std::fmt::Display for LeafError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid leaf: {}", self.0)
    }
}
impl std::error::Error for LeafError {}

impl Leaf {
    /// A histogram leaf over integer byte values `0..=max_value` with the
    /// given per-value probabilities (bucket width 1). Convenience for
    /// the bag-of-words benchmarks where features are single bytes.
    pub fn byte_histogram(probs: &[f64]) -> Leaf {
        let breaks = (0..=probs.len()).map(|i| i as f64).collect();
        Leaf::Histogram {
            breaks,
            densities: probs.to_vec(),
        }
    }

    /// Check structural invariants.
    pub fn validate(&self) -> Result<(), LeafError> {
        match self {
            Leaf::Histogram { breaks, densities } => {
                if densities.is_empty() {
                    return Err(LeafError("histogram has no buckets".into()));
                }
                if breaks.len() != densities.len() + 1 {
                    return Err(LeafError(format!(
                        "histogram needs {} breaks for {} buckets, got {}",
                        densities.len() + 1,
                        densities.len(),
                        breaks.len()
                    )));
                }
                if breaks
                    .windows(2)
                    .any(|w| w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater))
                {
                    return Err(LeafError(
                        "histogram breaks must be strictly ascending".into(),
                    ));
                }
                if densities
                    .iter()
                    .any(|&d| d.is_nan() || d < 0.0 || !d.is_finite())
                {
                    return Err(LeafError(
                        "histogram densities must be finite and >= 0".into(),
                    ));
                }
                // Total mass should integrate to ~1.
                let mass: f64 = breaks
                    .windows(2)
                    .zip(densities)
                    .map(|(w, d)| (w[1] - w[0]) * d)
                    .sum();
                if (mass - 1.0).abs() > 1e-6 {
                    return Err(LeafError(format!(
                        "histogram mass {mass} is not ~1 (tolerance 1e-6)"
                    )));
                }
                Ok(())
            }
            Leaf::Gaussian { mean, std } => {
                if !mean.is_finite() {
                    return Err(LeafError("gaussian mean must be finite".into()));
                }
                if std.is_nan() || !std.is_finite() || *std <= 0.0 {
                    return Err(LeafError("gaussian std must be finite and > 0".into()));
                }
                Ok(())
            }
            Leaf::Categorical { probs } => {
                if probs.is_empty() {
                    return Err(LeafError("categorical has no outcomes".into()));
                }
                if probs
                    .iter()
                    .any(|&p| p.is_nan() || p < 0.0 || !p.is_finite())
                {
                    return Err(LeafError(
                        "categorical probs must be finite and >= 0".into(),
                    ));
                }
                let total: f64 = probs.iter().sum();
                if (total - 1.0).abs() > 1e-6 {
                    return Err(LeafError(format!(
                        "categorical probs sum to {total}, expected ~1"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Density (or probability mass) at `x`, in the linear domain.
    /// Out-of-support values evaluate to 0.
    pub(crate) fn density(&self, x: f64) -> f64 {
        match self {
            Leaf::Histogram { breaks, densities } => {
                // Binary search for the bucket containing x.
                if x < breaks[0] || x >= *breaks.last().unwrap() {
                    return 0.0;
                }
                let idx = match breaks.binary_search_by(|b| b.partial_cmp(&x).unwrap()) {
                    Ok(i) => i,      // exactly on a break: bucket i (left-closed)
                    Err(i) => i - 1, // insertion point; bucket to the left
                };
                densities[idx.min(densities.len() - 1)]
            }
            Leaf::Gaussian { mean, std } => {
                let z = (x - mean) / std;
                (-0.5 * z * z).exp() / (std * (2.0 * std::f64::consts::PI).sqrt())
            }
            Leaf::Categorical { probs } => {
                if x < 0.0 || x.fract() != 0.0 {
                    return 0.0;
                }
                probs.get(x as usize).copied().unwrap_or(0.0)
            }
        }
    }

    /// Log-density at `x`; `-inf` outside support. `None` for `x` means
    /// the variable is marginalized out (evaluates to log 1 = 0).
    pub fn log_density(&self, x: Option<f64>) -> f64 {
        match x {
            None => MARGINALIZED_LOG,
            Some(v) => {
                let d = self.density(v);
                if d > 0.0 {
                    d.ln()
                } else {
                    f64::NEG_INFINITY
                }
            }
        }
    }

    /// Fit a byte histogram with Laplace smoothing from integer samples.
    ///
    /// `values` are raw observations; `domain` is the number of distinct
    /// byte values modelled (buckets). Smoothing keeps every bucket's
    /// probability strictly positive, which the log-domain hardware
    /// requires (log 0 is unrepresentable).
    pub(crate) fn fit_byte_histogram(values: &[u8], domain: usize, alpha: f64) -> Leaf {
        assert!(domain > 0, "domain must be positive");
        assert!(alpha > 0.0, "smoothing must be positive to avoid log(0)");
        let mut counts = vec![0u64; domain];
        for &v in values {
            let idx = (v as usize).min(domain - 1);
            counts[idx] += 1;
        }
        let total = values.len() as f64 + alpha * domain as f64;
        let probs: Vec<f64> = counts.iter().map(|&c| (c as f64 + alpha) / total).collect();
        Leaf::byte_histogram(&probs)
    }
}

#[cfg(test)]
impl Leaf {
    /// Number of histogram buckets / categorical outcomes; `None` for
    /// continuous leaves.
    pub(crate) fn table_size(&self) -> Option<usize> {
        match self {
            Leaf::Histogram { densities, .. } => Some(densities.len()),
            Leaf::Categorical { probs } => Some(probs.len()),
            Leaf::Gaussian { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist(buckets: usize) -> Leaf {
        Leaf::byte_histogram(&vec![1.0 / buckets as f64; buckets])
    }

    #[test]
    fn histogram_lookup() {
        let h = Leaf::Histogram {
            breaks: vec![0.0, 1.0, 3.0, 4.0],
            densities: vec![0.5, 0.2, 0.1],
        };
        h.validate().unwrap();
        assert_eq!(h.density(0.0), 0.5);
        assert_eq!(h.density(0.99), 0.5);
        assert_eq!(h.density(1.0), 0.2); // left-closed buckets
        assert_eq!(h.density(2.5), 0.2);
        assert_eq!(h.density(3.5), 0.1);
        assert_eq!(h.density(4.0), 0.0); // right-open overall support
        assert_eq!(h.density(-0.1), 0.0);
        assert_eq!(h.density(100.0), 0.0);
    }

    #[test]
    fn histogram_mass_check() {
        let bad = Leaf::Histogram {
            breaks: vec![0.0, 1.0],
            densities: vec![0.5],
        };
        assert!(bad.validate().is_err());
        let good = uniform_hist(4);
        good.validate().unwrap();
    }

    #[test]
    fn histogram_structure_errors() {
        assert!(Leaf::Histogram {
            breaks: vec![0.0],
            densities: vec![]
        }
        .validate()
        .is_err());
        assert!(Leaf::Histogram {
            breaks: vec![0.0, 0.0, 1.0],
            densities: vec![0.5, 0.5]
        }
        .validate()
        .is_err());
        assert!(Leaf::Histogram {
            breaks: vec![0.0, 1.0, 2.0],
            densities: vec![0.5, f64::NAN]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn gaussian_density_peaks_at_mean() {
        let g = Leaf::Gaussian {
            mean: 2.0,
            std: 1.0,
        };
        g.validate().unwrap();
        let peak = g.density(2.0);
        assert!((peak - 0.3989422804014327).abs() < 1e-12);
        assert!(g.density(1.0) < peak);
        assert!((g.density(1.0) - g.density(3.0)).abs() < 1e-12); // symmetry
    }

    #[test]
    fn gaussian_validation() {
        assert!(Leaf::Gaussian {
            mean: 0.0,
            std: 0.0
        }
        .validate()
        .is_err());
        assert!(Leaf::Gaussian {
            mean: f64::NAN,
            std: 1.0
        }
        .validate()
        .is_err());
        assert!(Leaf::Gaussian {
            mean: 0.0,
            std: -1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn categorical_lookup() {
        let c = Leaf::Categorical {
            probs: vec![0.2, 0.3, 0.5],
        };
        c.validate().unwrap();
        assert_eq!(c.density(0.0), 0.2);
        assert_eq!(c.density(2.0), 0.5);
        assert_eq!(c.density(3.0), 0.0);
        assert_eq!(c.density(1.5), 0.0);
        assert_eq!(c.density(-1.0), 0.0);
    }

    #[test]
    fn categorical_validation() {
        assert!(Leaf::Categorical { probs: vec![] }.validate().is_err());
        assert!(Leaf::Categorical {
            probs: vec![0.4, 0.4]
        }
        .validate()
        .is_err());
    }

    #[test]
    fn log_density_and_marginalization() {
        let h = uniform_hist(4);
        assert!((h.log_density(Some(1.0)) - (0.25f64).ln()).abs() < 1e-12);
        assert_eq!(h.log_density(Some(99.0)), f64::NEG_INFINITY);
        assert_eq!(h.log_density(None), 0.0);
    }

    #[test]
    fn fit_byte_histogram_smoothed() {
        let data = [0u8, 0, 0, 1];
        let h = Leaf::fit_byte_histogram(&data, 4, 1.0);
        h.validate().unwrap();
        // counts [3,1,0,0] + alpha 1 -> [4,2,1,1]/8
        assert!((h.density(0.0) - 0.5).abs() < 1e-12);
        assert!((h.density(1.0) - 0.25).abs() < 1e-12);
        assert!((h.density(2.0) - 0.125).abs() < 1e-12);
        // No zero buckets thanks to smoothing.
        assert!(h.density(3.0) > 0.0);
    }

    #[test]
    fn fit_clamps_out_of_domain_values() {
        let data = [200u8];
        let h = Leaf::fit_byte_histogram(&data, 4, 0.5);
        h.validate().unwrap();
        assert!(h.density(3.0) > h.density(0.0));
    }

    #[test]
    fn table_size() {
        assert_eq!(uniform_hist(7).table_size(), Some(7));
        assert_eq!(
            Leaf::Categorical {
                probs: vec![0.5, 0.5]
            }
            .table_size(),
            Some(2)
        );
        assert_eq!(
            Leaf::Gaussian {
                mean: 0.0,
                std: 1.0
            }
            .table_size(),
            None
        );
    }
}
