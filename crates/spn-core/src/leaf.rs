//! Leaf distributions: univariate densities at the fringe of an SPN.
//!
//! The paper's accelerators target *Mixed SPNs* (Molina et al., AAAI'18),
//! whose leaves are histograms — piecewise-constant densities that map
//! directly to a BRAM lookup in hardware. We also support Gaussian and
//! categorical leaves so the reference implementation covers the classic
//! SPN literature (Fig. 1(a) of the paper shows the Gaussian flavour that
//! histograms approximate).
//!
//! A leaf evaluates to its linear density, as in the paper's datapath:
//! products of hundreds of such densities underflow `f64` quickly, and
//! the oracle and the plan keep them in range with an exponent carried
//! beside each value (`math.rs`), the role the wide exponent of the
//! paper's CFP format plays in hardware. [`Leaf::byte_table`] is the one
//! table both compilers read.

use serde::{Deserialize, Serialize};

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

    /// The smallest nonzero and the largest value [`Leaf::density`] can
    /// return: the extremes a product's range check reads
    /// (`infer::renormalises_each_factor`). A Gaussian's tails pass
    /// through every positive double below its peak.
    pub(crate) fn density_range(&self) -> (f64, f64) {
        let values = match self {
            Leaf::Histogram { densities, .. } => densities,
            Leaf::Categorical { probs } => probs,
            Leaf::Gaussian { mean, .. } => return (f64::from_bits(1), self.density(*mean)),
        };
        // A density's magnitude orders as its bit pattern: two integer
        // folds, with no NaN to order and no serial `minsd` chain.
        let (lo, hi) = values.iter().fold((u64::MAX, 0), |(lo, hi), d| {
            let b = d.abs().to_bits();
            (if b == 0 { lo } else { lo.min(b) }, hi.max(b))
        });
        // A leaf with no mass is 0 everywhere: no factor range at all.
        if hi > 0 {
            (f64::from_bits(lo), f64::from_bits(hi))
        } else {
            (1.0, 1.0)
        }
    }

    /// The leaf's lookup table over a byte-valued variable: entry `v`
    /// is `map(density(v))`, bit for bit, for every `v` in `0..=255`.
    ///
    /// A histogram's breaks are walked once, and `map` runs once per
    /// bucket that holds a byte (plus once for the bytes outside the
    /// support), instead of a bucket search and a `map` per byte. Both
    /// compilers build their tables here: the plan with the linear
    /// density itself, the datapath with the density in its number
    /// format.
    pub fn byte_table(&self, map: impl Fn(f64) -> f64) -> [f64; 256] {
        let Leaf::Histogram { breaks, densities } = self else {
            return std::array::from_fn(|v| map(self.density(v as f64)));
        };
        // Byte `v` is in bucket `i` iff `breaks[i] <= v < breaks[i + 1]`,
        // i.e. `first_byte(breaks[i]) <= v < first_byte(breaks[i + 1])`.
        // Each break is converted once: a bucket's end is the next one's
        // start.
        let mut table = [map(0.0); 256];
        let Some((&first, rest)) = breaks.split_first() else {
            return table;
        };
        let mut start = first_byte(first);
        for (&b, &d) in rest.iter().zip(densities) {
            let end = first_byte(b);
            if start < end {
                table[start..end].fill(map(d));
            }
            start = end;
        }
        table
    }
}

/// The first byte at or above `b`, in `0..=256`: for every `f64`
/// (NaN, ±∞, −0.0 and values past 256 included) this is
/// `b.ceil().clamp(0.0, 256.0) as usize`, in integer ops and one
/// compare instead of a libm call. The saturating cast truncates
/// toward zero (NaN and negatives to 0), a fractional part above the
/// truncated value adds the one, and the clamps keep a huge `b` from
/// overflowing.
#[inline]
fn first_byte(b: f64) -> usize {
    let t = (b as u32).min(256);
    (t + u32::from(b > f64::from(t))).min(256) as usize
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

    /// The extremes a product's range check reads: over the nonzero
    /// values only, and a Gaussian's down to the smallest subnormal.
    #[test]
    fn density_range_spans_the_nonzero_values() {
        let h = Leaf::byte_histogram(&[0.5, 0.0, 0.125, 0.375]);
        assert_eq!(h.density_range(), (0.125, 0.5));
        let c = Leaf::Categorical {
            probs: vec![0.0, 0.2, 0.8],
        };
        assert_eq!(c.density_range(), (0.2, 0.8));
        let g = Leaf::Gaussian {
            mean: 2.0,
            std: 1.0,
        };
        assert_eq!(g.density_range(), (5e-324, g.density(2.0)));
    }

    /// `byte_table` against the per-byte oracle, bit for bit: the linear
    /// table against `density(v)`, at every byte.
    fn assert_byte_tables_match_the_oracle(leaf: &Leaf, what: &str) {
        let linear = leaf.byte_table(|d| d);
        for v in 0..=255u8 {
            let want = leaf.density(f64::from(v));
            assert_eq!(
                linear[v as usize].to_bits(),
                want.to_bits(),
                "{what}: byte {v}"
            );
        }
    }

    #[test]
    fn byte_tables_are_bit_identical_to_the_oracle() {
        use crate::graph::Node;
        use crate::nips::ALL_BENCHMARKS;
        for bench in ALL_BENCHMARKS {
            for (i, node) in bench.build_spn().nodes().iter().enumerate() {
                if let Node::Leaf { dist, .. } = node {
                    assert_byte_tables_match_the_oracle(dist, &format!("{bench:?} node {i}"));
                }
            }
        }
        let hist = |breaks: &[f64], densities: &[f64]| Leaf::Histogram {
            breaks: breaks.to_vec(),
            densities: densities.to_vec(),
        };
        let cases = [
            (
                "breaks from above 0",
                hist(&[3.0, 5.0, 9.0], &[0.25, 0.125]),
            ),
            (
                "non-integer breaks",
                hist(&[0.5, 1.5, 2.25, 7.75], &[0.3, 0.2, 0.1]),
            ),
            (
                "last break below 256",
                hist(&[0.0, 100.0, 200.5], &[0.007, 0.003]),
            ),
            (
                "last break past 256",
                hist(&[10.0, 250.0, 300.0], &[0.003, 0.006]),
            ),
            ("one bin", hist(&[0.0, 256.0], &[1.0 / 256.0])),
            (
                "breaks on integers",
                hist(&[1.0, 2.0, 3.0, 4.0], &[0.5, 0.25, 0.25]),
            ),
            (
                "a bin no byte falls in",
                hist(&[1.1, 1.3, 1.9, 4.0], &[0.5, 0.25, 0.4]),
            ),
            ("breaks below 0", hist(&[-3.5, -1.0, 2.0], &[0.2, 0.1])),
            ("a zero bin", hist(&[0.0, 1.0, 2.0, 3.0], &[0.5, 0.0, 0.5])),
            (
                "categorical",
                Leaf::Categorical {
                    probs: vec![0.2, 0.3, 0.5],
                },
            ),
            (
                "categorical past 256",
                Leaf::Categorical {
                    probs: vec![1.0 / 300.0; 300],
                },
            ),
            (
                "gaussian",
                Leaf::Gaussian {
                    mean: 40.0,
                    std: 9.0,
                },
            ),
        ];
        for (what, leaf) in &cases {
            assert_byte_tables_match_the_oracle(leaf, what);
        }
    }

    /// `first_byte` against the clamped ceiling it replaces, over the
    /// special values, every integer around the byte range with its
    /// neighbours and halves, and random bit patterns and breaks.
    #[test]
    fn first_byte_is_the_clamped_ceiling() {
        let reference = |b: f64| b.ceil().clamp(0.0, 256.0) as usize;
        let mut values = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            f64::MAX,
            f64::MIN,
            2f64.powi(32),
            2f64.powi(52),
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
            -2f64.powi(64),
            1e300,
        ];
        for i in -3..=260 {
            let x = f64::from(i);
            let bits = x.to_bits();
            values.extend([x, x + 0.5, x - 0.5]);
            if x != 0.0 {
                values.extend([f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
            }
        }
        let mut rng = sim_core::SplitMix64::new(45);
        for _ in 0..100_000 {
            values.push(f64::from_bits(rng.next_u64()));
            values.push(rng.next_f64() * 600.0 - 200.0);
        }
        for b in values {
            assert_eq!(
                first_byte(b),
                reference(b),
                "break {b:e} ({:#018x})",
                b.to_bits()
            );
        }
    }

    /// `byte_table` against the table its `ceil`-based predecessor
    /// built, bit for bit, on random histograms the oracle test's
    /// well-formed ones never reach: zero and one break, fractional,
    /// negative, past-256 and non-finite breaks, breaks out of order,
    /// and one density too many or too few.
    #[test]
    fn byte_tables_match_the_ceiling_reference_on_odd_histograms() {
        let reference = |breaks: &[f64], densities: &[f64]| {
            let first_byte = |b: f64| b.ceil().clamp(0.0, 256.0) as usize;
            let mut table = [0.0; 256];
            for (w, &d) in breaks.windows(2).zip(densities) {
                let bytes = first_byte(w[0])..first_byte(w[1]);
                if !bytes.is_empty() {
                    table[bytes].fill(d);
                }
            }
            table
        };
        let mut rng = sim_core::SplitMix64::new(4545);
        for case in 0..5_000 {
            let n = rng.next_below(12) as usize;
            let mut breaks: Vec<f64> = (0..n)
                .map(|_| match rng.next_below(8) {
                    0 => -rng.next_f64() * 50.0,
                    1 => 256.0 + rng.next_f64() * 100.0,
                    2 => rng.next_below(258) as f64,
                    3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]
                        [rng.next_below(4) as usize],
                    _ => rng.next_f64() * 256.0,
                })
                .collect();
            if rng.next_below(2) == 0 {
                breaks.sort_by(f64::total_cmp);
            }
            let buckets = (n + rng.next_below(3) as usize).saturating_sub(2);
            let densities: Vec<f64> = (0..buckets).map(|_| rng.next_f64()).collect();
            let want = reference(&breaks, &densities);
            let leaf = Leaf::Histogram { breaks, densities };
            let got = leaf.byte_table(|d| d);
            for (v, (got, want)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case}, byte {v}: {leaf:?}"
                );
            }
        }
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
