//! Log-bucketed sample histograms with percentile queries.
//!
//! Latency distributions in the models span six orders of magnitude
//! (nanosecond HBM grants to millisecond DMA queueing), so buckets grow
//! geometrically: 8 log-linear sub-buckets per octave of `value / min`,
//! ≈ 9 % relative resolution at O(1) memory.
//!
//! [`LogBuckets`] is the one bucketing kernel — index, upper edge, rank
//! walk and the six-number summary — over counts its caller owns. It
//! has two fronts: [`LogHistogram`] here (plain `&mut`, for the
//! single-threaded simulations) and `spn_telemetry::AtomicHistogram`
//! (lock-free, for the serving path). Both therefore share one rule
//! for awkward input: non-finite values are not recorded (JSON cannot
//! carry them and a poisoned sum would corrupt the mean forever),
//! values at or below `min` land in the underflow bucket and report as
//! `min`, values beyond `max` clamp into the top bucket, and no
//! quantile ever exceeds the exact maximum seen.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Compact six-number summary of a distribution: the shape every
/// telemetry snapshot embeds for a histogram. All-zero when the
/// histogram was empty (`count == 0`), so snapshots of idle systems
/// stay deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean (exact — tracked outside the buckets).
    pub mean: f64,
    /// Median, to bucket resolution.
    pub p50: f64,
    /// 95th percentile, to bucket resolution.
    pub p95: f64,
    /// 99th percentile, to bucket resolution.
    pub p99: f64,
    /// Largest recorded value (exact).
    pub max: f64,
}

/// log2(sub-buckets per octave).
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (bucket width factor ≤ 1.125, 2^(1/8) on
/// average).
const SUB: u64 = 1 << SUB_BITS;

/// Bucket geometry over `[min, max]`: bucket 0 is underflow, then
/// 8 log-linear sub-buckets per octave of `x / min`. Holds no
/// counts — fronts pass theirs in.
#[derive(Debug, Clone, Copy)]
pub struct LogBuckets {
    min: f64,
    len: usize,
}

impl LogBuckets {
    /// Cover `[min, max]`.
    ///
    /// # Panics
    /// Panics unless `0 < min < max` (both finite).
    pub fn new(min: f64, max: f64) -> Self {
        assert!(
            min > 0.0 && max > min && max.is_finite(),
            "need 0 < min < max"
        );
        let octaves = (max / min).log2().ceil() as usize + 1;
        LogBuckets {
            min,
            len: 1 + octaves * SUB as usize,
        }
    }

    /// Number of buckets a front must hold counts for.
    pub fn num_buckets(&self) -> usize {
        self.len
    }

    /// Bucket for `x`, or `None` when `x` is not finite and must not
    /// be recorded. The exponent and top mantissa bits of `x / min`
    /// come straight from the IEEE-754 representation
    /// (HdrHistogram-style): branch-light, allocation free.
    pub fn index(&self, x: f64) -> Option<usize> {
        if !x.is_finite() {
            return None;
        }
        let r = x / self.min;
        if r <= 1.0 {
            return Some(0); // underflow
        }
        let bits = r.to_bits();
        let exp = ((bits >> 52) & 0x7ff) - 1023; // r > 1 ⇒ biased exp ≥ 1023
        let frac = (bits >> (52 - SUB_BITS)) & (SUB - 1);
        Some(((1 + exp * SUB + frac) as usize).min(self.len - 1))
    }

    /// Upper edge of bucket `idx` (≥ 1): `min · 2^e · (1 + (f+1)/8)`.
    fn upper_edge(&self, idx: usize) -> f64 {
        let j = (idx - 1) as u64;
        let (exp, frac) = ((j / SUB) as i32, j % SUB);
        self.min * 2f64.powi(exp) * (1.0 + (frac + 1) as f64 / SUB as f64)
    }

    /// Approximate `q`-quantile of `counts`: upper edge of the bucket
    /// holding the q-th sample, clamped to the exact maximum `max`.
    /// `None` when `counts` is all zero.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub(crate) fn quantile(&self, counts: &[u64], max: f64, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let idx = counts.iter().position(|&c| {
            seen += c;
            seen >= rank
        })?;
        Some(match idx {
            0 => self.min, // underflow reports `min`
            // The top bucket holds overflow clamps, whose edge
            // underestimates — report the exact maximum instead.
            i if i == self.len - 1 => max,
            i => self.upper_edge(i).min(max),
        })
    }

    /// Six-number summary of `counts` with running `sum` and exact
    /// `max` (all-zero when empty).
    pub fn summary(&self, counts: &[u64], sum: f64, max: f64) -> HistogramSummary {
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return HistogramSummary::default();
        }
        let q = |q| self.quantile(counts, max, q).unwrap_or(0.0);
        HistogramSummary {
            count,
            mean: sum / count as f64,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max,
        }
    }
}

/// Log-bucketed histogram over positive values; see the module docs
/// for the bucketing rules.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    geom: LogBuckets,
    counts: Vec<u64>,
    sum: f64,
    max_seen: f64,
}

impl LogHistogram {
    /// Cover `[min, max]` at ≈ 9 % resolution.
    ///
    /// # Panics
    /// Panics unless `0 < min < max` (both finite).
    pub fn new(min: f64, max: f64) -> Self {
        let geom = LogBuckets::new(min, max);
        LogHistogram {
            geom,
            counts: vec![0; geom.num_buckets()],
            sum: 0.0,
            max_seen: 0.0,
        }
    }

    /// Latency-flavoured default: 1 ns .. 10 s.
    pub fn latency() -> Self {
        LogHistogram::new(1e-9, 10.0)
    }

    /// Record one finite value (seconds, bytes, whatever —
    /// unit-agnostic); non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        let Some(idx) = self.geom.index(x) else {
            return;
        };
        self.counts[idx] += 1;
        self.sum += x;
        self.max_seen = self.max_seen.max(x);
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum / count as f64)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`), see
    /// `LogBuckets::quantile`. `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.geom.quantile(&self.counts, self.max_seen, q)
    }

    /// Six-number summary (all-zero when empty).
    pub fn summary(&self) -> HistogramSummary {
        self.geom.summary(&self.counts, self.sum, self.max_seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_true_values() {
        let mut h = LogHistogram::new(1.0, 1e6);
        // Uniform ranks 1..=1000.
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((450.0..600.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((900.0..1150.0).contains(&p99), "p99 {p99}");
        let mean = h.mean().unwrap();
        assert!((mean - 500.5).abs() < 1e-9, "mean is exact: {mean}");
        assert_eq!(h.max_seen, 1000.0);
    }

    #[test]
    fn resolution_bounded_by_one_sub_bucket() {
        let mut h = LogHistogram::latency();
        h.record(0.001234);
        h.record(5.0); // keeps the exact-max clamp out of the way
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= 0.001234, "upper edge is above the sample: {p50}");
        assert!(p50 <= 0.001234 * 1.125, "within one sub-bucket: {p50}");
    }

    #[test]
    fn every_value_lies_within_its_bucket_edges() {
        let geom = LogBuckets::new(1.0, 1e6);
        let mut x = 1.0001;
        while x < 1e6 {
            let idx = geom.index(x).unwrap();
            assert!(idx >= 1 && idx < geom.num_buckets() - 1, "{x} -> {idx}");
            assert!(x < geom.upper_edge(idx), "{x} above its bucket's edge");
            let lower = if idx == 1 {
                1.0
            } else {
                geom.upper_edge(idx - 1)
            };
            assert!(x >= lower, "{x} below bucket {idx}'s lower edge {lower}");
            x *= 1.013;
        }
        assert_eq!(geom.index(1.0), Some(0), "min itself is underflow");
        assert_eq!(geom.index(1e12), Some(geom.num_buckets() - 1));
        assert_eq!(geom.index(f64::NAN), None);
    }

    #[test]
    fn underflow_and_overflow_clamp() {
        let mut h = LogHistogram::new(1.0, 100.0);
        h.record(0.5); // underflow
        h.record(1e9); // clamps to last bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25).unwrap(), 1.0); // underflow reports min
        assert_eq!(h.quantile(1.0).unwrap(), 1e9); // top bucket reports the exact max
    }

    /// Regression: `record(NaN)` used to poison the running sum (mean
    /// NaN forever) and land in bucket 0, `record(+∞)` made sum and max
    /// infinite, and quantiles reported a bucket's upper edge even
    /// past the exact maximum, so a summary could carry `p99 > max`.
    #[test]
    fn non_finite_input_is_ignored_and_quantiles_never_exceed_max() {
        let mut h = LogHistogram::latency();
        for _ in 0..100 {
            h.record(0.001234);
        }
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 100, "non-finite values are not recorded");
        let mean = h.mean().unwrap();
        assert!(
            (mean - 0.001234).abs() < 1e-12,
            "mean of the finite samples: {mean}"
        );
        let s = h.summary();
        assert_eq!(s.max, 0.001234);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p99 <= s.max, "p99 {} exceeds max {}", s.p99, s.max);
    }

    #[test]
    fn empty_is_none() {
        let h = LogHistogram::latency();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn durations_record_in_seconds() {
        let mut h = LogHistogram::latency();
        h.record_duration(SimDuration::from_us(100));
        let p50 = h.quantile(0.5).unwrap();
        assert!((5e-5..2e-4).contains(&p50), "{p50}");
    }

    #[test]
    fn summary_matches_queries_and_is_zero_when_empty() {
        let empty = LogHistogram::latency().summary();
        assert_eq!(empty, HistogramSummary::default());
        let mut h = LogHistogram::new(1.0, 1e6);
        for i in 1..=100 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, h.quantile(0.5).unwrap());
        assert_eq!(s.p99, h.quantile(0.99).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_quantile_panics() {
        LogHistogram::latency().quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "0 < min < max")]
    fn bad_bounds_panic() {
        LogHistogram::new(1.0, 0.5);
    }
}
