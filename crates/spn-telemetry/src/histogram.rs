//! Lock-free log-bucketed histogram.
//!
//! [`AtomicHistogram`] is the concurrent front of the bucketing kernel
//! [`sim_core::LogBuckets`] (8 sub-buckets per octave, ≈ 9 % relative
//! resolution; [`sim_core::LogHistogram`] is its plain `&mut` front):
//! every recording is a relaxed atomic increment plus two CAS loops —
//! no mutex on the request hot path, and no `&mut self`, so one shared
//! instance can absorb recordings from every connection thread. Bucket
//! placement, quantiles and the summary are the kernel's, so the two
//! fronts cannot disagree.

use sim_core::{HistogramSummary, LogBuckets};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Fixed-size lock-free histogram over positive values.
///
/// Values at or below `min` land in the underflow bucket (reported as
/// `min` by quantiles); values beyond `max` clamp into the last bucket
/// (quantiles then report the exact maximum seen); non-finite values
/// are ignored. `sum` and `max` are f64s maintained by CAS on their
/// bit patterns, so [`HistogramSummary::mean`] and `max` stay exact.
///
/// A concurrent [`AtomicHistogram::summary`] is not a point-in-time
/// atomic snapshot — counts recorded while it runs may or may not be
/// included — but every recording lands in exactly one bucket, so
/// totals are conserved.
#[derive(Debug)]
pub struct AtomicHistogram {
    geom: LogBuckets,
    buckets: Box<[AtomicU64]>,
    /// Bit pattern of the running f64 sum.
    sum_bits: AtomicU64,
    /// Bit pattern of the largest recorded f64.
    max_bits: AtomicU64,
}

impl AtomicHistogram {
    /// Cover `[min, max]` at ≈ 9 % resolution (8 sub-buckets/octave).
    ///
    /// # Panics
    /// Panics unless `0 < min < max` (both finite).
    pub fn new(min: f64, max: f64) -> Self {
        let geom = LogBuckets::new(min, max);
        AtomicHistogram {
            geom,
            buckets: (0..geom.num_buckets()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Latency-flavoured default: 1 ns .. 10 s, like
    /// [`sim_core::LogHistogram::latency`].
    pub fn latency() -> Self {
        AtomicHistogram::new(1e-9, 10.0)
    }

    /// Record one finite value (unit-agnostic); non-finite values are
    /// ignored.
    pub fn record(&self, x: f64) {
        let Some(idx) = self.geom.index(x) else {
            return;
        };
        self.buckets[idx].fetch_add(1, Relaxed);
        let mut cur = self.sum_bits.load(Relaxed);
        loop {
            let new = (f64::from_bits(cur) + x).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, new, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max_bits.load(Relaxed);
        while x > f64::from_bits(cur) {
            match self
                .max_bits
                .compare_exchange_weak(cur, x.to_bits(), Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record a wall-clock duration in seconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    fn counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Relaxed)).collect()
    }

    /// Six-number summary (all-zero when empty) — the form embedded in
    /// [`crate::TelemetrySnapshot`].
    pub fn summary(&self) -> HistogramSummary {
        let sum = f64::from_bits(self.sum_bits.load(Relaxed));
        let max = f64::from_bits(self.max_bits.load(Relaxed));
        self.geom.summary(&self.counts(), sum, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_brackets_true_values() {
        let h = AtomicHistogram::new(1.0, 1e6);
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.summary().count, 1000);
        let s = h.summary();
        assert!((450.0..600.0).contains(&s.p50), "p50 {}", s.p50);
        assert!((900.0..1150.0).contains(&s.p99), "p99 {}", s.p99);
        assert!((s.mean - 500.5).abs() < 1e-9, "mean is exact: {}", s.mean);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn underflow_overflow_and_nan_behave() {
        let h = AtomicHistogram::new(1.0, 100.0);
        h.record(0.5); // underflow
        h.record(1e9); // clamps into last bucket
        h.record(f64::NAN); // ignored
        h.record(f64::INFINITY); // ignored
        assert_eq!(h.summary().count, 2);
        let s = h.summary();
        assert_eq!(s.p50, 1.0); // underflow reports min
        assert_eq!(s.p99, 1e9); // top bucket reports the exact max
        assert_eq!((s.max, s.mean), (1e9, (0.5 + 1e9) / 2.0));
    }

    #[test]
    fn empty_summary_is_zero() {
        let h = AtomicHistogram::latency();
        assert_eq!(h.summary().count, 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn agrees_with_the_plain_front() {
        // Two fronts, one kernel: identical input gives identical
        // summaries, not merely close ones.
        let atomic = AtomicHistogram::latency();
        let mut plain = sim_core::LogHistogram::latency();
        let mut x = 1.7e-6;
        for _ in 0..5000 {
            atomic.record(x);
            plain.record(x);
            x = (x * 1.003).min(5.0);
        }
        assert_eq!(atomic.summary(), plain.summary());
    }

    #[test]
    #[should_panic(expected = "0 < min < max")]
    fn bad_bounds_panic() {
        AtomicHistogram::new(1.0, 0.5);
    }
}
