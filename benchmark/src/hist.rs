//! Fixed-size latency histogram with buckets at most 1/128 (0.78 %)
//! wide, allocated once during set-up.
//!
//! Not `spn-telemetry`'s histogram: its ~9 % log buckets are wider
//! than the bounds this benchmark has to resolve. Not a growing `Vec`
//! of samples either: that makes peak RSS a function of throughput.

use std::time::Duration;

/// Sub-buckets per power of two.
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Values are clamped below 2^MAX_BITS ns (~18 min).
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as u64 * SUB) as usize;

/// Histogram over nanosecond values.
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos() as u64);
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The value at rank `ceil(q · count)` (nearest-rank quantile), as
    /// the midpoint of its bucket in nanoseconds; `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                let (lo, width) = bucket_bounds(i);
                return Some(lo as f64 + (width - 1) as f64 / 2.0);
            }
        }
        unreachable!("rank {rank} lies within the recorded total {}", self.total)
    }

    /// [`Histogram::quantile_ns`] in microseconds; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q).unwrap_or(0.0) / 1e3
    }
}

/// Values below `SUB` get a bucket each; above, the top `SUB_BITS + 1`
/// significant bits pick the bucket.
fn bucket_of(ns: u64) -> usize {
    let v = ns.min((1u64 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) - SUB;
    (u64::from(exp - SUB_BITS + 1) * SUB + sub) as usize
}

/// Lowest value and width of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn check(mut values: Vec<u64>) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record_ns(v);
        }
        values.sort_unstable();
        for q in [0.001, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let want = exact_quantile(&values, q);
            let got = h.quantile_ns(q).unwrap();
            assert!(
                (got - want).abs() <= want * 0.01,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it() {
        let mut probes = vec![0u64, 1, 127, 128, 129, 255, 256, 257];
        for bits in 8..MAX_BITS {
            probes.extend([(1 << bits) - 1, 1 << bits, (1 << bits) + 1]);
        }
        for v in probes {
            let (lo, width) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v < lo + width, "{v} not in [{lo}, {lo}+{width})");
            assert!(width == 1 || (width as f64) <= lo as f64 / 127.0);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_within_one_percent_on_adversarial_inputs() {
        // One repeated value.
        check(vec![165_432; 1000]);
        // Bimodal with the modes three decades apart (4 µs / 45 µs
        // loopback RTT on this VM, and a millisecond tail).
        check(
            (0..10_000)
                .map(|i| match i % 10 {
                    0..=5 => 4_000 + i,
                    6..=8 => 45_000 + 7 * i,
                    _ => 3_000_000 + 997 * i,
                })
                .collect(),
        );
        // Values sitting exactly on and around bucket edges.
        check(
            (7..30)
                .flat_map(|b| [(1u64 << b) - 1, 1 << b, (1 << b) + 1])
                .collect(),
        );
        // A geometric ladder: every bucket of several octaves hit once.
        let mut v = 1000.0f64;
        let mut ladder = Vec::new();
        while v < 1e8 {
            ladder.push(v as u64);
            v *= 1.003;
        }
        check(ladder);
        // A heavy tail: 99 % fast, 1 % a thousand times slower.
        check(
            (0..5000)
                .map(|i| {
                    if i % 100 == 99 {
                        200_000_000
                    } else {
                        200_000 + i
                    }
                })
                .collect(),
        );
    }

    #[test]
    fn merge_and_clear() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1000));
        b.record(Duration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.total, 3);
        assert!((a.quantile_us(0.5) - 1000.0).abs() < 10.0);
        a.clear();
        assert_eq!(a.total, 0);
        assert_eq!(a.quantile_ns(0.5), None);
    }
}
