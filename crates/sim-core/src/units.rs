//! Byte-size and bandwidth units used consistently across all models.
//!
//! The paper mixes GB (vendor datasheets, 10^9) and GiB (measured
//! throughput, 2^30). Keeping both spellings as named constants — and a
//! [`Bandwidth`] newtype that converts between "bytes over a duration"
//! and "duration for bytes" — removes an entire class of off-by-7.4%
//! errors from the models.

use crate::time::{SimDuration, PS_PER_SEC};
use serde::{Deserialize, Serialize};

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1 << 30;
/// One gigabyte (10^9 bytes) — vendor-datasheet convention.
pub const GB: u64 = 1_000_000_000;

/// A transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From raw bytes per second.
    ///
    /// # Panics
    /// Panics on non-finite or negative rates.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps.is_finite() && bps >= 0.0, "invalid bandwidth {bps}");
        Bandwidth(bps)
    }

    /// From GiB/s (measured-throughput convention).
    pub fn from_gib_per_sec(gib: f64) -> Self {
        Self::from_bytes_per_sec(gib * GIB as f64)
    }

    /// From GB/s (vendor-datasheet convention).
    pub fn from_gb_per_sec(gb: f64) -> Self {
        Self::from_bytes_per_sec(gb * GB as f64)
    }

    /// From Gbit/s (network convention).
    pub fn from_gbit_per_sec(gbit: f64) -> Self {
        Self::from_bytes_per_sec(gbit * 1e9 / 8.0)
    }

    /// Raw bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// In GiB/s.
    pub fn gib_per_sec(self) -> f64 {
        self.0 / GIB as f64
    }

    /// In GB/s.
    pub fn gb_per_sec(self) -> f64 {
        self.0 / GB as f64
    }

    /// Virtual time needed to move `bytes` at this rate, rounded up to a
    /// whole picosecond. Zero-bandwidth transfers take "forever"
    /// ([`SimDuration::MAX`]).
    pub fn time_for_bytes(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        let ps = bytes as f64 * PS_PER_SEC as f64 / self.0;
        if ps >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration::from_ps(ps.ceil() as u64)
        }
    }

    /// Effective rate implied by moving `bytes` in `elapsed`.
    pub fn observed(bytes: u64, elapsed: SimDuration) -> Option<Bandwidth> {
        let secs = elapsed.as_secs_f64();
        (secs > 0.0).then(|| Bandwidth(bytes as f64 / secs))
    }

    /// Scale by a dimensionless efficiency factor in `[0, +inf)`.
    pub fn scaled(self, factor: f64) -> Bandwidth {
        Self::from_bytes_per_sec(self.0 * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constants() {
        assert_eq!(KIB, 1024);
        assert_eq!(MIB, 1024 * 1024);
        assert_eq!(GIB, 1024 * 1024 * 1024);
        assert_eq!(GB, 1_000_000_000);
    }

    #[test]
    fn conversions_round_trip() {
        let b = Bandwidth::from_gib_per_sec(12.0);
        assert!((b.gib_per_sec() - 12.0).abs() < 1e-12);
        let b = Bandwidth::from_gb_per_sec(460.0);
        assert!((b.gb_per_sec() - 460.0).abs() < 1e-12);
        // Paper: 460 GB/s ~= 428 GiB/s.
        assert!((b.gib_per_sec() - 428.408).abs() < 0.01);
        // 100 Gbit/s ~= 11.64 GiB/s (paper's QDMA figure).
        let b = Bandwidth::from_gbit_per_sec(100.0);
        assert!((b.gib_per_sec() - 11.6415).abs() < 0.001);
    }

    #[test]
    fn time_for_bytes() {
        let b = Bandwidth::from_bytes_per_sec(1e9); // 1 GB/s
        assert_eq!(b.time_for_bytes(1_000_000_000).as_secs_f64(), 1.0);
        assert_eq!(b.time_for_bytes(0), SimDuration::ZERO);
        // Rounds up: 1 byte at 1 GB/s = 1ns exactly; 3 bytes = 3ns.
        assert_eq!(b.time_for_bytes(3).as_ps(), 3000);
        let slow = Bandwidth::from_bytes_per_sec(0.0);
        assert_eq!(slow.time_for_bytes(1), SimDuration::MAX);
    }

    #[test]
    fn observed_and_scaled() {
        let o = Bandwidth::observed(1000, SimDuration::from_secs(2)).unwrap();
        assert!((o.bytes_per_sec() - 500.0).abs() < 1e-12);
        assert_eq!(Bandwidth::observed(1000, SimDuration::ZERO), None);
        let s = o.scaled(0.5);
        assert!((s.bytes_per_sec() - 250.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn negative_bandwidth_panics() {
        Bandwidth::from_bytes_per_sec(-1.0);
    }
}
