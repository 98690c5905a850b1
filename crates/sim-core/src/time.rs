//! Virtual time for the discrete-event simulation kernel.
//!
//! All models in this workspace share one clock domain: **picoseconds**,
//! stored in a `u64`. A picosecond granularity lets us represent the
//! 450 MHz HBM clock (2222.22… ps ≈ 2222 ps), PCIe symbol times, and
//! multi-second end-to-end runs (a `u64` of picoseconds covers ~213 days)
//! without floating-point drift in the event calendar.
//!
//! [`SimTime`] is a point on the virtual timeline; [`SimDuration`] is a
//! span between two points. The arithmetic between them mirrors
//! `std::time::{Instant, Duration}` so the API feels familiar.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Picoseconds per nanosecond.
pub(crate) const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub(crate) const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub(crate) const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub(crate) const PS_PER_SEC: u64 = 1_000_000_000_000;

/// A point in virtual time, measured in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of virtual time, measured in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time as (possibly lossy) seconds, for reporting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future (callers comparing out-of-order stamps get a
    /// well-defined answer instead of a panic).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span; used as an "infinite" service time.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// picosecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ps = s * PS_PER_SEC as f64;
        if ps >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ps.round() as u64)
        }
    }

    /// One clock period of a `freq_hz` clock, rounded to the nearest ps.
    ///
    /// # Panics
    /// Panics if `freq_hz` is zero.
    #[inline]
    pub fn clock_period(freq_hz: u64) -> Self {
        assert!(freq_hz > 0, "clock frequency must be non-zero");
        SimDuration((PS_PER_SEC + freq_hz / 2) / freq_hz)
    }

    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Span as fractional seconds, for reporting.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow: rhs is later than lhs"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Render a picosecond count with a human-scale unit.
fn format_ps(ps: u64) -> String {
    if ps >= PS_PER_SEC {
        format!("{:.6}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimDuration::from_us(2).as_ps(), 2_000_000);
        assert_eq!(SimDuration::from_ms(1).as_ps(), PS_PER_MS);
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_SEC);
        assert_eq!(SimTime::from_ps(42).as_ps(), 42);
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1e-12).as_ps(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        // Round-trip a plain value.
        let d = SimDuration::from_secs_f64(0.125);
        assert!((d.as_secs_f64() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn clock_period_rounds_to_nearest() {
        // 450 MHz -> 2222.22ps, rounds to 2222.
        assert_eq!(SimDuration::clock_period(450_000_000).as_ps(), 2222);
        // 225 MHz -> 4444.44ps.
        assert_eq!(SimDuration::clock_period(225_000_000).as_ps(), 4444);
        // 1 GHz exact.
        assert_eq!(SimDuration::clock_period(1_000_000_000).as_ps(), 1000);
        // 300 MHz -> 3333.33 -> 3333.
        assert_eq!(SimDuration::clock_period(300_000_000).as_ps(), 3333);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn clock_period_zero_panics() {
        let _ = SimDuration::clock_period(0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_ps(100);
        let d = SimDuration::from_ps(40);
        assert_eq!((t + d).as_ps(), 140);
        assert_eq!((t - d).as_ps(), 60);
        assert_eq!(((t + d) - t).as_ps(), 40);
        let mut u = t;
        u += d;
        assert_eq!(u.as_ps(), 140);
    }

    #[test]
    fn time_sub_saturates_at_zero() {
        let t = SimTime::from_ps(10);
        assert_eq!((t - SimDuration::from_ps(100)).as_ps(), 0);
        assert_eq!(
            SimTime::from_ps(5).saturating_since(SimTime::from_ps(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn instant_difference_underflow_panics() {
        let _ = SimTime::from_ps(1) - SimTime::from_ps(2);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_ps(30);
        assert_eq!((d * 3).as_ps(), 90);
        assert_eq!((d / 2).as_ps(), 15);
        assert_eq!(d * u64::MAX, SimDuration::MAX);
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_ps(5);
        let b = SimTime::from_ps(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_ps(12)), "12ps");
        assert_eq!(format!("{}", SimDuration::from_ns(1)), "1.000ns");
        assert_eq!(format!("{}", SimDuration::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(9)), "9.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000000s");
        assert_eq!(format!("{}", SimTime::from_ps(1500)), "t+1.500ns");
    }
}
