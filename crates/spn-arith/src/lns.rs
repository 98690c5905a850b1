//! Logarithmic Number System (LNS) emulation.
//!
//! Weber et al. (FPT'19 \[11\]) showed that representing probabilities by
//! their base-2 logarithm in fixed point makes SPN hardware both cheaper
//! (multiplication becomes integer addition) and able to express the
//! astronomically small probabilities large SPNs produce. This module
//! emulates that format:
//!
//! * a value `x > 0` is stored as `round(log2(x) · 2^frac_bits)` in a
//!   signed fixed-point word with `int_bits` integer bits;
//! * zero gets a dedicated flag (log of 0 is -∞), as in the hardware;
//! * multiplication is a saturating fixed-point addition — *exact* up to
//!   saturation;
//! * addition uses the Gaussian-logarithm function
//!   `F(d) = log2(1 + 2^-d)`, evaluated exactly and quantized to the
//!   format — modelling an ideal interpolation table. A configurable
//!   `table_frac_bits` truncation models coarser real tables.

use serde::{Deserialize, Serialize};

/// LNS format descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LnsFormat {
    /// Integer bits of the log-domain fixed point (including sign).
    pub(crate) int_bits: u32,
    /// Fractional bits of the log-domain fixed point.
    pub(crate) frac_bits: u32,
    /// Fractional precision of the hardware's F(d) = log2(1+2^-d) table;
    /// usually equal to `frac_bits` (ideal table).
    pub(crate) table_frac_bits: u32,
}

impl LnsFormat {
    /// Construct and validate a format.
    ///
    /// # Panics
    /// Panics on unsupported widths.
    pub(crate) fn new(int_bits: u32, frac_bits: u32) -> Self {
        assert!(
            (2..=32).contains(&int_bits),
            "int_bits must be in 2..=32, got {int_bits}"
        );
        assert!(
            (1..=30).contains(&frac_bits),
            "frac_bits must be in 1..=30, got {frac_bits}"
        );
        LnsFormat {
            int_bits,
            frac_bits,
            table_frac_bits: frac_bits,
        }
    }

    /// The configuration used for the paper's NIPS benchmarks
    /// (FPT'19 \[11\]): 32-bit log word split 12.20, ideal table.
    pub fn paper_default() -> Self {
        LnsFormat::new(12, 20)
    }

    /// Use a coarser adder table (accuracy/area trade-off knob).
    pub fn with_table_frac_bits(mut self, bits: u32) -> Self {
        assert!(bits >= 1 && bits <= self.frac_bits);
        self.table_frac_bits = bits;
        self
    }

    /// Total storage width in bits (log word + zero flag).
    pub fn width(&self) -> u32 {
        self.int_bits + self.frac_bits + 1
    }

    /// One fixed-point unit in the log domain.
    fn scale(&self) -> f64 {
        (1u64 << self.frac_bits) as f64
    }

    /// Largest / smallest representable log-domain word.
    fn log_max(&self) -> i64 {
        (1i64 << (self.int_bits + self.frac_bits - 1)) - 1
    }
    fn log_min(&self) -> i64 {
        -(1i64 << (self.int_bits + self.frac_bits - 1))
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        (self.log_max() as f64 / self.scale()).exp2()
    }

    /// Encode a non-negative f64.
    pub fn from_f64(&self, x: f64) -> Lns {
        debug_assert!(!x.is_nan(), "LNS cannot encode NaN");
        debug_assert!(x >= 0.0, "LNS is unsigned, got {x}");
        if x <= 0.0 {
            return Lns::ZERO;
        }
        let log = x.log2() * self.scale();
        let q = log.round_ties_even() as i64;
        Lns {
            log: q.clamp(self.log_min(), self.log_max()),
            zero: false,
        }
    }

    /// Decode to f64.
    pub fn to_f64(&self, v: Lns) -> f64 {
        if v.zero {
            0.0
        } else {
            (v.log as f64 / self.scale()).exp2()
        }
    }

    /// Multiplication: fixed-point addition of logs, saturating.
    pub fn mul(&self, a: Lns, b: Lns) -> Lns {
        if a.zero || b.zero {
            return Lns::ZERO;
        }
        Lns {
            log: (a.log + b.log).clamp(self.log_min(), self.log_max()),
            zero: false,
        }
    }

    /// Addition via the Gaussian logarithm:
    /// `log2(x+y) = max + F(max - min)` with `F(d) = log2(1 + 2^-d)`.
    pub fn add(&self, a: Lns, b: Lns) -> Lns {
        if a.zero {
            return b;
        }
        if b.zero {
            return a;
        }
        let (hi, lo) = if a.log >= b.log { (a, b) } else { (b, a) };
        let d_fixed = hi.log - lo.log; // >= 0, in format fixed point
        let d = d_fixed as f64 / self.scale();
        // Ideal table value, then quantize to the table's precision.
        let f = (1.0 + (-d).exp2()).log2();
        let table_scale = (1u64 << self.table_frac_bits) as f64;
        let f_q = (f * table_scale).round_ties_even() as i64;
        // Rescale table output to the value format.
        let delta = f_q << (self.frac_bits - self.table_frac_bits);
        Lns {
            log: (hi.log + delta).clamp(self.log_min(), self.log_max()),
            zero: false,
        }
    }

    /// Encode 1.0 exactly (log 0).
    pub(crate) fn one(&self) -> Lns {
        Lns {
            log: 0,
            zero: false,
        }
    }

    /// Worst-case relative error of a single rounding, ~ln(2)·2^-(f+1).
    pub fn epsilon(&self) -> f64 {
        std::f64::consts::LN_2 / self.scale() / 2.0 * 2.0
    }
}

/// An LNS value: fixed-point log plus an explicit zero flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Lns {
    /// log2(value) in the format's fixed point.
    pub log: i64,
    /// True encodes exactly 0.0.
    pub zero: bool,
}

impl Lns {
    /// The zero value.
    pub const ZERO: Lns = Lns { log: 0, zero: true };

    /// True when this value is zero.
    pub fn is_zero(self) -> bool {
        self.zero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LnsFormat {
        /// Smallest positive representable value — astronomically small
        /// for the paper format (2^-2048 at 12.20), the whole point of LNS.
        fn min_value(&self) -> f64 {
            (self.log_min() as f64 / self.scale()).exp2()
        }
    }

    fn fmt() -> LnsFormat {
        LnsFormat::paper_default()
    }

    #[test]
    fn zero_and_one() {
        let f = fmt();
        assert_eq!(f.to_f64(Lns::ZERO), 0.0);
        assert_eq!(f.to_f64(f.one()), 1.0);
        assert_eq!(f.from_f64(0.0), Lns::ZERO);
        assert_eq!(f.from_f64(1.0), f.one());
    }

    #[test]
    fn powers_of_two_are_exact() {
        let f = fmt();
        for e in [-100, -7, -1, 0, 1, 10, 100] {
            let x = (e as f64).exp2();
            assert_eq!(f.to_f64(f.from_f64(x)), x, "2^{e}");
        }
    }

    #[test]
    fn round_trip_relative_error_bounded() {
        let f = fmt();
        let mut x = 1e-300;
        while x < 1e300 {
            let rt = f.to_f64(f.from_f64(x));
            let rel = ((rt - x) / x).abs();
            assert!(rel < f.epsilon() * 1.001, "x={x}, rel={rel}");
            x *= 9.73;
        }
    }

    #[test]
    fn multiplication_is_exact_in_log_domain() {
        let f = fmt();
        // Product of representable values is exact (up to saturation):
        // log words add with no rounding.
        let a = f.from_f64(0.125);
        let b = f.from_f64(4.0);
        assert_eq!(f.to_f64(f.mul(a, b)), 0.5);
        // Long products of probabilities never lose precision:
        let p = f.from_f64(0.5);
        let mut acc = f.one();
        for _ in 0..1000 {
            acc = f.mul(acc, p);
        }
        assert_eq!(acc.log, f.from_f64(0.5).log * 1000);
        // 2^-1000 is far below f64 range but fine in LNS:
        assert!(!acc.is_zero());
    }

    #[test]
    fn tiny_probabilities_do_not_underflow() {
        let f = fmt();
        // The paper's motivation: min value is 2^-2048, far beyond f64.
        assert!(f.min_value() == 0.0 || f.min_value() < 1e-300);
        let tiny = f.from_f64(1e-300);
        let product = f.mul(tiny, tiny); // 1e-600: zero in f64!
        assert!(!product.is_zero());
        // Back-conversion underflows f64, but the log word is intact.
        assert_eq!(product.log, 2 * tiny.log);
    }

    #[test]
    fn addition_close_to_f64() {
        let f = fmt();
        let cases = [(0.3, 0.7), (1e-10, 1.0), (0.5, 0.5), (123.0, 456.0)];
        for (x, y) in cases {
            let got = f.to_f64(f.add(f.from_f64(x), f.from_f64(y)));
            let want = x + y;
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-5, "{x}+{y}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn addition_with_huge_magnitude_gap() {
        let f = fmt();
        // When d is large, F(d) quantizes to 0 and the result is the max.
        let big = f.from_f64(1.0);
        let small = f.from_f64(1e-30);
        assert_eq!(f.add(big, small), big);
    }

    #[test]
    fn add_is_commutative() {
        let f = fmt();
        let vals: Vec<Lns> = [0.1, 0.9, 1e-20, 42.0]
            .iter()
            .map(|&x| f.from_f64(x))
            .collect();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(f.add(a, b), f.add(b, a));
                assert_eq!(f.mul(a, b), f.mul(b, a));
            }
        }
    }

    #[test]
    fn identities() {
        let f = fmt();
        let v = f.from_f64(0.325);
        assert_eq!(f.add(v, Lns::ZERO), v);
        assert_eq!(f.mul(v, f.one()), v);
        assert_eq!(f.mul(v, Lns::ZERO), Lns::ZERO);
    }

    #[test]
    fn saturation_at_extremes() {
        let f = LnsFormat::new(4, 4); // tiny range: log in [-128, 127]/16
        let max = f.from_f64(f.max_value());
        let sat = f.mul(max, max);
        assert_eq!(sat.log, (1i64 << 7) - 1);
        let min = f.from_f64(f.min_value());
        let flo = f.mul(min, min);
        assert_eq!(flo.log, -(1i64 << 7));
    }

    #[test]
    fn coarse_table_degrades_gracefully() {
        let ideal = fmt();
        let coarse = fmt().with_table_frac_bits(4);
        let a = ideal.from_f64(0.3);
        let b = ideal.from_f64(0.7);
        let exact = 1.0f64;
        let e_ideal = (ideal.to_f64(ideal.add(a, b)) - exact).abs();
        let e_coarse = (coarse.to_f64(coarse.add(a, b)) - exact).abs();
        assert!(e_coarse >= e_ideal);
        assert!(e_coarse < 0.05, "even a 4-bit table is roughly right");
    }

    #[test]
    fn width_accounts_for_zero_flag() {
        assert_eq!(fmt().width(), 33);
    }

    #[test]
    #[should_panic(expected = "int_bits")]
    fn invalid_format_panics() {
        LnsFormat::new(1, 10);
    }
}
