//! Posit arithmetic emulation.
//!
//! The paper's arithmetic study (\[4\], via the PaCoGen core generator)
//! evaluated posits as a third number format next to CFP and LNS. Posits
//! use a run-length-encoded *regime* field that trades mantissa bits for
//! dynamic range, giving tapered accuracy: high precision near 1.0
//! (where mixture weights live) and graceful degradation toward the
//! extremes.
//!
//! Decoding an n-bit posit is exact in `f64` for the formats used here
//! (n ≤ 32, es ≤ 3). Encoding exploits a classic posit property: for
//! positive values the bit patterns, read as integers, are *monotone* in
//! the represented value — so nearest-value rounding is a binary search
//! plus a midpoint comparison, with ties broken toward the even pattern
//! as the posit standard requires.

use crate::format::SpnNumber;
use serde::{Deserialize, Serialize};

/// Posit format descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositFormat {
    /// Total width in bits (3..=32).
    pub n: u32,
    /// Exponent field width (0..=3).
    pub es: u32,
}

impl PositFormat {
    /// Construct and validate a format.
    ///
    /// # Panics
    /// Panics on unsupported widths.
    pub(crate) fn new(n: u32, es: u32) -> Self {
        assert!((3..=32).contains(&n), "n must be in 3..=32, got {n}");
        assert!(es <= 3, "es must be <= 3, got {es}");
        PositFormat { n, es }
    }

    /// The 32-bit, es = 2 configuration evaluated in \[4\].
    pub fn paper_default() -> Self {
        PositFormat::new(32, 2)
    }

    fn mask(&self) -> u32 {
        if self.n == 32 {
            u32::MAX
        } else {
            (1u32 << self.n) - 1
        }
    }

    /// The largest positive pattern (maxpos).
    fn maxpos(&self) -> u32 {
        (1u32 << (self.n - 1)) - 1
    }
}

impl SpnNumber for PositFormat {
    type Value = Posit;

    /// Encode a non-negative f64 with posit rounding (nearest, ties to
    /// even pattern; saturates at maxpos; non-zero values never round to
    /// zero, per the standard).
    fn from_f64(&self, x: f64) -> Posit {
        debug_assert!(!x.is_nan(), "posit cannot encode NaN");
        debug_assert!(x >= 0.0, "SPN posits are non-negative, got {x}");
        if x <= 0.0 {
            return Posit { bits: 0 };
        }
        let maxpos = self.maxpos();
        if x >= self.to_f64(Posit { bits: maxpos }) {
            return Posit { bits: maxpos };
        }
        let minpos = self.to_f64(Posit { bits: 1 });
        if x <= minpos {
            return Posit { bits: 1 };
        }
        // Binary search: largest pattern whose value <= x.
        let mut lo = 1u32;
        let mut hi = maxpos;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.to_f64(Posit { bits: mid }) <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let v_lo = self.to_f64(Posit { bits: lo });
        let v_hi = self.to_f64(Posit { bits: hi });
        debug_assert!(v_lo <= x && x < v_hi);
        let d_lo = x - v_lo;
        let d_hi = v_hi - x;
        let bits = if d_lo < d_hi {
            lo
        } else if d_hi < d_lo {
            hi
        } else {
            // Exact tie: even pattern wins.
            if lo & 1 == 0 {
                lo
            } else {
                hi
            }
        };
        Posit { bits }
    }

    /// Decode a pattern to f64 (exact for n ≤ 32, es ≤ 3).
    fn to_f64(&self, v: Posit) -> f64 {
        let bits = v.bits & self.mask();
        if bits == 0 {
            return 0.0;
        }
        let sign_bit = 1u32 << (self.n - 1);
        if bits == sign_bit {
            return f64::NAN; // NaR
        }
        let (sign, mag) = if bits & sign_bit != 0 {
            (-1.0, (bits.wrapping_neg()) & self.mask())
        } else {
            (1.0, bits)
        };
        // Walk the magnitude's bits below the sign position.
        let width = self.n - 1; // bits available after the sign
        let get = |i: u32| -> u32 {
            // i counts from the MSB of the body (0 = first regime bit).
            (mag >> (width - 1 - i)) & 1
        };
        let r0 = get(0);
        let mut k = 1u32;
        while k < width && get(k) == r0 {
            k += 1;
        }
        let regime: i64 = if r0 == 1 { k as i64 - 1 } else { -(k as i64) };
        // Skip the terminating bit (if it exists within the width).
        let mut pos = k + 1;
        // Exponent: up to es bits, padded with zeros on the right if
        // truncated by the end of the word.
        let mut exp: i64 = 0;
        for e in 0..self.es {
            let bit = if pos < width { get(pos) } else { 0 };
            exp = (exp << 1) | bit as i64;
            let _ = e;
            if pos < width {
                pos += 1;
            } else {
                // Truncated: remaining exponent bits are zero; just shift.
            }
        }
        // Fraction: the rest.
        let frac_bits = width.saturating_sub(pos);
        let frac = if frac_bits > 0 {
            (mag & ((1u32 << frac_bits) - 1)) as f64 / (1u64 << frac_bits) as f64
        } else {
            0.0
        };
        let scale = regime * (1i64 << self.es) + exp;
        sign * (1.0 + frac) * exp2i(scale as i32)
    }

    fn zero(&self) -> Posit {
        Posit::ZERO
    }

    /// Encode 1.0 (exact in every posit format).
    fn one(&self) -> Posit {
        Posit {
            bits: 1u32 << (self.n - 2),
        }
    }

    /// Addition: exact f64 sum re-rounded to the format.
    fn add(&self, a: Posit, b: Posit) -> Posit {
        self.from_f64(self.to_f64(a) + self.to_f64(b))
    }

    /// Multiplication: exact f64 product re-rounded to the format.
    fn mul(&self, a: Posit, b: Posit) -> Posit {
        self.from_f64(self.to_f64(a) * self.to_f64(b))
    }

    fn describe(&self) -> String {
        format!("Posit({},{})", self.n, self.es)
    }
}

/// A posit value: an n-bit pattern (stored in the low bits of a u32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Posit {
    /// The raw pattern.
    pub bits: u32,
}

impl Posit {
    /// The zero pattern.
    pub const ZERO: Posit = Posit { bits: 0 };
}

fn exp2i(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((1023 + e) as u64) << 52)
    } else {
        (e as f64).exp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PositFormat {
        /// Relative precision near 1.0 (where posits are most accurate):
        /// ulp of 1.0 relative to 1.0.
        fn epsilon_near_one(&self) -> f64 {
            let one = self.one();
            let next = Posit { bits: one.bits + 1 };
            self.to_f64(next) - 1.0
        }
    }

    #[test]
    fn canonical_values_posit8_es0() {
        // Well-known posit(8,0) values.
        let f = PositFormat::new(8, 0);
        assert_eq!(f.to_f64(Posit { bits: 0 }), 0.0);
        assert_eq!(f.to_f64(f.one()), 1.0);
        // 0b0100_0001 = 1 + 1/32.
        assert_eq!(f.to_f64(Posit { bits: 0b0100_0001 }), 1.0 + 1.0 / 32.0);
        // 0b0110_0000 = 2.0.
        assert_eq!(f.to_f64(Posit { bits: 0b0110_0000 }), 2.0);
        // maxpos for (8,0) is 64.
        assert_eq!(f.to_f64(Posit { bits: 0b0111_1111 }), 64.0);
        // minpos is 1/64.
        assert_eq!(f.to_f64(Posit { bits: 1 }), 1.0 / 64.0);
        // 0.5.
        assert_eq!(f.to_f64(Posit { bits: 0b0010_0000 }), 0.5);
    }

    #[test]
    fn canonical_values_posit16_es1() {
        let f = PositFormat::new(16, 1);
        assert_eq!(f.to_f64(f.one()), 1.0);
        // maxpos = (2^2)^14 = 2^28.
        assert_eq!(f.to_f64(Posit { bits: f.maxpos() }), (2f64).powi(28));
        assert_eq!(f.to_f64(Posit { bits: 1 }), (2f64).powi(-28));
    }

    #[test]
    fn nar_decodes_to_nan() {
        let f = PositFormat::new(8, 0);
        assert!(f.to_f64(Posit { bits: 0x80 }).is_nan());
    }

    #[test]
    fn monotone_decode() {
        for (n, es) in [(8u32, 0u32), (8, 2), (12, 1), (16, 1)] {
            let f = PositFormat::new(n, es);
            let mut prev = 0.0;
            for bits in 1..=f.maxpos() {
                let v = f.to_f64(Posit { bits });
                assert!(
                    v > prev,
                    "posit({n},{es}) pattern {bits:#x} = {v} not > {prev}"
                );
                prev = v;
            }
        }
    }

    #[test]
    fn exact_round_trip_for_all_patterns() {
        let f = PositFormat::new(10, 1);
        for bits in 0..=f.maxpos() {
            let v = f.to_f64(Posit { bits });
            let back = f.from_f64(v);
            assert_eq!(back.bits, bits, "pattern {bits:#x} value {v}");
        }
    }

    #[test]
    fn rounding_picks_nearest() {
        let f = PositFormat::new(8, 0);
        // Between 1.0 (0x40) and 1.03125 (0x41): 1.01 is nearer 1.0.
        assert_eq!(f.from_f64(1.01).bits, 0x40);
        assert_eq!(f.from_f64(1.03).bits, 0x41);
        // Exact tie at 1.015625: even pattern 0x40 wins.
        assert_eq!(f.from_f64(1.0 + 1.0 / 64.0).bits, 0x40);
        // Tie between 0x41 (odd) and 0x42 (even) -> 0x42.
        let tie = (f.to_f64(Posit { bits: 0x41 }) + f.to_f64(Posit { bits: 0x42 })) / 2.0;
        assert_eq!(f.from_f64(tie).bits, 0x42);
    }

    #[test]
    fn saturates_no_overflow_no_underflow_to_zero() {
        let f = PositFormat::new(8, 0);
        assert_eq!(f.from_f64(1e30).bits, f.maxpos());
        // Tiny but non-zero: rounds to minpos, never to zero.
        assert_eq!(f.from_f64(1e-30).bits, 1);
        assert_eq!(f.from_f64(0.0).bits, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let f = PositFormat::paper_default();
        let v = f.from_f64(0.37);
        assert_eq!(f.mul(v, f.one()), v);
        assert_eq!(f.add(v, Posit::ZERO), v);
        assert_eq!(f.mul(v, Posit::ZERO), Posit::ZERO);
    }

    #[test]
    fn arithmetic_accuracy_near_one() {
        let f = PositFormat::paper_default();
        let eps = f.epsilon_near_one();
        assert!(eps < 1e-7, "posit(32,2) has ~27 fraction bits near 1.0");
        for (x, y) in [(0.3, 0.7), (0.111, 0.222), (0.9999, 0.0001)] {
            let s = f.to_f64(f.add(f.from_f64(x), f.from_f64(y)));
            assert!(((s - (x + y)) / (x + y)).abs() < 4.0 * eps);
            let p = f.to_f64(f.mul(f.from_f64(x), f.from_f64(y)));
            assert!(((p - x * y) / (x * y)).abs() < 4.0 * eps);
        }
    }

    #[test]
    fn tapered_precision() {
        // Precision near 1.0 should beat precision far from 1.0.
        let f = PositFormat::new(16, 1);
        let near = {
            let v = f.from_f64(1.0001);
            (f.to_f64(v) - 1.0001f64).abs() / 1.0001
        };
        let far_x = 1.0e7;
        let far = {
            let v = f.from_f64(far_x);
            (f.to_f64(v) - far_x).abs() / far_x
        };
        assert!(
            near < far,
            "near {near} should be more precise than far {far}"
        );
    }

    #[test]
    #[should_panic(expected = "n must be")]
    fn invalid_width_panics() {
        PositFormat::new(2, 0);
    }
}
