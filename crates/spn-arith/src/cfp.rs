//! Custom Floating-Point (CFP) emulation.
//!
//! The paper's datapath generator (Sommer et al., FCCM'20 \[4\]) supports a
//! floating-point format tailored to SPN inference: configurable exponent
//! and mantissa widths, **no sign bit** (probabilities are non-negative),
//! **no infinities/NaNs** (arithmetic saturates), and **no subnormals**
//! (values below the smallest normal flush to zero). This module
//! emulates that format bit-accurately: `from_f64` performs the rounding
//! the hardware's input converter would, and `add`/`mul` compute exact
//! intermediate significands as integers before rounding — in `u64`
//! wherever they fit, which is everywhere but the products of formats
//! with more than 31 mantissa bits. That is correct for every format.
//! A round trip through `f64` (one `f64` operation, then one rounding
//! to the format) double-rounds, and that is innocuous only in part of
//! the space: for round-to-nearest-even with p = `mant_bits + 1` ≤ 25,
//! since 53 ≥ 2p + 2 (Figueroa, 1995), and only if the flush to zero
//! is decided on the unrounded value. It is not for truncation or for
//! wider significands. `spn-hw` relies on the innocuous case to run
//! such formats on the `f64` unit, checked bit for bit against this
//! emulation. `add`, `mul` and `to_f64` are branch-free on the data
//! (range limits and zero operands are selects), so a lane loop over
//! them vectorises.

use crate::round::{msb, round_shift, round_shift_u64, Rounding};
use serde::{Deserialize, Serialize};

/// A CFP format descriptor: widths and rounding behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CfpFormat {
    /// Exponent field width in bits (2..=11).
    pub exp_bits: u32,
    /// Mantissa field width in bits (1..=52), excluding the implicit 1.
    pub mant_bits: u32,
    /// Rounding mode of every operation.
    pub rounding: Rounding,
}

impl CfpFormat {
    /// Construct and validate a format.
    ///
    /// # Panics
    /// Panics on widths outside the supported ranges.
    pub fn new(exp_bits: u32, mant_bits: u32, rounding: Rounding) -> Self {
        assert!(
            (2..=11).contains(&exp_bits),
            "exp_bits must be in 2..=11, got {exp_bits}"
        );
        assert!(
            (1..=52).contains(&mant_bits),
            "mant_bits must be in 1..=52, got {mant_bits}"
        );
        CfpFormat {
            exp_bits,
            mant_bits,
            rounding,
        }
    }

    /// The configuration the paper settled on for the NIPS benchmarks
    /// (determined in \[4\]): an 11-bit exponent — the joint probabilities
    /// of the larger NIPS SPNs fall to ~1e-200, far below what an 8-bit
    /// exponent can represent, so the CFP generator widens the exponent
    /// instead of paying for more mantissa — with a 22-bit mantissa and
    /// round-to-nearest-even: a 33-bit value format.
    pub fn paper_default() -> Self {
        CfpFormat::new(11, 22, Rounding::NearestEven)
    }

    /// Exponent bias.
    #[inline(always)]
    pub(crate) fn bias(&self) -> i64 {
        (1i64 << (self.exp_bits - 1)) - 1
    }

    /// Largest exponent field value. No infinity encoding — the field is
    /// fully used — but capped so the largest value exponent is 1023,
    /// keeping every CFP value exactly representable in `f64` (the
    /// emulation's output type).
    #[inline(always)]
    pub(crate) fn max_exp_field(&self) -> i64 {
        ((1i64 << self.exp_bits) - 1).min(self.bias() + 1023)
    }

    /// Total storage width in bits (exponent + mantissa; no sign).
    pub fn width(&self) -> u32 {
        self.exp_bits + self.mant_bits
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        let sig = (1u64 << (self.mant_bits + 1)) - 1; // 1.111…1
        sig as f64 * pow2((self.max_exp_field() - self.bias() - self.mant_bits as i64) as i32)
    }

    /// Machine epsilon: ulp of 1.0.
    pub fn epsilon(&self) -> f64 {
        pow2(-(self.mant_bits as i32))
    }

    /// Encode a non-negative `f64`, rounding/saturating/flushing as the
    /// hardware converter does.
    ///
    /// # Panics
    /// Panics (debug) on negative or NaN inputs — SPN datapaths never see
    /// them, so they indicate a bug upstream.
    pub fn from_f64(&self, x: f64) -> Cfp {
        debug_assert!(!x.is_nan(), "CFP cannot encode NaN");
        debug_assert!(x >= 0.0, "CFP is unsigned, got {x}");
        if x <= 0.0 {
            return Cfp::ZERO;
        }
        if x.is_infinite() {
            return self.saturated();
        }
        let bits = x.to_bits();
        let raw_exp = ((bits >> 52) & 0x7FF) as i64;
        let raw_mant = bits & ((1u64 << 52) - 1);
        // Normalize f64 subnormals into (exp, 53-bit significand) form.
        let (exp, sig) = if raw_exp == 0 {
            let shift = raw_mant.leading_zeros() - 11; // bring MSB to bit 52
            (-1022 - shift as i64, raw_mant << shift)
        } else {
            (raw_exp - 1023, (1u64 << 52) | raw_mant)
        };
        // Round the 1.52 significand to 1.m.
        let sig = round_shift_u64(sig, 52 - self.mant_bits, self.rounding);
        self.normalized(exp, sig)
    }

    /// Decode to `f64`: exact, since CFP values are a subset of f64's
    /// normal numbers, so the f64's fields are assembled directly.
    #[inline(always)]
    pub fn to_f64(&self, v: Cfp) -> f64 {
        let m = self.mant_bits;
        // The exponent biases differ by 1023 − bias ≥ 0 (`exp_bits` ≤
        // 11), and `max_exp_field` keeps the top value exponent at 1023.
        let e_field = (v.bits >> m) + (1023 - self.bias()) as u64;
        let bits = (e_field << 52) | ((v.bits & self.mant_mask()) << (52 - m));
        f64::from_bits(if v.is_zero() { 0 } else { bits })
    }

    /// Bit-accurate multiplication.
    ///
    /// The exact product of two 1.m significands has `2m+1` or `2m+2`
    /// bits. When that fits a machine word (`mant_bits ≤ 31`, the
    /// paper's format included) it is formed and rounded in `u64`;
    /// wider formats need the `u128` product. The format's width picks
    /// the path — there is no other difference between them.
    #[inline(always)]
    pub fn mul(&self, a: Cfp, b: Cfp) -> Cfp {
        self.mul_with(self.narrow_products(), a, b)
    }

    /// [`CfpFormat::mul`] lane by lane: `out[i] = a[i] · b[i]` over the
    /// shortest of the three. The product width is picked once for all
    /// lanes, so the native-width loop holds no call and vectorises;
    /// the `u128` one runs out of line, where it cannot be merged back
    /// into it.
    #[inline(always)]
    pub(crate) fn mul_lanes(&self, out: &mut [Cfp], a: &[Cfp], b: &[Cfp]) {
        if self.narrow_products() {
            for ((d, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *d = self.mul_with(true, x, y);
            }
        } else {
            self.wide_mul_lanes(out, a, b);
        }
    }

    #[inline(never)]
    fn wide_mul_lanes(&self, out: &mut [Cfp], a: &[Cfp], b: &[Cfp]) {
        for ((d, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *d = self.mul_with(false, x, y);
        }
    }

    /// Whether the product of two significands fits `u64`.
    #[inline(always)]
    fn narrow_products(&self) -> bool {
        2 * (self.mant_bits + 1) <= u64::BITS
    }

    /// The one body of `mul`, with the product width (`narrow`, which
    /// must equal [`CfpFormat::narrow_products`]) decided by the caller.
    /// Branch-free on the data.
    #[inline(always)]
    fn mul_with(&self, narrow: bool, a: Cfp, b: Cfp) -> Cfp {
        let (ea, sa) = self.split(a);
        let (eb, sb) = self.split(b);
        // `carry`: whether the product reached the upper of its two
        // possible widths, i.e. [2, 4) rather than [1, 2).
        let (carry, sig) = if narrow {
            self.narrow_product(sa, sb)
        } else {
            self.wide_product(sa, sb)
        };
        let product = self.normalized(ea + eb - 2 * self.bias() + carry as i64, sig);
        if a.is_zero() | b.is_zero() {
            Cfp::ZERO
        } else {
            product
        }
    }

    /// `mul`'s `(carry, rounded product)` in `u64`. Both significands
    /// have at most 32 bits here, so the product is a 32 × 32-bit one,
    /// which vector units have and a 64 × 64-bit one they lack.
    #[inline(always)]
    fn narrow_product(&self, sa: u64, sb: u64) -> (u32, u64) {
        let m = self.mant_bits;
        let p = u64::from(sa as u32) * u64::from(sb as u32);
        let carry = (p >> (2 * m + 1)) & 1;
        (
            carry as u32,
            round_shift_u64(sticky_shift(p, carry), m, self.rounding),
        )
    }

    /// `mul`'s `(carry, rounded product)` for significands whose product
    /// needs `u128`. Out of line, so that the body `mul` inlines into a
    /// datapath kernel stays the native-width one.
    #[inline(never)]
    fn wide_product(&self, sa: u64, sb: u64) -> (u32, u64) {
        let m = self.mant_bits;
        let p = sa as u128 * sb as u128;
        let carry = msb(p) - 2 * m;
        (carry, round_shift(p, m + carry, self.rounding) as u64)
    }

    /// Bit-accurate addition (operands are non-negative, so this is pure
    /// magnitude addition — the hardware has no subtractor). The sum
    /// with its guard bits is at most `mant_bits + 5 ≤ 57` bits wide,
    /// so `u64` holds it for every legal format. Branch-free on the
    /// data.
    #[inline(always)]
    pub fn add(&self, a: Cfp, b: Cfp) -> Cfp {
        let m = self.mant_bits;
        // The exponent is the high field, so the packed bits order as
        // the values do: min/max put the larger exponent first without
        // a branch on the data (which of two equal exponents comes
        // first does not matter to their sum). At most 63 bits wide, they
        // order the same as `i64`, which vector units compare natively.
        let (x, y) = (a.bits as i64, b.bits as i64);
        let big = Cfp {
            bits: x.max(y) as u64,
        };
        let small = Cfp {
            bits: x.min(y) as u64,
        };
        let (ea, big_s) = self.split(big);
        let (eb, small_s) = self.split(small);
        // Work with 3 guard bits (guard/round/sticky head-room).
        const G: u32 = 3;
        // From `m + G + 1` on, the whole small operand lies below the
        // guard bits and only its stickiness is left: a larger
        // distance would add the same 1.
        let d = (ea - eb).min(i64::from(m + G + 1));
        let aligned = small_s << G;
        // Preserve stickiness of dropped bits.
        let dropped = aligned & ((1u64 << d) - 1);
        let sum = (big_s << G) + ((aligned >> d) | u64::from(dropped != 0)); // m+1+G .. m+2+G bits
        let carry = (sum >> (m + 1 + G)) & 1;
        let sig = round_shift_u64(sticky_shift(sum, carry), G, self.rounding);
        let total = self.normalized(ea - self.bias() + carry as i64, sig);
        // Zero is the only operand the sum leaves as it is.
        if small.is_zero() {
            big
        } else {
            total
        }
    }

    /// Encode 1.0 exactly.
    pub fn one(&self) -> Cfp {
        Cfp {
            bits: (self.bias() as u64) << self.mant_bits,
        }
    }

    /// The saturation value (all fields at maximum).
    #[inline(always)]
    pub(crate) fn saturated(&self) -> Cfp {
        Cfp {
            bits: ((self.max_exp_field() as u64) << self.mant_bits) | self.mant_mask(),
        }
    }

    #[inline(always)]
    fn mant_mask(&self) -> u64 {
        (1u64 << self.mant_bits) - 1
    }

    /// (exponent field, significand with implicit 1).
    #[inline(always)]
    fn split(&self, v: Cfp) -> (i64, u64) {
        let e = (v.bits >> self.mant_bits) as i64;
        let s = (1u64 << self.mant_bits) | (v.bits & self.mant_mask());
        (e, s)
    }

    /// Build a value from a *value* exponent and a rounded significand:
    /// absorb the carry rounding may have produced (1.11…1 -> 10.00…0),
    /// then saturate/flush at the range limits — with selects, not
    /// branches.
    #[inline(always)]
    fn normalized(&self, exp: i64, sig: u64) -> Cfp {
        let carry = sig >> (self.mant_bits + 1);
        let sig = sig >> carry;
        debug_assert!(sig >> self.mant_bits == 1, "significand not normalized");
        let e_field = exp + carry as i64 + self.bias();
        let bits = ((e_field as u64) << self.mant_bits) | (sig & self.mant_mask());
        let bits = if e_field > self.max_exp_field() {
            self.saturated().bits
        } else {
            bits
        };
        Cfp {
            bits: if e_field < 1 { 0 } else { bits },
        }
    }
}

/// A CFP value: raw bits under some [`CfpFormat`]. The format is carried
/// separately (one per datapath, not per value), exactly like hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cfp {
    /// Packed `[exponent | mantissa]` bits; all-zero means 0.0.
    pub bits: u64,
}

impl Cfp {
    /// Positive zero (the only zero).
    pub const ZERO: Cfp = Cfp { bits: 0 };

    /// True when this value is zero (the all-zero encoding is canonical;
    /// arithmetic never produces an exponent field of 0 otherwise).
    #[inline(always)]
    pub fn is_zero(self) -> bool {
        self.bits == 0
    }
}

/// `x >> by` for `by` ∈ {0, 1}, a dropped 1 kept sticky in bit 0.
/// Rounding the result by `k ≥ 1` bits equals rounding `x` by
/// `k + by`, so a carry no longer makes the rounding shift differ from
/// lane to lane.
#[inline(always)]
fn sticky_shift(x: u64, by: u64) -> u64 {
    (x >> by) | (x & by)
}

fn pow2(e: i32) -> f64 {
    // Exact for |e| < 1023; format ranges keep us inside.
    f64::from_bits(((1023 + e) as u64) << 52)
}

#[cfg(test)]
impl CfpFormat {
    /// Smallest positive representable (normal) value.
    fn min_value(&self) -> f64 {
        pow2((1 - self.bias()) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt() -> CfpFormat {
        CfpFormat::paper_default()
    }

    #[test]
    fn zero_and_one() {
        let f = fmt();
        assert_eq!(f.to_f64(Cfp::ZERO), 0.0);
        assert_eq!(f.to_f64(f.one()), 1.0);
        assert_eq!(f.from_f64(0.0), Cfp::ZERO);
        assert_eq!(f.from_f64(1.0), f.one());
    }

    #[test]
    fn exact_round_trip_for_representable_values() {
        let f = fmt();
        for x in [1.0, 0.5, 0.25, 0.75, 2.0, 1.5, 0.0078125, 1234.5] {
            let v = f.from_f64(x);
            assert_eq!(f.to_f64(v), x, "value {x}");
        }
    }

    #[test]
    fn rounding_error_bounded_by_half_ulp() {
        let f = fmt();
        let mut x = 1e-30;
        while x < 1e30 {
            let rt = f.to_f64(f.from_f64(x));
            let rel = ((rt - x) / x).abs();
            assert!(
                rel <= f.epsilon() / 2.0 * 1.0000001,
                "x={x} round-trips to {rt}, rel err {rel}"
            );
            x *= 3.137;
        }
    }

    #[test]
    fn truncation_rounds_toward_zero() {
        let f = CfpFormat::new(8, 4, Rounding::Truncate);
        // 1 + 1/32 truncates to 1.0 with a 4-bit mantissa.
        assert_eq!(f.to_f64(f.from_f64(1.03125)), 1.0);
        // Nearest-even would round 1 + 3/64... use 1+1/32 exactly: ulp is
        // 1/16, value is 1/32 above 1.0 (exact tie) -> RNE keeps 1.0 too;
        // pick 1 + 3/64 (above tie) to see the difference.
        let fne = CfpFormat::new(8, 4, Rounding::NearestEven);
        let above_tie = 1.0 + 3.0 / 64.0;
        assert_eq!(fne.to_f64(fne.from_f64(above_tie)), 1.0625);
        assert_eq!(f.to_f64(f.from_f64(above_tie)), 1.0);
    }

    #[test]
    fn ties_round_to_even() {
        let f = CfpFormat::new(8, 2, Rounding::NearestEven);
        // ulp of 1.0 is 0.25. 1.125 is exactly between 1.0 and 1.25:
        // rounds to 1.0 (even mantissa 00).
        assert_eq!(f.to_f64(f.from_f64(1.125)), 1.0);
        // 1.375 is between 1.25 (mantissa 01) and 1.5 (10): to 1.5 (even).
        assert_eq!(f.to_f64(f.from_f64(1.375)), 1.5);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let f = fmt();
        let max = f.max_value();
        assert!(max.is_finite(), "CFP values stay inside f64");
        assert_eq!(f.to_f64(f.from_f64(f64::INFINITY)), max);
        let sat = f.mul(f.from_f64(1e300), f.from_f64(1e300));
        assert_eq!(f.to_f64(sat), max);
        // Adding to saturated stays saturated.
        let still = f.add(sat, f.one());
        assert_eq!(f.to_f64(still), max);
        // Narrow-exponent formats saturate much sooner.
        let narrow = CfpFormat::new(8, 22, Rounding::NearestEven);
        let nmax = narrow.max_value();
        assert_eq!(narrow.to_f64(narrow.from_f64(1e300)), nmax);
        assert_eq!(
            narrow.to_f64(narrow.mul(narrow.from_f64(1e30), narrow.from_f64(1e30))),
            nmax
        );
    }

    #[test]
    fn flushes_small_values_to_zero() {
        // Use the narrow 8-bit-exponent variant, where underflow is easy
        // to reach — the failure mode LNS (and the wide paper exponent)
        // exists to avoid.
        let f = CfpFormat::new(8, 22, Rounding::NearestEven);
        let min = f.min_value();
        assert!(f.to_f64(f.from_f64(min)) == min);
        assert_eq!(f.from_f64(min / 4.0), Cfp::ZERO);
        let tiny = f.from_f64(1e-30);
        let z = f.mul(tiny, tiny);
        assert_eq!(f.to_f64(z), 0.0);
    }

    #[test]
    fn every_exponent_of_the_paper_format_decodes_exactly() {
        // 2^k by doubling or halving 1.0: exact down to 2^-1022.
        fn two_to(k: i64) -> f64 {
            let step = if k < 0 { 0.5 } else { 2.0 };
            (0..k.abs()).fold(1.0, |x, _| x * step)
        }
        let f = fmt();
        let m = f.mant_bits;
        assert_eq!(f.to_f64(f.from_f64(f.min_value())), f.min_value());
        for e in 1..=f.max_exp_field() {
            let scale = two_to(e - f.bias());
            for mant in [0, 1, 0x2A_AAAA, f.mant_mask()] {
                let v = Cfp {
                    bits: ((e as u64) << m) | mant,
                };
                let want = scale * (1.0 + mant as f64 / two_to(m.into()));
                assert_eq!(f.to_f64(v), want, "exponent field {e}, mantissa {mant:#x}");
            }
        }
    }

    #[test]
    fn subnormal_f64_inputs_handled() {
        let f = fmt();
        let sub = f64::from_bits(1); // smallest subnormal
        assert_eq!(f.from_f64(sub), Cfp::ZERO);
    }

    #[test]
    fn mul_matches_f64_within_ulp() {
        let f = fmt();
        let cases = [
            (0.3, 0.7),
            (0.123456, 0.654321),
            (1.5, 2.25),
            (1e-10, 1e-10),
            (0.999999, 0.999999),
        ];
        for (x, y) in cases {
            let got = f.to_f64(f.mul(f.from_f64(x), f.from_f64(y)));
            let want = x * y;
            let rel = ((got - want) / want).abs();
            assert!(rel < 3.0 * f.epsilon(), "{x}*{y}: got {got}, want {want}");
        }
    }

    #[test]
    fn mul_of_exact_values_is_exact() {
        let f = fmt();
        // Powers of two and small integers multiply exactly.
        let a = f.from_f64(0.5);
        let b = f.from_f64(3.0);
        assert_eq!(f.to_f64(f.mul(a, b)), 1.5);
        let half = f.from_f64(0.5);
        assert_eq!(f.to_f64(f.mul(half, half)), 0.25);
    }

    #[test]
    fn add_matches_f64_within_ulp() {
        let f = fmt();
        let cases = [
            (0.3, 0.7),
            (1e-8, 1.0),
            (0.123456, 0.000000654321),
            (5.5, 5.5),
            (1e20, 1.0), // b vanishes into sticky
        ];
        for (x, y) in cases {
            let got = f.to_f64(f.add(f.from_f64(x), f.from_f64(y)));
            let want = x + y;
            let rel = ((got - want) / want).abs();
            assert!(rel < 3.0 * f.epsilon(), "{x}+{y}: got {got}, want {want}");
        }
    }

    #[test]
    fn add_is_commutative_mul_is_commutative() {
        let f = fmt();
        let vals: Vec<Cfp> = [0.1, 0.9, 1e-5, 1234.5, 0.333]
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
    fn identity_elements() {
        let f = fmt();
        for x in [0.25, 0.3, 7.5] {
            let v = f.from_f64(x);
            assert_eq!(f.mul(v, f.one()), v);
            assert_eq!(f.add(v, Cfp::ZERO), v);
            assert_eq!(f.mul(v, Cfp::ZERO), Cfp::ZERO);
        }
    }

    #[test]
    fn small_mantissa_formats_work() {
        let f = CfpFormat::new(5, 3, Rounding::NearestEven);
        let a = f.from_f64(0.3);
        let b = f.from_f64(0.4);
        let s = f.to_f64(f.add(a, b));
        assert!((s - 0.7).abs() < 0.1, "coarse format still close: {s}");
        assert!(f.width() == 8);
    }

    #[test]
    fn wide_format_is_nearly_f64() {
        let f = CfpFormat::new(11, 52, Rounding::NearestEven);
        for (x, y) in [(0.3, 0.7), (1.5e-200, 2.5e100)] {
            let got = f.to_f64(f.mul(f.from_f64(x), f.from_f64(y)));
            assert_eq!(got, x * y, "52-bit mantissa mul should be exact-ish");
        }
    }

    #[test]
    #[should_panic(expected = "exp_bits")]
    fn invalid_format_panics() {
        CfpFormat::new(1, 10, Rounding::NearestEven);
    }

    #[test]
    fn paper_default_dimensions() {
        let f = CfpFormat::paper_default();
        assert_eq!(f.width(), 33);
        assert_eq!(f.bias(), 1023);
    }
}

#[cfg(test)]
mod exhaustive_tests {
    use super::*;

    /// Enumerate every finite value of a small format.
    fn all_values(f: &CfpFormat) -> Vec<Cfp> {
        let mut out = vec![Cfp::ZERO];
        for e in 1..=f.max_exp_field() as u64 {
            for m in 0..(1u64 << f.mant_bits) {
                out.push(Cfp {
                    bits: (e << f.mant_bits) | m,
                });
            }
        }
        out
    }

    /// Reference rounding: round an exact f64 to the format by scanning
    /// the enumerated value list for the nearest (ties to even mantissa).
    fn nearest(f: &CfpFormat, values: &[Cfp], x: f64) -> Cfp {
        if x <= 0.0 {
            return Cfp::ZERO;
        }
        // Round-then-flush at the bottom of the range: the significand
        // is rounded first, and only results whose *rounded* exponent
        // still falls below the min normal flush to zero. `from_f64`
        // implements exactly that converter path (and is independently
        // tested), so it serves as the oracle below the normal range.
        if x < f.min_value() {
            return f.from_f64(x);
        }
        let max = f.to_f64(*values.last().unwrap());
        if x >= max {
            return *values.last().unwrap();
        }
        let mut best = Cfp::ZERO;
        let mut best_d = f64::INFINITY;
        for &v in values {
            let d = (f.to_f64(v) - x).abs();
            if d < best_d || (d == best_d && v.bits & 1 == 0) {
                best = v;
                best_d = d;
            }
        }
        best
    }

    #[test]
    fn exhaustive_mul_is_correctly_rounded_small_format() {
        // CFP(4,3): 15 exponents x 8 mantissas + zero = 121 values.
        let f = CfpFormat::new(4, 3, Rounding::NearestEven);
        let values = all_values(&f);
        assert_eq!(values.len(), 1 + 15 * 8);
        for &a in &values {
            for &b in &values {
                let exact = f.to_f64(a) * f.to_f64(b); // exact: 8-bit sigs
                let got = f.mul(a, b);
                let want = nearest(&f, &values, exact);
                assert_eq!(
                    f.to_f64(got),
                    f.to_f64(want),
                    "{} * {} = {exact}: got {}, want {}",
                    f.to_f64(a),
                    f.to_f64(b),
                    f.to_f64(got),
                    f.to_f64(want)
                );
            }
        }
    }

    #[test]
    fn exhaustive_add_is_correctly_rounded_small_format() {
        let f = CfpFormat::new(4, 3, Rounding::NearestEven);
        let values = all_values(&f);
        for &a in &values {
            for &b in &values {
                let exact = f.to_f64(a) + f.to_f64(b); // exact in f64
                let got = f.add(a, b);
                let want = nearest(&f, &values, exact);
                assert_eq!(
                    f.to_f64(got),
                    f.to_f64(want),
                    "{} + {} = {exact}",
                    f.to_f64(a),
                    f.to_f64(b)
                );
            }
        }
    }

    #[test]
    fn exhaustive_truncation_never_rounds_up() {
        let f = CfpFormat::new(4, 3, Rounding::Truncate);
        let values = all_values(&f);
        for &a in &values {
            for &b in &values {
                let exact = f.to_f64(a) * f.to_f64(b);
                let got = f.to_f64(f.mul(a, b));
                // Truncation result never exceeds the exact product
                // (except at saturation, where exact > max).
                assert!(
                    got <= exact || got == f.max_value(),
                    "{} * {} = {exact}, trunc gave {got}",
                    f.to_f64(a),
                    f.to_f64(b)
                );
            }
        }
    }
}

/// The arithmetic as it was first written — every intermediate in
/// `u128`, the leading bit found with `leading_zeros` — kept as the
/// oracle the shipped native-width `add`/`mul`/`from_f64` must equal
/// bit for bit, on every format and at every range limit.
#[cfg(test)]
mod wide_reference_tests {
    use super::*;
    use proptest::prelude::*;

    fn assemble(f: &CfpFormat, mut exp: i64, mut sig: u128) -> Cfp {
        if sig >> (f.mant_bits + 1) != 0 {
            sig >>= 1;
            exp += 1;
        }
        assert!(sig >> f.mant_bits == 1, "significand not normalized");
        let e_field = exp + f.bias();
        if e_field > f.max_exp_field() {
            return f.saturated();
        }
        if e_field < 1 {
            return Cfp::ZERO;
        }
        Cfp {
            bits: ((e_field as u64) << f.mant_bits) | (sig as u64 & f.mant_mask()),
        }
    }

    fn ref_from_f64(f: &CfpFormat, x: f64) -> Cfp {
        if x <= 0.0 {
            return Cfp::ZERO;
        }
        if x.is_infinite() {
            return f.saturated();
        }
        let bits = x.to_bits();
        let raw_exp = ((bits >> 52) & 0x7FF) as i64;
        let raw_mant = bits & ((1u64 << 52) - 1);
        let (exp, sig): (i64, u128) = if raw_exp == 0 {
            let shift = raw_mant.leading_zeros() as i64 - 11;
            (-1022 - shift, (raw_mant as u128) << shift)
        } else {
            (raw_exp - 1023, (1u128 << 52) | raw_mant as u128)
        };
        assemble(f, exp, round_shift(sig, 52 - f.mant_bits, f.rounding))
    }

    /// The significand scaled into [1, 2) first, then by the value
    /// exponent: each factor, and so the product, stays a normal f64.
    fn ref_to_f64(f: &CfpFormat, v: Cfp) -> f64 {
        if v.is_zero() {
            return 0.0;
        }
        let (e, sig) = f.split(v);
        sig as f64 * pow2(-(f.mant_bits as i32)) * pow2((e - f.bias()) as i32)
    }

    fn ref_mul(f: &CfpFormat, a: Cfp, b: Cfp) -> Cfp {
        if a.is_zero() || b.is_zero() {
            return Cfp::ZERO;
        }
        let m = f.mant_bits;
        let (ea, sa) = f.split(a);
        let (eb, sb) = f.split(b);
        let p = sa as u128 * sb as u128;
        let top = msb(p);
        let exp = (ea - f.bias()) + (eb - f.bias()) + (top as i64 - 2 * m as i64);
        assemble(f, exp, round_shift(p, top - m, f.rounding))
    }

    fn ref_add(f: &CfpFormat, a: Cfp, b: Cfp) -> Cfp {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let m = f.mant_bits;
        let (mut ea, sa) = f.split(a);
        let (mut eb, sb) = f.split(b);
        let (big_s, small_s) = if ea >= eb {
            (sa, sb)
        } else {
            std::mem::swap(&mut ea, &mut eb);
            (sb, sa)
        };
        let d = (ea - eb) as u32;
        const G: u32 = 3;
        let big = (big_s as u128) << G;
        let small = if d <= m + G {
            let shifted = (small_s as u128) << G >> d;
            let dropped = ((small_s as u128) << G) & ((1u128 << d) - 1);
            shifted | u128::from(dropped != 0)
        } else {
            1
        };
        let sum = big + small;
        let top = msb(sum);
        let exp = (ea - f.bias()) + (top as i64 - (m + G) as i64);
        assemble(f, exp, round_shift(sum, top - m, f.rounding))
    }

    fn assert_ops_match(f: &CfpFormat, a: Cfp, b: Cfp) {
        assert_eq!(f.mul(a, b), ref_mul(f, a, b), "{f:?}: {a:?} * {b:?}");
        assert_eq!(f.add(a, b), ref_add(f, a, b), "{f:?}: {a:?} + {b:?}");
    }

    /// `mul_lanes` over enough lanes of the pair, both ways round, to
    /// run a vectorised loop's body and its tail.
    fn assert_lanes_match(f: &CfpFormat, a: Cfp, b: Cfp) {
        let xs = [a, b].repeat(5);
        let ys = [b, a].repeat(5);
        let mut got = vec![Cfp::ZERO; xs.len()];
        f.mul_lanes(&mut got, &xs, &ys);
        let want: Vec<Cfp> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| ref_mul(f, x, y))
            .collect();
        assert_eq!(got, want, "{f:?}: lanes of {a:?} * {b:?}");
    }

    #[test]
    fn every_operand_pair_of_a_small_format_in_both_rounding_modes() {
        for rounding in [Rounding::NearestEven, Rounding::Truncate] {
            let f = CfpFormat::new(4, 3, rounding);
            let mut values = vec![Cfp::ZERO];
            for e in 1..=f.max_exp_field() as u64 {
                values.extend((0..8).map(|m| Cfp { bits: (e << 3) | m }));
            }
            assert_eq!(values.len(), 121);
            for &a in &values {
                for &b in &values {
                    assert_ops_match(&f, a, b);
                }
            }
        }
    }

    fn formats() -> impl Strategy<Value = CfpFormat> {
        // Half the cases sit on the widths that straddle the `mul`
        // switch (31 | 32) and the ends of the legal range.
        const EDGES: [u32; 8] = [1, 22, 30, 31, 32, 33, 51, 52];
        (2u32..=11, 1u32..=52, 0usize..16, any::<bool>()).prop_map(|(e, m, edge, nearest)| {
            let m = EDGES.get(edge).copied().unwrap_or(m);
            let rounding = if nearest {
                Rounding::NearestEven
            } else {
                Rounding::Truncate
            };
            CfpFormat::new(e, m, rounding)
        })
    }

    /// Mantissa patterns: all-zero, all-one (rounding carries out),
    /// lone low and high bits (ties), and arbitrary.
    fn mantissa(f: &CfpFormat, pick: u8, raw: u64) -> u64 {
        let mask = f.mant_mask();
        match pick % 6 {
            0 => 0,
            1 => mask,
            2 => 1,
            3 => 1 << (f.mant_bits - 1),
            _ => raw & mask,
        }
    }

    /// A canonical operand pair whose exponents are related in one of
    /// the ways the datapath treats differently: equal, adjacent, right
    /// at the edge where `add`'s small operand turns pure sticky, far
    /// apart, both at the top of the range (products and sums
    /// saturate), both at the bottom (products flush to zero), or
    /// unrelated.
    fn operands(f: &CfpFormat, shape: u8, raw: [u64; 4], picks: [u8; 2]) -> (Cfp, Cfp) {
        let max = f.max_exp_field();
        let m = f.mant_bits as i64;
        let ea = 1 + (raw[0] % max as u64) as i64;
        let eb = match shape % 8 {
            0 => ea,
            1 => ea + 1,
            2 => ea - (m + 2 + (raw[1] % 4) as i64), // d in m+2 ..= m+5 around m+G
            3 => ea - (m + 6 + (raw[1] % 64) as i64),
            4 => max - (raw[1] % 2) as i64,
            5 => 1 + (raw[1] % 2) as i64,
            _ => 1 + (raw[1] % max as u64) as i64,
        }
        .clamp(1, max);
        let ea = match shape % 8 {
            4 => max - (raw[0] % 2) as i64,
            5 => 1 + (raw[0] % 2) as i64,
            _ => ea,
        };
        let value = |e: i64, pick, raw| Cfp {
            bits: ((e as u64) << f.mant_bits) | mantissa(f, pick, raw),
        };
        (value(ea, picks[0], raw[2]), value(eb, picks[1], raw[3]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn native_width_ops_equal_the_u128_reference(
            f in formats(),
            shape in any::<u8>(),
            raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            picks in (any::<u8>(), any::<u8>()),
            zero in 0u8..32,
        ) {
            let (mut a, b) = operands(&f, shape, [raw.0, raw.1, raw.2, raw.3], [picks.0, picks.1]);
            if zero == 0 {
                a = Cfp::ZERO;
            }
            assert_ops_match(&f, a, b);
            assert_ops_match(&f, b, a);
            assert_lanes_match(&f, a, b);
        }

        #[test]
        fn native_width_converter_equals_the_u128_reference(
            f in formats(),
            bits in any::<u64>(),
        ) {
            // Any non-negative f64: subnormals, values below and above
            // the format's range, infinity (NaN patterns fold onto it).
            let x = f64::from_bits(bits & !(1 << 63));
            let x = if x.is_nan() { f64::INFINITY } else { x };
            prop_assert_eq!(f.from_f64(x), ref_from_f64(&f, x), "{:?}: {}", f, x);
            // Decoding, in this format and with an 11-bit exponent: the
            // paper's width, whose lowest exponents sit where the 1.m
            // significand taken as an integer would scale below 2^-1022.
            for f in [f, CfpFormat::new(11, f.mant_bits, f.rounding)] {
                let v = ref_from_f64(&f, x);
                prop_assert_eq!(f.to_f64(v).to_bits(), ref_to_f64(&f, v).to_bits(), "{:?}: {:?}", f, v);
            }
        }
    }
}
