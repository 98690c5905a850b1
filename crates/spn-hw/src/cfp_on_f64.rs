//! The paper's CFP arithmetic on the host's `f64` unit.
//!
//! A round-to-nearest-even CFP value with at most 24 mantissa bits is an
//! `f64` whose low `52 − mant_bits` mantissa bits are zero, so a core can
//! carry its values as the `f64`s they equal. One hardware `a * b` or
//! `a + b` followed by one integer round-to-nearest-even at the format's
//! width is then the correctly rounded CFP result: the product of two
//! ≤ 25-bit significands is exact, and for a sum, rounding first to 53
//! and then to p ≤ 25 bits is innocuous because 53 ≥ 2p + 2 (Figueroa,
//! "When is double rounding innocuous?", SIGNUM Newsletter 30(3), 1995).
//! What is left of the format are its two range limits, each a select:
//!
//! * **flush** — CFP rounds at the exponent the exact result has and
//!   drops the value if that is still below the smallest normal. Below
//!   `min_normal` a result rounds up to it exactly when it is at least
//!   `lo = min_normal · (1 − 2^−(mant_bits+2))`, the midpoint between
//!   `min_normal` and the largest significand one binade down (a tie
//!   rounds up: that significand is odd). So the test is on the
//!   *unrounded* value, and it is exact: a product that lands in
//!   `[min_normal / 2, min_normal)` is exact even as an `f64`
//!   subnormal, and one below that rounds to at most
//!   `min_normal / 2 < lo`. Flushing after rounding would be wrong in
//!   one band: in `[2⁻¹⁰²³, 2⁻¹⁰²²)` an `f64` subnormal keeps one
//!   fraction bit fewer than the format, so rounding there lands on a
//!   grid twice as coarse as CFP's. Only `mul` has this select: a sum of
//!   two format values is 0 or at least `min_normal`;
//! * **saturate** — a rounded value above the format's largest (`inf`
//!   included, where the `f64` itself overflowed) becomes the largest.
//!
//! A datapath generator that has proved from its operands' ranges that
//! neither limit can fire runs [`SpnNumber::mul_in_range`] /
//! [`SpnNumber::add_in_range`]: the rounding alone. [`CfpOnF64`]'s
//! [`SpnNumber::range_limits`] are `lo`, the largest value and half an
//! ulp of 1.0.
//!
//! `round_to_width`, `round_saturating`, `add`, `mul` and the in-range
//! ops are branch-free on the data, so a lane loop over them
//! vectorises. `DatapathProgram::execute` over [`CfpFormat`] stays the
//! oracle this path is checked against.

use spn_arith::{Cfp, CfpFormat, RangeLimits, Rounding, SpnNumber};

/// A round-to-nearest-even [`CfpFormat`] of at most 24 mantissa bits,
/// with each value carried as the `f64` it equals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CfpOnF64 {
    cfp: CfpFormat,
    /// The `f64` mantissa bits the format lacks: `52 − mant_bits`.
    shift: u32,
    /// An unrounded result below this flushes to zero.
    lo: f64,
    /// The format's largest value, where results saturate.
    max: f64,
}

impl CfpOnF64 {
    /// `cfp` on the `f64` unit, if that gives `cfp`'s bits: for
    /// round-to-nearest-even with `mant_bits ≤ 24`. Truncation is not
    /// innocuous under double rounding, and a wider significand leaves
    /// too few guard bits in an `f64`.
    pub(crate) fn new(cfp: CfpFormat) -> Option<CfpOnF64> {
        let m = cfp.mant_bits;
        let qualifies = cfp.rounding == Rounding::NearestEven && m <= 24;
        // Exponent field 1, mantissa 0.
        let min_normal = cfp.to_f64(Cfp { bits: 1 << m });
        qualifies.then(|| CfpOnF64 {
            cfp,
            shift: 52 - m,
            lo: min_normal * (1.0 - 1.0 / (1u64 << (m + 2)) as f64),
            max: cfp.max_value(),
        })
    }

    /// Round `x` (an exact product or an `f64` sum) to the format's
    /// width, to nearest even; neither limit is applied.
    #[inline(always)]
    fn round_to_width(&self, x: f64) -> f64 {
        let s = self.shift;
        let bits = x.to_bits();
        // Add just under half an ulp, and one more when the kept part is
        // odd: a tie then carries exactly when it must to reach even.
        let lsb = (bits >> s) & 1;
        f64::from_bits((bits + (1 << (s - 1)) - 1 + lsb) & !((1 << s) - 1))
    }

    /// Round `x` to the width, then saturate.
    #[inline(always)]
    fn round_saturating(&self, x: f64) -> f64 {
        let r = self.round_to_width(x);
        if r > self.max {
            self.max
        } else {
            r
        }
    }
}

impl SpnNumber for CfpOnF64 {
    type Value = f64;

    /// The one converter, and the same bits as the trip through the
    /// CFP encoding and back (`cfp.to_f64(cfp.from_f64(x))`): the
    /// datapath's own rounding with `mul`'s flush rule, which is exact
    /// here as it is for a product: `x` is the unrounded value. `inf`
    /// saturates and a negative `x` flushes, as CFP's encoder does. NaN
    /// is outside the contract.
    fn from_f64(&self, x: f64) -> f64 {
        debug_assert!(!x.is_nan(), "CFP cannot encode NaN");
        debug_assert!(x >= 0.0, "CFP is unsigned, got {x}");
        if x < self.lo {
            0.0
        } else {
            self.round_saturating(x)
        }
    }
    #[inline(always)]
    fn to_f64(&self, v: f64) -> f64 {
        v
    }
    fn zero(&self) -> f64 {
        0.0
    }
    fn one(&self) -> f64 {
        1.0
    }
    /// No flush select: a sum of two format values is 0 or at least
    /// `min_normal`.
    #[inline(always)]
    fn add(&self, a: f64, b: f64) -> f64 {
        self.round_saturating(a + b)
    }
    #[inline(always)]
    fn mul(&self, a: f64, b: f64) -> f64 {
        let x = a * b;
        let r = self.round_saturating(x);
        if x < self.lo {
            0.0
        } else {
            r
        }
    }
    fn range_limits(&self) -> Option<RangeLimits> {
        Some(RangeLimits {
            flush_below: self.lo,
            saturate_above: self.max,
            unit_roundoff: 0.5 * self.cfp.epsilon(),
        })
    }
    #[inline(always)]
    fn mul_in_range(&self, a: f64, b: f64) -> f64 {
        self.round_to_width(a * b)
    }
    #[inline(always)]
    fn add_in_range(&self, a: f64, b: f64) -> f64 {
        self.round_to_width(a + b)
    }
    fn describe(&self) -> String {
        format!("{} on f64", self.cfp.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `mul` and `add` of `a` and `b` on the `f64` path, bit for bit
    /// against `CfpFormat`'s integer emulation; `mul_in_range` and
    /// `add_in_range` too, wherever the range limits say they may run.
    fn check(cfp: &CfpFormat, on: &CfpOnF64, a: Cfp, b: Cfp) {
        let (x, y) = (cfp.to_f64(a), cfp.to_f64(b));
        let want_mul = cfp.to_f64(cfp.mul(a, b));
        let got = on.mul(x, y);
        assert!(
            got.to_bits() == want_mul.to_bits(),
            "{}: {x:e} × {y:e} = {got:e}, want {want_mul:e}",
            on.describe()
        );
        // The product is exact: in range, the rounding alone gives it.
        let limits = on.range_limits().unwrap();
        let in_range =
            |x: f64| x == 0.0 || (limits.flush_below..=limits.saturate_above).contains(&x);
        if in_range(x * y) {
            let got = on.mul_in_range(x, y);
            assert!(
                got.to_bits() == want_mul.to_bits(),
                "{}: {x:e} × {y:e} in range = {got:e}, want {want_mul:e}",
                on.describe()
            );
        }
        let want = cfp.to_f64(cfp.add(a, b));
        let got = on.add(x, y);
        assert!(
            got.to_bits() == want.to_bits(),
            "{}: {x:e} + {y:e} = {got:e}, want {want:e}",
            on.describe()
        );
        // An `f64` sum at most the largest value rounds to at most it.
        if in_range(x + y) {
            let got = on.add_in_range(x, y);
            assert!(
                got.to_bits() == want.to_bits(),
                "{}: {x:e} + {y:e} in range = {got:e}, want {want:e}",
                on.describe()
            );
        }
    }

    fn every_pair(cfp: &CfpFormat, values: &[Cfp]) {
        let on = CfpOnF64::new(*cfp).expect("a round-to-nearest-even CFP");
        for &a in values {
            for &b in values {
                check(cfp, &on, a, b);
            }
        }
    }

    /// Zero and every value whose exponent field is in `fields`.
    fn values(cfp: &CfpFormat, fields: impl IntoIterator<Item = u64>) -> Vec<Cfp> {
        let m = cfp.mant_bits;
        let mut v = vec![Cfp::ZERO];
        for e in fields {
            v.extend((0..1u64 << m).map(|mant| Cfp {
                bits: e << m | mant,
            }));
        }
        v
    }

    /// The paper's format, a value from its exponent field and its
    /// significand with the implicit 1 (`1 << 22 ..= (1 << 23) − 1`).
    fn paper(field: u64, sig: u64) -> Cfp {
        assert!(sig >> 22 == 1, "{sig:#x} is not a 23-bit significand");
        Cfp {
            bits: field << 22 | sig & ((1 << 22) - 1),
        }
    }

    /// Every pair of values of every small format: the whole exponent
    /// range, so every flush and saturation such a format has.
    #[test]
    fn every_pair_of_every_small_format() {
        for exp_bits in 2..=6 {
            for mant_bits in 1..=5 {
                let cfp = CfpFormat::new(exp_bits, mant_bits, Rounding::NearestEven);
                let all = values(&cfp, 1..=(1 << exp_bits) - 1);
                every_pair(&cfp, &all);
            }
        }
    }

    /// An 11-bit exponent reaches the `f64`'s own limits: results in its
    /// subnormal band, below it and past its largest finite value. Every
    /// pair from the fields at both ends and around 1.0.
    #[test]
    fn every_pair_from_the_boundary_fields_of_an_11_bit_exponent() {
        for mant_bits in 1..=6 {
            let cfp = CfpFormat::new(11, mant_bits, Rounding::NearestEven);
            let bias = 1023;
            let fields = (1..=4).chain(bias - 3..=bias + 3).chain(2043..=2046);
            every_pair(&cfp, &values(&cfp, fields));
        }
    }

    #[test]
    fn the_paper_format_flushes_on_the_unrounded_value() {
        let cfp = CfpFormat::paper_default();
        let on = CfpOnF64::new(cfp).unwrap();
        let top = (1 << 23) - 1;
        // 0.5 × (2 − 2⁻²²)·2⁻¹⁰²² lies below `lo`: CFP flushes it,
        // although the f64 subnormal grid would round it to 2⁻¹⁰²².
        assert_eq!(
            cfp.to_f64(cfp.mul(paper(1022, 1 << 22), paper(1, top))),
            0.0
        );
        check(&cfp, &on, paper(1022, 1 << 22), paper(1, top));
        // Around `lo` from both sides, and products that round up into
        // the smallest normal.
        for field in [1, 2, 3] {
            for sig in [1 << 22, (1 << 22) + 1, top - 1, top] {
                for half in [paper(1022, 1 << 22), paper(1021, top), paper(1022, top)] {
                    check(&cfp, &on, half, paper(field, sig));
                }
            }
        }
    }

    /// The 46-bit product of two 23-bit significands, with its low 22
    /// (no carry) or 23 (carry) bits exactly one half: ties that round
    /// down to an even and up to an even significand, with and without
    /// a carry, at exponents mid-range and at both ends.
    #[test]
    fn the_paper_format_rounds_exact_product_ties_to_even() {
        let cfp = CfpFormat::paper_default();
        let on = CfpOnF64::new(cfp).unwrap();
        let mut seen = [[false; 2]; 2]; // [carry][kept significand odd]
        for a in (1u64 << 22)..(1 << 22) + (1 << 14) {
            for b in [3 << 21, (3 << 21) | 1, (1 << 23) - (1 << 10)] {
                let p = a * b;
                let carry = (p >> 45) as usize;
                let drop = 22 + carry;
                if p & ((1 << drop) - 1) != 1 << (drop - 1) {
                    continue;
                }
                seen[carry][(p >> drop & 1) as usize] = true;
                for (ea, eb) in [
                    (1023, 1023),
                    (1023, 1),
                    (1, 1022),
                    (2045, 1024),
                    (1023, 2046),
                ] {
                    check(&cfp, &on, paper(ea, a), paper(eb, b));
                }
            }
        }
        assert_eq!(seen, [[true; 2]; 2], "every kind of tie");
    }

    /// Two operands `d` binades apart, `d` in 0..=26, with the smaller
    /// one's significand picked so the exact sum is a tie wherever one
    /// exists (`d ≤ 23`), plus its neighbours and the extremes.
    #[test]
    fn the_paper_format_rounds_sum_ties_to_even_at_every_exponent_difference() {
        let cfp = CfpFormat::paper_default();
        let on = CfpOnF64::new(cfp).unwrap();
        let top = (1u64 << 23) - 1;
        for d in 0..=26u64 {
            let mut ties = 0;
            for a in [1 << 22, (1 << 22) + 1, (3 << 21) + 1, top - 1, top] {
                let tie = (1u64 << 22) | (1 << d.saturating_sub(1)) & ((1 << 22) - 1);
                for b in [1 << 22, (1 << 22) + 1, tie - 1, tie, tie + 1, top] {
                    let b = b.clamp(1 << 22, top);
                    let sum = (u128::from(a) << d) + u128::from(b);
                    let drop = 128 - sum.leading_zeros() - 23;
                    ties += u32::from(drop > 0 && sum & ((1 << drop) - 1) == 1 << (drop - 1));
                    for ea in [1023, 27, 2046] {
                        check(&cfp, &on, paper(ea, a), paper(ea - d, b));
                        check(&cfp, &on, paper(ea - d, b), paper(ea, a));
                    }
                }
            }
            assert_eq!(ties > 0, d <= 23, "ties at exponent difference {d}");
        }
    }

    #[test]
    fn the_paper_format_saturates_at_and_past_its_largest_value() {
        let cfp = CfpFormat::paper_default();
        let on = CfpOnF64::new(cfp).unwrap();
        let top = (1 << 23) - 1;
        let max = paper(2046, top);
        assert_eq!(cfp.to_f64(max), cfp.max_value());
        for a in [
            max,
            paper(2046, top - 1),
            paper(2046, 1 << 22),
            paper(2045, top),
        ] {
            // Times 1, 1 + ulp and 2 (the f64 overflows to inf); plus
            // half an ulp at the top (a tie that rounds past it), one
            // ulp, and itself.
            for b in [
                paper(1023, 1 << 22),
                paper(1023, (1 << 22) + 1),
                paper(1024, 1 << 22),
            ] {
                check(&cfp, &on, a, b);
            }
            for b in [paper(2046 - 23, 1 << 22), paper(2046 - 22, 1 << 22), a] {
                check(&cfp, &on, a, b);
            }
        }
        assert_eq!(on.add(cfp.max_value(), cfp.max_value()), cfp.max_value());
    }

    #[test]
    fn the_paper_format_passes_zero_operands_through() {
        let cfp = CfpFormat::paper_default();
        let on = CfpOnF64::new(cfp).unwrap();
        for x in [
            Cfp::ZERO,
            paper(1, 1 << 22),
            cfp.one(),
            paper(2046, (1 << 23) - 1),
        ] {
            check(&cfp, &on, Cfp::ZERO, x);
            check(&cfp, &on, x, Cfp::ZERO);
        }
    }

    /// `from_f64` against the trip through the CFP encoding and back,
    /// bit for bit, for every round-to-nearest-even format this path
    /// takes (exponent 2..=11 × mantissa 1..=24 bits): 100 ulps either
    /// side of `lo`, the smallest normal, 1.0 and the largest value,
    /// zeros, `f64` subnormals, the `f64`'s largest value and `inf`,
    /// and random values over the format's range and a few binades
    /// past both ends.
    #[test]
    fn from_f64_rounds_constants_as_the_cfp_encoding_does() {
        let mut rng = sim_core::SplitMix64::new(45);
        let mut checked = 0usize;
        for exp_bits in 2..=11 {
            for mant_bits in 1..=24 {
                let cfp = CfpFormat::new(exp_bits, mant_bits, Rounding::NearestEven);
                let on = CfpOnF64::new(cfp).expect("a round-to-nearest-even CFP");
                let min_normal = cfp.to_f64(Cfp {
                    bits: 1 << mant_bits,
                });
                let mut xs = vec![
                    0.0,
                    -0.0,
                    5e-324,
                    f64::from_bits(1 << 51),
                    f64::MIN_POSITIVE,
                    f64::MAX,
                    f64::INFINITY,
                ];
                for centre in [on.lo, min_normal, 1.0, on.max] {
                    let bits = centre.to_bits();
                    xs.extend((bits - 100..=bits + 100).map(f64::from_bits));
                }
                // Binades from three below the smallest normal to three
                // above the largest value, clipped to the f64's normals.
                let low = (min_normal.log2() as i64 - 3).max(-1022);
                let high = (on.max.log2() as i64 + 3).min(1023);
                for _ in 0..19_600 {
                    let e = low + rng.next_below((high - low + 1) as u64) as i64;
                    let field = (e + 1023) as u64;
                    xs.push(f64::from_bits(field << 52 | rng.next_u64() >> 12));
                }
                for x in xs {
                    let want = cfp.to_f64(cfp.from_f64(x));
                    let got = on.from_f64(x);
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "{}: from_f64({x:e}) = {got:e}, want {want:e}",
                        on.describe()
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 240 * (7 + 4 * 201 + 19_600));
    }

    /// Random operand pairs over the paper format's whole range.
    #[test]
    fn the_paper_format_agrees_on_random_pairs() {
        let cfp = CfpFormat::paper_default();
        let on = CfpOnF64::new(cfp).unwrap();
        let mut rng = sim_core::SplitMix64::new(36);
        let mut value = || {
            let r = rng.next_u64();
            // One in 64 a zero; the rest over every exponent field.
            let field = 1 + (r >> 40) % 2046;
            let bits = field << 22 | r & ((1 << 22) - 1);
            Cfp {
                bits: if r >> 58 == 0 { 0 } else { bits },
            }
        };
        for _ in 0..200_000 {
            let (a, b) = (value(), value());
            check(&cfp, &on, a, b);
        }
    }
}
