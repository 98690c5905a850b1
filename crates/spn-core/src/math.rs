//! The one `exp` and the one `ln` behind every log-sum-exp in this
//! crate (oracle and compiled plan).
//!
//! The paper's datapath has no math library in it — every operator is
//! an adder, a multiplier or a table — and since this module the host
//! fast path has none either. Both functions are straight-line code
//! over IEEE `+ − × ÷`, comparisons that end in a select, and bit moves:
//! no branch, no fused multiply-add, no libm call, no data-dependent
//! table load. That is what lets the compiler vectorise them together
//! with the lane passes around them, and — because Rust never contracts
//! `a * b + c` into a fused multiply-add — what makes every
//! instantiation on every platform produce the same bits.
//!
//! Accuracy is a tested contract: each function is within 2 ulp of
//! `std` over its domain (measured: `exp` ≤ 1 ulp, `ln` ≤ 1 ulp; the
//! tests below pin it). Coefficients are weighted-minimax fits computed
//! for these reductions; they are *not* Taylor coefficients.

/// Below this `exp` returns `+0.0`. The scale `2^k` is built in the
/// exponent field, which holds `k ≥ −1022`, i.e. `x ≥ −708.4`; libm goes
/// on through the subnormals to −745.13. No log-sum-exp notices: a term
/// 708 below the max adds less than 2⁻¹⁰⁰⁰ of the max term's weight.
pub(crate) const EXP_FLUSH_BELOW: f64 = -708.0;

/// `1.5 · 2^52`: adding it rounds to the nearest integer and leaves that
/// integer in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split so that `k · LN2_HI` is exact for every `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `exp(r) ≈ 1 + r + r²·(E[0] + E[1]·r + …)` on `|r| ≤ 0.3466`,
/// relative error below 0.1 ulp before rounding.
const E: [f64; 10] = [
    f64::from_bits(0x3fe0_0000_0000_000a),
    f64::from_bits(0x3fc5_5555_5555_54fa),
    f64::from_bits(0x3fa5_5555_5555_0880),
    f64::from_bits(0x3f81_1111_1112_7bd5),
    f64::from_bits(0x3f56_c16c_1842_9344),
    f64::from_bits(0x3f2a_01a0_12a5_b627),
    f64::from_bits(0x3efa_0199_a0ee_4079),
    f64::from_bits(0x3ec7_1df2_54df_d4a8),
    f64::from_bits(0x3e92_8ad7_0630_48f0),
    f64::from_bits(0x3e5a_d7f6_f53f_94a9),
];

/// `e^x` for the argument a log-sum-exp passes: `x ≤ 0`.
///
/// * `exp(0.0) == 1.0` and `exp(-0.0) == 1.0` exactly, so a sum's max
///   term contributes exactly its weight;
/// * `x <` [`EXP_FLUSH_BELOW`] (including `−inf`) gives `+0.0`;
/// * NaN propagates.
///
/// Cody–Waite reduction `x = k·ln 2 + r`, a degree-11 polynomial in
/// `r`, and `2^k` assembled in the exponent field.
#[inline(always)]
pub(crate) fn exp(x: f64) -> f64 {
    let t = x * std::f64::consts::LOG2_E + ROUND_MAGIC;
    let k = t - ROUND_MAGIC;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Estrin's scheme, not Horner's: pairs that run side by side, then
    // two combining levels — half the dependent chain, which is what a
    // one-row request (`W = 1`, nothing to overlap with) waits for.
    let r2 = r * r;
    let r4 = r2 * r2;
    let q01 = E[0] + E[1] * r;
    let q23 = E[2] + E[3] * r;
    let q45 = E[4] + E[5] * r;
    let q67 = E[6] + E[7] * r;
    let q89 = E[8] + E[9] * r;
    let q = (q01 + q23 * r2) + ((q45 + q67 * r2) + q89 * r4) * r4;
    let p = 1.0 + (r + r2 * q);
    // `t`'s low bits are `k` in two's complement; `k + 1023` is the
    // biased exponent of `2^k`, in 1..=1023 for every unflushed `x`.
    let scale = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    // Far below the flush point `scale` is garbage (never a trap); the
    // select discards it. NaN fails the comparison and comes through as
    // `p`, which is NaN.
    if x < EXP_FLUSH_BELOW {
        0.0
    } else {
        p * scale
    }
}

/// Bits of `√2 / 2`: where a mantissa moves to the next binade, so the
/// reduced argument `f` lies in `[√2/2, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
const MANTISSA: u64 = (1 << 52) - 1;
/// `2^52`: or-ing an integer below `2^52` into its mantissa converts it
/// to `f64` without an int-to-float instruction.
const TWO52_BITS: u64 = 0x4330_0000_0000_0000;
const TWO52: f64 = f64::from_bits(TWO52_BITS);
const TWO54: f64 = f64::from_bits(0x4350_0000_0000_0000);

/// `2·atanh(u)/u − 2 ≈ z·(L[0] + L[1]·z + …)`, `z = u² ≤ 0.02944`,
/// relative error of the logarithm below 0.02 ulp before rounding.
const L: [f64; 7] = [
    f64::from_bits(0x3fe5_5555_5555_5592),
    f64::from_bits(0x3fd9_9999_9997_fd77),
    f64::from_bits(0x3fd2_4924_941f_4fca),
    f64::from_bits(0x3fcc_71c5_2060_7208),
    f64::from_bits(0x3fc7_4663_fa24_cd53),
    f64::from_bits(0x3fc3_9a1a_6f3b_88a4),
    f64::from_bits(0x3fc2_f063_4a5f_7592),
];

/// Natural logarithm of a finite positive `s`, subnormals included;
/// `ln(1.0) == 0.0` exactly. Anything else — zero, a negative, an
/// infinity, NaN — gives NaN: a log-sum-exp's `s` holds the max term's
/// weight times `exp(0)`, so it is finite and positive unless its input
/// was already broken, and then the result should say so.
///
/// `s = 2^e · f` with `f ∈ [√2/2, √2)` and `ln f = 2·atanh(u)` for
/// `u = (f − 1)/(f + 1)`, summed around the exact `g = f − 1` so that
/// the division's rounding only reaches second-order terms.
#[inline(always)]
pub(crate) fn ln(s: f64) -> f64 {
    let tiny = s < f64::MIN_POSITIVE;
    let bits = (if tiny { s * TWO54 } else { s }).to_bits();
    // Carries into the exponent field exactly when the mantissa is ≥ √2.
    let adj = bits.wrapping_add(ONE_BITS - SQRT_HALF_BITS);
    let bias = if tiny { TWO52 + 1077.0 } else { TWO52 + 1023.0 };
    let e = f64::from_bits(TWO52_BITS | (adj >> 52)) - bias;
    let g = f64::from_bits((adj & MANTISSA) + SQRT_HALF_BITS) - 1.0;
    let u = g / (2.0 + g);
    let z = u * u;
    let z2 = z * z;
    let q01 = L[0] + L[1] * z;
    let q23 = L[2] + L[3] * z;
    let q45 = L[4] + L[5] * z;
    let q = (q01 + q23 * z2) + (q45 + L[6] * z2) * (z2 * z2);
    let half_sq = 0.5 * g * g;
    let v = e * LN2_HI - ((half_sq - (u * (half_sq + z * q) + e * LN2_LO)) - g);
    if s > 0.0 && s < f64::INFINITY {
        v
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SplitMix64;

    /// Points per sweep: three sweeps per function, so well over 10⁶
    /// seeded points each.
    const POINTS: usize = 400_000;

    /// Distance between two finite doubles in units in the last place
    /// (their distance on the ordered line of representable values).
    fn ulps(a: f64, b: f64) -> u64 {
        let key = |x: f64| {
            let b = x.to_bits() as i64;
            if b < 0 {
                i64::MIN - b
            } else {
                b
            }
        };
        key(a).abs_diff(key(b))
    }

    /// One seeded sweep: a label and how to draw the next point.
    type Sweep = (&'static str, fn(&mut SplitMix64) -> f64);

    /// Largest ulp distance between `ours` and `std`'s over `POINTS`
    /// draws of `draw`, with the point that showed it.
    fn worst(
        seed: u64,
        draw: impl Fn(&mut SplitMix64) -> f64,
        ours: fn(f64) -> f64,
        reference: fn(f64) -> f64,
    ) -> (u64, f64) {
        let mut rng = SplitMix64::new(seed);
        (0..POINTS)
            .map(|_| draw(&mut rng))
            .map(|x| (ulps(ours(x), reference(x)), x))
            .max_by_key(|&(d, _)| d)
            .expect("POINTS > 0")
    }

    #[test]
    fn exp_is_within_two_ulp_of_std() {
        let sweeps: [Sweep; 3] = [
            // Where a log-sum-exp's terms live.
            ("[-60, 0]", |r| -60.0 * r.next_f64()),
            // The whole unflushed domain.
            ("[-708, 0]", |r| EXP_FLUSH_BELOW * r.next_f64()),
            // Log-uniform magnitudes down to 2^-60: the `1 + r` end.
            ("-2^[-60, 3]", |r| -(63.0 * r.next_f64() - 60.0).exp2()),
        ];
        for (i, (name, draw)) in sweeps.into_iter().enumerate() {
            let (d, x) = worst(0xE4B0 + i as u64, draw, exp, f64::exp);
            println!("exp over {name}: max {d} ulp (at {x:e})");
            assert!(d <= 2, "exp({x:e}) is {d} ulp from std over {name}");
        }
    }

    #[test]
    fn ln_is_within_two_ulp_of_std() {
        let sweeps: [Sweep; 3] = [
            // A sum of weighted `exp(x − m)`: the max term's weight up.
            ("(0, 1]", |r| 1.0 - r.next_f64()),
            // Every finite positive double, subnormals included.
            ("all positive bit patterns", |r| {
                f64::from_bits(1 + r.next_below(f64::MAX.to_bits()))
            }),
            // Around 1, where the result cancels towards 0.
            ("1 ± 2^[-52, -1]", |r| {
                let d = (51.0 * r.next_f64() - 52.0).exp2();
                1.0 + if r.next_u64() & 1 == 0 { d } else { -d }
            }),
        ];
        for (i, (name, draw)) in sweeps.into_iter().enumerate() {
            let (d, s) = worst(0x1A60 + i as u64, draw, ln, f64::ln);
            println!("ln over {name}: max {d} ulp (at {s:e})");
            assert!(d <= 2, "ln({s:e}) is {d} ulp from std over {name}");
        }
    }

    #[test]
    fn exp_edges() {
        // The max term of a sum contributes exactly its weight.
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-f64::MIN_POSITIVE).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-5e-324).to_bits(), 1.0f64.to_bits());
        assert!(exp(f64::NAN).is_nan());
        // The flush point: the last argument that is not flushed is
        // still within the contract, the next one down is `+0.0`.
        for x in [EXP_FLUSH_BELOW, EXP_FLUSH_BELOW.next_up()] {
            assert!(exp(x) >= f64::MIN_POSITIVE, "exp({x}) left the normals");
            assert!(ulps(exp(x), x.exp()) <= 2, "exp({x})");
        }
        for x in [
            EXP_FLUSH_BELOW.next_down(),
            -745.0,
            -1e6,
            f64::MIN,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(exp(x).to_bits(), 0.0f64.to_bits(), "exp({x})");
        }
        for k in -60..=9 {
            let x = -(k as f64).exp2();
            assert!(ulps(exp(x), x.exp()) <= 2, "exp(-2^{k})");
        }
    }

    #[test]
    fn ln_edges() {
        assert_eq!(ln(1.0).to_bits(), 0.0f64.to_bits());
        for s in [
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
            f64::MAX,
            1.0f64.next_up(),
        ] {
            assert!(ulps(ln(s), s.ln()) <= 2, "ln({s:e})");
        }
        // Every power of two, through the subnormals: `e·ln 2` alone.
        for k in -1074..=1023 {
            let s = (k as f64).exp2();
            assert!(ulps(ln(s), s.ln()) <= 2, "ln(2^{k})");
        }
        // Outside the domain the answer is NaN, never a plausible
        // number.
        for s in [0.0, -0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(ln(s).is_nan(), "ln({s})");
        }
    }
}
