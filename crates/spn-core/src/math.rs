//! The arithmetic of the oracle and the compiled plan: a value is a
//! pair `(m, e)` meaning `m·2^e`, and one `ln` per sample turns the
//! root's pair into a log-likelihood.
//!
//! The paper's datapath multiplies and adds linear probabilities in a
//! floating-point format whose wide exponent keeps deep SPNs from
//! underflowing (its CFP format), and has no math library in it. The
//! host does the same with an `f64` mantissa and an exponent carried
//! beside it: [`renormalise`] moves a mantissa's binade into the
//! exponent, [`scale`] multiplies by an exact power of two, and [`ln`]
//! reads the pair at the root. All three are straight-line code over
//! IEEE `+ − × ÷`, comparisons that end in a select, and bit moves: no
//! branch, no fused multiply-add, no libm call, no table load. That is
//! what lets the compiler vectorise them together with the lane passes
//! around them, and — because Rust never contracts `a * b + c` into a
//! fused multiply-add — what makes every instantiation on every
//! platform produce the same bits.
//!
//! The exponent is an integral `f64`: adds and maxes on it are exact,
//! and they vectorise at every instruction-set tier, where 64-bit
//! integer max does not. A zero value is `(0, −∞)`, so that a max over
//! exponents never picks it.
//!
//! Accuracy is a tested contract: `ln` is within 2 ulp of `std` over its
//! domain (measured: ≤ 1 ulp; the tests below pin it). Its coefficients
//! are weighted-minimax fits computed for this reduction; they are
//! *not* Taylor coefficients. `exp`, the log-sum-exp's other half, is
//! kept under `#[cfg(test)]` as part of the log-domain reference the
//! oracle is checked against.

/// `1.5 · 2^52`: adding it rounds to the nearest integer and leaves that
/// integer in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split so that `k · LN2_HI` is exact for every `|k| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

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

/// `(m, e)` with the mantissa moved into `[1, 2)` and its binade added
/// to the exponent: the same value, exactly, since only exponent bits
/// move. A subnormal `m` is scaled into the normals first. `m = 0`
/// gives `(0, −∞)`, the zero a max over exponents never picks.
///
/// `m` must be `≥ 0` and finite; `e` integral or `−∞`.
#[inline(always)]
pub(crate) fn renormalise(m: f64, e: f64) -> (f64, f64) {
    let tiny = m < f64::MIN_POSITIVE;
    let (m, e) = if tiny { (m * TWO54, e - 54.0) } else { (m, e) };
    renormalise_normal(m, e)
}

/// [`renormalise`] for an `m` that is zero or a normal double, with the
/// same bits there: where a range check proves the subnormals out, the
/// kernel skips their scaling.
#[inline(always)]
pub(crate) fn renormalise_normal(m: f64, e: f64) -> (f64, f64) {
    let bits = m.to_bits();
    // The sign bit is clear, so the top twelve bits are the exponent field.
    let k = f64::from_bits(TWO52_BITS | (bits >> 52)) - (TWO52 + 1023.0);
    let f = f64::from_bits((bits & MANTISSA) | ONE_BITS);
    if m == 0.0 {
        (0.0, f64::NEG_INFINITY)
    } else {
        (f, e + k)
    }
}

/// `m · 2^d` for an integral `d ≤ 0`, built in the exponent field: exact
/// for a renormalised `m` down to `d = −1022`, and `0` below that, or
/// when `d` is NaN (a sum whose terms are all zero computes `−∞ − −∞`).
/// A term `2^−1022` below the max term adds nothing a sum could keep.
#[inline(always)]
pub(crate) fn scale(m: f64, d: f64) -> f64 {
    // `t`'s low bits are `d` in two's complement; `d + 1023` is the
    // biased exponent of `2^d`, in 1..=1023 wherever it is kept.
    let t = d + ROUND_MAGIC;
    let p = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    // A mask, not a select: a select on `m * p` lets the compiler branch
    // around the load of `m`, and a branch does not vectorise.
    let keep = 0u64.wrapping_sub(u64::from(d >= -1022.0));
    f64::from_bits((m * p).to_bits() & keep)
}

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

/// `ln(s · 2^k)` for a finite `s ≥ 0`, subnormals included, and an
/// integral `k` with `|k| < 2^20`: the root's log-likelihood from its
/// `(m, e)` pair, with `k` folded into the reduction's own exponent, so
/// that `k · ln 2` costs no rounding of its own. `ln(1, 0) == 0.0`
/// exactly, and `s = 0` gives `−∞` (whatever `k`, `−∞` included).
/// Anything else — a negative, an infinity, NaN — gives NaN: a broken
/// input should say so, not pass for a plausible number.
///
/// `s = 2^e · f` with `f ∈ [√2/2, √2)` and `ln f = 2·atanh(u)` for
/// `u = (f − 1)/(f + 1)`, summed around the exact `g = f − 1` so that
/// the division's rounding only reaches second-order terms.
#[inline(always)]
pub(crate) fn ln(s: f64, k: f64) -> f64 {
    let tiny = s < f64::MIN_POSITIVE;
    let bits = (if tiny { s * TWO54 } else { s }).to_bits();
    // Carries into the exponent field exactly when the mantissa is ≥ √2.
    let adj = bits.wrapping_add(ONE_BITS - SQRT_HALF_BITS);
    let bias = if tiny { TWO52 + 1077.0 } else { TWO52 + 1023.0 };
    let e = (f64::from_bits(TWO52_BITS | (adj >> 52)) - bias) + k;
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
    } else if s == 0.0 {
        f64::NEG_INFINITY
    } else {
        f64::NAN
    }
}

/// Below this `exp` returns `+0.0`. The scale `2^k` is built in the
/// exponent field, which holds `k ≥ −1022`, i.e. `x ≥ −708.4`; libm goes
/// on through the subnormals to −745.13. No log-sum-exp notices: a term
/// 708 below the max adds less than 2⁻¹⁰⁰⁰ of the max term's weight.
#[cfg(test)]
pub(crate) const EXP_FLUSH_BELOW: f64 = -708.0;

/// `exp(r) ≈ 1 + r + r²·(E[0] + E[1]·r + …)` on `|r| ≤ 0.3466`,
/// relative error below 0.1 ulp before rounding.
#[cfg(test)]
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

/// `e^x` for the argument a log-sum-exp passes: `x ≤ 0`. Part of the
/// log-domain reference (`infer.rs`'s tests); no production path
/// calls it.
///
/// * `exp(0.0) == 1.0` and `exp(-0.0) == 1.0` exactly, so a sum's max
///   term contributes exactly its weight;
/// * `x <` [`EXP_FLUSH_BELOW`] (including `−inf`) gives `+0.0`;
/// * NaN propagates.
///
/// Cody–Waite reduction `x = k·ln 2 + r`, a degree-11 polynomial in
/// `r`, and `2^k` assembled in the exponent field.
#[cfg(test)]
pub(crate) fn exp(x: f64) -> f64 {
    let t = x * std::f64::consts::LOG2_E + ROUND_MAGIC;
    let k = t - ROUND_MAGIC;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Estrin's scheme: pairs that run side by side, then two combining
    // levels.
    let r2 = r * r;
    let r4 = r2 * r2;
    let q01 = E[0] + E[1] * r;
    let q23 = E[2] + E[3] * r;
    let q45 = E[4] + E[5] * r;
    let q67 = E[6] + E[7] * r;
    let q89 = E[8] + E[9] * r;
    let q = (q01 + q23 * r2) + ((q45 + q67 * r2) + q89 * r4) * r4;
    let p = 1.0 + (r + r2 * q);
    // `k + 1023` is the biased exponent of `2^k`, in 1..=1023 for every
    // unflushed `x`; far below the flush point `scale` is garbage (never
    // a trap) and the select discards it.
    let scale = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    if x < EXP_FLUSH_BELOW {
        0.0
    } else {
        p * scale
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
            let (d, s) = worst(0x1A60 + i as u64, draw, |s| ln(s, 0.0), f64::ln);
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
        let ln0 = |s| ln(s, 0.0);
        assert_eq!(ln0(1.0).to_bits(), 0.0f64.to_bits());
        for s in [
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
            f64::MAX,
            1.0f64.next_up(),
        ] {
            assert!(ulps(ln0(s), s.ln()) <= 2, "ln({s:e})");
        }
        // Every power of two, through the subnormals: `e·ln 2` alone.
        for k in -1074..=1023 {
            let s = (k as f64).exp2();
            assert!(ulps(ln0(s), s.ln()) <= 2, "ln(2^{k})");
        }
        // A zero value is −∞ whatever its exponent, the zero pair's −∞
        // included.
        for k in [0.0, -5.0, 1e5, f64::NEG_INFINITY] {
            assert_eq!(ln(0.0, k), f64::NEG_INFINITY, "ln(0 · 2^{k})");
        }
        // Outside the domain the answer is NaN, never a plausible
        // number.
        for s in [-1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(ln0(s).is_nan(), "ln({s})");
        }
    }

    /// The carried exponent joins the reduction's own: wherever
    /// `s · 2^k` is itself a finite double, `ln(s, k)` is `ln(s · 2^k, 0)`
    /// bit for bit. Past the double range, the same sum of integers.
    #[test]
    fn ln_folds_the_carried_exponent_exactly() {
        let mut rng = SplitMix64::new(0x1A6E);
        for _ in 0..POINTS {
            let s = 1.0 + rng.next_f64();
            let k = rng.next_below(2044) as f64 - 1021.0;
            let folded = s * k.exp2();
            assert_eq!(ln(s, k).to_bits(), ln(folded, 0.0).to_bits(), "{s} · 2^{k}");
        }
        // ll ≈ −2300, the 400-variable network's depth: within 2 ulp of
        // the exact value's nearest double, computed in two parts.
        let (s, k) = (1.5, -3325.0);
        let want = 1.5f64.ln() + k * std::f64::consts::LN_2;
        assert!(ulps(ln(s, k), want) <= 2, "ln(1.5 · 2^-3325)");
    }

    /// `renormalise` moves only exponent bits: the mantissa lands in
    /// `[1, 2)` and `f · 2^k` is the input exactly, subnormals included;
    /// zero becomes `(0, −∞)` and an exponent carried in is kept. On the
    /// normals `renormalise_normal` computes the same bits.
    #[test]
    fn renormalise_is_exact() {
        let mut rng = SplitMix64::new(0x4E0);
        for _ in 0..POINTS {
            let m = f64::from_bits(1 + rng.next_below(f64::MAX.to_bits()));
            let (f, k) = renormalise(m, 0.0);
            assert!((1.0..2.0).contains(&f), "{m:e}: mantissa {f}");
            assert_eq!(k, k.round(), "{m:e}: exponent {k}");
            // `2^k` in two normal halves: the last product rounds to `m`
            // only if `f · 2^k` is `m` exactly.
            let pow2 = |n: i64| f64::from_bits(((n + 1023) as u64) << 52);
            let (a, b) = (k as i64 / 2, k as i64 - k as i64 / 2);
            assert_eq!((f * pow2(a) * pow2(b)).to_bits(), m.to_bits(), "{m:e}");
            let (f2, k2) = renormalise(m, -7.0);
            assert_eq!((f2.to_bits(), k2), (f.to_bits(), k - 7.0));
        }
        for _ in 0..POINTS {
            let m =
                f64::from_bits(f64::MIN_POSITIVE.to_bits() + rng.next_below(f64::MAX.to_bits()));
            let (f, k) = renormalise(m, 5.0);
            let (g, j) = renormalise_normal(m, 5.0);
            assert_eq!(
                (f.to_bits(), k.to_bits()),
                (g.to_bits(), j.to_bits()),
                "{m:e}"
            );
        }
        assert_eq!(renormalise_normal(0.0, 3.0), (0.0, f64::NEG_INFINITY));
        assert_eq!(renormalise(0.0, 3.0), (0.0, f64::NEG_INFINITY));
        assert_eq!(
            renormalise(0.0, f64::NEG_INFINITY),
            (0.0, f64::NEG_INFINITY)
        );
        assert_eq!(renormalise(1.0, 0.0), (1.0, 0.0));
        assert_eq!(renormalise(5e-324, 0.0), (1.0, -1074.0));
    }

    /// `scale(m, d)` is `m · 2^d` exactly down to `d = −1022`, and `0`
    /// below it or for a NaN `d`.
    #[test]
    fn scale_is_an_exact_power_of_two() {
        for d in -1022..=0 {
            let d = f64::from(d);
            for m in [1.0, 1.5, 2.0f64.next_down()] {
                assert_eq!(
                    scale(m, d).to_bits(),
                    (m * d.exp2()).to_bits(),
                    "{m} · 2^{d}"
                );
            }
        }
        for d in [-1023.0, -1e6, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(scale(1.5, d).to_bits(), 0.0f64.to_bits(), "2^{d}");
        }
        assert_eq!(scale(0.0, 0.0).to_bits(), 0.0f64.to_bits());
    }
}
