//! Property-based tests of the number-format emulations: error bounds,
//! algebraic structure and ordering, for arbitrary probability-like
//! values.

use proptest::prelude::*;
use spn_arith::{CfpFormat, LnsFormat, PositFormat, Rounding, SpnNumber};

/// Positive finite doubles in the probability-product range.
fn probs() -> impl Strategy<Value = f64> {
    (-250.0..0.0f64).prop_map(|e| e.exp2())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CFP round trip stays within half an ulp (RNE) / one ulp (trunc).
    #[test]
    fn cfp_round_trip_error(x in probs(), m in 4u32..=40) {
        let rne = CfpFormat::new(11, m, Rounding::NearestEven);
        let rt = rne.to_f64(rne.from_f64(x));
        prop_assert!(((rt - x) / x).abs() <= rne.epsilon() / 2.0 * 1.0000001);

        let trunc = CfpFormat::new(11, m, Rounding::Truncate);
        let rt = trunc.to_f64(trunc.from_f64(x));
        prop_assert!(rt <= x, "truncation rounds toward zero");
        prop_assert!(((rt - x) / x).abs() <= trunc.epsilon() * 1.0000001);
    }

    /// CFP multiplication is correctly rounded: it equals rounding the
    /// exact product of the rounded operands.
    #[test]
    fn cfp_mul_correctly_rounded(a in probs(), b in probs()) {
        let f = CfpFormat::paper_default();
        let (ra, rb) = (f.from_f64(a), f.from_f64(b));
        let exact = f.to_f64(ra) * f.to_f64(rb); // exact in f64 (<= 46 significand bits)
        let got = f.to_f64(f.mul(ra, rb));
        let expect = f.to_f64(f.from_f64(exact));
        prop_assert_eq!(got.to_bits(), expect.to_bits(), "{} * {}", a, b);
    }

    /// CFP addition error is bounded by one ulp of the result.
    #[test]
    fn cfp_add_error_bounded(a in probs(), b in probs()) {
        let f = CfpFormat::paper_default();
        let got = f.to_f64(f.add(f.from_f64(a), f.from_f64(b)));
        let want = a + b;
        prop_assert!(((got - want) / want).abs() < 2.0 * f.epsilon());
    }

    /// CFP ops are commutative and monotone in each argument.
    #[test]
    fn cfp_algebra(a in probs(), b in probs(), c in probs()) {
        let f = CfpFormat::paper_default();
        let (ra, rb, rc) = (f.from_f64(a), f.from_f64(b), f.from_f64(c));
        prop_assert_eq!(f.add(ra, rb), f.add(rb, ra));
        prop_assert_eq!(f.mul(ra, rb), f.mul(rb, ra));
        // Monotonicity: a <= a + c in value.
        prop_assert!(f.to_f64(f.add(ra, rc)) >= f.to_f64(ra));
        // Identity elements.
        prop_assert_eq!(f.mul(ra, f.one()), ra);
        prop_assert_eq!(f.add(ra, spn_arith::Cfp::ZERO), ra);
    }

    /// LNS: multiplication is exact on representable values; round trip
    /// bounded by the format's epsilon.
    #[test]
    fn lns_properties(a in probs(), b in probs()) {
        let f = LnsFormat::paper_default();
        let (ra, rb) = (f.from_f64(a), f.from_f64(b));
        // Exact product in the log domain.
        let prod = f.mul(ra, rb);
        prop_assert_eq!(prod.log, ra.log + rb.log);
        // Round trip.
        let rt = f.to_f64(ra);
        prop_assert!(((rt - a) / a).abs() <= f.epsilon() * 1.001);
        // Addition commutative and >= max operand.
        prop_assert_eq!(f.add(ra, rb), f.add(rb, ra));
        prop_assert!(f.to_f64(f.add(ra, rb)) >= f.to_f64(ra).max(f.to_f64(rb)) * 0.999999);
    }

    /// Posit: decode is monotone in the pattern; encode picks a nearest
    /// representable neighbour.
    #[test]
    fn posit_encode_is_nearest(x in probs()) {
        let f = PositFormat::paper_default();
        let enc = f.from_f64(x);
        let v = f.to_f64(enc);
        // Whichever neighbour exists must not be closer than the chosen
        // pattern.
        for delta in [-1i64, 1] {
            let nb = enc.bits as i64 + delta;
            if (1..(1i64 << 31)).contains(&nb) {
                let nv = f.to_f64(spn_arith::Posit { bits: nb as u32 });
                if nv.is_finite() && nv > 0.0 {
                    prop_assert!(
                        (v - x).abs() <= (nv - x).abs() * 1.0000001,
                        "{x}: chose {v}, neighbour {nv} closer"
                    );
                }
            }
        }
    }

    /// All formats: encoding zero is exact and absorbing under mul.
    #[test]
    fn zero_is_absorbing(x in probs()) {
        let cfp = CfpFormat::paper_default();
        prop_assert_eq!(cfp.mul(cfp.from_f64(x), spn_arith::Cfp::ZERO), spn_arith::Cfp::ZERO);
        let lns = LnsFormat::paper_default();
        prop_assert!(lns.mul(lns.from_f64(x), spn_arith::Lns::ZERO).zero);
        let posit = PositFormat::paper_default();
        prop_assert_eq!(posit.mul(posit.from_f64(x), spn_arith::Posit::ZERO), spn_arith::Posit::ZERO);
    }
}
