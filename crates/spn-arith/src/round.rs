//! Shared significand-rounding primitives.
//!
//! Both the CFP and LNS emulations reduce to the same micro-operation:
//! take an exact intermediate significand, drop its low `shift` bits,
//! and round according to the configured mode. Keeping this in one place
//! (and testing it exhaustively) means the format implementations only
//! deal with exponent bookkeeping.

use serde::{Deserialize, Serialize};

/// Rounding behaviour of the emulated hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rounding {
    /// Round to nearest, ties to even — IEEE-style, the high-accuracy
    /// configuration of the paper's CFP generator.
    NearestEven,
    /// Truncate toward zero — the cheapest hardware rounding.
    Truncate,
}

/// Shift `sig` right by `shift` bits, rounding the dropped bits.
///
/// Returns the rounded value; the caller must re-check the bit width
/// because NearestEven can carry into the next bit (e.g. `0b1111 >> 2`
/// rounds to `0b100`).
pub(crate) fn round_shift(sig: u128, shift: u32, mode: Rounding) -> u128 {
    if shift == 0 {
        return sig;
    }
    if shift >= 128 {
        // Everything is dropped; only NearestEven with a value at least
        // half of the (gigantic) ulp could round up, which cannot happen
        // for representable inputs. Treat as zero.
        return 0;
    }
    let kept = sig >> shift;
    match mode {
        Rounding::Truncate => kept,
        Rounding::NearestEven => {
            let guard = (sig >> (shift - 1)) & 1;
            let sticky = if shift >= 2 {
                sig & ((1u128 << (shift - 1)) - 1) != 0
            } else {
                false
            };
            if guard == 1 && (sticky || kept & 1 == 1) {
                kept + 1
            } else {
                kept
            }
        }
    }
}

/// [`round_shift`] at the native word width, for intermediates that fit
/// 64 bits: every CFP sum, and every product of formats whose doubled
/// significand does (`2·(mant_bits+1) ≤ 64`, the paper's 22-bit mantissa
/// among them). Same contract, same carry caveat.
///
/// Branch-free on the data, so a lane loop over CFP operations stays
/// vectorisable: the range cases are selects, and only the mode — one
/// per datapath, so loop-invariant — is a `match`.
#[inline(always)]
pub(crate) fn round_shift_u64(sig: u64, shift: u32, mode: Rounding) -> u64 {
    let kept = sig.checked_shr(shift).unwrap_or(0);
    match mode {
        Rounding::Truncate => kept,
        Rounding::NearestEven => {
            // The dropped bits and the weight of the highest of them.
            // Rounding applies only when some bits are dropped and some
            // kept; the `& 63` merely keeps the shift defined otherwise.
            let mask = (1u64 << (shift & 63)) - 1;
            let half = mask ^ (mask >> 1);
            let dropped = sig & mask;
            let up = (1..64).contains(&shift)
                & ((dropped > half) | ((dropped == half) & (kept & 1 == 1)));
            kept + u64::from(up)
        }
    }
}

/// Position of the most significant set bit (0-indexed).
///
/// # Panics
/// Panics on zero — callers must special-case zero before normalizing.
pub(crate) fn msb(sig: u128) -> u32 {
    assert!(sig != 0, "msb of zero is undefined");
    127 - sig.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_drops_low_bits() {
        assert_eq!(round_shift(0b1011, 2, Rounding::Truncate), 0b10);
        assert_eq!(round_shift(0b1111, 2, Rounding::Truncate), 0b11);
        assert_eq!(round_shift(7, 0, Rounding::Truncate), 7);
    }

    #[test]
    fn nearest_even_rounds_half_to_even() {
        // 0b101 >> 1: dropped bit = 1, no sticky, kept = 0b10 (even) -> stays.
        assert_eq!(round_shift(0b101, 1, Rounding::NearestEven), 0b10);
        // 0b111 >> 1: dropped bit = 1, kept = 0b11 (odd) -> rounds to 0b100.
        assert_eq!(round_shift(0b111, 1, Rounding::NearestEven), 0b100);
        // 0b1011 >> 2: dropped = 0b11 (guard 1, sticky 1) -> kept 0b10 + 1.
        assert_eq!(round_shift(0b1011, 2, Rounding::NearestEven), 0b11);
        // 0b1001 >> 2: dropped = 0b01 (guard 0) -> kept 0b10.
        assert_eq!(round_shift(0b1001, 2, Rounding::NearestEven), 0b10);
    }

    #[test]
    fn nearest_even_matches_f64_semantics() {
        // Cross-check against native f64 rounding for many cases:
        // rounding a k-bit integer to (k - s) bits equals rounding
        // x / 2^s to integer with banker's rounding.
        for sig in 0u128..4096 {
            for shift in 1..8u32 {
                let got = round_shift(sig, shift, Rounding::NearestEven);
                let exact = sig as f64 / (1u64 << shift) as f64;
                let want = {
                    // f64 round-half-to-even of `exact`.
                    let floor = exact.floor();
                    let frac = exact - floor;
                    let round_up = frac > 0.5 || (frac == 0.5 && !(floor as u64).is_multiple_of(2));
                    if round_up {
                        floor + 1.0
                    } else {
                        floor
                    }
                } as u128;
                assert_eq!(got, want, "sig={sig:b} shift={shift}");
            }
        }
    }

    #[test]
    fn huge_shift_is_zero() {
        assert_eq!(round_shift(u128::MAX, 128, Rounding::NearestEven), 0);
        assert_eq!(round_shift(u128::MAX, 200, Rounding::Truncate), 0);
        assert_eq!(round_shift_u64(u64::MAX, 64, Rounding::NearestEven), 0);
        assert_eq!(round_shift_u64(u64::MAX, 200, Rounding::Truncate), 0);
    }

    #[test]
    fn native_width_agrees_with_the_wide_one() {
        // Every 12-bit pattern at the bottom of the word and again with
        // its top bit at bit 63, at every shift that keeps a bit.
        for mode in [Rounding::NearestEven, Rounding::Truncate] {
            for low in 0u64..4096 {
                for sig in [low, low << 52, (low << 52) | 1, u64::MAX - low] {
                    for shift in 0..64u32 {
                        assert_eq!(
                            round_shift_u64(sig, shift, mode) as u128,
                            round_shift(sig as u128, shift, mode),
                            "sig={sig:b} shift={shift} {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn msb_positions() {
        assert_eq!(msb(1), 0);
        assert_eq!(msb(0b100), 2);
        assert_eq!(msb(u128::MAX), 127);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn msb_zero_panics() {
        msb(0);
    }
}
