//! A common interface over all emulated number formats.
//!
//! The hardware datapath simulator (`spn-hw`) is generic over the
//! arithmetic: the same pipeline schedule can execute in CFP, LNS, posit
//! or reference `f64`. [`SpnNumber`] captures exactly the operations an
//! SPN datapath needs — non-negative values, addition, multiplication,
//! and conversion at the boundary — and nothing more.

use crate::cfp::{Cfp, CfpFormat};
use crate::lns::{Lns, LnsFormat};
use crate::posit::{Posit, PositFormat};
use crate::round::Rounding;
use serde::{Deserialize, Serialize};

/// The arithmetic interface of an SPN datapath.
///
/// Implementors carry the format configuration; values are plain `Copy`
/// payloads, mirroring hardware where the format is synthesis-time and
/// the values are wires.
#[allow(clippy::wrong_self_convention)] // `from_f64` mirrors hardware converter naming
pub trait SpnNumber {
    /// The value representation.
    type Value: Copy + PartialEq + std::fmt::Debug;

    /// Encode a non-negative `f64` (the converter at the datapath input).
    fn from_f64(&self, x: f64) -> Self::Value;
    /// Decode to `f64` (the converter at the datapath output).
    fn to_f64(&self, v: Self::Value) -> f64;
    /// The additive identity.
    fn zero(&self) -> Self::Value;
    /// The multiplicative identity.
    fn one(&self) -> Self::Value;
    /// Hardware adder.
    fn add(&self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// Hardware multiplier.
    fn mul(&self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// [`SpnNumber::mul`] lane by lane: `out[i] = mul(a[i], b[i])` over
    /// the shortest of the three slices. A format overrides it where
    /// deciding something once for all lanes keeps the loop vectorisable.
    #[inline(always)]
    fn mul_lanes(&self, out: &mut [Self::Value], a: &[Self::Value], b: &[Self::Value]) {
        for ((d, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *d = self.mul(x, y);
        }
    }
    /// Where this format's `mul` and `add` reduce to rounding alone,
    /// for a datapath generator that sizes its operators from the
    /// ranges of their operands. `None`, the default, proves nothing:
    /// every op then runs checked.
    fn range_limits(&self) -> Option<RangeLimits> {
        None
    }
    /// [`SpnNumber::mul`] where the exact product is known to lie in
    /// `{0} ∪ [flush_below, saturate_above]` of [`SpnNumber::range_limits`].
    /// The default is the checked `mul`.
    #[inline(always)]
    fn mul_in_range(&self, a: Self::Value, b: Self::Value) -> Self::Value {
        self.mul(a, b)
    }
    /// [`SpnNumber::add`] where the exact sum is known to lie in
    /// `{0} ∪ [flush_below, saturate_above]` of [`SpnNumber::range_limits`].
    /// The default is the checked `add`.
    #[inline(always)]
    fn add_in_range(&self, a: Self::Value, b: Self::Value) -> Self::Value {
        self.add(a, b)
    }
    /// Human-readable format label for reports.
    fn describe(&self) -> String;
}

/// A format's range limits ([`SpnNumber::range_limits`]).
///
/// Every nonzero value of the format lies in
/// `[flush_below, saturate_above]`. A `mul` or `add` whose exact result
/// is 0 or inside that interval is neither flushed nor saturated, so
/// [`SpnNumber::mul_in_range`] / [`SpnNumber::add_in_range`] give its
/// bits, and its rounded result lies within a factor `1 ± unit_roundoff`
/// of the exact one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeLimits {
    /// A nonzero exact result at or above this is not flushed to zero.
    pub flush_below: f64,
    /// An exact result at or below this is not saturated.
    pub saturate_above: f64,
    /// The largest relative error of one rounding.
    pub unit_roundoff: f64,
}

impl SpnNumber for CfpFormat {
    type Value = Cfp;

    fn from_f64(&self, x: f64) -> Cfp {
        CfpFormat::from_f64(self, x)
    }
    // `to_f64`/`add`/`mul` are `#[inline(always)]` all the way down so
    // a datapath kernel generic over the format, compiled in another
    // crate and perhaps for wider registers, gets the branch-free
    // integer arithmetic itself, not a call per operation it cannot
    // vectorise.
    #[inline(always)]
    fn to_f64(&self, v: Cfp) -> f64 {
        CfpFormat::to_f64(self, v)
    }
    fn zero(&self) -> Cfp {
        Cfp::ZERO
    }
    fn one(&self) -> Cfp {
        CfpFormat::one(self)
    }
    #[inline(always)]
    fn add(&self, a: Cfp, b: Cfp) -> Cfp {
        CfpFormat::add(self, a, b)
    }
    #[inline(always)]
    fn mul(&self, a: Cfp, b: Cfp) -> Cfp {
        CfpFormat::mul(self, a, b)
    }
    #[inline(always)]
    fn mul_lanes(&self, out: &mut [Cfp], a: &[Cfp], b: &[Cfp]) {
        CfpFormat::mul_lanes(self, out, a, b)
    }
    fn describe(&self) -> String {
        format!(
            "CFP(e={}, m={}, {:?})",
            self.exp_bits, self.mant_bits, self.rounding
        )
    }
}

impl SpnNumber for LnsFormat {
    type Value = Lns;

    fn from_f64(&self, x: f64) -> Lns {
        LnsFormat::from_f64(self, x)
    }
    fn to_f64(&self, v: Lns) -> f64 {
        LnsFormat::to_f64(self, v)
    }
    fn zero(&self) -> Lns {
        Lns::ZERO
    }
    fn one(&self) -> Lns {
        LnsFormat::one(self)
    }
    fn add(&self, a: Lns, b: Lns) -> Lns {
        LnsFormat::add(self, a, b)
    }
    fn mul(&self, a: Lns, b: Lns) -> Lns {
        LnsFormat::mul(self, a, b)
    }
    fn describe(&self) -> String {
        format!("LNS({}.{})", self.int_bits, self.frac_bits)
    }
}

impl SpnNumber for PositFormat {
    type Value = Posit;

    fn from_f64(&self, x: f64) -> Posit {
        PositFormat::from_f64(self, x)
    }
    fn to_f64(&self, v: Posit) -> f64 {
        PositFormat::to_f64(self, v)
    }
    fn zero(&self) -> Posit {
        Posit::ZERO
    }
    fn one(&self) -> Posit {
        PositFormat::one(self)
    }
    fn add(&self, a: Posit, b: Posit) -> Posit {
        PositFormat::add(self, a, b)
    }
    fn mul(&self, a: Posit, b: Posit) -> Posit {
        PositFormat::mul(self, a, b)
    }
    fn describe(&self) -> String {
        format!("Posit({},{})", self.n, self.es)
    }
}

/// Reference arithmetic: native `f64`, the software baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct F64Format;

impl SpnNumber for F64Format {
    type Value = f64;

    fn from_f64(&self, x: f64) -> f64 {
        x
    }
    fn to_f64(&self, v: f64) -> f64 {
        v
    }
    fn zero(&self) -> f64 {
        0.0
    }
    fn one(&self) -> f64 {
        1.0
    }
    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }
    fn describe(&self) -> String {
        "f64".to_string()
    }
}

/// A dynamic choice between the supported formats, for CLI/config use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AnyFormat {
    /// Custom floating point.
    Cfp(CfpFormat),
    /// Logarithmic number system.
    Lns(LnsFormat),
    /// Posit.
    Posit(PositFormat),
    /// Reference f64.
    F64,
}

impl AnyFormat {
    /// The paper's evaluation configuration (CFP as chosen in \[4\]).
    pub fn paper_default() -> Self {
        AnyFormat::Cfp(CfpFormat::paper_default())
    }

    /// Parse from a short name: `cfp`, `lns`, `posit`, `f64`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cfp" => Some(AnyFormat::Cfp(CfpFormat::paper_default())),
            "lns" => Some(AnyFormat::Lns(LnsFormat::paper_default())),
            "posit" => Some(AnyFormat::Posit(PositFormat::paper_default())),
            "f64" => Some(AnyFormat::F64),
            _ => None,
        }
    }

    /// Human-readable label.
    pub fn describe(&self) -> String {
        match self {
            AnyFormat::Cfp(f) => f.describe(),
            AnyFormat::Lns(f) => f.describe(),
            AnyFormat::Posit(f) => f.describe(),
            AnyFormat::F64 => "f64".to_string(),
        }
    }
}

/// Convenience constructor mirroring \[4\]'s rounding study: CFP with
/// truncation instead of round-to-nearest-even.
pub fn truncating_cfp(exp_bits: u32, mant_bits: u32) -> CfpFormat {
    CfpFormat::new(exp_bits, mant_bits, Rounding::Truncate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<F: SpnNumber>(f: &F) {
        let a = f.from_f64(0.3);
        let b = f.from_f64(0.7);
        let s = f.to_f64(f.add(a, b));
        assert!((s - 1.0).abs() < 1e-4, "{}: 0.3+0.7 = {s}", f.describe());
        let p = f.to_f64(f.mul(a, b));
        assert!((p - 0.21).abs() < 1e-4, "{}: 0.3*0.7 = {p}", f.describe());
        assert_eq!(f.to_f64(f.zero()), 0.0);
        assert_eq!(f.to_f64(f.one()), 1.0);
    }

    #[test]
    fn all_formats_satisfy_the_trait_contract() {
        exercise(&CfpFormat::paper_default());
        exercise(&LnsFormat::paper_default());
        exercise(&PositFormat::paper_default());
        exercise(&F64Format);
    }

    #[test]
    fn any_format_from_name() {
        assert!(matches!(
            AnyFormat::from_name("cfp"),
            Some(AnyFormat::Cfp(_))
        ));
        assert!(matches!(
            AnyFormat::from_name("LNS"),
            Some(AnyFormat::Lns(_))
        ));
        assert!(matches!(
            AnyFormat::from_name("Posit"),
            Some(AnyFormat::Posit(_))
        ));
        assert!(matches!(AnyFormat::from_name("f64"), Some(AnyFormat::F64)));
        assert_eq!(AnyFormat::from_name("fp16"), None);
    }

    #[test]
    fn widths() {
        assert_eq!(CfpFormat::paper_default().width(), 33);
        assert_eq!(LnsFormat::paper_default().width(), 33);
        assert_eq!(PositFormat::paper_default().n, 32);
    }
}
