//! # spn-arith — bit-accurate FPGA number-format emulation
//!
//! The paper's accelerators do not compute in IEEE doubles: the datapath
//! generator emits hardware in a Custom Floating-Point format (CFP, \[4\]),
//! a Logarithmic Number System (LNS, \[11\]) or posits (via PaCoGen).
//! This crate emulates those formats bit-accurately in software so the
//! datapath simulator in `spn-hw` produces exactly the values the
//! hardware would:
//!
//! * [`CfpFormat`] — unsigned float, configurable exponent/mantissa
//!   widths and rounding, saturating, flush-to-zero; `add`/`mul` round
//!   exact integer intermediates, correct for every width and rounding
//!   mode. A round trip through `f64` is innocuous only for
//!   round-to-nearest-even with `mant_bits ≤ 24` (see [`cfp`]); `spn-hw`
//!   relies on that to run such formats on the `f64` unit, with this
//!   emulation as its oracle.
//! * [`LnsFormat`] — fixed-point base-2 logarithm with an explicit zero
//!   flag; exact multiplication, Gaussian-logarithm addition with a
//!   configurable table precision.
//! * [`PositFormat`] — standard posits with regime/exponent/fraction
//!   decoding and nearest-ties-to-even-pattern encoding.
//! * [`F64Format`] — the reference arithmetic.
//!
//! All formats implement [`SpnNumber`], the arithmetic interface of the
//! generic datapath, and [`error`] quantifies their deviation from the
//! `f64` reference, reproducing the methodology of \[4\].

pub mod cfp;
pub mod error;
pub mod format;
pub mod lns;
pub mod posit;
pub mod round;

pub use cfp::{Cfp, CfpFormat};
pub use error::ErrorStats;
pub use format::{truncating_cfp, AnyFormat, F64Format, RangeLimits, SpnNumber};
pub use lns::{Lns, LnsFormat};
pub use posit::{Posit, PositFormat};
pub use round::Rounding;
