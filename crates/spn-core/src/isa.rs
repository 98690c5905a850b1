//! Instruction-set tiers for the lane kernels: the one place that asks
//! the CPU what it has and runs a kernel body compiled for it.
//!
//! The plan's chunk kernel ([`crate::plan`]) and `spn-hw`'s synthesised
//! datapath are each written once, as an `#[inline(always)]`
//! [`Kernel::run`]; [`run`] instantiates it once per [`Tier`] and calls
//! the widest the CPU supports. That cannot change a bit: no fused
//! multiply-add is enabled and Rust never contracts `a * b + c`, so a
//! wider register only holds more lanes of the same operations. This
//! module is the workspace's only user of `#[target_feature]` and of
//! feature detection, and holds its one `unsafe` block.

/// An instruction-set tier, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The build's default target features (SSE2 on x86-64).
    Base,
    /// AVX2 with BMI1, BMI2 and LZCNT: four 64-bit lanes to a register.
    Avx2,
    /// AVX-512 F, DQ, CD, BW and VL on top of [`Tier::Avx2`]: eight
    /// 64-bit lanes to a register, mask registers, packed 64-bit min/max.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Base, Tier::Avx2, Tier::Avx512];
}

/// The widest tier the running CPU supports.
pub fn tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if has!("avx2") && has!("bmi1") && has!("bmi2") && has!("lzcnt") {
            let avx512 = has!("avx512f")
                && has!("avx512dq")
                && has!("avx512cd")
                && has!("avx512bw")
                && has!("avx512vl");
            return if avx512 { Tier::Avx512 } else { Tier::Avx2 };
        }
    }
    Tier::Base
}

/// A kernel body to compile once per [`Tier`]: a pass over byte rows
/// that writes into `out`. `run` must be `#[inline(always)]`, as must all
/// it calls on the hot path: only code inlined into a tier's wrapper is
/// compiled for that tier.
pub trait Kernel {
    /// What the kernel writes its results into.
    type Out: ?Sized;
    /// Run the kernel over `rows`.
    fn run(&self, rows: &[u8], out: &mut Self::Out);
}

/// Run `kernel` compiled for the widest tier this CPU supports.
pub fn run<K: Kernel>(kernel: &K, rows: &[u8], out: &mut K::Out) {
    run_on(tier(), kernel, rows, out)
}

/// Run `kernel` compiled for `at`. Outside tests, `at` is [`tier()`].
///
/// # Panics
/// Panics if `at` is wider than [`tier()`].
pub fn run_on<K: Kernel>(at: Tier, kernel: &K, rows: &[u8], out: &mut K::Out) {
    assert!(at <= tier(), "this CPU does not support the {at:?} tier");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the assert above checked that the CPU has every feature the
    // chosen wrapper enables, the only requirement it adds to the body.
    return unsafe {
        match at {
            Tier::Base => kernel.run(rows, out),
            Tier::Avx2 => avx2(kernel, rows, out),
            Tier::Avx512 => avx512(kernel, rows, out),
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    kernel.run(rows, out)
}

/// The kernel body compiled with 256-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,lzcnt")]
fn avx2<K: Kernel>(kernel: &K, rows: &[u8], out: &mut K::Out) {
    kernel.run(rows, out)
}

/// The kernel body compiled with 512-bit registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,avx512f,avx512dq,avx512cd,avx512bw,avx512vl")]
fn avx512<K: Kernel>(kernel: &K, rows: &[u8], out: &mut K::Out) {
    kernel.run(rows, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends the byte sum of its rows.
    struct Sum;

    impl Kernel for Sum {
        type Out = Vec<u32>;
        #[inline(always)]
        fn run(&self, rows: &[u8], out: &mut Vec<u32>) {
            out.push(rows.iter().map(|&b| u32::from(b)).sum());
        }
    }

    /// What a supported tier computes is checked by both kernels'
    /// `every_instantiation_of_the_kernel_computes_the_same_bits`; this is
    /// the refusal `run_on`'s `unsafe` block relies on.
    #[test]
    fn a_tier_above_the_cpu_panics() {
        if tier() == Tier::Avx512 {
            println!("SKIPPED: this CPU supports every tier");
            return;
        }
        let wider = Tier::ALL[tier() as usize + 1];
        let caught = std::panic::catch_unwind(|| run_on(wider, &Sum, &[], &mut Vec::new()));
        assert!(caught.is_err(), "{wider:?} ran on a {:?} CPU", tier());
    }
}
