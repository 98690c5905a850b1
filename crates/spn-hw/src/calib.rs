//! Calibration data: every number the paper reports, in one place.
//!
//! Benches print these next to model output so EXPERIMENTS.md can track
//! paper-vs-measured cell by cell. Nothing in this module is *used* by
//! the models as an input — the models derive their numbers from op
//! counts and cost constants — with the exception of the reference
//! clock rates, which are design parameters, not results.

use serde::{Deserialize, Serialize};

/// One row of Table I: post-synthesis utilization of a 4-core design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// kLUTs used as logic.
    pub klut_logic: f64,
    /// kLUTs used as memory (LUTRAM).
    pub klut_mem: f64,
    /// kRegisters.
    pub kregs: f64,
    /// BRAM tiles.
    pub bram: u32,
    /// DSP slices.
    pub dsp: u32,
}

/// Table I, "New" columns (this work: 4 cores + 4 HBM channels on the
/// Bittware XUP-VVH / VU37P).
pub const TABLE1_NEW: [Table1Row; 4] = [
    Table1Row {
        benchmark: "NIPS10",
        klut_logic: 169.8,
        klut_mem: 66.9,
        kregs: 275.1,
        bram: 122,
        dsp: 200,
    },
    Table1Row {
        benchmark: "NIPS20",
        klut_logic: 180.5,
        klut_mem: 69.6,
        kregs: 320.7,
        bram: 126,
        dsp: 448,
    },
    Table1Row {
        benchmark: "NIPS30",
        klut_logic: 230.9,
        klut_mem: 70.4,
        kregs: 354.4,
        bram: 122,
        dsp: 696,
    },
    Table1Row {
        benchmark: "NIPS40",
        klut_logic: 241.2,
        klut_mem: 72.9,
        kregs: 401.6,
        bram: 132,
        dsp: 976,
    },
];

/// Table I, "\[8\]" columns (prior work: 4 cores + 4 DDR4 soft memory
/// controllers on AWS F1 / VU9P).
pub const TABLE1_PRIOR: [Table1Row; 4] = [
    Table1Row {
        benchmark: "NIPS10",
        klut_logic: 376.0,
        klut_mem: 45.4,
        kregs: 530.2,
        bram: 360,
        dsp: 612,
    },
    Table1Row {
        benchmark: "NIPS20",
        klut_logic: 467.0,
        klut_mem: 54.4,
        kregs: 650.6,
        bram: 388,
        dsp: 1356,
    },
    Table1Row {
        benchmark: "NIPS30",
        klut_logic: 577.3,
        klut_mem: 62.6,
        kregs: 765.4,
        bram: 364,
        dsp: 2100,
    },
    Table1Row {
        benchmark: "NIPS40",
        klut_logic: 664.1,
        klut_mem: 75.1,
        kregs: 907.1,
        bram: 380,
        dsp: 2940,
    },
];

/// Table I "Available" row for this work's FPGA (VU37P).
pub const AVAILABLE_NEW: Table1Row = Table1Row {
    benchmark: "Available",
    klut_logic: 1304.0,
    klut_mem: 601.0,
    kregs: 2607.0,
    bram: 2016,
    dsp: 9024,
};

/// Table I "Available" row for the prior work's FPGA (AWS F1 VU9P, after
/// the mandatory shell).
pub const AVAILABLE_PRIOR: Table1Row = Table1Row {
    benchmark: "Available",
    klut_logic: 1182.0,
    klut_mem: 592.0,
    kregs: 2364.0,
    bram: 2160,
    dsp: 6840,
};

/// Accelerator clock of this work's design (Section IV-A).
pub const ACCEL_CLOCK_HZ: u64 = 225_000_000;

/// §V-B: single-core NIPS10 rate (samples/s).
pub const PAPER_NIPS10_SINGLE_CORE: f64 = 133_139_305.0;
/// §V-B: five-core NIPS10 end-to-end rate (samples/s).
pub const PAPER_NIPS10_FIVE_CORE: f64 = 614_654_595.0;
/// §V-C: NIPS80 measured peak end-to-end rate (samples/s).
pub const PAPER_NIPS80_PEAK: f64 = 116_565_604.0;
/// §V-D: streaming-architecture (\[7\]) theoretical NIPS80 peak.
pub const PAPER_NIPS80_STREAMING_PEAK: f64 = 140_748_580.0;
/// §V-D: streaming architecture throughput (Gbit/s) from \[7\].
pub const PAPER_STREAMING_GBITS: f64 = 99.078;

/// §V-D / abstract: paper-reported maximum core counts.
pub mod core_counts {
    /// This work fits up to eight NIPS80 accelerators.
    #[cfg(test)]
    pub(crate) const NEW_NIPS80_MAX: u32 = 8;
    /// Prior work fit only two NIPS80 accelerators.
    #[cfg(test)]
    pub(crate) const PRIOR_NIPS80_MAX: u32 = 2;
    /// Both works use four cores for NIPS10–NIPS40 comparisons.
    pub const TABLE1_CORES: u32 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_complete_and_ordered() {
        assert_eq!(TABLE1_NEW.len(), TABLE1_PRIOR.len());
        for (n, p) in TABLE1_NEW.iter().zip(&TABLE1_PRIOR) {
            assert_eq!(n.benchmark, p.benchmark);
        }
        // Utilization grows monotonically with benchmark size in DSPs.
        assert!(TABLE1_NEW.windows(2).all(|w| w[0].dsp < w[1].dsp));
        assert!(TABLE1_PRIOR.windows(2).all(|w| w[0].dsp < w[1].dsp));
    }

    #[test]
    fn paper_reported_reductions_hold_in_the_reference_data() {
        // "approx. 66% fewer" logic LUTs / BRAM / DSPs; ~50% fewer regs.
        for (n, p) in TABLE1_NEW.iter().zip(&TABLE1_PRIOR) {
            let dsp_ratio = p.dsp as f64 / n.dsp as f64;
            assert!(
                (2.8..3.3).contains(&dsp_ratio),
                "{}: {dsp_ratio}",
                n.benchmark
            );
            let reg_ratio = p.kregs / n.kregs;
            assert!((1.8..2.3).contains(&reg_ratio));
            let bram_ratio = p.bram as f64 / n.bram as f64;
            assert!(bram_ratio > 2.5);
            let lut_ratio = p.klut_logic / n.klut_logic;
            assert!(lut_ratio > 2.0);
        }
    }

    #[test]
    fn everything_fits_in_available() {
        for r in TABLE1_NEW {
            assert!(r.klut_logic < AVAILABLE_NEW.klut_logic);
            assert!(r.dsp < AVAILABLE_NEW.dsp);
        }
        for r in TABLE1_PRIOR {
            assert!(r.klut_logic < AVAILABLE_PRIOR.klut_logic);
            assert!(r.dsp < AVAILABLE_PRIOR.dsp);
        }
    }
}
