//! FPGA resource estimation: the model behind Table I.
//!
//! A synthesized design's utilization decomposes into three layers:
//!
//! 1. **Datapath** — per arithmetic operator, dependent on the number
//!    format (CFP multipliers cost a fraction of the prior work's FP64
//!    operators — the paper's point 2 in Section V-A), plus LUTRAM/BRAM
//!    for the leaf tables and registers for pipeline balancing.
//! 2. **Per-core infrastructure** — load/store units, sample/result
//!    buffers, the AXI4-Lite register file, and (HBM designs) the
//!    SmartConnect to the channel.
//! 3. **Per-design infrastructure** — TaPaSCo interconnect, PCIe/DMA.
//!    On the F1 this additionally includes the mandatory shell and one
//!    *soft DDR4 controller per memory channel* — hard HBM controllers
//!    cost nothing, the paper's point 1.
//!
//! The constants below are calibrated against Table I; the `table1`
//! bench prints model vs paper per cell.

use crate::program::OpCounts;
use serde::{Deserialize, Serialize};

/// A bundle of FPGA resources.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Resources {
    /// kLUTs used as logic.
    pub klut_logic: f64,
    /// kLUTs used as memory (LUTRAM).
    pub klut_mem: f64,
    /// kRegisters.
    pub kregs: f64,
    /// BRAM tiles (36 Kb).
    pub bram: f64,
    /// DSP slices.
    pub dsp: f64,
}

impl Resources {
    /// Component-wise sum.
    pub(crate) fn plus(self, other: Resources) -> Resources {
        Resources {
            klut_logic: self.klut_logic + other.klut_logic,
            klut_mem: self.klut_mem + other.klut_mem,
            kregs: self.kregs + other.kregs,
            bram: self.bram + other.bram,
            dsp: self.dsp + other.dsp,
        }
    }

    /// Component-wise scale.
    pub(crate) fn times(self, k: f64) -> Resources {
        Resources {
            klut_logic: self.klut_logic * k,
            klut_mem: self.klut_mem * k,
            kregs: self.kregs * k,
            bram: self.bram * k,
            dsp: self.dsp * k,
        }
    }

    /// True when every component fits within `budget` after derating the
    /// budget by `utilization_ceiling` (routability margin: designs near
    /// 100% utilization fail timing/routing).
    pub fn fits_in(&self, budget: &Resources, utilization_ceiling: f64) -> bool {
        self.klut_logic <= budget.klut_logic * utilization_ceiling
            && self.klut_mem <= budget.klut_mem * utilization_ceiling
            && self.kregs <= budget.kregs * utilization_ceiling
            && self.bram <= budget.bram * utilization_ceiling
            && self.dsp <= budget.dsp * utilization_ceiling
    }
}

/// Per-operator costs of one arithmetic implementation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArithCosts {
    /// Variable × variable multiplier.
    pub mul: Resources,
    /// Constant (weight) multiplier — strength-reduced.
    pub const_mul: Resources,
    /// Adder.
    pub add: Resources,
    /// Value width in bits (register balancing cost per value-cycle).
    pub value_bits: u32,
    /// Leaf tables: bits storable per LUTRAM LUT (0 = tables go to BRAM).
    pub lutram_bits_per_lut: u32,
}

impl ArithCosts {
    /// The CFP(11,22) operators of this work (\[4\]): DSP-lean multipliers,
    /// LUT-based magnitude adders, tables in LUTRAM (33-bit entries fit).
    pub fn cfp_this_work() -> Self {
        ArithCosts {
            mul: Resources {
                klut_logic: 0.15,
                klut_mem: 0.0,
                kregs: 0.30,
                bram: 0.0,
                dsp: 2.0,
            },
            const_mul: Resources {
                klut_logic: 0.08,
                klut_mem: 0.0,
                kregs: 0.18,
                bram: 0.0,
                dsp: 1.0,
            },
            add: Resources {
                klut_logic: 0.25,
                klut_mem: 0.0,
                kregs: 0.28,
                bram: 0.0,
                dsp: 0.0,
            },
            value_bits: 33,
            lutram_bits_per_lut: 106,
        }
    }

    /// The prior work's double-precision operators (\[8\]): DSP-hungry
    /// multipliers, wide adders, 64-bit tables too wide for LUTRAM.
    pub fn fp64_prior_work() -> Self {
        ArithCosts {
            mul: Resources {
                klut_logic: 0.55,
                klut_mem: 0.0,
                kregs: 0.75,
                bram: 0.0,
                dsp: 6.0,
            },
            const_mul: Resources {
                klut_logic: 0.35,
                klut_mem: 0.0,
                kregs: 0.45,
                bram: 0.0,
                dsp: 3.0,
            },
            add: Resources {
                klut_logic: 0.75,
                klut_mem: 0.0,
                kregs: 0.70,
                bram: 0.0,
                dsp: 0.0,
            },
            value_bits: 64,
            lutram_bits_per_lut: 0, // tables spill to BRAM
        }
    }
}

/// Per-core and per-design infrastructure costs of a platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformCosts {
    /// Load/store units, buffers, register file, channel interconnect.
    pub per_core: Resources,
    /// Host interface, DMA, system interconnect, (F1) shell.
    pub base: Resources,
    /// Cost of one memory-controller instance (zero for hard HBM IP).
    pub per_memory_controller: Resources,
    /// Routability ceiling: fraction of device resources usable before
    /// routing/timing collapse.
    pub utilization_ceiling: f64,
}

impl PlatformCosts {
    /// This work: XUP-VVH with TaPaSCo, hard HBM controllers.
    pub fn hbm_this_work() -> Self {
        PlatformCosts {
            per_core: Resources {
                klut_logic: 8.0,
                klut_mem: 0.6,
                kregs: 20.0,
                bram: 8.0,
                dsp: 0.0,
            },
            base: Resources {
                klut_logic: 120.0,
                klut_mem: 58.0,
                kregs: 140.0,
                bram: 90.0,
                dsp: 0.0,
            },
            per_memory_controller: Resources::default(), // hard IP
            utilization_ceiling: 0.70,
        }
    }

    /// Prior work: AWS F1 with shell + soft DDR4 controllers.
    pub fn f1_prior_work() -> Self {
        PlatformCosts {
            per_core: Resources {
                klut_logic: 10.0,
                klut_mem: 1.2,
                kregs: 25.0,
                bram: 12.0,
                dsp: 0.0,
            },
            base: Resources {
                klut_logic: 110.0,
                klut_mem: 28.0,
                kregs: 160.0,
                bram: 200.0,
                dsp: 0.0,
            },
            per_memory_controller: Resources {
                klut_logic: 32.0,
                klut_mem: 2.0,
                kregs: 28.0,
                bram: 28.0,
                dsp: 0.0,
            },
            utilization_ceiling: 0.72,
        }
    }
}

/// Estimate the datapath cost of one core from its op counts.
pub fn datapath_cost(counts: &OpCounts, arith: &ArithCosts, balance_registers: u64) -> Resources {
    let mut r = arith
        .mul
        .times(counts.muls as f64)
        .plus(arith.const_mul.times(counts.const_muls as f64))
        .plus(arith.add.times(counts.adds as f64));
    // Pipeline-balancing registers: value_bits per value-cycle of delay.
    r.kregs += balance_registers as f64 * arith.value_bits as f64 / 1000.0;
    // Leaf tables.
    let table_bits = counts.table_entries as f64 * arith.value_bits as f64;
    if arith.lutram_bits_per_lut > 0 {
        r.klut_mem += table_bits / arith.lutram_bits_per_lut as f64 / 1000.0;
    } else {
        r.bram += table_bits / 36_000.0; // 36 Kb BRAM tiles
    }
    r
}

/// Estimate a full design: `cores` accelerator cores plus `controllers`
/// memory-controller instances plus the platform base.
pub fn design_cost(
    core_datapath: Resources,
    platform: &PlatformCosts,
    cores: u32,
    controllers: u32,
) -> Resources {
    core_datapath
        .plus(platform.per_core)
        .times(cores as f64)
        .plus(platform.per_memory_controller.times(controllers as f64))
        .plus(platform.base)
}

/// The largest core count that fits the device (each core paired with a
/// dedicated memory channel, capped by `max_channels`).
pub fn max_cores(
    core_datapath: Resources,
    platform: &PlatformCosts,
    available: &Resources,
    max_channels: u32,
) -> u32 {
    let mut best = 0;
    for n in 1..=max_channels {
        // HBM: controllers are free and per-channel; DDR designs pass
        // their controller costs via per_memory_controller with one
        // controller per core here (dedicated-channel configuration).
        let cost = design_cost(core_datapath, platform, n, n);
        if cost.fits_in(available, platform.utilization_ceiling) {
            best = n;
        } else {
            break;
        }
    }
    best
}

/// Convert a calibration [`crate::calib::Table1Row`] to a [`Resources`].
pub fn row_to_resources(row: &crate::calib::Table1Row) -> Resources {
    Resources {
        klut_logic: row.klut_logic,
        klut_mem: row.klut_mem,
        kregs: row.kregs,
        bram: row.bram as f64,
        dsp: row.dsp as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::pipeline::{OpLatencies, PipelineSchedule};
    use crate::program::DatapathProgram;
    use spn_core::{NipsBenchmark, TABLE1_BENCHMARKS};

    fn model_row(bench: NipsBenchmark, arith: &ArithCosts, platform: &PlatformCosts) -> Resources {
        let prog = DatapathProgram::compile(&bench.build_spn());
        let sched = PipelineSchedule::asap(&prog, &OpLatencies::cfp());
        let dp = datapath_cost(&prog.op_counts(), arith, sched.balance_registers);
        let controllers = 4;
        design_cost(dp, platform, 4, controllers)
    }

    #[test]
    fn model_tracks_table1_new_within_tolerance() {
        let arith = ArithCosts::cfp_this_work();
        let platform = PlatformCosts::hbm_this_work();
        for (bench, row) in TABLE1_BENCHMARKS.iter().zip(&calib::TABLE1_NEW) {
            let m = model_row(*bench, &arith, &platform);
            let checks = [
                ("klut_logic", m.klut_logic, row.klut_logic),
                ("klut_mem", m.klut_mem, row.klut_mem),
                ("kregs", m.kregs, row.kregs),
                ("bram", m.bram, row.bram as f64),
                ("dsp", m.dsp, row.dsp as f64),
            ];
            for (name, model, paper) in checks {
                let rel = (model - paper).abs() / paper;
                assert!(
                    rel < 0.45,
                    "{} {name}: model {model:.1} vs paper {paper:.1} ({:.0}% off)",
                    row.benchmark,
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn model_tracks_table1_prior_within_tolerance() {
        let arith = ArithCosts::fp64_prior_work();
        let platform = PlatformCosts::f1_prior_work();
        for (bench, row) in TABLE1_BENCHMARKS.iter().zip(&calib::TABLE1_PRIOR) {
            let m = model_row(*bench, &arith, &platform);
            let checks = [
                ("klut_logic", m.klut_logic, row.klut_logic),
                ("kregs", m.kregs, row.kregs),
                ("bram", m.bram, row.bram as f64),
                ("dsp", m.dsp, row.dsp as f64),
            ];
            for (name, model, paper) in checks {
                let rel = (model - paper).abs() / paper;
                assert!(
                    rel < 0.45,
                    "{} {name}: model {model:.1} vs paper {paper:.1} ({:.0}% off)",
                    row.benchmark,
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn new_design_is_roughly_3x_leaner_in_dsp() {
        // The paper's headline Table I observation.
        for bench in TABLE1_BENCHMARKS {
            let new = model_row(
                bench,
                &ArithCosts::cfp_this_work(),
                &PlatformCosts::hbm_this_work(),
            );
            let prior = model_row(
                bench,
                &ArithCosts::fp64_prior_work(),
                &PlatformCosts::f1_prior_work(),
            );
            let ratio = prior.dsp / new.dsp;
            assert!(
                (2.5..3.5).contains(&ratio),
                "{}: DSP ratio {ratio}",
                bench.name()
            );
            assert!(prior.klut_logic / new.klut_logic > 1.8);
            assert!(prior.kregs / new.kregs > 1.5);
        }
    }

    #[test]
    fn nips80_core_counts_match_paper() {
        let prog = DatapathProgram::compile(&NipsBenchmark::Nips80.build_spn());
        let sched = PipelineSchedule::asap(&prog, &OpLatencies::cfp());
        let counts = prog.op_counts();

        let new_dp = datapath_cost(
            &counts,
            &ArithCosts::cfp_this_work(),
            sched.balance_registers,
        );
        let new_max = max_cores(
            new_dp,
            &PlatformCosts::hbm_this_work(),
            &row_to_resources(&calib::AVAILABLE_NEW),
            32,
        );
        assert!(
            new_max >= calib::core_counts::NEW_NIPS80_MAX,
            "HBM design should fit >= 8 NIPS80 cores, model says {new_max}"
        );

        let prior_dp = datapath_cost(
            &counts,
            &ArithCosts::fp64_prior_work(),
            sched.balance_registers,
        );
        let prior_max = max_cores(
            prior_dp,
            &PlatformCosts::f1_prior_work(),
            &row_to_resources(&calib::AVAILABLE_PRIOR),
            4,
        );
        assert_eq!(
            prior_max,
            calib::core_counts::PRIOR_NIPS80_MAX,
            "prior work fit exactly 2 NIPS80 cores"
        );
    }

    #[test]
    fn resources_algebra() {
        let a = Resources {
            klut_logic: 1.0,
            klut_mem: 2.0,
            kregs: 3.0,
            bram: 4.0,
            dsp: 5.0,
        };
        let b = a.times(2.0).plus(a);
        assert_eq!(b.klut_logic, 3.0);
        assert_eq!(b.dsp, 15.0);
        let budget = Resources {
            klut_logic: 10.0,
            klut_mem: 10.0,
            kregs: 10.0,
            bram: 13.0,
            dsp: 15.0,
        };
        assert!(b.fits_in(&budget, 1.0));
        assert!(!b.fits_in(&budget, 0.5));
    }

    #[test]
    fn bigger_benchmarks_cost_more() {
        let arith = ArithCosts::cfp_this_work();
        let platform = PlatformCosts::hbm_this_work();
        let costs: Vec<f64> = TABLE1_BENCHMARKS
            .iter()
            .map(|b| model_row(*b, &arith, &platform).dsp)
            .collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
    }
}
