//! PCIe link generations and their bandwidth envelopes.
//!
//! The paper's central bottleneck analysis (Sections V-B/V-C) hinges on
//! a few numbers, all encoded here:
//!
//! * PCIe 3.0 x16 theoretical one-directional: 15.754 GB/s (≈14.67 GiB/s);
//! * what DMA engines actually reach: ~100 Gbit/s ≈ 11.64 GiB/s
//!   (Xilinx QDMA, Corundum);
//! * the outlook: practical single-direction rates of ~23 / 46 / 92
//!   GiB/s for PCIe 4.0 / 5.0 / 6.0.
//!
//! Links are full duplex: host-to-device and device-to-host transfers do
//! not share bandwidth, which the paper's overlap scheme exploits.

use serde::{Deserialize, Serialize};
use sim_core::Bandwidth;

/// PCIe protocol generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcieGeneration {
    /// 8 GT/s per lane, 128b/130b encoding (the paper's card).
    Gen3,
    /// 16 GT/s per lane.
    Gen4,
    /// 32 GT/s per lane.
    Gen5,
    /// 64 GT/s per lane (PAM4 + FLIT).
    Gen6,
}

impl PcieGeneration {
    /// All generations discussed in the paper's outlook.
    pub const ALL: [PcieGeneration; 4] = [
        PcieGeneration::Gen3,
        PcieGeneration::Gen4,
        PcieGeneration::Gen5,
        PcieGeneration::Gen6,
    ];

    /// Per-lane raw rate in GT/s.
    pub(crate) fn gt_per_sec(self) -> f64 {
        match self {
            PcieGeneration::Gen3 => 8.0,
            PcieGeneration::Gen4 => 16.0,
            PcieGeneration::Gen5 => 32.0,
            PcieGeneration::Gen6 => 64.0,
        }
    }

    /// Line-encoding efficiency (payload bits per transferred bit).
    pub(crate) fn encoding_efficiency(self) -> f64 {
        match self {
            // 128b/130b for Gen3-5; Gen6 FLIT mode has similar framing
            // efficiency at this level of abstraction.
            PcieGeneration::Gen3 | PcieGeneration::Gen4 | PcieGeneration::Gen5 => 128.0 / 130.0,
            PcieGeneration::Gen6 => 0.985,
        }
    }

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            PcieGeneration::Gen3 => "PCIe 3.0",
            PcieGeneration::Gen4 => "PCIe 4.0",
            PcieGeneration::Gen5 => "PCIe 5.0",
            PcieGeneration::Gen6 => "PCIe 6.0",
        }
    }
}

/// A PCIe link: generation × lane count, plus the practical efficiency
/// of the DMA engine driving it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PcieLink {
    /// Protocol generation.
    pub generation: PcieGeneration,
    /// Lane count (x1..x16).
    pub lanes: u32,
    /// Fraction of the theoretical rate a real DMA engine sustains
    /// (TLP headers, flow control, descriptor fetch, engine limits).
    /// Calibrated so Gen3 x16 lands on the ~11.64 GiB/s the paper quotes
    /// for 100G-class engines.
    pub dma_efficiency: f64,
}

impl PcieLink {
    /// The paper's accelerator-card link: Gen3 x16 with a QDMA-class
    /// engine.
    pub(crate) fn paper_gen3_x16() -> Self {
        PcieLink {
            generation: PcieGeneration::Gen3,
            lanes: 16,
            dma_efficiency: 0.7936,
        }
    }

    /// The same card on a future-generation slot (outlook analysis).
    pub fn future(generation: PcieGeneration) -> Self {
        PcieLink {
            generation,
            lanes: 16,
            dma_efficiency: 0.7936,
        }
    }

    /// Theoretical one-directional bandwidth (datasheet convention).
    pub(crate) fn theoretical_per_direction(&self) -> Bandwidth {
        let raw_gbps = self.generation.gt_per_sec() * self.lanes as f64;
        Bandwidth::from_bytes_per_sec(raw_gbps * 1e9 / 8.0 * self.generation.encoding_efficiency())
    }

    /// Practical sustained one-directional DMA bandwidth.
    pub fn practical_per_direction(&self) -> Bandwidth {
        self.theoretical_per_direction().scaled(self.dma_efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x16_theoretical_matches_paper() {
        let l = PcieLink::paper_gen3_x16();
        // Paper: 15.754 GB/s = 14.67 GiB/s.
        let gb = l.theoretical_per_direction().bytes_per_sec() / 1e9;
        assert!((gb - 15.754).abs() < 0.01, "got {gb} GB/s");
        let gib = l.theoretical_per_direction().gib_per_sec();
        assert!((gib - 14.67).abs() < 0.02, "got {gib} GiB/s");
    }

    #[test]
    fn gen3_practical_matches_100g_engines() {
        // Paper: QDMA/Corundum reach ~100 Gbit/s = 11.6415 GiB/s.
        let l = PcieLink::paper_gen3_x16();
        let gib = l.practical_per_direction().gib_per_sec();
        assert!((gib - 11.64).abs() < 0.05, "got {gib} GiB/s");
    }

    #[test]
    fn outlook_generations_match_paper_projections() {
        // Paper §V-C: ~23, 46, 92 GiB/s practical for Gen4/5/6.
        let expect = [
            (PcieGeneration::Gen4, 23.0),
            (PcieGeneration::Gen5, 46.0),
            (PcieGeneration::Gen6, 92.0),
        ];
        for (gen, want) in expect {
            let got = PcieLink::future(gen)
                .practical_per_direction()
                .gib_per_sec();
            assert!(
                (got - want).abs() / want < 0.05,
                "{}: got {got}, want ~{want}",
                gen.name()
            );
        }
    }

    #[test]
    fn bandwidth_scales_with_lanes() {
        let x16 = PcieLink::paper_gen3_x16();
        let x8 = PcieLink { lanes: 8, ..x16 };
        let ratio = x16.theoretical_per_direction().bytes_per_sec()
            / x8.theoretical_per_direction().bytes_per_sec();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn generation_labels() {
        assert_eq!(PcieGeneration::Gen3.name(), "PCIe 3.0");
        assert_eq!(PcieGeneration::ALL.len(), 4);
    }
}
