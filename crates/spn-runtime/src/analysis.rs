//! Scaling-potential analysis: the closed-form studies behind Fig. 5
//! and the PCIe outlook of Section V-C.
//!
//! Fig. 5 asks: *ignoring* logic resources and host-link bandwidth, how
//! many accelerator cores could the HBM itself feed? Each core consumes
//! `rate × (input + result) bytes/s`; the limits are the measured
//! single-channel throughput (~12 GiB/s), the practical 32-channel
//! aggregate (~384 GiB/s) and the vendor's theoretical 460 GB/s.
//! The outlook swaps the PCIe generation to show when the host link
//! stops being the bottleneck.

use mem_model::{ClockConfig, HbmConfig};
use pcie_model::{PcieGeneration, PcieLink};
use serde::{Deserialize, Serialize};
use sim_core::Bandwidth;
use spn_core::NipsBenchmark;
use spn_hw::AcceleratorConfig;

/// The three HBM reference lines of Fig. 5.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HbmLimits {
    /// Measured single-channel throughput ("HBM" line).
    pub single_channel: Bandwidth,
    /// 32 channels at measured throughput ("HBM max_p").
    pub practical: Bandwidth,
    /// Vendor theoretical peak ("HBM max_t", 460 GB/s).
    pub theoretical: Bandwidth,
}

/// Compute the reference lines from the device model.
pub fn hbm_limits() -> HbmLimits {
    let cfg = HbmConfig::xup_vvh(ClockConfig::Half225DoubleWidth);
    HbmLimits {
        single_channel: cfg.channel.sustained_bandwidth(),
        practical: cfg.practical_peak(),
        theoretical: cfg.theoretical_peak,
    }
}

/// Memory bandwidth one core of `bench` consumes at full tilt.
pub(crate) fn per_core_bandwidth(bench: NipsBenchmark, accel: &AcceleratorConfig) -> Bandwidth {
    let rate = accel.compute_rate(bench.input_bytes_per_sample());
    Bandwidth::from_bytes_per_sec(rate * bench.total_bytes_per_sample() as f64)
}

/// Required aggregate memory throughput at a given core count
/// (one Fig. 5 curve point).
pub fn required_bandwidth(
    bench: NipsBenchmark,
    cores: u32,
    accel: &AcceleratorConfig,
) -> Bandwidth {
    per_core_bandwidth(bench, accel).scaled(cores as f64)
}

/// Largest core count the HBM's practical aggregate can feed.
pub fn max_cores_by_hbm(bench: NipsBenchmark, accel: &AcceleratorConfig) -> u32 {
    let limits = hbm_limits();
    let per_core = per_core_bandwidth(bench, accel).bytes_per_sec();
    (limits.practical.bytes_per_sec() / per_core) as u32
}

/// One row of the PCIe-outlook table (Section V-C).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OutlookRow {
    /// Link generation.
    pub generation: PcieGeneration,
    /// Practical single-direction bandwidth of that generation.
    pub link_bandwidth: Bandwidth,
    /// End-to-end samples/s the link supports for this benchmark
    /// (combined input+result traffic on a shared engine).
    pub link_bound_rate: f64,
    /// Cores that rate keeps busy.
    pub cores_supported: u32,
}

/// The outlook: how each PCIe generation moves the host-link bound.
pub fn pcie_outlook(bench: NipsBenchmark, accel: &AcceleratorConfig) -> Vec<OutlookRow> {
    let per_core_rate = accel.compute_rate(bench.input_bytes_per_sample());
    PcieGeneration::ALL
        .iter()
        .map(|&generation| {
            let link = PcieLink::future(generation);
            let bw = link.practical_per_direction();
            let rate = bw.bytes_per_sec() / bench.total_bytes_per_sample() as f64;
            OutlookRow {
                generation,
                link_bandwidth: bw,
                link_bound_rate: rate,
                cores_supported: (rate / per_core_rate).floor() as u32,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::GIB;
    use spn_hw::DatapathProgram;

    /// Arithmetic intensity of a benchmark: datapath operations per
    /// byte moved — the paper's stated reason memory becomes the
    /// bottleneck ("the relatively low arithmetic intensity of SPN
    /// inference").
    struct ArithmeticIntensity {
        /// Arithmetic operations (muls + adds + lookups) per sample.
        ops_per_sample: f64,
        /// Operations per byte moved (input + result).
        intensity: f64,
    }

    /// A benchmark's arithmetic intensity, from its compiled datapath.
    fn arithmetic_intensity(bench: NipsBenchmark) -> ArithmeticIntensity {
        let counts = DatapathProgram::compile(&bench.build_spn()).op_counts();
        let ops = (counts.total_muls() + counts.adds + counts.lookups) as f64;
        ArithmeticIntensity {
            ops_per_sample: ops,
            intensity: ops / bench.total_bytes_per_sample() as f64,
        }
    }

    /// Roofline bound: attainable op rate given compute peak and memory
    /// bandwidth — `min(peak_ops, intensity x bandwidth)`.
    fn roofline_ops_per_sec(
        intensity: f64,
        peak_ops_per_sec: f64,
        mem_bandwidth: Bandwidth,
    ) -> f64 {
        peak_ops_per_sec.min(intensity * mem_bandwidth.bytes_per_sec())
    }

    fn accel() -> AcceleratorConfig {
        AcceleratorConfig::paper_default()
    }

    #[test]
    fn limits_match_paper_numbers() {
        let l = hbm_limits();
        assert!((l.single_channel.gib_per_sec() - 12.0).abs() < 0.5);
        assert!((l.practical.gib_per_sec() - 384.0).abs() < 15.0);
        assert!((l.theoretical.gb_per_sec() - 460.0).abs() < 0.1);
    }

    #[test]
    fn nips10_per_core_needs_2_23_gib() {
        // §V-B's arithmetic.
        let bw = per_core_bandwidth(NipsBenchmark::Nips10, &accel());
        assert!(
            (bw.gib_per_sec() - 2.23).abs() < 0.05,
            "{}",
            bw.gib_per_sec()
        );
    }

    #[test]
    fn nips10_128_cores_need_285_gib() {
        // §V-C: "32 * 4 * 2.23 GiB/s = 285 GiB/s".
        let bw = required_bandwidth(NipsBenchmark::Nips10, 128, &accel());
        assert!(
            (bw.gib_per_sec() - 285.0).abs() < 5.0,
            "{}",
            bw.gib_per_sec()
        );
        // Still below both the practical and theoretical limits.
        let l = hbm_limits();
        assert!(bw.bytes_per_sec() < l.practical.bytes_per_sec());
        assert!(bw.bytes_per_sec() < l.theoretical.bytes_per_sec());
    }

    #[test]
    fn hbm_feeds_64_cores_for_all_benchmarks_128_for_nips10() {
        // Fig. 5's conclusion.
        for bench in spn_core::ALL_BENCHMARKS {
            let max = max_cores_by_hbm(bench, &accel());
            assert!(max >= 64, "{}: HBM feeds only {max} cores", bench.name());
        }
        assert!(max_cores_by_hbm(NipsBenchmark::Nips10, &accel()) >= 128);
    }

    #[test]
    fn single_channel_accommodates_four_nips10_cores() {
        // §V-C: "a channel is easily able to accommodate at least four
        // accelerators".
        let per_core = per_core_bandwidth(NipsBenchmark::Nips10, &accel());
        let channel = hbm_limits().single_channel;
        assert!(per_core.bytes_per_sec() * 4.0 < channel.bytes_per_sec());
    }

    #[test]
    fn outlook_rates_scale_with_generation() {
        let rows = pcie_outlook(NipsBenchmark::Nips80, &accel());
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(w[1].link_bound_rate > w[0].link_bound_rate * 1.9);
        }
        // Gen3 supports ~142 M NIPS80 samples/s (11.64 GiB/s / 88 B).
        let gen3 = rows[0].link_bound_rate;
        let expect = 11.64 * GIB as f64 / 88.0;
        assert!((gen3 - expect).abs() / expect < 0.01);
        // Gen6 unlocks 8x.
        assert!((rows[3].link_bound_rate / gen3 - 8.0).abs() < 0.5);
    }

    #[test]
    fn spn_inference_has_low_arithmetic_intensity() {
        // The paper's premise: a few ops per byte, far below the
        // 10-100 ops/byte where compute-bound kicks in on CPUs/GPUs.
        for bench in spn_core::ALL_BENCHMARKS {
            let ai = arithmetic_intensity(bench);
            assert!(
                ai.intensity < 10.0,
                "{}: {} ops/byte",
                bench.name(),
                ai.intensity
            );
            assert!(ai.intensity > 0.5);
        }
    }

    #[test]
    fn roofline_classifies_platforms() {
        let ai = arithmetic_intensity(NipsBenchmark::Nips10);
        // A Xeon-class machine (~50 G ops/s effective, ~60 GB/s DRAM):
        // memory-bound at this intensity? intensity * 60 GB/s vs peak.
        let mem = Bandwidth::from_gb_per_sec(60.0);
        let bound = roofline_ops_per_sec(ai.intensity, 50e9, mem);
        assert!(bound <= 50e9);
        // One accelerator core + its dedicated HBM channel: the channel
        // supplies far more ops-worth of data than the core consumes —
        // compute-bound on the FPGA, the paper's design point.
        let channel = hbm_limits().single_channel;
        let core_ops = 133.1e6 * ai.ops_per_sample;
        let fpga_bound = roofline_ops_per_sec(ai.intensity, core_ops, channel);
        assert!(
            (fpga_bound - core_ops).abs() < 1e-6 * core_ops,
            "FPGA core is compute-bound on its channel"
        );
    }

    #[test]
    fn outlook_core_counts_grow() {
        let rows = pcie_outlook(NipsBenchmark::Nips10, &accel());
        // Gen3 keeps ~5 NIPS10 cores busy; Gen6 over 40.
        assert!((4..=6).contains(&rows[0].cores_supported), "{:?}", rows[0]);
        assert!(rows[3].cores_supported >= 40);
    }
}
