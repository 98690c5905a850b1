//! Integration: the "shape" acceptance criteria from DESIGN.md — every
//! table/figure's qualitative result must hold in the models, so a
//! regression in any substrate that would bend a figure fails CI here.

use bench::baselines::{hbm_best_rate, F1Model, V100Model, XeonModel};
use mem_model::{ClockConfig, HbmChannelConfig};
use sim_core::geometric_mean;
use spn_core::{NipsBenchmark, ALL_BENCHMARKS};
use spn_hw::AcceleratorConfig;
use spn_runtime::analysis::{hbm_limits, max_cores_by_hbm, required_bandwidth};
use spn_runtime::perf::scaling_series;

/// Fig. 2: ramp + saturation at 1 MiB + clock-config equivalence.
#[test]
fn fig2_shape() {
    let native = HbmChannelConfig::calibrated(ClockConfig::Native450);
    let half = HbmChannelConfig::calibrated(ClockConfig::Half225DoubleWidth);
    let sat_n = native.effective_bandwidth(16 << 20).gib_per_sec();
    let sat_h = half.effective_bandwidth(16 << 20).gib_per_sec();
    assert!((sat_n - 12.0).abs() < 0.5 && (sat_h - 12.0).abs() < 0.5);
    assert!((sat_n - sat_h).abs() / sat_n < 0.01, "configs equivalent");
    // 1 MiB is effectively saturated; 4 KiB is far from it.
    assert!(half.effective_bandwidth(1 << 20).gib_per_sec() > 0.97 * sat_h);
    assert!(half.effective_bandwidth(4 << 10).gib_per_sec() < 0.5 * sat_h);
}

/// Fig. 4: linear scaling without transfers; saturation with them.
#[test]
fn fig4_shape() {
    let pes: Vec<u32> = (1..=8).collect();
    let wo = scaling_series(NipsBenchmark::Nips10, &pes, false, 1);
    let base = wo[0].1.samples_per_sec;
    for (n, r) in &wo {
        // 5% slack: 100 M samples in 2^20-sample blocks do not divide
        // evenly across e.g. 7 PEs, so the last round runs part-idle —
        // a real load-imbalance effect, not model noise.
        assert!(
            (r.samples_per_sec / base - *n as f64).abs() / (*n as f64) < 0.05,
            "linear w/o transfers at {n}"
        );
    }
    let w = scaling_series(NipsBenchmark::Nips10, &pes, true, 1);
    // Saturation: the last three points vary by < 10%.
    let tail: Vec<f64> = w[5..].iter().map(|(_, r)| r.samples_per_sec).collect();
    let spread = (tail.iter().cloned().fold(0.0, f64::max)
        - tail.iter().cloned().fold(f64::INFINITY, f64::min))
        / tail[0];
    assert!(spread < 0.10, "transfers-included curve flattens: {tail:?}");
    // And the flat level sits far below linear.
    assert!(w[7].1.samples_per_sec < 0.65 * wo[7].1.samples_per_sec);
}

/// Fig. 5: per-core bandwidth lines and HBM feeding capacity.
#[test]
fn fig5_shape() {
    let accel = AcceleratorConfig::paper_default();
    let limits = hbm_limits();
    // Required bandwidth is linear in cores and ordered by sample size
    // at fixed core count (among the 1-cycle benchmarks).
    for bench in ALL_BENCHMARKS {
        let one = required_bandwidth(bench, 1, &accel).bytes_per_sec();
        let many = required_bandwidth(bench, 32, &accel).bytes_per_sec();
        assert!((many / one - 32.0).abs() < 1e-9);
    }
    // 64 cores feasible for all; 128 for NIPS10.
    for bench in ALL_BENCHMARKS {
        assert!(max_cores_by_hbm(bench, &accel) >= 64, "{}", bench.name());
    }
    assert!(max_cores_by_hbm(NipsBenchmark::Nips10, &accel) >= 128);
    // Theoretical limit above practical above single channel.
    assert!(limits.theoretical.bytes_per_sec() > limits.practical.bytes_per_sec());
    assert!(limits.practical.bytes_per_sec() > 30.0 * limits.single_channel.bytes_per_sec());
}

/// Fig. 6: platform ordering, the NIPS10 CPU crossover, and geo-means.
#[test]
fn fig6_shape() {
    let xeon = XeonModel::default();
    let v100 = V100Model::default();
    let f1 = F1Model::default();

    let mut s_cpu = Vec::new();
    let mut s_f1 = Vec::new();
    let mut s_gpu = Vec::new();
    for bench in ALL_BENCHMARKS {
        let hbm = hbm_best_rate(bench);
        s_cpu.push(hbm / xeon.rate(bench));
        s_f1.push(hbm / f1.rate(bench));
        s_gpu.push(hbm / v100.rate(bench));
        // V100 is always the slowest platform.
        assert!(v100.rate(bench) < xeon.rate(bench).min(f1.rate(bench)));
    }
    // Crossover: CPU wins NIPS10 only.
    assert!(s_cpu[0] < 1.0, "CPU wins NIPS10");
    assert!(s_cpu[1..].iter().all(|s| *s > 1.0), "HBM wins NIPS20+");
    // Geo-means near the paper's 1.29 / 1.6 / 6.9.
    let g = |v: &[f64]| geometric_mean(v).unwrap();
    assert!((g(&s_f1) - 1.29).abs() < 0.2, "F1 geo {}", g(&s_f1));
    assert!((g(&s_cpu) - 1.6).abs() < 0.35, "CPU geo {}", g(&s_cpu));
    assert!((g(&s_gpu) - 6.9).abs() < 1.2, "V100 geo {}", g(&s_gpu));
    // Speedups vs F1 grow with benchmark size, peaking at NIPS80.
    assert!(
        s_f1[4]
            >= *s_f1[..4]
                .iter()
                .max_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap()
    );
}

/// §V-C outlook: each PCIe generation roughly doubles the link bound.
#[test]
fn outlook_shape() {
    let accel = AcceleratorConfig::paper_default();
    for bench in ALL_BENCHMARKS {
        let rows = spn_runtime::analysis::pcie_outlook(bench, &accel);
        for w in rows.windows(2) {
            let ratio = w[1].link_bound_rate / w[0].link_bound_rate;
            assert!((1.9..2.2).contains(&ratio), "{}: {ratio}", bench.name());
        }
    }
}

/// §V-D: streaming model sits ~17-25% above the paper's measured NIPS80.
#[test]
fn streaming_shape() {
    let m = spn_runtime::StreamingModel::paper_100g();
    // The paper's "about 17% increased performance": streaming/measured - 1.
    let adv = m.peak_rate(NipsBenchmark::Nips80) / spn_hw::calib::PAPER_NIPS80_PEAK - 1.0;
    assert!((0.12..0.25).contains(&adv), "advantage {adv}");
}
