//! Fig. 6 — Peak end-to-end performance across target platforms, and
//! the §V-D speedup summary.
//!
//! Five series per benchmark:
//!
//! * **HBM (this work)** — the `spn-runtime` simulation, best PE count;
//! * **AWS F1 \[8\]** — the prior-work model (4 cores, deteriorated
//!   clocks, F1-shell DMA; 2 cores for NIPS80);
//! * **Xeon E5-2680 v3** — calibrated analytic model of the paper's CPU;
//! * **V100** — transfer/launch-bound GPU model;
//! * **CPU (measured)** — the *real* multi-threaded baseline on this
//!   machine, the one series that is measured rather than modelled.
//!
//! Prints speedups and geometric means next to the paper's reported
//! 1.29×/1.6×/6.9× values.

use bench::baselines::{hbm_best_rate, CpuBaseline, F1Model, V100Model, XeonModel};
use bench::{fmt_rate, fmt_speedup, write_json, Table};
use serde::Serialize;
use sim_core::geometric_mean;
use spn_core::ALL_BENCHMARKS;
use spn_hw::calib;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    hbm: f64,
    f1: f64,
    xeon_model: f64,
    v100_model: f64,
    cpu_measured: f64,
}

fn main() {
    let xeon = XeonModel::default();
    let v100 = V100Model::default();
    let f1 = F1Model::default();

    // The measured CPU series uses a smaller sample count than the
    // paper's 100 M to keep the harness quick; throughput is steady
    // well below that.
    let measured_samples = 400_000;

    println!("Fig. 6 — end-to-end samples/s per platform (best case)\n");
    let mut table = Table::new(vec![
        "benchmark",
        "HBM (sim)",
        "AWS F1 (model)",
        "Xeon (model)",
        "V100 (model)",
        "CPU (measured)",
    ]);
    let mut rows = Vec::new();
    for bench in ALL_BENCHMARKS {
        let hbm = hbm_best_rate(bench);
        let f1_rate = f1.rate(bench);
        let xeon_rate = xeon.rate(bench);
        let v100_rate = v100.rate(bench);
        let cpu = CpuBaseline::new(bench.build_spn(), 0);
        let data = bench.dataset(measured_samples, 42);
        let cpu_rate = cpu.measure_throughput(&data, 3);
        table.row(vec![
            bench.name().to_string(),
            fmt_rate(hbm),
            fmt_rate(f1_rate),
            fmt_rate(xeon_rate),
            fmt_rate(v100_rate),
            fmt_rate(cpu_rate),
        ]);
        rows.push(Row {
            benchmark: bench.name().to_string(),
            hbm,
            f1: f1_rate,
            xeon_model: xeon_rate,
            v100_model: v100_rate,
            cpu_measured: cpu_rate,
        });
    }
    table.print();

    // §V-D speedup summary.
    println!("\nspeedups of HBM (this work) over each platform:");
    let mut table = Table::new(vec!["benchmark", "vs F1", "vs Xeon", "vs V100"]);
    let mut s_f1 = Vec::new();
    let mut s_cpu = Vec::new();
    let mut s_gpu = Vec::new();
    for r in &rows {
        let (a, b, c) = (r.hbm / r.f1, r.hbm / r.xeon_model, r.hbm / r.v100_model);
        table.row(vec![
            r.benchmark.clone(),
            fmt_speedup(a),
            fmt_speedup(b),
            fmt_speedup(c),
        ]);
        s_f1.push(a);
        s_cpu.push(b);
        s_gpu.push(c);
    }
    table.print();

    let geo = |v: &[f64]| geometric_mean(v).unwrap();
    println!("\ngeometric means (model vs paper):");
    println!(
        "  vs F1   : {} (paper {} , max {} vs paper {})",
        fmt_speedup(geo(&s_f1)),
        fmt_speedup(spn_core::nips::geo_means::VS_F1),
        fmt_speedup(s_f1.iter().cloned().fold(0.0, f64::max)),
        fmt_speedup(spn_core::nips::geo_means::MAX_VS_F1),
    );
    println!(
        "  vs CPU  : {} (paper {} , max {} vs paper {})",
        fmt_speedup(geo(&s_cpu)),
        fmt_speedup(spn_core::nips::geo_means::VS_CPU),
        fmt_speedup(s_cpu.iter().cloned().fold(0.0, f64::max)),
        fmt_speedup(spn_core::nips::geo_means::MAX_VS_CPU),
    );
    println!(
        "  vs V100 : {} (paper {} , max {} vs paper {})",
        fmt_speedup(geo(&s_gpu)),
        fmt_speedup(spn_core::nips::geo_means::VS_V100),
        fmt_speedup(s_gpu.iter().cloned().fold(0.0, f64::max)),
        fmt_speedup(spn_core::nips::geo_means::MAX_VS_V100),
    );

    // §V-D streaming comparison.
    let streaming = spn_runtime::StreamingModel::paper_100g();
    let nips80_hbm = rows.last().unwrap().hbm;
    let peak = streaming.peak_rate(spn_core::NipsBenchmark::Nips80);
    println!(
        "\nstreaming ([7]) NIPS80 peak: {} (paper {}); advantage over HBM: {:.0}% (paper ~17%)",
        fmt_rate(peak),
        fmt_rate(calib::PAPER_NIPS80_STREAMING_PEAK),
        (peak / nips80_hbm - 1.0) * 100.0
    );

    write_json("fig6_end_to_end", &rows);
}
