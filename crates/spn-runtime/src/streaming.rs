//! The streaming / in-network architecture (\[7\]) as a comparison model.
//!
//! Section V-D contrasts the HBM design with the authors' 100G
//! in-network variant: a streaming datapath fed at line rate, no memory
//! accesses at all. Its throughput model is one line: samples/s =
//! line-rate / bytes-per-sample. The paper derives a theoretical NIPS80
//! peak of 140,748,580 samples/s from the measured 99.078 Gbit/s of \[7\]
//! and uses it to argue the HBM design sits within ~17% of the hard
//! PCIe ceiling.

use serde::{Deserialize, Serialize};
use sim_core::Bandwidth;
use spn_core::NipsBenchmark;

/// The streaming architecture's performance model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamingModel {
    /// Sustained network throughput feeding the accelerators.
    pub(crate) line_rate: Bandwidth,
}

impl StreamingModel {
    /// The measured 100G configuration of \[7\]: 99.078 Gbit/s.
    pub fn paper_100g() -> Self {
        StreamingModel {
            line_rate: Bandwidth::from_gbit_per_sec(spn_hw::calib::PAPER_STREAMING_GBITS),
        }
    }

    /// Theoretical peak samples/s for a benchmark: the line carries the
    /// input samples and returns the results (88 B/sample for NIPS80).
    pub fn peak_rate(&self, bench: NipsBenchmark) -> f64 {
        self.line_rate.bytes_per_sec() / bench.total_bytes_per_sample() as f64
    }

    /// How far a measured end-to-end rate sits below the streaming peak
    /// (the paper's "about 17% increased performance" comparison,
    /// returned as `streaming/measured - 1`).
    pub fn advantage_over(&self, bench: NipsBenchmark, measured_rate: f64) -> f64 {
        self.peak_rate(bench) / measured_rate - 1.0
    }
}

/// Simulation of the streaming datapath behind the analytic model:
/// Ethernet frames of samples arrive at line rate and are distributed
/// round-robin over `replication` streaming cores, each consuming one
/// sample per clock (II = 1, no memory accesses). The question \[7\]
/// answers — and this reproduces — is the *replication degree* needed
/// to keep up with 100G.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamingSimConfig {
    /// Network line rate.
    pub line_rate: Bandwidth,
    /// Number of replicated streaming cores.
    pub replication: u32,
    /// Core clock (225 MHz, as in the memory-mapped design).
    pub core_clock_hz: u64,
    /// Samples per Ethernet frame (frames of ~1500 B payload).
    pub samples_per_frame: u32,
}

impl StreamingSimConfig {
    /// The \[7\] configuration for a benchmark: 100G line, frames sized to
    /// the MTU.
    pub fn paper_100g(bench: NipsBenchmark, replication: u32) -> Self {
        StreamingSimConfig {
            line_rate: StreamingModel::paper_100g().line_rate,
            replication,
            core_clock_hz: spn_hw::calib::ACCEL_CLOCK_HZ,
            samples_per_frame: (1500 / bench.total_bytes_per_sample()).max(1) as u32,
        }
    }
}

/// Result of a streaming simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StreamingSimResult {
    /// Sustained samples/s.
    pub samples_per_sec: f64,
    /// Fraction of line rate achieved.
    pub line_rate_fraction: f64,
}

/// Simulate `total_samples` streaming through the replicated cores.
pub fn simulate_streaming(
    cfg: &StreamingSimConfig,
    bench: NipsBenchmark,
    total_samples: u64,
) -> StreamingSimResult {
    use sim_core::{SimDuration, SimTime, Timeline};
    assert!(cfg.replication >= 1);
    let frame_bytes = cfg.samples_per_frame as u64 * bench.total_bytes_per_sample();
    let frame_gap = cfg.line_rate.time_for_bytes(frame_bytes);
    let per_sample = SimDuration::clock_period(cfg.core_clock_hz)
        * bench.input_bytes_per_sample().div_ceil(64).max(1);
    let frame_work = per_sample * cfg.samples_per_frame as u64;

    let mut cores: Vec<Timeline> = (0..cfg.replication)
        .map(|_| Timeline::new("stream"))
        .collect();
    let mut arrival = SimTime::ZERO;
    let mut makespan = SimTime::ZERO;
    let mut sent = 0u64;
    let mut frame_idx = 0usize;
    while sent < total_samples {
        let n = (cfg.samples_per_frame as u64).min(total_samples - sent);
        let core = frame_idx % cores.len();
        let g = cores[core].reserve(arrival, frame_work);
        makespan = makespan.max(g.end);
        sent += n;
        frame_idx += 1;
        arrival += frame_gap;
    }
    let rate = total_samples as f64 / makespan.as_secs_f64();
    let line = cfg.line_rate.bytes_per_sec() / bench.total_bytes_per_sample() as f64;
    StreamingSimResult {
        samples_per_sec: rate,
        line_rate_fraction: (rate / line).min(1.0),
    }
}

/// The smallest replication degree that sustains ≥ `fraction` of line
/// rate (the \[7\] design question).
pub fn min_replication_for_line_rate(bench: NipsBenchmark, fraction: f64) -> u32 {
    for r in 1..=32u32 {
        let cfg = StreamingSimConfig::paper_100g(bench, r);
        let res = simulate_streaming(&cfg, bench, 4 << 20);
        if res.line_rate_fraction >= fraction {
            return r;
        }
    }
    32
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_hw::calib;

    #[test]
    fn nips80_streaming_peak_matches_paper() {
        let m = StreamingModel::paper_100g();
        let peak = m.peak_rate(NipsBenchmark::Nips80);
        let paper = calib::PAPER_NIPS80_STREAMING_PEAK;
        assert!(
            (peak - paper).abs() / paper < 0.001,
            "model {peak} vs paper {paper}"
        );
    }

    #[test]
    fn streaming_beats_measured_hbm_by_about_17_percent() {
        let m = StreamingModel::paper_100g();
        let adv = m.advantage_over(NipsBenchmark::Nips80, calib::PAPER_NIPS80_PEAK);
        assert!(
            (adv - 0.17).abs() < 0.05,
            "streaming advantage {adv} should be ~17%"
        );
    }

    #[test]
    fn smaller_samples_stream_faster() {
        let m = StreamingModel::paper_100g();
        assert!(m.peak_rate(NipsBenchmark::Nips10) > m.peak_rate(NipsBenchmark::Nips80) * 4.0);
    }

    #[test]
    fn enough_replication_reaches_line_rate() {
        // [7]: "using a reasonable degree of replication, the
        // SPN-accelerators are perfectly capable of performing inference
        // at line rate".
        for bench in [NipsBenchmark::Nips10, NipsBenchmark::Nips80] {
            let r = min_replication_for_line_rate(bench, 0.99);
            assert!(r <= 8, "{}: needs replication {r}", bench.name());
            let starved =
                simulate_streaming(&StreamingSimConfig::paper_100g(bench, r), bench, 1 << 20);
            assert!(starved.line_rate_fraction >= 0.99);
        }
    }

    #[test]
    fn under_replication_falls_short_of_line_rate() {
        // One NIPS10 core at 225 MHz cannot absorb 100G of 10-byte
        // samples (line rate would need ~688 M samples/s).
        let bench = NipsBenchmark::Nips10;
        let res = simulate_streaming(&StreamingSimConfig::paper_100g(bench, 1), bench, 1 << 20);
        assert!(res.line_rate_fraction < 0.5, "{}", res.line_rate_fraction);
        // Throughput is core-bound: ~225 M samples/s.
        assert!((res.samples_per_sec - 225e6).abs() / 225e6 < 0.05);
    }

    #[test]
    fn replication_scales_until_line_rate() {
        let bench = NipsBenchmark::Nips20;
        let mut last = 0.0;
        for r in 1..=6 {
            let res = simulate_streaming(&StreamingSimConfig::paper_100g(bench, r), bench, 1 << 20);
            assert!(res.samples_per_sec >= last * 0.999);
            last = res.samples_per_sec;
        }
        // Saturated at the line.
        let line = StreamingModel::paper_100g().peak_rate(bench);
        assert!((last - line).abs() / line < 0.05);
    }
}
