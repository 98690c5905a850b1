//! HBM access-latency model and the Lu-et-al-style microbenchmarks.
//!
//! The paper's Fig. 2 methodology descends from Lu et al. \[17\], who
//! characterize datacenter-FPGA memories with two microbenchmark
//! shapes, both reproduced here:
//!
//! * **pointer chase** — fully dependent reads measure *idle latency*
//!   (and how the SmartConnect/crossbar add to it);
//! * **outstanding sweep** — independent reads with a bounded in-flight
//!   window show throughput ramping by Little's law
//!   (`BW = outstanding × request / latency`) until the channel's wire
//!   rate caps it.
//!
//! These curves justify two design choices the paper makes: per-channel
//! *streaming* (large linear bursts amortize the latency completely)
//! and crossbar avoidance (the switch adds latency *and* loses
//! bandwidth).

use crate::hbm::{ClockConfig, CrossbarMode, HbmChannelConfig};
use serde::{Deserialize, Serialize};
use sim_core::{Bandwidth, SimDuration};

/// Latency parameters of one channel access path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// DRAM core + controller pipeline (closed-page random access).
    pub(crate) dram_latency: SimDuration,
    /// Interconnect latency of the user-side clocking configuration.
    pub(crate) interconnect_latency: SimDuration,
    /// Extra switch latency when the access crosses the crossbar.
    pub(crate) crossbar_latency: SimDuration,
}

impl LatencyModel {
    /// Calibrated to \[17\]-class measurements on a VU37P-class part:
    /// ~110 ns idle at the native port.
    pub fn calibrated(clock_config: ClockConfig, crossbar: CrossbarMode) -> Self {
        LatencyModel {
            dram_latency: SimDuration::from_ns(110),
            interconnect_latency: clock_config.interconnect().latency,
            crossbar_latency: match crossbar {
                CrossbarMode::Disabled => SimDuration::ZERO,
                CrossbarMode::Enabled { extra_latency, .. } => extra_latency,
            },
        }
    }

    /// Total idle (unloaded) round-trip latency.
    pub(crate) fn idle_latency(&self) -> SimDuration {
        self.dram_latency + self.interconnect_latency + self.crossbar_latency
    }
}

/// Result of the pointer-chase microbenchmark.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PointerChaseResult {
    /// Mean per-access latency.
    pub latency: SimDuration,
    /// Implied throughput of the single dependent stream.
    pub dependent_bandwidth: Bandwidth,
}

/// Dependent-read chain: each access waits for the previous one, so the
/// measured time per access *is* the latency.
pub fn pointer_chase(
    model: &LatencyModel,
    request_bytes: u64,
    accesses: u64,
) -> PointerChaseResult {
    assert!(accesses > 0);
    let lat = model.idle_latency();
    PointerChaseResult {
        latency: lat,
        dependent_bandwidth: Bandwidth::observed(request_bytes, lat)
            .unwrap_or(Bandwidth::from_bytes_per_sec(0.0)),
    }
}

/// One point of the outstanding-requests sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OutstandingPoint {
    /// In-flight window size.
    pub outstanding: u32,
    /// Achieved bandwidth.
    pub bandwidth: Bandwidth,
    /// Whether the point is latency-bound (window-limited) or
    /// bandwidth-bound (wire-limited).
    pub latency_bound: bool,
}

/// Sweep the in-flight window: Little's law until the channel's wire
/// rate caps it. `request_bytes` is the per-request size (64 B random
/// reads in \[17\]'s random test).
pub fn outstanding_sweep(
    channel: &HbmChannelConfig,
    model: &LatencyModel,
    request_bytes: u64,
    windows: &[u32],
) -> Vec<OutstandingPoint> {
    let wire = channel.sustained_bandwidth();
    let lat = model.idle_latency().as_secs_f64();
    windows
        .iter()
        .map(|&n| {
            let little = n as f64 * request_bytes as f64 / lat;
            let capped = little.min(wire.bytes_per_sec());
            OutstandingPoint {
                outstanding: n,
                bandwidth: Bandwidth::from_bytes_per_sec(capped),
                latency_bound: little < wire.bytes_per_sec(),
            }
        })
        .collect()
}

/// Window size at which the channel becomes bandwidth-bound
/// (`BW·latency / request` — the bandwidth-delay product in requests).
pub fn saturation_window(
    channel: &HbmChannelConfig,
    model: &LatencyModel,
    request_bytes: u64,
) -> u32 {
    let bdp = channel.sustained_bandwidth().bytes_per_sec() * model.idle_latency().as_secs_f64();
    (bdp / request_bytes as f64).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        LatencyModel::calibrated(ClockConfig::Half225DoubleWidth, CrossbarMode::Disabled)
    }

    #[test]
    fn idle_latency_composition() {
        let native = LatencyModel::calibrated(ClockConfig::Native450, CrossbarMode::Disabled);
        let half = model();
        // The SmartConnect path costs extra latency (the trade Fig. 2
        // shows does NOT cost bandwidth).
        assert!(half.idle_latency() > native.idle_latency());
        let crossbar = LatencyModel::calibrated(
            ClockConfig::Half225DoubleWidth,
            CrossbarMode::enabled_default(),
        );
        assert!(crossbar.idle_latency() > half.idle_latency());
        // All in the 100-250 ns regime [17] reports.
        for m in [native, half, crossbar] {
            let ns = m.idle_latency().as_secs_f64() * 1e9;
            assert!((100.0..260.0).contains(&ns), "{ns} ns");
        }
    }

    #[test]
    fn pointer_chase_is_latency_limited() {
        let r = pointer_chase(&model(), 64, 1000);
        // A dependent 64 B stream at ~170 ns: well under 1 GiB/s.
        assert!(r.dependent_bandwidth.gib_per_sec() < 1.0);
        assert_eq!(r.latency, model().idle_latency());
    }

    #[test]
    fn outstanding_sweep_ramps_then_saturates() {
        let ch = HbmChannelConfig::calibrated(ClockConfig::Half225DoubleWidth);
        let m = model();
        let windows: Vec<u32> = (0..10).map(|i| 1 << i).collect();
        let pts = outstanding_sweep(&ch, &m, 64, &windows);
        // Monotone non-decreasing.
        for w in pts.windows(2) {
            assert!(w[1].bandwidth.bytes_per_sec() >= w[0].bandwidth.bytes_per_sec());
        }
        // Small windows latency-bound, large windows wire-bound.
        assert!(pts[0].latency_bound);
        assert!(!pts.last().unwrap().latency_bound);
        // Linear in the latency-bound regime: 2 outstanding = 2x.
        let r = pts[1].bandwidth.bytes_per_sec() / pts[0].bandwidth.bytes_per_sec();
        assert!((r - 2.0).abs() < 1e-9);
        // Saturates at the channel's sustained rate.
        let sat = pts.last().unwrap().bandwidth.gib_per_sec();
        assert!((sat - ch.sustained_bandwidth().gib_per_sec()).abs() < 0.01);
    }

    #[test]
    fn saturation_window_matches_bdp() {
        let ch = HbmChannelConfig::calibrated(ClockConfig::Half225DoubleWidth);
        let m = model();
        let w = saturation_window(&ch, &m, 64);
        // ~12.85 GB/s x ~170 ns / 64 B ≈ 34 outstanding 64-B requests.
        assert!((20..=50).contains(&w), "window {w}");
        // Consistency with the sweep.
        let pts = outstanding_sweep(&ch, &m, 64, &[w - 1, w]);
        assert!(pts[0].latency_bound);
        assert!(!pts[1].latency_bound);
    }

    #[test]
    fn bigger_requests_saturate_with_smaller_windows() {
        let ch = HbmChannelConfig::calibrated(ClockConfig::Half225DoubleWidth);
        let m = model();
        assert!(saturation_window(&ch, &m, 4096) < saturation_window(&ch, &m, 64));
    }
}
