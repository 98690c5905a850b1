//! Off-chip DDR4 SDRAM with soft memory controllers — the prior-work
//! (AWS F1) memory system the paper compares against.
//!
//! On the F1, each DDR4 channel needs a *soft* controller synthesized
//! from FPGA fabric, which (a) consumes significant logic resources and
//! (b) degrades achievable clock frequency as more controllers are
//! added. The paper's Section III-A describes the resulting trade-off
//! for NIPS80: four accelerators with one shared controller, or two
//! accelerators with dedicated controllers — either way losing
//! performance. This module models the bandwidth side: the aggregate
//! sustained bandwidth of the few soft-controller channels that all
//! accelerators share, unlike HBM's dedicated channels.

use serde::{Deserialize, Serialize};
use sim_core::{Bandwidth, SimDuration, GIB};

/// One DDR4 channel with a soft controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdrChannelConfig {
    /// Datasheet peak (DDR4-2133, 64-bit: ~17 GB/s).
    pub peak: Bandwidth,
    /// Achievable fraction at streaming patterns through the soft
    /// controller (row misses, refresh, controller scheduling).
    pub efficiency: f64,
    /// Fixed per-request cost.
    pub request_overhead: SimDuration,
}

impl DdrChannelConfig {
    /// The F1's DDR4-2133 channels as exercised by \[8\].
    pub(crate) fn aws_f1() -> Self {
        DdrChannelConfig {
            peak: Bandwidth::from_gb_per_sec(17.0),
            efficiency: 0.75,
            request_overhead: SimDuration::from_ns(1200),
        }
    }

    /// Sustained bandwidth of one channel.
    pub(crate) fn sustained(&self) -> Bandwidth {
        self.peak.scaled(self.efficiency)
    }
}

/// Whole DDR subsystem: a handful of channels *shared* by accelerators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdrConfig {
    /// Number of instantiated channels/controllers (1..=4 on the F1;
    /// fewer may be used to save logic resources).
    pub num_channels: u32,
    /// Per-channel parameters.
    pub channel: DdrChannelConfig,
    /// Per-channel capacity.
    pub channel_capacity: u64,
}

impl DdrConfig {
    /// The F1 configuration with `n` soft controllers.
    pub fn aws_f1(num_channels: u32) -> Self {
        assert!((1..=4).contains(&num_channels), "F1 has up to 4 channels");
        DdrConfig {
            num_channels,
            channel: DdrChannelConfig::aws_f1(),
            channel_capacity: 16 * GIB,
        }
    }

    /// Aggregate sustained bandwidth.
    pub fn total_sustained(&self) -> Bandwidth {
        self.channel.sustained().scaled(self.num_channels as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_channel_bandwidth() {
        let c = DdrChannelConfig::aws_f1();
        let gib = c.sustained().gib_per_sec();
        assert!(
            (11.0..13.0).contains(&gib),
            "F1 channel sustains {gib} GiB/s"
        );
    }

    #[test]
    fn aggregate_bandwidth_scales_with_controllers() {
        let one = DdrConfig::aws_f1(1).total_sustained().gib_per_sec();
        let four = DdrConfig::aws_f1(4).total_sustained().gib_per_sec();
        assert!((four / one - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "up to 4")]
    fn too_many_channels_panics() {
        DdrConfig::aws_f1(5);
    }
}
