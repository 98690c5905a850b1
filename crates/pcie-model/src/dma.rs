//! The DMA engine: scheduled transfers over a PCIe link.
//!
//! Models an XDMA/QDMA-class scatter-gather engine. Two duplex models
//! are provided:
//!
//! * [`DuplexMode::SharedEngine`] (default, matches the paper's
//!   measurements): the engine's descriptor pipeline serializes
//!   host→device and device→host work, so both directions share one
//!   server. The paper's NIPS10 five-core measurement — 10.3 GiB/s of
//!   *combined* traffic on an engine whose single-direction limit is
//!   ~11.6 GiB/s — is only explicable with largely shared engine
//!   capacity.
//! * [`DuplexMode::FullDuplex`]: idealized independent directions
//!   (PCIe itself is full duplex); available as an ablation.
//!
//! Every transfer pays a fixed setup cost (doorbell, descriptor fetch,
//! completion), which is why the runtime moves *blocks* of samples and
//! why block size is a tunable.

use crate::link::PcieLink;
use serde::{Deserialize, Serialize};
use sim_core::{Grant, SimDuration, SimTime, Timeline};

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Host memory to device (input samples).
    HostToDevice,
    /// Device to host memory (results).
    DeviceToHost,
}

/// How the two directions share the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DuplexMode {
    /// One descriptor pipeline: directions serialize (QDMA-like reality).
    SharedEngine,
    /// Independent directions (idealized / dual-engine designs).
    FullDuplex,
}

/// DMA engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DmaConfig {
    /// The link the engine drives.
    pub link: PcieLink,
    /// Fixed cost per transfer.
    pub setup_latency: SimDuration,
    /// Directional sharing model.
    pub duplex: DuplexMode,
}

impl DmaConfig {
    /// A QDMA-class engine on the paper's Gen3 x16 card.
    pub fn paper_default() -> Self {
        DmaConfig {
            link: PcieLink::paper_gen3_x16(),
            setup_latency: SimDuration::from_us(4),
            duplex: DuplexMode::SharedEngine,
        }
    }

    /// Same engine on a different PCIe generation (outlook analysis).
    pub fn with_link(mut self, link: PcieLink) -> Self {
        self.link = link;
        self
    }

    /// Time to move `bytes` once the engine picks the transfer up.
    pub(crate) fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.setup_latency + self.link.practical_per_direction().time_for_bytes(bytes)
    }
}

/// The engine itself.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    config: DmaConfig,
    /// In SharedEngine mode only `h2d` is used (as the single server).
    h2d: Timeline,
    d2h: Timeline,
}

impl DmaEngine {
    /// Create an idle engine.
    pub fn new(config: DmaConfig) -> Self {
        DmaEngine {
            config,
            h2d: Timeline::default(),
            d2h: Timeline::default(),
        }
    }

    /// Schedule a transfer of `bytes` in `dir`, requested at `at`.
    pub fn transfer(&mut self, dir: Direction, at: SimTime, bytes: u64) -> Grant {
        let service = self.config.transfer_time(bytes);
        match (self.config.duplex, dir) {
            (DuplexMode::SharedEngine, _) => self.h2d.reserve(at, service),
            (DuplexMode::FullDuplex, Direction::HostToDevice) => self.h2d.reserve(at, service),
            (DuplexMode::FullDuplex, Direction::DeviceToHost) => self.d2h.reserve(at, service),
        }
    }

    /// Utilization over `[0, horizon]` (engine total in shared mode).
    pub fn utilization(&self, dir: Direction, horizon: SimTime) -> f64 {
        match (self.config.duplex, dir) {
            (DuplexMode::SharedEngine, _) => self.h2d.utilization(horizon),
            (DuplexMode::FullDuplex, Direction::HostToDevice) => self.h2d.utilization(horizon),
            (DuplexMode::FullDuplex, Direction::DeviceToHost) => self.d2h.utilization(horizon),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::MIB;

    impl DmaConfig {
        /// Effective bandwidth (bytes/s) at a given transfer (block)
        /// size — the quantity that makes tiny block sizes a bad idea.
        fn effective_bandwidth(&self, block_bytes: u64) -> f64 {
            block_bytes as f64 / self.transfer_time(block_bytes).as_secs_f64()
        }
    }

    /// The idealized full-duplex variant (the ablation).
    fn full_duplex() -> DmaConfig {
        DmaConfig {
            duplex: DuplexMode::FullDuplex,
            ..DmaConfig::paper_default()
        }
    }

    #[test]
    fn shared_engine_serializes_both_directions() {
        let mut e = DmaEngine::new(DmaConfig::paper_default());
        let a = e.transfer(Direction::HostToDevice, SimTime::ZERO, MIB);
        let b = e.transfer(Direction::DeviceToHost, SimTime::ZERO, MIB);
        assert_eq!(b.start, a.end, "directions share the engine");
    }

    #[test]
    fn full_duplex_directions_are_independent() {
        let mut e = DmaEngine::new(full_duplex());
        let a = e.transfer(Direction::HostToDevice, SimTime::ZERO, MIB);
        let b = e.transfer(Direction::DeviceToHost, SimTime::ZERO, MIB);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO);
    }

    #[test]
    fn same_direction_serializes() {
        let mut e = DmaEngine::new(full_duplex());
        let a = e.transfer(Direction::HostToDevice, SimTime::ZERO, MIB);
        let b = e.transfer(Direction::HostToDevice, SimTime::ZERO, MIB);
        assert_eq!(b.start, a.end);
        assert_eq!(b.waited, a.end - a.start);
    }

    #[test]
    fn large_transfers_approach_practical_bandwidth() {
        let cfg = DmaConfig::paper_default();
        let big = 256 * MIB;
        let eff = cfg.effective_bandwidth(big) / (1u64 << 30) as f64;
        let practical = cfg.link.practical_per_direction().gib_per_sec();
        assert!(
            (eff - practical).abs() / practical < 0.01,
            "256 MiB transfer reaches {eff} of {practical} GiB/s"
        );
    }

    #[test]
    fn small_transfers_are_setup_dominated() {
        let cfg = DmaConfig::paper_default();
        let eff = cfg.effective_bandwidth(4096) / (1u64 << 30) as f64;
        assert!(
            eff < 1.0,
            "4 KiB at {eff} GiB/s should be far below the link"
        );
        let mut last = 0.0;
        let mut size = 4096u64;
        while size <= 64 * MIB {
            let e = cfg.effective_bandwidth(size);
            assert!(e > last);
            last = e;
            size *= 4;
        }
    }

    #[test]
    fn utilization_accounting() {
        let mut e = DmaEngine::new(full_duplex());
        let g = e.transfer(Direction::HostToDevice, SimTime::ZERO, 64 * MIB);
        assert!(e.utilization(Direction::HostToDevice, g.end) > 0.99);
        assert_eq!(e.utilization(Direction::DeviceToHost, g.end), 0.0);
    }

    #[test]
    fn generation_upgrade_speeds_transfers() {
        use crate::link::{PcieGeneration, PcieLink};
        let gen3 = DmaConfig::paper_default();
        let gen5 = DmaConfig::paper_default().with_link(PcieLink::future(PcieGeneration::Gen5));
        let t3 = gen3.transfer_time(256 * MIB).as_secs_f64();
        let t5 = gen5.transfer_time(256 * MIB).as_secs_f64();
        assert!((t3 / t5 - 4.0).abs() < 0.1, "Gen5 is ~4x Gen3: {}", t3 / t5);
    }
}
