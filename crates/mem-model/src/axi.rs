//! AXI interface descriptors and the SmartConnect conversion model.
//!
//! The paper's design connects 225 MHz / 512-bit AXI4 accelerator masters
//! to 450 MHz / 256-bit AXI3 HBM ports through Xilinx SmartConnect
//! blocks, which perform clock-domain crossing, data-width conversion and
//! AXI4→AXI3 protocol conversion. Figure 2's central insight is that the
//! two clocking configurations deliver the *same* streaming bandwidth —
//! the conversion costs latency, not throughput. The model reflects
//! that: an [`AxiPort`] has a raw wire bandwidth (width × clock) and a
//! [`SmartConnect`] adds a fixed latency per transaction while passing
//! bandwidth through.

use serde::{Deserialize, Serialize};
use sim_core::{Bandwidth, SimDuration};

/// AXI protocol revision (affects only bookkeeping/reporting here; the
/// performance-relevant differences are captured by latency parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AxiProtocol {
    /// AXI3 — what the HBM hard IP exposes (max burst 16 beats).
    Axi3,
    /// AXI4 — what the accelerators and TaPaSCo infrastructure speak
    /// (max burst 256 beats).
    Axi4,
    /// AXI4-Lite — control-plane register access.
    Axi4Lite,
}

/// One AXI port: protocol, data width and clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AxiPort {
    /// Protocol revision.
    pub protocol: AxiProtocol,
    /// Data bus width in bits (power of two, 32..=1024).
    pub data_width_bits: u32,
    /// Clock frequency in Hz.
    pub clock_hz: u64,
}

impl AxiPort {
    /// Construct and validate.
    ///
    /// # Panics
    /// Panics on a non-power-of-two or out-of-range width, or a zero clock.
    pub(crate) fn new(protocol: AxiProtocol, data_width_bits: u32, clock_hz: u64) -> Self {
        assert!(
            data_width_bits.is_power_of_two() && (32..=1024).contains(&data_width_bits),
            "invalid AXI width {data_width_bits}"
        );
        assert!(clock_hz > 0, "clock must be non-zero");
        AxiPort {
            protocol,
            data_width_bits,
            clock_hz,
        }
    }

    /// The HBM hard-IP port: AXI3, 256 bit, 450 MHz.
    pub(crate) fn hbm_native() -> Self {
        AxiPort::new(AxiProtocol::Axi3, 256, 450_000_000)
    }

    /// The accelerator-side port in the paper's design: AXI4, 512 bit,
    /// 225 MHz — half the clock, double the width.
    pub(crate) fn accelerator_512_225() -> Self {
        AxiPort::new(AxiProtocol::Axi4, 512, 225_000_000)
    }

    /// Raw wire bandwidth: width × clock.
    pub(crate) fn wire_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.data_width_bits as f64 / 8.0 * self.clock_hz as f64)
    }
}

/// SmartConnect: joins two ports, converting clock/width/protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmartConnect {
    /// Master (initiator) side.
    pub master: AxiPort,
    /// Slave (target) side.
    pub slave: AxiPort,
    /// Added latency per transaction (pipeline registers, CDC FIFOs,
    /// width converters, register slices for routability).
    pub latency: SimDuration,
}

impl SmartConnect {
    /// The conversion used in the paper: 512b/225MHz AXI4 master to
    /// 256b/450MHz AXI3 HBM slave. Latency is a handful of cycles on
    /// each side; ~60 ns covers the CDC FIFO plus register slices.
    pub(crate) fn paper_hbm_path() -> Self {
        SmartConnect {
            master: AxiPort::accelerator_512_225(),
            slave: AxiPort::hbm_native(),
            latency: SimDuration::from_ns(60),
        }
    }

    /// A direct connection (no conversion): same port both sides, zero
    /// latency. Models the 450 MHz native-width configuration of Fig. 2.
    pub(crate) fn direct(port: AxiPort) -> Self {
        SmartConnect {
            master: port,
            slave: port,
            latency: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bandwidths_match_datasheet() {
        // 256 bit @ 450 MHz = 14.4 GB/s = ~13.4 GiB/s.
        let hbm = AxiPort::hbm_native();
        assert!((hbm.wire_bandwidth().bytes_per_sec() / 1e9 - 14.4).abs() < 0.01);
        // 512 bit @ 225 MHz is identical.
        let acc = AxiPort::accelerator_512_225();
        assert_eq!(
            hbm.wire_bandwidth().bytes_per_sec(),
            acc.wire_bandwidth().bytes_per_sec()
        );
    }

    #[test]
    fn paper_smartconnect_conversions() {
        let sc = SmartConnect::paper_hbm_path();
        // Clock-domain crossing, width and AXI4 -> AXI3 conversion.
        assert_ne!(sc.master.clock_hz, sc.slave.clock_hz);
        assert_ne!(sc.master.data_width_bits, sc.slave.data_width_bits);
        assert_ne!(sc.master.protocol, sc.slave.protocol);
        // Bandwidth passes through unharmed: Fig. 2's key observation.
        assert_eq!(
            sc.master.wire_bandwidth().bytes_per_sec(),
            sc.slave.wire_bandwidth().bytes_per_sec()
        );
        assert!(sc.latency > SimDuration::ZERO);
    }

    #[test]
    fn direct_connection_is_free() {
        let sc = SmartConnect::direct(AxiPort::hbm_native());
        assert_eq!(sc.master, sc.slave);
        assert_eq!(sc.latency, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid AXI width")]
    fn bad_width_panics() {
        AxiPort::new(AxiProtocol::Axi4, 48, 1);
    }
}
