//! The accelerator's AXI4-Lite control register file.
//!
//! The paper (Section III-B / IV-B) describes two relevant details, both
//! modelled here: the control registers were widened to **64 bit**
//! because HBM addresses no longer fit 32 bits, and the accelerator
//! gained a **second execution mode** that reads out the configuration
//! parameters fixed at synthesis time (variable count, bytes per sample,
//! format), so the runtime can query the hardware instead of requiring
//! the user to supply parameters manually.

use serde::{Deserialize, Serialize};

/// Register map offsets (in 64-bit words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u64)]
pub enum Reg {
    /// Write 1 to start; self-clearing.
    Ctrl = 0,
    /// Bit 0: done. Bit 1: idle.
    Status = 1,
    /// 0 = inference, 1 = configuration read-out.
    Mode = 2,
    /// Input base address in device memory (64-bit for HBM).
    InAddr = 3,
    /// Output base address in device memory.
    OutAddr = 4,
    /// Number of samples in the job.
    NumSamples = 5,
    /// Read-only: number of input variables.
    CfgVars = 6,
    /// Read-only: input bytes per sample.
    CfgInputBytes = 7,
    /// Read-only: result bytes per sample.
    CfgResultBytes = 8,
    /// Read-only: arithmetic format id (0 = CFP, 1 = LNS, 2 = posit).
    CfgFormat = 9,
    /// Read-only: interface generation version.
    CfgVersion = 10,
}

/// Synthesis-time configuration baked into the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Number of input variables.
    pub num_vars: u64,
    /// Input bytes per sample.
    pub input_bytes: u64,
    /// Result bytes per sample.
    pub result_bytes: u64,
    /// Arithmetic format id.
    pub format_id: u64,
}

/// Status bits.
pub(crate) const STATUS_DONE: u64 = 0b01;
/// Idle bit.
pub(crate) const STATUS_IDLE: u64 = 0b10;
/// Register-file interface version exposed in `CfgVersion`.
pub(crate) const IF_VERSION: u64 = 2;

/// Error for invalid register access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegError(pub String);

impl std::fmt::Display for RegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "register access error: {}", self.0)
    }
}
impl std::error::Error for RegError {}

/// The functional register-file model.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    cfg: SynthConfig,
    mode: u64,
    in_addr: u64,
    out_addr: u64,
    num_samples: u64,
    status: u64,
}

impl RegisterFile {
    /// Power-on state: idle, not done.
    pub fn new(cfg: SynthConfig) -> Self {
        RegisterFile {
            cfg,
            mode: 0,
            in_addr: 0,
            out_addr: 0,
            num_samples: 0,
            status: STATUS_IDLE,
        }
    }

    /// AXI4-Lite read.
    pub fn read(&self, reg: Reg) -> u64 {
        match reg {
            Reg::Ctrl => 0, // write-only, reads as 0
            Reg::Status => self.status,
            Reg::Mode => self.mode,
            Reg::InAddr => self.in_addr,
            Reg::OutAddr => self.out_addr,
            Reg::NumSamples => self.num_samples,
            Reg::CfgVars => self.cfg.num_vars,
            Reg::CfgInputBytes => self.cfg.input_bytes,
            Reg::CfgResultBytes => self.cfg.result_bytes,
            Reg::CfgFormat => self.cfg.format_id,
            Reg::CfgVersion => IF_VERSION,
        }
    }

    /// AXI4-Lite write. Configuration registers are read-only.
    pub fn write(&mut self, reg: Reg, value: u64) -> Result<(), RegError> {
        match reg {
            Reg::Ctrl => {
                if value & 1 != 0 {
                    if self.status & STATUS_IDLE == 0 {
                        return Err(RegError("start while busy".into()));
                    }
                    self.status = 0; // busy: not idle, not done
                }
                Ok(())
            }
            Reg::Mode => {
                if value > 1 {
                    return Err(RegError(format!("invalid mode {value}")));
                }
                self.mode = value;
                Ok(())
            }
            Reg::InAddr => {
                self.in_addr = value;
                Ok(())
            }
            Reg::OutAddr => {
                self.out_addr = value;
                Ok(())
            }
            Reg::NumSamples => {
                self.num_samples = value;
                Ok(())
            }
            Reg::Status
            | Reg::CfgVars
            | Reg::CfgInputBytes
            | Reg::CfgResultBytes
            | Reg::CfgFormat
            | Reg::CfgVersion => Err(RegError(format!("register {reg:?} is read-only"))),
        }
    }

    /// Hardware-side: mark the running job finished.
    pub fn signal_done(&mut self) {
        self.status = STATUS_DONE | STATUS_IDLE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RegisterFile {
        /// True when a job may be launched.
        fn is_idle(&self) -> bool {
            self.status & STATUS_IDLE != 0
        }

        /// True after a job completed (cleared by the next start).
        fn is_done(&self) -> bool {
            self.status & STATUS_DONE != 0
        }
    }

    fn cfg() -> SynthConfig {
        SynthConfig {
            num_vars: 10,
            input_bytes: 10,
            result_bytes: 8,
            format_id: 0,
        }
    }

    #[test]
    fn power_on_idle() {
        let rf = RegisterFile::new(cfg());
        assert!(rf.is_idle());
        assert!(!rf.is_done());
        assert_eq!(rf.read(Reg::Status), STATUS_IDLE);
    }

    #[test]
    fn config_readout_mode() {
        // The paper's "second execution mode": runtime queries synthesis
        // parameters instead of being told by the user.
        let rf = RegisterFile::new(cfg());
        assert_eq!(rf.read(Reg::CfgVars), 10);
        assert_eq!(rf.read(Reg::CfgInputBytes), 10);
        assert_eq!(rf.read(Reg::CfgResultBytes), 8);
        assert_eq!(rf.read(Reg::CfgFormat), 0);
        assert_eq!(rf.read(Reg::CfgVersion), IF_VERSION);
    }

    #[test]
    fn job_lifecycle() {
        let mut rf = RegisterFile::new(cfg());
        rf.write(Reg::InAddr, 0x1_0000_0000).unwrap(); // > 32 bits: HBM
        rf.write(Reg::OutAddr, 0x1_8000_0000).unwrap();
        rf.write(Reg::NumSamples, 1_000_000).unwrap();
        rf.write(Reg::Ctrl, 1).unwrap();
        assert!(!rf.is_idle());
        assert!(!rf.is_done());
        assert_eq!(
            (rf.in_addr, rf.out_addr, rf.num_samples, rf.mode),
            (0x1_0000_0000, 0x1_8000_0000, 1_000_000, 0)
        );
        rf.signal_done();
        assert!(rf.is_idle());
        assert!(rf.is_done());
        // Restart clears done.
        rf.write(Reg::Ctrl, 1).unwrap();
        assert!(!rf.is_done());
    }

    #[test]
    fn addresses_are_64_bit() {
        let mut rf = RegisterFile::new(cfg());
        rf.write(Reg::InAddr, u64::MAX).unwrap();
        assert_eq!(rf.read(Reg::InAddr), u64::MAX);
    }

    #[test]
    fn start_while_busy_is_error() {
        let mut rf = RegisterFile::new(cfg());
        rf.write(Reg::Ctrl, 1).unwrap();
        assert!(rf.write(Reg::Ctrl, 1).is_err());
    }

    #[test]
    fn read_only_registers_reject_writes() {
        let mut rf = RegisterFile::new(cfg());
        assert!(rf.write(Reg::CfgVars, 5).is_err());
        assert!(rf.write(Reg::Status, 0).is_err());
        assert!(rf.write(Reg::CfgVersion, 9).is_err());
    }

    #[test]
    fn invalid_mode_rejected() {
        let mut rf = RegisterFile::new(cfg());
        assert!(rf.write(Reg::Mode, 2).is_err());
        rf.write(Reg::Mode, 1).unwrap();
        assert_eq!(rf.read(Reg::Mode), 1);
    }

    #[test]
    fn ctrl_write_zero_is_noop() {
        let mut rf = RegisterFile::new(cfg());
        rf.write(Reg::Ctrl, 0).unwrap();
        assert!(rf.is_idle());
    }
}
