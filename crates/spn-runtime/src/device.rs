//! The virtual device: a functional model of the whole accelerator card.
//!
//! Holds byte storage for every HBM channel, one accelerator core
//! design with an AXI4-Lite register file per channel, and the device
//! memory manager. Control threads on the host *actually move bytes*
//! into channel storage, program the register file, launch jobs, and
//! read results back — the full paper dataflow, functionally exact.
//! What only a device block uses is built at the first one: a channel's
//! storage at its first copy or launch, the synthesised datapath at the
//! first launch. A device whose every block runs on the host plan
//! builds neither.
//! Timing is the business of [`crate::perf`]; this module answers "what
//! bytes come back", which the tests verify against the `spn-core`
//! reference inference.

use crate::executor::{BlockCx, BlockExecutor};
use crate::memmgr::{DeviceBuffer, DeviceMemoryManager};
use crate::runtime::RuntimeError;
use parking_lot::{Mutex, MutexGuard};
use sim_core::SplitMix64;
use spn_arith::AnyFormat;
use spn_core::Spn;
use spn_hw::{AcceleratorConfig, AcceleratorCore, DatapathProgram, Reg, RegisterFile, SynthConfig};
use spn_telemetry::SpanKind;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes per result: the Store Unit writes one little-endian f64 per
/// sample.
const RESULT_BYTES: usize = std::mem::size_of::<f64>();

/// Transient-fault injection: each result independently suffers a
/// single-bit flip with `flip_probability`, and each launch
/// independently aborts with a [`DeviceError::TransientFault`] with
/// `launch_fail_probability`. Models SEUs / marginal timing on the real
/// card; exists so the runtime's verification sampling has something
/// real to catch and so the scheduler's per-block retry logic can be
/// exercised deterministically.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultInjection {
    /// Probability that one result value is corrupted (silent fault —
    /// caught only by verification sampling).
    pub flip_probability: f64,
    /// Probability that a launch aborts with a loud, transient
    /// [`DeviceError::TransientFault`] (caught and retried by the
    /// scheduler).
    pub launch_fail_probability: f64,
    /// Deterministic seed.
    pub seed: u64,
}

/// Device-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// PE index out of range.
    NoSuchPe(u32),
    /// Buffer does not belong to the PE's channel.
    WrongChannel {
        /// PE that was launched.
        pe: u32,
        /// Channel the buffer lives in.
        buffer_channel: u32,
    },
    /// Access beyond the channel region.
    OutOfBounds,
    /// A register-file interaction failed.
    Register(String),
    /// The launch aborted transiently (SEU, marginal timing, dropped
    /// DMA descriptor). Retrying the same block is expected to succeed;
    /// the scheduler does exactly that, up to
    /// [`crate::job::JobOptions::max_retries`] times.
    TransientFault {
        /// PE on which the launch aborted.
        pe: u32,
    },
}

impl DeviceError {
    /// Whether retrying the failed operation can reasonably succeed.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, DeviceError::TransientFault { .. })
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::NoSuchPe(p) => write!(f, "no such PE: {p}"),
            DeviceError::WrongChannel { pe, buffer_channel } => write!(
                f,
                "PE {pe} cannot reach channel {buffer_channel}: no crossbar"
            ),
            DeviceError::OutOfBounds => write!(f, "device memory access out of bounds"),
            DeviceError::Register(e) => write!(f, "register access: {e}"),
            DeviceError::TransientFault { pe } => {
                write!(f, "transient fault on PE {pe}: launch aborted (retryable)")
            }
        }
    }
}
impl std::error::Error for DeviceError {}

/// One PE's share of the device state on cache lines of its own (two,
/// since a line's neighbour is fetched with it): PEs that never contend
/// for a lock do not contend for the line it sits on either. On a
/// 2-vCPU Xeon, `device_offline` (NIPS10, 2 PEs) served 4 % fewer
/// samples/s with the locks packed.
#[repr(align(128))]
struct OwnLines<T>(T);

impl<T> std::ops::Deref for OwnLines<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// The virtual accelerator card.
///
/// Cloneable-by-Arc and fully thread-safe: channel memories and PEs are
/// individually locked, so threads working on different PEs never
/// contend — mirroring the independence of the real HBM channels.
pub struct VirtualDevice {
    /// Per-channel byte storage: empty until the channel's first copy
    /// or launch sizes it to `channel_capacity`.
    channels: Vec<OwnLines<Mutex<Vec<u8>>>>,
    /// The one design every PE is an instance of, synthesised at the
    /// first launch on any PE. It sits outside the PE locks: launches on
    /// different PEs share it and the golden model reads it while any
    /// of them is busy.
    core: AcceleratorCore,
    /// One PE per channel (the paper's 1:1 coupling): its register
    /// file, held for the whole of a launch.
    pes: Vec<OwnLines<Mutex<RegisterFile>>>,
    memmgr: Arc<DeviceMemoryManager>,
    channel_capacity: u64,
    faults: Option<FaultInjection>,
    fault_rng: Mutex<SplitMix64>,
    /// The SPN the datapath program was compiled from, when the
    /// builder attached it ([`VirtualDevice::with_model`]).
    model: Option<Arc<Spn>>,
    /// Per-sample service time modelled by sleeping inside `launch`
    /// (see [`VirtualDevice::with_pacing`]); `None` = run as fast as
    /// the host can emulate.
    pacing: Option<Duration>,
}

impl VirtualDevice {
    /// Build a device with `num_pes` identical cores for `program`, each
    /// wired to a dedicated channel of `channel_capacity` bytes. Only the
    /// register files are set up here: the datapath is synthesised at
    /// the first launch, and a channel's storage allocated at its first
    /// copy or launch.
    pub fn new(
        program: DatapathProgram,
        format: AnyFormat,
        accel: AcceleratorConfig,
        num_pes: u32,
        channel_capacity: u64,
    ) -> Self {
        assert!(num_pes > 0, "need at least one PE");
        // One design per device, not one per PE.
        let core = AcceleratorCore::new(accel, program, format);
        let synth = SynthConfig {
            num_vars: core.program().num_vars() as u64,
            input_bytes: core.input_bytes(),
            result_bytes: core.result_bytes(),
            format_id: match format {
                AnyFormat::Cfp(_) => 0,
                AnyFormat::Lns(_) => 1,
                AnyFormat::Posit(_) => 2,
                AnyFormat::F64 => 3,
            },
        };
        VirtualDevice {
            channels: (0..num_pes)
                .map(|_| OwnLines(Mutex::new(Vec::new())))
                .collect(),
            core,
            pes: (0..num_pes)
                .map(|_| OwnLines(Mutex::new(RegisterFile::new(synth))))
                .collect(),
            memmgr: Arc::new(DeviceMemoryManager::new(num_pes, channel_capacity)),
            channel_capacity,
            faults: None,
            fault_rng: Mutex::new(SplitMix64::new(0)),
            model: None,
            pacing: None,
        }
    }

    /// Model a fixed per-sample service time: every `launch` sleeps
    /// `num_samples × per_sample` while holding the PE, so the PE
    /// behaves like real hardware with a fixed sample rate instead of
    /// running as fast as the host can emulate. The host CPU is idle
    /// during the sleep — N paced devices on one core genuinely
    /// overlap, the way N accelerator cards would. This is what the
    /// scaling-shape tests (`tests/scheduler.rs`, `tests/router.rs`)
    /// use to make PE or backend count (not host core count) the
    /// resource under test.
    pub fn with_pacing(mut self, per_sample: Duration) -> Self {
        self.pacing = Some(per_sample);
        self
    }

    /// Enable transient-fault injection (testing/chaos mode).
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        assert!((0.0..=1.0).contains(&faults.flip_probability));
        assert!((0.0..=1.0).contains(&faults.launch_fail_probability));
        self.fault_rng = Mutex::new(SplitMix64::new(faults.seed));
        self.faults = Some(faults);
        self
    }

    /// Attach the SPN the device's datapath program was compiled from.
    /// This is what lets the scheduler compile a host-side inference
    /// plan for the same model and accept
    /// [`crate::job::ExecBackend::HostPlan`] jobs.
    pub fn with_model(mut self, model: Arc<Spn>) -> Self {
        self.model = Some(model);
        self
    }

    /// The attached SPN, if any (see [`VirtualDevice::with_model`]).
    pub fn model(&self) -> Option<&Arc<Spn>> {
        self.model.as_ref()
    }

    /// Golden re-computation of one sample on the host, bypassing any
    /// injected faults — the reference the runtime's verification
    /// sampling checks against. A pure function of the design, so it
    /// takes no PE lock and never waits for a launch in progress.
    pub fn golden(&self, pe: u32, sample: &[u8]) -> Result<f64, DeviceError> {
        if pe >= self.num_pes() {
            return Err(DeviceError::NoSuchPe(pe));
        }
        Ok(self.core.run_sample(sample))
    }

    /// Number of PEs (= channels).
    pub fn num_pes(&self) -> u32 {
        self.pes.len() as u32
    }

    /// The device memory manager.
    pub fn memory(&self) -> &Arc<DeviceMemoryManager> {
        &self.memmgr
    }

    /// Query a PE's synthesis configuration through its register file —
    /// the paper's configuration-readout execution mode.
    pub fn query_pe(&self, pe: u32) -> Result<SynthConfig, DeviceError> {
        let regs = self.pes.get(pe as usize).ok_or(DeviceError::NoSuchPe(pe))?;
        let regs = regs.lock();
        Ok(SynthConfig {
            num_vars: regs.read(Reg::CfgVars),
            input_bytes: regs.read(Reg::CfgInputBytes),
            result_bytes: regs.read(Reg::CfgResultBytes),
            format_id: regs.read(Reg::CfgFormat),
        })
    }

    /// Host→device copy into an allocated buffer (the functional half of
    /// a DMA transfer).
    pub(crate) fn copy_to_device(&self, buf: DeviceBuffer, data: &[u8]) -> Result<(), DeviceError> {
        if data.len() as u64 > buf.len {
            return Err(DeviceError::OutOfBounds);
        }
        let (mut mem, range) = self.region(buf.channel, buf.offset, data.len() as u64)?;
        mem[range].copy_from_slice(data);
        Ok(())
    }

    /// Device→host copy of a whole buffer.
    pub(crate) fn copy_from_device(&self, buf: DeviceBuffer) -> Result<Vec<u8>, DeviceError> {
        let (mem, range) = self.region(buf.channel, buf.offset, buf.len)?;
        Ok(mem[range].to_vec())
    }

    /// Bytes `offset..offset + len` of `channel`, provided they lie
    /// inside it, with the channel's storage locked.
    fn region(
        &self,
        channel: u32,
        offset: u64,
        len: u64,
    ) -> Result<(MutexGuard<'_, Vec<u8>>, Range<usize>), DeviceError> {
        let lock = self
            .channels
            .get(channel as usize)
            .ok_or(DeviceError::NoSuchPe(channel))?;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= self.channel_capacity)
            .ok_or(DeviceError::OutOfBounds)?;
        Ok((self.storage(lock), offset as usize..end as usize))
    }

    /// A channel's storage, locked, sized to `channel_capacity` (zeroed)
    /// on its first use. Callers check their bounds against
    /// `channel_capacity` first, so an access the channel refuses
    /// allocates nothing.
    fn storage<'a>(&self, channel: &'a Mutex<Vec<u8>>) -> MutexGuard<'a, Vec<u8>> {
        let mut mem = channel.lock();
        if mem.is_empty() {
            *mem = vec![0u8; self.channel_capacity as usize];
        }
        mem
    }

    /// Launch an inference job on `pe`: program the register file, run
    /// the datapath over `num_samples` read from `input`, store one f64
    /// per sample (little-endian, as the Store Unit packs 512-bit words)
    /// into `output`. Blocks until "hardware" completion — callers are
    /// the runtime's control threads, which is exactly how the TaPaSCo
    /// blocking launch behaves.
    pub(crate) fn launch(
        &self,
        pe: u32,
        input: DeviceBuffer,
        output: DeviceBuffer,
        num_samples: u64,
    ) -> Result<(), DeviceError> {
        let regs = self.pes.get(pe as usize).ok_or(DeviceError::NoSuchPe(pe))?;
        // The paper's design has no crossbar: a PE reaches only its own
        // channel.
        for buf in [&input, &output] {
            if buf.channel != pe {
                return Err(DeviceError::WrongChannel {
                    pe,
                    buffer_channel: buf.channel,
                });
            }
        }
        // The job must fit its buffers and the buffers their channel.
        // Checked before the register file is touched: a start that
        // cannot complete would leave the PE busy for good.
        let in_range = self.job_range(input, num_samples, self.core.input_bytes())?;
        let out_range = self.job_range(output, num_samples, self.core.result_bytes())?;
        // Loud transient faults: the launch aborts before touching the
        // register file; the block is untouched and can be retried.
        if let Some(f) = self.faults {
            if f.launch_fail_probability > 0.0
                && self.fault_rng.lock().next_f64() < f.launch_fail_probability
            {
                return Err(DeviceError::TransientFault { pe });
            }
        }
        let mut regs = regs.lock();
        // Program the job registers and start.
        regs.write(Reg::InAddr, input.offset)
            .and_then(|_| regs.write(Reg::OutAddr, output.offset))
            .and_then(|_| regs.write(Reg::NumSamples, num_samples))
            .and_then(|_| regs.write(Reg::Ctrl, 1))
            .map_err(|e| DeviceError::Register(e.to_string()))?;

        // "Hardware" execution: read input from channel memory, execute
        // the datapath, write results back.
        let channel = &self.channels[pe as usize];
        let mut results = {
            let mem = self.storage(channel);
            self.core.run_job(&mem[in_range])
        };
        // Paced execution: occupy the PE (lock held) for the modelled
        // hardware time, per sample so batching cannot compress it.
        if let Some(per_sample) = self.pacing {
            std::thread::sleep(per_sample.mul_f64(num_samples as f64));
        }
        // Transient faults: flip one mantissa bit of unlucky results.
        if let Some(f) = self.faults {
            let mut rng = self.fault_rng.lock();
            for r in &mut results {
                if rng.next_f64() < f.flip_probability {
                    let bit = rng.next_below(52) as u32; // mantissa bits
                    *r = f64::from_bits(r.to_bits() ^ (1u64 << bit));
                }
            }
        }
        {
            let mut mem = self.storage(channel);
            for (slot, r) in mem[out_range].chunks_exact_mut(RESULT_BYTES).zip(&results) {
                slot.copy_from_slice(&r.to_le_bytes());
            }
        }
        regs.signal_done();
        Ok(())
    }

    /// The bytes of `buf` a job of `num_samples` touches at
    /// `bytes_per_sample`, provided they lie inside both the buffer and
    /// its channel.
    fn job_range(
        &self,
        buf: DeviceBuffer,
        num_samples: u64,
        bytes_per_sample: u64,
    ) -> Result<Range<usize>, DeviceError> {
        let end = num_samples
            .checked_mul(bytes_per_sample)
            .filter(|&bytes| bytes <= buf.len)
            .and_then(|bytes| buf.offset.checked_add(bytes))
            .filter(|&end| end <= self.channel_capacity)
            .ok_or(DeviceError::OutOfBounds)?;
        Ok(buf.offset as usize..end as usize)
    }
}

/// A device buffer that goes back to its channel when dropped.
struct ScopedBuffer<'a>(&'a DeviceMemoryManager, DeviceBuffer);

impl Drop for ScopedBuffer<'_> {
    fn drop(&mut self) {
        let _ = self.0.free(self.1);
    }
}

/// One control-thread iteration (Section IV-B): allocate, transfer,
/// launch, read back — all on the PE's own channel. The buffers are
/// scoped, so neither job failure, fault nor cancellation can leak
/// channel memory.
impl BlockExecutor for VirtualDevice {
    fn run_block(&self, cx: &BlockCx, src: &[u8], out: &mut Vec<f64>) -> Result<(), RuntimeError> {
        let alloc = |bytes: usize| {
            let buf = self.memmgr.alloc(cx.pe, bytes as u64);
            buf.map(|buf| ScopedBuffer(&self.memmgr, buf))
        };
        let inb = alloc(src.len())?;
        let outb = alloc(cx.samples * RESULT_BYTES)?;
        let t0 = Instant::now();
        self.copy_to_device(inb.1, src)?;
        cx.span(SpanKind::H2D, t0);
        cx.metrics.add_h2d_bytes(src.len() as u64);
        let t0 = Instant::now();
        self.launch(cx.pe, inb.1, outb.1, cx.samples as u64)?;
        cx.span(SpanKind::Execute, t0);
        let t0 = Instant::now();
        let raw = self.copy_from_device(outb.1)?;
        cx.span(SpanKind::D2H, t0);
        cx.metrics.add_d2h_bytes(raw.len() as u64);
        drop((inb, outb));
        out.extend(
            raw.chunks_exact(RESULT_BYTES)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte result"))),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::MIB;
    use spn_arith::CfpFormat;
    use spn_core::{Evaluator, NipsBenchmark, Query};

    fn device(pes: u32) -> (VirtualDevice, NipsBenchmark) {
        let bench = NipsBenchmark::Nips10;
        let prog = DatapathProgram::compile(&bench.build_spn());
        let dev = VirtualDevice::new(
            prog,
            AnyFormat::Cfp(CfpFormat::paper_default()),
            AcceleratorConfig::paper_default(),
            pes,
            16 * MIB,
        );
        (dev, bench)
    }

    #[test]
    fn query_pe_reads_synth_config() {
        let (dev, _) = device(2);
        let cfg = dev.query_pe(1).unwrap();
        assert_eq!(cfg.num_vars, 10);
        assert_eq!(cfg.input_bytes, 10);
        assert_eq!(cfg.result_bytes, 8);
        assert_eq!(cfg.format_id, 0);
        assert!(dev.query_pe(2).is_err());
    }

    #[test]
    fn full_job_round_trip_matches_reference() {
        let (dev, bench) = device(1);
        let data = bench.dataset(64, 5);
        let spn = bench.build_spn();
        let mut ev = Evaluator::new(&spn);

        let inb = dev.memory().alloc(0, data.raw().len() as u64).unwrap();
        let outb = dev.memory().alloc(0, 64 * 8).unwrap();
        dev.copy_to_device(inb, data.raw()).unwrap();
        dev.launch(0, inb, outb, 64).unwrap();
        let raw = dev.copy_from_device(outb).unwrap();

        for (i, row) in data.rows().enumerate() {
            let got = f64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().unwrap());
            let reference = ev.eval_bytes(&Query::Complete, row).exp();
            let rel = ((got - reference) / reference).abs();
            assert!(rel < 1e-4, "sample {i}: {got} vs {reference}");
        }
    }

    #[test]
    fn paced_launch_occupies_the_pe_for_the_modelled_time() {
        let bench = NipsBenchmark::Nips10;
        let prog = DatapathProgram::compile(&bench.build_spn());
        let dev = VirtualDevice::new(
            prog,
            AnyFormat::Cfp(CfpFormat::paper_default()),
            AcceleratorConfig::paper_default(),
            1,
            16 * MIB,
        )
        .with_pacing(Duration::from_micros(500));
        let data = bench.dataset(16, 3);
        let inb = dev.memory().alloc(0, data.raw().len() as u64).unwrap();
        let outb = dev.memory().alloc(0, 16 * 8).unwrap();
        dev.copy_to_device(inb, data.raw()).unwrap();
        let t0 = std::time::Instant::now();
        dev.launch(0, inb, outb, 16).unwrap();
        // 16 samples × 500 µs = 8 ms of modelled hardware time.
        assert!(t0.elapsed() >= Duration::from_millis(8));
        // Results are still produced normally.
        assert_eq!(dev.copy_from_device(outb).unwrap().len(), 128);
    }

    #[test]
    fn pe_cannot_reach_foreign_channel() {
        let (dev, bench) = device(2);
        let data = bench.dataset(4, 1);
        let foreign_in = dev.memory().alloc(1, 64).unwrap();
        let own_out = dev.memory().alloc(0, 64).unwrap();
        dev.copy_to_device(foreign_in, data.raw()).unwrap();
        assert!(matches!(
            dev.launch(0, foreign_in, own_out, 4),
            Err(DeviceError::WrongChannel {
                pe: 0,
                buffer_channel: 1
            })
        ));
    }

    #[test]
    fn oversized_job_rejected() {
        let (dev, bench) = device(1);
        let data = bench.dataset(4, 1);
        let inb = dev.memory().alloc(0, 40).unwrap();
        let outb = dev.memory().alloc(0, 8).unwrap(); // room for 1 result only
        dev.copy_to_device(inb, data.raw()).unwrap();
        assert!(matches!(
            dev.launch(0, inb, outb, 4),
            Err(DeviceError::OutOfBounds)
        ));
        // So is a hand-built buffer that runs off the end of the channel.
        let past_the_end = DeviceBuffer {
            channel: 0,
            offset: dev.channel_capacity - 16,
            len: 64,
        };
        for (input, output) in [(past_the_end, outb), (inb, past_the_end)] {
            assert!(matches!(
                dev.launch(0, input, output, 4),
                Err(DeviceError::OutOfBounds)
            ));
        }
        // A rejected launch never started the PE: it takes the next job.
        dev.launch(0, inb, outb, 1).unwrap();
        let raw = dev.copy_from_device(outb).unwrap();
        let got = f64::from_le_bytes(raw[..8].try_into().unwrap());
        assert_eq!(got, dev.golden(0, data.row(0)).unwrap());
    }

    #[test]
    fn golden_does_not_wait_for_a_launch_in_progress() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (dev, bench) = device(1);
        let dev = dev.with_pacing(Duration::from_millis(20));
        let data = bench.dataset(16, 3);
        let inb = dev.memory().alloc(0, data.raw().len() as u64).unwrap();
        let outb = dev.memory().alloc(0, 16 * 8).unwrap();
        dev.copy_to_device(inb, data.raw()).unwrap();
        let launch_returned = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Holds PE 0 for 16 x 20 ms.
                dev.launch(0, inb, outb, 16).unwrap();
                launch_returned.store(true, Ordering::SeqCst);
            });
            // Until the launch has PE 0.
            while dev.pes[0].try_lock().is_some() {
                assert!(!launch_returned.load(Ordering::SeqCst), "missed the launch");
                std::thread::yield_now();
            }
            let golden = dev.golden(0, data.row(0)).unwrap();
            assert!(
                !launch_returned.load(Ordering::SeqCst),
                "golden() queued behind the launch on PE 0"
            );
            assert!(golden > 0.0);
        });
        assert!(matches!(
            dev.golden(1, data.row(0)),
            Err(DeviceError::NoSuchPe(1))
        ));
    }

    /// Whether neither channel storage nor the datapath exists yet.
    fn unbuilt(dev: &VirtualDevice) -> bool {
        dev.channels.iter().all(|c| c.lock().is_empty())
            && format!("{:?}", dev.core).contains("synthesized: false")
    }

    #[test]
    fn host_plan_jobs_build_no_device() {
        use crate::{ExecBackend, JobOptions, RuntimeConfig, Scheduler};
        let bench = NipsBenchmark::Nips10;
        let spn = Arc::new(bench.build_spn());
        let (dev, _) = device(2);
        let dev = Arc::new(dev.with_model(Arc::clone(&spn)));
        let sched = Scheduler::new(Arc::clone(&dev), RuntimeConfig::default()).unwrap();
        let data = Arc::new(bench.dataset(3_000, 8));
        let host = JobOptions::builder()
            .backend(ExecBackend::HostPlan)
            .build()
            .unwrap();
        for _ in 0..3 {
            let got = sched.submit(Arc::clone(&data), host).unwrap().wait();
            assert_eq!(got.unwrap().len(), 3_000);
        }
        assert!(unbuilt(&dev), "host-plan jobs built device parts");

        // The first device job builds both, for its PEs alone: held to
        // PE 0, so the channel it sizes is known.
        let on_pe0 = JobOptions::builder().num_pes(1).build().unwrap();
        let got = sched.submit(Arc::clone(&data), on_pe0).unwrap().wait();
        let got = got.unwrap();
        assert_eq!(dev.channels[0].lock().len() as u64, dev.channel_capacity);
        assert!(dev.channels[1].lock().is_empty());
        assert!(format!("{:?}", dev.core).contains("synthesized: true"));
        assert_eq!(got.len(), 3_000);
        for (row, p) in data.rows().zip(&got) {
            assert_eq!(p.to_bits(), dev.golden(0, row).unwrap().to_bits());
        }
    }

    #[test]
    fn an_untouched_channel_still_refuses_what_lies_past_it() {
        let (dev, bench) = device(2);
        let data = bench.dataset(4, 1);
        let past_the_end = DeviceBuffer {
            channel: 1,
            offset: dev.channel_capacity - 16,
            len: 64,
        };
        let own = dev.memory().alloc(1, 64).unwrap();
        assert_eq!(
            dev.copy_to_device(past_the_end, data.raw()),
            Err(DeviceError::OutOfBounds)
        );
        assert_eq!(
            dev.copy_from_device(past_the_end),
            Err(DeviceError::OutOfBounds)
        );
        for (input, output) in [(past_the_end, own), (own, past_the_end)] {
            assert_eq!(
                dev.launch(1, input, output, 4),
                Err(DeviceError::OutOfBounds)
            );
        }
        let no_channel = DeviceBuffer { channel: 2, ..own };
        assert_eq!(
            dev.copy_from_device(no_channel),
            Err(DeviceError::NoSuchPe(2))
        );
        // A refused access allocates nothing.
        assert!(unbuilt(&dev));
        // The first one that fits reads the zeroed channel.
        assert_eq!(dev.copy_from_device(own).unwrap(), vec![0u8; 64]);
        assert_eq!(dev.channels[1].lock().len() as u64, dev.channel_capacity);
    }

    #[test]
    fn copy_bounds_checked() {
        let (dev, _) = device(1);
        let b = dev.memory().alloc(0, 16).unwrap();
        assert!(dev.copy_to_device(b, &[0u8; 17]).is_err());
        let bogus = DeviceBuffer {
            channel: 0,
            offset: dev.channel_capacity - 4,
            len: 64,
        };
        assert!(dev.copy_from_device(bogus).is_err());
    }

    #[test]
    fn transient_launch_faults_are_loud_and_retryable() {
        let bench = NipsBenchmark::Nips10;
        let prog = DatapathProgram::compile(&bench.build_spn());
        let dev = VirtualDevice::new(
            prog,
            AnyFormat::Cfp(CfpFormat::paper_default()),
            AcceleratorConfig::paper_default(),
            1,
            16 * MIB,
        )
        .with_faults(FaultInjection {
            launch_fail_probability: 0.5,
            seed: 11,
            ..FaultInjection::default()
        });
        let data = bench.dataset(8, 3);
        let inb = dev.memory().alloc(0, data.raw().len() as u64).unwrap();
        let outb = dev.memory().alloc(0, 8 * 8).unwrap();
        dev.copy_to_device(inb, data.raw()).unwrap();
        let (mut failures, mut successes) = (0u32, 0u32);
        for _ in 0..64 {
            match dev.launch(0, inb, outb, 8) {
                Ok(()) => successes += 1,
                Err(e @ DeviceError::TransientFault { pe: 0 }) => {
                    assert!(e.is_transient());
                    failures += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(failures > 0, "faults should fire at p=0.5");
        assert!(successes > 0, "retries should eventually succeed");
        // A successful launch after failures still produces correct bytes.
        let raw = dev.copy_from_device(outb).unwrap();
        let spn = bench.build_spn();
        let mut ev = Evaluator::new(&spn);
        let got = f64::from_le_bytes(raw[0..8].try_into().unwrap());
        let reference = ev.eval_bytes(&Query::Complete, data.row(0)).exp();
        assert!(((got - reference) / reference).abs() < 1e-4);
    }

    #[test]
    fn concurrent_jobs_on_distinct_pes() {
        let (dev, bench) = device(4);
        let dev = Arc::new(dev);
        let data = Arc::new(bench.dataset(256, 7));
        let spn = bench.build_spn();
        let mut handles = Vec::new();
        for pe in 0..4u32 {
            let dev = Arc::clone(&dev);
            let data = Arc::clone(&data);
            handles.push(std::thread::spawn(move || {
                let inb = dev.memory().alloc(pe, data.raw().len() as u64).unwrap();
                let outb = dev.memory().alloc(pe, 256 * 8).unwrap();
                dev.copy_to_device(inb, data.raw()).unwrap();
                dev.launch(pe, inb, outb, 256).unwrap();
                dev.copy_from_device(outb).unwrap()
            }));
        }
        let results: Vec<Vec<u8>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All PEs computed identical results for identical inputs.
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        // Spot-check correctness.
        let mut ev = Evaluator::new(&spn);
        let got = f64::from_le_bytes(results[0][0..8].try_into().unwrap());
        let reference = ev.eval_bytes(&Query::Complete, data.row(0)).exp();
        assert!(((got - reference) / reference).abs() < 1e-4);
    }

    /// The block-executor view of the device, driven directly.
    fn run_block(
        dev: &VirtualDevice,
        src: &[u8],
        samples: usize,
    ) -> Result<Vec<f64>, RuntimeError> {
        let metrics = crate::MetricsRegistry::new(dev.num_pes());
        let cx = BlockCx {
            pe: 0,
            tid: 0,
            block: 0,
            samples,
            ctx: spn_telemetry::SpanCtx::NONE,
            trace: None,
            metrics: &metrics,
        };
        let mut out = Vec::new();
        BlockExecutor::run_block(dev, &cx, src, &mut out).map(|()| out)
    }

    #[test]
    fn block_executor_returns_its_buffers_on_every_path() {
        let bench = NipsBenchmark::Nips10;
        let prog = DatapathProgram::compile(&bench.build_spn());
        let data = bench.dataset(100, 9);
        let device = |capacity: u64| {
            VirtualDevice::new(
                prog.clone(),
                AnyFormat::Cfp(CfpFormat::paper_default()),
                AcceleratorConfig::paper_default(),
                1,
                capacity,
            )
        };

        // Success.
        let dev = device(MIB);
        let before = dev.memory().free_bytes(0).unwrap();
        let out = run_block(&dev, data.raw(), 100).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|p| p.is_finite() && *p > 0.0));
        assert_eq!(dev.memory().free_bytes(0).unwrap(), before);

        // The launch faults after both buffers were allocated.
        let dev = device(MIB).with_faults(FaultInjection {
            launch_fail_probability: 1.0,
            ..FaultInjection::default()
        });
        match run_block(&dev, data.raw(), 100) {
            Err(RuntimeError::Device(DeviceError::TransientFault { pe: 0 })) => {}
            other => panic!("expected a transient fault, got {other:?}"),
        }
        assert_eq!(dev.memory().free_bytes(0).unwrap(), before);

        // The channel fits the 1000 B input but not the 800 B output on
        // top of it: the input buffer must not stay behind.
        let dev = device(1024);
        match run_block(&dev, data.raw(), 100) {
            Err(RuntimeError::Alloc(crate::AllocError::OutOfMemory { .. })) => {}
            other => panic!("expected out-of-memory, got {other:?}"),
        }
        assert_eq!(dev.memory().free_bytes(0).unwrap(), 1024);
    }
}
