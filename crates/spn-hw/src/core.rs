//! The accelerator core: functional + performance model of one SPN
//! inference engine (Fig. 3 of the paper).
//!
//! One core bundles the Load Unit → Sample Buffer → SPN Datapath →
//! Result Buffer → Store Unit pipeline behind an AXI4 master (data) and
//! an AXI4-Lite slave (control). The functional half executes the
//! compiled datapath bit-accurately in the configured arithmetic; the
//! performance half computes how long a job of N samples occupies the
//! core, which is what the runtime's virtual device schedules.
//!
//! ## Throughput model
//!
//! The datapath accepts one sample per cycle (fully pipelined, II = 1),
//! but the *core* sustains less:
//!
//! * the Sample Buffer assembles input vectors from 512-bit memory
//!   words, so samples wider than 64 bytes need ⌈bytes/64⌉ cycles each
//!   (NIPS80's 80-byte samples: 2 cycles);
//! * the Load Unit stalls on HBM round trips with its finite number of
//!   outstanding AXI reads — a calibrated efficiency factor;
//! * the HBM channel itself bounds input+output traffic.
//!
//! With the paper's 225 MHz clock the calibrated model lands on the
//! reported 133.1 M samples/s for a single NIPS10 core.

use crate::calib;
use crate::cfp_on_f64::CfpOnF64;
use crate::program::{DatapathProgram, SynthesizedDatapath};
use serde::{Deserialize, Serialize};
use sim_core::{Bandwidth, SimDuration};
use spn_arith::{AnyFormat, CfpFormat, F64Format, LnsFormat, PositFormat};

/// Core configuration (synthesis-time parameters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Accelerator clock (225 MHz in the paper's design).
    pub clock_hz: u64,
    /// Memory-interface word width in bits (512 after SmartConnect
    /// doubling).
    pub word_bits: u32,
    /// Fraction of clock cycles the Load Unit actually delivers a sample
    /// (outstanding-request limits, HBM round-trip stalls). Calibrated
    /// against §V-B's single-core NIPS10 rate.
    pub load_efficiency: f64,
    /// Per-job fixed overhead (register writes, pipeline fill/drain).
    pub job_overhead: SimDuration,
}

impl AcceleratorConfig {
    /// The paper's configuration. `load_efficiency` is calibrated so a
    /// single NIPS10 core sustains 133,139,305 samples/s at 225 MHz.
    pub fn paper_default() -> Self {
        AcceleratorConfig {
            clock_hz: calib::ACCEL_CLOCK_HZ,
            word_bits: 512,
            load_efficiency: calib::PAPER_NIPS10_SINGLE_CORE / calib::ACCEL_CLOCK_HZ as f64,
            job_overhead: SimDuration::from_us(3),
        }
    }

    /// Cycles the sample buffer needs to assemble one input vector.
    pub(crate) fn cycles_per_sample(&self, input_bytes: u64) -> u64 {
        let word_bytes = self.word_bits as u64 / 8;
        input_bytes.div_ceil(word_bytes).max(1)
    }

    /// Compute-side sustained rate in samples/s (ignoring memory).
    pub fn compute_rate(&self, input_bytes: u64) -> f64 {
        self.clock_hz as f64 * self.load_efficiency / self.cycles_per_sample(input_bytes) as f64
    }

    /// Sustained rate in samples/s when fed from a memory channel with
    /// the given effective bandwidth, moving `input_bytes` in and
    /// `result_bytes` out per sample.
    pub(crate) fn sustained_rate(
        &self,
        input_bytes: u64,
        result_bytes: u64,
        channel_bw: Bandwidth,
    ) -> f64 {
        let mem_rate = channel_bw.bytes_per_sec() / (input_bytes + result_bytes) as f64;
        self.compute_rate(input_bytes).min(mem_rate)
    }

    /// Wall time one job of `samples` occupies the core (performance
    /// model used by the virtual device).
    pub fn job_time(
        &self,
        samples: u64,
        input_bytes: u64,
        result_bytes: u64,
        channel_bw: Bandwidth,
    ) -> SimDuration {
        let rate = self.sustained_rate(input_bytes, result_bytes, channel_bw);
        self.job_overhead + SimDuration::from_secs_f64(samples as f64 / rate)
    }
}

/// The datapath synthesised for whichever format the core was built in.
#[derive(Debug, Clone)]
enum Synthesized {
    /// A CFP format the host's `f64` unit computes bit for bit
    /// ([`CfpOnF64`]).
    CfpOnF64(SynthesizedDatapath<CfpOnF64>),
    /// Every other CFP format, in its integer emulation.
    Cfp(SynthesizedDatapath<CfpFormat>),
    Lns(SynthesizedDatapath<LnsFormat>),
    Posit(SynthesizedDatapath<PositFormat>),
    F64(SynthesizedDatapath<F64Format>),
}

/// A functional + timed accelerator core.
#[derive(Debug, Clone)]
pub struct AcceleratorCore {
    config: AcceleratorConfig,
    program: DatapathProgram,
    format: AnyFormat,
    /// What [`AcceleratorCore::run_job`] streams through.
    datapath: Synthesized,
}

impl AcceleratorCore {
    /// Instantiate a core for a compiled datapath: synthesise it in
    /// `format`, constants and all. A CFP format runs on the host's
    /// `f64` unit whenever that gives the same bits as its integer
    /// emulation (round-to-nearest-even, `mant_bits ≤ 24`).
    pub fn new(config: AcceleratorConfig, program: DatapathProgram, format: AnyFormat) -> Self {
        let datapath = match &format {
            AnyFormat::Cfp(f) => match CfpOnF64::new(*f) {
                Some(on_f64) => Synthesized::CfpOnF64(program.synthesize(&on_f64)),
                None => Synthesized::Cfp(program.synthesize(f)),
            },
            AnyFormat::Lns(f) => Synthesized::Lns(program.synthesize(f)),
            AnyFormat::Posit(f) => Synthesized::Posit(program.synthesize(f)),
            AnyFormat::F64 => Synthesized::F64(program.synthesize(&F64Format)),
        };
        AcceleratorCore {
            config,
            program,
            format,
            datapath,
        }
    }

    /// Core configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The compiled datapath.
    pub fn program(&self) -> &DatapathProgram {
        &self.program
    }

    /// The arithmetic format the datapath was "synthesized" in.
    pub fn format(&self) -> &AnyFormat {
        &self.format
    }

    /// Input bytes per sample.
    pub fn input_bytes(&self) -> u64 {
        self.program.num_vars() as u64
    }

    /// Result bytes per sample (one f64).
    pub fn result_bytes(&self) -> u64 {
        8
    }

    /// Functionally execute a job on the synthesised datapath: raw
    /// input bytes in, probabilities out (as the 64-bit values the
    /// Store Unit writes back).
    pub fn run_job(&self, input: &[u8]) -> Vec<f64> {
        let mut out = Vec::new();
        match &self.datapath {
            Synthesized::CfpOnF64(d) => d.execute_into(input, &mut out),
            Synthesized::Cfp(d) => d.execute_into(input, &mut out),
            Synthesized::Lns(d) => d.execute_into(input, &mut out),
            Synthesized::Posit(d) => d.execute_into(input, &mut out),
            Synthesized::F64(d) => d.execute_into(input, &mut out),
        }
        out
    }

    /// Execute one sample on the unsynthesised reference
    /// ([`DatapathProgram::execute`]) — deliberately not the datapath
    /// `run_job` uses, so a golden check compares two implementations.
    pub fn run_sample(&self, sample: &[u8]) -> f64 {
        match &self.format {
            AnyFormat::Cfp(f) => self.program.execute(f, sample),
            AnyFormat::Lns(f) => self.program.execute(f, sample),
            AnyFormat::Posit(f) => self.program.execute(f, sample),
            AnyFormat::F64 => self.program.execute(&F64Format, sample),
        }
    }

    /// Time a job of `samples` occupies this core, fed by a channel with
    /// `channel_bw` effective bandwidth.
    pub fn job_time(&self, samples: u64, channel_bw: Bandwidth) -> SimDuration {
        self.config
            .job_time(samples, self.input_bytes(), self.result_bytes(), channel_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::{Evaluator, NipsBenchmark, Query};

    impl AcceleratorCore {
        /// Sustained rate of this core on the given channel.
        fn sustained_rate(&self, channel_bw: Bandwidth) -> f64 {
            self.config
                .sustained_rate(self.input_bytes(), self.result_bytes(), channel_bw)
        }
    }

    fn channel_bw() -> Bandwidth {
        Bandwidth::from_gib_per_sec(12.0)
    }

    fn nips10_core() -> AcceleratorCore {
        let spn = NipsBenchmark::Nips10.build_spn();
        AcceleratorCore::new(
            AcceleratorConfig::paper_default(),
            DatapathProgram::compile(&spn),
            AnyFormat::Cfp(CfpFormat::paper_default()),
        )
    }

    #[test]
    fn calibrated_nips10_rate_matches_paper() {
        let core = nips10_core();
        let rate = core.sustained_rate(channel_bw());
        let paper = calib::PAPER_NIPS10_SINGLE_CORE;
        assert!(
            (rate - paper).abs() / paper < 0.001,
            "model {rate} vs paper {paper}"
        );
    }

    #[test]
    fn single_channel_feeds_one_nips10_core_easily() {
        // Paper §V-B: 2.23 GiB/s needed, ~12 GiB/s available.
        let core = nips10_core();
        let needed = core.sustained_rate(channel_bw())
            * (core.input_bytes() + core.result_bytes()) as f64
            / (1u64 << 30) as f64;
        assert!((needed - 2.23).abs() < 0.05, "needs {needed} GiB/s");
        // Compute-bound, not memory-bound.
        let cfg = core.config();
        assert!(cfg.compute_rate(10) < channel_bw().bytes_per_sec() / 18.0);
    }

    #[test]
    fn wide_samples_halve_the_rate() {
        let cfg = AcceleratorConfig::paper_default();
        assert_eq!(cfg.cycles_per_sample(10), 1);
        assert_eq!(cfg.cycles_per_sample(64), 1);
        assert_eq!(cfg.cycles_per_sample(65), 2);
        assert_eq!(cfg.cycles_per_sample(80), 2); // NIPS80
        assert_eq!(cfg.cycles_per_sample(129), 3);
        let r64 = cfg.compute_rate(64);
        let r80 = cfg.compute_rate(80);
        assert!((r64 / r80 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn starved_channel_limits_rate() {
        let core = nips10_core();
        let thin = Bandwidth::from_gib_per_sec(0.5);
        let rate = core.sustained_rate(thin);
        let expected = thin.bytes_per_sec() / 18.0;
        assert!((rate - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn job_time_includes_overhead_and_scales() {
        let core = nips10_core();
        let t1 = core.job_time(1_000_000, channel_bw());
        let t2 = core.job_time(2_000_000, channel_bw());
        // Twice the samples is a bit less than twice the time (fixed
        // overhead amortizes).
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!(ratio < 2.0 && ratio > 1.9, "ratio {ratio}");
        // 1M samples at ~133M/s ≈ 7.5 ms.
        assert!((t1.as_secs_f64() - 0.0075).abs() < 0.001);
    }

    #[test]
    fn functional_results_match_reference() {
        let bench = NipsBenchmark::Nips10;
        let spn = bench.build_spn();
        let core = nips10_core();
        let data = bench.dataset(32, 9);
        let results = core.run_job(data.raw());
        let mut ev = Evaluator::new(&spn);
        for (row, &hw) in data.rows().zip(&results) {
            let reference = ev.eval_bytes(&Query::Complete, row).exp();
            let rel = ((hw - reference) / reference).abs();
            assert!(rel < 1e-4, "hw {hw} vs ref {reference}");
        }
        assert_eq!(results.len(), 32);
    }

    #[test]
    /// Round-to-nearest-even CFP of at most 24 mantissa bits, and
    /// nothing else.
    fn only_a_qualifying_cfp_core_runs_on_the_f64_unit() {
        use spn_arith::{truncating_cfp, Rounding};
        let prog = DatapathProgram::compile(&NipsBenchmark::Nips10.build_spn());
        let on_f64 = |format| {
            let core =
                AcceleratorCore::new(AcceleratorConfig::paper_default(), prog.clone(), format);
            matches!(core.datapath, Synthesized::CfpOnF64(_))
        };
        let rne = |mant_bits| AnyFormat::Cfp(CfpFormat::new(8, mant_bits, Rounding::NearestEven));
        assert!(on_f64(AnyFormat::paper_default()));
        assert!(on_f64(rne(24)));
        assert!(!on_f64(rne(25)));
        assert!(!on_f64(AnyFormat::Cfp(truncating_cfp(11, 22))));
        assert!(!on_f64(AnyFormat::from_name("lns").unwrap()));
    }

    #[test]
    fn all_formats_run() {
        let bench = NipsBenchmark::Nips10;
        let prog = DatapathProgram::compile(&bench.build_spn());
        let sample = bench.dataset(1, 2);
        let reference = {
            let core = AcceleratorCore::new(
                AcceleratorConfig::paper_default(),
                prog.clone(),
                AnyFormat::F64,
            );
            core.run_sample(sample.row(0))
        };
        // Posit gets a looser bound: its tapered precision is weak at
        // the tiny probabilities SPNs produce (the finding of [4]).
        for (name, tol) in [("cfp", 1e-3), ("lns", 1e-3), ("posit", 2e-2)] {
            let core = AcceleratorCore::new(
                AcceleratorConfig::paper_default(),
                prog.clone(),
                AnyFormat::from_name(name).unwrap(),
            );
            let got = core.run_sample(sample.row(0));
            let rel = ((got - reference) / reference).abs();
            assert!(rel < tol, "{name}: {got} vs {reference}");
        }
    }
}
