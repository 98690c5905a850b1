//! End-to-end performance simulation: the model behind Figs. 4 and 6.
//!
//! Replays the runtime's control-thread protocol in virtual time: every
//! control thread claims a block from the scheduler's own claim core
//! (`dispatch`) at the DES time it frees, then loops `H2D transfer → PE
//! execute → D2H transfer`; transfers contend on the shared DMA engine,
//! PE executions occupy their core, bounded by its HBM channel. The
//! threads are the actors of a [`sim_core::Model`] whose event is
//! "thread `tid` reaches `phase`"; the [`Engine`] fires them in time
//! order (ties in scheduling order), so claims and FIFO grants happen in
//! request order and the simulation is deterministic.
//!
//! Two measurement modes mirror Fig. 4's two panels: with host↔device
//! transfers (true end-to-end) and without (on-device only — the
//! "embarrassingly parallel" panel that scales linearly).

use crate::dispatch::{Claim, Dispatch, Ended};
use crate::job::{block_len, split_into_blocks, Block};
use mem_model::HbmChannelConfig;
use pcie_model::{Direction, DmaConfig, DmaEngine};
use serde::{Deserialize, Serialize};
use sim_core::{
    Bandwidth, Engine, Grant, LogHistogram, Model, Scheduler, SimDuration, SimTime, Timeline,
};
use spn_core::NipsBenchmark;
use spn_hw::AcceleratorConfig;
use spn_telemetry::{LiveSpan, SpanCtx, SpanKind};

/// Configuration of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// The benchmark (fixes bytes/sample).
    pub benchmark: NipsBenchmark,
    /// Number of accelerator cores (each with a dedicated HBM channel).
    pub num_pes: u32,
    /// Control threads per PE.
    pub threads_per_pe: u32,
    /// Samples in the largest block; a job smaller than one such block
    /// per PE is split evenly over the PEs, as the scheduler splits it.
    pub block_samples: u64,
    /// Total samples in the job (the paper uses 100,000,000).
    pub total_samples: u64,
    /// Include host↔device transfers (Fig. 4 right) or not (left).
    pub include_transfers: bool,
    /// DMA engine / PCIe model.
    pub dma: DmaConfig,
    /// Per-channel HBM model.
    pub hbm: HbmChannelConfig,
    /// Accelerator core model.
    pub accel: AcceleratorConfig,
    /// Host-side interference: fractional DMA-efficiency loss per
    /// *additional* concurrent PE stream. The paper attributes its gap
    /// to the PCIe bound to "imperfect overlapping of the data transfers
    /// and the interference with the actual computation"; calibrating
    /// against its two data points (10.3 GiB/s combined at 5 NIPS10
    /// cores, ~9.55 GiB/s at 8 NIPS80 cores) gives ~3.3% per stream.
    pub host_contention_per_pe: f64,
}

impl PerfConfig {
    /// The paper's measurement setup for a benchmark: 100 M samples,
    /// one control thread per PE (the configuration all reported results
    /// use), 2^20-sample blocks, PCIe 3.0 x16.
    pub fn paper_setup(benchmark: NipsBenchmark, num_pes: u32) -> Self {
        PerfConfig {
            benchmark,
            num_pes,
            threads_per_pe: 1,
            block_samples: 1 << 20,
            total_samples: 100_000_000,
            include_transfers: true,
            dma: DmaConfig::paper_default(),
            hbm: HbmChannelConfig::calibrated(mem_model::ClockConfig::Half225DoubleWidth),
            accel: AcceleratorConfig::paper_default(),
            host_contention_per_pe: 0.033,
        }
    }
}

/// Results of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfResult {
    /// End-to-end samples per second.
    pub samples_per_sec: f64,
    /// Completion time of the whole job.
    pub makespan: SimDuration,
    /// DMA engine utilization over the makespan (shared-engine total).
    pub dma_utilization: f64,
    /// Mean PE utilization over the makespan.
    pub pe_utilization: f64,
    /// Aggregate bytes moved over PCIe.
    pub pcie_bytes: u64,
    /// Per-block end-to-end latency percentiles (p50, p95, p99) in
    /// seconds, when any block completed.
    pub block_latency: Option<(f64, f64, f64)>,
}

/// What a control thread does next for its current block.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Claim the next block and request its H2D transfer.
    Start,
    /// Launch the accelerator (input data landed on the device).
    Execute,
    /// Request the D2H readback (accelerator finished).
    Readback,
}

/// The control-thread pipeline as a discrete-event model. One event is
/// "thread `tid` reaches `phase`"; handling it reserves the resource
/// that phase needs and schedules the thread's next phase at the
/// grant's end. Going through the calendar — rather than chaining each
/// thread's reservations ahead — matters because the DMA engine is
/// *shared*: reserving a thread's future readback before another
/// thread's earlier upload would push the FIFO past idle time it can
/// never backfill.
struct Pipeline<'a> {
    cfg: &'a PerfConfig,
    in_bytes_per_sample: u64,
    out_bytes_per_sample: u64,
    /// HBM channel bandwidth seen by each core.
    channel_bw: Bandwidth,
    blocks: Vec<Block>,
    dispatch: Dispatch<u64>,
    dma: DmaEngine,
    pes: Vec<Timeline>,
    /// Per thread: the job and the index of the block in flight, and
    /// when it was claimed.
    current: Vec<Option<(u64, usize, SimTime)>>,
    latency: LogHistogram,
    makespan: SimTime,
    pcie_bytes: u64,
    trace: Option<&'a mut Vec<LiveSpan>>,
}

impl Pipeline<'_> {
    /// The PE thread `tid` drives.
    fn pe(&self, tid: u32) -> u32 {
        tid % self.cfg.num_pes
    }

    /// Record grant `g` for block `idx` as a span on thread `tid`'s
    /// track, in microseconds of virtual time.
    fn span(&mut self, kind: SpanKind, tid: u32, idx: usize, g: Grant) {
        let pe = self.pe(tid);
        let us = |ps: u64| ps as f64 / 1e6;
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(LiveSpan {
                kind,
                ctx: SpanCtx::NONE,
                pe,
                tid,
                block: idx as u64,
                ts_us: us(g.start.as_ps()),
                dur_us: us(g.end.saturating_since(g.start).as_ps()),
            });
        }
    }

    /// Move block `idx`'s input or results over PCIe, requested at
    /// `at`; returns when the data has landed (`at` itself in the
    /// on-device-only mode).
    fn transfer(&mut self, dir: Direction, tid: u32, idx: usize, at: SimTime) -> SimTime {
        if !self.cfg.include_transfers {
            return at;
        }
        let (kind, bytes_per_sample) = match dir {
            Direction::HostToDevice => (SpanKind::H2D, self.in_bytes_per_sample),
            Direction::DeviceToHost => (SpanKind::D2H, self.out_bytes_per_sample),
        };
        let bytes = self.blocks[idx].samples * bytes_per_sample;
        self.pcie_bytes += bytes;
        let g = self.dma.transfer(dir, at, bytes);
        self.span(kind, tid, idx, g);
        g.end
    }
}

impl Model for Pipeline<'_> {
    type Event = (u32, Phase);

    fn handle(&mut self, (tid, phase): (u32, Phase), sched: &mut Scheduler<(u32, Phase)>) {
        let now = sched.now();
        let pe = self.pe(tid) as usize;
        let (at, next) = match phase {
            Phase::Start => {
                let Claim::Run(job, idx) = self.dispatch.claim(tid as usize) else {
                    return; // every block is claimed; the thread retires
                };
                self.current[tid as usize] = Some((job, idx, now));
                let landed = self.transfer(Direction::HostToDevice, tid, idx, now);
                (landed, Phase::Execute)
            }
            Phase::Execute => {
                let (_, idx, _) = self.current[tid as usize].expect("block in flight");
                let job_time = self.cfg.accel.job_time(
                    self.blocks[idx].samples,
                    self.in_bytes_per_sample,
                    self.out_bytes_per_sample,
                    self.channel_bw,
                );
                let g = self.pes[pe].reserve(now, job_time);
                self.span(SpanKind::Execute, tid, idx, g);
                (g.end, Phase::Readback)
            }
            Phase::Readback => {
                let (job, idx, issued_at) =
                    self.current[tid as usize].take().expect("block in flight");
                self.dispatch.block_done(job, Ended::<()>::Done, None);
                let done = self.transfer(Direction::DeviceToHost, tid, idx, now);
                self.latency
                    .record_duration(done.saturating_since(issued_at));
                self.makespan = self.makespan.max(done);
                (done, Phase::Start)
            }
        };
        sched.schedule_at(at, (tid, next));
    }
}

/// Run the simulation.
pub fn simulate(cfg: &PerfConfig) -> PerfResult {
    simulate_impl(cfg, None)
}

/// Run the simulation while recording every transfer and execution as
/// a span on its control thread's track, in recording order
/// (exportable with [`spn_telemetry::chrome_trace_json`]).
pub fn simulate_traced(cfg: &PerfConfig) -> (PerfResult, Vec<LiveSpan>) {
    let mut trace = Vec::new();
    let result = simulate_impl(cfg, Some(&mut trace));
    (result, trace)
}

fn simulate_impl(cfg: &PerfConfig, trace: Option<&mut Vec<LiveSpan>>) -> PerfResult {
    assert!(cfg.num_pes >= 1 && cfg.threads_per_pe >= 1);
    let in_bytes_per_sample = cfg.benchmark.input_bytes_per_sample();
    let block = block_len(cfg.total_samples, cfg.block_samples, cfg.num_pes);
    let blocks = split_into_blocks(cfg.total_samples, block);

    // The HBM channel bandwidth seen by each core: effective bandwidth
    // at the block's request footprint (capped at the 1 MiB saturation
    // point of Fig. 2).
    let request_bytes = (block * in_bytes_per_sample).min(1 << 20);

    // Host-side interference derates the engine as streams multiply.
    let contention = 1.0 + cfg.host_contention_per_pe * (cfg.num_pes - 1) as f64;
    let mut dma_cfg = cfg.dma;
    dma_cfg.link.dma_efficiency /= contention;

    let num_threads = cfg.num_pes * cfg.threads_per_pe;
    let mut dispatch = Dispatch::new(cfg.num_pes, num_threads as usize, 1);
    let _ = dispatch.submit(blocks.len(), cfg.num_pes, false, |id| id); // its id is its token
    let mut engine = Engine::new(Pipeline {
        cfg,
        in_bytes_per_sample,
        out_bytes_per_sample: cfg.benchmark.result_bytes_per_sample(),
        channel_bw: cfg.hbm.effective_bandwidth(request_bytes),
        blocks,
        dispatch,
        dma: DmaEngine::new(dma_cfg),
        pes: (0..cfg.num_pes).map(|_| Timeline::new("pe")).collect(),
        current: vec![None; num_threads as usize],
        latency: LogHistogram::latency(),
        makespan: SimTime::ZERO,
        pcie_bytes: 0,
        trace,
    });
    for tid in 0..num_threads {
        engine
            .scheduler()
            .schedule_at(SimTime::ZERO, (tid, Phase::Start));
    }
    engine.run_to_completion();
    let run = engine.into_model();

    let makespan = run.makespan;
    let pe_util: f64 =
        run.pes.iter().map(|p| p.utilization(makespan)).sum::<f64>() / cfg.num_pes as f64;
    let lat = run.latency.summary();
    PerfResult {
        samples_per_sec: cfg.total_samples as f64 / makespan.as_secs_f64(),
        makespan: makespan.saturating_since(SimTime::ZERO),
        dma_utilization: run.dma.utilization(Direction::HostToDevice, makespan),
        pe_utilization: pe_util,
        pcie_bytes: run.pcie_bytes,
        block_latency: (lat.count > 0).then_some((lat.p50, lat.p95, lat.p99)),
    }
}

/// Sweep PE counts for one benchmark (one Fig. 4 series).
pub fn scaling_series(
    benchmark: NipsBenchmark,
    pe_counts: &[u32],
    include_transfers: bool,
    threads_per_pe: u32,
) -> Vec<(u32, PerfResult)> {
    pe_counts
        .iter()
        .map(|&n| {
            let mut cfg = PerfConfig::paper_setup(benchmark, n);
            cfg.include_transfers = include_transfers;
            cfg.threads_per_pe = threads_per_pe;
            (n, simulate(&cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_hw::calib;

    #[test]
    fn single_core_rate_matches_calibration() {
        // Without transfers, one PE sustains the paper's single-core rate
        // (minus job-overhead amortization).
        let mut cfg = PerfConfig::paper_setup(NipsBenchmark::Nips10, 1);
        cfg.include_transfers = false;
        let r = simulate(&cfg);
        let paper = calib::PAPER_NIPS10_SINGLE_CORE;
        assert!(
            (r.samples_per_sec - paper).abs() / paper < 0.01,
            "got {} vs paper {paper}",
            r.samples_per_sec
        );
    }

    #[test]
    fn without_transfers_scaling_is_linear() {
        // Fig. 4 left panel.
        let series = scaling_series(NipsBenchmark::Nips10, &[1, 2, 4, 8], false, 1);
        let base = series[0].1.samples_per_sec;
        for (n, r) in &series {
            let scale = r.samples_per_sec / base;
            assert!(
                (scale - *n as f64).abs() / (*n as f64) < 0.02,
                "{n} PEs scale {scale}"
            );
        }
    }

    #[test]
    fn with_transfers_nips10_saturates_around_five_pes() {
        // Fig. 4 right panel: adding PEs beyond ~5 stops helping.
        let series = scaling_series(NipsBenchmark::Nips10, &[1, 2, 3, 4, 5, 6, 7, 8], true, 1);
        let r5 = series[4].1.samples_per_sec;
        let r8 = series[7].1.samples_per_sec;
        assert!(
            (r8 - r5) / r5 < 0.15,
            "5→8 PEs should add <15%: {r5} -> {r8}"
        );
        // And the 5-PE point lands near the paper's 614.6 M samples/s.
        let paper = calib::PAPER_NIPS10_FIVE_CORE;
        assert!(
            (r5 - paper).abs() / paper < 0.15,
            "5-PE rate {r5} vs paper {paper}"
        );
        // The flat region is DMA-bound.
        assert!(series[7].1.dma_utilization > 0.9);
    }

    #[test]
    fn nips80_end_to_end_matches_paper_peak() {
        let cfg = PerfConfig::paper_setup(NipsBenchmark::Nips80, 8);
        let r = simulate(&cfg);
        let paper = calib::PAPER_NIPS80_PEAK;
        assert!(
            (r.samples_per_sec - paper).abs() / paper < 0.15,
            "NIPS80 model {} vs paper {paper}",
            r.samples_per_sec
        );
    }

    #[test]
    fn two_threads_help_below_four_pes_only() {
        // §V-B: "using more than one control-thread only improves
        // performance for less than four accelerators".
        let one = scaling_series(NipsBenchmark::Nips10, &[1, 2, 8], true, 1);
        let two = scaling_series(NipsBenchmark::Nips10, &[1, 2, 8], true, 2);
        // Clear gain at 1-2 PEs.
        for i in 0..2 {
            let gain = two[i].1.samples_per_sec / one[i].1.samples_per_sec;
            assert!(gain > 1.1, "at {} PEs, 2 threads gain {gain}", one[i].0);
        }
        // Negligible gain at 8 PEs (DMA-bound either way).
        let gain8 = two[2].1.samples_per_sec / one[2].1.samples_per_sec;
        assert!(gain8 < 1.1, "at 8 PEs, 2 threads gain {gain8}");
    }

    #[test]
    fn transfers_inclusive_is_never_faster() {
        for bench in spn_core::ALL_BENCHMARKS {
            let mut with = PerfConfig::paper_setup(bench, 4);
            let mut without = with;
            with.include_transfers = true;
            without.include_transfers = false;
            assert!(
                simulate(&with).samples_per_sec <= simulate(&without).samples_per_sec * 1.001,
                "{}",
                bench.name()
            );
        }
    }

    #[test]
    fn traced_run_is_structurally_valid() {
        let mut cfg = PerfConfig::paper_setup(NipsBenchmark::Nips10, 2);
        cfg.total_samples = 8 << 20;
        cfg.threads_per_pe = 2;
        let (result, trace) = simulate_traced(&cfg);
        // 8 blocks -> 8 spans of each kind. (The per-track and per-block
        // ordering check is `tests/telemetry.rs`'s.)
        for kind in [SpanKind::H2D, SpanKind::Execute, SpanKind::D2H] {
            assert_eq!(trace.iter().filter(|s| s.kind == kind).count(), 8);
        }
        // Traced and untraced results agree.
        let plain = simulate(&cfg);
        assert_eq!(plain.samples_per_sec, result.samples_per_sec);
        // Latency percentiles are populated and ordered.
        let (p50, p95, p99) = result.block_latency.unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 > 0.0);
    }

    #[test]
    fn trace_shows_transfer_compute_overlap() {
        // With 2 threads per PE, some H2D span must overlap some Execute
        // span on the same PE — the paper's double-buffering.
        let mut cfg = PerfConfig::paper_setup(NipsBenchmark::Nips10, 1);
        cfg.total_samples = 16 << 20;
        cfg.threads_per_pe = 2;
        let (_, trace) = simulate_traced(&cfg);
        let of_kind = |kind| trace.iter().filter(move |s| s.kind == kind);
        let end = |s: &LiveSpan| s.ts_us + s.dur_us;
        let overlapped = of_kind(SpanKind::H2D).any(|h| {
            of_kind(SpanKind::Execute).any(|e| e.pe == h.pe && h.ts_us < end(e) && e.ts_us < end(h))
        });
        assert!(overlapped, "no transfer/compute overlap observed");
    }

    /// A job smaller than one block per PE is split evenly, as the
    /// scheduler splits it: every PE executes, each span carries its
    /// block's index, and every sample crosses PCIe once each way.
    #[test]
    fn a_job_smaller_than_a_block_per_pe_runs_on_every_pe() {
        let mut cfg = PerfConfig::paper_setup(NipsBenchmark::Nips10, 4);
        cfg.total_samples = 4096;
        cfg.block_samples = 4096;
        let (r, trace) = simulate_traced(&cfg);
        let execs: Vec<&LiveSpan> = trace
            .iter()
            .filter(|s| s.kind == SpanKind::Execute)
            .collect();
        let mut pes: Vec<u32> = execs.iter().map(|s| s.pe).collect();
        pes.sort_unstable();
        assert_eq!(pes, [0, 1, 2, 3]);
        let mut idx: Vec<u64> = execs.iter().map(|s| s.block).collect();
        idx.sort_unstable();
        assert_eq!(idx, [0, 1, 2, 3]);
        assert_eq!(r.pcie_bytes, 4096 * 18);
    }

    #[test]
    fn pcie_byte_accounting() {
        let mut cfg = PerfConfig::paper_setup(NipsBenchmark::Nips10, 2);
        cfg.total_samples = 1000;
        cfg.block_samples = 300;
        let r = simulate(&cfg);
        assert_eq!(r.pcie_bytes, 1000 * 18);
    }

    #[test]
    fn bigger_benchmarks_are_slower_end_to_end() {
        // Fig. 6 shape: samples/s decreases with SPN size (DMA-bound).
        let rates: Vec<f64> = spn_core::ALL_BENCHMARKS
            .iter()
            .map(|b| simulate(&PerfConfig::paper_setup(*b, 8)).samples_per_sec)
            .collect();
        assert!(
            rates.windows(2).all(|w| w[0] > w[1]),
            "rates should fall with size: {rates:?}"
        );
    }

    /// `[makespan ps, PCIe bytes, samples/s, DMA util, PE util]` (the
    /// `f64`s as `to_bits`) for {NIPS10, NIPS80} × PEs {1, 2, 5, 8} ×
    /// transfers {on, off} × threads/PE {1, 2}, innermost last —
    /// computed at the commit before `simulate` moved onto
    /// `sim_core::Engine`, so any change to the event order, a
    /// reservation or a rounding shows here first.
    #[rustfmt::skip]
    const KNOWN_ANSWERS: [[u64; 5]; 32] = [
        [896123058087, 1800000000, 0x419a9b0622a0975d, 0x3fc4acb26a3ae9b1, 0x3fead4d365714594],
        [752474244392, 1800000000, 0x419faf430805dd91, 0x3fc89f154c02340e, 0x3feff4191e5acde4],
        [751380999935, 0, 0x419fbb1045e1f22b, 0x0000000000000000, 0x3ff0000000000000],
        [751380999935, 0, 0x419fbb1045e1f22b, 0x0000000000000000, 0x3ff0000000000000],
        [453421330080, 1800000000, 0x41aa4a83223c5866, 0x3fd519cfc84278cd, 0x3fea83a17ab52748],
        [379748981655, 1800000000, 0x41af64400a203f4c, 0x3fd931c72a3d2872, 0x3fefa87329147ea4],
        [378181484880, 0, 0x41af858f1beed3ba, 0x0000000000000000, 0x3fefca0a9855e4be],
        [378181484880, 0, 0x41af858f1beed3ba, 0x0000000000000000, 0x3fefca0a9855e4be],
        [189950334546, 1800000000, 0x41bf610a9ae15db9, 0x3feb95e94e68b084, 0x3fe950f89a9590d2],
        [164210864782, 1800000000, 0x41c2261897e34cde, 0x3fefe8d7436f26b0, 0x3fed48d71e7fa626],
        [152593648875, 0, 0x41c387cfb2b80ade, 0x0000000000000000, 0x3fef83966d4b1156],
        [152593648875, 0, 0x41c387cfb2b80ade, 0x0000000000000000, 0x3fef83966d4b1156],
        [181661820004, 1800000000, 0x41c067c75ccde49a, 0x3fef5adfbd8ca98d, 0x3fe08b6b92eb7564],
        [178000065582, 1800000000, 0x41c0be2cd4e920b8, 0x3ff0000000000000, 0x3fe0e28cbe3d3d75],
        [94545371220, 0, 0x41cf858f1beed3ba, 0x0000000000000000, 0x3fefca0a9855e4be],
        [94545371220, 0, 0x41cf858f1beed3ba, 0x0000000000000000, 0x3fefca0a9855e4be],
        [2207115172822, 8800000000, 0x41859ac35d556dfd, 0x3fd46ebce6d247e3, 0x3fe5c8a18c96dc0e],
        [1509438212069, 8800000000, 0x418f9722abca9e05, 0x3fdde06f845ea9bc, 0x3fefda3435043c2d],
        [1502473999870, 0, 0x418fbc9ee15f76c0, 0x0000000000000000, 0x3ff0000000000000],
        [1502473999870, 0, 0x418fbc9ee15f76c0, 0x0000000000000000, 0x3ff0000000000000],
        [1122564879504, 8800000000, 0x41953d1dbb609dc5, 0x3fe4bfad78805fc9, 0x3fe56a3518fce3ac],
        [763851176213, 8800000000, 0x419f3673887c08e1, 0x3fee7e1af7b7a9bc, 0x3fef78b7cd5e3b98],
        [756218969760, 0, 0x419f87187b7453eb, 0x0000000000000000, 0x3fefca07f6f66e75],
        [756218969760, 0, 0x419f87187b7453eb, 0x0000000000000000, 0x3fefca07f6f66e75],
        [807175000619, 8800000000, 0x419d89939e592f3b, 0x3fef9e573d17e874, 0x3fd7d36de2d9f41e],
        [805647929651, 8800000000, 0x419d97e8c6707bbb, 0x3fefadaee9804e9c, 0x3fd7defd8e04bc08],
        [305127297750, 0, 0x41b388cb63089d65, 0x0000000000000000, 0x3fef83a0a8cae436],
        [305127297750, 0, 0x41b388cb63089d65, 0x0000000000000000, 0x3fef83a0a8cae436],
        [876324265231, 8800000000, 0x419b34e7c9a2db8d, 0x3fefab0a5d3264e4, 0x3fcb6eaac0dda34e],
        [871344497485, 8800000000, 0x419b5cb5cad5c3c3, 0x3fefd95f5e917894, 0x3fcb96cd44226b23],
        [189054742440, 0, 0x41bf87187b7453eb, 0x0000000000000000, 0x3fefca07f6f66e75],
        [189054742440, 0, 0x41bf87187b7453eb, 0x0000000000000000, 0x3fefca07f6f66e75],
    ];

    #[test]
    fn simulate_known_answers() {
        let mut pins = KNOWN_ANSWERS.iter();
        for bench in [NipsBenchmark::Nips10, NipsBenchmark::Nips80] {
            for pes in [1, 2, 5, 8] {
                for transfers in [true, false] {
                    for threads in [1, 2] {
                        let mut cfg = PerfConfig::paper_setup(bench, pes);
                        cfg.include_transfers = transfers;
                        cfg.threads_per_pe = threads;
                        let r = simulate(&cfg);
                        let got = [
                            r.makespan.as_ps(),
                            r.pcie_bytes,
                            r.samples_per_sec.to_bits(),
                            r.dma_utilization.to_bits(),
                            r.pe_utilization.to_bits(),
                        ];
                        assert_eq!(
                            &got,
                            pins.next().unwrap(),
                            "{} pes={pes} transfers={transfers} threads={threads}",
                            bench.name()
                        );
                    }
                }
            }
        }
    }

    /// The span list of one double-buffered run, digested in recording
    /// order (same provenance as [`KNOWN_ANSWERS`]): pins which thread
    /// wins each tie on the shared DMA engine, which no aggregate shows.
    /// Each span's picosecond endpoints are recovered from its
    /// microseconds, exactly at these magnitudes.
    #[test]
    fn traced_span_list_known_answer() {
        let mut cfg = PerfConfig::paper_setup(NipsBenchmark::Nips10, 2);
        cfg.total_samples = 8 << 20;
        cfg.threads_per_pe = 2;
        let (r, trace) = simulate_traced(&cfg);
        let ps = |us: f64| (us * 1e6).round() as u64;
        let mut bytes = Vec::new();
        for s in &trace {
            bytes.extend_from_slice(s.kind.label().as_bytes());
            let start = ps(s.ts_us);
            for v in [
                u64::from(s.tid),
                u64::from(s.pe),
                s.block,
                start,
                start + ps(s.dur_us),
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        assert!(trace.iter().all(|s| s.ctx == SpanCtx::NONE));
        assert_eq!(trace.len(), 24);
        assert_eq!(sim_core::fnv1a_mix64(&bytes), 0x8c74_0c67_5f55_5e6a);
        let (p50, p95, p99) = r.block_latency.unwrap();
        assert_eq!(
            [p50.to_bits(), p95.to_bits(), p99.to_bits()],
            [
                4580190693231978796,
                4581102629763597596,
                4581102629763597596
            ]
        );
    }
}
