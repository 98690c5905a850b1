//! End-to-end performance simulation: the model behind Figs. 4 and 6.
//!
//! Replays the runtime's control-thread schedule in virtual time:
//! every control thread loops `H2D transfer → PE execute → D2H
//! transfer` over its PE's block queue; transfers contend on the shared
//! DMA engine, PE executions occupy their core, and the core's rate is
//! bounded by its dedicated HBM channel. Threads are advanced in
//! earliest-next-event order, so shared-resource FIFO grants happen in
//! time order and the simulation is deterministic.
//!
//! Two measurement modes mirror Fig. 4's two panels: with host↔device
//! transfers (true end-to-end) and without (on-device only — the
//! "embarrassingly parallel" panel that scales linearly).

use crate::job::{assign_to_pes, split_into_blocks, Block};
use crate::trace::{Span, SpanKind, Trace};
use mem_model::HbmChannelConfig;
use pcie_model::{Direction, DmaConfig, DmaEngine};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime, Timeline};
use spn_core::NipsBenchmark;
use spn_hw::AcceleratorConfig;
use spn_telemetry::TraceId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of one simulated run.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// The benchmark (fixes bytes/sample).
    pub benchmark: NipsBenchmark,
    /// Number of accelerator cores (each with a dedicated HBM channel).
    pub num_pes: u32,
    /// Control threads per PE.
    pub threads_per_pe: u32,
    /// Samples per block.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Pick up the next block and request its H2D transfer.
    Start,
    /// Launch the accelerator (input data landed on the device).
    Execute,
    /// Request the D2H readback (accelerator finished).
    Readback,
}

/// One scheduler event: thread `tid` reaches `phase` at `time`.
///
/// Events are processed in global time order so that reservations on the
/// *shared* DMA engine happen in request order — reserving a thread's
/// future readback before another thread's earlier upload would push the
/// FIFO past idle time it can never backfill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: SimTime,
    seq: u64,
    tid: u32,
    phase: Phase,
}

/// Run the simulation.
pub fn simulate(cfg: &PerfConfig) -> PerfResult {
    simulate_impl(cfg, None)
}

/// Run the simulation while recording a [`Trace`] of every span
/// (exportable to Chrome trace JSON via [`Trace::to_chrome_json`]).
pub fn simulate_traced(cfg: &PerfConfig) -> (PerfResult, Trace) {
    let mut trace = Trace::new();
    let result = simulate_impl(cfg, Some(&mut trace));
    (result, trace)
}

fn simulate_impl(cfg: &PerfConfig, mut trace: Option<&mut Trace>) -> PerfResult {
    assert!(cfg.num_pes >= 1 && cfg.threads_per_pe >= 1);
    let in_bytes_per_sample = cfg.benchmark.input_bytes_per_sample();
    let out_bytes_per_sample = cfg.benchmark.result_bytes_per_sample();

    let blocks = split_into_blocks(cfg.total_samples, cfg.block_samples);
    let mut per_pe: Vec<std::collections::VecDeque<Block>> = assign_to_pes(&blocks, cfg.num_pes)
        .into_iter()
        .map(Into::into)
        .collect();

    // The HBM channel bandwidth seen by each core: effective bandwidth
    // at the block's request footprint (capped at the 1 MiB saturation
    // point of Fig. 2).
    let request_bytes = (cfg.block_samples * in_bytes_per_sample).min(1 << 20);
    let channel_bw = cfg.hbm.effective_bandwidth(request_bytes);

    // Host-side interference derates the engine as streams multiply.
    let contention = 1.0 + cfg.host_contention_per_pe * (cfg.num_pes - 1) as f64;
    let mut dma_cfg = cfg.dma;
    dma_cfg.link.dma_efficiency /= contention;
    let mut dma = DmaEngine::new(dma_cfg);
    let mut pes: Vec<Timeline> = (0..cfg.num_pes).map(|_| Timeline::new("pe")).collect();

    // Thread table: which PE each thread drives and its current block.
    let num_threads = cfg.num_pes * cfg.threads_per_pe;
    let thread_pe: Vec<u32> = (0..num_threads).map(|t| t % cfg.num_pes).collect();
    let mut current: Vec<Option<Block>> = vec![None; num_threads as usize];
    // Per-thread bookkeeping for tracing/latency.
    let mut block_seq: Vec<u64> = vec![0; num_threads as usize];
    let mut issued_at: Vec<SimTime> = vec![SimTime::ZERO; num_threads as usize];
    let mut latency = sim_core::LogHistogram::latency();

    let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    for tid in 0..num_threads {
        queue.push(Reverse(Event {
            time: SimTime::ZERO,
            seq,
            tid,
            phase: Phase::Start,
        }));
        seq += 1;
    }

    let mut makespan = SimTime::ZERO;
    let mut pcie_bytes = 0u64;

    while let Some(Reverse(ev)) = queue.pop() {
        let pe = thread_pe[ev.tid as usize];
        let next = match ev.phase {
            Phase::Start => {
                let Some(block) = per_pe[pe as usize].pop_front() else {
                    continue; // PE's work done; thread retires
                };
                current[ev.tid as usize] = Some(block);
                block_seq[ev.tid as usize] = block.first_sample / cfg.block_samples.max(1);
                issued_at[ev.tid as usize] = ev.time;
                if cfg.include_transfers {
                    let in_bytes = block.samples * in_bytes_per_sample;
                    pcie_bytes += in_bytes;
                    let g = dma.transfer(Direction::HostToDevice, ev.time, in_bytes);
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(Span {
                            kind: SpanKind::H2D,
                            trace_id: TraceId::NONE,
                            tid: ev.tid,
                            pe,
                            block: block_seq[ev.tid as usize],
                            start: g.start,
                            end: g.end,
                        });
                    }
                    Event {
                        time: g.end,
                        seq,
                        tid: ev.tid,
                        phase: Phase::Execute,
                    }
                } else {
                    Event {
                        time: ev.time,
                        seq,
                        tid: ev.tid,
                        phase: Phase::Execute,
                    }
                }
            }
            Phase::Execute => {
                let block = current[ev.tid as usize].expect("block in flight");
                let job_time = cfg.accel.job_time(
                    block.samples,
                    in_bytes_per_sample,
                    out_bytes_per_sample,
                    channel_bw,
                );
                let g = pes[pe as usize].reserve(ev.time, job_time);
                if let Some(t) = trace.as_deref_mut() {
                    t.record(Span {
                        kind: SpanKind::Execute,
                        trace_id: TraceId::NONE,
                        tid: ev.tid,
                        pe,
                        block: block_seq[ev.tid as usize],
                        start: g.start,
                        end: g.end,
                    });
                }
                Event {
                    time: g.end,
                    seq,
                    tid: ev.tid,
                    phase: Phase::Readback,
                }
            }
            Phase::Readback => {
                let block = current[ev.tid as usize].take().expect("block in flight");
                let done = if cfg.include_transfers {
                    let out_bytes = block.samples * out_bytes_per_sample;
                    pcie_bytes += out_bytes;
                    let g = dma.transfer(Direction::DeviceToHost, ev.time, out_bytes);
                    if let Some(t) = trace.as_deref_mut() {
                        t.record(Span {
                            kind: SpanKind::D2H,
                            trace_id: TraceId::NONE,
                            tid: ev.tid,
                            pe,
                            block: block_seq[ev.tid as usize],
                            start: g.start,
                            end: g.end,
                        });
                    }
                    g.end
                } else {
                    ev.time
                };
                latency.record_duration(done.saturating_since(issued_at[ev.tid as usize]));
                makespan = makespan.max(done);
                Event {
                    time: done,
                    seq,
                    tid: ev.tid,
                    phase: Phase::Start,
                }
            }
        };
        seq += 1;
        queue.push(Reverse(next));
    }

    let secs = makespan.as_secs_f64();
    let pe_util: f64 =
        pes.iter().map(|p| p.utilization(makespan)).sum::<f64>() / cfg.num_pes as f64;
    let lat = latency.summary();
    PerfResult {
        samples_per_sec: cfg.total_samples as f64 / secs,
        makespan: makespan.saturating_since(SimTime::ZERO),
        dma_utilization: dma.utilization(Direction::HostToDevice, makespan),
        pe_utilization: pe_util,
        pcie_bytes,
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
        trace.validate().expect("trace invariants hold");
        // 8 blocks -> 8 spans of each kind.
        assert_eq!(trace.of_kind(crate::trace::SpanKind::H2D).count(), 8);
        assert_eq!(trace.of_kind(crate::trace::SpanKind::Execute).count(), 8);
        assert_eq!(trace.of_kind(crate::trace::SpanKind::D2H).count(), 8);
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
        let execs: Vec<_> = trace.of_kind(crate::trace::SpanKind::Execute).collect();
        let overlapped = trace.of_kind(crate::trace::SpanKind::H2D).any(|h| {
            execs
                .iter()
                .any(|e| e.pe == h.pe && h.start < e.end && e.start < h.end)
        });
        assert!(overlapped, "no transfer/compute overlap observed");
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
}
