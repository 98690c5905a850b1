//! The Fig. 2 micro-benchmark: a synthetic traffic block issuing linear
//! reads and writes in parallel to a single HBM channel.
//!
//! The paper measured its channel curve with "a special benchmark
//! hardware block which generates linear memory reads and writes in
//! parallel, as this is the access pattern used by our SPN accelerators".
//! This module is that block, as an event-driven simulation: a read
//! engine and a write engine each keep a configurable number of requests
//! outstanding against the channel; the channel services requests FIFO
//! with the configured per-request overhead and wire rate. The measured
//! quantity is aggregate bytes over completion time.

use crate::hbm::HbmChannelConfig;
use sim_core::{Bandwidth, Engine, Model, Scheduler, SimDuration, SimTime, Timeline};

/// Parameters of one micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrafficRun {
    /// Request size in bytes.
    pub request_bytes: u64,
    /// Number of read requests to issue.
    pub num_reads: u64,
    /// Number of write requests to issue.
    pub num_writes: u64,
    /// Outstanding requests each engine keeps in flight.
    pub outstanding_per_engine: u32,
}

/// Result of one run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrafficResult {
    /// Total bytes moved (reads + writes).
    pub total_bytes: u64,
    /// Completion time of the last request.
    pub makespan: SimTime,
}

impl TrafficResult {
    /// Achieved aggregate throughput.
    fn throughput(&self) -> Bandwidth {
        Bandwidth::observed(self.total_bytes, self.makespan - SimTime::ZERO)
            .unwrap_or(Bandwidth::from_bytes_per_sec(0.0))
    }
}

#[derive(Debug)]
enum Ev {
    /// An engine wants to issue its next request. `is_read` tags the engine.
    Issue { is_read: bool },
    /// The channel finished a request.
    Complete { is_read: bool },
}

struct Bench {
    cfg: HbmChannelConfig,
    run: TrafficRun,
    // Requests not yet issued, per engine.
    reads_left: u64,
    writes_left: u64,
    /// The channel is a FIFO server.
    channel: Timeline,
    completed_bytes: u64,
}

impl Model for Bench {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Issue { is_read } => {
                let left = if is_read {
                    &mut self.reads_left
                } else {
                    &mut self.writes_left
                };
                if *left == 0 {
                    return;
                }
                *left -= 1;
                let service = self.cfg.service_time(self.run.request_bytes);
                let grant = self.channel.reserve(sched.now(), service);
                sched.schedule_at(grant.end, Ev::Complete { is_read });
            }
            Ev::Complete { is_read } => {
                self.completed_bytes += self.run.request_bytes;
                // Completion frees an outstanding slot: issue the next one.
                sched.schedule_in(SimDuration::ZERO, Ev::Issue { is_read });
            }
        }
    }
}

/// Execute the micro-benchmark and report achieved throughput.
pub(crate) fn run_channel_benchmark(cfg: HbmChannelConfig, run: TrafficRun) -> TrafficResult {
    assert!(
        run.outstanding_per_engine > 0,
        "need at least 1 outstanding"
    );
    assert!(run.request_bytes > 0, "requests must move data");
    let mut engine = Engine::new(Bench {
        cfg,
        run,
        reads_left: run.num_reads,
        writes_left: run.num_writes,
        channel: Timeline::new("hbm-channel"),
        completed_bytes: 0,
    });
    // Prime both engines with their outstanding windows.
    for _ in 0..run.outstanding_per_engine {
        engine
            .scheduler()
            .schedule_in(SimDuration::ZERO, Ev::Issue { is_read: true });
        engine
            .scheduler()
            .schedule_in(SimDuration::ZERO, Ev::Issue { is_read: false });
    }
    engine.run_to_completion();
    let model = engine.into_model();
    TrafficResult {
        total_bytes: model.completed_bytes,
        // The last completion is the end of the channel's last grant.
        makespan: model.channel.free_at(),
    }
}

/// Sweep request sizes, reproducing the Fig. 2 curve for one clocking
/// configuration. Each point streams ~256 MiB so the curve is steady-state.
pub fn sweep_request_sizes(cfg: HbmChannelConfig, sizes: &[u64]) -> Vec<(u64, Bandwidth)> {
    sizes
        .iter()
        .map(|&size| {
            let per_engine = ((128u64 << 20) / size).max(4);
            let res = run_channel_benchmark(
                cfg,
                TrafficRun {
                    request_bytes: size,
                    num_reads: per_engine,
                    num_writes: per_engine,
                    outstanding_per_engine: 2,
                },
            );
            (size, res.throughput())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::ClockConfig;
    use sim_core::{KIB, MIB};

    fn cfg() -> HbmChannelConfig {
        HbmChannelConfig::calibrated(ClockConfig::Half225DoubleWidth)
    }

    #[test]
    fn all_requests_complete() {
        let res = run_channel_benchmark(
            cfg(),
            TrafficRun {
                request_bytes: 64 * KIB,
                num_reads: 100,
                num_writes: 100,
                outstanding_per_engine: 2,
            },
        );
        assert_eq!(res.total_bytes, 200 * 64 * KIB);
        assert!(res.makespan > SimTime::ZERO);
    }

    #[test]
    fn des_matches_closed_form_at_steady_state() {
        // With the channel as the bottleneck and always-outstanding
        // engines, achieved throughput equals the closed-form effective
        // bandwidth at that request size.
        let c = cfg();
        for size in [4 * KIB, 64 * KIB, MIB] {
            let res = run_channel_benchmark(
                c,
                TrafficRun {
                    request_bytes: size,
                    num_reads: 500,
                    num_writes: 500,
                    outstanding_per_engine: 4,
                },
            );
            let des = res.throughput().gib_per_sec();
            let closed = c.effective_bandwidth(size).gib_per_sec();
            assert!(
                (des - closed).abs() / closed < 0.01,
                "size {size}: DES {des} vs closed-form {closed}"
            );
        }
    }

    #[test]
    fn sweep_is_monotone_and_saturates() {
        let sizes: Vec<u64> = (0..9).map(|i| (4 * KIB) << i).collect(); // 4KiB..1MiB
        let curve = sweep_request_sizes(cfg(), &sizes);
        for w in curve.windows(2) {
            assert!(w[1].1.gib_per_sec() >= w[0].1.gib_per_sec() * 0.999);
        }
        let last = curve.last().unwrap().1.gib_per_sec();
        assert!((11.4..12.2).contains(&last), "saturated at {last} GiB/s");
    }

    #[test]
    fn reads_and_writes_share_the_channel() {
        // Same total data as reads-only should take the same time
        // (single shared FIFO server).
        let c = cfg();
        let mixed = run_channel_benchmark(
            c,
            TrafficRun {
                request_bytes: MIB,
                num_reads: 50,
                num_writes: 50,
                outstanding_per_engine: 2,
            },
        );
        let reads_only = run_channel_benchmark(
            c,
            TrafficRun {
                request_bytes: MIB,
                num_reads: 100,
                num_writes: 0,
                outstanding_per_engine: 4,
            },
        );
        let a = mixed.makespan.as_secs_f64();
        let b = reads_only.makespan.as_secs_f64();
        assert!((a - b).abs() / a < 0.01, "mixed {a}s vs reads-only {b}s");
    }

    #[test]
    fn single_outstanding_still_saturates_large_requests() {
        // With 1 MiB requests even one outstanding per engine keeps the
        // channel busy (service dominates turnaround in this model).
        let res = run_channel_benchmark(
            cfg(),
            TrafficRun {
                request_bytes: MIB,
                num_reads: 64,
                num_writes: 64,
                outstanding_per_engine: 1,
            },
        );
        assert!(res.throughput().gib_per_sec() > 11.0);
    }

    /// `sweep_request_sizes` at Fig. 2's thirteen sizes (4 KiB..16 MiB),
    /// bytes/s as `to_bits`, computed at the commit before the channel
    /// moved onto a `Timeline`.
    #[test]
    fn sweep_known_answers() {
        #[rustfmt::skip]
        const NATIVE_450: [u64; 13] = [
            0x41e90b0cfc2ec475, 0x41f3da4d69fc38a6, 0x41fc11e9dabe77cc, 0x4201b2946a3c6906,
            0x42045a71546881c2, 0x4206011893570ccd, 0x4206ef3918e902e5, 0x42076dffc92cf87c,
            0x4207af7675081e0e, 0x4207d0bbbc6fab1d, 0x4207e18185eb705f, 0x4207e9ed49cbc5a4,
            0x4207ee256641c820,
        ];
        #[rustfmt::skip]
        const HALF_225: [u64; 13] = [
            0x41e7de3414397b37, 0x41f31b61afd31d1a, 0x41fb50f35e55c1dd, 0x4201651b6db9ee53,
            0x420426d55e0e1d64, 0x4205e2cc1eea5251, 0x4206deb92c35a280, 0x42076560991ab4f2,
            0x4207ab0dd6f89d0a, 0x4207ce8102e03533, 0x4207e062893e217e, 0x4207e95d62d10666,
            0x4207eddd5885e7d8,
        ];
        let sizes: Vec<u64> = (0..13).map(|i| (4 * KIB) << i).collect();
        for (clock, pins) in [
            (ClockConfig::Native450, NATIVE_450),
            (ClockConfig::Half225DoubleWidth, HALF_225),
        ] {
            let curve = sweep_request_sizes(HbmChannelConfig::calibrated(clock), &sizes);
            let got: Vec<u64> = curve
                .iter()
                .map(|(_, bw)| bw.bytes_per_sec().to_bits())
                .collect();
            assert_eq!(got, pins, "{clock:?}");
        }
    }
}
