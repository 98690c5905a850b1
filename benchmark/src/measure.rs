//! The end-to-end measurement of one workload in one process:
//! cold set-up cycles, then warm-up, then back-to-back closed-loop
//! segments, the reference kernel probing the machine's speed
//! throughout.

use crate::hist::Histogram;
use crate::reference::{self, Probes};
use crate::stats::{median, spread_iqr};
use crate::sys::{peak_rss_mib, process_cpu_seconds};
use crate::workloads::{cold_cycle, Caller, Request, System, Workload, CLIENTS, POOL};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Closed-loop segments, each normalised by its own probes.
    pub segments: usize,
    pub segment: Duration,
    pub warmup: Duration,
    /// Cold set-up cycles whose median is `setup_s`.
    pub setup_cycles: usize,
}

impl Shape {
    /// Segments of about four seconds filling `seconds`: long enough
    /// for a p90 with tens to hundreds of samples beyond it, short
    /// enough that one disturbed stretch spoils one segment of several
    /// and the median over segments ignores it.
    pub fn for_seconds(seconds: f64) -> Shape {
        let segments = (seconds / 4.0).round().max(1.0) as usize;
        Shape {
            segments,
            segment: Duration::from_secs_f64(seconds / segments as f64),
            warmup: Duration::from_millis(500),
            setup_cycles: 15,
        }
    }

    /// The `--quick` smoke: output shape only, numbers meaningless.
    pub fn quick() -> Shape {
        Shape {
            segments: 1,
            segment: Duration::from_secs(1),
            warmup: Duration::from_millis(100),
            setup_cycles: 3,
        }
    }
}

/// The per-segment end-to-end metrics, in the order of
/// [`SEGMENT_METRICS`].
pub type SegmentValues = [f64; 4];

/// Name and whether it is a rate (multiplied by the speed factor) or a
/// time (divided by it).
pub const SEGMENT_METRICS: [(&str, bool); 4] = [
    ("samples_per_s", true),
    ("latency_p50_us", false),
    ("latency_p90_us", false),
    ("cpu_us_per_sample", false),
];

/// Counts of what a closed-loop interval did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub requests: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.requests += other.requests;
        self.failed += other.failed;
    }
}

/// One measured segment.
pub struct Segment {
    pub raw: SegmentValues,
    pub tally: Tally,
    /// The callers' reference probes during the segment.
    pub probes: Probes,
}

/// Drive `callers` closed-loop for `duration`: each sends its next
/// request when the previous verified reply is in, and runs the
/// reference kernel between requests when a probe is due. Latencies
/// (send → verified reply) go to `hists`, which are cleared first.
pub fn closed_loop(
    w: Workload,
    callers: &mut [Caller],
    pool: &[Request],
    hists: &mut [Histogram],
    duration: Duration,
) -> Segment {
    let barrier = Barrier::new(callers.len() + 1);
    let stride = POOL / callers.len().max(1);
    let (results, elapsed, cpu) = std::thread::scope(|s| {
        let workers: Vec<_> = callers
            .iter_mut()
            .zip(hists.iter_mut())
            .enumerate()
            .map(|(k, (caller, hist))| {
                let barrier = &barrier;
                s.spawn(move || {
                    hist.clear();
                    let mut tally = Tally::default();
                    let mut probes = Probes::new();
                    let mut next = k * stride;
                    barrier.wait();
                    let deadline = Instant::now() + duration;
                    loop {
                        let req = &pool[next % pool.len()];
                        next += 1;
                        let t = Instant::now();
                        let ok = caller.call_verified(req);
                        let done = Instant::now();
                        hist.record(done - t);
                        tally.requests += 1;
                        tally.failed += u64::from(!ok);
                        if done >= deadline {
                            return (tally, probes);
                        }
                        probes.tick(done);
                    }
                })
            })
            .collect();
        barrier.wait();
        let (t0, cpu0) = (Instant::now(), process_cpu_seconds());
        let results: Vec<(Tally, Probes)> = workers
            .into_iter()
            .map(|t| t.join().expect("closed-loop caller thread"))
            .collect();
        (
            results,
            t0.elapsed().as_secs_f64(),
            process_cpu_seconds() - cpu0,
        )
    });
    let mut tally = Tally::default();
    let mut probes = Probes::new();
    let mut merged = Histogram::new();
    for ((t, p), h) in results.into_iter().zip(hists.iter()) {
        tally.add(t);
        probes.merge(&p);
        merged.merge(h);
    }
    let samples = (tally.requests - tally.failed) * w.samples_per_request() as u64;
    // The probes' own CPU time is the benchmark's, not the system's.
    let cpu = cpu - probes.cost_ns / 1e9;
    Segment {
        raw: [
            samples as f64 / elapsed,
            merged.quantile_us(0.5),
            merged.quantile_us(0.9),
            cpu * 1e6 / samples.max(1) as f64,
        ],
        tally,
        probes,
    }
}

/// Everything one end-to-end run measured.
pub struct EndToEnd {
    /// Median of the cold set-up cycles, normalised.
    pub setup_s: f64,
    pub setup_raw_s: f64,
    pub setup_spread: f64,
    /// Per segment: raw values, and the same at nominal speed.
    pub raw: Vec<SegmentValues>,
    pub normalised: Vec<SegmentValues>,
    /// Speed factor of the set-up phase, then of every segment.
    pub factors: Vec<f64>,
    /// Mean CPU time of a reference probe over the whole run, in µs.
    pub probe_us: f64,
    pub peak_rss_mib: f64,
    /// Requests of the measured segments plus the set-up cycles' first
    /// replies.
    pub tally: Tally,
}

impl EndToEnd {
    /// Median over the segments of normalised metric `i`.
    pub fn value(&self, i: usize) -> f64 {
        median(&column(&self.normalised, i))
    }

    pub fn raw_value(&self, i: usize) -> f64 {
        median(&column(&self.raw, i))
    }

    /// Lowest and highest speed factor of the run.
    pub fn factor_range(&self) -> (f64, f64) {
        self.factors
            .iter()
            .fold((f64::INFINITY, 0.0), |(lo, hi), &f| (lo.min(f), hi.max(f)))
    }

    /// Quartile distance over median of normalised metric `i` across
    /// the segments.
    pub fn spread(&self, i: usize) -> f64 {
        spread_iqr(&column(&self.normalised, i))
    }
}

fn column(rows: &[SegmentValues], i: usize) -> Vec<f64> {
    rows.iter().map(|r| r[i]).collect()
}

/// `raw` as it would read at nominal machine speed.
pub fn normalise(raw: &SegmentValues, factor: f64) -> SegmentValues {
    let mut out = *raw;
    for (v, (_, is_rate)) in out.iter_mut().zip(SEGMENT_METRICS) {
        *v = if is_rate {
            reference::normalise_rate(*v, factor)
        } else {
            reference::normalise_time(*v, factor)
        };
    }
    out
}

/// A cold cycle of `wall` seconds, `cpu` of them on the CPU, as it
/// would read at nominal machine speed: only the CPU's share is
/// divided by the factor. The rest is waiting on joins, poll intervals
/// and the linger timer, which a slower CPU does not stretch.
pub fn setup_at_nominal(wall: f64, cpu: f64, factor: f64) -> f64 {
    let cpu = cpu.min(wall);
    (wall - cpu) + reference::normalise_time(cpu, factor)
}

/// Measure workload `w` on request pool `pool`.
pub fn end_to_end(w: Workload, pool: &[Request], shape: Shape) -> EndToEnd {
    let mut tally = Tally::default();
    let mut all_probes = Probes::new();

    // Cold cycles, a few probes after each: the set-up phase's speed.
    let mut setup_probes = Probes::new();
    let cycles: Vec<(f64, f64)> = (0..shape.setup_cycles)
        .map(|_| {
            let (t0, cpu0) = (Instant::now(), process_cpu_seconds());
            let ok = cold_cycle(w, &pool[0], None);
            let cycle = (t0.elapsed().as_secs_f64(), process_cpu_seconds() - cpu0);
            tally.requests += 1;
            tally.failed += u64::from(!ok);
            for _ in 0..4 {
                setup_probes.force();
            }
            cycle
        })
        .collect();
    let mut factors = vec![setup_probes.factor()];
    all_probes.merge(&setup_probes);
    let setups: Vec<f64> = cycles.iter().map(|c| c.0).collect();
    let at_nominal: Vec<f64> = cycles
        .iter()
        .map(|&(wall, cpu)| setup_at_nominal(wall, cpu, factors[0]))
        .collect();

    let system = System::start(w, None, None);
    let mut callers: Vec<Caller> = (0..CLIENTS).map(|_| system.caller()).collect();
    let mut hists: Vec<Histogram> = (0..CLIENTS).map(|_| Histogram::new()).collect();
    closed_loop(w, &mut callers, pool, &mut hists, shape.warmup);

    let mut raw = Vec::with_capacity(shape.segments);
    let mut normalised = Vec::with_capacity(shape.segments);
    for _ in 0..shape.segments {
        let seg = closed_loop(w, &mut callers, pool, &mut hists, shape.segment);
        let f = seg.probes.factor();
        tally.add(seg.tally);
        all_probes.merge(&seg.probes);
        normalised.push(normalise(&seg.raw, f));
        raw.push(seg.raw);
        factors.push(f);
    }
    drop(callers);
    drop(system);

    EndToEnd {
        setup_s: median(&at_nominal),
        setup_raw_s: median(&setups),
        setup_spread: spread_iqr(&setups),
        raw,
        normalised,
        factors,
        probe_us: all_probes.factor() * reference::NOMINAL_PROBE_NS / 1e3,
        peak_rss_mib: peak_rss_mib(),
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_fills_the_requested_seconds() {
        let s = Shape::for_seconds(20.0);
        assert_eq!(s.segments, 5);
        assert_eq!(s.segment, Duration::from_secs(4));
        let s = Shape::for_seconds(10.0);
        assert_eq!(s.segments, 3);
        assert!((s.segment.as_secs_f64() * 3.0 - 10.0).abs() < 1e-6);
        assert_eq!(Shape::for_seconds(1.0).segments, 1);
    }

    #[test]
    fn rates_scale_up_and_times_down_on_a_slow_machine() {
        let n = normalise(&[1000.0, 200.0, 300.0, 2.0], 1.25);
        assert_eq!(n, [1250.0, 160.0, 240.0, 1.6]);
    }

    #[test]
    fn only_the_cpu_share_of_set_up_is_normalised() {
        // 10 ms of which 4 ms on a CPU running 25 % slow.
        let s = setup_at_nominal(0.010, 0.004, 1.25);
        assert!((s - 0.0092).abs() < 1e-12, "{s}");
        // Threads in parallel can use more CPU than wall-clock time.
        assert!((setup_at_nominal(0.010, 0.015, 1.25) - 0.008).abs() < 1e-12);
        assert_eq!(setup_at_nominal(0.010, 0.0, 1.25), 0.010);
    }

    #[test]
    fn workload_value_is_the_median_over_segments() {
        let e = EndToEnd {
            setup_s: 0.0,
            setup_raw_s: 0.0,
            setup_spread: 0.0,
            raw: vec![[1.0; 4], [5.0; 4], [2.0; 4]],
            normalised: vec![[10.0; 4], [50.0; 4], [20.0; 4]],
            factors: vec![],
            probe_us: 0.0,
            peak_rss_mib: 0.0,
            tally: Tally::default(),
        };
        assert_eq!(e.value(0), 20.0);
        assert_eq!(e.raw_value(3), 2.0);
        assert!(e.spread(1) > 0.0);
    }
}
