//! Concurrency stress tests for `spn-telemetry`'s lock-free
//! [`AtomicHistogram`] — the structure every serving-path latency
//! sample funnels through, recorded from many connection threads at
//! once with no mutex — and the structure of the runtime's span
//! traces, live and virtual: one sequential track per control thread.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::perf::{simulate_traced, PerfConfig};
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, TraceCollector, VirtualDevice};
use spn_telemetry::{chrome_trace_json, AtomicHistogram, SpanKind};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use system_tests::assert_runtime_tracks;

const THREADS: usize = 8;
const RECORDS_PER_THREAD: usize = 10_000;

/// Hammer one histogram from 8 std threads and assert *conservation*:
/// every record lands in exactly one bucket, so the total count (which
/// is computed as the sum over buckets, not a separate counter) equals
/// the number of records issued.
#[test]
fn concurrent_records_conserve_total_count() {
    let hist = Arc::new(AtomicHistogram::latency());
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            thread::spawn(move || {
                for i in 0..RECORDS_PER_THREAD {
                    // Values span underflow, the log-linear range and
                    // overflow so every bucket class is exercised.
                    let v = match i % 4 {
                        0 => 1e-12,                       // underflow bucket
                        1 => 1e-6 * (t + 1) as f64,       // in range
                        2 => 0.001 * (i % 97 + 1) as f64, // in range
                        _ => 1e6,                         // overflow clamp
                    };
                    hist.record(v);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("recorder thread panicked");
    }

    let expected = (THREADS * RECORDS_PER_THREAD) as u64;
    assert_eq!(hist.count(), expected, "records were lost or duplicated");
    let summary = hist.summary();
    assert_eq!(summary.count, expected);
    // The exact-max tracker saw the overflow values.
    assert_eq!(summary.max, 1e6);
    // Quantiles are monotone over the merged distribution.
    assert!(summary.p50 <= summary.p95);
    assert!(summary.p95 <= summary.p99);
    assert!(summary.p99 <= summary.max);
}

/// Concurrent `record_duration` (the serving hot path) conserves both
/// the count and the exact sum-derived mean within float tolerance.
#[test]
fn concurrent_durations_conserve_count_and_mean() {
    let hist = Arc::new(AtomicHistogram::latency());
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let hist = Arc::clone(&hist);
            thread::spawn(move || {
                for _ in 0..RECORDS_PER_THREAD {
                    hist.record_duration(Duration::from_micros(250));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("recorder thread panicked");
    }

    let summary = hist.summary();
    assert_eq!(summary.count, (THREADS * RECORDS_PER_THREAD) as u64);
    // All samples are identical, so the CAS-accumulated sum must give
    // back exactly that value as the mean.
    assert!(
        (summary.mean - 250e-6).abs() < 1e-12,
        "mean drifted: {}",
        summary.mean
    );
    assert_eq!(summary.max, 250e-6);
}

/// The paper's double buffering as the live trace draws it: with one
/// PE and two control threads, each thread's transfers and launches
/// land on a track of its own, each track a sequence, and every
/// block's h2d → execute → d2h in order. (On one track per PE the two
/// threads' slices would interleave.) The device is paced, 0.64 ms a
/// block, so that both threads get blocks.
#[test]
fn live_trace_has_one_sequential_track_per_control_thread() {
    let bench = NipsBenchmark::Nips10;
    let device = VirtualDevice::new(
        DatapathProgram::compile(&bench.build_spn()),
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        1,
        16 << 20,
    )
    .with_pacing(Duration::from_micros(10));
    let config = RuntimeConfig::builder()
        .block_samples(64)
        .threads_per_pe(2)
        .build()
        .unwrap();
    let trace = Arc::new(TraceCollector::new());
    let sched = Scheduler::with_trace(Arc::new(device), config, Some(Arc::clone(&trace))).unwrap();
    let data = Arc::new(bench.dataset(64 * 64, 5));
    let job = sched.submit_blocking(data, JobOptions::default()).unwrap();
    job.wait().unwrap();

    let spans = trace.spans();
    assert_eq!(spans.len(), 3 * 64, "h2d, execute, d2h per block");
    let tids: BTreeSet<u32> = spans.iter().map(|s| s.tid).collect();
    assert_eq!(
        tids,
        BTreeSet::from([0, 1]),
        "both control threads ran blocks"
    );
    assert!(spans.iter().all(|s| s.pe == 0));
    assert_runtime_tracks(&trace.to_chrome_json());
}

/// The virtual-time trace obeys the same structure, at 2 PEs × 2
/// threads: thread `tid` drives PE `tid % 2`.
#[test]
fn virtual_trace_has_one_sequential_track_per_control_thread() {
    let mut cfg = PerfConfig::paper_setup(NipsBenchmark::Nips10, 2);
    cfg.total_samples = 8 << 20;
    cfg.threads_per_pe = 2;
    let (_, spans) = simulate_traced(&cfg);
    assert_eq!(spans.len(), 3 * 8);
    assert!(spans.iter().all(|s| s.tid < 4 && s.pe == s.tid % 2));
    let executes = spans.iter().filter(|s| s.kind == SpanKind::Execute);
    assert_eq!(executes.map(|s| s.tid).collect::<BTreeSet<_>>().len(), 4);
    assert_runtime_tracks(&chrome_trace_json(&spans));
}
