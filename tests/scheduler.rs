//! Integration: the concurrent multi-job scheduler.
//!
//! Proves the PR's acceptance criteria end to end, across crates:
//!
//! * two jobs genuinely in flight at once, results bit-identical to the
//!   same data run one job at a time, metrics consistent;
//! * a fault-injected job succeeds via retries and leaves every HBM
//!   channel's `free_bytes` exactly where it started;
//! * a failing job never poisons a concurrent healthy one;
//! * shutting a scheduler down frees device memory and unblocks `wait()`.

use spn_arith::AnyFormat;
use spn_core::{Dataset, NipsBenchmark};
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::prelude::*;
use std::sync::Arc;

fn make_device(
    bench: NipsBenchmark,
    pes: u32,
    faults: Option<FaultInjection>,
) -> Arc<VirtualDevice> {
    let prog = DatapathProgram::compile(&bench.build_spn());
    let mut dev = VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        pes,
        16 << 20,
    );
    if let Some(f) = faults {
        dev = dev.with_faults(f);
    }
    Arc::new(dev)
}

/// The sequential reference: `data` as the only job of a fresh
/// scheduler over a fault-free `pes`-PE device.
fn sequential(
    bench: NipsBenchmark,
    pes: u32,
    config: RuntimeConfig,
    data: &Arc<Dataset>,
) -> Vec<f64> {
    let sched = Scheduler::new(make_device(bench, pes, None), config).unwrap();
    let job = sched.submit_blocking(Arc::clone(data), JobOptions::default());
    job.unwrap().wait().unwrap()
}

fn free_bytes_per_channel(dev: &VirtualDevice) -> Vec<u64> {
    (0..dev.num_pes())
        .map(|c| dev.memory().free_bytes(c).unwrap())
        .collect()
}

/// Assert channel memory is back at `before` once `sched` is dropped.
/// Blocks of an already-failed job still in flight free their buffers
/// strictly after its `wait()` returns; dropping the scheduler joins
/// every control thread, so each of those blocks has finished by then.
fn assert_memory_restored(sched: Scheduler, dev: &VirtualDevice, before: &[u64], what: &str) {
    drop(sched);
    assert_eq!(free_bytes_per_channel(dev), before, "{what} leaked");
}

/// The acceptance-criteria test: two jobs overlap on the same device,
/// both match the sequential path bit for bit, and the metrics add up.
#[test]
fn two_concurrent_jobs_match_sequential_path_bitwise() {
    let bench = NipsBenchmark::Nips10;
    let config = RuntimeConfig::builder()
        .block_samples(100)
        .threads_per_pe(2)
        .build()
        .unwrap();

    // Sequential reference: one job at a time on an identical
    // (separate) device.
    let big_data = Arc::new(bench.dataset(30_000, 11));
    let small_data = Arc::new(bench.dataset(300, 22));
    let seq_big = sequential(bench, 4, config, &big_data);
    let seq_small = sequential(bench, 4, config, &small_data);

    // Concurrent run: submit the big job, then the small one behind it.
    // The device is paced (the PE sleeps a fixed time per sample), so
    // "the big job is still running" below tests the scheduler's
    // fairness, not whether the test thread is rescheduled before the
    // host finishes emulating 300 blocks (~1 ms at AVX2 width).
    let device = Arc::new(
        VirtualDevice::new(
            DatapathProgram::compile(&bench.build_spn()),
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            4,
            16 << 20,
        )
        .with_pacing(std::time::Duration::from_micros(1)),
    );
    let sched = Scheduler::new(Arc::clone(&device), config).unwrap();
    let before = free_bytes_per_channel(&device);
    let big = sched.submit(big_data, JobOptions::default()).unwrap();
    let small = sched.submit(small_data, JobOptions::default()).unwrap();

    // Round-robin fairness: the small job (3 blocks) completes while the
    // big one (300 blocks) is still running — two jobs provably in
    // flight simultaneously.
    let got_small = small.wait().unwrap();
    let done = sched.metrics_snapshot().jobs_completed;
    assert_eq!(
        done, 1,
        "big job finished ({done} jobs done) before the small one — no overlap"
    );
    let got_big = big.wait().unwrap();

    // Bit-identical to the sequential path (the device is a
    // deterministic functional model; scheduling must not change math).
    assert_eq!(got_big, seq_big);
    assert_eq!(got_small, seq_small);

    // Metrics consistency.
    let pe_cfg = device.query_pe(0).unwrap();
    let samples = 30_000u64 + 300;
    let m = sched.metrics_snapshot();
    assert_eq!(m.jobs_submitted, 2);
    assert_eq!(m.jobs_completed, 2);
    assert_eq!(m.jobs_failed, 0);
    assert_eq!(m.jobs_cancelled, 0);
    assert_eq!(m.blocks_executed, 300 + 3);
    assert_eq!(m.block_retries, 0, "no faults, no retries");
    assert_eq!(m.h2d_bytes, samples * pe_cfg.input_bytes);
    assert_eq!(m.d2h_bytes, samples * pe_cfg.result_bytes);
    assert_eq!(m.jobs_in_flight, 0);
    assert_eq!(m.queue_high_watermark, 2);
    assert!(m.pe_busy_secs.iter().any(|&b| b > 0.0));

    // No leaked device buffers.
    assert_eq!(free_bytes_per_channel(&device), before);
}

/// A transient-fault job succeeds via retries; channel memory is fully
/// restored afterwards.
#[test]
fn fault_injected_job_succeeds_via_retries_without_leaking() {
    let bench = NipsBenchmark::Nips10;
    let device = make_device(
        bench,
        2,
        Some(FaultInjection {
            launch_fail_probability: 0.3,
            seed: 17,
            ..FaultInjection::default()
        }),
    );
    let config = RuntimeConfig::builder()
        .block_samples(128)
        .threads_per_pe(2)
        .build()
        .unwrap();
    let sched = Scheduler::new(Arc::clone(&device), config).unwrap();
    let before = free_bytes_per_channel(&device);

    let data = Arc::new(bench.dataset(4_000, 33));
    let opts = JobOptions::builder()
        .max_retries(200)
        .retry_backoff_us(0)
        .build()
        .unwrap();
    let got = sched
        .submit(Arc::clone(&data), opts)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(got.len(), 4_000);

    let m = sched.metrics_snapshot();
    assert!(
        m.block_retries > 0,
        "p=0.3 launch faults must cause retries"
    );
    assert_eq!(m.jobs_completed, 1);
    assert_eq!(m.jobs_failed, 0);
    assert_eq!(
        free_bytes_per_channel(&device),
        before,
        "retry paths leaked"
    );
}

/// One job exhausting its retries fails alone; a concurrent job with a
/// retry budget completes and matches the fault-free reference.
#[test]
fn failed_job_does_not_poison_concurrent_jobs() {
    let bench = NipsBenchmark::Nips10;
    let device = make_device(
        bench,
        2,
        Some(FaultInjection {
            launch_fail_probability: 0.5,
            seed: 7,
            ..FaultInjection::default()
        }),
    );
    let config = RuntimeConfig::builder()
        .block_samples(64)
        .threads_per_pe(2)
        .build()
        .unwrap();
    let sched = Scheduler::new(Arc::clone(&device), config).unwrap();
    let before = free_bytes_per_channel(&device);

    let data = Arc::new(bench.dataset(2_000, 44));
    // Fault-free reference for the surviving job.
    let want = sequential(bench, 2, config, &data);

    let doomed_opts = JobOptions::builder().max_retries(0).build().unwrap();
    let hardy_opts = JobOptions::builder()
        .max_retries(500)
        .retry_backoff_us(0)
        .build()
        .unwrap();
    let doomed = sched
        .submit(Arc::new(bench.dataset(2_000, 55)), doomed_opts)
        .unwrap();
    let hardy = sched.submit(data, hardy_opts).unwrap();

    // With p=0.5 and zero retries, the doomed job fails on an early
    // block; the error is a transient device fault surfaced verbatim.
    match doomed.wait() {
        Err(RuntimeError::Device(e)) => {
            assert!(matches!(e, spn_runtime::DeviceError::TransientFault { .. }))
        }
        other => panic!("doomed job should fail with a device fault, got {other:?}"),
    }
    let got = hardy
        .wait()
        .expect("healthy job must survive its neighbour");
    assert_eq!(got, want);

    let m = sched.metrics_snapshot();
    assert_eq!(m.jobs_failed, 1);
    assert_eq!(m.jobs_completed, 1);
    assert_eq!(m.jobs_in_flight, 0);
    assert_memory_restored(sched, &device, &before, "failure path");
}

/// Shutting a scheduler down under a running job unblocks `wait()` with
/// [`RuntimeError::Cancelled`] and returns every allocated buffer.
#[test]
fn cancel_unblocks_wait_and_frees_device_memory() {
    let bench = NipsBenchmark::Nips10;
    // Paced, so the job is still running when the scheduler drops right
    // after `submit`: unpaced, the host emulates all 50 000 samples in a
    // few milliseconds, and a descheduled test thread can miss them.
    let device = Arc::new(
        VirtualDevice::new(
            DatapathProgram::compile(&bench.build_spn()),
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            1,
            16 << 20,
        )
        .with_pacing(std::time::Duration::from_micros(1)),
    );
    let config = RuntimeConfig::builder()
        .block_samples(32)
        .threads_per_pe(1)
        .build()
        .unwrap();
    let sched = Scheduler::new(Arc::clone(&device), config).unwrap();
    let before = free_bytes_per_channel(&device);

    let handle = sched
        .submit(Arc::new(bench.dataset(50_000, 66)), JobOptions::default())
        .unwrap();
    let metrics = Arc::clone(sched.metrics());
    drop(sched);
    match handle.wait() {
        Err(RuntimeError::Cancelled) => {}
        other => panic!("a job shut down must report Cancelled, got {other:?}"),
    }

    let m = metrics.snapshot();
    assert_eq!(m.jobs_cancelled, 1);
    assert_eq!(m.jobs_in_flight, 0);
    // All in-flight blocks drained and freed by the time wait() returns.
    assert_eq!(
        free_bytes_per_channel(&device),
        before,
        "shutdown path leaked"
    );
}

/// Config and option validation happens at the API boundary — errors,
/// never panics.
#[test]
fn invalid_configs_are_errors_not_panics() {
    // Builder-level validation.
    assert!(RuntimeConfig::builder().block_samples(0).build().is_err());
    assert!(RuntimeConfig::builder().threads_per_pe(0).build().is_err());
    assert!(RuntimeConfig::builder()
        .verify_fraction(1.5)
        .build()
        .is_err());
    assert!(RuntimeConfig::builder().queue_capacity(0).build().is_err());
    assert!(JobOptions::builder().num_pes(0).build().is_err());

    // Submit-time validation: more PEs than the device has.
    let bench = NipsBenchmark::Nips10;
    let device = make_device(bench, 2, None);
    let sched = Scheduler::new(device, RuntimeConfig::default()).unwrap();
    let opts = JobOptions::builder().num_pes(5).build().unwrap();
    let err = sched
        .submit(Arc::new(bench.dataset(8, 1)), opts)
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InvalidConfig { .. }));
    // The error chain is introspectable (std::error::Error).
    let _ = std::error::Error::source(&err);
}

/// The compiled-plan host backend, end to end through the scheduler:
/// two schedulers sharing one `PlanCache` compile the model once, a
/// `HostPlan` job's results are bit-identical to the tree-walk oracle,
/// its execution is traced as `plan-exec` spans, and it moves zero
/// bytes over the (virtual) PCIe link.
#[test]
fn host_plan_jobs_share_the_cache_and_skip_the_device() {
    use spn_core::Evaluator;
    use spn_telemetry::SpanKind;

    let bench = NipsBenchmark::Nips10;
    let spn = Arc::new(bench.build_spn());
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(1)
        .build()
        .unwrap();
    let cache = Arc::new(PlanCache::new());
    let trace = Arc::new(TraceCollector::new());

    let mk = |trace: Option<Arc<TraceCollector>>| {
        let prog = spn_hw::DatapathProgram::compile(&spn);
        let device = Arc::new(
            VirtualDevice::new(
                prog,
                AnyFormat::paper_default(),
                spn_hw::AcceleratorConfig::paper_default(),
                2,
                16 << 20,
            )
            .with_model(Arc::clone(&spn)),
        );
        Scheduler::with_cache(device, config, trace, Arc::clone(&cache)).unwrap()
    };

    let first = mk(Some(Arc::clone(&trace)));
    let second = mk(None);
    // One structure, two schedulers: compiled exactly once.
    let t = cache.telemetry();
    assert_eq!((t.cache_misses, t.cache_hits), (1, 1));
    assert_eq!(t.cached_plans, 1);

    let data = Arc::new(bench.dataset(2_000, 3));
    let opts = JobOptions::builder()
        .backend(ExecBackend::HostPlan)
        .build()
        .unwrap();
    let got = first
        .submit(Arc::clone(&data), opts)
        .unwrap()
        .wait()
        .unwrap();

    // Bit-identical to the oracle (results are probabilities, matching
    // the device convention).
    let mut ev = Evaluator::new(&spn);
    for (row, &p) in data.rows().zip(&got) {
        let want = ev.eval_bytes(&Query::Complete, row).exp();
        assert_eq!(p.to_bits(), want.to_bits());
    }

    // Host jobs never touch the PCIe link or the device datapath...
    let m = first.metrics_snapshot();
    assert_eq!((m.h2d_bytes, m.d2h_bytes), (0, 0));
    assert_eq!(m.jobs_completed, 1);
    // ...but their execution is on the trace timeline.
    let spans = trace.spans();
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::PlanExec),
        "host blocks record plan-exec spans"
    );
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::PlanCompile),
        "the eager compile records a plan-compile span"
    );
    assert!(
        !spans.iter().any(|s| s.kind == SpanKind::Execute),
        "no device execute spans for a HostPlan job"
    );
    drop(second);
}

/// Back-to-back tiny jobs keep the control threads *between blocks*,
/// where one claims a job the instant it is queued: the in-flight
/// gauges must already count it by then (a job counted finished before
/// it is counted submitted wraps them — an overflow panic in a debug
/// build).
#[test]
fn gauges_survive_jobs_that_finish_as_they_are_submitted() {
    let bench = NipsBenchmark::Nips10;
    let spn = Arc::new(bench.build_spn());
    let device = VirtualDevice::new(
        DatapathProgram::compile(&spn),
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        16 << 20,
    )
    .with_model(Arc::clone(&spn));
    let sched = Scheduler::new(Arc::new(device), RuntimeConfig::default()).unwrap();
    let opts = JobOptions::builder()
        .backend(ExecBackend::HostPlan)
        .build()
        .unwrap();
    let data = Arc::new(bench.dataset(1, 9));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..5_000 {
                    let job = sched.submit_blocking(Arc::clone(&data), opts).unwrap();
                    assert_eq!(job.wait().unwrap().len(), 1);
                }
            });
        }
    });
    let m = sched.metrics_snapshot();
    assert_eq!((m.jobs_submitted, m.jobs_completed), (10_000, 10_000));
    assert_eq!((m.jobs_in_flight, m.samples_in_flight), (0, 0));
    assert!(m.queue_high_watermark <= 2, "{}", m.queue_high_watermark);
}

/// A completion consumer for [`Scheduler::submit_blocking_then`] that
/// forwards the outcome to the test. Being an `FnOnce` it cannot run
/// twice; a consumer dropped uncalled shows as a disconnected channel.
/// Before forwarding it takes the scheduler's state lock
/// (`queue_depth`), which would deadlock if consumers ever ran under
/// it.
fn consumer(
    sched: &Arc<Scheduler>,
) -> (
    impl FnOnce(JobResult) + Send + 'static,
    std::sync::mpsc::Receiver<JobResult>,
) {
    let (tx, rx) = std::sync::mpsc::channel();
    let sched = Arc::downgrade(sched);
    let then = move |result: JobResult| {
        if let Some(sched) = sched.upgrade() {
            let _ = sched.queue_depth();
        }
        tx.send(result).expect("the test outlives the job");
    };
    (then, rx)
}

/// The one outcome a consumer saw.
fn consumed(rx: &std::sync::mpsc::Receiver<JobResult>, what: &str) -> JobResult {
    let result = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .unwrap_or_else(|e| panic!("{what}: consumer never ran ({e})"));
    assert!(rx.try_recv().is_err(), "{what}: consumer ran twice");
    result
}

/// `submit` wakes only control threads that may claim the new job's
/// blocks. Waking *a* parked thread is not enough: on four PEs, six of
/// the eight threads cannot touch a `num_pes = 1` job, and one of them
/// woken in place of a PE-0 thread parks again while the job sits
/// unclaimed, forever. The pool is parked between these sequential
/// jobs, so every one of them depends on the right thread being woken.
#[test]
fn pe_limited_jobs_wake_a_thread_that_can_claim_them() {
    let bench = NipsBenchmark::Nips10;
    let config = RuntimeConfig::builder()
        .block_samples(64)
        .threads_per_pe(2)
        .build()
        .unwrap();
    let data = Arc::new(bench.dataset(3, 13));
    let want = sequential(bench, 4, config, &data);

    let sched = Arc::new(Scheduler::new(make_device(bench, 4, None), config).unwrap());
    let one_pe = JobOptions::builder().num_pes(1).build().unwrap();
    for job in 0..200 {
        let (then, rx) = consumer(&sched);
        sched
            .submit_then(Arc::clone(&data), one_pe, then)
            .expect("accepted");
        let got = consumed(&rx, &format!("job {job}")).unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}

/// A submitter that stands in for the one control thread never loses a
/// wake-up and never shares the thread's track. On 1 PE × 1 thread, one
/// thread submits 500 one-row host-plan jobs through `submit_then`,
/// each eligible to run on the submitter, while another waits out 500
/// device jobs. A device job queued while the thread is lent runs only
/// if the give-back wakes the thread. Every span, inline or not, lands
/// on the thread's track without overlap.
#[test]
fn a_lent_control_thread_loses_no_wake_up_and_keeps_one_track() {
    use std::time::{Duration, Instant};
    let bench = NipsBenchmark::Nips10;
    let spn = Arc::new(bench.build_spn());
    let device = VirtualDevice::new(
        DatapathProgram::compile(&spn),
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        1,
        16 << 20,
    )
    .with_model(spn);
    let config = RuntimeConfig::builder()
        .block_samples(64)
        .threads_per_pe(1)
        .build()
        .unwrap();
    let trace = Arc::new(TraceCollector::new());
    let sched = Scheduler::with_trace(Arc::new(device), config, Some(Arc::clone(&trace)));
    let sched = Arc::new(sched.unwrap());
    let one = Arc::new(bench.dataset(1, 17));
    let host = JobOptions::builder()
        .backend(ExecBackend::HostPlan)
        .build()
        .unwrap();
    let device = JobOptions::default();
    let oracle = |opts| {
        sched
            .submit(Arc::clone(&one), opts)
            .unwrap()
            .wait()
            .unwrap()
    };
    let (want_host, want_device) = (oracle(host)[0].to_bits(), oracle(device)[0].to_bits());

    let (s, data) = (Arc::clone(&sched), Arc::clone(&one));
    let hosts = std::thread::spawn(move || {
        for job in 0..500 {
            let (then, rx) = consumer(&s);
            s.submit_then(Arc::clone(&data), host, then)
                .expect("accepted");
            let got = consumed(&rx, &format!("host job {job}")).unwrap();
            assert_eq!(got[0].to_bits(), want_host, "host job {job}");
        }
    });
    let (s, data) = (Arc::clone(&sched), Arc::clone(&one));
    let devices = std::thread::spawn(move || {
        for job in 0..500 {
            let got = s.submit(Arc::clone(&data), device).unwrap().wait().unwrap();
            assert_eq!(got[0].to_bits(), want_device, "device job {job}");
        }
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while !(hosts.is_finished() && devices.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "a submitter hung: a wake-up was lost"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    hosts.join().unwrap();
    devices.join().unwrap();
    assert_eq!(sched.metrics_snapshot().jobs_completed, 1002);
    system_tests::assert_runtime_tracks(&trace.to_chrome_json());
}

/// The lifecycle guarantees above, on every backend: the same
/// assertions run over the device pipeline and the compiled host plan,
/// because the scheduler runs both through one block-execution seam —
/// with the outcome going to a `wait()` caller and to a completion
/// consumer alike.
#[test]
fn lifecycle_guarantees_hold_on_every_backend() {
    use spn_core::Evaluator;
    use spn_telemetry::SpanKind;

    struct Case {
        backend: ExecBackend,
        /// Exact host f64 arithmetic (vs. the device number format).
        bit_exact: bool,
        /// Moves bytes over the (virtual) PCIe link.
        transfers: bool,
        /// Spans each block records, once each.
        block_spans: &'static [SpanKind],
    }
    let cases = [
        Case {
            backend: ExecBackend::Device,
            bit_exact: false,
            transfers: true,
            block_spans: &[SpanKind::H2D, SpanKind::Execute, SpanKind::D2H],
        },
        Case {
            backend: ExecBackend::HostPlan,
            bit_exact: true,
            transfers: false,
            block_spans: &[SpanKind::PlanExec],
        },
    ];

    let bench = NipsBenchmark::Nips10;
    let spn = Arc::new(bench.build_spn());
    let config = RuntimeConfig::builder()
        .block_samples(64)
        .threads_per_pe(1)
        .build()
        .unwrap();

    for case in cases {
        let what = format!("{:?}", case.backend);
        let device = Arc::new(
            VirtualDevice::new(
                DatapathProgram::compile(&spn),
                AnyFormat::paper_default(),
                AcceleratorConfig::paper_default(),
                2,
                16 << 20,
            )
            .with_model(Arc::clone(&spn)),
        );
        let trace = Arc::new(TraceCollector::new());
        let sched = Arc::new(
            Scheduler::with_trace(Arc::clone(&device), config, Some(Arc::clone(&trace))).unwrap(),
        );
        let before = free_bytes_per_channel(&device);
        let opts = |ctx: SpanCtx| JobOptions {
            backend: case.backend,
            ctx,
            ..JobOptions::default()
        };

        // A traced 3-block job: results against the tree-walk oracle,
        // and exactly the backend's spans, all carrying the job's ctx.
        let ctx = SpanCtx::mint();
        let data = Arc::new(bench.dataset(130, 5));
        let got = sched
            .submit(Arc::clone(&data), opts(ctx))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(got.len(), 130, "{what}");
        let mut ev = Evaluator::new(&spn);
        for (i, (row, &p)) in data.rows().zip(&got).enumerate() {
            let want = ev.eval_bytes(&Query::Complete, row).exp();
            if case.bit_exact {
                assert_eq!(p.to_bits(), want.to_bits(), "{what} sample {i}");
            } else {
                assert!(((p - want) / want).abs() < 1e-4, "{what} sample {i}");
            }
        }
        let block_spans: Vec<_> = trace
            .spans()
            .into_iter()
            .filter(|s| s.kind != SpanKind::PlanCompile)
            .collect();
        assert_eq!(block_spans.len(), 3 * case.block_spans.len(), "{what}");
        assert!(block_spans.iter().all(|s| s.ctx == ctx), "{what}");
        for kind in case.block_spans {
            let n = block_spans.iter().filter(|s| s.kind == *kind).count();
            assert_eq!(n, 3, "{what} {kind:?}");
        }

        // The same job with a completion consumer: the consumer gets
        // the same results, once, and the handle's `wait` gets none.
        let (then, rx) = consumer(&sched);
        let handle = sched
            .submit_blocking_then(Arc::clone(&data), opts(ctx), then)
            .expect("accepted");
        assert_eq!(consumed(&rx, &what).unwrap(), got, "{what}");
        assert!(
            matches!(handle.wait(), Err(RuntimeError::InvalidConfig { .. })),
            "{what}"
        );
        // A zero-sample job completes inside the submission.
        let (then, rx) = consumer(&sched);
        sched
            .submit_blocking_then(Arc::new(bench.dataset(0, 1)), opts(ctx), then)
            .expect("accepted");
        assert_eq!(consumed(&rx, &what).unwrap(), Vec::<f64>::new(), "{what}");
        // A refused submission reaches the consumer too.
        let (then, rx) = consumer(&sched);
        let wrong_shape = Arc::new(NipsBenchmark::Nips20.dataset(4, 1));
        assert!(sched
            .submit_blocking_then(wrong_shape, opts(ctx), then)
            .is_none());
        assert!(
            matches!(
                consumed(&rx, &what),
                Err(RuntimeError::ShapeMismatch { .. })
            ),
            "{what}"
        );

        // Dropping a scheduler with a job still queued unblocks `wait()`
        // with Cancelled, and reaches a consumer as Cancelled, whichever
        // thread finalises the job; each is counted cancelled once.
        let big_data = Arc::new(bench.dataset(300_000, 6));
        let doomed = Scheduler::new(Arc::clone(&device), config).unwrap();
        let doomed_metrics = Arc::clone(doomed.metrics());
        let big = doomed
            .submit(Arc::clone(&big_data), opts(SpanCtx::NONE))
            .unwrap();
        drop(doomed);
        assert!(matches!(big.wait(), Err(RuntimeError::Cancelled)), "{what}");
        let doomed = Arc::new(Scheduler::new(Arc::clone(&device), config).unwrap());
        let doomed_metrics2 = Arc::clone(doomed.metrics());
        let (then, rx) = consumer(&doomed);
        doomed
            .submit_blocking_then(big_data, opts(SpanCtx::NONE), then)
            .expect("accepted");
        drop(doomed);
        assert!(
            matches!(consumed(&rx, &what), Err(RuntimeError::Cancelled)),
            "{what}"
        );
        for m in [doomed_metrics.snapshot(), doomed_metrics2.snapshot()] {
            assert_eq!(
                (m.jobs_submitted, m.jobs_completed, m.jobs_cancelled),
                (1, 0, 1),
                "{what}"
            );
            assert_eq!(m.jobs_in_flight, 0, "{what}");
        }

        // drain() finishes accepted work and refuses new.
        let accepted = sched
            .submit(Arc::new(bench.dataset(2_000, 7)), opts(SpanCtx::NONE))
            .unwrap();
        sched.drain();
        assert_eq!(accepted.wait().unwrap().len(), 2_000, "{what}");
        assert!(
            matches!(
                sched.submit(data, opts(SpanCtx::NONE)),
                Err(RuntimeError::ShuttingDown)
            ),
            "{what}"
        );

        // Conservation, after the dust has settled.
        let m = sched.metrics_snapshot();
        assert_eq!(
            (m.jobs_submitted, m.jobs_completed, m.jobs_cancelled),
            (4, 4, 0),
            "{what}"
        );
        assert_eq!(
            m.jobs_submitted,
            m.jobs_completed + m.jobs_failed + m.jobs_cancelled,
            "{what}"
        );
        assert_eq!(m.jobs_in_flight, 0, "{what}");
        assert_eq!(m.samples_in_flight, 0, "{what}");
        for s in trace.spans() {
            if s.kind != SpanKind::PlanCompile {
                assert!(
                    m.pe_busy_secs[s.pe as usize] > 0.0,
                    "{what}: PE {} ran a block but reports no busy time",
                    s.pe
                );
            }
        }
        assert_eq!(m.h2d_bytes > 0, case.transfers, "{what}");
        assert_eq!(m.d2h_bytes > 0, case.transfers, "{what}");
        assert_eq!(free_bytes_per_channel(&device), before, "{what} leaked");
    }

    // A failed block's error reaches a consumer as it reaches `wait()`
    // (only the device can be made to fault).
    let faulty = make_device(
        bench,
        2,
        Some(FaultInjection {
            launch_fail_probability: 1.0,
            ..FaultInjection::default()
        }),
    );
    let sched = Arc::new(Scheduler::new(faulty, config).unwrap());
    let (then, rx) = consumer(&sched);
    let no_retries = JobOptions::builder().max_retries(0).build().unwrap();
    sched
        .submit_blocking_then(Arc::new(bench.dataset(130, 5)), no_retries, then)
        .expect("accepted");
    match consumed(&rx, "failed block") {
        Err(RuntimeError::Device(e)) => {
            assert!(matches!(e, spn_runtime::DeviceError::TransientFault { .. }))
        }
        other => panic!("expected the device fault, got {other:?}"),
    }
    assert_eq!(sched.metrics_snapshot().jobs_failed, 1);
}

/// Scaling shape, 1 → 4 PEs. The device is paced — every launch sleeps
/// a fixed per-sample budget while holding its PE — so a PE's capacity
/// is a constant and the host's core count is not under test. The same
/// jobs run at every P; what must grow with P is the occupancy the
/// scheduler exports, `Σ pe_busy_secs / elapsed` (P when every PE is
/// busy from first submit to last result). A scheduler that feeds only
/// one PE reads ≈ 1 at every P and fails. Scheduling never changes
/// math: results are bit-equal across P.
#[test]
fn pe_utilisation_scales_with_the_pe_count() {
    let bench = NipsBenchmark::Nips10;
    let config = RuntimeConfig::builder()
        .block_samples(64)
        .threads_per_pe(1)
        .build()
        .unwrap();
    let jobs: Vec<_> = (0..4)
        .map(|j| Arc::new(bench.dataset(1024, 11 + j)))
        .collect();

    let mut series = Vec::new();
    let mut reference = None;
    for pes in [1u32, 2, 4] {
        let device = VirtualDevice::new(
            DatapathProgram::compile(&bench.build_spn()),
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            pes,
            16 << 20,
        )
        .with_pacing(std::time::Duration::from_micros(20));
        let sched = Scheduler::new(Arc::new(device), config).unwrap();

        let t0 = std::time::Instant::now();
        let handles: Vec<_> = jobs
            .iter()
            .map(|d| sched.submit(Arc::clone(d), JobOptions::default()).unwrap())
            .collect();
        let values: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        let elapsed = t0.elapsed().as_secs_f64();

        let busy: f64 = sched.metrics_snapshot().pe_busy_secs.iter().sum();
        series.push((pes as usize, busy / elapsed));
        assert_eq!(
            reference.get_or_insert_with(|| values.clone()),
            &values,
            "results changed at {pes} PEs"
        );
    }
    system_tests::assert_scales("scheduler PE utilisation", &series, 0.8);
}
