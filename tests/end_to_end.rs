//! Integration: the full paper pipeline, spanning every crate.
//!
//! SPN (spn-core) → datapath compilation (spn-hw) → virtual device with
//! per-channel HBM + register files → multi-threaded runtime
//! (spn-runtime) → results verified against the reference evaluator,
//! in multiple arithmetic formats (spn-arith).

use spn_arith::AnyFormat;
use spn_core::{Dataset, Evaluator, NipsBenchmark, Query};
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::{JobOptions, JobResult, RuntimeConfig, Scheduler, VirtualDevice};
use std::sync::Arc;

/// Heavy sweeps run in full only under `SPN_FULL_SWEEP=1` (CI has a
/// dedicated step for that); the default path keeps `cargo test -q`
/// quick while still exercising every code path.
fn full_sweep() -> bool {
    std::env::var("SPN_FULL_SWEEP").as_deref() == Ok("1")
}

/// One job on a fresh scheduler over `device`, submitted and waited for.
fn run(device: Arc<VirtualDevice>, config: RuntimeConfig, data: &Dataset) -> JobResult {
    let scheduler = Scheduler::new(device, config)?;
    let job = scheduler.submit_blocking(Arc::new(data.clone()), JobOptions::default())?;
    job.wait()
}

fn run_pipeline(
    bench: NipsBenchmark,
    format: AnyFormat,
    pes: u32,
    samples: usize,
) -> (Vec<f64>, Vec<f64>) {
    let spn = bench.build_spn();
    let prog = DatapathProgram::compile(&spn);
    let device = Arc::new(VirtualDevice::new(
        prog,
        format,
        AcceleratorConfig::paper_default(),
        pes,
        32 << 20,
    ));
    let config = RuntimeConfig::builder()
        .block_samples(1000)
        .threads_per_pe(2)
        .build()
        .expect("valid config");
    let data = bench.dataset(samples, 0xFEED);
    let got = run(device, config, &data).expect("pipeline runs");
    let mut ev = Evaluator::new(&spn);
    let want: Vec<f64> = data
        .rows()
        .map(|r| ev.eval_bytes(&Query::Complete, r).exp())
        .collect();
    (got, want)
}

#[test]
fn cfp_pipeline_matches_reference_all_benchmarks() {
    let all = spn_core::ALL_BENCHMARKS;
    // Quick path: the smallest and largest models bound the sweep; the
    // full five-benchmark pass runs under SPN_FULL_SWEEP=1.
    let benchmarks: &[NipsBenchmark] = if full_sweep() {
        &all
    } else {
        &[all[0], all[all.len() - 1]]
    };
    let samples = if full_sweep() { 512 } else { 256 };
    for &bench in benchmarks {
        let (got, want) = run_pipeline(bench, AnyFormat::paper_default(), 2, samples);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            let rel = ((g - w) / w).abs();
            assert!(rel < 1e-4, "{} sample {i}: {g} vs {w}", bench.name());
        }
    }
}

#[test]
fn lns_pipeline_matches_reference() {
    let (got, want) = run_pipeline(
        NipsBenchmark::Nips30,
        AnyFormat::from_name("lns").unwrap(),
        4,
        800,
    );
    for (g, w) in got.iter().zip(&want) {
        assert!(((g - w) / w).abs() < 1e-3);
    }
}

#[test]
fn f64_pipeline_is_exact() {
    let (got, want) = run_pipeline(NipsBenchmark::Nips10, AnyFormat::F64, 3, 700);
    for (g, w) in got.iter().zip(&want) {
        // The datapath computes weight-folded trees; ordering differences
        // against the evaluator's log-domain path stay within a few ulps.
        assert!(((g - w) / w).abs() < 1e-12);
    }
}

#[test]
fn many_pes_many_small_blocks() {
    // Stress the block/thread bookkeeping: 8 PEs, tiny blocks, odd count.
    let samples = if full_sweep() { 3_001 } else { 1_001 };
    let (got, want) = run_pipeline(
        NipsBenchmark::Nips10,
        AnyFormat::paper_default(),
        8,
        samples,
    );
    assert_eq!(got.len(), samples);
    for (g, w) in got.iter().zip(&want) {
        assert!(((g - w) / w).abs() < 1e-4);
    }
}

#[test]
fn runtime_reports_shape_mismatch_cleanly() {
    let spn = NipsBenchmark::Nips10.build_spn();
    let prog = DatapathProgram::compile(&spn);
    let device = Arc::new(VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        1,
        1 << 20,
    ));
    let wrong = NipsBenchmark::Nips40.dataset(8, 1);
    assert!(run(device, RuntimeConfig::default(), &wrong).is_err());
}

#[test]
fn device_memory_restored_after_big_run() {
    let spn = NipsBenchmark::Nips20.build_spn();
    let prog = DatapathProgram::compile(&spn);
    let device = Arc::new(VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        4,
        8 << 20,
    ));
    let before: Vec<u64> = (0..4)
        .map(|c| device.memory().free_bytes(c).unwrap())
        .collect();
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(3)
        .build()
        .unwrap();
    let samples = if full_sweep() { 20_000 } else { 5_000 };
    let data = NipsBenchmark::Nips20.dataset(samples, 5);
    run(Arc::clone(&device), config, &data).unwrap();
    for (c, b) in before.iter().enumerate() {
        assert_eq!(device.memory().free_bytes(c as u32).unwrap(), *b);
    }
}

#[test]
fn fault_injection_is_caught_by_verification() {
    use spn_runtime::{FaultInjection, RuntimeError};
    let bench = NipsBenchmark::Nips10;
    let prog = DatapathProgram::compile(&bench.build_spn());
    let device = VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        16 << 20,
    )
    .with_faults(FaultInjection {
        flip_probability: 0.05,
        seed: 99,
        ..FaultInjection::default()
    });
    let config = RuntimeConfig::builder()
        .block_samples(256)
        .threads_per_pe(1)
        .verify_fraction(1.0) // check every sample
        .build()
        .unwrap();
    let data = bench.dataset(2_000, 4);
    match run(Arc::new(device), config, &data) {
        Err(RuntimeError::VerificationFailed {
            index,
            got,
            expected,
        }) => {
            assert!(got != expected, "sample {index} flagged");
        }
        other => panic!("faults should be detected, got {other:?}"),
    }
}

#[test]
fn fault_free_device_passes_full_verification() {
    let bench = NipsBenchmark::Nips10;
    let prog = DatapathProgram::compile(&bench.build_spn());
    let device = VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        16 << 20,
    );
    let config = RuntimeConfig::builder()
        .block_samples(256)
        .threads_per_pe(2)
        .verify_fraction(1.0)
        .build()
        .unwrap();
    let data = bench.dataset(2_000, 4);
    assert!(run(Arc::new(device), config, &data).is_ok());
}

#[test]
fn sparse_verification_has_bounded_cost_and_still_catches_dense_faults() {
    use spn_runtime::{FaultInjection, RuntimeError};
    let bench = NipsBenchmark::Nips10;
    let prog = DatapathProgram::compile(&bench.build_spn());
    // Corrupt (nearly) everything; verify only 1% — detection still
    // certain because every checked sample is corrupted.
    let device = VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        1,
        16 << 20,
    )
    .with_faults(FaultInjection {
        flip_probability: 1.0,
        seed: 7,
        ..FaultInjection::default()
    });
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(1)
        .verify_fraction(0.01)
        .build()
        .unwrap();
    let data = bench.dataset(if full_sweep() { 5_000 } else { 1_500 }, 8);
    assert!(matches!(
        run(Arc::new(device), config, &data),
        Err(RuntimeError::VerificationFailed { .. })
    ));
}
