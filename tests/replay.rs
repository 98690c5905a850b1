//! Integration tests for the record/replay harness: a seeded loadgen
//! run against a real in-process server becomes a `.spntrace`, the
//! open-loop replayer re-issues it, and the replies are bit-identical
//! to the recording — including through a router failover with one
//! replica killed mid-replay.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_router::{HealthPolicy, RouterConfig, SpnRouter};
use spn_runtime::{ExecBackend, JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{
    record_load, replay, BatchPolicy, Burst, LoadConfig, ModelSpec, ReplayConfig, ServerConfig,
    SpnServer, Trace,
};
use std::sync::Arc;
use std::time::Duration;

/// A 2-PE scheduler whose device carries its model, so that jobs can
/// run on the device or on the host plan.
fn make_scheduler(bench: NipsBenchmark) -> Arc<Scheduler> {
    let spn = bench.build_spn();
    let prog = DatapathProgram::compile(&spn);
    let device = Arc::new(
        VirtualDevice::new(
            prog,
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            2,
            64 << 20,
        )
        .with_model(Arc::new(spn)),
    );
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(2)
        .build()
        .unwrap();
    Arc::new(Scheduler::new(device, config).unwrap())
}

fn start_backend(bench: NipsBenchmark) -> SpnServer {
    let spec = ModelSpec::new(
        bench.name(),
        make_scheduler(bench),
        bench.num_vars() as u32,
        256,
    );
    SpnServer::serve(
        ServerConfig {
            batch: BatchPolicy {
                max_batch_samples: 4096,
                max_batch_delay: Duration::from_millis(2),
            },
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap()
}

fn load_config(addr: std::net::SocketAddr, bench: NipsBenchmark) -> LoadConfig {
    LoadConfig {
        addr,
        model: bench.name().to_string(),
        num_features: bench.num_vars() as u32,
        domain: 255,
        connections: 2,
        requests_per_connection: 12,
        samples_per_request: 4,
        deadline_ms: 0,
        seed: 42,
    }
}

/// The tentpole acceptance: record a seeded run, replay it twice, and
/// both replays answer bit-identically to the recording — same reply
/// digests, every request accounted for.
#[test]
fn recorded_trace_replays_bit_identically_twice() {
    let bench = NipsBenchmark::Nips10;
    let server = start_backend(bench);
    let cfg = load_config(server.local_addr(), bench);

    let (report, trace) = record_load(&cfg).expect("record run");
    assert_eq!(report.ok_requests, 24);
    assert_eq!(trace.records.len(), 24);
    assert!(
        trace.records.iter().all(|r| r.reply_digest.is_some()),
        "every recorded request got an Ok reply to digest"
    );

    // The trace round-trips through its binary file format.
    let dir = std::env::temp_dir().join(format!("spn-replay-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.spntrace");
    trace.write_file(&path).unwrap();
    let trace = Trace::read_file(&path).unwrap();

    // Replay twice, fast (the recorded gaps are closed-loop tiny
    // anyway; x4 just keeps the test snappy).
    let mut rcfg = ReplayConfig::new(server.local_addr());
    rcfg.speed = 4.0;
    let first = replay(&trace, &rcfg).expect("first replay");
    let second = replay(&trace, &rcfg).expect("second replay");

    for rep in [&first, &second] {
        assert!(rep.is_faithful(), "not faithful: {}", rep.summary());
        assert_eq!(rep.total_requests, 24);
        assert_eq!(rep.ok_requests, 24, "{}", rep.summary());
        assert_eq!(rep.digests_checked, 24);
        assert_eq!(rep.digest_mismatches, 0);
        assert_eq!(rep.payload_mismatches, 0);
    }
    // Byte-identical replies across replays, request by request.
    assert_eq!(first.reply_digests, second.reply_digests);
    // ...and identical to the recording itself.
    for (rec, got) in trace.records.iter().zip(&first.reply_digests) {
        assert_eq!(rec.reply_digest, *got);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Burst injection compresses arrivals without losing requests, and
/// the replies stay bit-identical — a traffic spike changes *when*
/// load arrives, never *what* is computed.
#[test]
fn burst_replay_is_still_bit_identical() {
    let bench = NipsBenchmark::Nips10;
    let server = start_backend(bench);
    let (_, trace) = record_load(&load_config(server.local_addr(), bench)).unwrap();

    let mut cfg = ReplayConfig::new(server.local_addr());
    cfg.speed = 2.0;
    cfg.burst = Some(Burst {
        start_ms: 0,
        len_ms: 10_000, // swallow the whole (short) trace into one spike
    });
    let rep = replay(&trace, &cfg).expect("burst replay");
    assert!(rep.is_faithful(), "{}", rep.summary());
    assert_eq!(rep.ok_requests, rep.total_requests, "{}", rep.summary());
    assert_eq!(rep.digest_mismatches, 0);
}

/// Failover acceptance: replay a trace against a 2-replica router and
/// kill one replica mid-replay. Request counts are conserved (every
/// recorded request is answered or accounted for), nothing is lost,
/// and the surviving replica's answers are still bit-identical to the
/// recording.
#[test]
fn replay_through_router_failover_conserves_requests() {
    let bench = NipsBenchmark::Nips10;
    let mut servers = [start_backend(bench), start_backend(bench)];
    let router = SpnRouter::start(RouterConfig {
        backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        replication: 2,
        health: HealthPolicy {
            interval: Duration::from_millis(25),
            timeout: Duration::from_millis(250),
            fail_threshold: 2,
            recover_threshold: 2,
        },
        ..RouterConfig::default()
    })
    .unwrap();

    // Record through the router, with more requests so the replay has
    // a meaningful timeline to kill a backend in the middle of.
    let mut cfg = load_config(router.local_addr(), bench);
    cfg.connections = 3;
    cfg.requests_per_connection = 40;
    let (report, trace) = record_load(&cfg).unwrap();
    assert_eq!(report.ok_requests, 120);

    // Slow the replay down 4x so the mid-replay kill lands mid-replay.
    let mut rcfg = ReplayConfig::new(router.local_addr());
    rcfg.speed = 0.25;
    let trace_span_ns = trace
        .records
        .iter()
        .map(|r| r.arrival_ns)
        .max()
        .unwrap_or(0);
    let replay_ns = spn_server::scaled_arrival_ns(trace_span_ns, rcfg.speed);

    let backends: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let victim = spn_router::HashRing::new(&backends).replicas(bench.name(), 2)[0];
    let trace2 = trace.clone();
    let handle = std::thread::spawn(move || replay(&trace2, &rcfg));
    std::thread::sleep(Duration::from_nanos(replay_ns / 3));
    servers[victim].shutdown();
    let rep = handle.join().unwrap().expect("replay with failover");

    // Conservation: every recorded request is accounted for, none
    // vanished — and with a live failover replica, none were lost.
    assert_eq!(
        rep.ok_requests + rep.rejected_requests + rep.transport_errors,
        rep.total_requests
    );
    assert_eq!(rep.total_requests, 120);
    assert_eq!(rep.ok_requests, 120, "{}", rep.summary());
    // Bit-identical even across the failover: both replicas compute
    // the same deterministic model.
    assert_eq!(rep.digest_mismatches, 0, "{}", rep.summary());
    assert_eq!(rep.payload_mismatches, 0);
}

/// A two-model server where both models execute through their
/// compiled host plans — the runtime the committed bursty trace
/// replays against. Returns the schedulers too, so tests can assert
/// the plan path actually ran.
fn start_host_plan_multimodel_server() -> (SpnServer, Vec<Arc<Scheduler>>) {
    let mut specs = Vec::new();
    let mut schedulers = Vec::new();
    for bench in [NipsBenchmark::Nips10, NipsBenchmark::Nips20] {
        let scheduler = make_scheduler(bench);
        schedulers.push(Arc::clone(&scheduler));
        specs.push(
            ModelSpec::new(bench.name(), scheduler, bench.num_vars() as u32, 256).with_opts(
                JobOptions::builder()
                    .backend(ExecBackend::HostPlan)
                    .build()
                    .unwrap(),
            ),
        );
    }
    let server = SpnServer::serve(
        ServerConfig {
            batch: BatchPolicy {
                max_batch_samples: 4096,
                max_batch_delay: Duration::from_millis(2),
            },
            ..ServerConfig::default()
        },
        specs,
    )
    .unwrap();
    (server, schedulers)
}

const COMMITTED_TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/traces/bursty_multimodel.spntrace"
);

/// Regenerate the committed bursty multi-model trace. Ignored in
/// normal runs — the committed artifact is the contract; run
/// `cargo test -p system-tests --test replay -- --ignored regenerate`
/// only when the trace format or the recording setup changes, and
/// commit the result.
///
/// The trace interleaves two models and rewrites the closed-loop
/// arrivals into three tight bursts 50 ms apart, so replays exercise
/// spike admission rather than a smooth trickle. Reply digests come
/// from the host-plan runtime itself — which the differential suite
/// proves bit-identical to the tree-walk oracle — so any later runtime
/// must reproduce them exactly.
#[test]
#[ignore]
fn regenerate_committed_bursty_trace() {
    let (server, _schedulers) = start_host_plan_multimodel_server();

    let mut merged = Vec::new();
    for (i, bench) in [NipsBenchmark::Nips10, NipsBenchmark::Nips20]
        .iter()
        .enumerate()
    {
        let mut cfg = load_config(server.local_addr(), *bench);
        cfg.connections = 2;
        cfg.requests_per_connection = 9;
        cfg.seed = 42 + i as u64;
        let (report, trace) = record_load(&cfg).expect("record run");
        assert_eq!(report.ok_requests, 18);
        for mut rec in trace.records {
            // Keep connection ids globally distinct across the merge.
            rec.conn += (i * 2) as u32;
            merged.push(rec);
        }
    }
    // Three bursts, 50 ms apart, arrivals 20 µs apart inside a burst
    // — globally increasing, so per-connection monotonicity holds.
    merged.sort_by_key(|r| (r.arrival_ns, r.conn));
    let per_burst = merged.len().div_ceil(3);
    for (i, rec) in merged.iter_mut().enumerate() {
        let burst = i / per_burst;
        let slot = i % per_burst;
        rec.arrival_ns = burst as u64 * 50_000_000 + slot as u64 * 20_000;
    }
    let trace = Trace {
        run_seed: 42,
        records: merged,
    };
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/traces")).unwrap();
    trace.write_file(COMMITTED_TRACE).unwrap();
    // The artifact decodes back to itself.
    assert_eq!(Trace::read_file(COMMITTED_TRACE).unwrap(), trace);
}

/// Replay regression: the committed bursty multi-model trace replays
/// through a freshly built host-plan server with every reply verified
/// bit-for-bit against the recorded digests. This pins the full chain
/// — trace decoding, seeded payload regeneration, plan compile and
/// execution — to the exact f64 results recorded when the trace was
/// made.
#[test]
fn committed_bursty_trace_replays_bit_for_bit_through_host_plan_runtime() {
    let trace = Trace::read_file(COMMITTED_TRACE).expect("committed trace decodes");
    assert_eq!(trace.records.len(), 36);
    let models: std::collections::BTreeSet<&str> =
        trace.records.iter().map(|r| r.model.as_str()).collect();
    assert_eq!(
        models.into_iter().collect::<Vec<_>>(),
        vec!["NIPS10", "NIPS20"],
        "trace spans two models"
    );
    assert!(
        trace.records.iter().all(|r| r.reply_digest.is_some()),
        "every record carries a reply digest to verify against"
    );
    // Bursty by construction: the largest arrival gap dwarfs the
    // in-burst spacing.
    let mut arrivals: Vec<u64> = trace.records.iter().map(|r| r.arrival_ns).collect();
    arrivals.sort_unstable();
    let max_gap = arrivals.windows(2).map(|w| w[1] - w[0]).max().unwrap();
    assert!(
        max_gap >= 10_000_000,
        "largest gap {max_gap} ns is not a burst boundary"
    );

    let (server, schedulers) = start_host_plan_multimodel_server();
    let mut cfg = ReplayConfig::new(server.local_addr());
    cfg.speed = 4.0; // compress the 100 ms timeline; bursts stay bursts
    let rep = replay(&trace, &cfg).expect("host-plan replay");

    assert!(rep.is_faithful(), "not faithful: {}", rep.summary());
    assert_eq!(rep.ok_requests, rep.total_requests, "{}", rep.summary());
    assert_eq!(rep.digests_checked, 36);
    assert_eq!(
        rep.digest_mismatches, 0,
        "host-plan replies diverged from the recording"
    );
    assert_eq!(rep.payload_mismatches, 0);

    // The replies really came off the plan path: each scheduler
    // compiled its model once and ran blocks without moving a byte to
    // or from the device.
    for scheduler in &schedulers {
        let plans = scheduler.plan_cache().telemetry();
        assert_eq!((plans.cached_plans, plans.cache_misses), (1, 1));
        let m = scheduler.metrics_snapshot();
        assert!(m.blocks_executed > 0);
        assert_eq!((m.h2d_bytes, m.d2h_bytes), (0, 0));
    }
}
