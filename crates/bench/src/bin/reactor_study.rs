//! Reactor vs threaded serving study — the perf-gate record for the
//! epoll reactor engine. Both engines serve the identical seeded
//! open-loop request stream at increasing connection counts; the
//! committed `BENCH_reactor.json` pins the headline claim of the
//! refactor: at four-digit connection counts the reactor's tail
//! latency (p99) is no worse than the blocking thread-per-connection
//! engine's, while both remain bit-identical servers (that part is
//! proved by the cross-engine replay test, not here).
//!
//! Methodology: as in `serving_study`, the backend device is *paced*
//! (a fixed per-sample sleep holding the PE) so device capacity is a
//! portable constant and every point is dominated by queueing plus
//! the serving engine's own overhead — which is exactly the quantity
//! under study: at C connections the generator keeps C requests in
//! flight, so the two engines face identical offered load and differ
//! only in how they multiplex it (C blocking threads vs 2 event
//! loops). Each point is the best of two runs (pacing pins the true
//! rate, so the faster run is the correct one).
//!
//! Points are labelled `T{C}` (threaded) and `R{C}` (reactor). Only
//! the *reactor* points carry gateable keys (`samples_per_sec`
//! higher-better, `p50_ms`/`p99_ms` lower-better) for
//! `spn bench diff` — the threaded engine's latency under a C-thread
//! pile-up is scheduler-noise-dominated (its p50 swings 40 % run to
//! run on a loaded host), so its numbers are recorded under
//! `*_observed` keys the gate ignores. The cross-engine claim itself
//! (reactor p99 <= threaded p99 at the top connection count) is
//! asserted by the full, committed run. The quick sweep is a
//! labelled subset so CI diffs it against the committed baseline.

use bench::{jobj, write_study_record, StudyArgs, Table};
use serde::Serialize;
use serde_json::Value;
use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{
    clamp_connections, run_load, BatchPolicy, LoadConfig, LoadReport, ModelSpec, ReactorConfig,
    ServerConfig, ServingMode, SpnServer,
};
use spn_telemetry::{RunKind, RunRecord};
use std::sync::Arc;
use std::time::Duration;

const PACING_US: u64 = 50;
const PES: u32 = 2;
const SAMPLES_PER_REQUEST: u32 = 1;
const MODEL: NipsBenchmark = NipsBenchmark::Nips10;
const SEED: u64 = 11;

struct Point {
    name: String,
    engine: String,
    connections: usize,
    ok_requests: u64,
    samples_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl Point {
    /// Reactor points gate; threaded points inform (see module docs).
    fn record(&self) -> Value {
        let gated = self.engine == "reactor";
        let key = |base: &str| {
            if gated {
                base.to_string()
            } else {
                format!("{base}_observed")
            }
        };
        jobj(vec![
            ("name", Value::String(self.name.clone())),
            ("engine", Value::String(self.engine.clone())),
            ("connections", self.connections.serialize()),
            ("ok_requests", self.ok_requests.serialize()),
            (&key("samples_per_sec"), self.samples_per_sec.serialize()),
            (&key("p50_ms"), self.p50_ms.serialize()),
            (&key("p99_ms"), self.p99_ms.serialize()),
        ])
    }
}

fn start_server(serving: ServingMode) -> SpnServer {
    let prog = DatapathProgram::compile(&MODEL.build_spn());
    let device = Arc::new(
        VirtualDevice::new(
            prog,
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            PES,
            64 << 20,
        )
        .with_pacing(Duration::from_micros(PACING_US)),
    );
    let config = RuntimeConfig::builder()
        .block_samples(256)
        .threads_per_pe(1)
        .verify_fraction(0.0)
        .build()
        .unwrap();
    let scheduler = Arc::new(Scheduler::new(device, config).unwrap());
    let spec = ModelSpec::new(MODEL.name(), scheduler, MODEL.num_vars() as u32, 256);
    SpnServer::serve(
        ServerConfig {
            batch: BatchPolicy {
                max_batch_samples: 256,
                max_batch_delay: Duration::from_micros(200),
            },
            serving,
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap()
}

fn run_point(serving: ServingMode, connections: usize, requests: usize) -> LoadReport {
    let mut server = start_server(serving);
    let cfg = LoadConfig {
        addr: server.local_addr(),
        model: MODEL.name().to_string(),
        num_features: MODEL.num_vars() as u32,
        domain: 255,
        connections,
        requests_per_connection: requests,
        samples_per_request: SAMPLES_PER_REQUEST,
        deadline_ms: 0,
        seed: SEED,
    };
    // Best of two runs by throughput (see module docs).
    let report = (0..2)
        .map(|_| run_load(&cfg).expect("load run"))
        .max_by(|a, b| a.samples_per_sec.total_cmp(&b.samples_per_sec))
        .unwrap();
    server.shutdown();
    assert_eq!(report.connections, connections, "fd budget clamped the run");
    assert_eq!(report.dropped_connections, 0, "{}", report.summary());
    assert_eq!(report.rejected_at_accept, 0, "{}", report.summary());
    report
}

fn main() {
    let args = StudyArgs::parse();
    let want: &[usize] = if args.quick { &[64] } else { &[64, 256, 1000] };
    let requests = if args.quick { 8 } else { 4 };
    // Both ends live in this process: two fds per connection plus the
    // server/listener/epoll overhead.
    let budget = clamp_connections(2 * want.last().unwrap() + 256, 256);
    let sweep: Vec<usize> = want.iter().map(|&c| c.min(budget / 2)).collect();
    assert_eq!(
        sweep, want,
        "fd budget too small for the study sweep (have {budget})"
    );

    println!(
        "Reactor vs threaded study: {} on a {PES}-PE device paced at {PACING_US} µs/sample, \
         open-loop, C -> {}\n",
        MODEL.name(),
        sweep.last().unwrap()
    );

    let mut table = Table::new(vec![
        "engine",
        "connections",
        "ok requests",
        "samples/s",
        "p50 [ms]",
        "p99 [ms]",
    ]);
    let mut points = Vec::new();
    for &c in &sweep {
        for (label, engine) in [
            ("threaded", ServingMode::Threaded),
            (
                "reactor",
                ServingMode::Reactor(ReactorConfig {
                    loop_threads: 2,
                    max_connections: c + 64,
                    idle_timeout: Some(Duration::from_secs(60)),
                }),
            ),
        ] {
            let load = run_point(engine, c, requests);
            table.row(vec![
                label.to_string(),
                c.to_string(),
                load.ok_requests.to_string(),
                format!("{:.0}", load.samples_per_sec),
                format!("{:.2}", load.p50_ms),
                format!("{:.2}", load.p99_ms),
            ]);
            assert_eq!(load.rejected_requests, 0, "C={c} saw rejections");
            points.push(Point {
                name: format!("{}{c}", label.chars().next().unwrap().to_uppercase()),
                engine: label.to_string(),
                connections: c,
                ok_requests: load.ok_requests,
                samples_per_sec: load.samples_per_sec,
                p50_ms: load.p50_ms,
                p99_ms: load.p99_ms,
            });
        }
    }
    table.print();

    // The headline: at the top connection count the reactor's p99 is
    // no worse than the threaded engine's.
    let top = *sweep.last().unwrap();
    let p99 = |eng: &str| {
        points
            .iter()
            .find(|p| p.engine == eng && p.connections == top)
            .map(|p| p.p99_ms)
            .unwrap()
    };
    let (threaded_p99, reactor_p99) = (p99("threaded"), p99("reactor"));
    println!(
        "\np99 at C={top}: threaded {threaded_p99:.2} ms, reactor {reactor_p99:.2} ms \
         ({:.2}x)",
        reactor_p99 / threaded_p99
    );
    if !args.quick {
        assert!(
            reactor_p99 <= threaded_p99,
            "reactor p99 ({reactor_p99:.2} ms) worse than threaded ({threaded_p99:.2} ms) at C={top}"
        );
    }

    let config = jobj(vec![
        (
            "methodology",
            Value::String(
                "open-loop seeded load (epoll-multiplexed generator, every \
                 connection keeping one request in flight) against one \
                 in-process spn-server over a per-sample paced 2-PE device; \
                 each connection count is served twice, once by the blocking \
                 thread-per-connection engine and once by the epoll reactor, \
                 so the p99 delta isolates the serving engine's multiplexing \
                 overhead at identical offered load"
                    .to_string(),
            ),
        ),
        ("model", Value::String(MODEL.name().to_string())),
        ("pacing_us_per_sample", PACING_US.serialize()),
        ("pes", PES.serialize()),
        ("samples_per_request", SAMPLES_PER_REQUEST.serialize()),
        ("requests_per_connection", requests.serialize()),
        ("connections", sweep.serialize()),
        ("loop_threads", 2u32.serialize()),
        ("seed", SEED.serialize()),
        ("quick", Value::Bool(args.quick)),
    ]);
    let metrics = jobj(vec![
        (
            "points",
            Value::Array(points.iter().map(Point::record).collect()),
        ),
        (
            "p99_ratio_reactor_over_threaded_at_top",
            (reactor_p99 / threaded_p99).serialize(),
        ),
    ]);
    let record = RunRecord::new("reactor_study", RunKind::Bench, config, metrics);
    write_study_record(
        &record,
        args.out.as_deref().unwrap_or("BENCH_reactor.json"),
        args.runs.as_deref(),
    );
}
