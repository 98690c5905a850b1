//! Integration tests for the epoll reactor serving engine: the
//! many-connection smoke (1k connections by default, the full 10k
//! under `SPN_FULL_SWEEP=1`), the connection-limit and idle-timeout
//! behaviours, and the replay proof that a trace recorded through the
//! reactor replays bit-for-bit through a fresh server, digest for
//! recorded digest.

use spn_arith::AnyFormat;
use spn_core::{Dataset, NipsBenchmark};
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_replay::{record_load, replay, ReplayConfig, Trace};
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{
    protocol, run_load, BatchPolicy, Client, ClientError, Frame, LoadConfig, ModelSpec, Opcode,
    ReactorConfig, ServerConfig, ServingMode, SpnServer, Status,
};
use spn_telemetry::SpanCtx;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn make_device(bench: NipsBenchmark) -> VirtualDevice {
    VirtualDevice::new(
        DatapathProgram::compile(&bench.build_spn()),
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        64 << 20,
    )
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(2)
        .build()
        .unwrap()
}

/// Log-likelihoods of `rows` from a direct scheduler job.
fn direct_lls(bench: NipsBenchmark, rows: &Dataset) -> Vec<f64> {
    let scheduler = Scheduler::new(Arc::new(make_device(bench)), runtime_config()).unwrap();
    let job = scheduler.submit_blocking(Arc::new(rows.clone()), JobOptions::default());
    job.unwrap()
        .wait()
        .unwrap()
        .iter()
        .map(|p| p.ln())
        .collect()
}

fn start_server(bench: NipsBenchmark, serving: ServingMode) -> SpnServer {
    start_server_on(bench, make_device(bench), serving)
}

fn start_server_on(bench: NipsBenchmark, device: VirtualDevice, serving: ServingMode) -> SpnServer {
    let scheduler = Arc::new(Scheduler::new(Arc::new(device), runtime_config()).unwrap());
    let spec = ModelSpec::new(bench.name(), scheduler, bench.num_vars() as u32, 256);
    SpnServer::serve(
        ServerConfig {
            batch: BatchPolicy {
                max_batch_samples: 4096,
                max_batch_delay: Duration::from_millis(2),
            },
            serving,
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap()
}

/// Connection count for the smoke: `SPN_REACTOR_CONNS` wins, else 10k
/// under `SPN_FULL_SWEEP=1`, else a CI-sized 1k — always clamped to
/// what the fd budget can hold with server *and* generator in one
/// process (two fds per connection plus headroom).
fn smoke_connections() -> usize {
    let want = std::env::var("SPN_REACTOR_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            if std::env::var("SPN_FULL_SWEEP").is_ok_and(|v| v == "1") {
                10_000
            } else {
                1_000
            }
        });
    let (soft, _) = epoll::nofile_limit().expect("rlimit readable");
    let _ = epoll::raise_nofile_limit(2 * want as u64 + 128);
    let (soft_now, _) = epoll::nofile_limit().unwrap_or((soft, soft));
    want.min((soft_now.saturating_sub(128) / 2) as usize).max(1)
}

/// The headline smoke: the reactor accepts and serves every one of a
/// four-digit connection count from a two-thread event loop, with no
/// drops and no rejections.
#[test]
fn reactor_serves_a_thousand_connections() {
    let conns = smoke_connections();
    let bench = NipsBenchmark::Nips10;
    let mut server = start_server(
        bench,
        ServingMode::Reactor(ReactorConfig {
            loop_threads: 2,
            max_connections: conns + 64,
            idle_timeout: Some(Duration::from_secs(60)),
        }),
    );
    let cfg = LoadConfig {
        addr: server.local_addr(),
        model: bench.name().to_string(),
        num_features: bench.num_vars() as u32,
        domain: 255,
        connections: conns,
        requests_per_connection: 2,
        samples_per_request: 1,
        deadline_ms: 0,
        seed: 7,
    };
    let report = run_load(&cfg).expect("load run");
    assert_eq!(report.connections, conns, "fd budget clamped the smoke");
    assert_eq!(report.dropped_connections, 0, "{}", report.summary());
    assert_eq!(report.rejected_at_accept, 0, "{}", report.summary());
    assert_eq!(report.ok_requests, 2 * conns as u64);
    assert_eq!(report.rejected_requests, 0);

    let telemetry = server.telemetry_snapshot();
    let reactor = telemetry.reactor.expect("reactor section present");
    assert_eq!(reactor.loop_threads, 2);
    assert_eq!(reactor.accepted_total, conns as u64);
    assert_eq!(reactor.rejected_at_accept, 0);
    server.shutdown();
}

/// Past `max_connections` the reactor turns new sockets away at
/// accept with a typed `ServerBusy` frame (or an immediate close,
/// depending on how the client races the teardown) — and the
/// telemetry counts it.
#[test]
fn connection_limit_rejects_at_accept() {
    let bench = NipsBenchmark::Nips10;
    let mut server = start_server(
        bench,
        ServingMode::Reactor(ReactorConfig {
            loop_threads: 1,
            max_connections: 2,
            idle_timeout: None,
        }),
    );
    let addr = server.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    let mut c = Client::connect(addr).unwrap();
    let outcome = c.request(bench.name()).samples(&[0u8; 10], 1, 10).send();
    match outcome {
        Err(ClientError::Rejected { status, .. }) => assert_eq!(status, Status::ServerBusy),
        Err(ClientError::ConnectionClosed) => {}
        other => panic!("over-limit connection got service: {other:?}"),
    }
    let reactor = server.telemetry_snapshot().reactor.unwrap();
    assert_eq!(reactor.rejected_at_accept, 1);
    assert_eq!(reactor.open_connections, 2);

    // The limit releases: close one admitted connection and a new one
    // is served.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let served = Client::connect(addr).is_ok_and(|mut d| d.ping().is_ok());
        if served {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after close"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// Connections idle past the timeout are reaped by the timer wheel;
/// active connections survive it.
#[test]
fn idle_timeout_reaps_quiet_connections() {
    let bench = NipsBenchmark::Nips10;
    let mut server = start_server(
        bench,
        ServingMode::Reactor(ReactorConfig {
            loop_threads: 1,
            max_connections: 64,
            idle_timeout: Some(Duration::from_millis(100)),
        }),
    );
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();
    let mut active = Client::connect(addr).unwrap();

    // Keep `active` busy while `idle` goes quiet for several timeouts.
    for _ in 0..10 {
        active.ping().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }

    // The idle connection is gone — the next request fails.
    idle.set_io_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    assert!(
        idle.ping().is_err(),
        "connection idle for 600ms survived a 100ms idle timeout"
    );
    // The active one is still being served.
    active.ping().unwrap();

    let reactor = server.telemetry_snapshot().reactor.unwrap();
    assert!(
        reactor.idle_closed >= 1,
        "idle close not counted: {reactor:?}"
    );
    server.shutdown();
}

/// A client that half-closes behind its request (`shutdown(Write)`)
/// must not spin the loop while the request runs: epoll is
/// level-triggered and readiness is ignored while a connection is
/// busy, so any interest left registered for the in-flight request
/// (`EPOLLRDHUP`, once) makes `epoll_wait` return at once, over and
/// over, until the reply is ready — one slow model plus one such
/// client pinned a core. The client still gets its reply.
#[test]
fn half_closed_connection_does_not_spin_the_loop() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars();
    let row = bench.dataset(1, 3);
    let expected = direct_lls(bench, &row)[0];

    // One sample takes the device 300 ms.
    let mut server = start_server_on(
        bench,
        make_device(bench).with_pacing(Duration::from_millis(300)),
        ServingMode::Reactor(ReactorConfig {
            loop_threads: 1,
            max_connections: 64,
            idle_timeout: None,
        }),
    );
    let request = protocol::InferRequest {
        model: bench.name().to_string(),
        deadline_ms: 0,
        num_samples: 1,
        num_features: nf as u32,
        data: row.raw().to_vec(),
        trace: false,
        ctx: SpanCtx::NONE,
    };
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    protocol::write_frame(
        &mut stream,
        &Frame::request(Opcode::Infer, request.encode()),
    )
    .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();

    // Wait until the request is in flight, then watch the loop for
    // 200 ms of the 300 ms it stays there.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics_snapshot().batches_total == 0 {
        assert!(std::time::Instant::now() < deadline, "request never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    let turns = |server: &SpnServer| server.telemetry_snapshot().reactor.unwrap().loop_iterations;
    let before = turns(&server);
    std::thread::sleep(Duration::from_millis(200));
    let spun = turns(&server) - before;
    assert!(
        spun < 100,
        "the loop turned {spun} times in 200 ms with one request in flight"
    );

    let reply = protocol::read_frame(&mut stream).expect("half-closed client still gets a reply");
    assert_eq!(reply.status, Status::Ok);
    let lls = protocol::decode_results(&reply.payload).unwrap();
    assert_eq!(lls.len(), 1);
    assert_eq!(lls[0].to_bits(), expected.to_bits());
    server.shutdown();
}

/// A client that pipelines — two `Infer` frames in one `write` — gets
/// both replies, in request order, bit-equal to the direct runtime.
/// The second frame's readiness arrives while the first request is in
/// flight: that event is ignored, the socket is silenced, and the reply
/// path must re-arm it or the second frame is never read.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars();
    let rows = bench.dataset(2, 17);
    let expected = direct_lls(bench, &rows);
    assert_ne!(expected[0].to_bits(), expected[1].to_bits());

    // Paced, so the first request is still in flight when the
    // second frame's readiness is reported.
    let mut server = start_server_on(
        bench,
        make_device(bench).with_pacing(Duration::from_millis(20)),
        ServingMode::Reactor(ReactorConfig::default()),
    );
    let mut wire = Vec::new();
    for row in rows.rows() {
        let request = protocol::InferRequest {
            model: bench.name().to_string(),
            deadline_ms: 0,
            num_samples: 1,
            num_features: nf as u32,
            data: row.to_vec(),
            trace: false,
            ctx: SpanCtx::NONE,
        };
        protocol::write_frame(&mut wire, &Frame::request(Opcode::Infer, request.encode())).unwrap();
    }
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::io::Write::write_all(&mut stream, &wire).unwrap();
    for want in &expected {
        let reply = protocol::read_frame(&mut stream).expect("a reply per pipelined frame");
        assert_eq!(reply.status, Status::Ok);
        let lls = protocol::decode_results(&reply.payload).unwrap();
        assert_eq!(lls.len(), 1);
        assert_eq!(lls[0].to_bits(), want.to_bits());
    }
    server.shutdown();
}

/// The reactor's correctness oracle is the recorded reply digests: a
/// trace recorded through one server replays bit-for-bit through a
/// fresh one — the same digest for every request.
#[test]
fn reactor_trace_replays_bit_identically_through_a_fresh_server() {
    let bench = NipsBenchmark::Nips10;
    let mut reactor_server = start_server(bench, ServingMode::default());
    let cfg = LoadConfig {
        addr: reactor_server.local_addr(),
        model: bench.name().to_string(),
        num_features: bench.num_vars() as u32,
        domain: 255,
        connections: 8,
        requests_per_connection: 6,
        samples_per_request: 4,
        deadline_ms: 0,
        seed: 42,
    };
    let (report, trace) = record_load(&cfg).expect("record through reactor");
    assert_eq!(report.ok_requests, 48);
    assert_eq!(trace.records.len(), 48);
    reactor_server.shutdown();

    // Round-trip the trace through its file format, as the CLI would.
    let dir = std::env::temp_dir().join(format!("spn-reactor-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reactor.spntrace");
    trace.write_file(&path).unwrap();
    let trace = Trace::read_file(&path).unwrap();

    let mut fresh_server = start_server(bench, ServingMode::default());
    let mut rcfg = ReplayConfig::new(fresh_server.local_addr());
    rcfg.speed = 4.0;
    let rep = replay(&trace, &rcfg).expect("replay through a fresh server");
    assert!(rep.is_faithful(), "not faithful: {}", rep.summary());
    assert_eq!(rep.ok_requests, 48);
    assert_eq!(rep.digest_mismatches, 0);
    assert_eq!(rep.payload_mismatches, 0);
    for (rec, got) in trace.records.iter().zip(&rep.reply_digests) {
        assert_eq!(rec.reply_digest, *got, "digest diverged from the recording");
    }
    fresh_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
