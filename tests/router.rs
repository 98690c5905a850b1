//! Integration tests for the cluster front-end: client → router →
//! consistent-hash placement → backend pool → `spn-server` → back.
//!
//! The backends here are real in-process `SpnServer`s over
//! deterministic virtual devices, so routed results can be compared
//! bit-for-bit against a direct scheduler run.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_router::{HashRing, HealthPolicy, RouterConfig, SpnRouter};
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{
    protocol, BatchPolicy, Client, ModelSpec, Opcode, ServerConfig, SpnServer, Status,
};
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a test waits for an event before calling it a hang. It
/// bounds a wait and gives no verdict: every assertion is on an order
/// of events.
const HANG: Duration = Duration::from_secs(30);

/// Heavy sweeps run in full only under `SPN_FULL_SWEEP=1` (CI has a
/// dedicated step for that); the default path keeps `cargo test -q`
/// quick while still exercising every code path.
fn full_sweep() -> bool {
    std::env::var("SPN_FULL_SWEEP").as_deref() == Ok("1")
}

fn make_device(bench: NipsBenchmark) -> Arc<VirtualDevice> {
    let prog = DatapathProgram::compile(&bench.build_spn());
    Arc::new(VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        64 << 20,
    ))
}

fn make_scheduler(bench: NipsBenchmark) -> Arc<Scheduler> {
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(2)
        .build()
        .unwrap();
    Arc::new(Scheduler::new(make_device(bench), config).unwrap())
}

/// One backend server at an OS-chosen port.
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

/// A health policy fast enough for tests: a dead backend is `Down`
/// within ~100 ms and re-admitted within ~100 ms of coming back.
fn fast_health() -> HealthPolicy {
    HealthPolicy {
        interval: Duration::from_millis(25),
        timeout: Duration::from_millis(250),
        fail_threshold: 2,
        recover_threshold: 2,
    }
}

fn start_router(backends: &[&SpnServer], replication: usize) -> SpnRouter {
    SpnRouter::start(RouterConfig {
        backends: backends
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect(),
        replication,
        health: fast_health(),
        ..RouterConfig::default()
    })
    .unwrap()
}

/// The backends (indices into `backends`) a router over `backends` at
/// `replication` places `model` on, primary first: the router's own
/// ring, built from the same addresses.
fn replicas(backends: &[&SpnServer], model: &str, replication: usize) -> Vec<usize> {
    let addrs: Vec<String> = backends
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    HashRing::new(&addrs).replicas(model, replication)
}

/// Ground truth: log-likelihoods for the dataset from a direct
/// scheduler job.
fn direct_lls(bench: NipsBenchmark, dataset: &spn_core::Dataset) -> Vec<f64> {
    let config = RuntimeConfig::builder().block_samples(512).build().unwrap();
    let scheduler = Scheduler::new(make_device(bench), config).unwrap();
    let data = Arc::new(dataset.clone());
    let job = scheduler.submit_blocking(data, JobOptions::default());
    job.unwrap()
        .wait()
        .unwrap()
        .iter()
        .map(|p| p.ln())
        .collect()
}

/// Acceptance: results routed through a 3-backend cluster are
/// *bit-identical* to a direct scheduler run — the router forwards
/// payload bytes verbatim and never re-encodes what a backend computed.
#[test]
fn routed_results_are_bit_identical_to_direct_runtime() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let dataset = bench.dataset(96, 11);
    let expected = direct_lls(bench, &dataset);

    let b0 = start_backend(bench);
    let b1 = start_backend(bench);
    let b2 = start_backend(bench);
    let router = start_router(&[&b0, &b1, &b2], 2);

    let mut client = Client::connect(router.local_addr()).unwrap();
    let mut at = 0usize;
    let chunks = [5usize, 17, 1, 9]; // ragged on purpose
    let mut got = Vec::new();
    let mut requests = 0u64;
    while at < 96 {
        let n = chunks[got.len() % chunks.len()].min(96 - at);
        let mut block = Vec::with_capacity(n * nf as usize);
        for r in 0..n {
            block.extend_from_slice(dataset.row(at + r));
        }
        let lls = client
            .request(bench.name())
            .samples(&block, n as u32, nf)
            .send()
            .unwrap();
        got.extend(lls);
        requests += 1;
        at += n;
    }
    for (i, (ll, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            ll.to_bits(),
            want.to_bits(),
            "row {i} differs through the router: {ll} vs {want}"
        );
    }

    let snap = router.telemetry_snapshot();
    let r = snap.router.expect("router telemetry present");
    assert_eq!(r.requests_total, requests);
    assert_eq!(r.rejected_malformed + r.rejected_no_backend, 0);
    // The placement spread the model's traffic onto its replica set.
    let served: u64 = r.backends.values().map(|b| b.requests_total).sum();
    assert_eq!(served, requests);
}

/// Acceptance: killing one replica mid-load is invisible to clients —
/// every request still gets its (bit-exact) answer via failover, with
/// zero client-visible errors.
#[test]
fn killing_one_replica_under_load_loses_no_requests() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let dataset = Arc::new(bench.dataset(32, 5));
    let expected = Arc::new(direct_lls(bench, &dataset));

    let mut servers = [
        start_backend(bench),
        start_backend(bench),
        start_backend(bench),
    ];
    let refs: Vec<&SpnServer> = servers.iter().collect();
    let router = start_router(&refs, 2);
    let addr = router.local_addr();

    // Kill the model's *primary* replica, so post-kill requests that
    // still prefer it must fail over to the surviving replica.
    let victim = replicas(&refs, bench.name(), 2)[0];

    const WORKERS: usize = 2;
    const ROWS: usize = 4;
    // The load is open-ended, so the test does not depend on how fast
    // the cluster serves: workers keep sending until this many requests
    // *sent after the kill* have been answered.
    let after_kill_target: usize = if full_sweep() { 60 } else { 24 };
    let done = Arc::new(AtomicUsize::new(0));
    let killed = Arc::new(AtomicBool::new(false));
    let after_kill = Arc::new(AtomicUsize::new(0));
    let (answered, answers) = mpsc::channel();
    let mut threads = Vec::new();
    for w in 0..WORKERS {
        let dataset = Arc::clone(&dataset);
        let expected = Arc::clone(&expected);
        let (done, killed, after_kill) = (
            Arc::clone(&done),
            Arc::clone(&killed),
            Arc::clone(&after_kill),
        );
        let answered = answered.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut i = 0usize;
            while after_kill.load(Ordering::SeqCst) < after_kill_target {
                let sent_after_kill = killed.load(Ordering::SeqCst);
                let base = ((w + WORKERS * i) * ROWS) % (32 - ROWS);
                let mut block = Vec::with_capacity(ROWS * nf as usize);
                for r in 0..ROWS {
                    block.extend_from_slice(dataset.row(base + r));
                }
                let lls = client
                    .request(NipsBenchmark::Nips10.name())
                    .samples(&block, ROWS as u32, nf)
                    .send()
                    .unwrap_or_else(|e| panic!("request {i} of worker {w} failed: {e}"));
                for (r, ll) in lls.iter().enumerate() {
                    assert_eq!(
                        ll.to_bits(),
                        expected[base + r].to_bits(),
                        "failover changed an answer"
                    );
                }
                done.fetch_add(1, Ordering::SeqCst);
                // Nobody listens once the kill is under way.
                let _ = answered.send(());
                if sent_after_kill {
                    after_kill.fetch_add(1, Ordering::SeqCst);
                }
                i += 1;
            }
        }));
    }

    // Let the cluster answer 8 requests, then kill the primary mid-load.
    for _ in 0..8 {
        answers.recv_timeout(HANG).expect("load never got going");
    }
    drop(answers);
    servers[victim].shutdown();
    killed.store(true, Ordering::SeqCst);

    for t in threads {
        t.join().expect("worker saw a client-visible error");
    }

    let snap = router.telemetry_snapshot();
    let r = snap.router.expect("router telemetry present");
    assert_eq!(
        r.requests_total,
        done.load(Ordering::SeqCst) as u64,
        "every request was answered Ok"
    );
    assert!(
        r.failovers_total >= 1,
        "the kill should have forced at least one failover"
    );
    assert_eq!(r.rejected_no_backend, 0);
}

/// Satellite: malformed and truncated SPN1 frames at the *router*
/// boundary are answered with typed `Malformed` errors (or survived,
/// for a mid-frame disconnect) and never reach a backend.
#[test]
fn malformed_frames_at_the_router_boundary() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let backend = start_backend(bench);
    let router = start_router(&[&backend], 1);
    let addr = router.local_addr();

    fn header(magic: &[u8; 4], version: u8, opcode: u8, status: u8, len: u32) -> Vec<u8> {
        let mut h = Vec::with_capacity(12);
        h.extend_from_slice(magic);
        h.push(version);
        h.push(opcode);
        h.push(status);
        h.push(0);
        h.extend_from_slice(&len.to_le_bytes());
        h
    }

    // Header-level garbage: the stream is no longer frame-aligned, so
    // the router answers `Malformed` once and closes the connection.
    let cases: &[(&str, Vec<u8>)] = &[
        ("bad magic", header(b"NOPE", 1, 2, 0, 0)),
        ("bad version", header(&protocol::MAGIC, 99, 2, 0, 0)),
        ("unknown opcode", header(&protocol::MAGIC, 1, 200, 0, 0)),
        ("unknown status", header(&protocol::MAGIC, 1, 2, 200, 0)),
        (
            "oversized length",
            header(&protocol::MAGIC, 1, 2, 0, protocol::MAX_PAYLOAD + 1),
        ),
    ];
    for (what, bytes) in cases {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(bytes).unwrap();
        let reply = protocol::read_frame(&mut s)
            .unwrap_or_else(|e| panic!("{what}: no error frame, got {e:?}"));
        assert_eq!(reply.status, Status::Malformed, "{what}");
    }

    // Payload-level garbage inside a well-formed frame: typed error,
    // and the *same connection* stays usable.
    let mut sloppy = TcpStream::connect(addr).unwrap();
    let bogus = protocol::Frame::request(Opcode::Infer, vec![1, 2, 3]);
    protocol::write_frame(&mut sloppy, &bogus).unwrap();
    let reply = protocol::read_frame(&mut sloppy).unwrap();
    assert_eq!(reply.status, Status::Malformed);
    protocol::write_frame(&mut sloppy, &protocol::Frame::request(Opcode::Ping, vec![])).unwrap();
    let pong = protocol::read_frame(&mut sloppy).unwrap();
    assert_eq!(pong.status, Status::Ok);

    // Truncated frame: promise 1000 payload bytes, send 10, vanish.
    {
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(&header(&protocol::MAGIC, 1, Opcode::Infer as u8, 0, 1000))
            .unwrap();
        torn.write_all(&[0u8; 10]).unwrap();
    } // drop = disconnect

    // The router survived all of it and still routes real work…
    let mut client = Client::connect(addr).unwrap();
    let lls = client
        .request(bench.name())
        .samples(&vec![0u8; bench.num_vars()], 1, nf)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 1);

    // …the garbage was counted at the router…
    let r = router.telemetry_snapshot().router.unwrap();
    assert!(
        r.rejected_malformed > cases.len() as u64,
        "router counted {} malformed rejections",
        r.rejected_malformed
    );
    // …and none of it ever reached the backend.
    assert_eq!(backend.metrics_snapshot().rejected_malformed, 0);
}

/// A stand-in listening at a backend's address. It reports every
/// connection made to it, in order: `false` for one it closes at once
/// (so a probe of it fails), `true` for one it relays byte for byte to
/// the backend that [`StandIn::relay_to`] named. The prober dials its
/// backends one at a time, so when a dial is reported here, every
/// earlier probe's verdict is already recorded.
struct StandIn {
    addr: SocketAddr,
    relay: Arc<Mutex<Option<SocketAddr>>>,
    dials: mpsc::Receiver<bool>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl StandIn {
    fn start() -> StandIn {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let relay: Arc<Mutex<Option<SocketAddr>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (dialed, dials) = mpsc::channel();
        let (to, halt) = (Arc::clone(&relay), Arc::clone(&stop));
        let acceptor = thread::spawn(move || {
            let mut relays = Vec::new();
            for conn in listener.incoming() {
                if halt.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                let to = *to.lock().unwrap();
                if let Some(backend) = to {
                    relays.push(thread::spawn(move || {
                        let upstream = TcpStream::connect(backend).unwrap();
                        thread::scope(|s| {
                            s.spawn(|| pipe(&conn, &upstream));
                            pipe(&upstream, &conn);
                        });
                    }));
                }
                let _ = dialed.send(to.is_some());
            }
            for r in relays {
                r.join().expect("relay thread");
            }
        });
        StandIn {
            addr,
            relay,
            dials,
            stop,
            acceptor: Some(acceptor),
        }
    }

    /// Relay every later connection to `backend`.
    fn relay_to(&self, backend: SocketAddr) {
        *self.relay.lock().unwrap() = Some(backend);
    }

    /// The next connection made here: `true` if it was relayed.
    fn next_dial(&self) -> bool {
        self.dials
            .recv_timeout(HANG)
            .expect("the prober stopped dialing")
    }
}

impl Drop for StandIn {
    /// Stops accepting and joins every relay, which ends once both of
    /// its peers have closed.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Copy `from` to `to` until `from` ends, then end `to`'s write half.
fn pipe(mut from: &TcpStream, mut to: &TcpStream) {
    let _ = std::io::copy(&mut from, &mut to);
    let _ = to.shutdown(Shutdown::Write);
}

/// Health lifecycle: a dead backend is probed every interval, demoted to
/// `Down` (and routed around), then re-admitted automatically once it
/// comes back up. Each verdict is read at a probe, not on a clock.
#[test]
fn dead_backend_is_demoted_and_readmitted_when_it_returns() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let live = start_backend(bench);
    // The "flaky" backend's address, dark until the stand-in relays.
    let flaky = StandIn::start();
    let flaky_addr = flaky.addr.to_string();

    let policy = fast_health();
    let router = SpnRouter::start(RouterConfig {
        backends: vec![live.local_addr().to_string(), flaky_addr.clone()],
        replication: 2,
        health: policy.clone(),
        ..RouterConfig::default()
    })
    .unwrap();

    let state_of = |id: &str| -> String {
        router.telemetry_snapshot().router.unwrap().backends[id]
            .state
            .clone()
    };

    // (1) The dark backend is probed down: when the probe after the
    // `fail_threshold`-th failed one dials, it is `Down`.
    for _ in 0..policy.fail_threshold {
        assert!(!flaky.next_dial(), "a dark dial was relayed");
    }
    flaky.next_dial();
    assert_eq!(state_of(&flaky_addr), "down");

    // …while requests keep flowing through the live replica.
    let mut client = Client::connect(router.local_addr()).unwrap();
    for _ in 0..4 {
        let lls = client
            .request(bench.name())
            .samples(&vec![0u8; bench.num_vars()], 1, nf)
            .send()
            .unwrap();
        assert_eq!(lls.len(), 1);
    }

    // (2) The backend comes back at its advertised address and is
    // re-admitted after `recover_threshold` clean probes. The state is
    // read at each dial, when a probe verdict may have changed it; a
    // probe slower than its timeout only adds dials.
    let revived = start_backend(bench);
    flaky.relay_to(revived.local_addr());
    while state_of(&flaky_addr) != "up" {
        flaky.next_dial();
    }

    let r = router.telemetry_snapshot().router.unwrap();
    assert!(
        r.backends[&flaky_addr].health_transitions >= 2,
        "expected demotion + re-admission transitions"
    );
    assert!(r.health_transitions_total >= 2);

    // The revived backend actually serves when routed to.
    for _ in 0..4 {
        let lls = client
            .request(bench.name())
            .samples(&vec![0u8; bench.num_vars()], 1, nf)
            .send()
            .unwrap();
        assert_eq!(lls.len(), 1);
    }
    drop((client, router, revived));
}

/// Shutdown is an event: a router whose prober waits an hour before
/// each round, the first included, stops at once, through `shutdown`
/// and through drop — and its backend never hears from it.
#[test]
fn shutdown_does_not_wait_out_the_probe_interval() {
    let backend = TcpListener::bind("127.0.0.1:0").unwrap();
    let hour = Duration::from_secs(3600);
    let mut router = SpnRouter::start(RouterConfig {
        backends: vec![backend.local_addr().unwrap().to_string()],
        health: HealthPolicy {
            interval: hour,
            ..fast_health()
        },
        read_poll: hour,
        ..RouterConfig::default()
    })
    .unwrap();

    let (stopped, stops) = mpsc::channel();
    let stopper = thread::spawn(move || {
        router.shutdown();
        stopped.send("shutdown").unwrap();
        drop(router);
        stopped.send("drop").unwrap();
    });
    for step in ["shutdown", "drop"] {
        let done = stops.recv_timeout(HANG);
        assert_eq!(done, Ok(step), "{step} waited out the probe interval");
    }
    stopper.join().unwrap();
    // Every dial the router made has completed into the backlog.
    backend.set_nonblocking(true).unwrap();
    let dialed = backend.accept().map(|_| ());
    assert!(
        matches!(&dialed, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the prober dialed before its first interval: {dialed:?}"
    );
}

/// A cold router probes nothing before its first interval. One request
/// through a router whose prober waits an hour reaches the model's
/// primary replica over one connection, the forward's own (pooled
/// after), and the other replica accepts none.
#[test]
fn a_cold_router_probes_nothing_before_its_first_interval() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars();
    let backends = [start_backend(bench), start_backend(bench)];
    let router = SpnRouter::start(RouterConfig {
        backends: backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect(),
        replication: 2,
        health: HealthPolicy {
            interval: Duration::from_secs(3600),
            ..fast_health()
        },
        ..RouterConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    let lls = client
        .request(bench.name())
        .samples(&vec![0u8; nf], 1, nf as u32)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 1);

    // Accepted before it was read from, so counted before the reply.
    let accepted = |i: usize| {
        let reactor = backends[i].telemetry_snapshot().reactor.unwrap();
        reactor.accepted_total
    };
    let replicas = replicas(&backends.iter().collect::<Vec<_>>(), bench.name(), 2);
    assert_eq!(accepted(replicas[0]), 1, "the primary");
    assert_eq!(accepted(replicas[1]), 0, "the other replica was probed");
}

/// A backend that is dead at start costs the first request one
/// failover, not an error: it is tried first (it starts `Up`), found
/// closed, and the live replica answers, bit for bit. The prober then
/// marks it `Down` within `fail_threshold` rounds, read at the dials
/// its stand-in sees. A probe verdict could route around it before
/// the request only after two rounds, two intervals after start; the
/// request is sent at once.
#[test]
fn a_backend_dead_at_start_costs_the_first_request_one_failover() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars();
    // One scheduler under many names, so some name is placed on the
    // dead backend first.
    let names: Vec<String> = (0..64).map(|i| format!("m{i:02}")).collect();
    let scheduler = make_scheduler(bench);
    let specs = names
        .iter()
        .map(|n| ModelSpec::new(n, Arc::clone(&scheduler), nf as u32, 256))
        .collect();
    let live = SpnServer::serve(ServerConfig::default(), specs).unwrap();
    let dead = StandIn::start();
    let dead_addr = dead.addr.to_string();
    let policy = HealthPolicy {
        interval: Duration::from_millis(250),
        ..fast_health()
    };
    let router = SpnRouter::start(RouterConfig {
        backends: vec![live.local_addr().to_string(), dead_addr.clone()],
        replication: 2,
        health: policy.clone(),
        ..RouterConfig::default()
    })
    .unwrap();
    let ring = HashRing::new(&[live.local_addr().to_string(), dead_addr.clone()]);
    let model = names.iter().find(|n| ring.replicas(n, 2)[0] == 1).unwrap();

    let row = bench.dataset(1, 3);
    let mut client = Client::connect(router.local_addr()).unwrap();
    let lls = client
        .request(model)
        .samples(row.raw(), 1, nf as u32)
        .send()
        .unwrap();
    assert_eq!(lls[0].to_bits(), direct_lls(bench, &row)[0].to_bits());
    let r = router.telemetry_snapshot().router.unwrap();
    assert_eq!((r.requests_total, r.failovers_total), (1, 1));

    // The forward's dial and `fail_threshold` failed probes, each
    // verdict recorded by the time the next dial is reported.
    for _ in 0..=policy.fail_threshold {
        assert!(!dead.next_dial(), "a dark dial was relayed");
    }
    dead.next_dial();
    let state = &router.telemetry_snapshot().router.unwrap().backends[&dead_addr].state;
    assert_eq!(state, "down");
    drop((client, router));
}

/// The router's `Stats` opcode returns the versioned telemetry
/// document with a populated `router` section — through both the raw
/// JSON and the typed client path.
#[test]
fn router_stats_over_the_wire() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let b0 = start_backend(bench);
    let b1 = start_backend(bench);
    let router = start_router(&[&b0, &b1], 2);

    let mut client = Client::connect(router.local_addr()).unwrap();
    client
        .request(bench.name())
        .samples(&vec![0u8; 3 * bench.num_vars()], 3, nf)
        .send()
        .unwrap();

    let json = client.stats().unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).expect("stats JSON parses");
    assert_eq!(v["schema"], 6u64);
    assert!(v["server"].is_null(), "serving section lives on backends");
    assert_eq!(v["router"]["requests_total"], 1u64);
    assert_eq!(v["router"]["rejected_no_backend"], 0u64);
    assert_eq!(
        v["router"]["backends"].as_object_slice().map(|s| s.len()),
        Some(2)
    );
    assert!(v["router"]["e2e_seconds"]["count"].as_u64() == Some(1));

    // Typed path: the same document through `TelemetrySnapshot`.
    let snap =
        serde_json::from_str::<spn_telemetry::TelemetrySnapshot>(&client.stats().unwrap()).unwrap();
    let r = snap.router.expect("typed router section");
    assert_eq!(r.requests_total, 1);
    assert_eq!(r.backends.len(), 2);
    for b in r.backends.values() {
        assert_eq!(b.state, "up");
    }
}

/// Scaling shape, 1 → 4 backends: the study's 16 model shards at
/// replication 2, one closed-loop client per shard, a fixed seeded
/// request count each. What must grow with N is how thinly the router
/// spreads them, `total / busiest backend's requests_total` (N when
/// perfectly even), read from the router's own telemetry. Backends are
/// 1-PE paced devices so that in-flight counts — what least-loaded
/// picking looks at — reflect load rather than host scheduling luck;
/// the assertion is on share, not seconds. A router that sends
/// everything to one backend reads 1.0 at every N and fails. Replies
/// stay bit-identical to the direct runtime throughout.
#[test]
fn traffic_share_scales_with_the_backend_count() {
    const SHARDS: usize = 16;
    const REQUESTS: usize = 8;
    const ROWS: usize = 16;
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars();
    let dataset = bench.dataset(SHARDS * REQUESTS * ROWS, 7);
    let expected = direct_lls(bench, &dataset);
    let names: Vec<String> = (0..SHARDS).map(|i| format!("shard-{i:02}")).collect();

    let paced_backend = || {
        let device = VirtualDevice::new(
            DatapathProgram::compile(&bench.build_spn()),
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            1,
            64 << 20,
        )
        .with_pacing(Duration::from_micros(50));
        let config = RuntimeConfig::builder().block_samples(512).build().unwrap();
        let scheduler = Arc::new(Scheduler::new(Arc::new(device), config).unwrap());
        let specs = names
            .iter()
            .map(|name| ModelSpec::new(name, Arc::clone(&scheduler), nf as u32, 256))
            .collect();
        SpnServer::serve(ServerConfig::default(), specs).unwrap()
    };

    let mut series = Vec::new();
    for n in [1usize, 2, 4] {
        let backends: Vec<SpnServer> = (0..n).map(|_| paced_backend()).collect();
        let router = start_router(&backends.iter().collect::<Vec<_>>(), 2);
        let addr = router.local_addr();
        std::thread::scope(|s| {
            for (shard, name) in names.iter().enumerate() {
                let (dataset, expected) = (&dataset, &expected);
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for r in 0..REQUESTS {
                        let base = (shard * REQUESTS + r) * ROWS;
                        let block = &dataset.raw()[base * nf..(base + ROWS) * nf];
                        let lls = client
                            .request(name)
                            .samples(block, ROWS as u32, nf as u32)
                            .send()
                            .unwrap();
                        for (ll, want) in lls.iter().zip(&expected[base..]) {
                            assert_eq!(ll.to_bits(), want.to_bits(), "{name} request {r}");
                        }
                    }
                });
            }
        });

        let r = router.telemetry_snapshot().router.unwrap();
        assert_eq!(r.requests_total, (SHARDS * REQUESTS) as u64);
        assert_eq!(
            r.rejected_malformed + r.rejected_no_backend + r.rejected_by_backend,
            0
        );
        let busiest = r.backends.values().map(|b| b.requests_total).max().unwrap();
        series.push((n, r.requests_total as f64 / busiest as f64));
    }
    system_tests::assert_scales("router traffic share", &series, 0.625);
    assert!(series[1].1 >= 1.6, "2 backends share unevenly: {series:?}");
}
