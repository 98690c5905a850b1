//! The router proper: an SPN1 [`Service`] that fans `Infer` requests
//! over the backend pool.
//!
//! Both sides run on `spn-server`'s reactor — the router owns no accept
//! loop, no frame loop and no shutdown latch, and its one thread of its
//! own is the health prober, whose first round waits one interval. The
//! loop thread that reads a client's request also forwards it: decode →
//! pick replicas off the ring → call a pooled or fresh backend
//! connection through the loop's [`Upstream`] → classify the reply →
//! try the next candidate or answer the client. Nothing there blocks on a backend, so a stalled backend
//! stalls only the requests waiting on it. `Ping`, `Stats` and
//! `Shutdown` are answered by the front-end — `Stats` returns the
//! router's own telemetry document and `Shutdown` drains the router
//! without touching the backends; a draining loop keeps driving
//! forwarded requests until they are answered or time out.
//!
//! Failover contract (inference is pure, so a retry can never
//! double-apply): an attempt moves to the next replica on connect
//! failure, a closed or timed-out connection, or a backend that
//! answers `ShuttingDown`/`ServerBusy`. Every other backend status is
//! a *typed verdict about the request itself* (unknown model, shape
//! mismatch, …) and is passed through to the client unchanged. A
//! request fails only when every replica is exhausted.

use crate::health::HealthPolicy;
use crate::metrics::RouterMetrics;
use crate::pool::{Backend, InflightGuard};
use crate::ring::HashRing;
use spn_server::protocol::{Frame, InferRequest, Opcode, Status};
use spn_server::reactor::{self, ReactorConfig, ReactorHandle, Target, Upstream};
use spn_server::{Client, ClientError, Frontend, InferReply, ReactorMetrics, Service};
use spn_telemetry::{
    LiveSpan, SpanCtx, SpanKind, TelemetrySnapshot, TraceCollector, TELEMETRY_SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::rc::Rc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks a free port.
    pub addr: String,
    /// Backend addresses (`host:port`), each a running `spn-server`.
    pub backends: Vec<String>,
    /// Replicas per model (K): each model is placed on the first K
    /// distinct backends met clockwise on the ring.
    pub replication: usize,
    /// Active health probing.
    pub health: HealthPolicy,
    /// In-flight request bound per backend; attempts past it skip to
    /// the next replica.
    pub max_inflight_per_backend: u64,
    /// TCP dial budget per forwarding attempt.
    pub connect_timeout: Duration,
    /// Budget from a connected backend socket to the reply's last byte
    /// (`None` = no bound). A backend that overruns is treated as
    /// failed and the request fails over.
    pub rpc_timeout: Option<Duration>,
    /// Drop pooled backend connections idle longer than this
    /// (`None` = pool forever). Backends reap their side of idle
    /// sockets — notably the reactor engine's idle timeout — so the
    /// router expiring first turns would-be `ConnectionClosed`
    /// retries into ordinary fresh dials.
    pub pool_idle_ttl: Option<Duration>,
    /// Unused: the health prober waits its interval on the shutdown
    /// latch, so nothing polls. Kept so that callers that set it still
    /// build.
    pub read_poll: Duration,
    /// Live span collector (`None` = tracing off); `route-pick` and
    /// `backend-rpc` spans land on the router track.
    pub trace: Option<Arc<TraceCollector>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            replication: 2,
            health: HealthPolicy::default(),
            max_inflight_per_backend: 1024,
            connect_timeout: Duration::from_millis(500),
            rpc_timeout: Some(Duration::from_secs(30)),
            pool_idle_ttl: Some(Duration::from_secs(30)),
            read_poll: Duration::from_millis(25),
            trace: None,
        }
    }
}

/// Router construction failure.
#[derive(Debug)]
pub enum RouterError {
    /// Binding or configuring the listener failed.
    Io(io::Error),
    /// The backend list is unusable (empty, duplicate, unresolvable).
    Config(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "i/o error: {e}"),
            RouterError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}
impl std::error::Error for RouterError {}
impl From<io::Error> for RouterError {
    fn from(e: io::Error) -> Self {
        RouterError::Io(e)
    }
}

/// Placement, the backend table, and the configuration that sets the
/// forwarding limits.
struct Router {
    ring: HashRing,
    backends: Vec<Arc<Backend>>,
    metrics: RouterMetrics,
    config: RouterConfig,
}

/// The router behind the front-end. Its state sits behind an `Arc` so
/// that a forwarded request's continuation can hold it between calls.
struct RouterService(Arc<Router>);

type RouterFront = Frontend<RouterService>;

/// A running cluster front-end. Dropping it drains and stops it
/// (the backends are left running).
pub struct SpnRouter {
    front: Arc<RouterFront>,
    reactor: ReactorHandle,
    health_thread: Option<thread::JoinHandle<()>>,
}

impl SpnRouter {
    /// Resolve the backends, build the ring, bind and start serving.
    pub fn start(config: RouterConfig) -> Result<SpnRouter, RouterError> {
        if config.backends.is_empty() {
            return Err(RouterError::Config("no backends configured".into()));
        }
        let mut backends = Vec::with_capacity(config.backends.len());
        for id in &config.backends {
            if backends.iter().any(|b: &Arc<Backend>| &b.id == id) {
                return Err(RouterError::Config(format!("backend '{id}' listed twice")));
            }
            backends.push(Arc::new(
                Backend::resolve(id, &config.health).map_err(RouterError::Config)?,
            ));
        }
        if config.replication == 0 {
            return Err(RouterError::Config("replication must be at least 1".into()));
        }
        let ring = HashRing::new(&config.backends);

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let router = Router {
            ring,
            backends,
            metrics: RouterMetrics::new(),
            config,
        };
        // The front-end's own trace hook records server-track
        // `ReplyWritten` spans; the router's spans are route-pick and
        // backend-rpc, recorded by the service.
        let service = RouterService(Arc::new(router));
        let front = Arc::new(Frontend::new(service, local_addr, None));
        let reactor = reactor::start(listener, Arc::clone(&front), ReactorConfig::default())?;

        // A failed spawn drops the reactor, which stops its loops.
        let health_front = Arc::clone(&front);
        let health_thread = thread::Builder::new()
            .name("spn-route-health".into())
            .spawn(move || health_loop(health_front))?;

        Ok(SpnRouter {
            front,
            reactor,
            health_thread: Some(health_thread),
        })
    }

    fn router(&self) -> &Router {
        &self.front.service.0
    }

    /// The address the router actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The backend entries, in configuration order (tests and the CLI
    /// status line read states and counters off these).
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.router().backends
    }

    /// The router's telemetry document — what the `Stats` opcode
    /// returns on the wire: no serving/model sections (those live on
    /// the backends), a populated `router` section.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.router().telemetry_snapshot()
    }

    /// Block until shutdown is requested (a client's `Shutdown` frame
    /// or a concurrent [`SpnRouter::shutdown`]).
    pub fn wait_for_shutdown(&self) {
        self.front.wait_for_shutdown(None);
    }

    /// Drain and stop the router: answer every forwarded request, then
    /// join every thread. Backends are not contacted. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        self.front.request_shutdown();
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
        self.reactor.finish();
    }
}

impl Drop for SpnRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Active prober: ping every backend each interval; a probe is a
/// fresh dial + ping, both under the probe timeout, so a dead host
/// costs one bounded attempt. Probes block, which is why the prober
/// has a thread of its own. When a backend transitions to `Down` its
/// pooled connections are retired — recovery then starts from fresh
/// dials instead of replaying stale sockets. Before every round, the
/// first included, it waits one interval on the shutdown latch, so
/// shutdown ends the wait at once; until the first, a backend is `Up`
/// unless a failed forward demoted it.
fn health_loop(front: Arc<RouterFront>) {
    let router = &front.service.0;
    let policy = &router.config.health;
    while !front.wait_for_shutdown(Some(policy.interval)) {
        for backend in &router.backends {
            if front.is_shutting_down() {
                return;
            }
            let was_routable = backend.health.is_routable();
            match probe(backend.addr, policy.timeout) {
                Ok(()) => backend.health.record_success(),
                Err(_) => {
                    backend.health.record_failure();
                    if was_routable && !backend.health.is_routable() {
                        backend.drain_pool();
                    }
                }
            }
        }
    }
}

/// One probe: a fresh dial and a `Ping`, each bounded by `timeout`.
fn probe(addr: SocketAddr, timeout: Duration) -> Result<(), ClientError> {
    let mut client = Client::connect_timeout(addr, timeout)?;
    client.set_io_timeout(Some(timeout))?;
    client.ping()
}

impl Service for RouterService {
    fn stats_json(&self, _reactor: &ReactorMetrics) -> String {
        self.0.telemetry_snapshot().to_json()
    }

    fn rejected(&self, status: Status) {
        // The router's telemetry counts only the rejections it can
        // attribute to the request itself.
        if status == Status::Malformed {
            self.0.metrics.rejected_malformed();
        }
    }

    /// Decode and place here, then forward from this loop: the response
    /// arrives through `done`, on this loop's thread.
    fn infer<F>(&self, payload: Vec<u8>, up: &mut Upstream<'_>, done: F) -> Option<InferReply>
    where
        F: FnOnce(InferReply) + Send + 'static,
    {
        let t0 = Instant::now();
        // Decode for validation and the model name; the original payload
        // bytes are forwarded verbatim, so the router cannot corrupt a
        // request it re-encodes.
        let req = match InferRequest::decode(&payload) {
            Ok(r) => r,
            Err(m) => {
                self.0.metrics.rejected_malformed();
                let malformed = Frame::error(Opcode::Infer, Status::Malformed, &m);
                return Some((malformed, SpanCtx::NONE));
            }
        };
        let forward = Forward {
            candidates: self.0.candidates(&req.model, req.ctx),
            router: Arc::clone(&self.0),
            payload: Rc::new(payload),
            model: req.model,
            ctx: req.ctx,
            t0,
            next: 0,
            attempts_failed: 0,
            done,
        };
        forward.next(up);
        None
    }
}

impl Router {
    /// Replica choice: the ring's ordered set, routable replicas first
    /// (least-loaded first among them), `Down` replicas kept as a last
    /// resort so a stale health verdict cannot fail a servable request.
    fn candidates(&self, model: &str, ctx: SpanCtx) -> Vec<usize> {
        let t_pick = Instant::now();
        let replica_set = self.ring.replicas(model, self.config.replication);
        let mut candidates: Vec<usize> = replica_set
            .iter()
            .copied()
            .filter(|&i| self.backends[i].health.is_routable())
            .collect();
        candidates.sort_by_key(|&i| self.backends[i].inflight());
        for &i in &replica_set {
            if !candidates.contains(&i) {
                candidates.push(i);
            }
        }
        if let Some(trace) = &self.config.trace {
            let (tid, when) = (LiveSpan::NO_THREAD, t_pick..Instant::now());
            let n = candidates.len() as u64;
            trace.record(SpanKind::RoutePick, ctx, 0, tid, n, when);
        }
        candidates
    }

    /// The router's telemetry document: schema + a populated `router`
    /// section; the serving/model sections belong to the backends.
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA_VERSION,
            server: None,
            models: BTreeMap::new(),
            plan: None,
            router: Some(self.metrics.snapshot(&self.backends)),
            reactor: None,
        }
    }
}

/// One forwarded request between attempts. Each backend call's
/// continuation owns it, so every attempt runs on the loop thread
/// that read the request.
struct Forward<F> {
    router: Arc<Router>,
    payload: Rc<Vec<u8>>,
    model: String,
    ctx: SpanCtx,
    t0: Instant,
    candidates: Vec<usize>,
    next: usize,
    attempts_failed: u64,
    done: F,
}

impl<F: FnOnce(InferReply) + Send + 'static> Forward<F> {
    /// Call the next candidate that has an in-flight slot free, or
    /// answer `ServerBusy` once every replica is exhausted.
    fn next(mut self, up: &mut Upstream<'_>) {
        while let Some(&idx) = self.candidates.get(self.next) {
            self.next += 1;
            let backend = &self.router.backends[idx];
            let config = &self.router.config;
            let Some(slot) = backend.reserve(config.max_inflight_per_backend) else {
                // At capacity is not a health event; just move on.
                self.attempts_failed += 1;
                continue;
            };
            let to = Target {
                addr: backend.addr,
                generation: backend.pool_generation(),
                connect_timeout: config.connect_timeout,
                rpc_timeout: config.rpc_timeout,
                pool_ttl: config.pool_idle_ttl,
            };
            let (payload, t_rpc) = (Rc::clone(&self.payload), Instant::now());
            return up.infer(to, &payload, move |reply, up| {
                self.answered(idx, slot, t_rpc, reply, up)
            });
        }
        let metrics = &self.router.metrics;
        metrics.rejected_no_backend();
        metrics.e2e_seconds.record_duration(self.t0.elapsed());
        let msg = format!(
            "no available replica for model '{}' ({} attempt(s) failed); retry later",
            self.model, self.attempts_failed
        );
        let busy = Frame::error(Opcode::Infer, Status::ServerBusy, &msg);
        (self.done)((busy, self.ctx));
    }

    /// Classify backend `idx`'s answer: done, passed through, or on to
    /// the next replica.
    fn answered(
        mut self,
        idx: usize,
        slot: InflightGuard,
        t_rpc: Instant,
        reply: io::Result<Frame>,
        up: &mut Upstream<'_>,
    ) {
        let router = Arc::clone(&self.router);
        if let Some(trace) = &router.config.trace {
            let (tid, when) = (LiveSpan::NO_THREAD, t_rpc..Instant::now());
            trace.record(SpanKind::BackendRpc, self.ctx, 0, tid, idx as u64, when);
        }
        let backend = &router.backends[idx];
        let answer = match reply {
            Ok(frame) if frame.status == Status::Ok => {
                backend.record_request();
                backend.health.record_success();
                router.metrics.request_ok(self.attempts_failed > 0);
                Some(frame)
            }
            // Full — its replicas can still serve this request.
            Ok(frame) if frame.status == Status::ServerBusy => {
                backend.record_failure();
                None
            }
            // A verdict about the request itself: retrying elsewhere
            // would return the same answer (placement is per-model,
            // every replica serves the same model set).
            Ok(frame) if frame.status != Status::ShuttingDown => {
                router.metrics.rejected_by_backend();
                Some(frame)
            }
            // Going away, unreachable, silent or garbled.
            _ => {
                backend.record_failure();
                backend.health.record_failure();
                None
            }
        };
        drop(slot);
        match answer {
            Some(frame) => {
                router
                    .metrics
                    .e2e_seconds
                    .record_duration(self.t0.elapsed());
                (self.done)((frame, self.ctx));
            }
            None => {
                self.attempts_failed += 1;
                self.next(up);
            }
        }
    }
}

#[cfg(test)]
impl SpnRouter {
    /// The ordered replica set the ring assigns `model`.
    fn replicas(&self, model: &str) -> Vec<usize> {
        let router = self.router();
        router.ring.replicas(model, router.config.replication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_arith::AnyFormat;
    use spn_core::{Dataset, NipsBenchmark};
    use spn_hw::{AcceleratorConfig, DatapathProgram};
    use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
    use spn_server::protocol::{decode_results, read_frame, write_frame};
    use spn_server::{ModelSpec, ServerConfig, SpnServer};
    use std::io::Read;
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn empty_backend_list_is_a_config_error() {
        assert!(matches!(
            SpnRouter::start(RouterConfig::default()),
            Err(RouterError::Config(_))
        ));
    }

    #[test]
    fn duplicate_backends_are_a_config_error() {
        let cfg = RouterConfig {
            backends: vec!["127.0.0.1:9000".into(), "127.0.0.1:9000".into()],
            ..RouterConfig::default()
        };
        assert!(matches!(SpnRouter::start(cfg), Err(RouterError::Config(_))));
    }

    #[test]
    fn zero_replication_is_a_config_error() {
        let cfg = RouterConfig {
            backends: vec!["127.0.0.1:9000".into()],
            replication: 0,
            ..RouterConfig::default()
        };
        assert!(matches!(SpnRouter::start(cfg), Err(RouterError::Config(_))));
    }

    #[test]
    fn router_starts_and_reports_telemetry_without_backends_up() {
        // Backends need not be live for the router to start; health
        // probing will mark them down.
        let mut router = SpnRouter::start(RouterConfig {
            backends: vec!["127.0.0.1:9000".into(), "127.0.0.1:9001".into()],
            ..RouterConfig::default()
        })
        .unwrap();
        let snap = router.telemetry_snapshot();
        let r = snap.router.expect("router section present");
        assert_eq!(r.backends.len(), 2);
        assert_eq!(r.requests_total, 0);
        assert!(snap.server.is_none());
        // Replica sets are deterministic and within bounds.
        let reps = router.replicas("NIPS10");
        assert_eq!(reps, router.replicas("NIPS10"));
        assert_eq!(reps.len(), 2);
        router.shutdown();
    }

    const BENCH: NipsBenchmark = NipsBenchmark::Nips10;

    fn device() -> VirtualDevice {
        VirtualDevice::new(
            DatapathProgram::compile(&BENCH.build_spn()),
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            1,
            64 << 20,
        )
    }

    /// A backend serving NIPS10 under each of `names`.
    fn backend(names: &[String], device: VirtualDevice) -> SpnServer {
        let scheduler =
            Arc::new(Scheduler::new(Arc::new(device), RuntimeConfig::default()).unwrap());
        let nf = BENCH.num_vars() as u32;
        let specs = names
            .iter()
            .map(|name| ModelSpec::new(name, Arc::clone(&scheduler), nf, 256))
            .collect();
        SpnServer::serve(ServerConfig::default(), specs).unwrap()
    }

    /// The one-row `dataset`'s log-likelihood, straight from the runtime.
    fn direct(dataset: &Dataset) -> u64 {
        let scheduler = Scheduler::new(Arc::new(device()), RuntimeConfig::default()).unwrap();
        let data = Arc::new(dataset.clone());
        let handle = scheduler.submit_blocking(data, JobOptions::default());
        handle.unwrap().wait().unwrap()[0].ln().to_bits()
    }

    /// A backend that accepts and never answers stalls only the
    /// requests routed to it, and a client on the same loop keeps being
    /// served. Shown by the order of events, not by how long anything
    /// took: each stall ends only when this test drops the call it
    /// holds, which it does only after ten requests beside the stall have
    /// been answered, and only while the router is still waiting on the
    /// call. The stalled requests then fail over to a live backend's
    /// answer, bit for bit.
    #[test]
    fn a_stalled_backend_stalls_only_its_own_requests() {
        // The router's own way out of a stall. Only a router that holds
        // the requests beside the stall until it gives up ever takes it,
        // and the test then sees the call closed under it.
        const RPC_TIMEOUT: Duration = Duration::from_secs(10);
        const STALLS: usize = 2;
        const SERVED_PER_STALL: usize = 10;
        let names: Vec<String> = (0..64).map(|i| format!("m{i:02}")).collect();
        let live = [backend(&names, device()), backend(&names, device())];
        // The kernel completes each handshake into the listen backlog,
        // so dials succeed; the test accepts them, reads and holds.
        let black_hole = TcpListener::bind("127.0.0.1:0").unwrap();
        let hole = black_hole.local_addr().unwrap().to_string();
        let mut router = SpnRouter::start(RouterConfig {
            backends: vec![
                live[0].local_addr().to_string(),
                live[1].local_addr().to_string(),
                hole.clone(),
            ],
            // Probe rarely, so the black hole stays routable.
            health: HealthPolicy {
                interval: Duration::from_secs(60),
                ..HealthPolicy::default()
            },
            rpc_timeout: Some(RPC_TIMEOUT),
            ..RouterConfig::default()
        })
        .unwrap();
        // One model placed on the black hole first, one placed away
        // from it (least-loaded picking could otherwise send the second
        // there too, whenever the black hole holds no request).
        let model = |placed: &dyn Fn(&[usize]) -> bool| {
            let name = names.iter().find(|n| placed(&router.replicas(n)));
            name.expect("64 models cover every placement").clone()
        };
        let stalled_model = model(&|r| r[0] == 2);
        let fast_model = model(&|r| !r.contains(&2));

        let row = BENCH.dataset(1, 3);
        let want = direct(&row);
        let infer = |client: &mut Client, model: &str| {
            let nf = BENCH.num_vars() as u32;
            let lls = client
                .request(model)
                .samples(row.raw(), 1, nf)
                .send()
                .unwrap();
            assert_eq!(lls[0].to_bits(), want, "{model}");
        };
        // Connections are dealt round-robin over the two loops: the
        // first and the third share one.
        let mut stalled = Client::connect(router.local_addr()).unwrap();
        let _other_loop = Client::connect(router.local_addr()).unwrap();
        let mut fast = Client::connect(router.local_addr()).unwrap();
        let (black_hole, released) = (&black_hole, &AtomicUsize::new(0));
        let (held_tx, held) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        thread::scope(|s| {
            // The black hole: take each stalled call as the router dials
            // it and hold it until the requests beside it are served.
            s.spawn(move || {
                let mut probes = Vec::new();
                for _ in 0..STALLS {
                    let mut call = loop {
                        let (mut conn, _) = black_hole.accept().unwrap();
                        match read_frame(&mut conn).unwrap().opcode {
                            Opcode::Infer => break conn,
                            // A health probe: never answered either.
                            _ => probes.push(conn),
                        }
                    };
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    call.set_nonblocking(true).unwrap();
                    let open = matches!(call.read(&mut [0]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
                    assert!(open, "the router gave up on the stalled call first");
                    released.fetch_add(1, Ordering::SeqCst);
                }
            });
            let stalled = s.spawn(|| {
                for n in 1..=STALLS {
                    infer(&mut stalled, &stalled_model);
                    let ended = released.load(Ordering::SeqCst);
                    assert!(ended >= n, "stall {n} answered while its call was held");
                }
            });
            for _ in 0..STALLS {
                held.recv().unwrap();
                for _ in 0..SERVED_PER_STALL {
                    infer(&mut fast, &fast_model);
                }
                release.send(()).unwrap();
            }
            stalled.join().unwrap();
        });
        let r = router.telemetry_snapshot().router.unwrap();
        assert_eq!(r.failovers_total, STALLS as u64);
        assert_eq!(r.backends[&hole].requests_total, 0);
        router.shutdown();
    }

    /// `shutdown` drains: a request forwarded to a paced backend still
    /// gets exactly one `Ok` reply, written before `shutdown` returns,
    /// while an `Infer` that arrives after the latch is refused.
    #[test]
    fn shutdown_drains_a_forwarded_request() {
        let name = BENCH.name().to_string();
        let paced = backend(
            std::slice::from_ref(&name),
            device().with_pacing(Duration::from_millis(400)),
        );
        let mut router = SpnRouter::start(RouterConfig {
            backends: vec![paced.local_addr().to_string()],
            replication: 1,
            ..RouterConfig::default()
        })
        .unwrap();
        let row = BENCH.dataset(1, 5);
        let request = InferRequest {
            model: name.clone(),
            deadline_ms: 0,
            num_samples: 1,
            num_features: BENCH.num_vars() as u32,
            data: row.raw().to_vec(),
            trace: false,
            ctx: SpanCtx::NONE,
        };
        let mut pending = TcpStream::connect(router.local_addr()).unwrap();
        let mut late = Client::connect(router.local_addr()).unwrap();
        write_frame(
            &mut pending,
            &Frame::request(Opcode::Infer, request.encode()),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while paced.metrics_snapshot().requests_total == 0 {
            assert!(
                Instant::now() < deadline,
                "the request never reached the backend"
            );
            thread::sleep(Duration::from_millis(1));
        }

        let mut admin = Client::connect(router.local_addr()).unwrap();
        admin.shutdown_server().unwrap();
        let refused = late
            .request(&name)
            .samples(row.raw(), 1, request.num_features)
            .send();
        match refused {
            Err(ClientError::Rejected { status, .. }) => assert_eq!(status, Status::ShuttingDown),
            Err(_) => {} // A close is a refusal too.
            Ok(_) => panic!("inference accepted after shutdown"),
        }

        router.shutdown();
        // Already written when `shutdown` returned: no waiting here.
        pending
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let reply = read_frame(&mut pending).expect("answered before shutdown returned");
        assert_eq!(reply.status, Status::Ok);
        let lls = decode_results(&reply.payload).unwrap();
        assert_eq!(lls[0].to_bits(), direct(&row));
        let mut rest = Vec::new();
        pending.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "a second reply: {rest:?}");
    }
}
