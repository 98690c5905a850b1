//! The TCP server: model registry, admission control and graceful
//! drain, served through the shared SPN1 [`Frontend`].
//!
//! The server is one [`Service`] — `Stats` is the unified telemetry
//! document, `Infer` is decode → validate → admission control →
//! enqueue with the model's batcher — behind the one front-end, whose
//! bytes the epoll [`crate::reactor`] moves: one accept thread hands
//! sockets to a small fixed pool of event-loop threads
//! ([`ServerConfig::serving`]), each multiplexing thousands of
//! connections.
//!
//! There is one **batcher worker** per registered model (see
//! [`crate::batcher`]), and a connection handles one request at a
//! time. Faults are *contained per connection*: a malformed payload
//! earns an error frame on that socket only; a torn frame or
//! mid-request disconnect kills that connection only.
//!
//! Shutdown ([`SpnServer::shutdown`], the `Shutdown` opcode, or drop)
//! is a drain, not an abort: the accept loop stops, new `Infer`
//! requests are refused with [`Status::ShuttingDown`], every
//! already-admitted request still gets its reply (the batchers flush
//! their queues through the scheduler), and only then are the threads
//! joined.

use crate::batcher::{BatchPolicy, Batcher, Reply};
use crate::frontend::{Frontend, InferReply, Service};
use crate::metrics::{ReactorMetrics, ServerMetrics, ServerMetricsSnapshot};
use crate::protocol::{Frame, InferRequest, Opcode, Status};
use crate::reactor::{self, ReactorConfig, ReactorHandle, Upstream};
use spn_core::out_of_domain;
use spn_runtime::{ExecBackend, JobOptions, PlanCache, Scheduler};
use spn_telemetry::{
    BatcherTelemetry, ModelTelemetry, PlanTelemetry, ShardTelemetry, SpanCtx, TelemetrySnapshot,
    TraceCollector, TELEMETRY_SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the batchers are fronted. The epoll reactor is the one engine
/// left; the enum stays because callers name it.
#[derive(Debug, Clone)]
pub enum ServingMode {
    /// Nonblocking epoll reactor serving.
    Reactor(ReactorConfig),
}

impl Default for ServingMode {
    fn default() -> Self {
        ServingMode::Reactor(ReactorConfig::default())
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`SpnServer::local_addr`]).
    pub addr: String,
    /// Batching policy applied to every registered model.
    pub batch: BatchPolicy,
    /// Admission control: refuse `Infer` requests that would push the
    /// number of admitted-but-unanswered samples past this bound.
    pub max_inflight_samples: u64,
    /// Unused: the reactor is readiness-driven, so nothing polls. Kept
    /// so that callers that set it still build.
    pub read_poll: Duration,
    /// Live span collector shared with the models' schedulers
    /// (`None` = tracing off). When set, the front-end records
    /// `ReplyWritten` spans into it; pass the *same* collector to
    /// [`spn_runtime::Scheduler::with_trace`] so server and device
    /// spans land on one correlated timeline.
    pub trace: Option<Arc<TraceCollector>>,
    /// The reactor's tuning.
    pub serving: ServingMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch: BatchPolicy::default(),
            max_inflight_samples: 1 << 20,
            read_poll: Duration::from_millis(25),
            trace: None,
            serving: ServingMode::default(),
        }
    }
}

/// One model made servable: a name on the wire, the scheduler that
/// runs it, and the input shape requests must match.
pub struct ModelSpec {
    /// Wire name clients address the model by.
    pub name: String,
    /// Scheduler driving the (virtual) accelerator for this model.
    pub scheduler: Arc<Scheduler>,
    /// Features per sample the model expects.
    pub num_features: u32,
    /// Feature domain (values `0..domain`); metadata for the dataset.
    pub domain: usize,
    /// Job options for batches of this model (retry budget etc.).
    pub opts: JobOptions,
}

impl ModelSpec {
    /// Spec with default job options.
    pub fn new(
        name: impl Into<String>,
        scheduler: Arc<Scheduler>,
        num_features: u32,
        domain: usize,
    ) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            scheduler,
            num_features,
            domain,
            opts: JobOptions::default(),
        }
    }

    /// Replace the per-batch job options. The main use is routing a
    /// model's batches to the compiled-plan host fast path:
    ///
    /// ```ignore
    /// spec.with_opts(JobOptions::builder().backend(ExecBackend::HostPlan).build()?)
    /// ```
    ///
    /// which requires the model's scheduler to have been built from a
    /// device carrying its SPN (`VirtualDevice::with_model`).
    pub fn with_opts(mut self, opts: JobOptions) -> ModelSpec {
        self.opts = opts;
        self
    }
}

struct ModelHandle {
    batcher: Batcher,
    scheduler: Arc<Scheduler>,
    num_features: u32,
    /// Feature domain; request bytes must all be `< domain`. Checked
    /// *before* enqueueing — `Dataset::from_raw` asserts this, and a
    /// panic in the batcher worker would wedge the whole model queue,
    /// turning one bad client byte into a server-wide denial of
    /// service.
    domain: usize,
}

/// The server behind the front-end: the model registry plus the
/// counters and limits admission control runs on.
struct ServerService {
    models: BTreeMap<String, ModelHandle>,
    metrics: Arc<ServerMetrics>,
    max_inflight_samples: u64,
}

/// A running inference server. Dropping it drains and stops it.
pub struct SpnServer {
    front: Arc<Frontend<ServerService>>,
    reactor: ReactorHandle,
}

/// Server construction failure.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(io::Error),
    /// The model list is unusable (empty, duplicate names, …).
    Config(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::Config(m) => write!(f, "config error: {m}"),
        }
    }
}
impl std::error::Error for ServerError {}
impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl SpnServer {
    /// Bind, register `models` and start serving.
    pub fn serve(config: ServerConfig, models: Vec<ModelSpec>) -> Result<SpnServer, ServerError> {
        if models.is_empty() {
            return Err(ServerError::Config("no models registered".into()));
        }
        if config.batch.max_batch_samples == 0 {
            return Err(ServerError::Config("max_batch_samples must be > 0".into()));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::new());

        let mut registry = BTreeMap::new();
        for spec in models {
            let refuse =
                |why: String| Err(ServerError::Config(format!("model '{}' {why}", spec.name)));
            let (nf, domain, backend) = (spec.num_features, spec.domain, spec.opts.backend);
            if nf == 0 {
                return refuse("declares zero features".into());
            }
            if domain == 0 || domain > 256 {
                return refuse(format!("declares domain {domain} (must be in 1..=256)"));
            }
            if registry.contains_key(&spec.name) {
                return refuse("registered twice".into());
            }
            // Either of these would answer every request with an error.
            let device = spec.scheduler.device();
            let bytes = device.query_pe(0).map_or(0, |pe| pe.input_bytes);
            if bytes != u64::from(nf) {
                return refuse(format!("declares {nf} features, its device reads {bytes}"));
            }
            if backend != ExecBackend::Device && device.model().is_none() {
                return refuse(format!("runs on {backend:?}, but its device has no SPN"));
            }
            let batcher = Batcher::new(
                &spec.name,
                Arc::clone(&spec.scheduler),
                spec.num_features as usize,
                spec.domain,
                config.batch,
                spec.opts,
                Arc::clone(&metrics),
            );
            let handle = ModelHandle {
                batcher,
                scheduler: spec.scheduler,
                num_features: spec.num_features,
                domain: spec.domain,
            };
            registry.insert(spec.name, handle);
        }

        let service = ServerService {
            models: registry,
            metrics,
            max_inflight_samples: config.max_inflight_samples,
        };
        let front = Arc::new(Frontend::new(service, local_addr, config.trace));
        let ServingMode::Reactor(rc) = config.serving;
        let reactor = reactor::start(listener, Arc::clone(&front), rc)?;
        Ok(SpnServer { front, reactor })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The reactor's counters, for its unit tests.
    #[cfg(test)]
    pub(crate) fn reactor_metrics(&self) -> &ReactorMetrics {
        self.reactor.metrics()
    }

    /// Point-in-time serving metrics.
    pub fn metrics_snapshot(&self) -> ServerMetricsSnapshot {
        self.front.service.metrics.snapshot()
    }

    /// The unified telemetry document: serving metrics plus one
    /// scheduler/batcher section per model — exactly what the `Stats`
    /// opcode returns on the wire.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.front
            .service
            .telemetry_snapshot(self.reactor.metrics())
    }

    /// Block until shutdown is requested — by a client's `Shutdown`
    /// frame or a concurrent [`SpnServer::shutdown`] call. The caller
    /// then drops the server (or calls `shutdown`) to perform the
    /// actual drain and join.
    pub fn wait_for_shutdown(&self) {
        self.front.wait_for_shutdown(None);
    }

    /// Drain and stop: refuse new work, answer everything already
    /// admitted, then join every thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.front.request_shutdown();
        self.reactor.join_acceptor();
        // Drain order is load-bearing: every connection with a pending
        // `Infer` is a reactor slot waiting on its batcher reply, and
        // flushing the batch queues is what delivers those. Batchers
        // first, connections second.
        for handle in self.front.service.models.values() {
            handle.batcher.request_drain();
        }
        for handle in self.front.service.models.values() {
            handle.batcher.join_worker();
        }
        self.reactor.finish();
    }
}

impl Drop for SpnServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Service for ServerService {
    fn stats_json(&self, reactor: &ReactorMetrics) -> String {
        self.telemetry_snapshot(reactor).to_json()
    }

    fn rejected(&self, status: Status) {
        self.metrics.rejected(status);
    }

    /// Decode, validate and admit one `Infer` request, then park it
    /// with its model's batcher. Takes the payload by value so the
    /// socket read buffer goes straight to the batcher
    /// ([`InferRequest::decode_owned`]).
    fn infer<F>(&self, payload: Vec<u8>, _up: &mut Upstream<'_>, done: F) -> Option<InferReply>
    where
        F: FnOnce(InferReply) + Send + 'static,
    {
        let t0 = Instant::now();
        let reject = |status: Status, msg: &str, ctx: SpanCtx| {
            self.metrics.rejected(status);
            Some((Frame::error(Opcode::Infer, status, msg), ctx))
        };

        let req = match InferRequest::decode_owned(payload) {
            Ok(r) => r,
            Err(m) => return reject(Status::Malformed, &m, SpanCtx::NONE),
        };
        let ctx = req.ctx;
        let Some(model) = self.models.get(&req.model) else {
            return reject(
                Status::UnknownModel,
                &format!("model '{}' is not registered", req.model),
                ctx,
            );
        };
        if req.num_features != model.num_features {
            return reject(
                Status::ShapeMismatch,
                &format!(
                    "model '{}' expects {} features per sample, request carries {}",
                    req.model, model.num_features, req.num_features
                ),
                ctx,
            );
        }
        // Domain check: every feature byte must be `< domain`, or the
        // batcher's `Dataset::from_raw` would panic — killing the model's
        // worker thread and wedging every later request for that model.
        // One out-of-domain byte must cost *this* request only.
        if let Some((at, bad)) = out_of_domain(&req.data, model.domain) {
            return reject(
                Status::Malformed,
                &format!(
                    "feature value {bad} at byte {at} outside model '{}' domain 0..{}",
                    req.model, model.domain
                ),
                ctx,
            );
        }
        let samples = u64::from(req.num_samples);
        // Admission control: bound the admitted-but-unanswered samples.
        // (Racy increment-after-check is fine — the bound is a soft
        // protective limit, not an accounting invariant.)
        if self.metrics.inflight_samples() + samples > self.max_inflight_samples {
            return reject(
                Status::ServerBusy,
                &format!(
                    "in-flight sample limit {} reached; retry later",
                    self.max_inflight_samples
                ),
                ctx,
            );
        }
        self.metrics.request_admitted(samples);
        let deadline =
            (req.deadline_ms > 0).then(|| t0 + Duration::from_millis(req.deadline_ms as u64));
        let metrics = Arc::clone(&self.metrics);
        model.batcher.enqueue_with(
            ctx,
            req.data,
            req.num_samples,
            deadline,
            // Runs on the scheduler control thread that finished the
            // request's batch (see `ReplySink`), whether or not the
            // connection survived, so an admitted request is always
            // counted done.
            Box::new(move |reply| {
                metrics.request_done(samples, t0.elapsed());
                done((reply_frame(reply), ctx));
            }),
        );
        None
    }
}

/// Turn a batcher [`Reply`] into the `Infer` response frame.
fn reply_frame(reply: Reply) -> Frame {
    match reply {
        Reply::Ok(lls) => Frame::response(
            Opcode::Infer,
            Status::Ok,
            crate::protocol::encode_results(&lls),
        ),
        Reply::Err(status, msg) => Frame::error(Opcode::Infer, status, &msg),
    }
}

impl ServerService {
    /// Build the unified telemetry document the `Stats` opcode serves:
    /// the serving section plus one scheduler/batcher section per model
    /// (models in `BTreeMap` name order; serde handles all escaping, so
    /// arbitrary model names are safe), plus one aggregate `plan` section
    /// over the distinct plan caches behind those schedulers. Schedulers
    /// built with [`spn_runtime::Scheduler::with_cache`] may share one
    /// cache, so caches are de-duplicated by identity before summing —
    /// a shared cache is counted once, not once per model.
    fn telemetry_snapshot(&self, reactor: &ReactorMetrics) -> TelemetrySnapshot {
        let models = self
            .models
            .iter()
            .map(|(name, handle)| {
                (
                    name.clone(),
                    ModelTelemetry {
                        scheduler: handle.scheduler.metrics_snapshot(),
                        batcher: Some(BatcherTelemetry {
                            queued_samples: handle.batcher.queued_samples(),
                        }),
                    },
                )
            })
            .collect();
        let mut seen: Vec<*const PlanCache> = Vec::new();
        let mut plan = PlanTelemetry {
            cached_plans: 0,
            cache_hits: 0,
            cache_misses: 0,
            invalidations: 0,
        };
        for handle in self.models.values() {
            let cache = handle.scheduler.plan_cache();
            let id = Arc::as_ptr(cache);
            if seen.contains(&id) {
                continue;
            }
            seen.push(id);
            let t = cache.telemetry();
            plan.cached_plans += t.cached_plans;
            plan.cache_hits += t.cache_hits;
            plan.cache_misses += t.cache_misses;
            plan.invalidations += t.invalidations;
        }
        // Aggregate sharded-path counters across the models' schedulers;
        // the section stays `null` until some model runs a sharded job.
        let mut shard: Option<ShardTelemetry> = None;
        for handle in self.models.values() {
            if let Some(t) = handle.scheduler.shard_telemetry() {
                let acc = shard.get_or_insert(ShardTelemetry {
                    shard_sets: 0,
                    shards: 0,
                    sharded_blocks: 0,
                });
                acc.shard_sets += t.shard_sets;
                acc.shards += t.shards;
                acc.sharded_blocks += t.sharded_blocks;
            }
        }
        TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA_VERSION,
            server: Some(self.metrics.snapshot()),
            models,
            plan: Some(plan),
            router: None,
            shard,
            reactor: Some(reactor.snapshot()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ClientError};
    use spn_core::NipsBenchmark;
    use spn_runtime::{RuntimeConfig, VirtualDevice};

    /// An out-of-domain byte is refused `Malformed` wherever it sits
    /// relative to the domain check's 64-byte chunks — first byte, last
    /// byte, inside a 6-byte tail, mid-way through a 320 KiB block — and
    /// the connection that sent it is served on.
    #[test]
    fn a_bad_byte_is_rejected_at_every_position_and_the_connection_survives() {
        let bench = NipsBenchmark::Nips10;
        let nf = bench.num_vars();
        let device = VirtualDevice::new(
            spn_hw::DatapathProgram::compile(&bench.build_spn()),
            spn_arith::AnyFormat::paper_default(),
            spn_hw::AcceleratorConfig::paper_default(),
            2,
            64 << 20,
        );
        let scheduler = Scheduler::new(Arc::new(device), RuntimeConfig::default()).unwrap();
        // Domain 2: 0 and 1 are features, 2 is the smallest bad byte.
        let spec = ModelSpec::new(bench.name(), Arc::new(scheduler), nf as u32, 2);
        let server = SpnServer::serve(ServerConfig::default(), vec![spec]).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let block = 32_768 * nf; // 320 KiB of NIPS10 rows
        for (len, at) in [
            (block, 0),
            (block, block - 1),
            (7 * nf, 67),
            (block, block / 2 + 5),
        ] {
            let mut data = vec![1u8; len];
            data[at] = 2;
            let rows = (len / nf) as u32;
            match client
                .request(bench.name())
                .samples(&data, rows, nf as u32)
                .send()
            {
                Err(ClientError::Rejected { status, message }) => {
                    assert_eq!(status, Status::Malformed, "{message}");
                    assert!(message.contains(&format!("at byte {at} ")), "{message}");
                }
                other => panic!("{len} bytes, bad at {at}: expected Malformed, got {other:?}"),
            }
        }
        let lls = client
            .request(bench.name())
            .samples(&vec![1u8; nf], 1, nf as u32)
            .send()
            .unwrap();
        assert_eq!(lls.len(), 1);
        assert_eq!(server.metrics_snapshot().rejected_malformed, 4);
    }
}
