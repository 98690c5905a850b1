//! The four workloads: which system each one starts, with which
//! pinned configuration, and how one request is made and verified.
//!
//! Every knob of the system under test is passed explicitly, so that a
//! later change to a *default* does not move the ruler and a change to
//! a *mechanism* does.

use crate::payload::{bits_equal, feature_pool};
use crate::trace::SpanLog;
use spn_arith::AnyFormat;
use spn_core::{Dataset, Evaluator, NipsBenchmark, Query};
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_router::{HealthPolicy, RouterConfig, SpnRouter};
use spn_runtime::{
    ExecBackend, JobOptions, PlanCache, RuntimeConfig, Scheduler, TraceCollector, VirtualDevice,
};
use spn_server::{
    BatchPolicy, Client, ModelSpec, ReactorConfig, ServerConfig, ServingMode, SpnServer,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Closed-loop callers, one connection (or submitter) each: the
/// sandbox has two vCPUs.
pub const CLIENTS: usize = 2;
/// Distinct requests per workload, replayed round-robin.
pub const POOL: usize = 8;

pub const BLOCK_SAMPLES: u64 = 4096;
pub const THREADS_PER_PE: u32 = 1;
pub const QUEUE_CAPACITY: usize = 32;
/// Per-PE device memory. A control thread holds one block's buffers
/// at a time (72 KiB). Kept under the allocator's 128 KiB mmap
/// threshold on purpose: larger zeroed buffers are either fresh
/// untouched pages or a recycled chunk cleared by hand, by allocation
/// history, and peak RSS then differs by their size from run to run
/// (1 MiB channels: 6.2 or 7.3 MiB on `routed_small`).
pub const CHANNEL_CAPACITY: u64 = 120 << 10;
pub const BATCH: BatchPolicy = BatchPolicy {
    max_batch_samples: 4096,
    max_batch_delay: Duration::from_micros(200),
};
pub const LOOP_THREADS: usize = 1;
pub const MAX_INFLIGHT_SAMPLES: u64 = 1 << 20;
pub const REPLICATION: usize = 2;
/// Feature domain of the NIPS models (byte-valued word counts).
pub const DOMAIN: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OnlineSmall,
    BulkLarge,
    RoutedSmall,
    DeviceOffline,
}

pub const ALL: [Workload; 4] = [
    Workload::OnlineSmall,
    Workload::BulkLarge,
    Workload::RoutedSmall,
    Workload::DeviceOffline,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineSmall => "online_small",
            Workload::BulkLarge => "bulk_large",
            Workload::RoutedSmall => "routed_small",
            Workload::DeviceOffline => "device_offline",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn model(self) -> NipsBenchmark {
        match self {
            Workload::BulkLarge => NipsBenchmark::Nips80,
            _ => NipsBenchmark::Nips10,
        }
    }

    /// Samples per request (per job on `device_offline`).
    pub fn samples_per_request(self) -> usize {
        match self {
            Workload::OnlineSmall | Workload::RoutedSmall => 1,
            Workload::BulkLarge => 4096,
            Workload::DeviceOffline => 16_384,
        }
    }

    /// Whether requests travel over TCP (false: straight into the
    /// scheduler).
    pub fn is_wire(self) -> bool {
        self != Workload::DeviceOffline
    }

    /// Whether the run is confined to one CPU. The two small wire
    /// workloads are: a request of theirs is five thread hand-offs and
    /// no compute, a hand-off to the other vCPU costs ten times one on
    /// the same vCPU here, and which of the two a process pays sticks
    /// for its whole life. The two compute-bound workloads are not:
    /// their jobs take milliseconds, a 40 µs wake-up is noise to them,
    /// and their two PEs are meant to run side by side.
    pub fn confined(self) -> bool {
        matches!(self, Workload::OnlineSmall | Workload::RoutedSmall)
    }

    /// PEs of each scheduler: two, except the routed backends, which
    /// split the same two PEs over two servers.
    fn pes(self) -> u32 {
        if self == Workload::RoutedSmall {
            1
        } else {
            2
        }
    }

    pub fn job_options(self) -> JobOptions {
        let backend = if self.is_wire() {
            ExecBackend::HostPlan
        } else {
            ExecBackend::Device
        };
        JobOptions::builder()
            .max_retries(3)
            .retry_backoff_us(200)
            .backend(backend)
            .build()
            .expect("valid job options")
    }
}

/// One pre-generated request and the reply the oracle computed for it.
pub struct Request {
    pub dataset: Arc<Dataset>,
    /// Expected reply, compared bit for bit.
    pub oracle: Vec<f64>,
}

/// The workload's request pool for `seed`, with oracle replies: the
/// tree-walk evaluator for the wire workloads (whose servers run the
/// compiled plan), the device's golden model for `device_offline`.
pub fn request_pool(w: Workload, seed: u64) -> Vec<Request> {
    let model = w.model();
    let spn = model.build_spn();
    let device = (!w.is_wire()).then(|| new_device(w, DatapathProgram::compile(&spn)));
    let mut ev = Evaluator::new(&spn);
    feature_pool(seed, POOL, w.samples_per_request(), model.num_vars())
        .into_iter()
        .map(|data| {
            let dataset = Arc::new(Dataset::from_raw(data, model.num_vars(), DOMAIN));
            let oracle = dataset
                .rows()
                .map(|row| match &device {
                    // The server replies ln(p) of the plan's exp(ll).
                    None => ev.eval_bytes(&Query::Complete, row).exp().ln(),
                    Some(d) => d.golden(0, row).expect("golden model of PE 0"),
                })
                .collect();
            Request { dataset, oracle }
        })
        .collect()
}

fn new_device(w: Workload, program: DatapathProgram) -> VirtualDevice {
    VirtualDevice::new(
        program,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        w.pes(),
        CHANNEL_CAPACITY,
    )
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::builder()
        .block_samples(BLOCK_SAMPLES)
        .threads_per_pe(THREADS_PER_PE)
        .verify_fraction(0.0)
        .queue_capacity(QUEUE_CAPACITY)
        .build()
        .expect("valid runtime config")
}

/// Build the model and start one scheduler over it, as a fresh process
/// would: SPN → datapath program → device → (plan) → worker pool.
pub fn start_scheduler(
    w: Workload,
    collector: Option<&Arc<TraceCollector>>,
    log: &mut Option<&mut SpanLog>,
) -> Arc<Scheduler> {
    let model = w.model();
    let spn = Arc::new(span(log, "core.build_spn", || model.build_spn()));
    let program = span(log, "hw.compile", || DatapathProgram::compile(&spn));
    let device = span(log, "runtime.device_new", || {
        let device = new_device(w, program);
        // Only the host-plan backend needs the model on the device.
        if w.is_wire() {
            device.with_model(spn)
        } else {
            device
        }
    });
    span(log, "runtime.scheduler_start", || {
        Arc::new(
            Scheduler::with_cache(
                Arc::new(device),
                runtime_config(),
                collector.cloned(),
                Arc::new(PlanCache::new()),
            )
            .expect("scheduler starts"),
        )
    })
}

fn start_server(
    w: Workload,
    collector: Option<&Arc<TraceCollector>>,
    log: &mut Option<&mut SpanLog>,
) -> (SpnServer, Arc<Scheduler>) {
    let scheduler = start_scheduler(w, collector, log);
    let model = w.model();
    let spec = ModelSpec::new(
        model.name(),
        Arc::clone(&scheduler),
        model.num_vars() as u32,
        DOMAIN,
    )
    .with_opts(w.job_options());
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch: BATCH,
        max_inflight_samples: MAX_INFLIGHT_SAMPLES,
        read_poll: Duration::from_millis(25),
        trace: collector.cloned(),
        serving: ServingMode::Reactor(ReactorConfig {
            loop_threads: LOOP_THREADS,
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
        }),
    };
    let server = span(log, "server.serve", || {
        SpnServer::serve(config, vec![spec]).expect("server starts")
    });
    (server, scheduler)
}

fn router_config(backends: Vec<String>, collector: Option<&Arc<TraceCollector>>) -> RouterConfig {
    RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends,
        replication: REPLICATION,
        health: HealthPolicy {
            interval: Duration::from_millis(250),
            timeout: Duration::from_millis(500),
            fail_threshold: 3,
            recover_threshold: 2,
        },
        max_inflight_per_backend: 1024,
        connect_timeout: Duration::from_millis(500),
        rpc_timeout: Some(Duration::from_secs(30)),
        pool_idle_ttl: Some(Duration::from_secs(30)),
        read_poll: Duration::from_millis(25),
        trace: collector.cloned(),
    }
}

/// A started system under test. Dropping it shuts every server and
/// router down and joins their threads; every listener binds port 0.
pub struct System {
    pub workload: Workload,
    // Declaration order is drop order: the router drains before its
    // backends go away.
    pub router: Option<SpnRouter>,
    pub servers: Vec<SpnServer>,
    pub schedulers: Vec<Arc<Scheduler>>,
}

impl System {
    /// Start `w`'s system; spans of the calls made go to `log`, the
    /// program's own spans to `collector`.
    pub fn start(
        w: Workload,
        collector: Option<&Arc<TraceCollector>>,
        mut log: Option<&mut SpanLog>,
    ) -> System {
        let log = &mut log;
        let mut sys = System {
            workload: w,
            router: None,
            servers: Vec::new(),
            schedulers: Vec::new(),
        };
        match w {
            Workload::DeviceOffline => sys.schedulers.push(start_scheduler(w, collector, log)),
            Workload::OnlineSmall | Workload::BulkLarge => {
                let (server, scheduler) = start_server(w, collector, log);
                sys.servers.push(server);
                sys.schedulers.push(scheduler);
            }
            Workload::RoutedSmall => {
                for _ in 0..2 {
                    let (server, scheduler) = start_server(w, collector, log);
                    sys.servers.push(server);
                    sys.schedulers.push(scheduler);
                }
                let backends = sys.servers.iter().map(|s| s.local_addr().to_string());
                let config = router_config(backends.collect(), collector);
                sys.router = Some(span(log, "router.start", || {
                    SpnRouter::start(config).expect("router starts")
                }));
            }
        }
        sys
    }

    /// Where clients connect: the router if there is one, else the
    /// server. `None` on `device_offline`.
    pub fn addr(&self) -> Option<SocketAddr> {
        match &self.router {
            Some(r) => Some(r.local_addr()),
            None => self.servers.first().map(SpnServer::local_addr),
        }
    }

    /// A caller into the system's front door: a fresh connection, or a
    /// handle on the scheduler.
    pub fn caller(&self) -> Caller {
        match self.addr() {
            Some(addr) => Caller::Wire {
                client: Client::connect(addr).expect("connect to the system under test"),
                model: self.workload.model(),
            },
            None => Caller::Offline {
                scheduler: Arc::clone(&self.schedulers[0]),
                opts: self.workload.job_options(),
            },
        }
    }
}

/// One closed-loop caller.
pub enum Caller {
    Wire {
        client: Client,
        model: NipsBenchmark,
    },
    Offline {
        scheduler: Arc<Scheduler>,
        opts: JobOptions,
    },
}

impl Caller {
    /// Make one request and wait for its reply: log-likelihoods over
    /// the wire, probabilities from the scheduler.
    pub fn call(&mut self, req: &Request) -> Result<Vec<f64>, String> {
        match self {
            Caller::Wire { client, model } => client
                .request(model.name())
                .samples(
                    req.dataset.raw(),
                    req.dataset.num_samples() as u32,
                    model.num_vars() as u32,
                )
                .send()
                .map_err(|e| e.to_string()),
            Caller::Offline { scheduler, opts } => scheduler
                .submit(Arc::clone(&req.dataset), *opts)
                .and_then(|job| job.wait())
                .map_err(|e| e.to_string()),
        }
    }

    /// [`Caller::call`], then the bit-for-bit check against the oracle.
    pub fn call_verified(&mut self, req: &Request) -> bool {
        matches!(self.call(req), Ok(reply) if bits_equal(&reply, &req.oracle))
    }
}

/// One cold cycle, the unit of `setup_s`: build the SPN, compile the
/// plan or datapath, start scheduler, server and router, connect, get
/// a first verified reply, shut down. Returns whether that reply was
/// correct.
pub fn cold_cycle(w: Workload, first: &Request, mut log: Option<&mut SpanLog>) -> bool {
    let sys = System::start(w, None, log.as_deref_mut());
    let log = &mut log;
    let mut caller = span(log, "client.connect", || sys.caller());
    let ok = span(log, "client.first_reply", || caller.call_verified(first));
    drop(caller);
    span(log, "system.shutdown", || drop(sys));
    ok
}

/// Run `f`, under a top-level set-up span when a log is attached.
fn span<R>(log: &mut Option<&mut SpanLog>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match log {
        Some(log) => log.span(name, None, 0, f),
        None => f(),
    }
}
