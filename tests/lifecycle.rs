//! Start and stop leave nothing behind. Twenty create → use → drop
//! cycles each of a bare `Scheduler` (one host-plan and one device
//! job), `SpnServer` and `SpnRouter` (one request each) return the
//! process's thread and descriptor counts to where they started, every
//! drop returns within the hang bound, and a running endpoint has
//! exactly the threads it is built from: its control threads, its
//! loops, its batcher workers or health prober. One test in a file of
//! its own, so no other test's threads are counted.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_router::{RouterConfig, SpnRouter};
use spn_runtime::{ExecBackend, JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{Client, ModelSpec, ReactorConfig, ServerConfig, SpnServer};
use std::fs;
use std::sync::Arc;
use std::time::Instant;
use system_tests::{wait_until, HANG};

const CYCLES: usize = 20;
const BENCH: NipsBenchmark = NipsBenchmark::Nips10;

/// The process's threads, by name.
fn threads() -> Vec<String> {
    let tasks = fs::read_dir("/proc/self/task").unwrap();
    let comm = |t: fs::DirEntry| fs::read_to_string(t.path().join("comm")).unwrap_or_default();
    tasks.map(|t| comm(t.unwrap()).trim().to_string()).collect()
}

fn fds() -> usize {
    fs::read_dir("/proc/self/fd").unwrap().count()
}

const PES: u32 = 2;

/// A NIPS10 scheduler on a 2-PE device that also has the model, so it
/// takes host-plan jobs.
fn scheduler() -> Scheduler {
    let spn = Arc::new(BENCH.build_spn());
    let device = VirtualDevice::new(
        DatapathProgram::compile(&spn),
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        PES,
        64 << 20,
    )
    .with_model(spn);
    Scheduler::new(Arc::new(device), RuntimeConfig::default()).unwrap()
}

/// A NIPS10 server over [`scheduler`].
fn server() -> SpnServer {
    let nf = BENCH.num_vars() as u32;
    let spec = ModelSpec::new(BENCH.name(), Arc::new(scheduler()), nf, 256);
    SpnServer::serve(ServerConfig::default(), vec![spec]).unwrap()
}

fn infer_one(addr: std::net::SocketAddr) {
    let nf = BENCH.num_vars();
    let mut client = Client::connect(addr).unwrap();
    let lls = client
        .request(BENCH.name())
        .samples(&vec![0u8; nf], 1, nf as u32)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 1);
}

/// Run `CYCLES` cycles of `start` (which also uses what it starts) →
/// drop. While each one runs, the process has exactly `extra` more
/// threads than at the start, none of them an acceptor; each drop
/// returns within [`HANG`]; after it the thread and descriptor counts
/// return to their start values.
fn cycle<E>(what: &str, extra: usize, mut start: impl FnMut() -> E) {
    let (threads0, fds0) = (threads().len(), fds());
    for i in 0..CYCLES {
        let endpoint = start();
        let running = threads();
        assert_eq!(running.len(), threads0 + extra, "{what} {i}: {running:?}");
        assert!(!running.iter().any(|t| t == "spn-accept"), "{running:?}");
        let t0 = Instant::now();
        drop(endpoint);
        let took = t0.elapsed();
        assert!(took < HANG, "{what} {i}: drop took {took:?}");
        wait_until(&format!("{what} {i} left threads or fds behind"), || {
            threads().len() == threads0 && fds() == fds0
        });
    }
}

#[test]
fn endpoints_leave_no_threads_or_descriptors_behind() {
    let loops = ReactorConfig::default().loop_threads;
    let control = (PES * RuntimeConfig::default().threads_per_pe) as usize;
    // The control threads alone.
    let data = Arc::new(BENCH.dataset(3_000, 5));
    cycle("scheduler", control, || {
        let scheduler = scheduler();
        for backend in [ExecBackend::HostPlan, ExecBackend::Device] {
            let opts = JobOptions::builder().backend(backend).build().unwrap();
            let got = scheduler.submit(Arc::clone(&data), opts).unwrap().wait();
            assert_eq!(got.unwrap().len(), 3_000);
        }
        scheduler
    });

    // Loops, one batcher worker (one model), the control threads.
    cycle("server", loops + 1 + control, || {
        let server = server();
        infer_one(server.local_addr());
        server
    });

    let backends = [server(), server()];
    // Loops and the health prober.
    cycle("router", loops + 1, || {
        let router = SpnRouter::start(RouterConfig {
            backends: backends
                .iter()
                .map(|b| b.local_addr().to_string())
                .collect(),
            ..RouterConfig::default()
        })
        .unwrap();
        infer_one(router.local_addr());
        router
    });
}
