//! Start and stop leave nothing behind. Twenty create → serve one
//! request → drop cycles each of `SpnServer` and `SpnRouter` return
//! the process's thread and descriptor counts to where they started,
//! and a running endpoint has exactly the threads it is built from:
//! its loops, its batcher workers or health prober, and (for a server)
//! its scheduler's control threads. One test in a file of its own, so
//! no other test's threads are counted.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_router::{RouterConfig, SpnRouter};
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{Client, ModelSpec, ReactorConfig, ServerConfig, SpnServer};
use std::fs;
use std::sync::Arc;
use system_tests::wait_until;

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

/// A NIPS10 server on a 2-PE device.
fn server() -> SpnServer {
    let device = VirtualDevice::new(
        DatapathProgram::compile(&BENCH.build_spn()),
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        PES,
        64 << 20,
    );
    let scheduler = Scheduler::new(Arc::new(device), RuntimeConfig::default()).unwrap();
    let nf = BENCH.num_vars() as u32;
    let spec = ModelSpec::new(BENCH.name(), Arc::new(scheduler), nf, 256);
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

/// Run `CYCLES` cycles of `start` → one request → drop. While each
/// endpoint runs, the process has exactly `extra` more threads than at
/// the start, none of them an acceptor; after each drop the thread and
/// descriptor counts return to their start values.
fn cycle<E>(what: &str, extra: usize, mut start: impl FnMut() -> (E, std::net::SocketAddr)) {
    let (threads0, fds0) = (threads().len(), fds());
    for i in 0..CYCLES {
        let (endpoint, addr) = start();
        infer_one(addr);
        let running = threads();
        assert_eq!(running.len(), threads0 + extra, "{what} {i}: {running:?}");
        assert!(!running.iter().any(|t| t == "spn-accept"), "{running:?}");
        drop(endpoint);
        wait_until(&format!("{what} {i} left threads or fds behind"), || {
            threads().len() == threads0 && fds() == fds0
        });
    }
}

#[test]
fn endpoints_leave_no_threads_or_descriptors_behind() {
    let loops = ReactorConfig::default().loop_threads;
    let control = (PES * RuntimeConfig::default().threads_per_pe) as usize;
    // Loops, one batcher worker (one model), the control threads.
    cycle("server", loops + 1 + control, || {
        let server = server();
        let addr = server.local_addr();
        (server, addr)
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
        let addr = router.local_addr();
        (router, addr)
    });
}
