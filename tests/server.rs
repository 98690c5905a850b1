//! Integration tests for the serving subsystem: the full loopback
//! path client → wire protocol → admission → micro-batcher →
//! scheduler → virtual device → demux → client.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{
    protocol, BatchPolicy, Client, ClientError, LoadConfig, ModelSpec, ServerConfig, SpnServer,
    Status,
};
use spn_telemetry::{SpanCtx, SpanKind, TraceCollector};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn bare_device(bench: NipsBenchmark, pes: u32) -> VirtualDevice {
    let prog = DatapathProgram::compile(&bench.build_spn());
    VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        pes,
        64 << 20,
    )
}

fn make_device(bench: NipsBenchmark, pes: u32) -> Arc<VirtualDevice> {
    Arc::new(bare_device(bench, pes))
}

fn make_scheduler_with(
    bench: NipsBenchmark,
    pes: u32,
    verify: f64,
    block_samples: u64,
) -> Arc<Scheduler> {
    let config = RuntimeConfig::builder()
        .block_samples(block_samples)
        .threads_per_pe(2)
        .verify_fraction(verify)
        .build()
        .unwrap();
    Arc::new(Scheduler::new(make_device(bench, pes), config).unwrap())
}

fn start_server(bench: NipsBenchmark, batch: BatchPolicy, max_inflight: u64) -> SpnServer {
    start_server_tuned(bench, batch, max_inflight, 0.0, 512)
}

fn start_server_tuned(
    bench: NipsBenchmark,
    batch: BatchPolicy,
    max_inflight: u64,
    verify: f64,
    block_samples: u64,
) -> SpnServer {
    let spec = ModelSpec::new(
        bench.name(),
        make_scheduler_with(bench, 2, verify, block_samples),
        bench.num_vars() as u32,
        256,
    );
    SpnServer::serve(
        ServerConfig {
            batch,
            max_inflight_samples: max_inflight,
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap()
}

/// A 2-PE server whose device takes `per_sample` of wall clock per
/// sample ([`VirtualDevice::with_pacing`]) — for tests that need the
/// executors *busy*: an idle server flushes a request at once, so a
/// request only waits in the batch queue behind in-flight batches.
fn start_paced_server(bench: NipsBenchmark, batch: BatchPolicy, per_sample: Duration) -> SpnServer {
    let device = bare_device(bench, 2).with_pacing(per_sample);
    let config = RuntimeConfig::builder().block_samples(512).build().unwrap();
    let scheduler = Arc::new(Scheduler::new(Arc::new(device), config).unwrap());
    let spec = ModelSpec::new(bench.name(), scheduler, bench.num_vars() as u32, 256);
    SpnServer::serve(
        ServerConfig {
            batch,
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap()
}

/// Hold every executor slot of a [`start_paced_server`] server: one
/// `samples`-sample request per PE, each flushed as its own batch.
/// Returns once both batches are in flight; joining a returned thread
/// yields that request's reply.
fn occupy_pes(
    server: &SpnServer,
    bench: NipsBenchmark,
    samples: u32,
) -> Vec<std::thread::JoinHandle<Result<Vec<f64>, ClientError>>> {
    let addr = server.local_addr();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    (0..2)
        .map(|_| {
            // One at a time, or the two could coalesce into one batch.
            let already = server.metrics_snapshot().batches_total;
            let blocker = std::thread::spawn(move || {
                let nf = bench.num_vars();
                Client::connect(addr)
                    .unwrap()
                    .request(bench.name())
                    .samples(&vec![0u8; samples as usize * nf], samples, nf as u32)
                    .send()
            });
            while server.metrics_snapshot().batches_total == already {
                assert!(
                    std::time::Instant::now() < deadline,
                    "a blocker never went in flight"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            blocker
        })
        .collect()
}

/// Log-likelihoods of `dataset` from a direct scheduler job on a fresh
/// (deterministic, so identically-built) 2-PE device.
fn direct_lls(bench: NipsBenchmark, dataset: &Arc<spn_core::Dataset>) -> Vec<f64> {
    let config = RuntimeConfig::builder().block_samples(512).build().unwrap();
    let scheduler = Scheduler::new(make_device(bench, 2), config).unwrap();
    let job = scheduler.submit_blocking(Arc::clone(dataset), JobOptions::default());
    job.unwrap()
        .wait()
        .unwrap()
        .iter()
        .map(|p| p.ln())
        .collect()
}

/// Acceptance: results over the wire are *bit-identical* to a direct
/// scheduler run, under ≥ 4 concurrent clients whose
/// requests the batcher freely interleaves into shared jobs.
#[test]
fn loopback_is_bit_identical_to_direct_runtime_under_four_clients() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let dataset = Arc::new(bench.dataset(256, 7));

    // Ground truth on an identically-built (deterministic) device.
    let expected = direct_lls(bench, &dataset);

    let server = start_server(
        bench,
        BatchPolicy {
            max_batch_samples: 4096,
            max_batch_delay: Duration::from_millis(3),
        },
        1 << 20,
    );
    let addr = server.local_addr();

    // 4 clients, each sending its quarter of the dataset in small
    // ragged requests so batches interleave rows from everyone.
    let rows_per_client = 64usize;
    let mut workers = Vec::new();
    for c in 0..4usize {
        let dataset = Arc::clone(&dataset);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut got = Vec::new();
            let base = c * rows_per_client;
            let chunks = [7usize, 16, 1, 9, 31]; // ragged on purpose
            let mut at = 0usize;
            while at < rows_per_client {
                let n = chunks[got.len() % chunks.len()].min(rows_per_client - at);
                let mut block = Vec::with_capacity(n * nf as usize);
                for r in 0..n {
                    block.extend_from_slice(dataset.row(base + at + r));
                }
                let lls = client
                    .request(NipsBenchmark::Nips10.name())
                    .samples(&block, n as u32, nf)
                    .send()
                    .unwrap();
                assert_eq!(lls.len(), n);
                got.extend(lls);
                at += n;
            }
            (c, got)
        }));
    }
    for w in workers {
        let (c, got) = w.join().unwrap();
        let base = c * rows_per_client;
        for (i, ll) in got.iter().enumerate() {
            assert_eq!(
                ll.to_bits(),
                expected[base + i].to_bits(),
                "row {} differs: server {} vs direct {}",
                base + i,
                ll,
                expected[base + i]
            );
        }
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.samples_total, 256);
    assert!(
        snap.batches_total < snap.requests_total,
        "expected coalescing: {} batches for {} requests",
        snap.batches_total,
        snap.requests_total
    );
}

/// Acceptance: under the same offered load, micro-batching serves the
/// same requests in fewer scheduler jobs than per-request serving can;
/// prints p50/p99.
///
/// The claim is asserted on the server's own counts, not on the two
/// runs' samples/s: each run lasts 20–40 ms, and a comparison of two
/// wall-clock rates that short loses to scheduling noise about once in
/// sixty whole-suite runs (ROADMAP 3(e)). What batching buys is
/// structural and countable — with `max_batch_samples = 1` every
/// request is its own job and pays the per-job costs (submit, wake-up,
/// `ceil(f·n) >= 1` verification samples) in full, while the batched
/// server folds the requests that arrive behind busy PEs into shared
/// jobs. What that is worth in seconds is the benchmark's question
/// (`online_small`), not a unit test's.
///
/// Both servers run the same scheduler configuration — verification on
/// (`verify_fraction = 0.05`), 4-sample blocks, NIPS80 — so that 16
/// closed-loop connections keep both PEs busy and requests do queue.
#[test]
fn batching_beats_per_request_throughput() {
    let bench = NipsBenchmark::Nips80;
    let serve_load = |batch: BatchPolicy| {
        let server = start_server_tuned(bench, batch, 1 << 20, 0.05, 4);
        let report = spn_server::run_load(&LoadConfig {
            addr: server.local_addr(),
            model: bench.name().to_string(),
            num_features: bench.num_vars() as u32,
            domain: 255,
            connections: 16,
            requests_per_connection: 40,
            samples_per_request: 1,
            deadline_ms: 0,
            seed: 3,
        })
        .unwrap();
        (report, server.metrics_snapshot())
    };

    // (a) per-request: every request becomes its own scheduler job.
    let (per_request, per_request_snap) = serve_load(BatchPolicy {
        max_batch_samples: 1,
        max_batch_delay: Duration::from_micros(1),
    });
    // (b) adaptive micro-batching.
    let (batched, batched_snap) = serve_load(BatchPolicy {
        max_batch_samples: 4096,
        max_batch_delay: Duration::from_micros(200),
    });

    println!("per-request: {}", per_request.summary());
    println!("micro-batch: {}", batched.summary());
    assert_eq!(per_request.ok_requests, 16 * 40);
    assert_eq!(batched.ok_requests, 16 * 40);
    assert_eq!(per_request_snap.requests_total, 16 * 40);
    assert_eq!(batched_snap.requests_total, 16 * 40);
    assert_eq!(
        per_request_snap.batches_total, per_request_snap.requests_total,
        "a one-sample cap leaves nothing to coalesce"
    );
    assert!(
        batched_snap.batches_total < batched_snap.requests_total,
        "batching should need fewer jobs: {} batches for {} requests",
        batched_snap.batches_total,
        batched_snap.requests_total
    );
    assert!(batched.p99_ms > 0.0 && batched.p50_ms > 0.0);
}

/// A request whose deadline expires while parked in the batch queue
/// is answered with `DeadlineExceeded`, not silently computed.
#[test]
fn deadline_expires_in_the_batch_queue() {
    let bench = NipsBenchmark::Nips10;
    let server = start_paced_server(
        bench,
        BatchPolicy {
            max_batch_samples: 1 << 20, // never fills
            max_batch_delay: Duration::from_secs(2),
        },
        Duration::from_millis(150),
    );
    // Both PEs are busy for 150 ms, so the request below parks until
    // one of them finishes — long past its 1 ms deadline.
    let blockers = occupy_pes(&server, bench, 1);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let data = vec![0u8; bench.num_vars()];
    let err = client
        .request(bench.name())
        .samples(&data, 1, bench.num_vars() as u32)
        .deadline_ms(1)
        .send()
        .unwrap_err();
    match err {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The connection is still usable afterwards.
    client.ping().unwrap();
    let snap = server.metrics_snapshot();
    assert_eq!(snap.rejected_deadline, 1);
    assert_eq!(snap.batches_total, 2, "the expired request formed no batch");
    for b in blockers {
        assert_eq!(b.join().unwrap().unwrap().len(), 1);
    }
}

/// Work conservation: with a PE free the batcher flushes at once —
/// `max_batch_delay` bounds the wait behind *busy* executors, it is not
/// a price an idle server charges.
#[test]
fn idle_server_answers_without_waiting_for_the_delay_bound() {
    let bench = NipsBenchmark::Nips10;
    let server = start_server(
        bench,
        BatchPolicy {
            max_batch_samples: 1 << 20, // never fills
            max_batch_delay: Duration::from_secs(2),
        },
        1 << 20,
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sent = std::time::Instant::now();
    let lls = client
        .request(bench.name())
        .samples(&vec![0u8; bench.num_vars()], 1, bench.num_vars() as u32)
        .send()
        .unwrap();
    let took = sent.elapsed();
    assert_eq!(lls.len(), 1);
    assert!(
        took < Duration::from_millis(200),
        "an idle server sat on a request for {took:?}"
    );
}

/// Batches grow only while the executors are busy: with every PE held,
/// concurrent one-sample requests coalesce (up to the cap, for at most
/// the delay bound) instead of each becoming a job — and every answer
/// is still bit-identical to an unbatched run.
#[test]
fn requests_accumulate_while_every_pe_is_busy() {
    const K: usize = 20;
    const CAP: u32 = 8;
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let per_sample = Duration::from_millis(25);
    let delay = Duration::from_millis(100);

    let dataset = Arc::new(bench.dataset(K, 13));
    let expected = direct_lls(bench, &dataset);

    let server = start_paced_server(
        bench,
        BatchPolicy {
            max_batch_samples: u64::from(CAP),
            max_batch_delay: delay,
        },
        per_sample,
    );
    // Two full-cap batches hold both PEs for 200 ms.
    let blockers = occupy_pes(&server, bench, CAP);
    let addr = server.local_addr();
    let clients: Vec<_> = (0..K)
        .map(|i| {
            let dataset = Arc::clone(&dataset);
            std::thread::spawn(move || {
                Client::connect(addr)
                    .unwrap()
                    .request(bench.name())
                    .samples(dataset.row(i), 1, nf)
                    .send()
                    .unwrap()
            })
        })
        .collect();
    for (i, c) in clients.into_iter().enumerate() {
        let lls = c.join().unwrap();
        assert_eq!(lls.len(), 1);
        assert_eq!(lls[0].to_bits(), expected[i].to_bits(), "row {i}");
    }
    for b in blockers {
        assert_eq!(b.join().unwrap().unwrap().len(), CAP as usize);
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.requests_total, K as u64 + 2);
    assert!(
        snap.batches_total < snap.requests_total,
        "expected coalescing: {} batches for {} requests",
        snap.batches_total,
        snap.requests_total
    );
    assert!(
        snap.batch_samples.max <= f64::from(CAP),
        "a batch of {} samples exceeds the cap",
        snap.batch_samples.max
    );
    // The delay bound is measured from enqueue; the slack is one
    // batch's execution, for the time the worker itself may be stalled.
    let bound = delay + per_sample * CAP;
    assert!(
        snap.queue_wait_seconds.max <= bound.as_secs_f64(),
        "a request waited {:.3} s in the batch queue (bound {bound:?})",
        snap.queue_wait_seconds.max
    );
}

/// Shutting down mid-burst answers every request exactly once: every
/// admitted request's sink ran (nothing left in flight, one latency
/// recorded each), every client saw a reply or a refusal for every
/// request it sent — never a hang — and the counters add up.
#[test]
fn shutdown_mid_burst_answers_every_request_once() {
    const CLIENTS: usize = 8;
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let mut server = start_paced_server(
        bench,
        BatchPolicy {
            max_batch_samples: 4,
            max_batch_delay: Duration::from_millis(20),
        },
        Duration::from_millis(1),
    );
    let addr = server.local_addr();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // A lost reply must fail the test, not hang it.
                client
                    .set_io_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                let (mut ok, mut refused) = (0u64, 0u64);
                loop {
                    let sent = client
                        .request(bench.name())
                        .samples(&vec![0u8; nf as usize], 1, nf)
                        .send();
                    match sent {
                        Ok(lls) => {
                            assert_eq!(lls.len(), 1);
                            ok += 1;
                        }
                        Err(ClientError::Rejected { .. }) => refused += 1,
                        // The drained server closed the connection.
                        Err(ClientError::ConnectionClosed) => return (ok, refused),
                        Err(ClientError::Io(e))
                            if !matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            return (ok, refused)
                        }
                        Err(other) => panic!("request never answered: {other:?}"),
                    }
                }
            })
        })
        .collect();

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.metrics_snapshot().requests_total < 40 {
        assert!(std::time::Instant::now() < deadline, "load never got going");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();

    let (mut ok, mut refused) = (0u64, 0u64);
    for c in clients {
        let (o, r) = c.join().expect("a client went unanswered");
        ok += o;
        refused += r;
    }
    let snap = server.metrics_snapshot();
    let rejected = snap.rejected_malformed
        + snap.rejected_unknown_model
        + snap.rejected_shape_mismatch
        + snap.rejected_server_busy
        + snap.rejected_deadline
        + snap.rejected_shutting_down
        + snap.rejected_internal;
    assert_eq!(snap.inflight_samples, 0, "drain left samples in flight");
    assert_eq!(
        snap.e2e_seconds.count, snap.requests_total,
        "every admitted request is answered exactly once"
    );
    // Every refusal a client saw is one the server counted, and every
    // admitted request ended as one client's Ok or as a counted
    // refusal (refusals *before* admission are in `rejected` only).
    assert_eq!(refused, rejected);
    assert!(
        ok <= snap.requests_total && snap.requests_total <= ok + rejected,
        "{} admitted, {ok} ok, {rejected} refused",
        snap.requests_total
    );
}

/// Admission control: a request exceeding the in-flight sample bound
/// is bounced with `ServerBusy` while other connections keep working.
#[test]
fn server_busy_does_not_affect_other_connections() {
    let bench = NipsBenchmark::Nips10;
    let server = start_server(bench, BatchPolicy::default(), 4);
    let nf = bench.num_vars() as u32;

    let mut big = Client::connect(server.local_addr()).unwrap();
    let err = big
        .request(bench.name())
        .samples(&vec![0u8; 8 * bench.num_vars()], 8, nf)
        .send()
        .unwrap_err();
    match err {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::ServerBusy),
        other => panic!("expected ServerBusy, got {other:?}"),
    }

    // A small request on a different connection sails through.
    let mut small = Client::connect(server.local_addr()).unwrap();
    let lls = small
        .request(bench.name())
        .samples(&vec![0u8; 2 * bench.num_vars()], 2, nf)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 2);
    // And the rejected connection is also still alive.
    big.ping().unwrap();
    assert_eq!(server.metrics_snapshot().rejected_server_busy, 1);
}

/// Unknown model and wrong feature count earn their typed statuses.
#[test]
fn unknown_model_and_shape_mismatch_statuses() {
    let bench = NipsBenchmark::Nips10;
    let server = start_server(bench, BatchPolicy::default(), 1 << 20);
    let mut client = Client::connect(server.local_addr()).unwrap();

    match client
        .request("NOPE")
        .samples(&[0u8; 5], 1, 5)
        .send()
        .unwrap_err()
    {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    match client
        .request(bench.name())
        .samples(&[0u8; 5], 1, 5)
        .send()
        .unwrap_err()
    {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::ShapeMismatch),
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    // Connection still healthy.
    client.ping().unwrap();
}

/// An `Infer` payload whose feature bytes fall outside the model's
/// declared domain must be refused with a typed error — never handed
/// to `Dataset::from_raw` (which would panic, kill the batcher worker
/// and wedge the model's queue for every later client: a one-byte
/// remote DoS).
#[test]
fn out_of_domain_feature_bytes_are_rejected_not_fatal() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    // Register the model with a narrow domain so 0/1 are valid and
    // anything larger is out of range.
    let spec = ModelSpec::new(bench.name(), make_scheduler_with(bench, 2, 0.0, 512), nf, 2);
    let server = SpnServer::serve(ServerConfig::default(), vec![spec]).unwrap();

    let mut vandal = Client::connect(server.local_addr()).unwrap();
    let mut bad = vec![0u8; bench.num_vars()];
    bad[3] = 5; // outside domain 0..2
    match vandal
        .request(bench.name())
        .samples(&bad, 1, nf)
        .send()
        .unwrap_err()
    {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // The vandal's own connection survives (typed error, not a close)…
    let lls = vandal
        .request(bench.name())
        .samples(&vec![1u8; bench.num_vars()], 1, nf)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 1);
    // …and so does everyone else: the batcher worker never saw the
    // bad bytes, so the model queue still drains.
    let mut civilian = Client::connect(server.local_addr()).unwrap();
    let lls = civilian
        .request(bench.name())
        .samples(&vec![0u8; 4 * bench.num_vars()], 4, nf)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 4);
    assert!(server.metrics_snapshot().rejected_malformed >= 1);
}

/// Enqueueing into a batcher that has already been asked to drain is
/// answered immediately with `ShuttingDown` — the request must never
/// park in a queue no worker will flush (the connection thread would
/// block on the reply channel forever and deadlock shutdown).
#[test]
fn enqueue_after_drain_is_refused_not_stranded() {
    let bench = NipsBenchmark::Nips10;
    let (batcher, _) = bare_batcher(bench, &make_scheduler_with(bench, 2, 0.0, 512));
    // Worker is gone after this: the exact window the TOCTOU race in
    // `handle_infer` (is_shutting_down check → enqueue) can hit.
    batcher.drain();

    let rx = batcher.enqueue(SpanCtx::NONE, vec![0u8; bench.num_vars()], 1, None);
    let reply = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("post-drain enqueue must still be answered");
    match reply {
        spn_server::Reply::Err(status, _) => assert_eq!(status, Status::ShuttingDown),
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// One standalone batcher over `scheduler` (default policy and job
/// options), with the metrics it records into.
fn bare_batcher(
    bench: NipsBenchmark,
    scheduler: &Arc<Scheduler>,
) -> (spn_server::Batcher, Arc<spn_server::ServerMetrics>) {
    let metrics = Arc::new(spn_server::ServerMetrics::new());
    let batcher = spn_server::Batcher::new(
        bench.name(),
        Arc::clone(scheduler),
        bench.num_vars(),
        256,
        BatchPolicy::default(),
        JobOptions::default(),
        Arc::clone(&metrics),
    );
    (batcher, metrics)
}

/// With a PE idle the flush rule already holds when a request is
/// pushed, so the enqueuing thread flushes it itself — no hand-off to
/// the worker. Observable without timing: a request whose deadline has
/// already passed is answered at flush, so its sink has run, on this
/// thread, by the time `enqueue_with` returns. A live request takes the
/// same path and is bit-equal to the unbatched job.
#[test]
fn an_idle_batcher_flushes_on_the_enqueuing_thread() {
    let bench = NipsBenchmark::Nips10;
    let scheduler = make_scheduler_with(bench, 2, 0.0, 512);
    let (batcher, metrics) = bare_batcher(bench, &scheduler);

    let expired = std::time::Instant::now()
        .checked_sub(Duration::from_millis(1))
        .expect("the clock is past its first millisecond");
    let answered = Arc::new(std::sync::Mutex::new(None));
    let slot = Arc::clone(&answered);
    batcher.enqueue_with(
        SpanCtx::NONE,
        vec![0u8; bench.num_vars()],
        1,
        Some(expired),
        Box::new(move |reply| {
            *slot.lock().unwrap() = Some((std::thread::current().id(), reply));
        }),
    );
    let answer = answered.lock().unwrap().take();
    let (thread, reply) = answer.expect("answered before enqueue_with returned");
    assert_eq!(thread, std::thread::current().id());
    assert!(
        matches!(reply, spn_server::Reply::Err(Status::DeadlineExceeded, _)),
        "{reply:?}"
    );
    assert_eq!(metrics.snapshot().rejected_deadline, 1);

    let data = bench.dataset(3, 5);
    let reply = batcher
        .enqueue(SpanCtx::NONE, data.raw().to_vec(), 3, None)
        .recv_timeout(Duration::from_secs(5))
        .expect("a live request is answered");
    let oracle = scheduler
        .submit(Arc::new(data), JobOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    match reply {
        spn_server::Reply::Ok(lls) => {
            assert_eq!(lls.len(), oracle.len());
            for (ll, p) in lls.iter().zip(&oracle) {
                assert_eq!(ll.to_bits(), p.ln().to_bits());
            }
        }
        other => panic!("expected Ok, got {other:?}"),
    }
}

/// The enqueuing thread may be a reactor loop, so its flush must never
/// park in the scheduler: against a scheduler queue held full by a
/// direct job, `enqueue_with` returns at once, and the request waits
/// — behind the worker's blocking submit, not bounced `ServerBusy` —
/// and is answered, in arrival order, once the job retires.
#[test]
fn enqueue_does_not_wait_for_scheduler_queue_space() {
    let bench = NipsBenchmark::Nips10;
    // Two PEs at 1 ms per sample: the 600-sample job below holds the
    // scheduler's one queue slot for ~300 ms.
    let device = bare_device(bench, 2).with_pacing(Duration::from_millis(1));
    let config = RuntimeConfig::builder()
        .block_samples(50)
        .queue_capacity(1)
        .verify_fraction(0.0)
        .build()
        .unwrap();
    let scheduler = Arc::new(Scheduler::new(Arc::new(device), config).unwrap());
    let (batcher, metrics) = bare_batcher(bench, &scheduler);
    let hold = scheduler
        .submit(Arc::new(bench.dataset(600, 1)), JobOptions::default())
        .unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    for i in 0..3u8 {
        let tx = tx.clone();
        let t0 = std::time::Instant::now();
        batcher.enqueue_with(
            SpanCtx::NONE,
            vec![i; bench.num_vars()],
            1,
            None,
            Box::new(move |reply| tx.send((i, reply)).expect("the test outlives the request")),
        );
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "request {i}: enqueue_with took {took:?} against a full scheduler queue"
        );
    }
    assert_eq!(
        scheduler.queue_depth(),
        1,
        "the direct job alone holds the queue while the requests wait"
    );
    assert!(
        rx.try_recv().is_err(),
        "nothing is answered before space opens"
    );

    hold.wait().unwrap();
    for want in 0..3u8 {
        let (i, reply) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("every request is answered once the job retires");
        assert_eq!(i, want, "requests are answered in arrival order");
        assert!(matches!(reply, spn_server::Reply::Ok(_)), "{reply:?}");
    }
    assert_eq!(metrics.snapshot().rejected_server_busy, 0);
}

/// Model names with JSON-special characters must not corrupt the
/// `Stats` document.
#[test]
fn stats_json_escapes_model_names() {
    let bench = NipsBenchmark::Nips10;
    let name = "nips\"10\\weird";
    let spec = ModelSpec::new(
        name,
        make_scheduler_with(bench, 2, 0.0, 512),
        bench.num_vars() as u32,
        256,
    );
    let server = SpnServer::serve(ServerConfig::default(), vec![spec]).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let json = client.stats().unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).expect("stats JSON parses");
    assert!(
        v["models"][name].as_object_slice().is_some(),
        "escaped name round-trips"
    );
}

/// Garbage bytes on one connection are answered (once) and isolated:
/// that connection dies, every other connection is untouched.
#[test]
fn malformed_frames_are_contained_per_connection() {
    let bench = NipsBenchmark::Nips10;
    let server = start_server(bench, BatchPolicy::default(), 1 << 20);
    let nf = bench.num_vars() as u32;

    // (1) Broken framing (bad magic): error frame, then close.
    let mut vandal = Client::connect(server.local_addr()).unwrap();
    vandal
        .stream_mut()
        .write_all(b"GARBAGE-NOT-A-FRAME!")
        .unwrap();
    match vandal.ping().unwrap_err() {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::Malformed),
        // The server may close before our ping goes out, or while our
        // trailing bytes are still in flight (a clean EOF or a reset);
        // also fine — `rejected_malformed` below proves it was counted.
        ClientError::Io(_) | ClientError::ConnectionClosed => {}
        other => panic!("unexpected: {other:?}"),
    }

    // (2) Valid frame, broken payload: error frame, connection lives.
    let mut sloppy = Client::connect(server.local_addr()).unwrap();
    let bogus = spn_server::Frame::request(spn_server::Opcode::Infer, vec![1, 2, 3]);
    protocol::write_frame(sloppy.stream_mut(), &bogus).unwrap();
    let reply = protocol::read_frame(sloppy.stream_mut()).unwrap();
    assert_eq!(reply.status, Status::Malformed);
    let lls = sloppy
        .request(bench.name())
        .samples(&vec![0u8; bench.num_vars()], 1, nf)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 1);

    // (3) Unrelated connection never noticed any of it.
    let mut civilian = Client::connect(server.local_addr()).unwrap();
    civilian.ping().unwrap();
    assert!(server.metrics_snapshot().rejected_malformed >= 2);
}

/// A client disconnecting mid-frame (header promised more bytes than
/// it ever sent) must not wedge or poison the server.
#[test]
fn disconnect_mid_request_is_survived() {
    let bench = NipsBenchmark::Nips10;
    let server = start_server(bench, BatchPolicy::default(), 1 << 20);

    {
        let mut torn = TcpStream::connect(server.local_addr()).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(&protocol::MAGIC);
        header.push(protocol::PROTOCOL_VERSION);
        header.push(spn_server::Opcode::Infer as u8);
        header.push(0);
        header.push(0);
        header.extend_from_slice(&1000u32.to_le_bytes()); // promise 1000 bytes
        torn.write_all(&header).unwrap();
        torn.write_all(&[0u8; 10]).unwrap(); // …send 10, then vanish
    } // drop = disconnect

    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    let lls = client
        .request(bench.name())
        .samples(&vec![0u8; bench.num_vars()], 1, bench.num_vars() as u32)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 1);
}

/// The `Stats` opcode returns a JSON document that parses and carries
/// both serving-layer and per-model scheduler metrics.
#[test]
fn stats_opcode_returns_parsable_json() {
    let bench = NipsBenchmark::Nips10;
    let server = start_server(bench, BatchPolicy::default(), 1 << 20);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let nf = bench.num_vars() as u32;
    client
        .request(bench.name())
        .samples(&vec![0u8; 3 * bench.num_vars()], 3, nf)
        .send()
        .unwrap();

    let json = client.stats().unwrap();
    let v: serde_json::Value = serde_json::from_str(&json).expect("stats JSON parses");
    assert_eq!(v["schema"], 5u64);
    // The default engine is the reactor, so the reactor section is
    // populated (one open connection: this client).
    assert_eq!(v["reactor"]["open_connections"], 1u64);
    assert!(v["reactor"]["accepted_total"].as_u64().unwrap() >= 1);
    assert_eq!(v["server"]["requests_total"], 1u64);
    assert_eq!(v["server"]["samples_total"], 3u64);
    assert_eq!(v["server"]["inflight_samples"], 0u64);
    assert!(v["server"]["e2e_seconds"]["count"].as_u64() == Some(1));
    // The per-model scheduler snapshot is embedded under "scheduler",
    // next to the batcher gauges.
    assert_eq!(v["models"]["NIPS10"]["scheduler"]["jobs_completed"], 1u64);
    assert_eq!(
        v["models"]["NIPS10"]["scheduler"]["samples_in_flight"],
        0u64
    );
    assert_eq!(v["models"]["NIPS10"]["batcher"]["queued_samples"], 0u64);

    // The same document parses through the typed client path.
    let snap = client.telemetry().unwrap();
    assert_eq!(snap.server.unwrap().requests_total, 1);
    assert_eq!(snap.models["NIPS10"].scheduler.jobs_completed, 1);
}

/// Tentpole acceptance: one `Infer` request through the loopback
/// server leaves spans in *both* layers — server (request-queued,
/// batch-formed, reply-written) and runtime (h2d/execute/d2h) — all
/// stamped with the same per-request `TraceId`, and the Chrome export
/// shows that id on correlated server and runtime tracks.
#[test]
fn trace_ids_propagate_from_wire_to_device_spans() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    // One collector shared by the scheduler *and* the server.
    let collector = Arc::new(TraceCollector::new());
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(2)
        .build()
        .unwrap();
    let scheduler = Arc::new(
        Scheduler::with_trace(make_device(bench, 2), config, Some(Arc::clone(&collector))).unwrap(),
    );
    let spec = ModelSpec::new(bench.name(), scheduler, nf, 256);
    let server = SpnServer::serve(
        ServerConfig {
            trace: Some(Arc::clone(&collector)),
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap();

    let mut client = Client::connect(server.local_addr()).unwrap();
    let lls = client
        .request(bench.name())
        .samples(&vec![0u8; 2 * bench.num_vars()], 2, nf)
        .send()
        .unwrap();
    assert_eq!(lls.len(), 2);

    // `ReplyWritten` is recorded just after the reply hits the socket,
    // so the client can observe the reply first — wait for it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !collector
        .spans()
        .iter()
        .any(|s| s.kind == SpanKind::ReplyWritten)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "reply-written span never recorded"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let spans = collector.spans();
    let id = spans
        .iter()
        .find(|s| s.kind == SpanKind::BatchFormed)
        .expect("batch-formed span recorded")
        .ctx
        .trace_id;
    assert!(id.is_some(), "batch carries a minted trace id");
    for kind in [
        SpanKind::RequestQueued,
        SpanKind::ReplyWritten,
        SpanKind::H2D,
        SpanKind::Execute,
        SpanKind::D2H,
    ] {
        assert!(
            spans.iter().any(|s| s.kind == kind && s.ctx.trace_id == id),
            "no {kind:?} span carries trace id {id:?}; spans: {spans:?}"
        );
    }

    // The Chrome export carries the id on both layers' tracks
    // (server = pid 1, runtime = pid 0).
    let v: serde_json::Value = serde_json::from_str(&collector.to_chrome_json()).unwrap();
    let events = v.as_array().unwrap();
    for pid in [0u64, 1] {
        assert!(
            events
                .iter()
                .any(|e| e["pid"] == pid && e["args"]["trace_id"] == id.0),
            "pid {pid} track misses the request's trace id"
        );
    }
}

/// Graceful drain: a request parked in the batch queue when shutdown
/// is requested still receives its (correct) answer; *new* inference
/// after shutdown is refused.
#[test]
fn shutdown_drains_admitted_requests_then_refuses_new_ones() {
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let mut server = start_paced_server(
        bench,
        BatchPolicy {
            max_batch_samples: 1 << 20,
            max_batch_delay: Duration::from_secs(2),
        },
        Duration::from_millis(5),
    );
    let addr = server.local_addr();

    // Both PEs are busy for 200 ms, so client A's request parks in the
    // queue behind them.
    let blockers = occupy_pes(&server, bench, 40);
    let worker = std::thread::spawn(move || {
        let mut a = Client::connect(addr).unwrap();
        a.request(NipsBenchmark::Nips10.name())
            .samples(&[0u8; 10 * 10], 10, nf)
            .send()
    });
    let parked = |server: &SpnServer| {
        let models = server.telemetry_snapshot().models;
        models[bench.name()]
            .batcher
            .as_ref()
            .unwrap()
            .queued_samples
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while parked(&server) < 10 {
        assert!(std::time::Instant::now() < deadline, "A never parked");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Client B requests shutdown while A is still queued.
    let mut b = Client::connect(addr).unwrap();
    b.shutdown_server().unwrap();

    // A's admitted request is drained, not dropped.
    let lls = worker.join().unwrap().expect("admitted request completes");
    assert_eq!(lls.len(), 10);
    for b in blockers {
        assert_eq!(b.join().unwrap().unwrap().len(), 40);
    }

    // New inference on B's still-open connection is refused (either
    // with a typed status or a close, depending on when the
    // connection thread observes the flag — both are refusals).
    match b.request(bench.name()).samples(&[0u8; 10], 1, nf).send() {
        Err(ClientError::Rejected { status, .. }) => assert_eq!(status, Status::ShuttingDown),
        Err(ClientError::Io(_))
        | Err(ClientError::Wire(_))
        | Err(ClientError::ConnectionClosed) => {}
        Ok(_) => panic!("inference accepted after shutdown"),
    }

    server.shutdown(); // idempotent with the drop below
    let snap = server.metrics_snapshot();
    assert_eq!(snap.inflight_samples, 0, "drain left samples in flight");
}

/// A model served through the compiled-plan host backend: the
/// scheduler's device carries its SPN, `ModelSpec` routes every batch
/// to `ExecBackend::HostPlan`, the wire results are bit-identical to
/// the tree-walk oracle, and the stats document's `plan` section
/// reports the (eager) compile and cached plan.
#[test]
fn host_plan_backend_serves_bit_exact_results_over_the_wire() {
    use spn_core::{Evaluator, Query};
    use spn_runtime::{ExecBackend, PlanCache};

    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let spn = Arc::new(bench.build_spn());

    let prog = DatapathProgram::compile(&spn);
    let device = Arc::new(
        VirtualDevice::new(
            prog,
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            2,
            64 << 20,
        )
        .with_model(Arc::clone(&spn)),
    );
    let config = RuntimeConfig::builder()
        .block_samples(512)
        .threads_per_pe(2)
        .build()
        .unwrap();
    let cache = Arc::new(PlanCache::new());
    let scheduler =
        Arc::new(Scheduler::with_cache(device, config, None, Arc::clone(&cache)).unwrap());

    let spec = ModelSpec::new(bench.name(), scheduler, nf, 256).with_opts(
        JobOptions::builder()
            .backend(ExecBackend::HostPlan)
            .build()
            .unwrap(),
    );
    let mut server = SpnServer::serve(ServerConfig::default(), vec![spec]).unwrap();

    let dataset = bench.dataset(96, 21);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let served = client
        .request(bench.name())
        .samples(dataset.raw(), 96, nf)
        .send()
        .unwrap();

    let mut ev = Evaluator::new(&spn);
    for (row, &ll) in dataset.rows().zip(&served) {
        // The server replies with ln(p); the host backend stores the
        // oracle's exp(ll), so the round trip is ln(exp(ll)).
        let want = ev.eval_bytes(&Query::Complete, row).exp().ln();
        assert_eq!(ll.to_bits(), want.to_bits());
    }

    let snap = client.telemetry().unwrap();
    let plan = snap.plan.expect("stats document has a plan section");
    assert_eq!(plan.cached_plans, 1);
    assert_eq!(plan.cache_misses, 1, "the eager compile at construction");

    server.shutdown();
}
