//! The traced run: per-layer metrics measured from outside, by timing
//! each public call into a layer, plus the program's own counters and
//! `TraceCollector` spans.
//!
//! Times are reported at nominal machine speed like the end-to-end
//! metrics: every timed chunk is followed by a reference probe and
//! divided by its factor, so that differences of two of them
//! (`scheduler.overhead_us`, `router.hop_us`, …) are not differences of
//! two machine speeds. Counters, byte counts and the spans in the
//! Chrome trace are raw.

use crate::hist::Histogram;
use crate::json::{int, num, obj, text};
use crate::measure::{closed_loop, EndToEnd, Tally, SEGMENT_METRICS};
use crate::names::{Metrics, PER_LAYER};
use crate::payload::bits_equal;
use crate::reference::{probe_ns, Probes, NOMINAL_PROBE_NS};
use crate::stats::median;
use crate::sys::thread_cpu_ns;
use crate::trace::{chrome_trace_json, SpanLog};
use crate::workloads::{
    start_scheduler, Caller, Request, System, Workload, BATCH, BLOCK_SAMPLES, DOMAIN, REPLICATION,
};
use mem_model::{ClockConfig, HbmChannelConfig};
use serde_json::Value;
use spn_arith::AnyFormat;
use spn_core::{CompiledPlan, PlanExecutor, Query};
use spn_hw::{AcceleratorConfig, AcceleratorCore, DatapathProgram};
use spn_router::HashRing;
use spn_runtime::{simulate, PerfConfig, SpanCtx, TraceCollector};
use spn_server::protocol::{
    decode_results, encode_results, read_frame, write_frame, Frame, FrameDecoder, InferRequest,
    Opcode, Status,
};
use spn_server::{Batcher, Client, Reply, ServerMetrics};
use spn_telemetry::{LiveSpan, SpanKind};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chrome-trace process row of the benchmark's own spans (the
/// program's collector uses 0, 1 and 2).
const BENCH_PID: u32 = 10;
/// Requests (and program spans) written to the trace file; the metrics
/// use all of them, the file stays loadable.
const TRACE_FILE_REQUESTS: u64 = 2000;
const TRACE_FILE_PROGRAM_SPANS: usize = 10_000;
const MICRO_BUDGET: Duration = Duration::from_millis(250);

pub struct Layers {
    pub metrics: Metrics,
    pub trace_path: PathBuf,
    pub tally: Tally,
}

/// Median CPU ns per call of `f` at nominal machine speed, for calls
/// that do all their work on the calling thread: chunks of calls of
/// about 200 µs, timed with the thread's CPU clock so that being
/// preempted does not count, each followed by a reference probe whose
/// factor divides it, repeated for about `budget`.
fn cpu_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut chunk = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..chunk {
            f();
        }
        if t.elapsed() >= Duration::from_micros(200) || chunk >= 1 << 20 {
            break;
        }
        chunk *= 2;
    }
    let mut per_call = Vec::new();
    let t0 = Instant::now();
    while per_call.len() < 5 || t0.elapsed() < budget {
        let c0 = thread_cpu_ns();
        for _ in 0..chunk {
            f();
        }
        let ns = (thread_cpu_ns() - c0) as f64 / f64::from(chunk);
        per_call.push(ns / (probe_ns() / NOMINAL_PROBE_NS));
    }
    median(&per_call)
}

/// [`cpu_ns`] under a span in `log`.
fn micro(log: &mut SpanLog, name: &'static str, f: impl FnMut()) -> f64 {
    log.span(name, None, 0, || cpu_ns(MICRO_BUDGET, f))
}

/// One rung of the [`ladder`]: wall-clock µs of each round's call.
#[derive(Default)]
struct Rung(Vec<f64>);

impl Rung {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64() * 1e6);
        out
    }

    /// Median over the rounds of (this rung − the `inner` rungs of the
    /// same round), in µs; with no inner rung, the rung's own median.
    fn median_over(&self, inner: &[&Rung]) -> f64 {
        let differences: Vec<f64> = (0..self.0.len())
            .map(|i| self.0[i] - inner.iter().map(|r| r.0[i]).sum::<f64>())
            .collect();
        median(&differences)
    }
}

fn infer_request(w: Workload, req: &Request) -> InferRequest {
    InferRequest {
        model: w.model().name().to_string(),
        deadline_ms: 0,
        num_samples: req.dataset.num_samples() as u32,
        num_features: w.model().num_vars() as u32,
        data: req.dataset.raw().to_vec(),
        trace: true,
        ctx: SpanCtx::NONE,
    }
}

/// One traced request: a root span and one child per public call.
fn traced_call(
    w: Workload,
    caller: &mut Caller,
    req: &Request,
    id: u64,
    log: &mut SpanLog,
) -> bool {
    let root = log.open("request", None, id);
    let parent = Some(root);
    let reply: Result<Vec<f64>, String> = match caller {
        Caller::Wire { client, .. } => {
            let payload = log.span("protocol.encode_request", parent, id, || {
                infer_request(w, req).encode()
            });
            let stream = client.stream_mut();
            log.span("client.write_frame", parent, id, || {
                write_frame(stream, &Frame::request(Opcode::Infer, payload))
            })
            .map_err(|e| e.to_string())
            .and_then(|()| {
                log.span("client.read_frame", parent, id, || read_frame(stream))
                    .map_err(|e| e.to_string())
            })
            .and_then(|frame| {
                if frame.status != Status::Ok {
                    return Err(format!("status {}", frame.status.name()));
                }
                log.span("protocol.decode_reply", parent, id, || {
                    decode_results(&frame.payload)
                })
            })
        }
        Caller::Offline { scheduler, opts } => log
            .span("scheduler.submit", parent, id, || {
                scheduler.submit(Arc::clone(&req.dataset), *opts)
            })
            .and_then(|job| log.span("scheduler.wait", parent, id, || job.wait()))
            .map_err(|e| e.to_string()),
    };
    let ok = log.span(
        "bench.verify",
        parent,
        id,
        || matches!(&reply, Ok(r) if bits_equal(r, &req.oracle)),
    );
    log.close(root);
    ok
}

/// Loopback echo round trip against the benchmark's own echo thread,
/// in raw µs: what the sandbox's TCP stack costs with no program code
/// on either side.
fn pingpong_us() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept echo peer");
            peer.set_nodelay(true).expect("nodelay");
            let mut b = [0u8; 1];
            while peer.read_exact(&mut b).is_ok() {
                if peer.write_all(&b).is_err() {
                    break;
                }
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect to echo");
        stream.set_nodelay(true).expect("nodelay");
        let mut b = [7u8; 1];
        let mut trips = Rung::default();
        for _ in 0..2000 {
            trips.time(|| {
                stream.write_all(&b).expect("echo write");
                stream.read_exact(&mut b).expect("echo read");
            });
        }
        drop(stream);
        echo.join().expect("echo thread");
        trips.median_over(&[])
    })
}

/// What the router adds to a request, in µs at nominal speed: the
/// median over `pairs` of (round trip through the router) − (round
/// trip straight to a backend), same payload, taken back to back so
/// that both halves of a pair see the same machine.
fn router_hop_us(system: &System, pool: &[Request], pairs: usize, tally: &mut Tally) -> f64 {
    let backend = system.servers[0].local_addr();
    let mut direct = Caller::Wire {
        client: Client::connect(backend).expect("connect to a backend"),
        model: system.workload.model(),
    };
    let mut routed = system.caller();
    let mut probes = Probes::new();
    let mut timed = |caller: &mut Caller, req: &Request| {
        let t = Instant::now();
        let ok = caller.call_verified(req);
        tally.requests += 1;
        tally.failed += u64::from(!ok);
        t.elapsed().as_secs_f64() * 1e6
    };
    let differences: Vec<f64> = (0..pairs)
        .map(|i| {
            let req = &pool[i % pool.len()];
            let d = timed(&mut direct, req);
            let r = timed(&mut routed, req);
            probes.tick(Instant::now());
            r - d
        })
        .collect();
    median(&differences) / probes.factor()
}

/// What the untraced, one-caller part measured.
struct Baseline {
    /// Samples/s at nominal speed.
    rate: f64,
    requests: u64,
}

const LADDER_BUDGET: Duration = Duration::from_millis(1500);

/// The request path taken apart on one idle system. Every round makes
/// the same request once through each rung, innermost first — compute
/// alone, `Scheduler::submit(..).wait()`, `Batcher::enqueue` → reply,
/// `Client::ping`, the full round trip — so that the rungs of a round
/// see the same machine, and what a layer adds is the median over the
/// rounds of (its rung − the rungs inside it).
fn ladder(
    system: &System,
    pool: &[Request],
    m: &mut Metrics,
    log: &mut SpanLog,
    tally: &mut Tally,
) {
    let w = system.workload;
    let model = w.model();
    let n = w.samples_per_request();
    let features = model.num_vars();
    let spn = model.build_spn();
    let plan = CompiledPlan::compile(&spn);
    let mut executor = PlanExecutor::new(&plan);
    let core = AcceleratorCore::new(
        AcceleratorConfig::paper_default(),
        DatapathProgram::compile(&spn),
        AnyFormat::paper_default(),
    );
    let scheduler = start_scheduler(w, None, &mut None);
    let opts = w.job_options();
    let batcher = w.is_wire().then(|| {
        Batcher::new(
            model.name(),
            Arc::clone(&scheduler),
            features,
            DOMAIN,
            BATCH,
            opts,
            Arc::new(ServerMetrics::new()),
        )
    });
    let mut pinger = system
        .addr()
        .map(|addr| Client::connect(addr).expect("connect for ping"));
    let mut caller = system.caller();

    let span = log.open("ladder", None, 0);
    let (mut exec, mut submit, mut enqueue, mut ping, mut infer) = Default::default();
    let mut out = Vec::with_capacity(n);
    let mut probes = Probes::new();
    let t0 = Instant::now();
    let mut round = 0;
    while round < 20 || t0.elapsed() < LADDER_BUDGET {
        let req = &pool[round % pool.len()];
        round += 1;
        let raw = req.dataset.raw();
        Rung::time(&mut exec, || {
            if w.is_wire() {
                out.clear();
                executor.eval_batch_raw(&Query::Complete, raw, features, &mut out);
                std::hint::black_box(&out);
            } else {
                for block in raw.chunks(BLOCK_SAMPLES as usize * features) {
                    std::hint::black_box(core.run_job(block));
                }
            }
        });
        Rung::time(&mut submit, || {
            let job = scheduler
                .submit(Arc::clone(&req.dataset), opts)
                .expect("submit");
            std::hint::black_box(job.wait().expect("job completes"));
        });
        if let (Some(batcher), Some(pinger)) = (&batcher, &mut pinger) {
            // The feature block is copied inside the timed call (the
            // reactor hands its read buffer over instead): 320 KiB
            // against milliseconds of compute on `bulk_large`.
            Rung::time(&mut enqueue, || {
                let rx = batcher.enqueue(SpanCtx::NONE, raw.to_vec(), n as u32, None);
                assert!(matches!(rx.recv(), Ok(Reply::Ok(_))), "batcher reply");
            });
            Rung::time(&mut ping, || pinger.ping().expect("ping"));
            let ok = Rung::time(&mut infer, || caller.call_verified(req));
            tally.requests += 1;
            tally.failed += u64::from(!ok);
        }
        probes.tick(Instant::now());
    }
    log.close(span);
    if let Some(batcher) = &batcher {
        batcher.drain();
    }

    let f = probes.factor();
    m.set("scheduler.submit_wait_us", submit.median_over(&[]) / f);
    m.set("scheduler.overhead_us", submit.median_over(&[&exec]) / f);
    if w.is_wire() {
        m.set("batcher.enqueue_to_reply_us", enqueue.median_over(&[]) / f);
        m.set(
            "batcher.linger_wait_us",
            enqueue.median_over(&[&submit]) / f,
        );
        m.set("client.ping_rtt_us", ping.median_over(&[]) / f);
        m.set("client.infer_rtt_us", infer.median_over(&[]) / f);
        m.set(
            "server.unattributed_us",
            infer.median_over(&[&ping, &enqueue]) / f,
        );
    }
}

/// Untraced, one caller: the base of the tracing overhead, then what
/// needs a live idle system — the ladder and the router hop.
fn baseline(
    w: Workload,
    pool: &[Request],
    segment: Duration,
    m: &mut Metrics,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> Baseline {
    let system = System::start(w, None, None);
    let mut callers = vec![system.caller()];
    let mut hists = vec![Histogram::new()];
    closed_loop(
        w,
        &mut callers,
        pool,
        &mut hists,
        Duration::from_millis(300),
    );
    let seg = closed_loop(w, &mut callers, pool, &mut hists, segment);
    tally.add(seg.tally);
    drop(callers);
    ladder(&system, pool, m, log, tally);
    if w == Workload::RoutedSmall {
        m.set("router.hop_us", router_hop_us(&system, pool, 2000, tally));
    }
    drop(system);
    Baseline {
        rate: seg.raw[0] * seg.probes.factor(),
        requests: seg.tally.requests,
    }
}

fn add(m: &mut Metrics, name: &str, count: u64) {
    m.set(name, m.get(name) + count as f64);
}

/// The program's own counters after the traced segment: scheduler,
/// plan cache, server, reactor and router telemetry.
fn read_counters(system: &System, requests: u64, secs: f64, m: &mut Metrics) {
    let (mut pes, mut busy_secs) = (0u32, 0.0);
    for s in &system.schedulers {
        let snap = s.metrics_snapshot();
        pes += s.device().num_pes();
        busy_secs += snap.pe_busy_secs.iter().sum::<f64>();
        add(m, "scheduler.blocks_executed", snap.blocks_executed);
        add(m, "scheduler.block_retries", snap.block_retries);
        add(m, "device.h2d_bytes", snap.h2d_bytes);
        add(m, "device.d2h_bytes", snap.d2h_bytes);
        let cache = s.plan_cache().telemetry();
        add(m, "plan_cache.hits", cache.cache_hits);
        add(m, "plan_cache.misses", cache.cache_misses);
    }
    m.set(
        "scheduler.pe_busy_share",
        busy_secs / (f64::from(pes) * secs),
    );
    let mut samples = 0u64;
    let (mut loop_iterations, mut readiness_events) = (0u64, 0u64);
    for s in &system.servers {
        let snap = s.telemetry_snapshot();
        let serving = snap.server.expect("server telemetry section");
        add(m, "server.batches_total", serving.batches_total);
        add(m, "server.requests_total", serving.requests_total);
        let rejected = serving.rejected_malformed
            + serving.rejected_unknown_model
            + serving.rejected_shape_mismatch
            + serving.rejected_server_busy
            + serving.rejected_deadline
            + serving.rejected_shutting_down
            + serving.rejected_internal;
        add(m, "server.rejected_total", rejected);
        samples += serving.samples_total;
        // With two backends: the busier one's median.
        let wait_us = serving.queue_wait_seconds.p50 * 1e6;
        if wait_us > m.get("server.queue_wait_p50_us") {
            m.set("server.queue_wait_p50_us", wait_us);
        }
        let reactor = snap.reactor.expect("reactor telemetry section");
        loop_iterations += reactor.loop_iterations;
        readiness_events += reactor.readiness_events;
    }
    if !system.servers.is_empty() {
        m.set(
            "server.batch_samples_mean",
            samples as f64 / m.get("server.batches_total").max(1.0),
        );
        m.set(
            "reactor.loop_iterations_per_request",
            loop_iterations as f64 / requests as f64,
        );
        m.set(
            "reactor.readiness_events_per_request",
            readiness_events as f64 / requests as f64,
        );
    }
    if let Some(router) = &system.router {
        let snap = router.telemetry_snapshot();
        let r = snap.router.expect("router telemetry section");
        m.set("router.requests_total", r.requests_total as f64);
        m.set("router.failovers_total", r.failovers_total as f64);
        let least = r.backends.values().map(|b| b.requests_total).min();
        m.set(
            "router.backend_min_share",
            least.unwrap_or(0) as f64 / (r.requests_total as f64).max(1.0),
        );
    }
}

/// Spans of the traced segment: the benchmark's and the program's.
struct Traced {
    setup_log: SpanLog,
    request_log: SpanLog,
    program_spans: Vec<LiveSpan>,
}

/// Traced, one caller: spans around every call the benchmark makes,
/// the program's collector attached, counters read afterwards.
fn traced_segment(
    w: Workload,
    pool: &[Request],
    segment: Duration,
    base: &Baseline,
    epoch: Instant,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Traced {
    let collector = Arc::new(TraceCollector::new());
    let mut setup_log = SpanLog::new(epoch, 0, 64);
    let system = System::start(w, Some(&collector), Some(&mut setup_log));
    let mut caller = setup_log.span("client.connect", None, 0, || system.caller());
    let expected = (base.requests as usize * 2).max(1024);
    let mut request_log = SpanLog::new(epoch, 1, expected * 6);
    let mut probes = Probes::new();
    let (t0, mut traced) = (Instant::now(), Tally::default());
    while t0.elapsed() < segment {
        let id = traced.requests + 1;
        let req = &pool[id as usize % pool.len()];
        let ok = traced_call(w, &mut caller, req, id, &mut request_log);
        traced.requests += 1;
        traced.failed += u64::from(!ok);
        probes.tick(Instant::now());
    }
    let secs = t0.elapsed().as_secs_f64();
    tally.add(traced);
    let samples = (traced.requests - traced.failed) * w.samples_per_request() as u64;
    let rate = samples as f64 / secs * probes.factor();
    m.set("telemetry.trace_overhead_share", 1.0 - rate / base.rate);
    read_counters(&system, traced.requests, secs, m);
    drop(caller);
    setup_log.span("system.shutdown", None, 0, || drop(system));

    let program_spans = collector.spans();
    let launches: Vec<f64> = program_spans
        .iter()
        .filter(|s| s.kind == SpanKind::Execute)
        .map(|s| s.dur_us)
        .collect();
    if !launches.is_empty() {
        m.set("device.launch_us_per_block", median(&launches));
    }
    Traced {
        setup_log,
        request_log,
        program_spans,
    }
}

/// Codec floors of `spn-server::protocol` on this workload's frames.
fn protocol_floors(w: Workload, first: &Request, m: &mut Metrics, log: &mut SpanLog) {
    let request = infer_request(w, first);
    let mut request_bytes = Vec::new();
    write_frame(
        &mut request_bytes,
        &Frame::request(Opcode::Infer, request.encode()),
    )
    .expect("write to a Vec");
    let mut reply_bytes = Vec::new();
    write_frame(
        &mut reply_bytes,
        &Frame::response(Opcode::Infer, Status::Ok, encode_results(&first.oracle)),
    )
    .expect("write to a Vec");
    m.set("protocol.request_bytes", request_bytes.len() as f64);
    m.set("protocol.reply_bytes", reply_bytes.len() as f64);

    let mut sink = Vec::with_capacity(request_bytes.len());
    m.set(
        "protocol.encode_request_us",
        micro(log, "protocol.encode_request", || {
            sink.clear();
            write_frame(&mut sink, &Frame::request(Opcode::Infer, request.encode()))
                .expect("write to a Vec");
            std::hint::black_box(&sink);
        }) / 1e3,
    );
    m.set(
        "protocol.decode_request_us",
        micro(log, "protocol.decode_request", || {
            let mut decoder = FrameDecoder::new();
            let (_, frame) = decoder.feed(&request_bytes).expect("well-formed frame");
            let frame = frame.expect("one whole frame");
            std::hint::black_box(InferRequest::decode_owned(frame.payload).expect("decodes"));
        }) / 1e3,
    );
    m.set(
        "protocol.encode_reply_us",
        micro(log, "protocol.encode_reply", || {
            sink.clear();
            let frame = Frame::response(Opcode::Infer, Status::Ok, encode_results(&first.oracle));
            write_frame(&mut sink, &frame).expect("write to a Vec");
            std::hint::black_box(&sink);
        }) / 1e3,
    );
    m.set(
        "protocol.decode_reply_us",
        micro(log, "protocol.decode_reply", || {
            let frame = read_frame(&mut &reply_bytes[..]).expect("well-formed frame");
            std::hint::black_box(decode_results(&frame.payload).expect("decodes"));
        }) / 1e3,
    );
}

/// The virtual-time device model (`spn-runtime::perf`, `mem-model`,
/// `pcie-model`) for this workload's model on two PEs. Simulated time
/// repeats exactly; only `perf.simulate_host_ms` is host time.
fn simulated_device(w: Workload, m: &mut Metrics, log: &mut SpanLog) {
    let config = PerfConfig::paper_setup(w.model(), 2);
    let result = simulate(&config);
    m.set("perf.sim_samples_per_s", result.samples_per_sec);
    m.set("perf.sim_pe_utilization", result.pe_utilization);
    m.set("perf.sim_dma_utilization", result.dma_utilization);
    m.set("perf.sim_pcie_bytes", result.pcie_bytes as f64);
    m.set(
        "hbm.sustained_gib_s",
        HbmChannelConfig::calibrated(ClockConfig::Half225DoubleWidth)
            .sustained_bandwidth()
            .gib_per_sec(),
    );
    m.set(
        "perf.simulate_host_ms",
        micro(log, "perf.simulate", || {
            std::hint::black_box(simulate(&config));
        }) / 1e6,
    );
}

/// Floors that need no live system: each layer's public entry point
/// called directly, on this workload's model, request shape and
/// frames. Returns the compute floor in ns per sample: the plan
/// executor's on the wire workloads, the datapath's on
/// `device_offline`.
fn floors(w: Workload, first: &Request, m: &mut Metrics, log: &mut SpanLog) -> f64 {
    let model = w.model();
    let n = w.samples_per_request();
    let features = model.num_vars();
    let raw = first.dataset.raw();
    let spn = model.build_spn();
    m.set(
        "hw.compile_us",
        micro(log, "hw.compile", || {
            std::hint::black_box(DatapathProgram::compile(&spn));
        }) / 1e3,
    );
    let program = DatapathProgram::compile(&spn);
    m.set("hw.program_ops", program.ops().len() as f64);
    let floor_ns_per_sample;
    if w.is_wire() {
        m.set(
            "core.plan_compile_us",
            micro(log, "core.plan_compile", || {
                std::hint::black_box(CompiledPlan::compile(&spn));
            }) / 1e3,
        );
        let plan = CompiledPlan::compile(&spn);
        m.set("core.plan_instrs", plan.len() as f64);
        let mut executor = PlanExecutor::new(&plan);
        let mut out = Vec::with_capacity(n);
        floor_ns_per_sample = micro(log, "core.plan_exec", || {
            out.clear();
            executor.eval_batch_raw(&Query::Complete, raw, features, &mut out);
            std::hint::black_box(&out);
        }) / n as f64;
        m.set("core.plan_exec_ns_per_sample", floor_ns_per_sample);
        protocol_floors(w, first, m, log);
    } else {
        let core = AcceleratorCore::new(
            AcceleratorConfig::paper_default(),
            program,
            AnyFormat::paper_default(),
        );
        let block = &raw[..BLOCK_SAMPLES as usize * features];
        floor_ns_per_sample = micro(log, "hw.datapath", || {
            std::hint::black_box(core.run_job(block));
        }) / BLOCK_SAMPLES as f64;
        m.set("hw.datapath_ns_per_sample", floor_ns_per_sample);
        simulated_device(w, m, log);
    }
    if w == Workload::RoutedSmall {
        let backends = ["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()];
        let ring = HashRing::new(&backends);
        m.set(
            "ring.replicas_lookup_ns",
            micro(log, "ring.replicas", || {
                std::hint::black_box(ring.replicas(model.name(), REPLICATION));
            }),
        );
    }
    m.set(
        "ref.pingpong_us",
        log.span("ref.pingpong", None, 0, pingpong_us),
    );
    floor_ns_per_sample
}

/// A program span as a Chrome trace event, on the rows the program's
/// own export uses: runtime 0 (a track per PE), server 1 and router 2
/// (a track per request).
fn program_event(s: &LiveSpan) -> Value {
    let (pid, tid) = if s.kind.is_router() {
        (2, s.ctx.trace_id.0)
    } else if s.kind.is_server() {
        (1, s.ctx.trace_id.0)
    } else {
        (0, u64::from(s.pe))
    };
    obj(vec![
        ("name", text(s.kind.label())),
        ("cat", text(s.kind.category())),
        ("ph", text("X")),
        ("ts", num(s.ts_us)),
        ("dur", num(s.dur_us)),
        ("pid", int(pid)),
        ("tid", int(tid)),
        (
            "args",
            obj(vec![
                ("trace_id", int(s.ctx.trace_id.0)),
                ("pe", int(u64::from(s.pe))),
                ("block", int(s.block)),
            ]),
        ),
    ])
}

/// Write `trace-<workload>.json`: the benchmark's spans (set-up,
/// the first requests, microbenchmarks), then the program's own.
fn write_trace(
    w: Workload,
    traced: &Traced,
    micro_log: &SpanLog,
    probe_us: f64,
    out_dir: &Path,
) -> PathBuf {
    let mut events = traced.setup_log.chrome_events(BENCH_PID, 0);
    events.extend(
        traced
            .request_log
            .chrome_events(BENCH_PID, TRACE_FILE_REQUESTS),
    );
    events.extend(micro_log.chrome_events(BENCH_PID, 0));
    events.extend(
        traced
            .program_spans
            .iter()
            .take(TRACE_FILE_PROGRAM_SPANS)
            .map(program_event),
    );
    events.push(obj(vec![
        ("name", text("process_name")),
        ("ph", text("M")),
        ("pid", int(u64::from(BENCH_PID))),
        (
            "args",
            obj(vec![
                ("name", text("benchmark (outside-in spans)")),
                ("workload", text(w.name())),
                ("ref_nominal_probe_us", num(NOMINAL_PROBE_NS / 1e3)),
                ("ref_probe_us", num(probe_us)),
            ]),
        ),
    ]));
    std::fs::create_dir_all(out_dir).expect("create the trace directory");
    let path = out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, chrome_trace_json(events)).expect("write the Chrome trace");
    path
}

/// Run the traced segments and microbenchmarks of workload `w` for
/// about `seconds`, write `trace-<workload>.json` into `out_dir`, and
/// fill every per-layer metric. `e2e` is the untraced two-caller
/// measurement made in the same process just before.
pub fn trace_layers(
    w: Workload,
    pool: &[Request],
    seconds: f64,
    e2e: &EndToEnd,
    out_dir: &Path,
) -> Layers {
    let mut m = Metrics::new(&PER_LAYER);
    let mut tally = Tally::default();
    let segment = Duration::from_secs_f64(seconds / 4.0);
    let epoch = Instant::now();

    let mut micro_log = SpanLog::new(epoch, 2, 64);
    let base = baseline(w, pool, segment, &mut m, &mut micro_log, &mut tally);
    let traced = traced_segment(w, pool, segment, &base, epoch, &mut m, &mut tally);
    let floor_ns_per_sample = floors(w, &pool[0], &mut m, &mut micro_log);

    // Derived and bookkeeping, from the untraced two-caller part.
    m.set(
        "overhead.serving_x",
        e2e.value(3) * 1e3 / floor_ns_per_sample,
    );
    m.set("ref.probe_us", e2e.probe_us);
    let (factor_min, factor_max) = e2e.factor_range();
    m.set("ref.factor_min", factor_min);
    m.set("ref.factor_max", factor_max);
    m.set("raw.setup_s", e2e.setup_raw_s);
    m.set("segments.count", e2e.raw.len() as f64);
    m.set("segments.spread_iqr.setup_s", e2e.setup_spread);
    for (i, (name, _)) in SEGMENT_METRICS.iter().enumerate() {
        m.set(&format!("raw.{name}"), e2e.raw_value(i));
        m.set(&format!("segments.spread_iqr.{name}"), e2e.spread(i));
    }
    let bench_spans =
        traced.setup_log.spans().len() + traced.request_log.spans().len() + micro_log.spans().len();
    m.set(
        "telemetry.spans_recorded",
        (bench_spans + traced.program_spans.len()) as f64,
    );

    let trace_path = write_trace(w, &traced, &micro_log, e2e.probe_us, out_dir);
    Layers {
        metrics: m,
        trace_path,
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ns_counts_work_not_sleep() {
        let ns = cpu_ns(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_micros(300));
        });
        assert!(ns < 150_000.0, "sleeping is not CPU time: {ns} ns");
        let mut x = 1u64;
        let ns = cpu_ns(Duration::from_millis(20), || {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        });
        assert!(ns > 1_000.0, "{ns} ns");
    }

    #[test]
    fn a_layer_adds_the_median_of_paired_differences() {
        let outer = Rung(vec![10.0, 30.0, 20.0]);
        let inner = Rung(vec![4.0, 25.0, 12.0]);
        let innermost = Rung(vec![1.0, 1.0, 1.0]);
        assert_eq!(outer.median_over(&[]), 20.0);
        // Differences 6, 5, 8 — not 20 − 12.
        assert_eq!(outer.median_over(&[&inner]), 6.0);
        assert_eq!(outer.median_over(&[&inner, &innermost]), 5.0);
    }

    #[test]
    fn pingpong_is_a_positive_round_trip() {
        let us = pingpong_us();
        assert!(us > 0.5 && us < 10_000.0, "{us} us");
    }
}
