//! Load generation against a running server.
//!
//! One driver (`drive_load`) for `spn load`, `spn record` and
//! `spn replay`, the studies and the tests — 4 connections or the
//! 10k-connection reactor smoke, the same code. A fixed pair of epoll
//! worker threads holds every nonblocking connection. Each connection
//! draws its requests from a source, `(conn, req) → Option<LoadRequest>`,
//! and keeps one in flight, so the *offered concurrency equals the
//! connection count* however fast the server drains. A request with a
//! fire time (replay's recorded arrival) goes out at the later of that
//! time and its connection's previous reply; [`run_load`]'s carry none,
//! and their payloads are a pure function of the run seed
//! (`request_seed`).
//!
//! Every connection is dialed before the fire clock starts, and a
//! request's latency clock starts when its first byte is handed to the
//! kernel, so dial time ([`LoadReport::dial_ms`]) is in no request's
//! latency. Latencies go into one lock-free
//! [`AtomicHistogram`] (p50/p95/p99 at ≈9 % resolution, exact `max`).
//!
//! One retry rule: a connection that dies before its request's reply
//! arrives is dialed once more and the request re-sent (inference is
//! idempotent); a second death drops it. The stall bound runs only
//! while a request is in flight, so waiting for a fire time is no stall.
//! A first reply of `ServerBusy` is one rejected request; if the server
//! closes after it, the connection is dropped without a fresh dial.

use crate::client::ClientError;
use crate::protocol::{decode_results, read_some, write_some, FrameDecoder, InferFields, Status};
use epoll::{Epoll, Event, EPOLLERR, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use sim_core::SplitMix64;
use spn_telemetry::AtomicHistogram;
use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Epoll worker threads; connection `i` goes to worker `i % WORKERS`.
const WORKERS: usize = 2;

/// A worker with a request in flight that sees no reply on any of its
/// connections for this long gives up on them (they count as dropped,
/// the run still reports), so a wedged server cannot hang the
/// generator. No dial waits longer either. Unit tests get a bound short
/// enough to cross.
const STALL_TIMEOUT: Duration = Duration::from_millis(if cfg!(test) { 400 } else { 120_000 });

/// What load to offer.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Model name on the wire.
    pub model: String,
    /// Features per sample (must match the model).
    pub num_features: u32,
    /// Feature domain: synthetic values are drawn from `0..domain`.
    pub domain: u8,
    /// Concurrent connections, clamped to the process fd budget (see
    /// `clamp_connections`; [`LoadReport::connections`] says what
    /// was actually offered).
    pub connections: usize,
    /// Requests each connection issues, one in flight at a time.
    pub requests_per_connection: usize,
    /// Samples per request (1 = pure per-request serving; larger
    /// values emulate clients that batch on their side).
    pub samples_per_request: u32,
    /// Per-request deadline in ms (`0` = none).
    pub deadline_ms: u32,
    /// Seed for the synthetic feature data.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            model: String::new(),
            num_features: 1,
            domain: 2,
            connections: 4,
            requests_per_connection: 64,
            samples_per_request: 1,
            deadline_ms: 0,
            seed: 1,
        }
    }
}

impl LoadConfig {
    /// [`run_load`]'s source: request `req` of connection `conn`, seeded
    /// by `request_seed`, `None` past `requests_per_connection`.
    pub(crate) fn request(&self, conn: u64, req: u64) -> Option<LoadRequest<'_>> {
        (req < self.requests_per_connection as u64).then(|| LoadRequest {
            model: &self.model,
            num_samples: self.samples_per_request,
            num_features: self.num_features,
            domain: self.domain,
            seed: request_seed(self.seed, conn, req),
            deadline_ms: self.deadline_ms,
            at_ns: None,
        })
    }
}

/// Aggregated result of one load run: request-level throughput and
/// latency plus connection-level accounting (at 10k+ connections the
/// interesting failures are *connection* failures, not request
/// rejections).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections the run offered (after fd-budget clamping).
    pub connections: usize,
    /// Connections whose first reply was `ServerBusy`: turned away at
    /// accept (the server's connection limit), or that first request
    /// bounced by admission control.
    pub rejected_at_accept: u64,
    /// Connections that could not be dialed or died mid-run (reset,
    /// unexpected EOF, or abandoned after the stall bound).
    pub dropped_connections: u64,
    /// Milliseconds spent dialing every connection before the first
    /// request went out: part of `elapsed`, of no request's latency.
    pub dial_ms: f64,
    /// Requests answered `Ok`.
    pub ok_requests: u64,
    /// Requests rejected by the server (busy / deadline / …).
    pub rejected_requests: u64,
    /// Samples across successful requests.
    pub ok_samples: u64,
    /// Wall-clock of the whole run, dial phase included.
    pub elapsed: Duration,
    /// Successful samples per second of wall-clock.
    pub samples_per_sec: f64,
    /// Median request latency, milliseconds (histogram resolution).
    pub p50_ms: f64,
    /// 95th-percentile request latency, ms (histogram resolution).
    pub p95_ms: f64,
    /// 99th-percentile request latency, ms (histogram resolution).
    pub p99_ms: f64,
    /// Worst request latency, milliseconds (exact).
    pub max_ms: f64,
}

impl LoadReport {
    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} connections ({} rejected at accept, {} dropped), dialed in {:.3} ms; \
             {} ok / {} rejected requests, {} samples in {:.3} s \
             => {:.0} samples/s; latency p50 {:.3} ms, p95 {:.3} ms, \
             p99 {:.3} ms, max {:.3} ms",
            self.connections,
            self.rejected_at_accept,
            self.dropped_connections,
            self.dial_ms,
            self.ok_requests,
            self.rejected_requests,
            self.ok_samples,
            self.elapsed.as_secs_f64(),
            self.samples_per_sec,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms
        )
    }
}

/// Deterministic synthetic feature block ([`SplitMix64`] over the
/// seed).
pub fn synthetic_samples(num_samples: u32, num_features: u32, domain: u8, seed: u64) -> Vec<u8> {
    let n = num_samples as usize * num_features as usize;
    let mut rng = SplitMix64::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (0..n)
        .map(|_| (rng.next_u64() % u64::from(domain.max(1))) as u8)
        .collect()
}

/// The seed a worker uses for request `req` on connection `conn`:
/// an FNV-style spread of the run seed so every (connection, request)
/// pair draws a distinct synthetic block, yet the whole request
/// stream is a pure function of [`LoadConfig::seed`]. Public so
/// scaling sweeps can replay the exact stream a load run offered
/// (e.g. to compare routed and direct responses sample for sample).
pub(crate) fn request_seed(run_seed: u64, conn: u64, req: u64) -> u64 {
    run_seed
        .wrapping_add(conn)
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(req)
}

/// One request a connection issues, as its source hands it to
/// `drive_load`: the payload's shape and seed (the payload itself is
/// regenerated by [`synthetic_samples`]) and the earliest moment it may
/// go out.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadRequest<'a> {
    /// Model name on the wire.
    pub model: &'a str,
    /// Samples in the request.
    pub num_samples: u32,
    /// Features per sample.
    pub num_features: u32,
    /// Feature domain the payload is drawn from.
    pub domain: u8,
    /// The seed that regenerates the payload.
    pub seed: u64,
    /// Deadline in ms (`0` = none).
    pub deadline_ms: u32,
    /// Earliest fire time, nanoseconds after the fire clock starts;
    /// `None` fires as soon as the connection's previous reply is in.
    pub at_ns: Option<u64>,
}

/// One issued request, as seen by a [`LoadObserver`]: everything a
/// trace recorder needs to make the request reproducible (the seed
/// regenerates the payload; the reply is there to digest).
#[derive(Debug)]
pub(crate) struct RequestEvent<'a> {
    /// Connection index within the run (`0..connections`).
    pub conn: u32,
    /// Request index on that connection.
    pub req: u64,
    /// Nanoseconds between the fire clock's start (every connection
    /// dialed) and the moment this request's first byte went out (its
    /// arrival offset).
    pub arrival_ns: u64,
    /// The request as its source handed it over: model, shape and the
    /// seed that regenerates the payload bit-for-bit.
    pub request: LoadRequest<'a>,
    /// The payload bytes as sent.
    pub payload: &'a [u8],
    /// The server's log-likelihoods, or `None` if it rejected the
    /// request.
    pub reply: Option<&'a [f64]>,
}

/// Observes every request a load run answers — the hook the trace
/// recorder ([`crate::record`]) and the replayer ([`crate::replay`])
/// hang off the driver.
/// Called from both worker threads, so implementations synchronise
/// internally.
pub(crate) trait LoadObserver: Send + Sync {
    /// One request was issued and answered (or rejected).
    fn on_request(&self, event: &RequestEvent<'_>);
}

/// Run the load described by `cfg` and aggregate a report.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    drive_load(cfg.addr, cfg.connections, &|c, r| cfg.request(c, r), None)
}

/// What the workers of one run share.
struct Run<'r, 'a> {
    addr: SocketAddr,
    source: &'r (dyn Fn(u64, u64) -> Option<LoadRequest<'a>> + Sync),
    observer: Option<&'r dyn LoadObserver>,
    latency: AtomicHistogram,
    /// The fire clock's start: every connection dialed.
    t0: Instant,
}

/// Open `connections` connections to `addr` (fd-budget clamped, see
/// `clamp_connections`); connection `conn` issues `source(conn, req)`
/// for `req = 0, 1, …` until `None`, and every answer goes to
/// `observer`. Connection failures are counted in the report; the run
/// fails only if epoll setup fails or no connection could be dialed.
pub(crate) fn drive_load<'a>(
    addr: SocketAddr,
    connections: usize,
    source: &(dyn Fn(u64, u64) -> Option<LoadRequest<'a>> + Sync),
    observer: Option<&dyn LoadObserver>,
) -> Result<LoadReport, ClientError> {
    assert!(connections > 0, "need at least one connection");
    let total = clamp_connections(connections);
    let workers = WORKERS.min(total);
    // Dial everything first: loopback dials take microseconds, so a
    // blocking loop stands up 10k sockets in well under a second with
    // no nonblocking-connect bookkeeping, and in no request's latency.
    let start = Instant::now();
    let mut agg = WorkerStats::default();
    let mut dial_error = None;
    let mut shares: Vec<Vec<LoadConn>> = (0..workers).map(|_| Vec::new()).collect();
    for i in 0..total {
        match dial(addr, Instant::now() + STALL_TIMEOUT) {
            Ok(stream) => shares[i % workers].push(LoadConn::new(stream, i as u64)),
            // Kernel-level refusal (nothing listening, or backlog
            // overflow under a dial storm).
            Err(e) => {
                agg.dropped += 1;
                dial_error = Some(e);
            }
        }
    }
    if let (Some(e), true) = (dial_error, agg.dropped == total as u64) {
        return Err(e.into());
    }
    let run = Run {
        addr,
        source,
        observer,
        latency: AtomicHistogram::latency(),
        t0: Instant::now(),
    };
    let outcomes: Vec<io::Result<WorkerStats>> = thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = shares
            .into_iter()
            .map(|conns| scope.spawn(move || load_worker(run, conns)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    for outcome in outcomes {
        let w = outcome?;
        agg.ok += w.ok;
        agg.rejected += w.rejected;
        agg.ok_samples += w.ok_samples;
        agg.rejected_at_accept += w.rejected_at_accept;
        agg.dropped += w.dropped;
    }
    let elapsed = start.elapsed();
    let lat = run.latency.summary();
    Ok(LoadReport {
        connections: total,
        rejected_at_accept: agg.rejected_at_accept,
        dropped_connections: agg.dropped,
        dial_ms: run.t0.duration_since(start).as_secs_f64() * 1e3,
        ok_requests: agg.ok,
        rejected_requests: agg.rejected,
        ok_samples: agg.ok_samples,
        elapsed,
        samples_per_sec: agg.ok_samples as f64 / elapsed.as_secs_f64().max(1e-12),
        p50_ms: lat.p50 * 1e3,
        p95_ms: lat.p95 * 1e3,
        p99_ms: lat.p99 * 1e3,
        max_ms: lat.max * 1e3,
    })
}

#[derive(Default)]
struct WorkerStats {
    ok: u64,
    rejected: u64,
    ok_samples: u64,
    rejected_at_accept: u64,
    dropped: u64,
}

/// Clamp a wanted connection count to what the process's fd budget
/// can actually hold, after trying to raise the soft `RLIMIT_NOFILE`
/// to fit, with a margin for everything else the process has open
/// (stdio, the workers' epoll fds, whatever the embedding CLI or test
/// harness holds). `drive_load` clamps through here, so a
/// 10k-connection ask on an 8k box degrades to a loud smaller run
/// instead of an `EMFILE` crash mid-dial.
pub(crate) fn clamp_connections(want: usize) -> usize {
    let margin = 64 + WORKERS as u64;
    let need = want as u64 + margin;
    let soft = epoll::raise_nofile_limit(need).or_else(|_| epoll::nofile_limit().map(|l| l.0));
    let Ok(soft) = soft else { return want };
    want.min(soft.saturating_sub(margin) as usize).max(1)
}

/// Where a connection stands after the worker has acted on it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A request is in flight: wait for its reply.
    Open,
    /// The next request waits for its fire time, off epoll.
    Park(Instant),
    /// The source has nothing more for it.
    Done,
    /// The connection died before the current request's reply.
    Dead,
}

/// Per-connection state machine: one request in flight at a time,
/// mirroring the server's own serial-per-connection discipline from
/// the client side.
struct LoadConn<'a> {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The current request's frame and how much of it the kernel took.
    out: Vec<u8>,
    out_at: usize,
    /// Global connection index (the source's `conn`).
    conn: u64,
    /// Requests already answered (the current one's `req`).
    answered: u64,
    /// The current request and its feature block, as sent.
    req: LoadRequest<'a>,
    data: Vec<u8>,
    /// Whether the current request has had its fresh dial.
    retried: bool,
    /// When the current request's first byte went out: its latency clock.
    sent_at: Instant,
}

/// A nonblocking `TCP_NODELAY` connection to `addr`, given up at
/// `deadline` (at once if it has passed).
fn dial(addr: SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
    let timeout = deadline.saturating_duration_since(Instant::now());
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

impl<'a> LoadConn<'a> {
    fn new(stream: TcpStream, conn: u64) -> LoadConn<'a> {
        LoadConn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_at: 0,
            conn,
            answered: 0,
            req: LoadRequest::default(),
            data: Vec::new(),
            retried: false,
            sent_at: Instant::now(),
        }
    }

    /// Build `req`'s frame. Nothing is sent and no clock starts until
    /// [`LoadConn::fire`].
    fn queue_request(&mut self, req: LoadRequest<'a>) {
        self.data = synthetic_samples(req.num_samples, req.num_features, req.domain, req.seed);
        self.out = InferFields {
            model: req.model,
            deadline_ms: req.deadline_ms,
            num_samples: req.num_samples,
            num_features: req.num_features,
            data: &self.data,
            trace: true,
        }
        .encode_frame();
        self.out_at = 0;
        self.req = req;
        self.retried = false;
    }

    /// Draw the next request from the source and fire it, or park it
    /// until its fire time.
    fn next(&mut self, run: &Run<'_, 'a>) -> Step {
        let Some(req) = (run.source)(self.conn, self.answered) else {
            return Step::Done;
        };
        self.queue_request(req);
        match req.at_ns.map(|ns| run.t0 + Duration::from_nanos(ns)) {
            Some(at) if at > Instant::now() => Step::Park(at),
            _ => self.fire(),
        }
    }

    /// The retry rule: once per request, swap in a fresh connection to
    /// `addr`, dialed by `deadline`, and rewind the frame, to be sent
    /// whole again.
    fn redial(&mut self, addr: SocketAddr, deadline: Instant) -> bool {
        if std::mem::replace(&mut self.retried, true) {
            return false;
        }
        let Ok(stream) = dial(addr, deadline) else {
            return false;
        };
        self.stream = stream;
        self.decoder = FrameDecoder::new();
        self.out_at = 0;
        true
    }

    /// Hand pending request bytes to the kernel until it would block;
    /// leftovers wait for `EPOLLOUT`.
    fn fire(&mut self) -> Step {
        if self.out_at == 0 && !self.out.is_empty() {
            self.sent_at = Instant::now();
        }
        write_some(&mut self.stream, &[], &self.out, &mut self.out_at)
            .map_or(Step::Dead, |_| Step::Open)
    }
}

struct Worker<'r, 'a> {
    run: &'r Run<'r, 'a>,
    epoll: Epoll,
    conns: Vec<Option<LoadConn<'a>>>,
    /// Parked connections by fire time, off epoll until then.
    timers: BTreeSet<(Instant, usize)>,
    /// Connections neither done nor dropped, parked ones included.
    live: usize,
    /// The latest reply, or the latest moment nothing was in flight:
    /// the start of the stall clock.
    last_reply: Instant,
    stats: WorkerStats,
}

/// Drive `conns` to completion on one epoll instance.
fn load_worker<'a>(run: &Run<'_, 'a>, conns: Vec<LoadConn<'a>>) -> io::Result<WorkerStats> {
    let mut w = Worker {
        run,
        epoll: Epoll::new()?,
        live: conns.len(),
        conns: conns.into_iter().map(Some).collect(),
        timers: BTreeSet::new(),
        last_reply: run.t0,
        stats: WorkerStats::default(),
    };
    for slot in 0..w.conns.len() {
        let step = w.conns[slot].as_mut().map_or(Step::Done, |c| c.next(run));
        w.settle(slot, step, false)?;
    }

    let mut events = vec![Event::zeroed(); 256];
    while w.live > 0 {
        let now = Instant::now();
        if w.live == w.timers.len() {
            // Nothing in flight: waiting for a fire time is no stall.
            w.last_reply = now;
        }
        let stall = w.last_reply + STALL_TIMEOUT;
        if now >= stall {
            w.stats.dropped += w.live as u64;
            break;
        }
        let wake = w.timers.first().map_or(stall, |&(at, _)| stall.min(at));
        let timeout = wake.saturating_duration_since(now);
        let n = w.epoll.wait(&mut events, Some(timeout))?;
        for ev in &events[..n] {
            let slot = ev.token() as usize;
            let step = w.on_ready(slot, ev.readiness());
            w.settle(slot, step, true)?;
        }
        let now = Instant::now();
        while let Some(&(at, slot)) = w.timers.first() {
            if at > now {
                break;
            }
            if w.live == w.timers.len() {
                // Nothing in flight: the stall clock starts with this request.
                w.last_reply = now;
            }
            w.timers.pop_first();
            let step = w.conns[slot].as_mut().map_or(Step::Done, LoadConn::fire);
            w.settle(slot, step, false)?;
        }
    }
    Ok(w.stats)
}

impl<'a> Worker<'_, 'a> {
    /// Send what `slot` still owes and read its replies, drawing the
    /// next request after each.
    fn on_ready(&mut self, slot: usize, ready: u32) -> Step {
        let Some(conn) = self.conns[slot].as_mut() else {
            return Step::Done;
        };
        if ready & EPOLLERR != 0 || conn.fire() == Step::Dead {
            return Step::Dead;
        }
        loop {
            let frame = match read_some(&mut conn.stream, &mut conn.decoder) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Step::Open,
                Err(_) => return Step::Dead,
            };
            self.run.latency.record_duration(conn.sent_at.elapsed());
            self.last_reply = Instant::now();
            let lls = (frame.status == Status::Ok)
                .then(|| decode_results(&frame.payload).unwrap_or_default());
            match &lls {
                Some(lls) => {
                    self.stats.ok += 1;
                    self.stats.ok_samples += lls.len() as u64;
                }
                None => self.stats.rejected += 1,
            }
            // A first reply of `ServerBusy` may be the accept-time
            // connection-limit frame or one request's admission verdict.
            let busy_at_accept = conn.answered == 0 && frame.status == Status::ServerBusy;
            self.stats.rejected_at_accept += u64::from(busy_at_accept);
            if let Some(obs) = self.run.observer {
                obs.on_request(&RequestEvent {
                    conn: conn.conn as u32,
                    req: conn.answered,
                    arrival_ns: conn.sent_at.duration_since(self.run.t0).as_nanos() as u64,
                    request: conn.req,
                    payload: &conn.data,
                    reply: lls.as_deref(),
                });
            }
            conn.answered += 1;
            let step = conn.next(self.run);
            // If the server closes after it, a fresh dial would meet the
            // same limit: the next request gets none.
            conn.retried |= busy_at_accept;
            if step != Step::Open {
                return step;
            }
        }
    }

    /// Act on where `slot` stands (`registered`: its socket is on epoll).
    fn settle(&mut self, slot: usize, step: Step, registered: bool) -> io::Result<()> {
        let Some(conn) = self.conns[slot].as_mut() else {
            return Ok(());
        };
        if step == Step::Open {
            let unsent = conn.out_at < conn.out.len();
            let interest = EPOLLIN | EPOLLRDHUP | if unsent { EPOLLOUT } else { 0 };
            let token = slot as u64;
            return if registered {
                self.epoll.modify(&conn.stream, interest, token)
            } else {
                self.epoll.add(&conn.stream, interest, token)
            };
        }
        if registered {
            self.epoll.delete(&conn.stream)?;
        }
        match step {
            Step::Park(at) => {
                self.timers.insert((at, slot));
            }
            // The redial blocks the worker: no longer than the stall
            // clock has left.
            Step::Dead if conn.redial(self.run.addr, self.last_reply + STALL_TIMEOUT) => {
                let step = conn.fire();
                return self.settle(slot, step, false);
            }
            _ => {
                self.stats.dropped += u64::from(step == Step::Dead);
                self.conns[slot] = None;
                self.live -= 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_data_is_deterministic_and_in_domain() {
        let a = synthetic_samples(10, 5, 7, 42);
        let b = synthetic_samples(10, 5, 7, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|&v| v < 7));
        assert_ne!(a, synthetic_samples(10, 5, 7, 43));
    }

    /// Known answer: recorded traces carry digests of these payloads,
    /// so the generator may never change.
    #[test]
    fn synthetic_data_known_answer() {
        assert_eq!(
            synthetic_samples(4, 5, 7, 42),
            [5, 0, 2, 6, 4, 2, 6, 6, 5, 5, 6, 1, 4, 0, 5, 3, 4, 4, 6, 6]
        );
    }

    /// The frame a connection queues is byte for byte the frame of the
    /// `InferRequest` carrying the seeded synthetic block.
    #[test]
    fn queued_frame_is_the_seeded_request_frame() {
        use crate::protocol::{encode_frame, InferRequest, Opcode};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = LoadConfig {
            addr: listener.local_addr().unwrap(),
            model: "NIPS10".into(),
            num_features: 10,
            domain: 9,
            samples_per_request: 3,
            deadline_ms: 5,
            seed: 11,
            ..LoadConfig::default()
        };
        let mut conn = LoadConn::new(dial(cfg.addr, Instant::now() + STALL_TIMEOUT).unwrap(), 2);
        conn.queue_request(cfg.request(2, 4).unwrap());
        let seed = request_seed(11, 2, 4);
        let req = InferRequest {
            model: cfg.model.clone(),
            deadline_ms: 5,
            num_samples: 3,
            num_features: 10,
            data: synthetic_samples(3, 10, 9, seed),
            trace: true,
            ctx: spn_telemetry::SpanCtx::NONE,
        };
        assert_eq!(conn.req.seed, seed);
        assert_eq!(conn.data, req.data);
        assert_eq!(
            conn.out,
            encode_frame(Opcode::Infer, Status::Ok, &req.encode())
        );
    }

    /// A request's latency clock starts when its first byte is handed
    /// to the kernel — not when the frame was built — so a
    /// connection's first latency cannot grow with the time spent on
    /// whatever the worker does in between (dialing every later
    /// connection).
    #[test]
    fn latency_clock_starts_at_the_first_write_not_at_dial() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = LoadConfig {
            addr: listener.local_addr().unwrap(),
            model: "m".into(),
            ..LoadConfig::default()
        };
        let mut conn = LoadConn::new(dial(cfg.addr, Instant::now() + STALL_TIMEOUT).unwrap(), 0);
        conn.queue_request(cfg.request(0, 0).unwrap());
        // Everything the worker does between building the first frame
        // and sending it happens here.
        thread::sleep(Duration::from_millis(20));
        let fired = Instant::now();
        assert!(conn.fire() == Step::Open);
        assert_eq!(conn.out_at, conn.out.len(), "small frame goes out whole");
        assert!(conn.sent_at >= fired, "clock started before the write");
    }

    /// End to end against a tiny in-process SPN1 echo: the dial phase
    /// is reported on its own and every connection is accounted for.
    #[test]
    fn run_load_reports_dial_time_and_connection_accounting() {
        use crate::protocol::{
            encode_results, read_frame, write_frame, Frame, InferRequest, Opcode,
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let conns: Vec<_> = (0..3)
                .map(|_| {
                    let (mut s, _) = listener.accept().unwrap();
                    thread::spawn(move || {
                        while let Ok(frame) = read_frame(&mut s) {
                            let req = InferRequest::decode(&frame.payload).unwrap();
                            let lls = vec![-1.0; req.num_samples as usize];
                            let reply =
                                Frame::response(Opcode::Infer, Status::Ok, encode_results(&lls));
                            write_frame(&mut s, &reply).unwrap();
                        }
                    })
                })
                .collect();
            for c in conns {
                c.join().unwrap();
            }
        });
        let report = run_load(&LoadConfig {
            addr,
            model: "m".into(),
            num_features: 3,
            connections: 3,
            requests_per_connection: 5,
            samples_per_request: 2,
            ..LoadConfig::default()
        })
        .unwrap();
        server.join().unwrap();
        assert_eq!(report.connections, 3);
        assert_eq!(report.dropped_connections, 0, "{}", report.summary());
        assert_eq!(report.ok_requests, 15);
        assert_eq!(report.ok_samples, 30);
        assert!(report.dial_ms > 0.0);
        assert!(report.summary().contains("dialed in"));
    }

    /// The stall clock runs only while a request is in flight. Request 1
    /// fires after nearly two stall bounds with nothing in flight, and
    /// its reply takes half a bound: it still counts. Request 2 is never
    /// answered, and the run gives up on it one bound later.
    #[test]
    fn stall_clock_starts_when_a_request_fires_after_a_gap() {
        use crate::protocol::{
            encode_results, read_frame, write_frame, Frame, InferRequest, Opcode,
        };
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for hold in [Duration::ZERO, STALL_TIMEOUT / 2] {
                let req = InferRequest::decode(&read_frame(&mut s).unwrap().payload).unwrap();
                thread::sleep(hold);
                let lls = vec![-1.0; req.num_samples as usize];
                let reply = Frame::response(Opcode::Infer, Status::Ok, encode_results(&lls));
                write_frame(&mut s, &reply).unwrap();
            }
            // Swallow request 2 until the client gives up on it.
            while read_frame(&mut s).is_ok() {}
        });
        let gap = STALL_TIMEOUT * 15 / 8;
        let source = |_, req: u64| {
            (req < 3).then_some(LoadRequest {
                model: "m",
                num_samples: 1,
                num_features: 3,
                domain: 2,
                seed: req,
                deadline_ms: 0,
                at_ns: (req == 1).then_some(gap.as_nanos() as u64),
            })
        };
        let report = drive_load(addr, 1, &source, None).unwrap();
        server.join().unwrap();
        assert_eq!(report.ok_requests, 2, "{}", report.summary());
        assert_eq!(report.dropped_connections, 1, "{}", report.summary());
    }

    #[test]
    fn refused_run_is_an_error_not_an_empty_report() {
        // Bind-then-drop leaves a port nothing listens on.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let cfg = LoadConfig {
            addr,
            model: "m".into(),
            ..LoadConfig::default()
        };
        assert!(run_load(&cfg).is_err());
    }

    #[test]
    fn request_seeds_are_deterministic_and_distinct_per_stream() {
        // The same (run seed, connection, request) triple always maps
        // to the same seed — a sweep re-running with the same
        // `--seed` offers bit-identical request streams.
        assert_eq!(request_seed(1, 0, 0), request_seed(1, 0, 0));
        // Nearby connections and requests never collide in a small
        // window (the multiply spreads the connection index far
        // beyond the request index range).
        let mut seen = std::collections::HashSet::new();
        for conn in 0..8u64 {
            for req in 0..1000u64 {
                assert!(
                    seen.insert(request_seed(42, conn, req)),
                    "seed collision at conn {conn} req {req}"
                );
            }
        }
        // And distinct run seeds give distinct streams.
        assert_ne!(request_seed(1, 0, 0), request_seed(2, 0, 0));
    }

    #[test]
    fn report_summary_names_all_percentiles() {
        let report = LoadReport {
            connections: 4,
            rejected_at_accept: 0,
            dropped_connections: 0,
            dial_ms: 0.5,
            ok_requests: 10,
            rejected_requests: 2,
            ok_samples: 10,
            elapsed: Duration::from_secs(1),
            samples_per_sec: 10.0,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            max_ms: 4.0,
        };
        let s = report.summary();
        for needle in ["p50", "p95", "p99", "max"] {
            assert!(s.contains(needle), "summary missing {needle}: {s}");
        }
    }
}
