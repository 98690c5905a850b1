//! Load generation against a running server.
//!
//! One driver ([`run_load`]) shared by the `spn load` / `spn record`
//! CLI subcommands, the studies and the integration tests — the
//! 4-connection tests and the 10k-connection reactor smoke run the
//! same code. A fixed pair of epoll-multiplexed worker threads holds
//! all the nonblocking connections; every connection issues
//! `requests_per_connection` `Infer` requests of `samples_per_request`
//! synthetic samples, one in flight at a time, so the *offered
//! concurrency equals the connection count* however fast the server
//! drains. Request payloads are a pure function of the run seed via
//! [`request_seed`].
//!
//! Each worker dials all of its connections *before* any request goes
//! out, and a request's latency clock starts when its first byte is
//! handed to the kernel — so no request's latency includes time spent
//! dialing other connections, and the dial phase is reported on its
//! own ([`LoadReport::dial_ms`]). Per-request wall-clock latency is
//! recorded into one shared lock-free [`AtomicHistogram`];
//! percentiles (p50/p95/p99, ≈9 % bucket resolution) come from the
//! histogram summary and `max` stays exact.

use crate::client::ClientError;
use crate::protocol::{decode_results, read_some, write_some, FrameDecoder, InferFields, Status};
use epoll::{Epoll, Event, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use sim_core::SplitMix64;
use spn_telemetry::AtomicHistogram;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Epoll worker threads sharing a run's connections (each owns
/// `connections / WORKERS`, remainder spread over the first few).
const WORKERS: usize = 2;

/// A worker that sees no reply on any of its connections for this long
/// gives up on them (they count as dropped, the run still reports), so
/// a wedged server cannot hang the generator.
const STALL_TIMEOUT: Duration = Duration::from_secs(120);

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
    /// [`clamp_connections`]; [`LoadReport::connections`] says what
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

/// Aggregated result of one load run: request-level throughput and
/// latency plus connection-level accounting (at 10k+ connections the
/// interesting failures are *connection* failures, not request
/// rejections).
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections the run offered (after fd-budget clamping).
    pub connections: usize,
    /// Connections the server turned away at accept with `ServerBusy`
    /// (its connection limit).
    pub rejected_at_accept: u64,
    /// Connections that could not be dialed or died mid-run (reset,
    /// unexpected EOF, or abandoned after the stall bound).
    pub dropped_connections: u64,
    /// Time the slower worker spent dialing its connections before
    /// its first request went out, milliseconds. Part of `elapsed`,
    /// part of no request's latency.
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
    /// 95th-percentile request latency, milliseconds (histogram
    /// resolution).
    pub p95_ms: f64,
    /// 99th-percentile request latency, milliseconds (histogram
    /// resolution).
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
pub fn request_seed(run_seed: u64, conn: u64, req: u64) -> u64 {
    run_seed
        .wrapping_add(conn)
        .wrapping_mul(0x100_0000_01B3)
        .wrapping_add(req)
}

/// One issued request, as seen by a [`LoadObserver`]: everything a
/// trace recorder needs to make the request reproducible (the seed
/// regenerates the payload; the reply is there to digest).
#[derive(Debug)]
pub struct RequestEvent<'a> {
    /// Connection index within the run (`0..connections`).
    pub conn: u32,
    /// Request index on that connection.
    pub req: u64,
    /// Nanoseconds between the run's start and the moment this
    /// request's first byte went out (its arrival offset).
    pub arrival_ns: u64,
    /// Model name on the wire.
    pub model: &'a str,
    /// Samples in the request.
    pub num_samples: u32,
    /// Features per sample.
    pub num_features: u32,
    /// Feature domain the payload was drawn from.
    pub domain: u8,
    /// The per-request seed ([`request_seed`]) that regenerates the
    /// payload bit-for-bit.
    pub seed: u64,
    /// The payload bytes as sent.
    pub payload: &'a [u8],
    /// The server's log-likelihoods, or `None` if it rejected the
    /// request.
    pub reply: Option<&'a [f64]>,
}

/// Observes every request a load run issues — the hook the trace
/// recorder (`spn-replay`) hangs off the loadgen path. Called from
/// both worker threads, so implementations synchronise internally.
pub trait LoadObserver: Send + Sync {
    /// One request was issued and answered (or rejected).
    fn on_request(&self, event: &RequestEvent<'_>);
}

/// Run the load described by `cfg` and aggregate a report.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    run_load_observed(cfg, None)
}

/// [`run_load`], reporting every answered request to `observer` (the
/// recorder hook — see [`LoadObserver`]).
///
/// Connection failures are counted in the report, not returned; the
/// run fails only when the generator itself cannot work (epoll setup)
/// or a worker could not dial a single connection.
pub fn run_load_observed(
    cfg: &LoadConfig,
    observer: Option<&dyn LoadObserver>,
) -> Result<LoadReport, ClientError> {
    assert!(cfg.connections > 0, "need at least one connection");
    let mut cfg = cfg.clone();
    // Margin: stdio + per-worker epoll fds + slack for whatever the
    // embedding process (CLI, test harness) holds open.
    cfg.connections = clamp_connections(cfg.connections, 64 + WORKERS);
    let total = cfg.connections;
    let workers = WORKERS.min(total);
    let latency = AtomicHistogram::latency();
    let t0 = Instant::now();
    let outcomes: Vec<io::Result<WorkerStats>> = thread::scope(|scope| {
        let (cfg, latency) = (&cfg, &latency);
        let mut base = 0usize;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let count = total / workers + usize::from(w < total % workers);
                let first = base;
                base += count;
                scope.spawn(move || load_worker(cfg, first, count, latency, t0, observer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let mut agg = WorkerStats::default();
    for outcome in outcomes {
        let w = outcome?;
        agg.ok += w.ok;
        agg.rejected += w.rejected;
        agg.ok_samples += w.ok_samples;
        agg.rejected_at_accept += w.rejected_at_accept;
        agg.dropped += w.dropped;
        agg.dial = agg.dial.max(w.dial);
    }
    let elapsed = t0.elapsed();
    let lat = latency.summary();
    Ok(LoadReport {
        connections: total,
        rejected_at_accept: agg.rejected_at_accept,
        dropped_connections: agg.dropped,
        dial_ms: agg.dial.as_secs_f64() * 1e3,
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
    /// How long this worker's dial phase took.
    dial: Duration,
}

/// Clamp a wanted connection count to what the process's fd budget
/// can actually hold, after trying to raise the soft `RLIMIT_NOFILE`
/// to fit. `margin` covers everything else the process has open
/// (listener, epoll fds, stdio, …). Both the loadgen and the CLI
/// clamp through here so a 10k-connection ask on an 8k box degrades
/// to a loud smaller run instead of an `EMFILE` crash mid-dial.
pub fn clamp_connections(want: usize, margin: usize) -> usize {
    let need = want as u64 + margin as u64;
    let soft = match epoll::raise_nofile_limit(need) {
        Ok(soft) => soft,
        Err(_) => match epoll::nofile_limit() {
            Ok((soft, _)) => soft,
            Err(_) => return want,
        },
    };
    want.min(soft.saturating_sub(margin as u64) as usize).max(1)
}

/// Per-connection state machine: one request in flight at a time,
/// mirroring the server's own serial-per-connection discipline from
/// the client side.
struct LoadConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The in-flight request's frame and how much of it the kernel
    /// has accepted.
    out: Vec<u8>,
    out_at: usize,
    /// Global connection index (seeds the request stream).
    conn: u64,
    /// Requests already answered.
    answered: u64,
    /// The in-flight request's seed and feature block (what a
    /// [`LoadObserver`] is shown).
    seed: u64,
    data: Vec<u8>,
    /// When the in-flight request's first byte was handed to the
    /// kernel — the start of its latency clock.
    sent_at: Instant,
}

impl LoadConn {
    fn new(stream: TcpStream, conn: u64) -> io::Result<LoadConn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LoadConn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_at: 0,
            conn,
            answered: 0,
            seed: 0,
            data: Vec::new(),
            sent_at: Instant::now(),
        })
    }

    /// Build the next request's frame. Nothing is sent and no clock
    /// starts until [`LoadConn::flush`].
    fn queue_request(&mut self, cfg: &LoadConfig) {
        self.seed = request_seed(cfg.seed, self.conn, self.answered);
        self.data = synthetic_samples(
            cfg.samples_per_request,
            cfg.num_features,
            cfg.domain,
            self.seed,
        );
        self.out = InferFields {
            model: &cfg.model,
            deadline_ms: cfg.deadline_ms,
            num_samples: cfg.samples_per_request,
            num_features: cfg.num_features,
            data: &self.data,
            trace: true,
        }
        .encode_frame();
        self.out_at = 0;
    }

    /// Hand pending request bytes to the kernel until it would block;
    /// leftovers wait for `EPOLLOUT`. Returns `false` when the
    /// connection is dead.
    fn flush(&mut self) -> bool {
        if self.out_at == 0 && !self.out.is_empty() {
            self.sent_at = Instant::now();
        }
        write_some(&mut self.stream, &[], &self.out, &mut self.out_at).is_ok()
    }

    fn interest(&self) -> u32 {
        if self.out_at < self.out.len() {
            EPOLLIN | EPOLLOUT | EPOLLRDHUP
        } else {
            EPOLLIN | EPOLLRDHUP
        }
    }
}

/// Drive `count` connections (global indices starting at `base`) to
/// completion on one epoll instance.
fn load_worker(
    cfg: &LoadConfig,
    base: usize,
    count: usize,
    latency: &AtomicHistogram,
    t0: Instant,
    observer: Option<&dyn LoadObserver>,
) -> io::Result<WorkerStats> {
    let mut out = WorkerStats::default();
    let epoll = Epoll::new()?;
    // Dial everything first. Loopback dials complete in microseconds,
    // so a blocking loop is simpler than nonblocking-connect
    // bookkeeping and still stands up 10k sockets in well under a
    // second; because no request is sent until the loop is done, the
    // time it takes is in nobody's latency.
    let dial_start = Instant::now();
    let mut dial_error = None;
    let mut conns: Vec<Option<LoadConn>> = (0..count)
        .map(|i| {
            let dialed = TcpStream::connect(cfg.addr)
                .and_then(|stream| LoadConn::new(stream, (base + i) as u64));
            match dialed {
                Ok(conn) => Some(conn),
                Err(e) => {
                    // Kernel-level refusal (nothing listening, or
                    // backlog overflow under a dial storm).
                    out.dropped += 1;
                    dial_error = Some(e);
                    None
                }
            }
        })
        .collect();
    out.dial = dial_start.elapsed();
    match dial_error {
        Some(e) if out.dropped == count as u64 => return Err(e),
        _ => {}
    }

    let mut live = 0usize;
    for (slot, entry) in conns.iter_mut().enumerate() {
        let Some(conn) = entry else { continue };
        conn.queue_request(cfg);
        if conn.flush() {
            epoll.add(&conn.stream, conn.interest(), slot as u64)?;
            live += 1;
        } else {
            out.dropped += 1;
            *entry = None;
        }
    }

    let mut events = vec![Event::zeroed(); 256];
    let mut last_reply = Instant::now();
    while live > 0 {
        if last_reply.elapsed() >= STALL_TIMEOUT {
            out.dropped += live as u64;
            break;
        }
        let n = epoll.wait(&mut events, Some(Duration::from_millis(100)))?;
        for ev in &events[..n] {
            let slot = ev.token() as usize;
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            let ready = ev.readiness();
            let mut close = ready & EPOLLERR != 0 || !conn.flush();
            let mut done = false;
            // Decode replies.
            while !close && !done {
                let frame = match read_some(&mut conn.stream, &mut conn.decoder) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(_) => {
                        close = true;
                        break;
                    }
                };
                latency.record_duration(conn.sent_at.elapsed());
                last_reply = Instant::now();
                let lls = (frame.status == Status::Ok)
                    .then(|| decode_results(&frame.payload).unwrap_or_default());
                match &lls {
                    Some(lls) => {
                        out.ok += 1;
                        out.ok_samples += lls.len() as u64;
                    }
                    None => {
                        out.rejected += 1;
                        // A `ServerBusy` before anything was answered
                        // may be the accept-time connection-limit frame
                        // rather than a per-request verdict; either way
                        // the connection is not getting service — count
                        // it and let the close that follows stand.
                        if conn.answered == 0 && frame.status == Status::ServerBusy {
                            out.rejected_at_accept += 1;
                        }
                    }
                }
                if let Some(obs) = observer {
                    obs.on_request(&RequestEvent {
                        conn: conn.conn as u32,
                        req: conn.answered,
                        arrival_ns: conn.sent_at.saturating_duration_since(t0).as_nanos() as u64,
                        model: &cfg.model,
                        num_samples: cfg.samples_per_request,
                        num_features: cfg.num_features,
                        domain: cfg.domain,
                        seed: conn.seed,
                        payload: &conn.data,
                        reply: lls.as_deref(),
                    });
                }
                conn.answered += 1;
                if conn.answered >= cfg.requests_per_connection as u64 {
                    done = true;
                } else {
                    conn.queue_request(cfg);
                    close = !conn.flush();
                }
            }
            if ready & (EPOLLRDHUP | EPOLLHUP) != 0 && conn.out_at >= conn.out.len() && !done {
                close = true;
            }
            if close || done {
                if !done {
                    out.dropped += 1;
                }
                let _ = epoll.delete(&conn.stream);
                conns[slot] = None;
                live -= 1;
            } else {
                epoll.modify(&conn.stream, conn.interest(), slot as u64)?;
            }
        }
    }
    Ok(out)
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
        let mut conn = LoadConn::new(TcpStream::connect(cfg.addr).unwrap(), 2).unwrap();
        conn.answered = 4;
        conn.queue_request(&cfg);
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
        assert_eq!(conn.seed, seed);
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
        let mut conn = LoadConn::new(TcpStream::connect(cfg.addr).unwrap(), 0).unwrap();
        conn.queue_request(&cfg);
        // Everything the worker does between building the first frame
        // and sending it happens here.
        thread::sleep(Duration::from_millis(20));
        let fired = Instant::now();
        assert!(conn.flush());
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
