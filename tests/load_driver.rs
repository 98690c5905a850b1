//! The one load driver's client-side rules, against in-process SPN1
//! echoes shaped like loadgen's own test server: the retry rule for
//! `run_load` and `replay` alike, a first reply of `ServerBusy` that is
//! no more than one request's verdict, and open-loop firing (no request
//! before its fire time, lanes independent of each other, one request
//! in flight per lane).

use spn_server::protocol::{encode_results, read_frame, write_frame};
use spn_server::replay::effective_arrival_ns;
use spn_server::{
    digest_bytes, digest_lls, replay, run_load, synthetic_samples, Frame, InferRequest, LoadConfig,
    Opcode, ReplayConfig, Status, Trace, TraceRecord,
};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The echo's answer: one log-likelihood per sample, minus the sum of
/// its feature bytes.
fn echo_lls(data: &[u8], num_features: u32) -> Vec<f64> {
    data.chunks(num_features as usize)
        .map(|row| -row.iter().map(|&b| f64::from(b)).sum::<f64>())
        .collect()
}

/// When the echo read each request and began writing each reply, by
/// the request's model name.
#[derive(Default)]
struct Log {
    received: HashMap<String, Instant>,
    replying: HashMap<String, Instant>,
}

/// How long a held reply waits for its release before it goes out
/// anyway: a hang watchdog, reached only when the release never comes.
const HOLD_WATCHDOG: Duration = Duration::from_secs(10);

/// How the echo departs from a plain server.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Quirk {
    None,
    /// Close every connection after its first reply.
    OneReply,
    /// Answer every connection's first request `ServerBusy`, as a
    /// loaded server's admission control does, and keep it open.
    BusyFirst,
}

/// An in-process SPN1 echo. Each connection gets a reader, which logs
/// a request the moment it is read, and a writer, which answers in
/// order, so a request sent early is seen early whatever the writer is
/// doing.
struct Echo {
    addr: SocketAddr,
    /// The log, and the signal that it gained a received request.
    log: Arc<(Mutex<Log>, Condvar)>,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl Echo {
    /// `hold: Some((held, until))` holds the reply to model `held`'s
    /// request until model `until`'s request has been read.
    fn start(quirk: Quirk, hold: Option<(&'static str, &'static str)>) -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let log = Arc::new((Mutex::new(Log::default()), Condvar::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (log2, stop2) = (Arc::clone(&log), Arc::clone(&stop));
        let accept = thread::spawn(move || {
            let mut threads = Vec::new();
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let mut reader = stream.unwrap();
                let mut writer = reader.try_clone().unwrap();
                let (tx, rx) = mpsc::channel::<InferRequest>();
                let log = Arc::clone(&log2);
                threads.push(thread::spawn(move || {
                    while let Ok(frame) = read_frame(&mut reader) {
                        let req = InferRequest::decode(&frame.payload).unwrap();
                        let (lock, read) = &*log;
                        let now = Instant::now();
                        lock.lock().unwrap().received.insert(req.model.clone(), now);
                        read.notify_all();
                        if tx.send(req).is_err() {
                            return;
                        }
                    }
                }));
                let log = Arc::clone(&log2);
                threads.push(thread::spawn(move || {
                    let mut busy = quirk == Quirk::BusyFirst;
                    for req in rx {
                        let (lock, read) = &*log;
                        if let Some((_, until)) = hold.filter(|&(held, _)| req.model == held) {
                            let unread = |l: &mut Log| !l.received.contains_key(until);
                            drop(read.wait_timeout_while(
                                lock.lock().unwrap(),
                                HOLD_WATCHDOG,
                                unread,
                            ));
                        }
                        let now = Instant::now();
                        lock.lock().unwrap().replying.insert(req.model.clone(), now);
                        let lls = echo_lls(&req.data, req.num_features);
                        let reply = if std::mem::take(&mut busy) {
                            Frame::error(Opcode::Infer, Status::ServerBusy, "retry later")
                        } else {
                            Frame::response(Opcode::Infer, Status::Ok, encode_results(&lls))
                        };
                        if write_frame(&mut writer, &reply).is_err() || quirk == Quirk::OneReply {
                            let _ = writer.shutdown(Shutdown::Both);
                            return;
                        }
                    }
                }));
            }
            for t in threads {
                t.join().unwrap();
            }
        });
        Echo {
            addr,
            log,
            stop,
            accept,
        }
    }

    fn received(&self, model: &str) -> Instant {
        self.log.0.lock().unwrap().received[model]
    }

    fn replying(&self, model: &str) -> Instant {
        self.log.0.lock().unwrap().replying[model]
    }

    /// Stop accepting and join every thread, so a panic in one fails
    /// the test. Call once the client has closed its connections.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr).unwrap());
        self.accept.join().unwrap();
    }
}

/// A trace whose lane `l` issues one request per entry of
/// `arrivals_ms[l]`, at that offset, asking for model `L{l}R{i}`; every
/// record carries the echo's reply digest.
fn lanes_trace(arrivals_ms: &[&[u64]]) -> Trace {
    let mut records = Vec::new();
    for (lane, times) in arrivals_ms.iter().enumerate() {
        for (i, &ms) in times.iter().enumerate() {
            let (num_samples, num_features, domain) = (2, 3, 7);
            let seed = (lane * 100 + i) as u64;
            let payload = synthetic_samples(num_samples, num_features, domain, seed);
            records.push(TraceRecord {
                arrival_ns: ms * 1_000_000,
                conn: lane as u32,
                model: format!("L{lane}R{i}"),
                num_samples,
                num_features,
                domain,
                seed,
                payload_digest: digest_bytes(&payload),
                reply_digest: Some(digest_lls(&echo_lls(&payload, num_features))),
            });
        }
    }
    records.sort_by_key(|r| (r.arrival_ns, r.conn));
    Trace {
        run_seed: 0,
        records,
    }
}

/// The retry rule, closed loop: a server that closes every connection
/// after one reply still answers all of a `run_load`, one fresh dial a
/// request.
#[test]
fn run_load_resends_a_request_once_on_a_fresh_dial() {
    let echo = Echo::start(Quirk::OneReply, None);
    let report = run_load(&LoadConfig {
        addr: echo.addr,
        model: "m".into(),
        num_features: 3,
        connections: 2,
        requests_per_connection: 3,
        samples_per_request: 2,
        ..LoadConfig::default()
    })
    .unwrap();
    assert_eq!(report.ok_requests, 6, "{}", report.summary());
    assert_eq!(report.dropped_connections, 0, "{}", report.summary());
    echo.stop();
}

/// The same rule under replay, where the connection dies while the
/// lane waits for its next fire time.
#[test]
fn replay_resends_a_request_once_on_a_fresh_dial() {
    let echo = Echo::start(Quirk::OneReply, None);
    let trace = lanes_trace(&[&[0, 5, 10], &[0, 5, 10]]);
    let rep = replay(&trace, &ReplayConfig::new(echo.addr)).unwrap();
    assert_eq!(rep.ok_requests, 6, "{}", rep.summary());
    assert_eq!(rep.transport_errors, 0, "{}", rep.summary());
    assert_eq!(rep.digests_checked, 6, "{}", rep.summary());
    assert!(rep.is_faithful(), "{}", rep.summary());
    echo.stop();
}

/// A `ServerBusy` as a connection's first reply, on a connection the
/// server keeps open, is one rejected request: the connection carries
/// on, in `run_load` and `replay` alike.
#[test]
fn a_first_reply_busy_on_an_open_connection_rejects_one_request() {
    let echo = Echo::start(Quirk::BusyFirst, None);
    let report = run_load(&LoadConfig {
        addr: echo.addr,
        model: "m".into(),
        num_features: 3,
        connections: 2,
        requests_per_connection: 3,
        samples_per_request: 2,
        ..LoadConfig::default()
    })
    .unwrap();
    assert_eq!(report.rejected_requests, 2, "{}", report.summary());
    assert_eq!(report.ok_requests, 4, "{}", report.summary());
    assert_eq!(report.dropped_connections, 0, "{}", report.summary());

    let trace = lanes_trace(&[&[0, 5, 10], &[0, 5, 10]]);
    let rep = replay(&trace, &ReplayConfig::new(echo.addr)).unwrap();
    assert_eq!(rep.rejected_requests, 2, "{}", rep.summary());
    assert_eq!(rep.ok_requests, 4, "{}", rep.summary());
    assert_eq!(rep.transport_errors, 0, "{}", rep.summary());
    assert_eq!(rep.digests_checked, 4, "{}", rep.summary());
    assert!(rep.is_faithful(), "{}", rep.summary());
    echo.stop();
}

/// Open-loop firing, with lane 0's first reply held until lane 2's
/// request (+100 ms) has been read: no request goes out before its
/// scaled offset; lane 2, which shares lane 0's epoll worker, fires
/// while lane 0 still waits; lane 0's second request, due at +50 ms,
/// waits for lane 0's first reply. Every verdict is an order of events
/// or a lower bound, so a slow box cannot break it.
#[test]
fn replay_fires_at_recorded_offsets_one_request_in_flight_per_lane() {
    let trace = lanes_trace(&[&[0, 50], &[0], &[100]]);
    for speed in [1.0, 2.0] {
        let echo = Echo::start(Quirk::None, Some(("L0R0", "L2R0")));
        let mut cfg = ReplayConfig::new(echo.addr);
        cfg.speed = speed;
        let t_call = Instant::now();
        let rep = replay(&trace, &cfg).unwrap();
        assert_eq!(rep.ok_requests, 4, "speed {speed}: {}", rep.summary());
        assert!(rep.is_faithful(), "speed {speed}: {}", rep.summary());

        for r in &trace.records {
            let earliest = t_call + Duration::from_nanos(effective_arrival_ns(r.arrival_ns, &cfg));
            assert!(
                echo.received(&r.model) >= earliest,
                "speed {speed}: {} received before its fire time",
                r.model
            );
        }
        assert!(
            echo.received("L2R0") <= echo.replying("L0R0"),
            "speed {speed}: lane 2 waited for lane 0's reply"
        );
        assert!(
            echo.received("L0R1") >= echo.replying("L0R0"),
            "speed {speed}: lane 0 sent a second request before its first reply"
        );
        echo.stop();
    }
}
