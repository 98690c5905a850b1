//! The open-loop replayer: re-issue a recorded [`Trace`] against a
//! live server or router.
//!
//! Open-loop means arrivals come from the *recorded clock*, not from
//! response completions: each original connection becomes a replay
//! lane (one thread + one [`Client`]) that fires its requests at the
//! recorded offsets from a shared start instant, regardless of how
//! fast the system under test answers. A slow server therefore sees
//! queue build-up exactly as production would — the property a
//! closed-loop loadgen (which politely waits) can never reproduce.
//!
//! Payloads are regenerated from the per-request seeds and checked
//! against the recorded payload digests; replies are digested and —
//! where the trace recorded a reply digest — verified bit-for-bit.
//! Time can be scaled ([`ReplayConfig::speed`]) and a [`Burst`] can
//! collapse a window of arrivals into one instantaneous spike.

use crate::digest::{digest_bytes, digest_lls};
use crate::trace::{scaled_arrival_ns, Trace};
use spn_server::{synthetic_samples, Client, ClientError};
use spn_telemetry::AtomicHistogram;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Burst injection: every arrival whose *recorded* offset falls in
/// `[start_ms, start_ms + len_ms)` is moved to `start_ms`, turning a
/// stretch of the trace into one instantaneous spike (then the whole
/// timeline is speed-scaled as usual).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Window start, milliseconds on the recorded timeline.
    pub start_ms: u64,
    /// Window length, milliseconds.
    pub len_ms: u64,
}

/// How to replay a trace.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Where to send the stream (a server or a router — the wire
    /// protocol is the same).
    pub addr: SocketAddr,
    /// Time scale: `1.0` replays the original gaps, `2.0` twice as
    /// fast, `0.5` half speed. Must be positive and finite.
    pub speed: f64,
    /// Optional burst injection on the recorded timeline.
    pub burst: Option<Burst>,
    /// Verify reply digests against the recorded ones.
    pub verify: bool,
    /// Per-request deadline in ms (`0` = none).
    pub deadline_ms: u32,
}

impl ReplayConfig {
    /// Replay `addr` at original speed, verifying digests.
    pub fn new(addr: SocketAddr) -> ReplayConfig {
        ReplayConfig {
            addr,
            speed: 1.0,
            burst: None,
            verify: true,
            deadline_ms: 0,
        }
    }
}

/// Why a replay could not run at all (per-request failures are
/// *counted* in the report instead — an unreachable backend mid-run
/// is data, not an abort).
#[derive(Debug)]
pub enum ReplayError {
    /// The trace is empty.
    EmptyTrace,
    /// The initial connections could not be established.
    Connect(std::io::Error),
    /// A replay lane panicked (a bug, not a workload condition).
    WorkerPanicked,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::EmptyTrace => write!(f, "trace has no records"),
            ReplayError::Connect(e) => write!(f, "cannot connect for replay: {e}"),
            ReplayError::WorkerPanicked => write!(f, "replay worker panicked"),
        }
    }
}
impl std::error::Error for ReplayError {}

/// What a replay run measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Records in the trace.
    pub total_requests: u64,
    /// Requests answered `Ok`.
    pub ok_requests: u64,
    /// Requests the server rejected with a typed status.
    pub rejected_requests: u64,
    /// Requests lost to transport failures (after one reconnect
    /// retry each — inference is idempotent).
    pub transport_errors: u64,
    /// Samples across `Ok` replies.
    pub ok_samples: u64,
    /// Regenerated payloads whose digest did not match the recorded
    /// one (a corrupt or inconsistent trace; the request is still
    /// sent — the payload is a pure function of the seed either way).
    pub payload_mismatches: u64,
    /// `Ok` replies compared against a recorded reply digest.
    pub digests_checked: u64,
    /// Of those, how many differed — any nonzero count means the
    /// system under test is *not* bit-identical to the recording.
    pub digest_mismatches: u64,
    /// Per-record reply digest (`None` where the request was rejected
    /// or lost), in trace order — two replays of the same trace
    /// against the same system must produce identical vectors.
    pub reply_digests: Vec<Option<u64>>,
    /// Wall-clock of the whole replay.
    pub elapsed: Duration,
    /// `Ok` samples per second of wall-clock.
    pub samples_per_sec: f64,
    /// Request-latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Worst request, ms (exact).
    pub max_ms: f64,
}

impl ReplayReport {
    /// All requests accounted for, replies bit-identical where the
    /// trace had digests, payload regeneration clean.
    pub fn is_faithful(&self) -> bool {
        self.ok_requests + self.rejected_requests + self.transport_errors == self.total_requests
            && self.digest_mismatches == 0
            && self.payload_mismatches == 0
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} requests replayed: {} ok / {} rejected / {} transport errors; \
             {} samples in {:.3} s => {:.0} samples/s; digests: {}/{} verified \
             bit-identical ({} mismatches, {} payload mismatches); \
             latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            self.total_requests,
            self.ok_requests,
            self.rejected_requests,
            self.transport_errors,
            self.ok_samples,
            self.elapsed.as_secs_f64(),
            self.samples_per_sec,
            self.digests_checked - self.digest_mismatches,
            self.digests_checked,
            self.digest_mismatches,
            self.payload_mismatches,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
        )
    }
}

/// The effective replay offset of a recorded arrival: burst-adjust on
/// the recorded timeline, then speed-scale. Monotone per connection
/// for any fixed config (burst collapse and integer scaling both
/// preserve order).
pub fn effective_arrival_ns(arrival_ns: u64, cfg: &ReplayConfig) -> u64 {
    let adjusted = match cfg.burst {
        Some(b) => {
            // Both fields are user input (`--burst-start-ms`,
            // `--burst-len-ms`): saturate, never wrap the window.
            let start = b.start_ms.saturating_mul(1_000_000);
            let end = start.saturating_add(b.len_ms.saturating_mul(1_000_000));
            if (start..end).contains(&arrival_ns) {
                start
            } else {
                arrival_ns
            }
        }
        None => arrival_ns,
    };
    scaled_arrival_ns(adjusted, cfg.speed)
}

/// Outcome of one replayed request, tagged with its trace index.
enum Outcome {
    Ok { digest: u64, samples: u64 },
    Rejected,
    Transport,
}

/// Replay `trace` against `cfg.addr`, open-loop.
pub fn replay(trace: &Trace, cfg: &ReplayConfig) -> Result<ReplayReport, ReplayError> {
    assert!(
        cfg.speed > 0.0 && cfg.speed.is_finite(),
        "replay speed must be positive and finite"
    );
    if trace.records.is_empty() {
        return Err(ReplayError::EmptyTrace);
    }

    // One replay lane per recorded connection, records in trace order.
    let mut lanes: std::collections::BTreeMap<u32, Vec<usize>> = std::collections::BTreeMap::new();
    for (idx, r) in trace.records.iter().enumerate() {
        lanes.entry(r.conn).or_default().push(idx);
    }
    // Connect every lane before starting the clock, so dial time does
    // not eat into the first inter-arrival gaps.
    let mut clients = Vec::with_capacity(lanes.len());
    for _ in 0..lanes.len() {
        clients.push(Client::connect(cfg.addr).map_err(ReplayError::Connect)?);
    }

    let latency = Arc::new(AtomicHistogram::latency());
    let t0 = Instant::now();
    let mut workers = Vec::with_capacity(lanes.len());
    for ((_, indices), mut client) in lanes.into_iter().zip(clients) {
        let cfg = cfg.clone();
        let records: Vec<(usize, crate::trace::TraceRecord)> = indices
            .into_iter()
            .map(|i| (i, trace.records[i].clone()))
            .collect();
        let latency = Arc::clone(&latency);
        workers.push(thread::spawn(move || -> Vec<(usize, Outcome, bool)> {
            let mut out = Vec::with_capacity(records.len());
            for (idx, rec) in records {
                // Open loop: fire at the recorded offset no matter how
                // the previous request fared.
                let target = t0 + Duration::from_nanos(effective_arrival_ns(rec.arrival_ns, &cfg));
                let now = Instant::now();
                if target > now {
                    thread::sleep(target - now);
                }
                let payload =
                    synthetic_samples(rec.num_samples, rec.num_features, rec.domain, rec.seed);
                let payload_ok = digest_bytes(&payload) == rec.payload_digest;
                let r0 = Instant::now();
                let attempt = |client: &mut Client| {
                    client
                        .request(&rec.model)
                        .samples(&payload, rec.num_samples, rec.num_features)
                        .deadline_ms(cfg.deadline_ms)
                        .send()
                };
                let result = match attempt(&mut client) {
                    Err(ClientError::ConnectionClosed | ClientError::Io(_)) => {
                        // Inference is idempotent: reconnect and retry
                        // once before declaring the request lost.
                        match client.reconnect() {
                            Ok(()) => attempt(&mut client),
                            Err(_) => Err(ClientError::ConnectionClosed),
                        }
                    }
                    other => other,
                };
                let outcome = match result {
                    Ok(lls) => {
                        latency.record_duration(r0.elapsed());
                        Outcome::Ok {
                            digest: digest_lls(&lls),
                            samples: lls.len() as u64,
                        }
                    }
                    Err(ClientError::Rejected { .. }) => {
                        latency.record_duration(r0.elapsed());
                        Outcome::Rejected
                    }
                    Err(_) => Outcome::Transport,
                };
                out.push((idx, outcome, payload_ok));
            }
            out
        }));
    }

    let mut reply_digests: Vec<Option<u64>> = vec![None; trace.records.len()];
    let mut ok = 0u64;
    let mut rejected = 0u64;
    let mut transport = 0u64;
    let mut ok_samples = 0u64;
    let mut payload_mismatches = 0u64;
    for w in workers {
        let outcomes = w.join().map_err(|_| ReplayError::WorkerPanicked)?;
        for (idx, outcome, payload_ok) in outcomes {
            if !payload_ok {
                payload_mismatches += 1;
            }
            match outcome {
                Outcome::Ok { digest, samples } => {
                    ok += 1;
                    ok_samples += samples;
                    reply_digests[idx] = Some(digest);
                }
                Outcome::Rejected => rejected += 1,
                Outcome::Transport => transport += 1,
            }
        }
    }
    let elapsed = t0.elapsed();

    let mut digests_checked = 0u64;
    let mut digest_mismatches = 0u64;
    if cfg.verify {
        for (rec, got) in trace.records.iter().zip(&reply_digests) {
            if let (Some(expected), Some(got)) = (rec.reply_digest, got) {
                digests_checked += 1;
                if expected != *got {
                    digest_mismatches += 1;
                }
            }
        }
    }

    let lat = latency.summary();
    Ok(ReplayReport {
        total_requests: trace.records.len() as u64,
        ok_requests: ok,
        rejected_requests: rejected,
        transport_errors: transport,
        ok_samples,
        payload_mismatches,
        digests_checked,
        digest_mismatches,
        reply_digests,
        elapsed,
        samples_per_sec: ok_samples as f64 / elapsed.as_secs_f64().max(1e-12),
        p50_ms: lat.p50 * 1e3,
        p95_ms: lat.p95 * 1e3,
        p99_ms: lat.p99 * 1e3,
        max_ms: lat.max * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_at(speed: f64, burst: Option<Burst>) -> ReplayConfig {
        ReplayConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 1)),
            speed,
            burst,
            verify: true,
            deadline_ms: 0,
        }
    }

    #[test]
    fn burst_collapses_window_to_its_start() {
        let cfg = cfg_at(
            1.0,
            Some(Burst {
                start_ms: 10,
                len_ms: 5,
            }),
        );
        // Before, inside (two points), boundary, after.
        assert_eq!(effective_arrival_ns(9_000_000, &cfg), 9_000_000);
        assert_eq!(effective_arrival_ns(10_000_000, &cfg), 10_000_000);
        assert_eq!(effective_arrival_ns(14_999_999, &cfg), 10_000_000);
        assert_eq!(effective_arrival_ns(15_000_000, &cfg), 15_000_000);
    }

    #[test]
    fn burst_fields_saturate_instead_of_overflowing() {
        let cfg = cfg_at(
            1.0,
            Some(Burst {
                start_ms: u64::MAX,
                len_ms: u64::MAX,
            }),
        );
        // The window saturates to the empty `MAX..MAX`: nothing is in it.
        for arrival in [0, 9_000_000, u64::MAX / 1_000_000] {
            assert_eq!(effective_arrival_ns(arrival, &cfg), arrival);
        }
        // A start that fits with a length that does not: the window
        // runs to the end of time.
        let cfg = cfg_at(
            1.0,
            Some(Burst {
                start_ms: 10,
                len_ms: u64::MAX,
            }),
        );
        assert_eq!(effective_arrival_ns(9_000_000, &cfg), 9_000_000);
        assert_eq!(effective_arrival_ns(1 << 40, &cfg), 10_000_000);
    }

    #[test]
    fn burst_then_speed_compose() {
        let cfg = cfg_at(
            2.0,
            Some(Burst {
                start_ms: 10,
                len_ms: 5,
            }),
        );
        assert_eq!(effective_arrival_ns(12_000_000, &cfg), 5_000_000);
        assert_eq!(effective_arrival_ns(20_000_000, &cfg), 10_000_000);
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        let err = replay(&Trace::default(), &cfg_at(1.0, None)).unwrap_err();
        assert!(matches!(err, ReplayError::EmptyTrace));
    }
}
