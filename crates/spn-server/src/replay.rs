//! The open-loop replayer: re-issue a recorded [`Trace`] against a
//! live server or router.
//!
//! Open-loop means arrivals come from the *recorded clock*, not from
//! response completions: each original connection becomes a lane —
//! one connection of `drive_load`, the two epoll workers `spn load`
//! runs on — whose requests fire at their recorded offsets once every
//! lane has dialed. Across lanes that holds however fast the server
//! answers, so a slow one sees queue build-up as production would,
//! which a closed-loop run (it politely waits) never reproduces. A
//! lane carries one request at a time, so within it a request fires at
//! the later of its offset and the previous reply.
//!
//! Payloads are regenerated from the per-request seeds and checked
//! against the recorded payload digests; replies are digested and —
//! where the trace recorded a reply digest — verified bit-for-bit.
//! Time can be scaled ([`ReplayConfig::speed`]) and a [`Burst`] can
//! collapse a window of arrivals into one instantaneous spike.

use crate::client::ClientError;
use crate::digest::{digest_bytes, digest_lls};
use crate::loadgen::{
    clamp_connections, drive_load, synthetic_samples, LoadObserver, LoadRequest, RequestEvent,
};
use crate::trace::{scaled_arrival_ns, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::Duration;

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
    /// [`ReplayConfig::speed`] is not positive and finite.
    BadSpeed(f64),
    /// The trace is empty.
    EmptyTrace,
    /// The trace has more connections (`.0`) than the fd budget holds
    /// (`.1`), so some lanes could never be dialed.
    TooManyLanes(usize, usize),
    /// No lane could connect.
    Connect(ClientError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadSpeed(s) => write!(f, "speed must be positive and finite, got {s}"),
            ReplayError::EmptyTrace => write!(f, "trace has no records"),
            ReplayError::TooManyLanes(n, budget) => {
                write!(f, "trace has {n} connections, the fd budget holds {budget}")
            }
            ReplayError::Connect(e) => write!(f, "cannot connect for replay: {e}"),
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
    /// Requests lost to transport — each retried once on a fresh dial,
    /// as inference is idempotent — and the rest of a lost lane's.
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
    /// Wall-clock of the replay from the moment every lane had dialed.
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

/// Files each answered request's reply digest (`None` if rejected)
/// under its trace index.
struct Filer<'t> {
    lanes: &'t [Vec<usize>],
    filed: Vec<OnceLock<Option<u64>>>,
}

impl LoadObserver for Filer<'_> {
    fn on_request(&self, ev: &RequestEvent<'_>) {
        let idx = self.lanes[ev.conn as usize][ev.req as usize];
        let _ = self.filed[idx].set(ev.reply.map(digest_lls));
    }
}

/// Replay `trace` against `cfg.addr`, open-loop.
pub fn replay(trace: &Trace, cfg: &ReplayConfig) -> Result<ReplayReport, ReplayError> {
    if !(cfg.speed > 0.0 && cfg.speed.is_finite()) {
        return Err(ReplayError::BadSpeed(cfg.speed));
    }
    if trace.records.is_empty() {
        return Err(ReplayError::EmptyTrace);
    }

    // One replay lane per recorded connection, records in trace order.
    let mut by_conn: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (idx, r) in trace.records.iter().enumerate() {
        by_conn.entry(r.conn).or_default().push(idx);
    }
    let lanes: Vec<Vec<usize>> = by_conn.into_values().collect();
    // Refuse a lane past the fd budget rather than lose its requests.
    let budget = clamp_connections(lanes.len());
    if budget < lanes.len() {
        return Err(ReplayError::TooManyLanes(lanes.len(), budget));
    }
    let source = |lane: u64, req: u64| {
        let r = &trace.records[*lanes[lane as usize].get(req as usize)?];
        Some(LoadRequest {
            model: &r.model,
            num_samples: r.num_samples,
            num_features: r.num_features,
            domain: r.domain,
            seed: r.seed,
            deadline_ms: cfg.deadline_ms,
            at_ns: Some(effective_arrival_ns(r.arrival_ns, cfg)),
        })
    };
    let filer = Filer {
        lanes: &lanes,
        filed: trace.records.iter().map(|_| OnceLock::new()).collect(),
    };
    let load =
        drive_load(cfg.addr, lanes.len(), &source, Some(&filer)).map_err(ReplayError::Connect)?;

    let mut reply_digests = Vec::with_capacity(trace.records.len());
    let mut payload_mismatches = 0u64;
    let mut digests_checked = 0u64;
    let mut digest_mismatches = 0u64;
    for (rec, filed) in trace.records.iter().zip(filer.filed) {
        // The driver sent exactly this payload, lost or answered.
        let payload = synthetic_samples(rec.num_samples, rec.num_features, rec.domain, rec.seed);
        payload_mismatches += u64::from(digest_bytes(&payload) != rec.payload_digest);
        let digest = filed.into_inner().flatten();
        if let (true, Some(expected), Some(got)) = (cfg.verify, rec.reply_digest, digest) {
            digests_checked += 1;
            digest_mismatches += u64::from(expected != got);
        }
        reply_digests.push(digest);
    }

    let total_requests = trace.records.len() as u64;
    // The replay's clock starts once every lane has dialed.
    let elapsed = load
        .elapsed
        .saturating_sub(Duration::from_secs_f64(load.dial_ms / 1e3));
    Ok(ReplayReport {
        total_requests,
        ok_requests: load.ok_requests,
        rejected_requests: load.rejected_requests,
        transport_errors: total_requests - load.ok_requests - load.rejected_requests,
        ok_samples: load.ok_samples,
        payload_mismatches,
        digests_checked,
        digest_mismatches,
        reply_digests,
        elapsed,
        samples_per_sec: load.ok_samples as f64 / elapsed.as_secs_f64().max(1e-12),
        p50_ms: load.p50_ms,
        p95_ms: load.p95_ms,
        p99_ms: load.p99_ms,
        max_ms: load.max_ms,
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

    #[test]
    fn speed_that_is_not_positive_and_finite_is_a_typed_error() {
        for speed in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match replay(&Trace::default(), &cfg_at(speed, None)) {
                Err(ReplayError::BadSpeed(s)) => assert_eq!(s.to_bits(), speed.to_bits()),
                other => panic!("speed {speed}: {other:?}"),
            }
        }
    }
}
