//! The trace recorder: a `LoadObserver` that turns a loadgen run
//! into a [`Trace`].
//!
//! Recording happens on the request path of the loadgen worker
//! threads, so the recorder keeps per-event work tiny: one digest of
//! the payload (which the worker already built), one digest of the
//! reply, one `Vec` push under a mutex (`parking_lot`'s, which cannot
//! be poisoned). The trace is assembled (and globally sorted by
//! arrival) once, in `TraceRecorder::finish`.

use crate::client::ClientError;
use crate::digest::{digest_bytes, digest_lls};
use crate::loadgen::{drive_load, LoadConfig, LoadObserver, LoadReport, RequestEvent};
use crate::trace::{Trace, TraceRecord};
use parking_lot::Mutex;

/// Collects every request a load run issues into a [`Trace`].
struct TraceRecorder {
    run_seed: u64,
    records: Mutex<Vec<TraceRecord>>,
}

impl TraceRecorder {
    /// A recorder for a run generated from `run_seed`.
    fn new(run_seed: u64) -> TraceRecorder {
        TraceRecorder {
            run_seed,
            records: Mutex::new(Vec::new()),
        }
    }

    /// The trace so far: records sorted by `(arrival_ns, conn)`, so
    /// per-connection order (which each worker produces monotonically)
    /// is preserved and the global stream reads in arrival order.
    fn finish(&self) -> Trace {
        let mut records = self.records.lock().clone();
        records.sort_by_key(|r| (r.arrival_ns, r.conn));
        Trace {
            run_seed: self.run_seed,
            records,
        }
    }
}

impl LoadObserver for TraceRecorder {
    fn on_request(&self, ev: &RequestEvent<'_>) {
        let record = TraceRecord {
            arrival_ns: ev.arrival_ns,
            conn: ev.conn,
            model: ev.request.model.to_string(),
            num_samples: ev.request.num_samples,
            num_features: ev.request.num_features,
            domain: ev.request.domain,
            seed: ev.request.seed,
            payload_digest: digest_bytes(ev.payload),
            reply_digest: ev.reply.map(digest_lls),
        };
        self.records.lock().push(record);
    }
}

/// Run the load described by `cfg` while recording every request —
/// the programmatic form of `spn record`.
pub fn record_load(cfg: &LoadConfig) -> Result<(LoadReport, Trace), ClientError> {
    let recorder = TraceRecorder::new(cfg.seed);
    let source = |conn, req| cfg.request(conn, req);
    let report = drive_load(cfg.addr, cfg.connections, &source, Some(&recorder))?;
    Ok((report, recorder.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::LoadRequest;

    #[test]
    fn recorder_sorts_by_arrival_and_digests_replies() {
        let rec = TraceRecorder::new(5);
        let request = |seed| LoadRequest {
            model: "m",
            num_samples: 2,
            num_features: 3,
            domain: 4,
            seed,
            deadline_ms: 0,
            at_ns: None,
        };
        rec.on_request(&RequestEvent {
            conn: 1,
            req: 0,
            arrival_ns: 200,
            request: request(11),
            payload: &[1, 2, 3, 4, 5, 6],
            reply: Some(&[-1.0, -2.0]),
        });
        rec.on_request(&RequestEvent {
            conn: 0,
            req: 0,
            arrival_ns: 100,
            request: request(12),
            payload: &[6, 5, 4, 3, 2, 1],
            reply: None,
        });
        let trace = rec.finish();
        assert_eq!(trace.run_seed, 5);
        assert_eq!(trace.records.len(), 2);
        assert_eq!(trace.records[0].arrival_ns, 100);
        assert_eq!(trace.records[0].reply_digest, None);
        assert_eq!(
            trace.records[1].reply_digest,
            Some(digest_lls(&[-1.0, -2.0]))
        );
        assert_eq!(
            trace.records[1].payload_digest,
            digest_bytes(&[1, 2, 3, 4, 5, 6])
        );
        // The finished trace encodes (arrivals are monotone per conn).
        let bytes = trace.encode().unwrap();
        assert_eq!(Trace::decode(&bytes).unwrap(), trace);
    }
}
