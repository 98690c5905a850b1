//! Live wall-clock span collection.
//!
//! A [`TraceCollector`] is shared (via `Arc`) by the server layer and
//! the scheduler: the server records `RequestQueued` / `BatchFormed` /
//! `ReplyWritten` spans, each scheduler control thread records its
//! `H2D` / `Execute` / `D2H` spans under its own worker index, all
//! against one common epoch. They are the same [`LiveSpan`]s the
//! virtual-time simulation records, and the export is the same
//! [`chrome_trace_json`]: runtime spans on one track per control
//! thread, interleaved with correlated server tracks. Recording takes a
//! short mutex (append to a `Vec`); the hot-path cost when tracing is
//! disabled is a single `Option` check at the call site.

use crate::ctx::SpanCtx;
use crate::span::{chrome_trace_json, LiveSpan, SpanKind};
use parking_lot::Mutex;
use std::ops::Range;
use std::time::Instant;

/// Append-only wall-clock span sink with Chrome-trace export.
#[derive(Debug)]
pub struct TraceCollector {
    epoch: Instant,
    spans: Mutex<Vec<LiveSpan>>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// New collector; its creation instant becomes time zero of the
    /// exported timeline.
    pub fn new() -> Self {
        TraceCollector {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record one span from its wall-clock endpoints; `tid` is the
    /// recording control thread, or [`LiveSpan::NO_THREAD`].
    pub fn record(
        &self,
        kind: SpanKind,
        ctx: SpanCtx,
        pe: u32,
        tid: u32,
        block: u64,
        when: Range<Instant>,
    ) {
        let us =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e6;
        self.spans.lock().push(LiveSpan {
            kind,
            ctx,
            pe,
            tid,
            block,
            ts_us: us(self.epoch, when.start),
            dur_us: us(when.start, when.end),
        });
    }

    /// Copy of everything recorded so far, in recording order.
    pub fn spans(&self) -> Vec<LiveSpan> {
        self.spans.lock().clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }

    /// Export everything recorded so far as Chrome trace-event JSON
    /// (see [`chrome_trace_json`]), serialised outside the lock.
    pub fn to_chrome_json(&self) -> String {
        chrome_trace_json(&self.spans())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_and_exports_on_layered_tracks() {
        let tc = TraceCollector::new();
        let ctx = SpanCtx::mint();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(250);
        let server = LiveSpan::NO_THREAD;
        tc.record(SpanKind::BatchFormed, ctx, 0, server, 16, t0..t1);
        tc.record(SpanKind::Execute, ctx, 2, 5, 7, t0..t1);
        assert_eq!(tc.len(), 2);

        let v: serde_json::Value = serde_json::from_str(&tc.to_chrome_json()).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["cat"], "server");
        assert_eq!(events[0]["pid"], 1u64);
        assert_eq!(events[1]["cat"], "runtime");
        assert_eq!(events[1]["pid"], 0u64);
        // On its control thread's track, not its PE's.
        assert_eq!(events[1]["tid"], 5u64);
        assert_eq!(events[1]["args"]["pe"], 2u64);
        // Both spans carry the same request identity.
        assert_eq!(events[0]["args"]["trace_id"], events[1]["args"]["trace_id"]);
        assert!(events[1]["dur"].as_f64().unwrap() >= 200.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let tc = std::sync::Arc::new(TraceCollector::new());
        let threads: Vec<_> = (0..4)
            .map(|pe| {
                let tc = std::sync::Arc::clone(&tc);
                std::thread::spawn(move || {
                    for b in 0..100 {
                        let now = Instant::now();
                        tc.record(SpanKind::H2D, SpanCtx::NONE, pe, pe, b, now..now);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(tc.len(), 400);
    }
}
