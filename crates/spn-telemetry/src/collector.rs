//! Live wall-clock span collection.
//!
//! A [`TraceCollector`] is shared (via `Arc`) by the server layer and
//! the scheduler: the server records `RequestQueued` / `BatchFormed` /
//! `ReplyWritten` spans, the scheduler's workers record `H2D` /
//! `Execute` / `D2H` spans, all against one common epoch, and the
//! export interleaves them on correlated Perfetto tracks. Recording
//! takes a short mutex (append to a `Vec`); the hot-path cost when
//! tracing is disabled is a single `Option` check at the call site.

use crate::ctx::SpanCtx;
use crate::span::{chrome_trace_json, ChromeArgs, ChromeEvent, SpanKind};
use parking_lot::Mutex;
use std::time::Instant;

/// One recorded wall-clock span, in microseconds since the collector's
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveSpan {
    /// What happened.
    pub kind: SpanKind,
    /// Request the span belongs to ([`SpanCtx::NONE`] if none).
    pub ctx: SpanCtx,
    /// PE the work ran on (0 for server-layer spans).
    pub pe: u32,
    /// Block sequence number or sample count, kind-dependent.
    pub block: u64,
    /// Start, microseconds since the epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

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

    /// Record one span from its wall-clock endpoints.
    pub fn record(
        &self,
        kind: SpanKind,
        ctx: SpanCtx,
        pe: u32,
        block: u64,
        start: Instant,
        end: Instant,
    ) {
        let ts_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.spans.lock().push(LiveSpan {
            kind,
            ctx,
            pe,
            block,
            ts_us,
            dur_us,
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

    /// Export as Chrome trace-event JSON. Runtime spans land on
    /// `pid 0` with one track per PE; server spans land on `pid 1`
    /// and router spans on `pid 2`, each with one track per request,
    /// so a request's routing, queue wait and reply line up above the
    /// device work that served it.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<ChromeEvent> = self
            .spans
            .lock()
            .iter()
            .map(|s| {
                let args = ChromeArgs {
                    trace_id: s.ctx.trace_id.0,
                    pe: s.pe,
                    block: s.block,
                };
                if s.kind.is_server() || s.kind.is_router() {
                    ChromeEvent {
                        name: format!("{} req{}", s.kind.label(), s.ctx.trace_id),
                        cat: s.kind.category().to_string(),
                        ph: "X".to_string(),
                        ts: s.ts_us,
                        dur: s.dur_us,
                        pid: if s.kind.is_router() { 2 } else { 1 },
                        tid: s.ctx.trace_id.0 as u32,
                        args,
                    }
                } else {
                    ChromeEvent::runtime(s.kind, args, s.pe, s.ts_us, s.dur_us)
                }
            })
            .collect();
        chrome_trace_json(&events)
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
        tc.record(SpanKind::BatchFormed, ctx, 0, 16, t0, t1);
        tc.record(SpanKind::Execute, ctx, 2, 5, t0, t1);
        assert_eq!(tc.len(), 2);

        let v: serde_json::Value = serde_json::from_str(&tc.to_chrome_json()).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["cat"], "server");
        assert_eq!(events[0]["pid"], 1u64);
        assert_eq!(events[1]["cat"], "runtime");
        assert_eq!(events[1]["pid"], 0u64);
        assert_eq!(events[1]["tid"], 2u64);
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
                        tc.record(SpanKind::H2D, SpanCtx::NONE, pe, b, now, now);
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
