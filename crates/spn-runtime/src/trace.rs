//! Execution tracing for the virtual-time simulation.
//!
//! Records every transfer and accelerator execution as a timed span and
//! exports the Chrome trace-event format (`chrome://tracing` /
//! Perfetto), so the overlap behaviour the paper describes — thread A
//! uploading block *n+1* while the PE computes block *n* — can be *seen*
//! rather than inferred from utilization numbers.

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};
use spn_telemetry::{chrome_trace_json, ChromeArgs, ChromeEvent, TraceId};

pub use spn_telemetry::SpanKind;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Span type.
    pub kind: SpanKind,
    /// Request the span belongs to ([`TraceId::NONE`] for work that no
    /// client request caused, e.g. virtual-time simulation).
    pub trace_id: TraceId,
    /// Control thread that issued the operation.
    pub tid: u32,
    /// PE the operation belongs to.
    pub pe: u32,
    /// Block sequence number within the job.
    pub block: u64,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A trace: an append-only list of spans.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    /// The recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Record one span.
    pub fn record(&mut self, span: Span) {
        debug_assert!(span.end >= span.start);
        self.spans.push(span);
    }

    /// Spans of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Verify the structural invariants of a runtime trace: per thread,
    /// spans never overlap; per block, h2d < execute < d2h.
    pub fn validate(&self) -> Result<(), String> {
        // Per-thread non-overlap (threads are sequential actors).
        let mut by_thread: std::collections::BTreeMap<u32, Vec<&Span>> = Default::default();
        for s in &self.spans {
            by_thread.entry(s.tid).or_default().push(s);
        }
        for (tid, mut spans) in by_thread {
            spans.sort_by_key(|s| s.start);
            for w in spans.windows(2) {
                if w[1].start < w[0].end {
                    return Err(format!(
                        "thread {tid}: spans overlap at {} / {}",
                        w[0].end, w[1].start
                    ));
                }
            }
        }
        // Per-block ordering.
        let mut by_block: std::collections::BTreeMap<(u32, u64), Vec<&Span>> = Default::default();
        for s in &self.spans {
            by_block.entry((s.pe, s.block)).or_default().push(s);
        }
        for ((pe, block), spans) in by_block {
            let t = |k: SpanKind| spans.iter().find(|s| s.kind == k);
            if let (Some(h), Some(e)) = (t(SpanKind::H2D), t(SpanKind::Execute)) {
                if e.start < h.end {
                    return Err(format!("pe {pe} block {block}: execute before h2d done"));
                }
            }
            if let (Some(e), Some(d)) = (t(SpanKind::Execute), t(SpanKind::D2H)) {
                if d.start < e.end {
                    return Err(format!("pe {pe} block {block}: d2h before execute done"));
                }
            }
        }
        Ok(())
    }

    /// Cumulative [`SpanKind::Execute`] time per PE — the simulated
    /// counterpart of the live scheduler's per-PE busy-time gauge
    /// (see [`crate::metrics::MetricsSnapshot::pe_busy_secs`]), so a
    /// virtual-time trace and a functional run can be compared on the
    /// same axis.
    pub fn execute_busy_per_pe(&self) -> std::collections::BTreeMap<u32, SimDuration> {
        let mut busy: std::collections::BTreeMap<u32, SimDuration> = Default::default();
        for s in self.of_kind(SpanKind::Execute) {
            let acc = busy.entry(s.pe).or_default();
            *acc = acc.saturating_add(s.duration());
        }
        busy
    }

    /// Export as Chrome trace-event JSON (complete events, "X" phase;
    /// one row per control thread) through the shared
    /// [`spn_telemetry::chrome_trace_json`] serializer.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<ChromeEvent> = self
            .spans
            .iter()
            .map(|s| {
                let args = ChromeArgs {
                    trace_id: s.trace_id.0,
                    pe: s.pe,
                    block: s.block,
                };
                // Trace timestamps are microseconds.
                let us = |ps: u64| ps as f64 / 1e6;
                ChromeEvent::runtime(
                    s.kind,
                    args,
                    s.tid,
                    us(s.start.as_ps()),
                    us(s.duration().as_ps()),
                )
            })
            .collect();
        chrome_trace_json(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, tid: u32, block: u64, start: u64, end: u64) -> Span {
        Span {
            kind,
            trace_id: TraceId::NONE,
            tid,
            pe: tid,
            block,
            start: SimTime::from_ps(start),
            end: SimTime::from_ps(end),
        }
    }

    #[test]
    fn valid_trace_passes() {
        let mut t = Trace::new();
        t.record(span(SpanKind::H2D, 0, 0, 0, 100));
        t.record(span(SpanKind::Execute, 0, 0, 100, 500));
        t.record(span(SpanKind::D2H, 0, 0, 500, 550));
        t.record(span(SpanKind::H2D, 1, 1, 100, 200));
        assert!(t.validate().is_ok());
        assert_eq!(t.of_kind(SpanKind::H2D).count(), 2);
    }

    #[test]
    fn thread_overlap_detected() {
        let mut t = Trace::new();
        t.record(span(SpanKind::H2D, 0, 0, 0, 100));
        t.record(span(SpanKind::Execute, 0, 1, 50, 200));
        let e = t.validate().unwrap_err();
        assert!(e.contains("overlap"));
    }

    #[test]
    fn block_ordering_detected() {
        let mut t = Trace::new();
        t.record(span(SpanKind::Execute, 0, 0, 0, 100));
        t.record(span(SpanKind::H2D, 1, 0, 0, 150));
        // Same pe? span() sets pe = tid, so use explicit same-pe spans.
        let mut t = Trace::new();
        t.record(Span {
            kind: SpanKind::H2D,
            trace_id: TraceId::NONE,
            tid: 0,
            pe: 0,
            block: 0,
            start: SimTime::from_ps(0),
            end: SimTime::from_ps(150),
        });
        t.record(Span {
            kind: SpanKind::Execute,
            trace_id: TraceId::NONE,
            tid: 1,
            pe: 0,
            block: 0,
            start: SimTime::from_ps(100),
            end: SimTime::from_ps(400),
        });
        let e = t.validate().unwrap_err();
        assert!(e.contains("execute before h2d"));
    }

    #[test]
    fn chrome_json_is_valid_json() {
        let mut t = Trace::new();
        t.record(span(SpanKind::H2D, 0, 0, 0, 2_000_000));
        t.record(span(SpanKind::Execute, 0, 0, 2_000_000, 9_000_000));
        let json = t.to_chrome_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["ts"], 0.0);
        assert_eq!(events[0]["dur"], 2.0); // 2 us
        assert_eq!(events[1]["tid"], 0);
    }

    #[test]
    fn execute_busy_per_pe_aggregates_only_execute_spans() {
        let mut t = Trace::new();
        t.record(span(SpanKind::H2D, 0, 0, 0, 100));
        t.record(span(SpanKind::Execute, 0, 0, 100, 500)); // pe 0: 400
        t.record(span(SpanKind::Execute, 1, 1, 0, 250)); // pe 1: 250
        t.record(span(SpanKind::Execute, 1, 2, 300, 350)); // pe 1: +50
        t.record(span(SpanKind::D2H, 0, 0, 500, 900));
        let busy = t.execute_busy_per_pe();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[&0], SimDuration::from_ps(400));
        assert_eq!(busy[&1], SimDuration::from_ps(300));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert!(Trace::new().validate().is_ok());
        let json = Trace::new().to_chrome_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.as_array().unwrap().is_empty());
    }
}
