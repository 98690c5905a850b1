//! The one span type, its vocabulary and the Chrome trace-event export.
//!
//! A [`LiveSpan`] is one timed piece of work on either clock: the live
//! [`crate::TraceCollector`] records them on the wall clock, and the
//! virtual-time simulation (`spn-runtime::perf`) records them in
//! simulated time. Both export through [`chrome_trace_json`], so one
//! Perfetto timeline shows a request's server-side spans above the
//! device work it caused, correlated by [`crate::TraceId`] in each
//! event's `args`, and runtime spans on one track per control thread:
//! one thread's upload overlapping another's compute on the same PE
//! shows as two rows, not as a tangle on one.

use crate::ctx::SpanCtx;
use serde::{Deserialize, Serialize};

/// What a span represents, across both layers of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// Host→device DMA transfer (runtime layer).
    H2D,
    /// Accelerator execution (runtime layer).
    Execute,
    /// Device→host DMA transfer (runtime layer).
    D2H,
    /// An SPN being compiled into a flat inference plan (runtime
    /// layer, once per model per plan cache).
    PlanCompile,
    /// A block evaluated on the host through a compiled plan instead
    /// of the device (runtime layer).
    PlanExec,
    /// A request waiting in the micro-batcher queue (server layer).
    RequestQueued,
    /// The batcher closing a window and forming a job (server layer).
    BatchFormed,
    /// The reply frame being written back to the client (server layer).
    ReplyWritten,
    /// The cluster front-end choosing a backend replica for a request
    /// (router layer): ring lookup plus health filtering.
    RoutePick,
    /// One forwarded request/response round trip to a backend,
    /// including any failover retries (router layer).
    BackendRpc,
}

impl SpanKind {
    /// Short lower-case label used in exported event names.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::H2D => "h2d",
            SpanKind::Execute => "execute",
            SpanKind::D2H => "d2h",
            SpanKind::PlanCompile => "plan-compile",
            SpanKind::PlanExec => "plan-exec",
            SpanKind::RequestQueued => "request-queued",
            SpanKind::BatchFormed => "batch-formed",
            SpanKind::ReplyWritten => "reply-written",
            SpanKind::RoutePick => "route-pick",
            SpanKind::BackendRpc => "backend-rpc",
        }
    }

    /// The stack layer that records this kind — the exported event's
    /// category, and the process row it lands on in Perfetto.
    pub fn category(self) -> &'static str {
        if self.is_router() {
            "router"
        } else if self.is_server() {
            "server"
        } else {
            "runtime"
        }
    }

    /// True for the server-layer kinds.
    pub fn is_server(self) -> bool {
        matches!(
            self,
            SpanKind::RequestQueued | SpanKind::BatchFormed | SpanKind::ReplyWritten
        )
    }

    /// True for the router-layer kinds (the cluster front-end).
    pub fn is_router(self) -> bool {
        matches!(self, SpanKind::RoutePick | SpanKind::BackendRpc)
    }
}

/// One recorded span. Times are microseconds since the collector's
/// epoch for a wall-clock span, since time zero for a virtual one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveSpan {
    /// What happened.
    pub kind: SpanKind,
    /// Request the span belongs to ([`SpanCtx::NONE`] if none).
    pub ctx: SpanCtx,
    /// PE the work ran on (0 for server-layer spans).
    pub pe: u32,
    /// Control thread that recorded the span: scheduler worker `w`,
    /// which drives PE `w % num_pes`, or [`LiveSpan::NO_THREAD`].
    pub tid: u32,
    /// Block sequence number or sample count, kind-dependent.
    pub block: u64,
    /// Start, microseconds since the epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

impl LiveSpan {
    /// The `tid` of a span no control thread records (plan compiles,
    /// server and router spans), so it never shares a thread's track.
    pub const NO_THREAD: u32 = u32::MAX;
}

/// `args` of an exported trace event: the request correlation key plus
/// the work coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ChromeArgs {
    /// [`crate::TraceId`] of the request that caused this span
    /// (0 = none).
    pub trace_id: u64,
    /// PE the work ran on (0 for server-layer spans).
    pub pe: u32,
    /// Block sequence number / sample count, kind-dependent.
    pub block: u64,
}

/// One Chrome trace-event ("X" complete event). Field names are the
/// trace-event format's own; `ts` and `dur` are microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ChromeEvent {
    /// Display name of the slice.
    pub name: String,
    /// Event category (the stack layer).
    pub cat: String,
    /// Phase: always `"X"` (complete event).
    pub ph: String,
    /// Start, in microseconds.
    pub ts: f64,
    /// Duration, in microseconds.
    pub dur: f64,
    /// Process row (0 = runtime, 1 = server, 2 = router).
    pub pid: u32,
    /// Thread row within the process.
    pub tid: u32,
    /// Correlation payload.
    pub args: ChromeArgs,
}

impl ChromeEvent {
    /// A runtime-layer slice (`pid 0`) on track `tid`, named
    /// `"{label} pe{pe} blk{block}"`.
    pub(crate) fn runtime(kind: SpanKind, args: ChromeArgs, tid: u32, ts: f64, dur: f64) -> Self {
        ChromeEvent {
            name: format!("{} pe{} blk{}", kind.label(), args.pe, args.block),
            cat: kind.category().to_string(),
            ph: "X".to_string(),
            ts,
            dur,
            pid: 0,
            tid,
            args,
        }
    }
}

/// Render spans as a Chrome trace-event JSON array, loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>. Runtime spans land
/// on `pid 0`, one track per control thread (`tid`); server spans on
/// `pid 1` and router spans on `pid 2`, one track per request, so a
/// request's routing, queue wait and reply line up above the device
/// work that served it.
pub fn chrome_trace_json(spans: &[LiveSpan]) -> String {
    let events: Vec<ChromeEvent> = spans.iter().map(chrome_event).collect();
    let mut out = serde_json::to_string_pretty(&events).expect("trace serialization is infallible");
    out.push('\n');
    out
}

fn chrome_event(s: &LiveSpan) -> ChromeEvent {
    let args = ChromeArgs {
        trace_id: s.ctx.trace_id.0,
        pe: s.pe,
        block: s.block,
    };
    if !s.kind.is_server() && !s.kind.is_router() {
        return ChromeEvent::runtime(s.kind, args, s.tid, s.ts_us, s.dur_us);
    }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_layers() {
        assert_eq!(SpanKind::Execute.category(), "runtime");
        assert_eq!(SpanKind::BatchFormed.category(), "server");
        assert_eq!(SpanKind::PlanCompile.category(), "runtime");
        assert_eq!(SpanKind::PlanExec.category(), "runtime");
        assert_eq!(SpanKind::RoutePick.category(), "router");
        assert_eq!(SpanKind::BackendRpc.category(), "router");
        assert!(!SpanKind::H2D.is_server());
        assert!(!SpanKind::PlanExec.is_server());
        assert!(SpanKind::ReplyWritten.is_server());
        assert!(SpanKind::RoutePick.is_router());
        assert!(!SpanKind::RoutePick.is_server());
        assert!(!SpanKind::ReplyWritten.is_router());
    }

    fn span(kind: SpanKind, trace_id: u64, pe: u32, tid: u32, block: u64) -> LiveSpan {
        LiveSpan {
            kind,
            ctx: SpanCtx {
                trace_id: crate::TraceId(trace_id),
            },
            pe,
            tid,
            block,
            ts_us: 1.5,
            dur_us: 10.0,
        }
    }

    #[test]
    fn export_is_valid_chrome_trace_json() {
        let json = chrome_trace_json(&[span(SpanKind::Execute, 7, 0, 0, 3)]);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["ph"], "X");
        assert_eq!(v[0]["ts"], 1.5);
        assert_eq!(v[0]["args"]["trace_id"], 7u64);
        let back: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back,
            vec![ChromeEvent {
                name: "execute pe0 blk3".into(),
                cat: "runtime".into(),
                ph: "X".into(),
                ts: 1.5,
                dur: 10.0,
                pid: 0,
                tid: 0,
                args: ChromeArgs {
                    trace_id: 7,
                    pe: 0,
                    block: 3,
                },
            }]
        );
    }

    /// Two control threads of one PE get two rows; a span no thread
    /// recorded gets a row of its own; server and router spans sit on
    /// their request's row of their own process.
    #[test]
    fn runtime_spans_land_on_their_control_threads_track() {
        let json = chrome_trace_json(&[
            span(SpanKind::H2D, 0, 1, 1, 0),
            span(SpanKind::Execute, 0, 1, 3, 1),
            span(SpanKind::PlanCompile, 0, 0, LiveSpan::NO_THREAD, 0),
            span(SpanKind::BatchFormed, 9, 0, LiveSpan::NO_THREAD, 4),
            span(SpanKind::RoutePick, 9, 0, LiveSpan::NO_THREAD, 2),
        ]);
        let events: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
        let rows: Vec<(u32, u32)> = events.iter().map(|e| (e.pid, e.tid)).collect();
        assert_eq!(rows, [(0, 1), (0, 3), (0, u32::MAX), (1, 9), (2, 9)]);
        assert_eq!(events[1].name, "execute pe1 blk1");
        assert_eq!(events[3].name, "batch-formed req9");
    }

    #[test]
    fn empty_export_is_an_empty_array() {
        let v: serde_json::Value = serde_json::from_str(&chrome_trace_json(&[])).unwrap();
        assert!(v.as_array().unwrap().is_empty());
    }
}
