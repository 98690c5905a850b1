//! The shared span vocabulary and the Chrome trace-event export.
//!
//! Both the virtual-time simulation trace (`spn-runtime::trace`) and
//! the live wall-clock [`crate::TraceCollector`] speak this
//! vocabulary, so one Perfetto timeline can show a request's
//! server-side spans and the device work it caused, correlated by
//! [`crate::TraceId`] in each event's `args`.

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
    /// A block's shards evaluated concurrently across the scope-cut
    /// shard devices (runtime layer).
    ShardExec,
    /// Shard partials combined into root values by the merge plan
    /// (runtime layer).
    ShardMerge,
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
            SpanKind::ShardExec => "shard-exec",
            SpanKind::ShardMerge => "shard-merge",
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

/// `args` of an exported trace event: the request correlation key plus
/// the work coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChromeArgs {
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
pub struct ChromeEvent {
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
    /// `"{label} pe{pe} blk{block}"` — the one shape both the live
    /// [`crate::TraceCollector`] and the virtual-time trace export.
    pub fn runtime(kind: SpanKind, args: ChromeArgs, tid: u32, ts: f64, dur: f64) -> Self {
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

/// Render events as a Chrome trace-event JSON array, loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    let mut out = serde_json::to_string_pretty(events).expect("trace serialization is infallible");
    out.push('\n');
    out
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
        assert_eq!(SpanKind::ShardExec.category(), "runtime");
        assert_eq!(SpanKind::ShardMerge.category(), "runtime");
        assert!(!SpanKind::ShardExec.is_server() && !SpanKind::ShardMerge.is_router());
        assert_eq!(SpanKind::RoutePick.category(), "router");
        assert_eq!(SpanKind::BackendRpc.category(), "router");
        assert!(!SpanKind::H2D.is_server());
        assert!(!SpanKind::PlanExec.is_server());
        assert!(SpanKind::ReplyWritten.is_server());
        assert!(SpanKind::RoutePick.is_router());
        assert!(!SpanKind::RoutePick.is_server());
        assert!(!SpanKind::ReplyWritten.is_router());
    }

    #[test]
    fn export_is_valid_chrome_trace_json() {
        let events = vec![ChromeEvent {
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
        }];
        let json = chrome_trace_json(&events);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["ph"], "X");
        assert_eq!(v[0]["ts"], 1.5);
        assert_eq!(v[0]["args"]["trace_id"], 7u64);
        let back: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_export_is_an_empty_array() {
        let v: serde_json::Value = serde_json::from_str(&chrome_trace_json(&[])).unwrap();
        assert!(v.as_array().unwrap().is_empty());
    }
}
