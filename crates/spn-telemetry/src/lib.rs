//! # spn-telemetry — the workspace's single telemetry substrate
//!
//! Every layer of the serving stack describes itself through this
//! crate, so one request can be followed end to end:
//!
//! * [`TraceId`] / [`SpanCtx`] — a cheap, copyable request context
//!   minted once per `Infer` request at the wire protocol and carried
//!   through batcher queue entries and scheduler job options down to
//!   the device spans.
//! * [`SpanKind`] — the span vocabulary shared by the server layer
//!   (`RequestQueued` / `BatchFormed` / `ReplyWritten`) and the
//!   runtime layer (`H2D` / `Execute` / `D2H`), for both virtual-time
//!   simulation traces and live wall-clock traces.
//! * [`TraceCollector`] — wall-clock span recording with Chrome
//!   trace-event JSON export ([`chrome_trace_json`]), so a
//!   `chrome://tracing` / Perfetto timeline shows server-side and
//!   runtime-side spans on correlated tracks.
//! * [`AtomicHistogram`] — a lock-free log-bucketed histogram
//!   (relaxed atomics) for recording latencies on request hot paths.
//! * [`TelemetrySnapshot`] — the one serde-serialized JSON document
//!   merging scheduler metrics, serving metrics and per-model batcher
//!   gauges behind a stable, versioned schema.

mod collector;
mod ctx;
mod histogram;
mod snapshot;
mod span;

pub use collector::{LiveSpan, TraceCollector};
pub use ctx::{SpanCtx, TraceId};
pub use histogram::AtomicHistogram;
pub use sim_core::HistogramSummary;
pub use snapshot::{
    BackendTelemetry, BatcherTelemetry, ModelTelemetry, PlanTelemetry, ReactorTelemetry,
    RouterTelemetry, SchedulerTelemetry, ServingTelemetry, ShardTelemetry, TelemetrySnapshot,
    TELEMETRY_SCHEMA_VERSION,
};
pub use span::{chrome_trace_json, ChromeArgs, ChromeEvent, SpanKind};
