//! # spn-telemetry — the workspace's single telemetry substrate
//!
//! Every layer of the serving stack describes itself through this
//! crate, so one request can be followed end to end:
//!
//! * [`TraceId`] / [`SpanCtx`] — a cheap, copyable request context
//!   minted once per `Infer` request at the wire protocol and carried
//!   through batcher queue entries and scheduler job options down to
//!   the device spans.
//! * [`LiveSpan`] / [`SpanKind`] — the one span type, for both
//!   virtual-time simulation traces and live wall-clock traces, and
//!   its vocabulary shared by the server layer (`RequestQueued` /
//!   `BatchFormed` / `ReplyWritten`) and the runtime layer (`H2D` /
//!   `Execute` / `D2H`); [`chrome_trace_json`] is their one exporter,
//!   so a `chrome://tracing` / Perfetto timeline shows server-side
//!   spans and one track per runtime control thread, correlated.
//! * [`TraceCollector`] — wall-clock span recording.
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

pub use collector::TraceCollector;
pub use ctx::{SpanCtx, TraceId};
pub use histogram::AtomicHistogram;
pub use sim_core::HistogramSummary;
pub use snapshot::{
    BackendTelemetry, BatcherTelemetry, ModelTelemetry, PlanTelemetry, ReactorTelemetry,
    RouterTelemetry, SchedulerTelemetry, ServingTelemetry, ShardTelemetry, TelemetrySnapshot,
    TELEMETRY_SCHEMA_VERSION,
};
pub use span::{chrome_trace_json, ChromeArgs, ChromeEvent, LiveSpan, SpanKind};
