//! The unified telemetry document.
//!
//! One serde-serialized JSON schema covers every surface that used to
//! emit its own hand-rolled JSON: the scheduler's counters
//! ([`SchedulerTelemetry`], filled by `spn-runtime`'s
//! `MetricsRegistry`), the serving layer's counters and latency
//! summaries ([`ServingTelemetry`], filled by `spn-server`'s
//! `ServerMetrics`), and the per-model batcher gauges
//! ([`BatcherTelemetry`]). The merged [`TelemetrySnapshot`] is what
//! the `Stats` opcode returns and what `spn accelerate --metrics`
//! writes.
//!
//! Key order in the JSON follows field declaration order here and is
//! part of the contract (pinned by `tests/metrics_json.rs`); bump
//! [`TELEMETRY_SCHEMA_VERSION`] on any breaking change.

use serde::{Deserialize, Serialize};
use sim_core::HistogramSummary;
use std::collections::BTreeMap;

/// Version stamp of the [`TelemetrySnapshot`] JSON schema.
/// Version 2 added the optional top-level `plan` section
/// ([`PlanTelemetry`]); version 3 added the optional top-level
/// `router` section ([`RouterTelemetry`]); version 4 added an
/// optional top-level `shard` section (scope-sharded execution);
/// version 5 added the optional top-level `reactor` section
/// ([`ReactorTelemetry`]); version 6 removed the `shard` section with
/// the sharded backend. A v4 or v5 document still parses: the unknown
/// `shard` key is ignored.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 6;

/// Point-in-time counters of one scheduler (`spn-runtime`'s
/// `MetricsRegistry`). Field order = JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerTelemetry {
    /// Jobs accepted by `submit`.
    pub jobs_submitted: u64,
    /// Jobs that completed successfully.
    pub jobs_completed: u64,
    /// Jobs that failed permanently.
    pub jobs_failed: u64,
    /// Jobs cancelled before completion.
    pub jobs_cancelled: u64,
    /// Blocks executed on the device (including retried attempts).
    pub blocks_executed: u64,
    /// Transient-fault retries.
    pub block_retries: u64,
    /// Bytes copied host→device.
    pub h2d_bytes: u64,
    /// Bytes copied device→host.
    pub d2h_bytes: u64,
    /// Jobs currently in flight.
    pub jobs_in_flight: u64,
    /// Samples currently in flight.
    pub samples_in_flight: u64,
    /// Largest number of jobs ever simultaneously queued.
    pub queue_high_watermark: u64,
    /// Cumulative busy seconds per PE.
    pub pe_busy_secs: Vec<f64>,
}

/// Point-in-time counters of the serving layer (`spn-server`'s
/// `ServerMetrics`). Field order = JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingTelemetry {
    /// Inference requests admitted.
    pub requests_total: u64,
    /// Samples across admitted requests.
    pub samples_total: u64,
    /// Batches flushed to the scheduler.
    pub batches_total: u64,
    /// Samples admitted but not yet answered.
    pub inflight_samples: u64,
    /// Requests rejected: unparsable frame or payload.
    pub rejected_malformed: u64,
    /// Requests rejected: model not registered.
    pub rejected_unknown_model: u64,
    /// Requests rejected: feature-count mismatch.
    pub rejected_shape_mismatch: u64,
    /// Requests rejected: admission control.
    pub rejected_server_busy: u64,
    /// Requests rejected: deadline expired.
    pub rejected_deadline: u64,
    /// Requests rejected: server shutting down.
    pub rejected_shutting_down: u64,
    /// Requests rejected: internal error.
    pub rejected_internal: u64,
    /// Distribution of samples per flushed batch.
    pub batch_samples: HistogramSummary,
    /// Distribution of request wait time in the batch queue (seconds).
    pub queue_wait_seconds: HistogramSummary,
    /// Distribution of end-to-end request latency (seconds).
    pub e2e_seconds: HistogramSummary,
}

/// Live gauges of one model's micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatcherTelemetry {
    /// Samples currently parked in the batch queue.
    pub queued_samples: u64,
}

/// Point-in-time counters of a compiled-plan cache (`spn-runtime`'s
/// `PlanCache`). Field order = JSON key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanTelemetry {
    /// Compiled plans currently cached.
    pub cached_plans: u64,
    /// Lookups answered from the cache.
    pub cache_hits: u64,
    /// Lookups that had to compile.
    pub cache_misses: u64,
    /// Plans evicted by explicit invalidation.
    pub invalidations: u64,
}

/// Point-in-time counters of the nonblocking serving front-end
/// (`spn-server`'s epoll reactor). Field order = JSON key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactorTelemetry {
    /// Event-loop threads in the pool.
    pub loop_threads: u64,
    /// Event-loop iterations (one per `epoll_wait` return) across all
    /// loops.
    pub loop_iterations: u64,
    /// Readiness events delivered across all loops (connection
    /// readiness plus cross-thread wakeups).
    pub readiness_events: u64,
    /// Connections currently open (gauge).
    pub open_connections: u64,
    /// Largest number of simultaneously open connections observed.
    pub peak_connections: u64,
    /// Connections accepted and handed to a loop since startup.
    pub accepted_total: u64,
    /// Connections refused at accept with a typed `ServerBusy` frame
    /// because the connection limit was reached.
    pub rejected_at_accept: u64,
    /// Connections closed by the idle-timeout timer wheel.
    pub idle_closed: u64,
    /// Accepted connections parked in loop inboxes, not yet
    /// registered with their loop's epoll (gauge).
    pub accept_backlog: u64,
}

/// Point-in-time counters of one routed backend, as the cluster
/// front-end (`spn-router`) sees it. Field order = JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendTelemetry {
    /// Health state: `"up"`, `"degraded"` or `"down"`.
    pub state: String,
    /// Requests forwarded to this backend (successful round trips).
    pub requests_total: u64,
    /// Forwarding attempts that failed (connect/deadline/closed
    /// connection) and moved on to the next replica.
    pub failures_total: u64,
    /// Requests currently in flight against this backend.
    pub inflight: u64,
    /// Health-state transitions observed since startup.
    pub health_transitions: u64,
}

/// Point-in-time counters of the cluster front-end (`spn-router`).
/// Field order = JSON key order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterTelemetry {
    /// Inference requests answered `Ok` through some backend.
    pub requests_total: u64,
    /// Requests that succeeded only after failing over to another
    /// replica.
    pub failovers_total: u64,
    /// Requests rejected at the router: unparsable frame or payload.
    pub rejected_malformed: u64,
    /// Requests rejected at the router: every replica unavailable.
    pub rejected_no_backend: u64,
    /// Requests rejected by the chosen backend (typed status passed
    /// through to the client).
    pub rejected_by_backend: u64,
    /// Health-state transitions across all backends.
    pub health_transitions_total: u64,
    /// Distribution of end-to-end routed-request latency (seconds).
    pub e2e_seconds: HistogramSummary,
    /// Per-backend counters, keyed by backend id (sorted).
    pub backends: BTreeMap<String, BackendTelemetry>,
}

/// Everything known about one served model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelTelemetry {
    /// The model's scheduler counters.
    pub scheduler: SchedulerTelemetry,
    /// Batcher gauges; `null` when the model is driven directly (no
    /// serving layer, e.g. `spn accelerate`).
    pub batcher: Option<BatcherTelemetry>,
}

/// The merged, versioned telemetry document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Schema version ([`TELEMETRY_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Serving-layer counters; `null` outside a server context.
    pub server: Option<ServingTelemetry>,
    /// Per-model telemetry, keyed by model name (sorted).
    pub models: BTreeMap<String, ModelTelemetry>,
    /// Compiled-plan cache counters; `null` when no plan cache is in
    /// play (e.g. a device-only deployment).
    pub plan: Option<PlanTelemetry>,
    /// Cluster front-end counters; `null` outside a router context.
    /// Absent in pre-v3 documents (tolerated as `None` on parse).
    pub router: Option<RouterTelemetry>,
    /// Reactor front-end counters; `null` when the server runs the
    /// threaded oracle (or outside a server context). Absent in
    /// pre-v5 documents (tolerated as `None` on parse).
    pub reactor: Option<ReactorTelemetry>,
}

impl SchedulerTelemetry {
    /// Pretty JSON text of this snapshot alone.
    pub fn to_json(&self) -> String {
        to_json_doc(self)
    }
}

impl ServingTelemetry {
    /// Pretty JSON text of this snapshot alone.
    pub fn to_json(&self) -> String {
        to_json_doc(self)
    }
}

impl TelemetrySnapshot {
    /// A snapshot with no serving layer and no models — the starting
    /// point callers fill in.
    pub fn empty() -> Self {
        TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA_VERSION,
            server: None,
            models: BTreeMap::new(),
            plan: None,
            router: None,
            reactor: None,
        }
    }

    /// Pretty JSON text of the whole document.
    pub fn to_json(&self) -> String {
        to_json_doc(self)
    }
}

/// Shared rendering: pretty JSON with a trailing newline (the snapshot
/// files `spn accelerate --metrics` writes are line-terminated).
fn to_json_doc<T: Serialize>(value: &T) -> String {
    let mut out =
        serde_json::to_string_pretty(value).expect("telemetry serialization is infallible");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler_fixture() -> SchedulerTelemetry {
        SchedulerTelemetry {
            jobs_submitted: 2,
            jobs_completed: 1,
            jobs_failed: 0,
            jobs_cancelled: 0,
            blocks_executed: 2,
            block_retries: 1,
            h2d_bytes: 4096,
            d2h_bytes: 1024,
            jobs_in_flight: 1,
            samples_in_flight: 50,
            queue_high_watermark: 2,
            pe_busy_secs: vec![0.5, 0.0],
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut snap = TelemetrySnapshot::empty();
        snap.models.insert(
            "NIPS10".to_string(),
            ModelTelemetry {
                scheduler: scheduler_fixture(),
                batcher: Some(BatcherTelemetry { queued_samples: 7 }),
            },
        );
        let json = snap.to_json();
        let back = serde_json::from_str::<TelemetrySnapshot>(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.schema, TELEMETRY_SCHEMA_VERSION);
    }

    #[test]
    fn absent_server_section_is_null_and_tolerated_when_missing() {
        let json = TelemetrySnapshot::empty().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["server"].is_null());
        // A document without the key at all still parses (Option
        // defaults to None), so additive schema evolution is safe.
        let trimmed: TelemetrySnapshot =
            serde_json::from_str(r#"{"schema": 1, "models": {}}"#).unwrap();
        assert_eq!(trimmed.server, None);
    }

    #[test]
    fn model_names_serialize_sorted() {
        let mut snap = TelemetrySnapshot::empty();
        for name in ["zeta", "alpha"] {
            snap.models.insert(
                name.to_string(),
                ModelTelemetry {
                    scheduler: scheduler_fixture(),
                    batcher: None,
                },
            );
        }
        let json = snap.to_json();
        assert!(json.find("alpha").unwrap() < json.find("zeta").unwrap());
    }
}
