//! Serving-layer observability.
//!
//! [`ServerMetrics`] complements the scheduler's
//! [`spn_runtime::MetricsRegistry`] one layer up: where the registry
//! counts *jobs and blocks*, this counts *client requests and
//! micro-batches* — how well the adaptive batcher coalesces traffic
//! (batch-size histogram), how long requests sit in the batch queue,
//! and end-to-end request latency as seen at the server. Everything is
//! lock-free: counters are relaxed atomics and the three histograms
//! are [`AtomicHistogram`]s, so loop and control threads never contend
//! on a mutex to record a latency.

use spn_telemetry::{AtomicHistogram, ReactorTelemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::protocol::Status;

pub use spn_telemetry::HistogramSummary;

/// A point-in-time copy of [`ServerMetrics`] — the serving section of
/// the unified telemetry schema, re-exported under the name the server
/// API has always used.
pub(crate) type ServerMetricsSnapshot = spn_telemetry::ServingTelemetry;

/// Atomic counters and lock-free histograms for one server instance.
#[derive(Debug)]
pub struct ServerMetrics {
    requests_total: AtomicU64,
    samples_total: AtomicU64,
    batches_total: AtomicU64,
    rejected_malformed: AtomicU64,
    rejected_unknown_model: AtomicU64,
    rejected_shape_mismatch: AtomicU64,
    rejected_server_busy: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_shutting_down: AtomicU64,
    rejected_internal: AtomicU64,
    /// Samples admitted and not yet answered (gauge).
    inflight_samples: AtomicU64,
    /// Samples per scheduler job the batcher formed (1 … batch cap).
    batch_samples: AtomicHistogram,
    /// Seconds a request waited in the batch queue before its job was
    /// submitted.
    queue_wait: AtomicHistogram,
    /// Seconds from request decode to response ready.
    e2e_latency: AtomicHistogram,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ServerMetrics {
            requests_total: AtomicU64::new(0),
            samples_total: AtomicU64::new(0),
            batches_total: AtomicU64::new(0),
            rejected_malformed: AtomicU64::new(0),
            rejected_unknown_model: AtomicU64::new(0),
            rejected_shape_mismatch: AtomicU64::new(0),
            rejected_server_busy: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            rejected_shutting_down: AtomicU64::new(0),
            rejected_internal: AtomicU64::new(0),
            inflight_samples: AtomicU64::new(0),
            // 1 sample .. 16 Mi samples per batch, 8 sub-buckets/octave.
            batch_samples: AtomicHistogram::new(1.0, (16u64 << 20) as f64),
            queue_wait: AtomicHistogram::latency(),
            e2e_latency: AtomicHistogram::latency(),
        }
    }

    /// An `Infer` request passed admission control.
    pub fn request_admitted(&self, samples: u64) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        self.samples_total.fetch_add(samples, Ordering::Relaxed);
        self.inflight_samples.fetch_add(samples, Ordering::Relaxed);
    }

    /// An admitted request was answered (any status); drops the
    /// in-flight gauge and records end-to-end latency.
    pub fn request_done(&self, samples: u64, e2e: Duration) {
        self.inflight_samples.fetch_sub(samples, Ordering::Relaxed);
        self.e2e_latency.record_duration(e2e);
    }

    /// A request was rejected with `status` (before or after
    /// admission; the caller handles the gauge via `request_done`).
    pub(crate) fn rejected(&self, status: Status) {
        match status {
            Status::Ok => return,
            Status::Malformed => &self.rejected_malformed,
            Status::UnknownModel => &self.rejected_unknown_model,
            Status::ShapeMismatch => &self.rejected_shape_mismatch,
            Status::ServerBusy => &self.rejected_server_busy,
            Status::DeadlineExceeded => &self.rejected_deadline,
            Status::ShuttingDown => &self.rejected_shutting_down,
            Status::Internal => &self.rejected_internal,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// The batcher flushed a micro-batch of `samples` samples; each
    /// member request waited `waits[i]` in the queue.
    pub fn batch_flushed(&self, samples: u64, waits: &[Duration]) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        self.batch_samples.record(samples as f64);
        for w in waits {
            self.queue_wait.record_duration(*w);
        }
    }

    /// Samples admitted and not yet answered (the admission-control
    /// gauge, mirroring [`spn_runtime::Scheduler::samples_in_flight`]
    /// one layer up).
    pub(crate) fn inflight_samples(&self) -> u64 {
        self.inflight_samples.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of every counter, gauge and histogram
    /// summary, in the unified telemetry schema.
    pub fn snapshot(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            samples_total: self.samples_total.load(Ordering::Relaxed),
            batches_total: self.batches_total.load(Ordering::Relaxed),
            inflight_samples: self.inflight_samples.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_malformed.load(Ordering::Relaxed),
            rejected_unknown_model: self.rejected_unknown_model.load(Ordering::Relaxed),
            rejected_shape_mismatch: self.rejected_shape_mismatch.load(Ordering::Relaxed),
            rejected_server_busy: self.rejected_server_busy.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            rejected_shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
            rejected_internal: self.rejected_internal.load(Ordering::Relaxed),
            batch_samples: self.batch_samples.summary(),
            queue_wait_seconds: self.queue_wait.summary(),
            e2e_seconds: self.e2e_latency.summary(),
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

/// Lock-free counters of one reactor: its handle owns them, the accept
/// path and every event loop record into them, and the `Stats` opcode
/// hands them to the service for the telemetry document's `reactor`
/// section (since schema v5).
#[derive(Debug, Default)]
pub struct ReactorMetrics {
    loop_threads: AtomicU64,
    loop_iterations: AtomicU64,
    readiness_events: AtomicU64,
    open_connections: AtomicU64,
    peak_connections: AtomicU64,
    accepted_total: AtomicU64,
    rejected_at_accept: AtomicU64,
    idle_closed: AtomicU64,
    accept_backlog: AtomicU64,
    /// `epoll_ctl(MOD)` calls on connections, `accept` calls, and
    /// pooled upstream connections closed for outliving their TTL (for
    /// tests; not in the telemetry document).
    interest_changes: AtomicU64,
    accept_attempts: AtomicU64,
    idle_expired_total: AtomicU64,
}

impl ReactorMetrics {
    /// Fresh, all-zero metrics for a pool of `loop_threads` loops.
    pub(crate) fn new(loop_threads: usize) -> Self {
        let m = ReactorMetrics::default();
        m.loop_threads.store(loop_threads as u64, Ordering::Relaxed);
        m
    }

    /// One `epoll_wait` returned, delivering `events` readiness
    /// events.
    pub(crate) fn loop_turn(&self, events: u64) {
        self.loop_iterations.fetch_add(1, Ordering::Relaxed);
        self.readiness_events.fetch_add(events, Ordering::Relaxed);
    }

    /// A connection was accepted and handed to a loop (it now sits in
    /// the loop's inbox — the accept backlog — until registered).
    pub(crate) fn conn_accepted(&self) {
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
        self.accept_backlog.fetch_add(1, Ordering::Relaxed);
        let open = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(open, Ordering::Relaxed);
    }

    /// A loop pulled an accepted connection out of its inbox and
    /// registered it.
    pub(crate) fn conn_registered(&self) {
        self.accept_backlog.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection closed (any reason).
    pub(crate) fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was refused at accept with a `ServerBusy` frame.
    pub(crate) fn conn_rejected_at_accept(&self) {
        self.rejected_at_accept.fetch_add(1, Ordering::Relaxed);
    }

    /// The timer wheel closed an idle connection.
    pub(crate) fn conn_idle_closed(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// A loop changed a registered connection's epoll interest.
    pub(crate) fn interest_changed(&self) {
        self.interest_changes.fetch_add(1, Ordering::Relaxed);
    }

    /// Loop 0 called `accept`.
    pub(crate) fn accept_attempted(&self) {
        self.accept_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// A loop closed a pooled upstream connection past its TTL.
    pub(crate) fn idle_expired(&self) {
        self.idle_expired_total.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn interest_changes(&self) -> u64 {
        self.interest_changes.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn accept_attempts(&self) -> u64 {
        self.accept_attempts.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn idle_expired_total(&self) -> u64 {
        self.idle_expired_total.load(Ordering::Relaxed)
    }

    /// Connections currently open (the accept path's admission gauge).
    pub(crate) fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Point-in-time copy in the unified telemetry schema.
    pub(crate) fn snapshot(&self) -> ReactorTelemetry {
        ReactorTelemetry {
            loop_threads: self.loop_threads.load(Ordering::Relaxed),
            loop_iterations: self.loop_iterations.load(Ordering::Relaxed),
            readiness_events: self.readiness_events.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            accepted_total: self.accepted_total.load(Ordering::Relaxed),
            rejected_at_accept: self.rejected_at_accept.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            accept_backlog: self.accept_backlog.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauge_track_requests() {
        let m = ServerMetrics::new();
        m.request_admitted(10);
        m.request_admitted(5);
        assert_eq!(m.inflight_samples(), 15);
        m.request_done(10, Duration::from_millis(3));
        assert_eq!(m.inflight_samples(), 5);
        m.rejected(Status::ServerBusy);
        m.rejected(Status::Malformed);
        m.rejected(Status::Ok); // no-op
        m.batch_flushed(
            15,
            &[Duration::from_micros(100), Duration::from_micros(200)],
        );
        let snap = m.snapshot();
        assert_eq!(snap.requests_total, 2);
        assert_eq!(snap.samples_total, 15);
        assert_eq!(snap.batches_total, 1);
        assert_eq!(snap.inflight_samples, 5);
        assert_eq!(snap.rejected_server_busy, 1);
        assert_eq!(snap.rejected_malformed, 1);
        assert_eq!(snap.batch_samples.count, 1);
        assert_eq!(snap.queue_wait_seconds.count, 2);
        assert_eq!(snap.e2e_seconds.count, 1);
        assert!(snap.e2e_seconds.p99 > 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_serde_json() {
        let m = ServerMetrics::new();
        m.request_admitted(4);
        m.request_done(4, Duration::from_millis(1));
        m.batch_flushed(4, &[Duration::from_micros(10)]);
        let snap = m.snapshot();
        let back: ServerMetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn histogram_recording_needs_no_mut_access() {
        // Many threads record into one &ServerMetrics concurrently;
        // every observation lands (the lock-free refactor's contract).
        let m = std::sync::Arc::new(ServerMetrics::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        m.request_admitted(1);
                        m.request_done(1, Duration::from_micros(i + 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.requests_total, 4000);
        assert_eq!(snap.e2e_seconds.count, 4000);
        assert_eq!(snap.inflight_samples, 0);
    }
}
