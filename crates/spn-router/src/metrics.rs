//! Router-level counters, folded into the unified telemetry schema.

use crate::pool::Backend;
use spn_telemetry::{AtomicHistogram, BackendTelemetry, RouterTelemetry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free router counters; the per-backend counters live on the
/// [`Backend`] entries themselves.
pub(crate) struct RouterMetrics {
    requests_total: AtomicU64,
    failovers_total: AtomicU64,
    rejected_malformed: AtomicU64,
    rejected_no_backend: AtomicU64,
    rejected_by_backend: AtomicU64,
    /// End-to-end routed-request latency (seconds).
    pub e2e_seconds: AtomicHistogram,
}

impl Default for RouterMetrics {
    fn default() -> Self {
        RouterMetrics::new()
    }
}

impl RouterMetrics {
    /// Fresh, all-zero counters.
    pub(crate) fn new() -> RouterMetrics {
        RouterMetrics {
            requests_total: AtomicU64::new(0),
            failovers_total: AtomicU64::new(0),
            rejected_malformed: AtomicU64::new(0),
            rejected_no_backend: AtomicU64::new(0),
            rejected_by_backend: AtomicU64::new(0),
            e2e_seconds: AtomicHistogram::latency(),
        }
    }

    /// One request answered `Ok`; `failed_over` when it needed more
    /// than one attempt.
    pub(crate) fn request_ok(&self, failed_over: bool) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        if failed_over {
            self.failovers_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One request rejected at the router with `Malformed`.
    pub(crate) fn rejected_malformed(&self) {
        self.rejected_malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// One request that exhausted every replica.
    pub(crate) fn rejected_no_backend(&self) {
        self.rejected_no_backend.fetch_add(1, Ordering::Relaxed);
    }

    /// One typed backend rejection passed through to the client.
    pub(crate) fn rejected_by_backend(&self) {
        self.rejected_by_backend.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot into the telemetry schema, joining the per-backend
    /// counters (keyed and therefore sorted by backend id).
    pub(crate) fn snapshot(&self, backends: &[std::sync::Arc<Backend>]) -> RouterTelemetry {
        let backend_map: BTreeMap<String, BackendTelemetry> = backends
            .iter()
            .map(|b| {
                (
                    b.id.clone(),
                    BackendTelemetry {
                        state: b.health.state().name().to_string(),
                        requests_total: b.requests_total(),
                        failures_total: b.failures_total(),
                        inflight: b.inflight(),
                        health_transitions: b.health.transitions(),
                    },
                )
            })
            .collect();
        RouterTelemetry {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            failovers_total: self.failovers_total.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_malformed.load(Ordering::Relaxed),
            rejected_no_backend: self.rejected_no_backend.load(Ordering::Relaxed),
            rejected_by_backend: self.rejected_by_backend.load(Ordering::Relaxed),
            health_transitions_total: backends.iter().map(|b| b.health.transitions()).sum(),
            e2e_seconds: self.e2e_seconds.summary(),
            backends: backend_map,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthPolicy;
    use std::sync::Arc;

    #[test]
    fn snapshot_reflects_counters_and_backend_states() {
        let m = RouterMetrics::new();
        m.request_ok(false);
        m.request_ok(true);
        m.rejected_malformed();
        let b = Arc::new(Backend::resolve("127.0.0.1:1", &HealthPolicy::default()).unwrap());
        b.record_request();
        b.health.record_failure();
        let snap = m.snapshot(&[Arc::clone(&b)]);
        assert_eq!(snap.requests_total, 2);
        assert_eq!(snap.failovers_total, 1);
        assert_eq!(snap.rejected_malformed, 1);
        assert_eq!(snap.health_transitions_total, 1);
        let bt = &snap.backends["127.0.0.1:1"];
        assert_eq!(bt.state, "degraded");
        assert_eq!(bt.requests_total, 1);
    }
}
