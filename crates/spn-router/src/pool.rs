//! The backend table: one entry per `spn-server`, each with an
//! in-flight bound, request/failure counters and a health cell.
//!
//! Connections are not kept here: each reactor loop pools its own idle
//! upstream connections (`spn_server::reactor`). The table keeps the
//! generation they are stamped with; `Backend::drain_pool` bumps it,
//! and every loop then closes its idle connections to the backend.

use crate::health::{HealthCell, HealthPolicy};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One routed backend.
pub struct Backend {
    /// The id the operator supplied (`host:port`); ring placement and
    /// telemetry key.
    pub id: String,
    /// Resolved socket address.
    pub addr: SocketAddr,
    /// Health cell shared by the prober and the forwarding path.
    pub health: HealthCell,
    pool_generation: AtomicU64,
    inflight: AtomicU64,
    requests_total: AtomicU64,
    failures_total: AtomicU64,
}

impl Backend {
    /// Resolve `id` (`host:port`) into a backend entry.
    pub(crate) fn resolve(id: &str, policy: &HealthPolicy) -> Result<Backend, String> {
        let addr = id
            .to_socket_addrs()
            .map_err(|e| format!("backend '{id}': {e}"))?
            .next()
            .ok_or_else(|| format!("backend '{id}' resolves to no address"))?;
        Ok(Backend {
            id: id.to_string(),
            addr,
            health: HealthCell::new(policy),
            pool_generation: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            failures_total: AtomicU64::new(0),
        })
    }

    /// The generation pooled connections to this backend must carry to
    /// be reused.
    pub(crate) fn pool_generation(&self) -> u64 {
        self.pool_generation.load(Ordering::Relaxed)
    }

    /// Retire every pooled connection to this backend (e.g. after it
    /// went down, so recovery starts from fresh dials).
    pub(crate) fn drain_pool(&self) {
        self.pool_generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests currently in flight against this backend.
    pub(crate) fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Try to reserve an in-flight slot under `bound`; the returned
    /// guard releases it, and may outlive the caller's stack frame (a
    /// forwarded request holds it until the backend answers). `None`
    /// when the backend is at capacity.
    pub(crate) fn reserve(self: &Arc<Self>, bound: u64) -> Option<InflightGuard> {
        let prev = self.inflight.fetch_add(1, Ordering::Relaxed);
        if prev >= bound {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(InflightGuard {
            backend: Arc::clone(self),
        })
    }

    /// Count one successful round trip.
    pub(crate) fn record_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one failed forwarding attempt.
    pub(crate) fn record_failure(&self) {
        self.failures_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful round trips so far.
    pub(crate) fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Failed forwarding attempts so far.
    pub(crate) fn failures_total(&self) -> u64 {
        self.failures_total.load(Ordering::Relaxed)
    }
}

/// RAII release of a reserved in-flight slot.
pub struct InflightGuard {
    backend: Arc<Backend>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.backend.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> Arc<Backend> {
        // Resolution only; nothing listens here.
        Arc::new(Backend::resolve("127.0.0.1:1", &HealthPolicy::default()).unwrap())
    }

    #[test]
    fn unresolvable_backend_is_a_config_error() {
        assert!(Backend::resolve("not an address", &HealthPolicy::default()).is_err());
    }

    #[test]
    fn inflight_bound_is_enforced_and_released() {
        let b = backend();
        let g1 = b.reserve(2).unwrap();
        let _g2 = b.reserve(2).unwrap();
        assert!(b.reserve(2).is_none(), "third slot refused at bound 2");
        assert_eq!(b.inflight(), 2);
        drop(g1);
        assert_eq!(b.inflight(), 1);
        assert!(b.reserve(2).is_some());
    }
}
