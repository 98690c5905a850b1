//! Request-scoped trace context.
//!
//! A [`TraceId`] is minted once per `Infer` request when the wire
//! protocol decodes it, then rides along — batcher queue entry,
//! scheduler job options — so every span the request causes can be
//! stamped with the same identity. The context is plain `Copy` data:
//! propagating it costs a register, not an allocation or a lock.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global mint: ids start at 1 so 0 can mean "no request".
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Identity of one client request, unique within the process.
///
/// Serializes as a bare integer (transparent newtype).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absence of a request: spans recorded outside any request
    /// (virtual-time simulation, plan compiles, jobs submitted without
    /// a context) carry this.
    pub const NONE: TraceId = TraceId(0);

    /// Mint a fresh, process-unique id.
    pub(crate) fn mint() -> TraceId {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The copyable context carried through every layer on behalf of one
/// request. Today it is just the [`TraceId`]; it exists as a struct so
/// adding fields (sampling decisions, priorities) does not churn every
/// signature again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanCtx {
    /// Identity of the request this work belongs to.
    pub trace_id: TraceId,
}

impl SpanCtx {
    /// Context with no associated request.
    pub const NONE: SpanCtx = SpanCtx {
        trace_id: TraceId::NONE,
    };

    /// Mint a context for a newly arrived request.
    pub fn mint() -> SpanCtx {
        SpanCtx {
            trace_id: TraceId::mint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_unique_and_nonzero() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert!(a != TraceId::NONE && b != TraceId::NONE);
    }

    #[test]
    fn minting_is_unique_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| (0..1000).map(|_| TraceId::mint()).collect::<Vec<_>>()))
            .collect();
        let mut all: Vec<TraceId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate trace ids minted");
    }

    #[test]
    fn serializes_as_bare_number() {
        let json = serde_json::to_string(&TraceId(42)).unwrap();
        assert_eq!(json, "42");
        let back: TraceId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, TraceId(42));
    }
}
