//! # spn-router — the cluster front-end
//!
//! The paper scales SPN inference across independent HBM channels;
//! this crate scales the *serving stack* the same way, across N
//! independent `spn-server` backends. It speaks the unmodified SPN1
//! wire protocol on both sides — clients cannot tell a router from a
//! single server, and backends cannot tell a router from a client —
//! so the whole cluster is a drop-in behind one address:
//!
//! * [`ring`] — consistent-hash model placement: weighted virtual
//!   nodes, deterministic from the backend ids, K distinct replicas
//!   per model, minimal movement when the backend set changes;
//! * [`pool`] — the backend table: bounded in-flight slots,
//!   request/failure counters, and the generation that retires every
//!   loop's pooled connections to a backend at once;
//! * [`health`] — an Up/Degraded/Down state machine fed by an active
//!   `Ping` prober and by forwarding failures, with hysteresis on
//!   both demotion and re-admission;
//! * [`router`] — the service itself, on `spn-server`'s reactor:
//!   decode, place, and forward from the loop that read the request,
//!   with automatic failover (connect failure, closed/timed-out
//!   connection, or a `ShuttingDown`/`ServerBusy` backend), passing
//!   every per-request verdict through unchanged;
//! * [`metrics`] — [`spn_telemetry::RouterTelemetry`] (request and
//!   failover counters, per-backend health and load, end-to-end
//!   latency histogram) served by the `Stats` opcode, plus
//!   `route-pick` / `backend-rpc` trace spans on the router track.
//!
//! ## Minimal cluster
//!
//! ```no_run
//! use spn_router::{RouterConfig, SpnRouter};
//! use spn_server::Client;
//!
//! let router = SpnRouter::start(RouterConfig {
//!     backends: vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
//!     ..RouterConfig::default()
//! })?;
//! let mut client = Client::connect(router.local_addr())?;
//! let lls = client.request("NIPS10").samples(&[0u8; 10], 1, 10).send()?;
//! println!("routed log-likelihood: {}", lls[0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod health;
pub mod metrics;
pub mod pool;
pub mod ring;
pub mod router;

pub use health::{HealthCell, HealthPolicy, HealthState};
pub use pool::Backend;
pub use ring::HashRing;
pub use router::{RouterConfig, RouterError, SpnRouter};
