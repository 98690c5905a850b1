//! # spn-server — the network inference-serving subsystem
//!
//! The paper's accelerator answers *"how fast can the card run
//! inference"*; this crate answers the next question an operator
//! asks: *"how do I put that behind a socket for many clients"*.
//! It layers a small TCP serving stack on top of
//! [`spn_runtime::Scheduler`]:
//!
//! * [`protocol`] — a length-prefixed binary wire protocol (magic,
//!   version, opcodes `Infer`/`Ping`/`Stats`/`Shutdown`, typed error
//!   statuses);
//! * [`batcher`] — the adaptive micro-batcher: per-model queues
//!   coalesce the small client requests that arrive *while the PEs
//!   are busy* into one scheduler job (flushed at once when a PE is
//!   free, a sample threshold fills or a delay bound expires), then
//!   demux the results back per request — bit-identical to unbatched
//!   inference, but paying the scheduler's per-job cost once per
//!   batch instead of once per request;
//! * [`frontend`] — the one SPN1 connection front-end: request
//!   dispatch (`Ping`/`Stats`/`Shutdown`/`Infer`), malformed-frame
//!   containment and the shutdown latch, behind a small [`Service`]
//!   seam that `spn-router` serves through as well;
//! * [`server`] — the server's [`Service`]: model registry, admission
//!   control (bounded in-flight samples → [`Status::ServerBusy`]),
//!   per-request deadlines and graceful drain-on-shutdown;
//! * [`reactor`] — the one driver, for the server and `spn-router`
//!   alike: an epoll loop pool multiplexing thousands of connections,
//!   with connection limits, idle timeouts and outbound calls
//!   ([`Upstream`]);
//! * [`metrics`] — serving-layer counters and lock-free
//!   latency/batch-size histograms ([`spn_telemetry::AtomicHistogram`]),
//!   merged with per-model scheduler metrics into one
//!   [`spn_telemetry::TelemetrySnapshot`] JSON document behind the
//!   `Stats` opcode;
//! * [`client`] — a blocking wire client for probes, the CLI, tests
//!   and examples;
//! * [`loadgen`] — the one client-side traffic driver: the epoll
//!   load generator behind `spn load`, `spn record` and `spn replay`,
//!   the studies and the tests;
//! * [`trace`], [`record`], [`replay`](mod@replay) — recorded traffic
//!   as a test input: the compact, versioned, checksummed `.spntrace`
//!   file (one record per request: arrival offset, model, shape, the
//!   seed that regenerates the payload, payload and reply digests from
//!   [`digest`]; corrupt input decodes to a typed [`TraceError`],
//!   never a panic), the recorder hung off the load driver, and the
//!   open-loop replayer, which hands that same driver each recorded
//!   connection's requests at their recorded offsets (scaled by
//!   [`ReplayConfig::speed`], optionally compressed into a [`Burst`])
//!   and verifies the replies bit-for-bit against the recorded
//!   digests.
//!
//! ## Minimal round trip
//!
//! ```no_run
//! use spn_server::{Client, ModelSpec, ServerConfig, SpnServer};
//! use std::sync::Arc;
//! # fn scheduler() -> Arc<spn_runtime::Scheduler> { unimplemented!() }
//!
//! let server = SpnServer::serve(
//!     ServerConfig::default(),
//!     vec![ModelSpec::new("NIPS10", scheduler(), 10, 2)],
//! )?;
//! let mut client = Client::connect(server.local_addr())?;
//! let lls = client.request("NIPS10").samples(&[0u8; 10], 1, 10).send()?;
//! println!("log-likelihood: {}", lls[0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batcher;
pub mod client;
pub mod digest;
pub mod frontend;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod record;
pub mod replay;
pub mod server;
pub mod trace;

pub use batcher::{BatchPolicy, Batcher, Reply};
pub use client::{Client, ClientError, InferBuilder};
pub use digest::{digest_bytes, digest_lls};
pub use frontend::{Dispatched, Frontend, InferReply, Service};
pub use loadgen::{run_load, synthetic_samples, LoadConfig, LoadReport, LoadRequest};
pub use metrics::{HistogramSummary, ReactorMetrics, ServerMetrics};
pub use protocol::{Frame, FrameDecoder, InferRequest, Opcode, Status, WireError};
pub use reactor::{ReactorConfig, ReactorHandle, Target, Upstream};
pub use record::record_load;
pub use replay::{replay, Burst, ReplayConfig, ReplayError, ReplayReport};
pub use server::{ModelSpec, ServerConfig, ServerError, ServingMode, SpnServer};
pub use trace::{scaled_arrival_ns, Trace, TraceError, TraceRecord};
// Telemetry types that appear in this crate's public API, re-exported
// so callers don't need a direct spn-telemetry dependency.
pub use spn_telemetry::{SpanCtx, TelemetrySnapshot, TraceCollector, TraceId};
