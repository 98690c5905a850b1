//! # spn-replay — recorded traffic as a first-class test input
//!
//! The paper's headline results are throughput curves measured under
//! controlled, repeatable load. This crate gives the serving stack the
//! same discipline: production-shaped traffic (bursts, heavy-tailed
//! request sizes, model mixes) becomes a deterministic, replayable
//! artifact instead of a one-shot side effect of a closed-loop
//! loadgen run.
//!
//! Three pieces:
//!
//! * [`Trace`] — the compact, versioned `.spntrace` file: one record
//!   per request with its arrival offset, model, shape, per-request
//!   seed (which regenerates the payload bit-for-bit), a payload
//!   digest, and — when the recorder saw an `Ok` reply — a reply
//!   digest. Checksummed; truncation and corruption decode to typed
//!   [`TraceError`]s, never panics.
//! * [`TraceRecorder`] / [`record_load`] — the recorder, hung off
//!   `spn-server`'s load driver through its `LoadObserver` hook.
//! * [`replay()`] — the open-loop replayer: hands that same driver
//!   each recorded connection's requests with their fire times (the
//!   original gaps, scaled by [`ReplayConfig::speed`], optionally
//!   compressed into a [`Burst`]), and verifies the replies its observer
//!   files bit-for-bit against the recorded digests.

pub mod digest;
pub mod record;
pub mod replay;
pub mod trace;

pub use digest::{digest_bytes, digest_lls};
pub use record::{record_load, TraceRecorder};
pub use replay::{replay, Burst, ReplayConfig, ReplayError, ReplayReport};
pub use trace::{scaled_arrival_ns, Trace, TraceError, TraceRecord, TRACE_VERSION};
