//! The one SPN1 connection front-end: request dispatch and the
//! shutdown latch, shared by every endpoint that serves the protocol.
//!
//! An endpoint is a [`Service`] — what `Stats` reports, how an `Infer`
//! payload is answered, how rejections are counted — behind a
//! [`Frontend`], which owns everything the protocol itself fixes:
//! `Ping`/`Stats`/`Shutdown` handling, the "answer a malformed header
//! once, then close" rule, refusing `Infer` while draining, and the
//! latch [`Frontend::wait_for_shutdown`] waits on. `spn-server` and
//! `spn-router` are two services behind the same front-end.
//!
//! The front-end does no I/O. One driver moves bytes for it, the epoll
//! [`crate::reactor`]: it decodes with the resumable
//! [`crate::protocol::FrameDecoder`], hands every complete frame to
//! `Frontend::dispatch` together with its loop's [`Upstream`] handle,
//! and writes what comes back; setting the latch wakes the loop that
//! listens, which closes the listener.

use crate::metrics::ReactorMetrics;
use crate::protocol::{Frame, Opcode, Status};
use crate::reactor::Upstream;
use parking_lot::{Condvar, Mutex};
use spn_telemetry::{LiveSpan, SpanCtx, SpanKind, TraceCollector};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An `Infer` response plus the request's trace context (for the
/// `ReplyWritten` span; [`SpanCtx::NONE`] when decoding failed).
pub type InferReply = (Frame, SpanCtx);

/// What an SPN1 endpoint serves — the seam between the shared
/// front-end and `spn-server` / `spn-router`.
pub trait Service: Send + Sync + 'static {
    /// The `Stats` response document; `reactor` holds the counters of
    /// the reactor serving this endpoint.
    fn stats_json(&self, reactor: &ReactorMetrics) -> String;

    /// The front-end refused a request before it reached
    /// [`Service::infer`]: `Malformed` for a bad frame header,
    /// `ShuttingDown` for an `Infer` that arrived while draining.
    fn rejected(&self, status: Status);

    /// Answer one `Infer` payload. Either return the response at once,
    /// or keep `done`, return `None`, and call `done` exactly once
    /// (from any thread) when the response is ready. `up` makes
    /// outbound calls on the loop that read the request; a service
    /// that calls no one ignores it.
    fn infer<F>(&self, payload: Vec<u8>, up: &mut Upstream<'_>, done: F) -> Option<InferReply>
    where
        F: FnOnce(InferReply) + Send + 'static;
}

/// What `Frontend::dispatch` decided for one request frame.
pub enum Dispatched {
    /// Write this frame now. `Some` marks an `Infer` response, whose
    /// write the driver reports through `Frontend::reply_written`.
    Reply(Frame, Option<SpanCtx>),
    /// The service kept the completion callback; the response arrives
    /// through it. The connection reads nothing more until then.
    Pending,
}

/// A [`Service`] plus the protocol state every endpoint shares.
pub struct Frontend<S> {
    /// The endpoint behind this front-end.
    pub service: S,
    local_addr: SocketAddr,
    trace: Option<Arc<TraceCollector>>,
    shutting_down: AtomicBool,
    /// Signalled when shutdown is requested (by the `Shutdown` opcode
    /// or the owner); `wait_for_shutdown` waits on it.
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
    /// Set by the reactor: wakes its listening loop, which closes the
    /// listener once the latch is set.
    pub(crate) wake_listener: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

impl<S: Service> Frontend<S> {
    /// A front-end for the listener bound at `local_addr`; `trace`
    /// receives `ReplyWritten` spans (`None` = off).
    pub fn new(service: S, local_addr: SocketAddr, trace: Option<Arc<TraceCollector>>) -> Self {
        Frontend {
            service,
            local_addr,
            trace,
            shutting_down: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            wake_listener: OnceLock::new(),
        }
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Set the latch and wake everyone who waits on it. Does no
    /// joining, so it is safe to call from a loop thread.
    pub fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let mut f = self.shutdown_flag.lock();
        *f = true;
        self.shutdown_cv.notify_all();
        if let Some(wake) = self.wake_listener.get() {
            wake();
        }
    }

    /// Block until shutdown is requested, or until `timeout` has
    /// passed (`None` = no bound). True when shutdown was requested:
    /// a periodic task waits its period here and stops on `true`.
    pub fn wait_for_shutdown(&self, timeout: Option<Duration>) -> bool {
        let start = Instant::now();
        let mut f = self.shutdown_flag.lock();
        while !*f {
            match timeout.map(|t| t.saturating_sub(start.elapsed())) {
                None => self.shutdown_cv.wait(&mut f),
                Some(left) if left.is_zero() => break,
                Some(left) => {
                    self.shutdown_cv.wait_for(&mut f, left);
                }
            }
        }
        *f
    }

    /// Route one complete request frame. `up` is the loop's handle for
    /// outbound calls; `done` is the driver's way back to the
    /// connection for a response that is not ready yet.
    pub(crate) fn dispatch<F>(&self, frame: Frame, up: &mut Upstream<'_>, done: F) -> Dispatched
    where
        F: FnOnce(InferReply) + Send + 'static,
    {
        match frame.opcode {
            Opcode::Ping => {
                Dispatched::Reply(Frame::response(Opcode::Ping, Status::Ok, vec![]), None)
            }
            Opcode::Stats => {
                let stats = self.service.stats_json(up.metrics()).into_bytes();
                Dispatched::Reply(Frame::response(Opcode::Stats, Status::Ok, stats), None)
            }
            Opcode::Shutdown => {
                // The client still gets its acknowledgement: setting
                // the latch only wakes the owner, whose drain joins
                // the loops after they have written it.
                self.request_shutdown();
                Dispatched::Reply(Frame::response(Opcode::Shutdown, Status::Ok, vec![]), None)
            }
            Opcode::Infer if self.is_shutting_down() => {
                self.service.rejected(Status::ShuttingDown);
                Dispatched::Reply(
                    Frame::error(
                        Opcode::Infer,
                        Status::ShuttingDown,
                        "draining; no new inference accepted",
                    ),
                    Some(SpanCtx::NONE),
                )
            }
            Opcode::Infer => match self.service.infer(frame.payload, up, done) {
                Some((reply, ctx)) => Dispatched::Reply(reply, Some(ctx)),
                None => Dispatched::Pending,
            },
        }
    }

    /// A frame header failed validation, so the stream can no longer
    /// be trusted to be frame-aligned: count it and build the one
    /// response the connection gets before the driver closes it.
    /// Other connections are unaffected.
    pub(crate) fn malformed(&self, diagnostic: &str) -> Frame {
        self.service.rejected(Status::Malformed);
        Frame::error(Opcode::Ping, Status::Malformed, diagnostic)
    }

    /// An `Infer` response of `payload_len` bytes, whose write began
    /// at `started`, is on the wire.
    pub(crate) fn reply_written(&self, ctx: SpanCtx, payload_len: usize, started: Instant) {
        if let Some(trace) = &self.trace {
            let bytes = payload_len as u64;
            let (tid, when) = (LiveSpan::NO_THREAD, started..Instant::now());
            trace.record(SpanKind::ReplyWritten, ctx, 0, tid, bytes, when);
        }
    }
}
