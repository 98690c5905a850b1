//! The one SPN1 connection front-end: request dispatch and the
//! shutdown latch, shared by every endpoint that serves the protocol.
//!
//! An endpoint is a [`Service`] — what `Stats` reports, how an `Infer`
//! payload is answered, how rejections are counted — behind a
//! [`Frontend`], which owns everything the protocol itself fixes:
//! `Ping`/`Stats`/`Shutdown` handling, the "answer a malformed header
//! once, then close" rule, refusing `Infer` while draining, and the
//! latch [`Frontend::wait_for_shutdown`] blocks on. `spn-server` and
//! `spn-router` are two services behind the same front-end.
//!
//! The front-end does no I/O. Two drivers move bytes for it: the epoll
//! [`crate::reactor`] and the thread-per-connection
//! [`crate::blocking`] driver. Both decode with the resumable
//! [`crate::protocol::FrameDecoder`], hand every complete frame to
//! [`Frontend::dispatch`], and write what comes back.

use crate::protocol::{Frame, Opcode, Status};
use parking_lot::{Condvar, Mutex};
use spn_telemetry::{SpanCtx, SpanKind, TraceCollector};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An `Infer` response plus the request's trace context (for the
/// `ReplyWritten` span; [`SpanCtx::NONE`] when decoding failed).
pub type InferReply = (Frame, SpanCtx);

/// What an SPN1 endpoint serves — the seam between the shared
/// front-end and `spn-server` / `spn-router`.
pub trait Service: Send + Sync + 'static {
    /// The `Stats` response document.
    fn stats_json(&self) -> String;

    /// The front-end refused a request before it reached
    /// [`Service::infer`]: `Malformed` for a bad frame header,
    /// `ShuttingDown` for an `Infer` that arrived while draining.
    fn rejected(&self, status: Status);

    /// Answer one `Infer` payload. Either return the response at once,
    /// or keep `done`, return `None`, and call `done` exactly once
    /// (from any thread) when the response is ready.
    fn infer<F>(&self, payload: Vec<u8>, done: F) -> Option<InferReply>
    where
        F: FnOnce(InferReply) + Send + 'static;
}

/// What [`Frontend::dispatch`] decided for one request frame.
pub enum Dispatched {
    /// Write this frame now. `Some` marks an `Infer` response, whose
    /// write the driver reports through [`Frontend::reply_written`].
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
    read_poll: Duration,
    trace: Option<Arc<TraceCollector>>,
    shutting_down: AtomicBool,
    /// Signalled when shutdown is requested (by the `Shutdown` opcode
    /// or the owner); `wait_for_shutdown` blocks on it.
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl<S: Service> Frontend<S> {
    /// A front-end for the listener bound at `local_addr`. `read_poll`
    /// is how often the blocking driver's reads wake to check the
    /// latch; `trace` receives `ReplyWritten` spans (`None` = off).
    pub fn new(
        service: S,
        local_addr: SocketAddr,
        read_poll: Duration,
        trace: Option<Arc<TraceCollector>>,
    ) -> Frontend<S> {
        Frontend {
            service,
            local_addr,
            read_poll,
            trace,
            shutting_down: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        }
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How often blocked waits wake to check the latch.
    pub fn read_poll(&self) -> Duration {
        self.read_poll
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Set the latch and wake everyone who waits on it. Does no
    /// joining, so it is safe to call from a connection's own thread.
    pub fn request_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let mut f = self.shutdown_flag.lock();
        *f = true;
        self.shutdown_cv.notify_all();
        // Nudge the accept thread out of `accept()`.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Block until shutdown is requested.
    pub fn wait_for_shutdown(&self) {
        let mut f = self.shutdown_flag.lock();
        while !*f {
            self.shutdown_cv.wait(&mut f);
        }
    }

    /// Route one complete request frame. `done` is the driver's way
    /// back to the connection for a response that is not ready yet.
    pub fn dispatch<F>(&self, frame: Frame, done: F) -> Dispatched
    where
        F: FnOnce(InferReply) + Send + 'static,
    {
        match frame.opcode {
            Opcode::Ping => {
                Dispatched::Reply(Frame::response(Opcode::Ping, Status::Ok, vec![]), None)
            }
            Opcode::Stats => Dispatched::Reply(
                Frame::response(
                    Opcode::Stats,
                    Status::Ok,
                    self.service.stats_json().into_bytes(),
                ),
                None,
            ),
            Opcode::Shutdown => {
                // The client still gets its acknowledgement: setting
                // the latch only wakes the owner, whose drain joins
                // this connection after the driver has written it.
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
            Opcode::Infer => match self.service.infer(frame.payload, done) {
                Some((reply, ctx)) => Dispatched::Reply(reply, Some(ctx)),
                None => Dispatched::Pending,
            },
        }
    }

    /// A frame header failed validation, so the stream can no longer
    /// be trusted to be frame-aligned: count it and build the one
    /// response the connection gets before the driver closes it.
    /// Other connections are unaffected.
    pub fn malformed(&self, diagnostic: &str) -> Frame {
        self.service.rejected(Status::Malformed);
        Frame::error(Opcode::Ping, Status::Malformed, diagnostic)
    }

    /// An `Infer` response of `payload_len` bytes, whose write began
    /// at `started`, is on the wire.
    pub fn reply_written(&self, ctx: SpanCtx, payload_len: usize, started: Instant) {
        if let Some(trace) = &self.trace {
            trace.record(
                SpanKind::ReplyWritten,
                ctx,
                0,
                payload_len as u64,
                started,
                Instant::now(),
            );
        }
    }
}
