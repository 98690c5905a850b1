//! A blocking wire-protocol client.
//!
//! One [`Client`] owns one TCP connection and issues one request at a
//! time (the protocol is strictly request/response per connection —
//! concurrency comes from opening more connections). It serves callers
//! that may block a thread — the router's health prober, the CLI's
//! control calls, tests, examples and the benchmark — and no serving
//! path or traffic run ([`crate::reactor::Upstream`], [`crate::loadgen`]).

use crate::protocol::{
    decode_results, encode_frame, read_frame, Frame, InferFields, Opcode, Status, WireError,
};
use spn_telemetry::TelemetrySnapshot;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The peer closed (or reset) the connection mid-exchange. The
    /// request may or may not have been processed; since inference is
    /// idempotent the caller can connect again and retry — a
    /// different recovery from the one a protocol violation calls for.
    ConnectionClosed,
    /// Transport failed for a reason other than the peer going away.
    Io(io::Error),
    /// The server's bytes were not a valid frame.
    Wire(String),
    /// The server answered with a non-`Ok` status.
    Rejected {
        /// The wire status.
        status: Status,
        /// The server's diagnostic message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::ConnectionClosed => write!(f, "connection closed by peer"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(m) => write!(f, "protocol error: {m}"),
            ClientError::Rejected { status, message } => {
                write!(f, "server rejected request ({}): {message}", status.name())
            }
        }
    }
}
impl std::error::Error for ClientError {}

/// Whether an `io::Error` means "the peer went away" (as opposed to a
/// local or transient transport problem).
pub(crate) fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::NotConnected
    )
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if is_disconnect(&e) {
            ClientError::ConnectionClosed
        } else {
            ClientError::Io(e)
        }
    }
}
impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::from(e),
            WireError::Malformed(m) => ClientError::Wire(m),
        }
    }
}

/// A blocking connection to an [`crate::SpnServer`].
pub struct Client {
    /// Read through a buffer, so a small reply's header and payload
    /// cost one `read`; written to directly.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connect (with `TCP_NODELAY`, since frames are small and
    /// latency-sensitive).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::over(TcpStream::connect(addr)?)
    }

    /// Connect with a bound on how long the TCP dial may block —
    /// what a health checker wants, since a dead host would otherwise
    /// stall the caller for the kernel's full connect timeout.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        Client::over(TcpStream::connect_timeout(&addr, timeout)?)
    }

    fn over(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Bound every subsequent read/write on the connection (`None`
    /// removes the bound). A request that overruns surfaces as
    /// [`ClientError::Io`] with a timeout kind, letting callers treat
    /// a wedged backend like a dead one.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)?;
        self.stream.get_ref().set_write_timeout(timeout)
    }

    /// Write one request frame's wire bytes and read its response.
    fn round_trip(&mut self, opcode: Opcode, wire: &[u8]) -> Result<Frame, ClientError> {
        self.stream.get_mut().write_all(wire)?;
        let response = read_frame(&mut self.stream)?;
        if response.opcode != opcode {
            return Err(ClientError::Wire(format!(
                "response opcode {:?} does not match request {opcode:?}",
                response.opcode
            )));
        }
        if response.status != Status::Ok {
            return Err(ClientError::Rejected {
                status: response.status,
                message: String::from_utf8_lossy(&response.payload).into_owned(),
            });
        }
        Ok(response)
    }

    /// A round trip of an empty-payload request.
    fn control(&mut self, opcode: Opcode) -> Result<Frame, ClientError> {
        self.round_trip(opcode, &encode_frame(opcode, Status::Ok, &[]))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.control(Opcode::Ping).map(|_| ())
    }

    /// Start building an inference request against `model`. This is
    /// the one entry point for inference — shape and deadline are set
    /// on the returned [`InferBuilder`], so new request knobs (e.g.
    /// future query types) extend the builder instead of multiplying
    /// `infer_*` method variants:
    ///
    /// ```ignore
    /// let lls = client
    ///     .request("NIPS10")
    ///     .samples(&block, 64, 10)
    ///     .deadline_ms(250)
    ///     .send()?;
    /// ```
    pub fn request<'a>(&'a mut self, model: &str) -> InferBuilder<'a> {
        InferBuilder {
            client: self,
            model: model.to_string(),
            data: &[],
            num_samples: 0,
            num_features: 0,
            deadline_ms: 0,
        }
    }

    /// Fetch the server's metrics document (JSON).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let response = self.control(Opcode::Stats)?;
        String::from_utf8(response.payload)
            .map_err(|_| ClientError::Wire("stats payload is not UTF-8".into()))
    }

    /// Fetch and parse the server's metrics document into a typed
    /// [`TelemetrySnapshot`].
    pub fn telemetry(&mut self) -> Result<TelemetrySnapshot, ClientError> {
        let json = self.stats()?;
        TelemetrySnapshot::from_json(&json)
            .map_err(|e| ClientError::Wire(format!("stats payload is not valid telemetry: {e}")))
    }

    /// Ask the server to drain and stop. The server acknowledges
    /// before it begins draining.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.control(Opcode::Shutdown).map(|_| ())
    }

    /// Direct access to the underlying stream (tests use this to
    /// send deliberately broken bytes). Reads through it bypass the
    /// reply buffer, which is empty between round trips.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.stream.get_mut()
    }
}

/// An in-flight inference request under construction; created by
/// [`Client::request`], fired by [`InferBuilder::send`]. It borrows its
/// feature block: `send` copies the block once, into the frame it
/// writes.
#[must_use = "the request is not sent until `.send()` is called"]
pub struct InferBuilder<'a> {
    client: &'a mut Client,
    model: String,
    data: &'a [u8],
    num_samples: u32,
    num_features: u32,
    deadline_ms: u32,
}

impl<'a> InferBuilder<'a> {
    /// The feature block: a row-major `num_samples × num_features`
    /// slab of `u8` features. Required — [`InferBuilder::send`] on a
    /// builder without samples earns the server's shape rejection.
    pub fn samples(mut self, data: &'a [u8], num_samples: u32, num_features: u32) -> Self {
        self.data = data;
        self.num_samples = num_samples;
        self.num_features = num_features;
        self
    }

    /// Per-request deadline in milliseconds (`0` = none, the
    /// default). A request still queued when its deadline passes is
    /// answered with [`Status::DeadlineExceeded`].
    pub fn deadline_ms(mut self, deadline_ms: u32) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Encode header, meta, block and flags into one exactly sized
    /// buffer, send it, and block for the reply. Returns one
    /// log-likelihood per sample, in order.
    pub fn send(self) -> Result<Vec<f64>, ClientError> {
        let wire = InferFields {
            model: &self.model,
            deadline_ms: self.deadline_ms,
            num_samples: self.num_samples,
            num_features: self.num_features,
            data: self.data,
            trace: true,
        }
        .encode_frame();
        let response = self.client.round_trip(Opcode::Infer, &wire)?;
        decode_results(&response.payload).map_err(ClientError::Wire)
    }
}
