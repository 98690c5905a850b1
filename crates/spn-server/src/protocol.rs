//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        b"SPN1"
//! 4       1     version      PROTOCOL_VERSION (= 1)
//! 5       1     opcode       Infer / Ping / Stats / Shutdown
//! 6       1     status       0 on requests; response status code
//! 7       1     reserved     must be 0
//! 8       4     payload_len  u32 little-endian
//! 12      …     payload      payload_len bytes
//! ```
//!
//! The `Infer` request payload is
//!
//! ```text
//! u16 LE  model name length    followed by that many UTF-8 bytes
//! u32 LE  deadline_ms          0 = no deadline
//! u32 LE  num_samples
//! u32 LE  num_features
//! u8 × (num_samples * num_features)   row-major feature block
//! ```
//!
//! and the successful `Infer` response payload is `u32 LE num_samples`
//! followed by that many little-endian `f64` log-likelihoods (one per
//! sample, in request order). Error responses carry a non-zero
//! [`Status`] in the header and a UTF-8 diagnostic string as payload.
//! `Ping`/`Stats`/`Shutdown` requests have empty payloads; the `Stats`
//! response payload is a UTF-8 JSON document.
//!
//! All multi-byte integers are little-endian. Frames are hard-capped
//! at [`MAX_PAYLOAD`] so a corrupt length prefix cannot make the
//! server allocate unbounded memory.

use spn_telemetry::SpanCtx;
use std::io::{self, IoSlice, Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"SPN1";
/// Wire-protocol version carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a frame payload (64 MiB): parsing rejects anything
/// larger *before* allocating.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Frame operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Run inference on a feature block.
    Infer = 1,
    /// Liveness probe; empty round-trip.
    Ping = 2,
    /// Fetch the server + per-model metrics as JSON.
    Stats = 3,
    /// Ask the server to drain and stop.
    Shutdown = 4,
}

impl Opcode {
    /// Decode an opcode byte.
    pub(crate) fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::Infer),
            2 => Some(Opcode::Ping),
            3 => Some(Opcode::Stats),
            4 => Some(Opcode::Shutdown),
            _ => None,
        }
    }
}

/// Response status codes (`0` = success).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request served.
    Ok = 0,
    /// The frame or payload could not be parsed.
    Malformed = 1,
    /// The requested model is not registered.
    UnknownModel = 2,
    /// `num_features` does not match the model.
    ShapeMismatch = 3,
    /// Admission control rejected the request (in-flight limit or
    /// scheduler backpressure). Retry later.
    ServerBusy = 4,
    /// The request's deadline expired before results were ready.
    DeadlineExceeded = 5,
    /// The server is draining; no new inference accepted.
    ShuttingDown = 6,
    /// Unexpected internal failure.
    Internal = 7,
}

impl Status {
    /// Decode a status byte.
    pub(crate) fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::Malformed),
            2 => Some(Status::UnknownModel),
            3 => Some(Status::ShapeMismatch),
            4 => Some(Status::ServerBusy),
            5 => Some(Status::DeadlineExceeded),
            6 => Some(Status::ShuttingDown),
            7 => Some(Status::Internal),
            _ => None,
        }
    }

    /// Short human-readable name (used in error messages and stats).
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Malformed => "malformed",
            Status::UnknownModel => "unknown_model",
            Status::ShapeMismatch => "shape_mismatch",
            Status::ServerBusy => "server_busy",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::ShuttingDown => "shutting_down",
            Status::Internal => "internal",
        }
    }
}

/// One parsed frame: header fields plus owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Operation code.
    pub opcode: Opcode,
    /// Response status (requests carry [`Status::Ok`]).
    pub status: Status,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request frame (status `Ok`).
    pub fn request(opcode: Opcode, payload: Vec<u8>) -> Frame {
        Frame {
            opcode,
            status: Status::Ok,
            payload,
        }
    }

    /// A response frame.
    pub fn response(opcode: Opcode, status: Status, payload: Vec<u8>) -> Frame {
        Frame {
            opcode,
            status,
            payload,
        }
    }

    /// An error response carrying a UTF-8 diagnostic.
    pub fn error(opcode: Opcode, status: Status, message: &str) -> Frame {
        Frame::response(opcode, status, message.as_bytes().to_vec())
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes on the wire are not a valid frame; the stream can no
    /// longer be trusted to be frame-aligned.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}
impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// The 12-byte header of a frame carrying `payload_len` payload bytes.
pub(crate) fn encode_header(
    opcode: Opcode,
    status: Status,
    payload_len: usize,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN]; // byte 7, reserved, stays 0
    h[0..4].copy_from_slice(&MAGIC);
    h[4] = PROTOCOL_VERSION;
    h[5] = opcode as u8;
    h[6] = status as u8;
    h[8..12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    h
}

/// One frame's wire bytes, header and payload in one contiguous buffer.
pub(crate) fn encode_frame(opcode: Opcode, status: Status, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&encode_header(opcode, status, payload.len()));
    buf.extend_from_slice(payload);
    buf
}

/// Serialise `frame` into `w` (single `write_all` of a contiguous
/// buffer, so a frame is one TCP segment for small payloads).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame.opcode, frame.status, &frame.payload))?;
    w.flush()
}

/// Parse a 12-byte header; returns `(opcode, status, payload_len)`.
pub(crate) fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(Opcode, Status, u32), WireError> {
    if h[0..4] != MAGIC {
        return Err(WireError::Malformed(format!(
            "bad magic {:02x?} (expected {:02x?})",
            &h[0..4],
            MAGIC
        )));
    }
    if h[4] != PROTOCOL_VERSION {
        return Err(WireError::Malformed(format!(
            "unsupported protocol version {} (expected {PROTOCOL_VERSION})",
            h[4]
        )));
    }
    let opcode = Opcode::from_u8(h[5])
        .ok_or_else(|| WireError::Malformed(format!("unknown opcode {}", h[5])))?;
    let status = Status::from_u8(h[6])
        .ok_or_else(|| WireError::Malformed(format!("unknown status {}", h[6])))?;
    let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Malformed(format!(
            "payload length {len} exceeds cap {MAX_PAYLOAD}"
        )));
    }
    Ok((opcode, status, len))
}

/// Read one full frame from `r` (blocking).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (opcode, status, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        opcode,
        status,
        payload,
    })
}

/// A resumable frame decoder for nonblocking readers.
///
/// Where [`read_frame`] owns the stream until a whole frame has
/// arrived, `FrameDecoder` inverts control so an event loop can feed
/// it whatever bytes each readiness event yields: the caller reads
/// into [`FrameDecoder::spare`], declares progress with
/// [`FrameDecoder::advance`], and receives a [`Frame`] when one
/// completes. The decoder never asks for bytes past the current
/// frame's end, so pipelined frames stay in the kernel buffer and a
/// single connection's memory is bounded by one frame.
///
/// Byte-for-byte the outcomes are identical to [`read_frame`] over
/// the same stream — same header validation, same payload cap, same
/// malformed diagnostics (a property test splits frames at every
/// boundary to pin this). A malformed header *poisons* the decoder:
/// the stream can no longer be trusted to be frame-aligned, and every
/// later call re-reports the original error.
#[derive(Debug)]
pub struct FrameDecoder {
    state: DecodeState,
}

#[derive(Debug)]
enum DecodeState {
    /// Accumulating the 12-byte header.
    Header { buf: [u8; HEADER_LEN], have: usize },
    /// Header parsed; accumulating `payload.len()` payload bytes.
    Payload {
        opcode: Opcode,
        status: Status,
        payload: Vec<u8>,
        have: usize,
    },
    /// A malformed header was seen; the stream is unrecoverable.
    Poisoned(String),
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder {
            state: DecodeState::Header {
                buf: [0u8; HEADER_LEN],
                have: 0,
            },
        }
    }

    /// Whether the decoder sits exactly between frames (no partial
    /// header or payload buffered) — an EOF here is a clean close, an
    /// EOF anywhere else a torn frame.
    pub fn is_frame_boundary(&self) -> bool {
        matches!(self.state, DecodeState::Header { have: 0, .. })
    }

    /// The buffer to read the next bytes into: the unfilled remainder
    /// of the current header or payload. Empty only when poisoned.
    pub fn spare(&mut self) -> &mut [u8] {
        match &mut self.state {
            DecodeState::Header { buf, have } => &mut buf[*have..],
            DecodeState::Payload { payload, have, .. } => &mut payload[*have..],
            DecodeState::Poisoned(_) => &mut [],
        }
    }

    /// Declare that the first `n` bytes of [`FrameDecoder::spare`]
    /// were filled. Returns a completed [`Frame`] when `n` finishes
    /// one, `Ok(None)` when more bytes are needed.
    pub fn advance(&mut self, n: usize) -> Result<Option<Frame>, WireError> {
        match &mut self.state {
            DecodeState::Header { buf, have } => {
                debug_assert!(*have + n <= HEADER_LEN);
                *have += n;
                if *have < HEADER_LEN {
                    return Ok(None);
                }
                let header = *buf;
                match parse_header(&header) {
                    Ok((opcode, status, 0)) => {
                        self.state = DecodeState::Header {
                            buf: [0u8; HEADER_LEN],
                            have: 0,
                        };
                        Ok(Some(Frame {
                            opcode,
                            status,
                            payload: Vec::new(),
                        }))
                    }
                    Ok((opcode, status, len)) => {
                        self.state = DecodeState::Payload {
                            opcode,
                            status,
                            payload: vec![0u8; len as usize],
                            have: 0,
                        };
                        Ok(None)
                    }
                    Err(WireError::Malformed(m)) => {
                        self.state = DecodeState::Poisoned(m.clone());
                        Err(WireError::Malformed(m))
                    }
                    Err(e) => Err(e),
                }
            }
            DecodeState::Payload {
                opcode,
                status,
                payload,
                have,
            } => {
                debug_assert!(*have + n <= payload.len());
                *have += n;
                if *have < payload.len() {
                    return Ok(None);
                }
                let frame = Frame {
                    opcode: *opcode,
                    status: *status,
                    payload: std::mem::take(payload),
                };
                self.state = DecodeState::Header {
                    buf: [0u8; HEADER_LEN],
                    have: 0,
                };
                Ok(Some(frame))
            }
            DecodeState::Poisoned(m) => Err(WireError::Malformed(m.clone())),
        }
    }

    /// Push-style convenience over [`FrameDecoder::spare`]/
    /// [`FrameDecoder::advance`]: copy as much of `bytes` in as the
    /// current frame wants and return `(consumed, frame)`. Stops at a
    /// frame boundary, so callers re-feed the remainder — which is
    /// what lets a buffer holding one-and-a-half frames decode
    /// cleanly.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(usize, Option<Frame>), WireError> {
        if let DecodeState::Poisoned(m) = &self.state {
            return Err(WireError::Malformed(m.clone()));
        }
        let mut consumed = 0usize;
        while consumed < bytes.len() {
            let spare = self.spare();
            debug_assert!(!spare.is_empty());
            let n = spare.len().min(bytes.len() - consumed);
            spare[..n].copy_from_slice(&bytes[consumed..consumed + n]);
            consumed += n;
            if let Some(frame) = self.advance(n)? {
                return Ok((consumed, Some(frame)));
            }
        }
        Ok((consumed, None))
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

/// Write `head` then `body` to a nonblocking writer, `*at` bytes of the
/// two already out, until all is out (`Ok(true)`) or the writer would
/// block (`Ok(false)`). While both have bytes left one `writev` takes
/// them, so a reply's header and payload leave together without first
/// being copied into one buffer.
pub(crate) fn write_some<W: Write>(
    w: &mut W,
    head: &[u8],
    body: &[u8],
    at: &mut usize,
) -> io::Result<bool> {
    while *at < head.len() + body.len() {
        let written = match head.get(*at..).filter(|h| !h.is_empty()) {
            Some(h) => w.write_vectored(&[IoSlice::new(h), IoSlice::new(body)]),
            None => w.write(&body[*at - head.len()..]),
        };
        match written {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *at += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read a nonblocking reader into `dec` until a frame completes
/// (`Ok(Some)`) or the reader would block (`Ok(None)`). End of stream —
/// clean at a frame boundary or torn — is `UnexpectedEof`.
pub(crate) fn read_some<R: Read>(
    r: &mut R,
    dec: &mut FrameDecoder,
) -> Result<Option<Frame>, WireError> {
    loop {
        match r.read(dec.spare()) {
            Ok(0) => return Err(WireError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => {
                if let Some(frame) = dec.advance(n)? {
                    return Ok(Some(frame));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

/// An `Infer` request, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferRequest {
    /// Registered model name.
    pub model: String,
    /// Per-request deadline in milliseconds (`0` = none).
    pub deadline_ms: u32,
    /// Number of samples in the feature block.
    pub num_samples: u32,
    /// Features per sample.
    pub num_features: u32,
    /// Row-major `num_samples × num_features` block.
    pub data: Vec<u8>,
    /// Trace opt-in carried in the payload's trailing flags byte.
    /// When `true` (the default the client builder uses),
    /// [`InferRequest::decode`] mints a fresh [`SpanCtx`] — the
    /// server-side birth of a trace — so the request's spans land on
    /// the server timeline. When `false` the request decodes with
    /// [`SpanCtx::NONE`] and its spans stay unattributed.
    pub trace: bool,
    /// Request-scoped trace context. [`InferRequest::decode`] mints a
    /// fresh one per request if `trace` is set; the context itself is
    /// *not* carried on the wire, so clients building a request leave
    /// it [`SpanCtx::NONE`].
    pub ctx: SpanCtx,
}

/// Validated `Infer` payload geometry: everything except the feature
/// block itself, which [`InferRequest::decode`] copies out and
/// [`InferRequest::decode_owned`] carves out of the payload allocation.
struct InferMeta {
    model: String,
    deadline_ms: u32,
    num_samples: u32,
    num_features: u32,
    /// Offset of the feature block inside the payload.
    data_at: usize,
    trace: bool,
}

fn parse_infer_meta(p: &[u8]) -> Result<InferMeta, String> {
    let take = |p: &[u8], at: usize, n: usize| -> Result<(), String> {
        if p.len() < at + n {
            Err(format!(
                "payload truncated: need {} bytes, have {}",
                at + n,
                p.len()
            ))
        } else {
            Ok(())
        }
    };
    take(p, 0, 2)?;
    let name_len = u16::from_le_bytes([p[0], p[1]]) as usize;
    take(p, 2, name_len)?;
    let model = std::str::from_utf8(&p[2..2 + name_len])
        .map_err(|_| "model name is not UTF-8".to_string())?
        .to_string();
    let mut at = 2 + name_len;
    take(p, at, 12)?;
    let rd = |p: &[u8], at: usize| u32::from_le_bytes([p[at], p[at + 1], p[at + 2], p[at + 3]]);
    let deadline_ms = rd(p, at);
    let num_samples = rd(p, at + 4);
    let num_features = rd(p, at + 8);
    at += 12;
    if num_samples == 0 {
        return Err("num_samples must be > 0".into());
    }
    if num_features == 0 {
        return Err("num_features must be > 0".into());
    }
    let expect = (num_samples as u64) * (num_features as u64);
    if expect > MAX_PAYLOAD as u64 {
        return Err(format!("feature block of {expect} bytes exceeds cap"));
    }
    let got = (p.len() - at) as u64;
    // The feature block is followed by exactly one flags byte; an
    // exact-length check (rather than ≥) keeps shape lies — a
    // header promising more or fewer samples than were sent —
    // detectable instead of silently shifting the flags byte.
    if got != expect + 1 {
        return Err(format!(
            "payload is {got} bytes, header promises {num_samples}×{num_features} = {expect} plus a flags byte"
        ));
    }
    let flags = p[p.len() - 1];
    if flags > 1 {
        return Err(format!("unknown flags byte {flags:#04x}"));
    }
    Ok(InferMeta {
        model,
        deadline_ms,
        num_samples,
        num_features,
        data_at: at,
        trace: flags & 1 != 0,
    })
}

/// An `Infer` request's wire fields over a borrowed model name and
/// feature block: what a client encodes straight into the one buffer it
/// writes, without first gathering them into an [`InferRequest`].
pub(crate) struct InferFields<'a> {
    pub model: &'a str,
    pub deadline_ms: u32,
    pub num_samples: u32,
    pub num_features: u32,
    pub data: &'a [u8],
    pub trace: bool,
}

impl InferFields<'_> {
    /// Name length, name, deadline, shape, feature block, flags byte.
    fn payload_len(&self) -> usize {
        2 + self.model.len() + 12 + self.data.len() + 1
    }

    fn put_payload(&self, p: &mut Vec<u8>) {
        let name = self.model.as_bytes();
        p.extend_from_slice(&(name.len() as u16).to_le_bytes());
        p.extend_from_slice(name);
        p.extend_from_slice(&self.deadline_ms.to_le_bytes());
        p.extend_from_slice(&self.num_samples.to_le_bytes());
        p.extend_from_slice(&self.num_features.to_le_bytes());
        p.extend_from_slice(self.data);
        p.push(self.trace as u8); // trailing flags byte, bit 0 = trace
    }

    /// The whole request frame, header included, in one exactly sized
    /// buffer: the feature block is copied once, into the bytes that
    /// go to the socket.
    pub(crate) fn encode_frame(&self) -> Vec<u8> {
        let len = self.payload_len();
        let mut buf = Vec::with_capacity(HEADER_LEN + len);
        buf.extend_from_slice(&encode_header(Opcode::Infer, Status::Ok, len));
        self.put_payload(&mut buf);
        buf
    }
}

impl InferRequest {
    fn assemble(meta: InferMeta, data: Vec<u8>) -> InferRequest {
        InferRequest {
            model: meta.model,
            deadline_ms: meta.deadline_ms,
            num_samples: meta.num_samples,
            num_features: meta.num_features,
            data,
            trace: meta.trace,
            ctx: if meta.trace {
                SpanCtx::mint()
            } else {
                SpanCtx::NONE
            },
        }
    }

    /// Serialise into an `Infer` request payload.
    pub fn encode(&self) -> Vec<u8> {
        let fields = InferFields {
            model: &self.model,
            deadline_ms: self.deadline_ms,
            num_samples: self.num_samples,
            num_features: self.num_features,
            data: &self.data,
            trace: self.trace,
        };
        let mut p = Vec::with_capacity(fields.payload_len());
        fields.put_payload(&mut p);
        p
    }

    /// Decode an `Infer` request payload, copying the feature block
    /// out of `p`.
    pub fn decode(p: &[u8]) -> Result<InferRequest, String> {
        let meta = parse_infer_meta(p)?;
        let data = p[meta.data_at..p.len() - 1].to_vec();
        Ok(InferRequest::assemble(meta, data))
    }

    /// Decode an `Infer` request payload *taking ownership of it*: the
    /// feature block is carved out of `p`'s allocation (truncate the
    /// flags byte, shift off the prefix) instead of being copied into
    /// a fresh one. This is the reactor's zero-copy path — the bytes
    /// read off the socket into the connection's payload buffer become
    /// the batcher entry directly. Validation and results are
    /// identical to [`InferRequest::decode`] (modulo the freshly
    /// minted [`SpanCtx`]).
    pub fn decode_owned(mut p: Vec<u8>) -> Result<InferRequest, String> {
        let meta = parse_infer_meta(&p)?;
        p.truncate(p.len() - 1);
        p.drain(..meta.data_at);
        Ok(InferRequest::assemble(meta, p))
    }
}

/// Encode a successful `Infer` response payload.
pub fn encode_results(results: &[f64]) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + results.len() * 8);
    p.extend_from_slice(&(results.len() as u32).to_le_bytes());
    // One `extend` over the whole block vectorises; 8-byte appends
    // each pay a capacity check.
    p.extend(results.iter().flat_map(|r| r.to_le_bytes()));
    p
}

/// Decode a successful `Infer` response payload.
pub fn decode_results(p: &[u8]) -> Result<Vec<f64>, String> {
    if p.len() < 4 {
        return Err("result payload shorter than its count field".into());
    }
    let n = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
    if p.len() != 4 + n * 8 {
        return Err(format!(
            "result payload is {} bytes, count field promises {}",
            p.len(),
            4 + n * 8
        ));
    }
    let (values, _) = p[4..].as_chunks::<8>();
    Ok(values.iter().map(|&b| f64::from_le_bytes(b)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let frame = Frame::request(Opcode::Infer, vec![1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 5);
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn bad_magic_and_bad_version_are_malformed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::request(Opcode::Ping, vec![])).unwrap();
        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut wrong_magic.as_slice()),
            Err(WireError::Malformed(_))
        ));
        let mut wrong_version = buf;
        wrong_version[4] = 9;
        assert!(matches!(
            read_frame(&mut wrong_version.as_slice()),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_payload_length_is_rejected_before_allocation() {
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC);
        header[4] = PROTOCOL_VERSION;
        header[5] = Opcode::Ping as u8;
        header[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            parse_header(&header),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn infer_request_round_trips_and_decode_mints_ctx() {
        let req = InferRequest {
            model: "NIPS10".into(),
            deadline_ms: 250,
            num_samples: 3,
            num_features: 2,
            data: vec![0, 1, 2, 3, 4, 5],
            trace: true,
            ctx: SpanCtx::NONE,
        };
        let mut got = InferRequest::decode(&req.encode()).unwrap();
        assert_ne!(
            got.ctx.trace_id,
            spn_telemetry::TraceId::NONE,
            "decode mints a trace context"
        );
        let other = InferRequest::decode(&req.encode()).unwrap();
        assert_ne!(got.ctx, other.ctx, "every decode gets a fresh context");
        got.ctx = req.ctx; // the wire fields themselves round-trip
        assert_eq!(got, req);
    }

    #[test]
    fn trace_opt_out_decodes_to_a_none_context() {
        let req = InferRequest {
            model: "NIPS10".into(),
            deadline_ms: 0,
            num_samples: 1,
            num_features: 2,
            data: vec![7, 8],
            trace: false,
            ctx: SpanCtx::NONE,
        };
        let got = InferRequest::decode(&req.encode()).unwrap();
        assert!(!got.trace);
        assert_eq!(got.ctx, SpanCtx::NONE, "opt-out requests get no trace");
        assert_eq!(got.data, req.data, "flags byte is not part of the data");
    }

    #[test]
    fn unknown_flag_bits_are_rejected() {
        let req = InferRequest {
            model: "m".into(),
            deadline_ms: 0,
            num_samples: 1,
            num_features: 1,
            data: vec![0],
            trace: true,
            ctx: SpanCtx::NONE,
        };
        let mut bytes = req.encode();
        *bytes.last_mut().unwrap() = 0x82;
        assert!(InferRequest::decode(&bytes).is_err());
    }

    #[test]
    fn infer_request_shape_lies_are_caught() {
        let mut req = InferRequest {
            model: "m".into(),
            deadline_ms: 0,
            num_samples: 2,
            num_features: 3,
            data: vec![0; 6],
            trace: true,
            ctx: SpanCtx::NONE,
        };
        req.data.pop(); // now 5 bytes for a promised 6
        assert!(InferRequest::decode(&req.encode()).is_err());
        assert!(InferRequest::decode(&[]).is_err());
        assert!(InferRequest::decode(&[0, 0, 0]).is_err());
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let vals = vec![-1.5, f64::MIN_POSITIVE.ln(), 0.0, -742.123456789];
        let got = decode_results(&encode_results(&vals)).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(decode_results(&[1, 0, 0, 0]).is_err());
    }

    #[test]
    fn decode_owned_matches_decode_and_reuses_the_allocation() {
        let req = InferRequest {
            model: "NIPS10".into(),
            deadline_ms: 250,
            num_samples: 3,
            num_features: 2,
            data: vec![0, 1, 2, 3, 4, 5],
            trace: true,
            ctx: SpanCtx::NONE,
        };
        let payload = req.encode();
        let by_ref = InferRequest::decode(&payload).unwrap();
        let by_own = InferRequest::decode_owned(payload.clone()).unwrap();
        assert_eq!(by_own.model, by_ref.model);
        assert_eq!(by_own.deadline_ms, by_ref.deadline_ms);
        assert_eq!(by_own.num_samples, by_ref.num_samples);
        assert_eq!(by_own.num_features, by_ref.num_features);
        assert_eq!(by_own.data, by_ref.data);
        assert_eq!(by_own.trace, by_ref.trace);
        // Errors agree too.
        let mut bad = req.encode();
        *bad.last_mut().unwrap() = 0x82;
        assert_eq!(
            InferRequest::decode(&bad).unwrap_err(),
            InferRequest::decode_owned(bad).unwrap_err()
        );
    }

    /// A `bulk_large`-sized request (4096 × 80) encodes into exactly
    /// `15 + name + data` bytes with no reallocation on the way, and
    /// the one-buffer frame encoder writes the same payload behind its
    /// header.
    #[test]
    fn a_large_request_encodes_exactly_sized_and_round_trips() {
        let req = InferRequest {
            model: "NIPS80".into(),
            deadline_ms: 7,
            num_samples: 4096,
            num_features: 80,
            data: (0..4096 * 80).map(|i| (i % 251) as u8).collect(),
            trace: true,
            ctx: SpanCtx::NONE,
        };
        let want = 15 + req.model.len() + req.data.len();
        let payload = req.encode();
        assert_eq!(payload.len(), want);
        assert_eq!(
            payload.capacity(),
            want,
            "the flags byte reallocated the payload"
        );

        let by_ref = InferRequest::decode(&payload).unwrap();
        let by_own = InferRequest::decode_owned(payload.clone()).unwrap();
        for mut got in [by_ref, by_own] {
            got.ctx = SpanCtx::NONE;
            assert_eq!(got, req);
        }

        let wire = InferFields {
            model: &req.model,
            deadline_ms: req.deadline_ms,
            num_samples: req.num_samples,
            num_features: req.num_features,
            data: &req.data,
            trace: req.trace,
        }
        .encode_frame();
        assert_eq!(wire.len(), HEADER_LEN + want);
        assert_eq!(wire.capacity(), wire.len());
        assert_eq!(wire, encode_frame(Opcode::Infer, Status::Ok, &payload));
    }

    /// A nonblocking sink: takes at most 3 bytes a call, of the first
    /// non-empty buffer only, and says `WouldBlock` after every call.
    struct Drip {
        out: Vec<u8>,
        /// Whether the next call writes (else it would block).
        ready: bool,
    }

    impl Write for Drip {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.ready = !self.ready;
            if self.ready {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `write_some` resumes a header + body write from any offset,
    /// across short writes and `WouldBlock`s, and delivers the two back
    /// to back.
    #[test]
    fn write_some_resumes_across_head_and_body() {
        let (head, body) = (b"head".as_slice(), b"body bytes".as_slice());
        for start in 0..=head.len() + body.len() {
            let mut sink = Drip {
                out: Vec::new(),
                ready: true,
            };
            let mut at = start;
            while !write_some(&mut sink, head, body, &mut at).unwrap() {}
            assert_eq!(at, head.len() + body.len());
            assert_eq!(sink.out, b"headbody bytes"[start..]);
        }
    }

    /// A nonblocking stream: hands out at most `step` bytes a call and
    /// says `WouldBlock` after every one of them.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        step: usize,
        /// Whether the next call reads (else it would block).
        ready: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.ready = !self.ready;
            if self.ready {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.step).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// `read_some` resumes a payload across `WouldBlock`s and stops at
    /// the frame's end: the pipelined frame behind it stays unread.
    #[test]
    fn read_some_never_reads_past_the_frame() {
        let first = Frame::request(Opcode::Infer, (0..=255).cycle().take(70_001).collect());
        let second = Frame::request(Opcode::Ping, vec![]);
        let mut wire = encode_frame(first.opcode, first.status, &first.payload);
        let first_len = wire.len();
        wire.extend(encode_frame(second.opcode, second.status, &[]));
        for step in [1, 5, 4096, 1 << 20] {
            let mut r = Trickle {
                bytes: wire.clone(),
                at: 0,
                step,
                ready: true,
            };
            let mut dec = FrameDecoder::new();
            let got = loop {
                if let Some(frame) = read_some(&mut r, &mut dec).unwrap() {
                    break frame;
                }
            };
            assert_eq!(got, first, "step {step}");
            assert_eq!(r.at, first_len, "step {step}: read past the frame");
            assert!(dec.is_frame_boundary());
            let got = loop {
                if let Some(frame) = read_some(&mut r, &mut dec).unwrap() {
                    break frame;
                }
            };
            assert_eq!(got, second);
            r.ready = true; // the next call reads: end of stream
            assert!(matches!(
                read_some(&mut r, &mut dec),
                Err(WireError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
            ));
        }
    }

    #[test]
    fn frame_decoder_resumes_across_arbitrary_splits() {
        let frame = Frame::request(Opcode::Infer, vec![9; 17]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        for split in 0..=wire.len() {
            let mut dec = FrameDecoder::new();
            let (a, b) = wire.split_at(split);
            let mut got = None;
            for chunk in [a, b] {
                let mut rest = chunk;
                while !rest.is_empty() {
                    let (n, f) = dec.feed(rest).unwrap();
                    rest = &rest[n..];
                    if f.is_some() {
                        assert!(got.is_none(), "only one frame on the wire");
                        got = f;
                    }
                }
            }
            assert_eq!(got.as_ref(), Some(&frame), "split at {split}");
            assert!(dec.is_frame_boundary());
        }
    }

    #[test]
    fn frame_decoder_handles_empty_payload_and_pipelined_frames() {
        let ping = Frame::request(Opcode::Ping, vec![]);
        let infer = Frame::request(Opcode::Infer, vec![1, 2, 3]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &ping).unwrap();
        write_frame(&mut wire, &infer).unwrap();
        let mut dec = FrameDecoder::new();
        let (n1, f1) = dec.feed(&wire).unwrap();
        assert_eq!(f1.as_ref(), Some(&ping));
        assert!(n1 < wire.len(), "decoder stops at the frame boundary");
        let (n2, f2) = dec.feed(&wire[n1..]).unwrap();
        assert_eq!(f2.as_ref(), Some(&infer));
        assert_eq!(n1 + n2, wire.len());
    }

    #[test]
    fn frame_decoder_poisons_on_malformed_headers() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::request(Opcode::Ping, vec![])).unwrap();
        wire[4] = 9; // bad version
        let mut dec = FrameDecoder::new();
        assert!(matches!(dec.feed(&wire), Err(WireError::Malformed(_))));
        // Poisoned: even innocent bytes re-report the failure.
        assert!(matches!(dec.feed(&[0u8; 4]), Err(WireError::Malformed(_))));
        assert!(dec.spare().is_empty());
    }

    #[test]
    fn opcode_and_status_codes_are_stable() {
        for (op, b) in [
            (Opcode::Infer, 1u8),
            (Opcode::Ping, 2),
            (Opcode::Stats, 3),
            (Opcode::Shutdown, 4),
        ] {
            assert_eq!(op as u8, b);
            assert_eq!(Opcode::from_u8(b), Some(op));
        }
        for b in 0..=8u8 {
            match Status::from_u8(b) {
                Some(s) => assert_eq!(s as u8, b),
                None => assert!(b > 7),
            }
        }
    }
}
