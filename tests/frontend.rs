//! Front-end conformance: the server and the router both serve SPN1
//! through the same front-end (`spn_server::frontend`), so the same
//! probe table must observe the same thing at both — byte-identical
//! reply frames and the same close behaviour for every malformed,
//! truncated and control frame.

use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_router::{RouterConfig, SpnRouter};
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::protocol::{self, Frame, FrameDecoder, InferRequest, Opcode, Status};
use spn_server::{Client, ClientError, ModelSpec, ServerConfig, ServingMode, SpnServer};
use spn_telemetry::{SpanCtx, TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const BENCH: NipsBenchmark = NipsBenchmark::Nips10;

fn start_server(serving: ServingMode) -> SpnServer {
    let device = Arc::new(VirtualDevice::new(
        DatapathProgram::compile(&BENCH.build_spn()),
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        64 << 20,
    ));
    let scheduler = Arc::new(Scheduler::new(device, RuntimeConfig::default()).unwrap());
    let spec = ModelSpec::new(BENCH.name(), scheduler, BENCH.num_vars() as u32, 256);
    let config = ServerConfig {
        serving,
        ..ServerConfig::default()
    };
    SpnServer::serve(config, vec![spec]).unwrap()
}

fn header(magic: &[u8; 4], version: u8, opcode: u8, len: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(protocol::HEADER_LEN);
    h.extend_from_slice(magic);
    h.extend_from_slice(&[version, opcode, 0, 0]);
    h.extend_from_slice(&len.to_le_bytes());
    h
}

fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    protocol::write_frame(&mut bytes, frame).unwrap();
    bytes
}

fn infer_frame() -> Frame {
    let req = InferRequest {
        model: BENCH.name().to_string(),
        deadline_ms: 0,
        num_samples: 1,
        num_features: BENCH.num_vars() as u32,
        data: vec![0u8; BENCH.num_vars()],
        trace: false,
        ctx: SpanCtx::NONE,
    };
    Frame::request(Opcode::Infer, req.encode())
}

/// What one probe connection saw: every frame the endpoint wrote, and
/// whether it then closed the connection (as opposed to leaving it
/// open for the next request).
#[derive(Debug, PartialEq)]
struct Observed {
    replies: Vec<Frame>,
    closed: bool,
}

/// Write `bytes` on a fresh connection (then half-close, if asked, so
/// the endpoint sees EOF where the bytes end) and watch what comes
/// back until the endpoint closes or goes quiet.
fn probe(addr: SocketAddr, bytes: &[u8], half_close: bool) -> Observed {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    if half_close {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let mut replies = Vec::new();
    loop {
        match stream.read(decoder.spare()) {
            Ok(0) => {
                assert!(decoder.is_frame_boundary(), "endpoint tore a reply frame");
                return Observed {
                    replies,
                    closed: true,
                };
            }
            Ok(n) => replies.extend(decoder.advance(n).expect("reply frames are well-formed")),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Observed {
                    replies,
                    closed: false,
                }
            }
            Err(e) => panic!("probe read failed: {e}"),
        }
    }
}

/// The probe table, run against one endpoint. Every row's observation
/// is checked against what the protocol demands here, and returned so
/// the caller can demand it is identical across endpoints.
fn conformance_table(addr: SocketAddr) -> Vec<(&'static str, Observed)> {
    let mut torn_payload = header(&protocol::MAGIC, 1, Opcode::Infer as u8, 1000);
    torn_payload.extend_from_slice(&[0u8; 10]);
    let mut out = Vec::new();

    // Header-level garbage: the stream is no longer frame-aligned, so
    // the endpoint answers `Malformed` once and closes.
    for (what, bytes) in [
        ("bad magic", header(b"NOPE", 1, Opcode::Ping as u8, 0)),
        (
            "bad version",
            header(&protocol::MAGIC, 99, Opcode::Ping as u8, 0),
        ),
        ("unknown opcode", header(&protocol::MAGIC, 1, 200, 0)),
        (
            "oversize length",
            header(
                &protocol::MAGIC,
                1,
                Opcode::Infer as u8,
                protocol::MAX_PAYLOAD + 1,
            ),
        ),
    ] {
        let seen = probe(addr, &bytes, false);
        assert_eq!(seen.replies.len(), 1, "{what}: {seen:?}");
        assert_eq!(seen.replies[0].status, Status::Malformed, "{what}");
        assert!(seen.closed, "{what}: connection left open");
        out.push((what, seen));
    }

    // Torn frames: EOF inside a header or a payload earns no reply,
    // just a close.
    for (what, bytes) in [
        (
            "truncated header",
            header(&protocol::MAGIC, 1, Opcode::Ping as u8, 0)[..7].to_vec(),
        ),
        ("truncated payload", torn_payload),
    ] {
        let seen = probe(addr, &bytes, true);
        assert!(seen.replies.is_empty(), "{what}: {seen:?}");
        assert!(seen.closed, "{what}: connection left open");
        out.push((what, seen));
    }

    // A well-formed frame around a garbage payload: typed error, and
    // the connection stays usable.
    let garbage = Frame::request(Opcode::Infer, vec![1, 2, 3]);
    let seen = probe(addr, &frame_bytes(&garbage), false);
    assert_eq!(seen.replies.len(), 1, "malformed payload: {seen:?}");
    assert_eq!(seen.replies[0].opcode, Opcode::Infer);
    assert_eq!(seen.replies[0].status, Status::Malformed);
    assert!(!seen.closed, "malformed payload closed the connection");
    out.push(("malformed payload", seen));

    // Disconnect mid-request: a full request, then gone before the
    // reply. Nothing to observe on that socket; the endpoint must
    // simply survive it, which the rows below prove.
    drop({
        let mut gone = TcpStream::connect(addr).unwrap();
        gone.write_all(&frame_bytes(&infer_frame())).unwrap();
        gone
    });

    // `Stats` parses as the unified telemetry document. Its contents
    // differ by endpoint, so only its shape goes into the comparison.
    let mut seen = probe(
        addr,
        &frame_bytes(&Frame::request(Opcode::Stats, vec![])),
        false,
    );
    assert_eq!(seen.replies.len(), 1, "stats: {seen:?}");
    let json = String::from_utf8(std::mem::take(&mut seen.replies[0].payload)).unwrap();
    let snapshot = TelemetrySnapshot::from_json(&json).expect("stats is a telemetry document");
    assert_eq!(snapshot.schema, TELEMETRY_SCHEMA_VERSION);
    assert_eq!(seen.replies[0].status, Status::Ok);
    assert!(!seen.closed, "stats closed the connection");
    out.push(("stats", seen));

    // Real work still flows, bit-identically at every endpoint.
    let seen = probe(addr, &frame_bytes(&infer_frame()), false);
    assert_eq!(seen.replies.len(), 1, "infer: {seen:?}");
    assert_eq!(seen.replies[0].status, Status::Ok);
    assert!(!seen.closed);
    out.push(("infer", seen));
    out
}

/// `Shutdown` is acknowledged, then the endpoint drains: the owner's
/// `wait_for_shutdown` returns and new inference on the still-open
/// connection is refused — with a typed status or a close, depending
/// on when the driver observes the latch; both are refusals.
fn shutdown_acks_then_drains(addr: SocketAddr, wait_for_shutdown: impl FnOnce()) -> Frame {
    let mut client = Client::connect(addr).unwrap();
    let stream = client.stream_mut();
    protocol::write_frame(stream, &Frame::request(Opcode::Shutdown, vec![])).unwrap();
    let ack = protocol::read_frame(stream).expect("shutdown is acknowledged");
    wait_for_shutdown();
    let refused = client
        .request(BENCH.name())
        .samples(&vec![0u8; BENCH.num_vars()], 1, BENCH.num_vars() as u32)
        .send();
    match refused {
        Err(ClientError::Rejected { status, .. }) => assert_eq!(status, Status::ShuttingDown),
        Err(_) => {}
        Ok(_) => panic!("inference accepted after shutdown"),
    }
    ack
}

#[test]
fn all_three_endpoints_conform_identically() {
    let mut reactor = start_server(ServingMode::default());
    let backend = start_server(ServingMode::default());
    let mut router = SpnRouter::start(RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        replication: 1,
        ..RouterConfig::default()
    })
    .unwrap();

    let reference = conformance_table(reactor.local_addr());
    for (want, got) in reference.iter().zip(conformance_table(router.local_addr())) {
        assert_eq!(*want, got, "router diverges from the reactor server");
    }

    // The garbage was counted where it arrived and went no further.
    let malformed = |s: &SpnServer| s.metrics_snapshot().rejected_malformed;
    assert_eq!(
        router
            .telemetry_snapshot()
            .router
            .unwrap()
            .rejected_malformed,
        malformed(&reactor)
    );
    assert_eq!(malformed(&backend), 0, "garbage reached the backend");

    let want_ack = Frame::response(Opcode::Shutdown, Status::Ok, vec![]);
    let ack = shutdown_acks_then_drains(reactor.local_addr(), || reactor.wait_for_shutdown());
    assert_eq!(ack, want_ack, "reactor server");
    let ack = shutdown_acks_then_drains(router.local_addr(), || router.wait_for_shutdown());
    assert_eq!(ack, want_ack, "router");
    // The router's `Shutdown` drained the router only.
    assert!(Client::connect(backend.local_addr())
        .unwrap()
        .ping()
        .is_ok());

    reactor.shutdown();
    router.shutdown();
}
