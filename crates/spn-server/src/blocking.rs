//! The blocking thread-per-connection driver for a [`Frontend`].
//!
//! One accept thread plus one thread per client socket, each reading
//! frames through the same resumable [`FrameDecoder`] the reactor
//! uses, under a short read timeout so a blocked read still observes
//! the shutdown latch. It costs an OS thread per client, which is why
//! `spn-server` defaults to the reactor; it stays because it is the
//! simplest possible driver — the oracle the reactor is differentially
//! tested against — and because `spn-router`'s forwarding path blocks
//! on its upstream connections anyway.

use crate::frontend::{Dispatched, Frontend, Service};
use crate::protocol::{write_frame, Frame, FrameDecoder, Opcode, Status, WireError};
use parking_lot::Mutex;
use spn_telemetry::SpanCtx;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

type ConnThreads = Arc<Mutex<Vec<thread::JoinHandle<()>>>>;

/// The running driver. Stop it in two steps around whatever unblocks
/// in-flight requests: [`BlockingDriver::join_acceptor`] once the
/// front-end's latch is set, then [`BlockingDriver::finish`].
pub struct BlockingDriver {
    accept_thread: Option<thread::JoinHandle<()>>,
    conn_threads: ConnThreads,
}

impl BlockingDriver {
    /// Serve `front` on `listener`.
    pub fn start<S: Service>(listener: TcpListener, front: Arc<Frontend<S>>) -> BlockingDriver {
        let conn_threads = ConnThreads::default();
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = thread::Builder::new()
            .name("spn-accept".into())
            .spawn(move || accept_loop(listener, front, accept_conns))
            .expect("spawn accept thread");
        BlockingDriver {
            accept_thread: Some(accept_thread),
            conn_threads,
        }
    }

    /// Join the accept thread (after `request_shutdown`, whose nudge
    /// connection unblocks `accept`). Idempotent.
    pub fn join_acceptor(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Join every connection thread. A thread waiting on a pending
    /// `Infer` only returns once the service answers it, so drain the
    /// service first.
    pub fn finish(&mut self) {
        for t in self.conn_threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop<S: Service>(listener: TcpListener, front: Arc<Frontend<S>>, conns: ConnThreads) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                if front.is_shutting_down() {
                    // The wake-up connection (or a late client); stop.
                    return;
                }
                let conn_front = Arc::clone(&front);
                let t = thread::Builder::new()
                    .name(format!("spn-conn-{peer}"))
                    .spawn(move || {
                        // Any I/O failure just ends this connection.
                        let _ = serve_connection(stream, &conn_front);
                    })
                    .expect("spawn connection thread");
                let mut guard = conns.lock();
                // Let go of threads whose connections already closed so
                // a long-running endpoint with connection churn does
                // not accumulate JoinHandles without bound.
                guard.retain(|t| !t.is_finished());
                guard.push(t);
            }
            Err(_) => {
                if front.is_shutting_down() {
                    return;
                }
                // Transient accept error; keep serving.
            }
        }
    }
}

/// One connection, one request at a time: read a frame, dispatch it,
/// wait for the response if it is pending, write it.
fn serve_connection<S: Service>(mut stream: TcpStream, front: &Frontend<S>) -> io::Result<()> {
    stream.set_read_timeout(Some(front.read_poll()))?;
    stream.set_nodelay(true)?;
    let mut decoder = FrameDecoder::new();
    loop {
        let frame = match read_request(&mut stream, &mut decoder, || front.is_shutting_down()) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(WireError::Malformed(m)) => {
                let _ = write_frame(&mut stream, &front.malformed(&m));
                return Ok(());
            }
            Err(WireError::Io(e)) => return Err(e),
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let (reply, span) = match front.dispatch(frame, move |reply| {
            let _ = tx.send(reply);
        }) {
            Dispatched::Reply(reply, span) => (reply, span),
            Dispatched::Pending => {
                let (reply, ctx) = rx.recv().unwrap_or_else(|_| {
                    let msg = "service dropped the request";
                    (
                        Frame::error(Opcode::Infer, Status::Internal, msg),
                        SpanCtx::NONE,
                    )
                });
                (reply, Some(ctx))
            }
        };
        let t_write = Instant::now();
        write_frame(&mut stream, &reply)?;
        if let Some(ctx) = span {
            front.reply_written(ctx, reply.payload.len(), t_write);
        }
    }
}

/// Read one frame, waking every read timeout to poll `stop` — the
/// stream must have a read timeout set, or the poll never runs.
/// `Ok(None)` is a connection that is over without a fault: `stop`
/// fired, or the peer closed cleanly *at a frame boundary*. EOF inside
/// a frame is a torn frame, an error.
fn read_request(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    stop: impl Fn() -> bool,
) -> Result<Option<Frame>, WireError> {
    loop {
        if stop() {
            return Ok(None);
        }
        match stream.read(decoder.spare()) {
            Ok(0) if decoder.is_frame_boundary() => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => {
                if let Some(frame) = decoder.advance(n)? {
                    return Ok(Some(frame));
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Duration;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_read_timeout(Some(Duration::from_millis(5))).unwrap();
        (a, b)
    }

    fn ping_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::request(Opcode::Ping, vec![])).unwrap();
        bytes
    }

    #[test]
    fn frame_fills_across_partial_writes() {
        let (mut tx, mut rx) = pair();
        let writer = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            write_frame(
                &mut bytes,
                &Frame::request(Opcode::Infer, b"hello".to_vec()),
            )
            .unwrap();
            // Split inside the header and again inside the payload.
            for chunk in [&bytes[..5], &bytes[5..14], &bytes[14..]] {
                tx.write_all(chunk).unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
            tx
        });
        let frame = read_request(&mut rx, &mut FrameDecoder::new(), || false)
            .unwrap()
            .expect("a whole frame");
        assert_eq!(frame, Frame::request(Opcode::Infer, b"hello".to_vec()));
        drop(writer.join().unwrap());
    }

    #[test]
    fn clean_eof_only_at_a_frame_boundary() {
        let (mut tx, mut rx) = pair();
        tx.write_all(&ping_bytes()).unwrap();
        drop(tx);
        let mut decoder = FrameDecoder::new();
        assert!(read_request(&mut rx, &mut decoder, || false)
            .unwrap()
            .is_some());
        // Next read hits EOF with nothing buffered: clean.
        assert!(read_request(&mut rx, &mut decoder, || false)
            .unwrap()
            .is_none());
    }

    #[test]
    fn torn_frame_is_an_error() {
        let (mut tx, mut rx) = pair();
        tx.write_all(&ping_bytes()[..7]).unwrap();
        drop(tx);
        match read_request(&mut rx, &mut FrameDecoder::new(), || false) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected a torn-frame error, got {other:?}"),
        }
    }

    #[test]
    fn stop_predicate_interrupts_a_blocked_read() {
        let (_tx, mut rx) = pair();
        let polls = std::cell::Cell::new(0);
        // Nothing ever arrives; the read times out, re-polls `stop`,
        // and the third poll ends the wait.
        let out = read_request(&mut rx, &mut FrameDecoder::new(), || {
            polls.set(polls.get() + 1);
            polls.get() >= 3
        });
        assert!(matches!(out, Ok(None)));
        assert_eq!(polls.get(), 3);
    }
}
