//! The nonblocking epoll driver for the server's
//! [`Frontend`](crate::frontend::Frontend).
//!
//! Where the blocking driver spends one OS thread per client socket,
//! the reactor multiplexes every connection over a small fixed pool
//! of event-loop threads driven by `epoll` (via the vendored [`epoll`]
//! shim; sockets level-triggered, the wake eventfd edge-triggered):
//!
//! * one **acceptor thread** parks in `TcpListener::accept`, enforces
//!   the connection limit (over-limit sockets get one `ServerBusy`
//!   frame and a close — a *typed* rejection, not a silent RST), and
//!   hands accepted sockets round-robin to the loops through a
//!   mutexed inbox plus an [`EventFd`] wake;
//! * each **loop thread** owns its connections outright — a slab of
//!   `Conn` state machines with generation-counted slots — so no
//!   lock is held while decoding, dispatching or writing. A
//!   connection decodes SPN1 frames *incrementally* with
//!   [`FrameDecoder`]: bytes land directly in the decoder's
//!   connection-owned buffer, and every completed frame goes through
//!   [`Frontend::dispatch`](crate::frontend::Frontend::dispatch) — a
//!   completed `Infer` payload reaches the batcher without another
//!   copy ([`crate::protocol::InferRequest::decode_owned`]).
//!
//! **Request serialization.** A connection handles one request at a
//! time, exactly like a blocking-driver connection thread: while an
//! `Infer` is in flight (or a reply is still flushing) readiness on
//! the connection is not acted on, so pipelined bytes wait in the
//! kernel socket buffer. Its read interest is dropped *lazily*, on the
//! first such ignored event: a closed-loop peer sends nothing while it
//! waits, so its requests cost no `epoll_ctl` at all; a pipelining or
//! half-closing peer costs one ignored event, then is silent until the
//! reply is out. The decoder never reads past the current frame's end,
//! which is what makes this razor-sharp: per-connection memory is
//! bounded by one frame, and replies go back in request order.
//!
//! **Reply path.** A pending `Infer` is answered through the
//! completion callback handed to `Frontend::dispatch`: it pushes a
//! `Completion` onto the owning loop's queue and wakes the loop's
//! eventfd, so the scheduler control thread that completes a batch
//! never writes to a socket.
//! The loop matches the completion to the connection by
//! `(slot, generation)` — a connection that died mid-request simply
//! drops its reply (request accounting already ran in the service).
//! Writes are attempted immediately and fall back to `EPOLLOUT`
//! interest on `WouldBlock`.
//!
//! **Idle timeout.** A per-loop hashed timer wheel closes connections
//! idle past [`ReactorConfig::idle_timeout`]; connections with work
//! in flight are never idle-closed, and wheel entries are re-armed
//! lazily from `last_activity` so per-byte bookkeeping stays O(1).
//!
//! Shutdown mirrors the blocking driver: the acceptor stops, the
//! batchers drain (their sinks flood the completion queues), then
//! every loop flushes pending replies under a bounded grace period
//! and exits.

use crate::frontend::Dispatched;
use crate::metrics::ReactorMetrics;
use crate::protocol::{write_frame, Frame, FrameDecoder, Opcode, Status, WireError};
use crate::server::ServerFront;
use epoll::{Epoll, Event, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;
use spn_telemetry::SpanCtx;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Reactor engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop threads. Connections are sharded round-robin at
    /// accept; each loop multiplexes its shard. Clamped to at least 1.
    pub loop_threads: usize,
    /// Hard cap on concurrently open connections; the acceptor
    /// answers the connection past the cap with one `ServerBusy`
    /// frame and closes it.
    pub max_connections: usize,
    /// Close connections with no traffic for this long (`None` =
    /// never). Connections with a request in flight or a reply still
    /// flushing are never idle-closed.
    pub idle_timeout: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            loop_threads: 2,
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// The running reactor: acceptor + loop threads, joined in
/// [`ReactorHandle::join_acceptor`] / [`ReactorHandle::finish`].
pub(crate) struct ReactorHandle {
    accept_thread: Option<thread::JoinHandle<()>>,
    loops: Vec<LoopRef>,
}

struct LoopRef {
    shared: Arc<LoopShared>,
    thread: Option<thread::JoinHandle<()>>,
}

/// The cross-thread face of one event loop: everything other threads
/// (the acceptor, batch completions, shutdown) may touch. The
/// loop's actual connection state lives on its own stack.
struct LoopShared {
    epoll: Epoll,
    wake: EventFd,
    /// Sockets accepted but not yet registered with the loop.
    inbox: Mutex<Vec<TcpStream>>,
    /// Batcher replies awaiting delivery to their connections.
    completions: Mutex<Vec<Completion>>,
    /// Set at shutdown: flush pending output, then exit.
    finish: AtomicBool,
}

/// A pending `Infer` response routed back to the loop that owns the
/// connection.
struct Completion {
    slot: usize,
    generation: u64,
    reply: Frame,
    ctx: SpanCtx,
}

/// The wake eventfd's registration token; connection tokens are
/// `slot + 1`.
const TOKEN_WAKE: u64 = 0;

/// How long a finishing loop keeps trying to flush pending replies
/// before abandoning the sockets.
const FINISH_GRACE: Duration = Duration::from_secs(5);

/// Start the reactor: bind is already done (`listener`), spawn the
/// loop pool and the acceptor.
pub(crate) fn start(
    listener: TcpListener,
    front: Arc<ServerFront>,
    config: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let config = ReactorConfig {
        loop_threads: config.loop_threads.max(1),
        ..config
    };
    let mut loops = Vec::with_capacity(config.loop_threads);
    for i in 0..config.loop_threads {
        let ls = Arc::new(LoopShared {
            epoll: Epoll::new()?,
            wake: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            finish: AtomicBool::new(false),
        });
        ls.epoll.add(&ls.wake, EPOLLIN | EPOLLET, TOKEN_WAKE)?;
        let loop_ls = Arc::clone(&ls);
        let loop_front = Arc::clone(&front);
        let loop_cfg = config.clone();
        let thread = thread::Builder::new()
            .name(format!("spn-loop-{i}"))
            .spawn(move || run_loop(loop_ls, loop_front, loop_cfg))
            .expect("spawn reactor loop thread");
        loops.push(LoopRef {
            shared: ls,
            thread: Some(thread),
        });
    }

    let accept_loops: Vec<Arc<LoopShared>> = loops.iter().map(|l| Arc::clone(&l.shared)).collect();
    let accept_thread = thread::Builder::new()
        .name("spn-accept".into())
        .spawn(move || accept_loop(listener, front, accept_loops, config))
        .expect("spawn reactor accept thread");

    Ok(ReactorHandle {
        accept_thread: Some(accept_thread),
        loops,
    })
}

impl ReactorHandle {
    /// Join the acceptor (call after `request_shutdown`, whose nudge
    /// connection unblocks `accept`).
    pub(crate) fn join_acceptor(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Tell every loop to flush and exit, then join them. Call only
    /// after the batchers have drained, so every outstanding reply is
    /// already in (or past) the completion queues.
    pub(crate) fn finish(&mut self) {
        for l in &self.loops {
            l.shared.finish.store(true, Ordering::Release);
            let _ = l.shared.wake.wake();
        }
        for l in &mut self.loops {
            if let Some(t) = l.thread.take() {
                let _ = t.join();
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    front: Arc<ServerFront>,
    loops: Vec<Arc<LoopShared>>,
    config: ReactorConfig,
) {
    let metrics = front
        .service
        .reactor
        .as_ref()
        .expect("reactor engine always carries reactor metrics");
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if front.is_shutting_down() {
                    // The wake-up connection (or a late client); stop.
                    drop(stream);
                    return;
                }
                if metrics.open_connections() >= config.max_connections as u64 {
                    metrics.conn_rejected_at_accept();
                    reject_busy(stream, config.max_connections);
                    continue;
                }
                metrics.conn_accepted();
                let target = &loops[next % loops.len()];
                next = next.wrapping_add(1);
                target.inbox.lock().push(stream);
                let _ = target.wake.wake();
            }
            Err(_) => {
                if front.is_shutting_down() {
                    return;
                }
                // Transient accept error (EMFILE, ECONNABORTED, …);
                // keep serving.
            }
        }
    }
}

/// Answer an over-limit connection with one typed `ServerBusy` frame,
/// then close. The frame arrives before the client's first request,
/// so it carries `Opcode::Infer` — the opcode a loadgen or inference
/// client is about to send — and a short write timeout so a
/// non-reading peer cannot wedge the acceptor.
fn reject_busy(mut stream: TcpStream, max_connections: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = write_frame(
        &mut stream,
        &Frame::error(
            Opcode::Infer,
            Status::ServerBusy,
            &format!("connection limit {max_connections} reached; retry later"),
        ),
    );
}

/// A reply being flushed to the socket.
struct OutBuf {
    buf: Vec<u8>,
    at: usize,
    /// Trace context + write-start instant for the `ReplyWritten`
    /// span, set for `Infer` replies only.
    span: Option<(SpanCtx, Instant)>,
}

impl OutBuf {
    fn new(frame: &Frame) -> OutBuf {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).expect("serialising to a Vec cannot fail");
        OutBuf {
            buf,
            at: 0,
            span: None,
        }
    }
}

/// One connection's state machine, owned by its loop thread.
struct Conn {
    stream: TcpStream,
    generation: u64,
    decoder: FrameDecoder,
    /// Reply currently flushing (`None` = nothing to write).
    out: Option<OutBuf>,
    /// An `Infer` is enqueued with a batcher and unanswered.
    inflight: bool,
    /// The epoll interest bits currently registered.
    interest: u32,
    last_activity: Instant,
    /// Close once `out` finishes flushing (malformed frame answered,
    /// or peer already gone).
    close_after_flush: bool,
}

impl Conn {
    fn busy(&self) -> bool {
        self.inflight || self.out.is_some()
    }
}

/// A simple hashed timer wheel over the loop's slab: slots hold
/// `(slot, generation)` cookies, ticks advance a cursor, and expiry
/// consults the connection's true `last_activity` — so a connection
/// is re-inserted lazily instead of being moved on every byte.
struct TimerWheel {
    idle: Duration,
    slots: Vec<Vec<(usize, u64)>>,
    tick: Duration,
    cursor: usize,
    next_tick_at: Instant,
}

const WHEEL_SLOTS: usize = 64;

impl TimerWheel {
    fn new(idle: Duration) -> TimerWheel {
        // Resolution: idle/16, clamped to [5ms, 1s]. Precise enough
        // that expiry lands within ~6% of the deadline, coarse enough
        // that an idle server wakes rarely.
        let tick = (idle / 16)
            .max(Duration::from_millis(5))
            .min(Duration::from_secs(1));
        TimerWheel {
            idle,
            slots: vec![Vec::new(); WHEEL_SLOTS],
            tick,
            cursor: 0,
            next_tick_at: Instant::now() + tick,
        }
    }

    /// Schedule `cookie` to be inspected roughly `after` from now.
    fn insert_after(&mut self, cookie: (usize, u64), after: Duration) {
        let ticks = (after.as_nanos() / self.tick.as_nanos().max(1)) as usize + 1;
        let slot = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push(cookie);
    }

    fn insert(&mut self, cookie: (usize, u64)) {
        let idle = self.idle;
        self.insert_after(cookie, idle);
    }

    /// How long until the next tick is due (for the epoll timeout).
    fn until_next_tick(&self, now: Instant) -> Duration {
        self.next_tick_at.saturating_duration_since(now)
    }

    /// Advance past-due ticks, calling `expire` on every cookie whose
    /// slot came up; `expire` returns the remaining idle budget when
    /// the connection is still alive (to re-arm) or `None` when it is
    /// gone or was closed.
    fn advance(&mut self, now: Instant, mut expire: impl FnMut((usize, u64)) -> Option<Duration>) {
        let mut rearm: Vec<((usize, u64), Duration)> = Vec::new();
        while now >= self.next_tick_at {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.next_tick_at += self.tick;
            for cookie in std::mem::take(&mut self.slots[self.cursor]) {
                if let Some(remaining) = expire(cookie) {
                    rearm.push((cookie, remaining));
                }
            }
        }
        for (cookie, remaining) in rearm {
            self.insert_after(cookie, remaining);
        }
    }
}

/// One loop thread's state: its connection slab, plus its handles on
/// what it shares with other threads.
struct EventLoop {
    ls: Arc<LoopShared>,
    front: Arc<ServerFront>,
    metrics: Arc<ReactorMetrics>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
}

fn run_loop(ls: Arc<LoopShared>, front: Arc<ServerFront>, config: ReactorConfig) {
    let metrics = Arc::clone(
        front
            .service
            .reactor
            .as_ref()
            .expect("reactor engine always carries reactor metrics"),
    );
    EventLoop {
        ls,
        front,
        metrics,
        conns: Vec::new(),
        free: Vec::new(),
    }
    .run(config.idle_timeout.map(TimerWheel::new));
}

impl EventLoop {
    fn run(&mut self, mut wheel: Option<TimerWheel>) {
        let mut generation = 0u64;
        let mut events = vec![Event::zeroed(); 256];
        let mut finish_deadline: Option<Instant> = None;

        loop {
            let finishing = self.ls.finish.load(Ordering::Acquire);
            let timeout = if finishing {
                Some(Duration::from_millis(5))
            } else {
                wheel.as_ref().map(|w| {
                    w.until_next_tick(Instant::now())
                        .max(Duration::from_millis(1))
                })
            };
            let n = self.ls.epoll.wait(&mut events, timeout).unwrap_or_default();
            self.metrics.loop_turn(n as u64);

            for event in events.iter().take(n) {
                let (token, readiness) = (event.token(), event.readiness());
                // A wake (edge-triggered, never read) only ends the
                // wait: inbox and completions are emptied every turn.
                if token != TOKEN_WAKE {
                    self.handle_readiness((token - 1) as usize, readiness);
                }
            }

            // Register freshly accepted sockets.
            let inbox = std::mem::take(&mut *self.ls.inbox.lock());
            for stream in inbox {
                self.metrics.conn_registered();
                generation += 1;
                if self
                    .register_conn(stream, generation, wheel.as_mut())
                    .is_err()
                {
                    self.metrics.conn_closed();
                }
            }

            // Deliver pending replies that arrived since the last turn.
            let completions = std::mem::take(&mut *self.ls.completions.lock());
            for c in completions {
                match self.conns[c.slot].as_mut() {
                    Some(conn) if conn.generation == c.generation => conn.inflight = false,
                    _ => continue, // The connection died mid-request.
                }
                self.queue_reply(c.slot, &c.reply, Some(c.ctx));
                self.flush_out(c.slot);
            }

            // Idle expiry.
            if let Some(w) = wheel.as_mut() {
                let now = Instant::now();
                let (idle, tick) = (w.idle, w.tick);
                w.advance(now, |(slot, gen)| {
                    let conn = match self.conns[slot].as_ref() {
                        Some(c) if c.generation == gen => c,
                        _ => return None,
                    };
                    let idle_for = now.saturating_duration_since(conn.last_activity);
                    if idle_for >= idle && !conn.busy() {
                        self.metrics.conn_idle_closed();
                        self.close_conn(slot);
                        None
                    } else {
                        // Still active (or mid-request): come back when
                        // its current idle budget would run out.
                        Some(idle.saturating_sub(idle_for).max(tick))
                    }
                });
            }

            if finishing {
                let deadline =
                    *finish_deadline.get_or_insert_with(|| Instant::now() + FINISH_GRACE);
                let flushing = self
                    .conns
                    .iter()
                    .flatten()
                    .any(|c| c.out.is_some() && Instant::now() < deadline);
                let completions_pending = !self.ls.completions.lock().is_empty();
                if !flushing && !completions_pending {
                    break;
                }
            }
        }

        // Drop every remaining connection (peers see a close).
        for slot in 0..self.conns.len() {
            self.close_conn(slot);
        }
    }

    /// Put a freshly accepted socket under epoll management.
    fn register_conn(
        &mut self,
        stream: TcpStream,
        generation: u64,
        wheel: Option<&mut TimerWheel>,
    ) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = (slot + 1) as u64;
        if let Err(e) = self.ls.epoll.add(&stream, EPOLLIN | EPOLLRDHUP, token) {
            self.free.push(slot);
            return Err(e);
        }
        self.conns[slot] = Some(Conn {
            stream,
            generation,
            decoder: FrameDecoder::new(),
            out: None,
            inflight: false,
            interest: EPOLLIN | EPOLLRDHUP,
            last_activity: Instant::now(),
            close_after_flush: false,
        });
        if let Some(w) = wheel {
            w.insert((slot, generation));
        }
        Ok(())
    }

    /// React to readiness on a connection's socket.
    fn handle_readiness(&mut self, slot: usize, readiness: u32) {
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return; // Stale event for a closed slot.
        };
        if readiness & EPOLLERR != 0 {
            self.close_conn(slot);
        } else if conn.out.is_some() && readiness & (EPOLLOUT | EPOLLHUP) != 0 {
            self.flush_out(slot);
        } else if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            if conn.busy() {
                // A peer that pipelines or half-closes behind its
                // request: ignored, but level-triggered, so it would
                // spin the loop. Silence the socket — the interest must
                // be *empty* (EPOLLERR/HUP arrive regardless) — until
                // `flush_out` re-arms it.
                self.set_interest(slot, 0);
            } else {
                self.read_ready(slot);
            }
        }
    }

    /// Pull bytes into the connection's decoder until it would block,
    /// a frame completes, or the peer goes away.
    fn read_ready(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let spare = conn.decoder.spare();
            debug_assert!(!spare.is_empty(), "reading while poisoned");
            match conn.stream.read(spare) {
                // EOF: clean at a frame boundary, torn otherwise —
                // either way the connection is done (no request in
                // flight here, since reads pause while busy).
                Ok(0) => return self.close_conn(slot),
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    match conn.decoder.advance(n) {
                        Ok(Some(frame)) => return self.dispatch_frame(slot, frame),
                        Ok(None) => {} // Mid-frame; keep reading.
                        Err(WireError::Malformed(m)) => {
                            // Answer once, then close.
                            conn.out = Some(OutBuf::new(&self.front.malformed(&m)));
                            conn.close_after_flush = true;
                            return self.flush_out(slot);
                        }
                        Err(WireError::Io(_)) => return self.close_conn(slot),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.close_conn(slot),
            }
        }
    }

    /// Hand one complete request frame to the front-end and act on its
    /// verdict.
    fn dispatch_frame(&mut self, slot: usize, frame: Frame) {
        let generation = self.conns[slot]
            .as_ref()
            .expect("dispatch on a live conn")
            .generation;
        let sink_ls = Arc::clone(&self.ls);
        let verdict = self.front.dispatch(frame, move |(reply, ctx)| {
            sink_ls.completions.lock().push(Completion {
                slot,
                generation,
                reply,
                ctx,
            });
            let _ = sink_ls.wake.wake();
        });
        match verdict {
            Dispatched::Reply(reply, span) => {
                self.queue_reply(slot, &reply, span);
                self.flush_out(slot);
            }
            Dispatched::Pending => {
                // Read interest stays armed; `handle_readiness` drops it
                // if the peer sends anything before it has its reply.
                let conn = self.conns[slot].as_mut().expect("dispatch on a live conn");
                conn.inflight = true;
            }
        }
    }

    /// Stash a reply on the connection for flushing. `span` marks
    /// `Infer` replies, whose write is stamped with a `ReplyWritten`
    /// span.
    fn queue_reply(&mut self, slot: usize, frame: &Frame, span: Option<SpanCtx>) {
        if let Some(conn) = self.conns[slot].as_mut() {
            debug_assert!(conn.out.is_none(), "one reply at a time per connection");
            let mut out = OutBuf::new(frame);
            out.span = span.map(|ctx| (ctx, Instant::now()));
            conn.out = Some(out);
        }
    }

    /// Write as much pending output as the socket accepts; arm
    /// `EPOLLOUT` on `WouldBlock`, restore read interest when the reply
    /// is out.
    fn flush_out(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let Some(out) = conn.out.as_mut() else {
            return;
        };
        loop {
            match conn.stream.write(&out.buf[out.at..]) {
                Ok(0) => return self.close_conn(slot),
                Ok(n) => {
                    out.at += n;
                    conn.last_activity = Instant::now();
                    if out.at == out.buf.len() {
                        if let Some((ctx, started)) = out.span {
                            let payload_len = out.buf.len() - crate::protocol::HEADER_LEN;
                            self.front.reply_written(ctx, payload_len, started);
                        }
                        conn.out = None;
                        if conn.close_after_flush {
                            self.close_conn(slot);
                        } else {
                            self.set_interest(slot, EPOLLIN | EPOLLRDHUP);
                        }
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return self.set_interest(slot, EPOLLOUT);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.close_conn(slot),
            }
        }
    }

    /// Change a connection's epoll interest iff it differs (on the
    /// closed-loop path it never does: no syscall). A connection the
    /// kernel refuses to re-register is closed — remembered as armed
    /// but silent, it would never be read, reaped or freed.
    fn set_interest(&mut self, slot: usize, want: u32) {
        let conn = self.conns[slot].as_mut().expect("interest of a live conn");
        if conn.interest == want {
            return;
        }
        self.metrics.interest_changed();
        match self.ls.epoll.modify(&conn.stream, want, (slot + 1) as u64) {
            Ok(()) => conn.interest = want,
            Err(_) => self.close_conn(slot),
        }
    }

    /// Tear a connection down: deregister, free the slot, count it.
    /// No-op on an empty slot.
    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.ls.epoll.delete(&conn.stream);
            self.metrics.conn_closed();
            self.free.push(slot);
            // An in-flight request's completion will arrive with a stale
            // generation and be dropped (its accounting already ran).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ModelSpec, ServerConfig, SpnServer};
    use spn_core::NipsBenchmark;
    use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};

    const BENCH: NipsBenchmark = NipsBenchmark::Nips10;

    /// A reactor server (the default engine) with one NIPS10 model.
    fn serve() -> SpnServer {
        let device = VirtualDevice::new(
            spn_hw::DatapathProgram::compile(&BENCH.build_spn()),
            spn_arith::AnyFormat::paper_default(),
            spn_hw::AcceleratorConfig::paper_default(),
            2,
            64 << 20,
        );
        let scheduler = Scheduler::new(Arc::new(device), RuntimeConfig::default()).unwrap();
        let spec = ModelSpec::new(
            BENCH.name(),
            Arc::new(scheduler),
            BENCH.num_vars() as u32,
            256,
        );
        SpnServer::serve(ServerConfig::default(), vec![spec]).unwrap()
    }

    /// A closed-loop peer sends nothing while its request runs, so the
    /// socket is never silenced and never re-armed: after registration
    /// its requests cost no `epoll_ctl`.
    #[test]
    fn closed_loop_requests_never_change_epoll_interest() {
        let server = serve();
        let nf = BENCH.num_vars();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for _ in 0..1000 {
            let lls = client
                .request(BENCH.name())
                .samples(&vec![0u8; nf], 1, nf as u32)
                .send()
                .unwrap();
            assert_eq!(lls.len(), 1);
        }
        let metrics = server.front().service.reactor.as_ref().unwrap();
        assert_eq!(metrics.interest_changes(), 0);
    }

    /// `set_interest` is the only place a connection's interest
    /// changes, and it must not record a change the kernel refused: a
    /// connection deregistered behind the loop's back (`MOD` →
    /// `ENOENT`) is closed, not remembered as armed and left silent.
    #[test]
    fn a_refused_interest_change_closes_the_connection() {
        let server = serve();
        let metrics = Arc::new(ReactorMetrics::new(1));
        let ls = Arc::new(LoopShared {
            epoll: Epoll::new().unwrap(),
            wake: EventFd::new().unwrap(),
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            finish: AtomicBool::new(false),
        });
        let mut ev = EventLoop {
            ls: Arc::clone(&ls),
            front: Arc::clone(server.front()),
            metrics: Arc::clone(&metrics),
            conns: Vec::new(),
            free: Vec::new(),
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        metrics.conn_accepted();
        ev.register_conn(stream, 1, None).unwrap();
        assert_eq!(metrics.open_connections(), 1);

        let registered = ev.conns[0].as_ref().expect("registered in slot 0");
        ls.epoll.delete(&registered.stream).unwrap();
        ev.set_interest(0, 0);

        assert!(ev.conns[0].is_none(), "left half-armed");
        assert_eq!(ev.free, [0]);
        assert_eq!(metrics.open_connections(), 0, "counted in conn_closed");
    }
}
