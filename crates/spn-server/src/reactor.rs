//! The nonblocking epoll driver behind every SPN1 endpoint's
//! [`Frontend`], and the outbound calls a service makes from it.
//!
//! A fixed pool of **loop threads** is the whole reactor. Loop 0 also
//! listens: it accepts on readiness, answers a socket past the limit
//! with one typed `ServerBusy` frame (not a silent RST), deals the rest
//! round-robin — the other loops' through a mutexed inbox and an
//! [`EventFd`] wake — and after an `accept` error (`EMFILE`, …) stops
//! listening until its timer wheel says so. Each loop owns its slab —
//! client connections and outbound calls, in generation-counted slots
//! — and drives it with level-triggered `epoll` (the vendored [`epoll`]
//! shim), so no lock is held while decoding, dispatching or writing.
//!
//! **One request at a time per connection.** Frames decode
//! incrementally with [`FrameDecoder`], which never reads past the
//! current frame's end, so per-connection memory is bounded by one
//! frame and replies go back in request order. While an `Infer` is in
//! flight (or its reply flushing) readiness is not acted on, and read
//! interest is dropped only on the first such ignored event: a
//! closed-loop peer costs no `epoll_ctl` at all.
//!
//! **Replies.** The completion callback handed to `Frontend::dispatch`
//! queues a `Completion`, keyed by `(slot, generation)`, on the owning
//! loop and wakes it — unless it runs on that loop, which drains the
//! queue later in the same turn: a small request whose batch ran on the
//! loop is one readiness event, one read, the plan and one `writev`. So
//! no control thread writes to a socket, and a reply for a connection
//! that died is dropped.
//!
//! **Outbound calls.** A service may answer an `Infer` by calling
//! another SPN1 endpoint through [`Upstream`], the loop's handle passed
//! to `Service::infer`; the router forwards this way. A call is one
//! more kind of slab entry, on the loop that read the client's frame: a
//! nonblocking dial (`EINPROGRESS`, `EPOLLOUT`, `SO_ERROR`), one frame
//! written, one reply decoded, and a continuation run on the loop with
//! the outcome. No loop blocks on a backend, so a stalled backend
//! stalls only the requests waiting on it. Idle connections wait in a
//! LIFO pool per loop and per backend, still registered so a close is
//! noticed, until their TTL runs out; one found closed when reused earns
//! one fresh dial.
//!
//! **Timers.** One hashed timer wheel per loop holds every deadline: a
//! client's idle timeout ([`ReactorConfig::idle_timeout`]), a call's
//! dial and reply bounds, a pooled connection's TTL. Expiry checks the
//! true deadline and re-arms lazily, so firing early is harmless.
//!
//! Shutdown: the front-end's latch wakes loop 0, which closes the
//! listener within one turn; the service drains; then every loop
//! flushes pending replies under a grace period, drives in-flight calls
//! until they are answered or time out, and exits.

use crate::client::is_disconnect;
use crate::frontend::{Dispatched, Frontend, InferReply, Service};
use crate::metrics::ReactorMetrics;
use crate::protocol::{
    encode_frame, encode_header, read_some, write_some, Frame, FrameDecoder, Opcode, Status,
    WireError, HEADER_LEN,
};
use epoll::{Epoll, Event, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use parking_lot::Mutex;
use spn_telemetry::SpanCtx;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

/// Reactor engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Event-loop threads. Connections are sharded round-robin at
    /// accept; each loop multiplexes its shard. Clamped to at least 1.
    pub loop_threads: usize,
    /// Hard cap on concurrently open connections; loop 0 answers the
    /// connection past the cap with one `ServerBusy` frame and closes
    /// it.
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

/// A running reactor: its loop threads. Stop it with
/// [`ReactorHandle::finish`] once the service has drained; dropping it
/// finishes it too.
pub struct ReactorHandle {
    loops: Vec<Arc<LoopShared>>,
    threads: Vec<thread::JoinHandle<()>>,
    metrics: Arc<ReactorMetrics>,
}

/// The cross-thread face of one event loop: everything other threads
/// (loop 0's accepts, batch completions, shutdown) may touch.
struct LoopShared {
    epoll: Epoll,
    wake: EventFd,
    /// Sockets accepted but not yet registered with the loop.
    inbox: Mutex<Vec<TcpStream>>,
    /// Replies awaiting delivery to their connections.
    completions: Mutex<Vec<Completion>>,
    /// Set at shutdown: flush pending output, then exit.
    finish: AtomicBool,
    /// The loop's own thread, once it runs.
    owner: OnceLock<ThreadId>,
}

impl LoopShared {
    fn new() -> io::Result<Arc<LoopShared>> {
        let ls = LoopShared {
            epoll: Epoll::new()?,
            wake: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            finish: AtomicBool::new(false),
            owner: OnceLock::new(),
        };
        ls.epoll.add(&ls.wake, EPOLLIN | EPOLLET, TOKEN_WAKE)?;
        Ok(Arc::new(ls))
    }
}

/// A pending `Infer` response routed back to the loop that owns the
/// connection.
struct Completion {
    slot: usize,
    generation: u64,
    reply: Frame,
    ctx: SpanCtx,
}

/// The wake eventfd's and loop 0's listener's registration tokens;
/// slab tokens are `slot + 1`.
const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTENER: u64 = u64::MAX;

fn token(slot: usize) -> u64 {
    slot as u64 + 1
}

/// Interest of a socket waiting to read: a client between requests, a
/// call awaiting its reply or idle in the pool.
const READ: u32 = EPOLLIN | EPOLLRDHUP;

/// How long a finishing loop keeps trying to flush pending replies
/// before abandoning the sockets.
const FINISH_GRACE: Duration = Duration::from_secs(5);

/// How long loop 0 stops listening after an `accept` error (rounded up
/// to its wheel's tick): `EMFILE` lasts until some fd is closed, and
/// retrying at once would spin the loop meanwhile.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Sockets accepted per readiness event, so a burst of dials cannot
/// hold off loop 0's other sockets.
const ACCEPT_BATCH: usize = 64;

/// The coarsest wheel tick, so also how late a call's deadline fires.
const MAX_TICK: Duration = Duration::from_millis(50);

/// Start the reactor on an already bound `listener`: spawn the loop
/// pool, loop 0 listening. The handle owns the reactor's counters.
pub fn start<S: Service>(
    listener: TcpListener,
    front: Arc<Frontend<S>>,
    config: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let loop_threads = config.loop_threads.max(1);
    let metrics = Arc::new(ReactorMetrics::new(loop_threads));
    let loops = (0..loop_threads)
        .map(|_| LoopShared::new())
        .collect::<io::Result<Vec<_>>>()?;
    listener.set_nonblocking(true)?;
    loops[0].epoll.add(&listener, EPOLLIN, TOKEN_LISTENER)?;
    let loop0 = Arc::clone(&loops[0]);
    let wake = move || drop(loop0.wake.wake());
    let _ = front.wake_listener.set(Box::new(wake));
    let mut acceptor = Some(Acceptor {
        listener,
        loops: loops.clone(),
        next: 0,
        max_connections: config.max_connections,
    });
    // Dropped on an early return, the handle stops the loops it has.
    let mut handle = ReactorHandle {
        loops,
        threads: Vec::new(),
        metrics: Arc::clone(&metrics),
    };
    for (i, ls) in handle.loops.iter().enumerate() {
        let (ls, front, metrics) = (Arc::clone(ls), Arc::clone(&front), Arc::clone(&metrics));
        let (idle, acceptor) = (config.idle_timeout, acceptor.take());
        // The slab holds continuations, which never leave their loop's
        // thread: it is built there.
        let thread = thread::Builder::new()
            .name(format!("spn-loop-{i}"))
            .spawn(move || {
                let mut core = Core::new(ls, metrics, idle);
                core.acceptor = acceptor;
                EventLoop { front, core }.run()
            })?;
        handle.threads.push(thread);
    }
    Ok(handle)
}

impl ReactorHandle {
    /// The reactor's counters (the telemetry `reactor` section).
    pub(crate) fn metrics(&self) -> &ReactorMetrics {
        &self.metrics
    }

    /// Tell every loop to flush and exit, then join them. Call only
    /// after the service has drained, so every outstanding reply is in
    /// (or past) a completion queue or waits on a call a loop drives.
    /// Idempotent.
    pub fn finish(&mut self) {
        for ls in &self.loops {
            ls.finish.store(true, Ordering::Release);
            let _ = ls.wake.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Loop 0's listener, and the loops it deals accepted sockets to.
struct Acceptor {
    listener: TcpListener,
    /// Every loop's shared face, loop 0's first.
    loops: Vec<Arc<LoopShared>>,
    next: usize,
    max_connections: usize,
}

/// The listener's wheel entry: it holds no slab slot.
const LISTENER: Cookie = (usize::MAX, 0);

/// Answer an over-limit connection with one typed `ServerBusy` frame —
/// it precedes the peer's first request, so it carries the opcode the
/// peer is about to send — written without blocking: a fresh socket's
/// buffer holds it, and a peer that never reads cannot hold the loop.
fn reject_busy(mut stream: TcpStream, max: usize) {
    let msg = format!("connection limit {max} reached; retry later");
    let busy = encode_frame(Opcode::Infer, Status::ServerBusy, msg.as_bytes());
    if stream.set_nonblocking(true).is_ok() {
        let _ = stream.write_all(&busy);
    }
}

/// Where an outbound call goes, and how long it may take.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// The endpoint to call.
    pub addr: SocketAddr,
    /// Pool generation: an idle connection to `addr` pooled under
    /// another generation is closed instead of reused.
    pub generation: u64,
    /// Bound on the dial.
    pub connect_timeout: Duration,
    /// Bound from the connected socket to the reply's last byte
    /// (`None` = no bound).
    pub rpc_timeout: Option<Duration>,
    /// Close a connection idle in the pool this long (`None` = never).
    pub pool_ttl: Option<Duration>,
}

/// A loop's handle for outbound calls, lent to `Service::infer`. A
/// call made through it runs on this loop, and so does its
/// continuation, which gets the handle again to make the next call.
pub struct Upstream<'a> {
    core: &'a mut Core,
}

impl Upstream<'_> {
    /// Send `payload` to `to` as an `Infer` request, then run `then` on
    /// this loop with the reply frame — or with the error that ended
    /// the call: a failed dial, a close, a malformed or non-`Infer`
    /// reply, a missed deadline (`TimedOut`). `then` never runs before
    /// `infer` returns.
    pub fn infer(
        &mut self,
        to: Target,
        payload: &[u8],
        then: impl FnOnce(io::Result<Frame>, &mut Upstream<'_>) + 'static,
    ) {
        let job = Job {
            out: encode_frame(Opcode::Infer, Status::Ok, payload),
            at: 0,
            reply: FrameDecoder::new(),
            connecting: false,
            pooled: false,
            then: Box::new(then),
        };
        self.core.start(to, job);
    }

    /// The counters of the reactor this loop belongs to.
    pub(crate) fn metrics(&self) -> &ReactorMetrics {
        &self.core.metrics
    }
}

/// A call's continuation.
type Then = Box<dyn FnOnce(io::Result<Frame>, &mut Upstream<'_>)>;

/// One slot of a loop's slab.
enum Entry {
    /// An accepted client connection.
    Client(Conn),
    /// An outbound connection: a call in progress, or idle in the pool.
    Call(Call),
}

/// A reply being flushed to the socket: the frame's header, and its
/// payload as the service encoded it — never copied behind the header.
struct OutBuf {
    head: [u8; HEADER_LEN],
    payload: Vec<u8>,
    /// Bytes of header and payload written so far.
    at: usize,
    /// Trace context + write-start instant for the `ReplyWritten`
    /// span, set for `Infer` replies only.
    span: Option<(SpanCtx, Instant)>,
}

impl OutBuf {
    fn new(frame: Frame, span: Option<SpanCtx>) -> OutBuf {
        OutBuf {
            head: encode_header(frame.opcode, frame.status, frame.payload.len()),
            payload: frame.payload,
            at: 0,
            span: span.map(|ctx| (ctx, Instant::now())),
        }
    }
}

/// One client connection's state machine.
struct Conn {
    stream: TcpStream,
    generation: u64,
    decoder: FrameDecoder,
    /// Reply currently flushing (`None` = nothing to write).
    out: Option<OutBuf>,
    /// An `Infer` is with the service and unanswered.
    inflight: bool,
    /// The epoll interest bits currently registered.
    interest: u32,
    last_activity: Instant,
    /// Close once `out` finishes flushing (malformed frame answered).
    close_after_flush: bool,
}

impl Conn {
    fn busy(&self) -> bool {
        self.inflight || self.out.is_some()
    }
}

/// One outbound connection.
struct Call {
    stream: TcpStream,
    to: Target,
    /// The epoll interest bits currently registered.
    interest: u32,
    /// When the current phase ends: the dial's or the reply's
    /// deadline, or, while pooled, the TTL (`None` = unbounded).
    due: Option<Instant>,
    /// The live wheel entry: its tag and the deadline it was armed for.
    timer: Option<(u64, Instant)>,
    /// The exchange in progress; `None` while idle in the pool.
    job: Option<Job>,
}

/// One request/reply exchange on a [`Call`].
struct Job {
    /// The request frame's bytes, and how many of them are written.
    out: Vec<u8>,
    at: usize,
    reply: FrameDecoder,
    /// The dial has not completed yet.
    connecting: bool,
    /// The connection came from the pool, so a close before the reply
    /// earns one fresh dial.
    pooled: bool,
    then: Then,
}

/// A wheel entry: a slab slot, and the tag that must still match — a
/// client connection's generation, or a call's live timer.
type Cookie = (usize, u64);

/// A hashed timer wheel over the loop's slab: slots hold cookies, ticks
/// advance a cursor, and expiry consults the entry's true deadline — so
/// an entry is re-inserted lazily instead of being moved on every
/// byte, and one that fires early costs a re-insert, nothing more.
struct TimerWheel {
    slots: Vec<Vec<Cookie>>,
    /// Bit `i` set iff `slots[i]` is non-empty: the loop sleeps until
    /// the next occupied slot, and forever on an empty wheel.
    occupied: u64,
    tick: Duration,
    cursor: usize,
    next_tick_at: Instant,
}

const WHEEL_SLOTS: usize = 64;

impl TimerWheel {
    fn new(tick: Duration) -> TimerWheel {
        TimerWheel {
            slots: vec![Vec::new(); WHEEL_SLOTS],
            occupied: 0,
            tick,
            cursor: 0,
            next_tick_at: Instant::now() + tick,
        }
    }

    /// Schedule `cookie` to be inspected roughly `after` from now.
    fn insert_after(&mut self, cookie: Cookie, after: Duration) {
        if self.occupied == 0 {
            // The cursor may have stood still a while: restart the
            // ticks from now.
            self.next_tick_at = Instant::now() + self.tick;
        }
        let ticks = (after.as_nanos() / self.tick.as_nanos().max(1)) as usize + 1;
        let slot = (self.cursor + ticks.min(WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push(cookie);
        self.occupied |= 1 << slot;
    }

    /// How long the loop may sleep before an occupied slot comes due
    /// (`None` = no timer pending).
    fn next_due(&self, now: Instant) -> Option<Duration> {
        if self.occupied == 0 {
            return None;
        }
        let ahead = self.occupied.rotate_right(self.cursor as u32 + 1);
        let at = self.next_tick_at + self.tick * ahead.trailing_zeros();
        Some(at.saturating_duration_since(now))
    }

    /// Advance past-due ticks and take every cookie whose slot came up.
    fn take_due(&mut self, now: Instant) -> Vec<Cookie> {
        let mut due = Vec::new();
        while self.occupied != 0 && now >= self.next_tick_at {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.next_tick_at += self.tick;
            due.append(&mut self.slots[self.cursor]);
            self.occupied &= !(1 << self.cursor);
        }
        due
    }
}

/// A loop's state apart from the front-end: the slab, the timer wheel,
/// the upstream pool and, on loop 0, the listener. What [`Upstream`]
/// lends a service.
struct Core {
    ls: Arc<LoopShared>,
    metrics: Arc<ReactorMetrics>,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    wheel: TimerWheel,
    idle_timeout: Option<Duration>,
    /// Idle upstream connections per address, most recently used last.
    pool: HashMap<SocketAddr, Vec<usize>>,
    /// Calls that ended this turn, their continuations still to run.
    settled: Vec<(Then, io::Result<Frame>)>,
    /// Source of connection generations and timer tags.
    tags: u64,
    /// On loop 0 until shutdown: the listener.
    acceptor: Option<Acceptor>,
}

impl Core {
    fn new(ls: Arc<LoopShared>, metrics: Arc<ReactorMetrics>, idle: Option<Duration>) -> Core {
        // Resolution: idle/16, clamped to [5 ms, 50 ms] — an idle
        // connection is reaped within ~6 % of its timeout, a call's
        // deadline within 50 ms.
        let tick = idle.map_or(MAX_TICK, |t| t / 16);
        Core {
            ls,
            metrics,
            entries: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(tick.clamp(Duration::from_millis(5), MAX_TICK)),
            idle_timeout: idle,
            pool: HashMap::new(),
            settled: Vec::new(),
            tags: 0,
            acceptor: None,
        }
    }

    fn upstream(&mut self) -> Upstream<'_> {
        Upstream { core: self }
    }

    fn next_tag(&mut self) -> u64 {
        self.tags += 1;
        self.tags
    }

    fn alloc(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.entries.len() - 1
        })
    }

    fn call_mut(&mut self, slot: usize) -> Option<&mut Call> {
        match self.entries.get_mut(slot) {
            Some(Some(Entry::Call(call))) => Some(call),
            _ => None,
        }
    }

    /// Put a freshly accepted socket under epoll management.
    fn register_conn(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let slot = self.alloc();
        if let Err(e) = self.ls.epoll.add(&stream, READ, token(slot)) {
            self.free.push(slot);
            return Err(e);
        }
        let generation = self.next_tag();
        self.entries[slot] = Some(Entry::Client(Conn {
            stream,
            generation,
            decoder: FrameDecoder::new(),
            out: None,
            inflight: false,
            interest: READ,
            last_activity: Instant::now(),
            close_after_flush: false,
        }));
        if let Some(idle) = self.idle_timeout {
            self.wheel.insert_after((slot, generation), idle);
        }
        Ok(())
    }

    /// Tear an entry down: deregister it, free its slot, count a client
    /// connection closed, take an idle call out of the pool. Returns
    /// what was there; dropping it closes the socket.
    fn remove(&mut self, slot: usize) -> Option<Entry> {
        let entry = self.entries.get_mut(slot)?.take()?;
        self.free.push(slot);
        match &entry {
            Entry::Client(conn) => {
                let _ = self.ls.epoll.delete(&conn.stream);
                // An in-flight request's completion will arrive with a
                // stale generation and be dropped.
                self.metrics.conn_closed();
            }
            Entry::Call(call) => {
                let _ = self.ls.epoll.delete(&call.stream);
                if let (None, Some(idle)) = (&call.job, self.pool.get_mut(&call.to.addr)) {
                    idle.retain(|&s| s != slot);
                }
            }
        }
        Some(entry)
    }

    fn close(&mut self, slot: usize) {
        self.remove(slot);
    }

    /// Change an entry's epoll interest iff it differs (on the
    /// closed-loop and pooled paths it never does: no syscall). An
    /// entry the kernel refuses to re-register is torn down —
    /// remembered as armed but silent, it would never be read, reaped
    /// or freed.
    fn set_interest(&mut self, slot: usize, want: u32) {
        let (stream, interest) = match self.entries.get_mut(slot) {
            Some(Some(Entry::Client(c))) => (&c.stream, &mut c.interest),
            Some(Some(Entry::Call(c))) => (&c.stream, &mut c.interest),
            _ => return,
        };
        if *interest == want {
            return;
        }
        self.metrics.interest_changed();
        match self.ls.epoll.modify(stream, want, token(slot)) {
            Ok(()) => *interest = want,
            Err(e) if self.call_mut(slot).is_some_and(|c| c.job.is_some()) => self.fail(slot, e),
            Err(_) => self.close(slot),
        }
    }

    /// Stash a reply on a client connection for flushing. `span` marks
    /// `Infer` replies, whose write is stamped with a `ReplyWritten`
    /// span.
    fn queue_reply(&mut self, slot: usize, frame: Frame, span: Option<SpanCtx>) {
        if let Some(Some(Entry::Client(conn))) = self.entries.get_mut(slot) {
            debug_assert!(conn.out.is_none(), "one reply at a time per connection");
            conn.out = Some(OutBuf::new(frame, span));
        }
    }

    /// Run `job` against `to`: on the most recently pooled connection
    /// still good for it, else on a fresh dial.
    fn start(&mut self, to: Target, mut job: Job) {
        let now = Instant::now();
        while let Some(slot) = self.pool.get_mut(&to.addr).and_then(Vec::pop) {
            let Some(call) = self.call_mut(slot) else {
                continue;
            };
            let drained = call.to.generation != to.generation;
            if !drained && call.due.is_none_or(|due| due > now) {
                job.pooled = true;
                (call.to, call.due) = (to, to.rpc_timeout.map(|t| now + t));
                call.job = Some(job);
                self.arm(slot);
                return self.pump(slot);
            }
            if !drained {
                self.metrics.idle_expired();
            }
            self.close(slot);
        }
        self.dial(to, job);
    }

    /// Dial `to` without blocking and park `job` on the socket until
    /// `EPOLLOUT` says how the dial went.
    fn dial(&mut self, to: Target, mut job: Job) {
        let stream = match epoll::connect_nonblocking(&to.addr) {
            Ok(stream) => stream,
            Err(e) => return self.settled.push((job.then, Err(e))),
        };
        let slot = self.alloc();
        if let Err(e) = self.ls.epoll.add(&stream, EPOLLOUT, token(slot)) {
            self.free.push(slot);
            return self.settled.push((job.then, Err(e)));
        }
        job.connecting = true;
        self.entries[slot] = Some(Entry::Call(Call {
            stream,
            to,
            interest: EPOLLOUT,
            due: Some(Instant::now() + to.connect_timeout),
            timer: None,
            job: Some(job),
        }));
        self.arm(slot);
    }

    /// Make sure a wheel entry fires no later than the call's `due`. An
    /// entry already armed for an earlier instant is kept: it re-arms
    /// itself when it fires.
    fn arm(&mut self, slot: usize) {
        let tag = self.tags + 1;
        let Some(call) = self.call_mut(slot) else {
            return;
        };
        let Some(due) = call
            .due
            .filter(|&due| call.timer.is_none_or(|(_, at)| at > due))
        else {
            return;
        };
        call.timer = Some((tag, due));
        self.tags = tag;
        let after = due.saturating_duration_since(Instant::now());
        self.wheel.insert_after((slot, tag), after);
    }

    /// Readiness on an outbound connection.
    fn call_ready(&mut self, slot: usize, readiness: u32) {
        let Some(call) = self.call_mut(slot) else {
            return;
        };
        let Some(job) = call.job.as_mut() else {
            // Idle in the pool: the backend closed it, or spoke out of
            // turn.
            return self.close(slot);
        };
        if job.connecting {
            match call.stream.take_error() {
                Ok(None) if readiness & (EPOLLERR | EPOLLHUP) == 0 => {
                    job.connecting = false;
                    let _ = call.stream.set_nodelay(true);
                    call.due = call.to.rpc_timeout.map(|t| Instant::now() + t);
                    self.arm(slot);
                }
                Ok(err) => {
                    let err = err.unwrap_or_else(|| io::ErrorKind::ConnectionRefused.into());
                    return self.fail(slot, err);
                }
                Err(err) => return self.fail(slot, err),
            }
        }
        self.pump(slot);
    }

    /// Move a connected call's bytes: write what is left of the
    /// request, or else read toward the reply, until the socket would
    /// block or the call ends.
    fn pump(&mut self, slot: usize) {
        let Some(Call {
            stream,
            job: Some(job),
            ..
        }) = self.call_mut(slot)
        else {
            return;
        };
        if job.at < job.out.len() {
            // The reply cannot be in before the request is out: wait
            // for it rather than try a read that would block.
            return match write_some(stream, &[], &job.out, &mut job.at) {
                Ok(done) => self.set_interest(slot, if done { READ } else { EPOLLOUT }),
                Err(e) => self.fail(slot, e),
            };
        }
        match read_some(stream, &mut job.reply) {
            Ok(Some(frame)) => self.reply(slot, frame),
            Ok(None) => self.set_interest(slot, READ),
            Err(WireError::Malformed(m)) => {
                self.fail(slot, io::Error::new(io::ErrorKind::InvalidData, m))
            }
            Err(WireError::Io(e)) => self.fail(slot, e),
        }
    }

    /// The reply is in: pool the connection — unless the backend said
    /// it is going away — and queue the continuation.
    fn reply(&mut self, slot: usize, frame: Frame) {
        if frame.opcode != Opcode::Infer {
            let m = format!("backend answered {:?} to an Infer request", frame.opcode);
            return self.fail(slot, io::Error::new(io::ErrorKind::InvalidData, m));
        }
        let Some(call) = self.call_mut(slot) else {
            return;
        };
        let Some(job) = call.job.take() else {
            return;
        };
        let addr = call.to.addr;
        call.due = call.to.pool_ttl.map(|ttl| Instant::now() + ttl);
        if frame.status == Status::ShuttingDown {
            self.close(slot);
        } else {
            self.arm(slot);
            self.pool.entry(addr).or_default().push(slot);
        }
        self.settled.push((job.then, Ok(frame)));
    }

    /// End the call in `slot` with `err`, closing its socket — after an
    /// error it may no longer be frame-aligned. A pooled connection
    /// found closed earns one fresh dial first: idle sockets die
    /// routinely (backend restarts, idle reaping), which says nothing
    /// about the backend.
    fn fail(&mut self, slot: usize, err: io::Error) {
        let Some(Entry::Call(Call {
            to,
            job: Some(mut job),
            ..
        })) = self.remove(slot)
        else {
            return;
        };
        if job.pooled && is_disconnect(&err) {
            (job.pooled, job.at, job.reply) = (false, 0, FrameDecoder::new());
            return self.dial(to, job);
        }
        self.settled.push((job.then, Err(err)));
    }

    /// The listener is readable (level-triggered, so what a batch
    /// leaves reports again): accept, refuse or deal each socket.
    fn accept(&mut self) {
        let Some(acc) = self.acceptor.as_mut() else {
            return;
        };
        let metrics = &self.metrics;
        for _ in 0..ACCEPT_BATCH {
            metrics.accept_attempted();
            let stream = match acc.listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // EMFILE, ECONNABORTED, …: stop listening until the
                // wheel's back-off has passed.
                Err(_) => {
                    let _ = self.ls.epoll.delete(&acc.listener);
                    return self.wheel.insert_after(LISTENER, ACCEPT_BACKOFF);
                }
            };
            if metrics.open_connections() >= acc.max_connections as u64 {
                metrics.conn_rejected_at_accept();
                reject_busy(stream, acc.max_connections);
                continue;
            }
            metrics.conn_accepted();
            let target = &acc.loops[acc.next % acc.loops.len()];
            acc.next = acc.next.wrapping_add(1);
            target.inbox.lock().push(stream);
            // This loop empties its own inbox later in this turn.
            if !Arc::ptr_eq(target, &self.ls) {
                let _ = target.wake.wake();
            }
        }
    }

    /// The accept back-off has passed: listen again, or back off again.
    fn listen(&mut self) {
        let Some(acc) = &self.acceptor else { return };
        let armed = self.ls.epoll.add(&acc.listener, EPOLLIN, TOKEN_LISTENER);
        if armed.is_err() {
            self.wheel.insert_after(LISTENER, ACCEPT_BACKOFF);
        }
    }

    /// A wheel entry came up: reap an idle client connection, time out
    /// a call, retire a pooled connection past its TTL — or, when the
    /// deadline has not come yet, say how long until it does.
    fn expire(&mut self, (slot, tag): Cookie, now: Instant) -> Option<Duration> {
        let tick = self.wheel.tick;
        match self.entries.get_mut(slot)?.as_mut()? {
            Entry::Client(conn) if conn.generation == tag => {
                let idle = self.idle_timeout?;
                let idle_for = now.saturating_duration_since(conn.last_activity);
                if idle_for < idle || conn.busy() {
                    // Still active (or mid-request): come back when its
                    // current idle budget would run out.
                    return Some(idle.saturating_sub(idle_for).max(tick));
                }
                self.metrics.conn_idle_closed();
                self.close(slot);
            }
            Entry::Call(call) if call.timer.is_some_and(|(t, _)| t == tag) => {
                call.timer = None;
                let due = call.due?;
                if due > now {
                    call.timer = Some((tag, due));
                    return Some(due - now);
                }
                if call.job.is_some() {
                    self.fail(slot, io::ErrorKind::TimedOut.into());
                } else {
                    self.metrics.idle_expired();
                    self.close(slot);
                }
            }
            _ => {}
        }
        None
    }
}

/// One loop thread's state: the front-end it serves, and its core.
struct EventLoop<S> {
    front: Arc<Frontend<S>>,
    core: Core,
}

impl<S: Service> EventLoop<S> {
    fn run(&mut self) {
        let ls = Arc::clone(&self.core.ls);
        let _ = ls.owner.set(thread::current().id());
        let mut events = vec![Event::zeroed(); 256];
        let mut finish_deadline: Option<Instant> = None;

        loop {
            let timeout = if ls.finish.load(Ordering::Acquire) {
                Some(Duration::from_millis(5))
            } else {
                self.core.wheel.next_due(Instant::now())
            };
            let n = ls.epoll.wait(&mut events, timeout).unwrap_or_default();
            self.core.metrics.loop_turn(n as u64);

            for event in events.iter().take(n) {
                match event.token() {
                    // A wake (edge-triggered, never read) only ends the
                    // wait: inbox and completions are emptied every turn.
                    TOKEN_WAKE => {}
                    TOKEN_LISTENER => self.core.accept(),
                    token => self.handle_readiness((token - 1) as usize, event.readiness()),
                }
            }
            if self.core.acceptor.is_some() && self.front.is_shutting_down() {
                self.core.acceptor = None; // Closed, so deregistered.
            }

            // Register freshly accepted sockets.
            let inbox = std::mem::take(&mut *ls.inbox.lock());
            for stream in inbox {
                self.core.metrics.conn_registered();
                if self.core.register_conn(stream).is_err() {
                    self.core.metrics.conn_closed();
                }
            }

            // Deadlines: idle connections, calls, pooled TTLs.
            let now = Instant::now();
            for cookie in self.core.wheel.take_due(now) {
                if cookie == LISTENER {
                    self.core.listen();
                } else if let Some(after) = self.core.expire(cookie, now) {
                    self.core.wheel.insert_after(cookie, after);
                }
            }

            // Continuations of the calls that ended this turn: each
            // answers its client or makes the next call.
            while let Some((then, outcome)) = self.core.settled.pop() {
                then(outcome, &mut self.core.upstream());
            }

            // Deliver replies that arrived since the last turn.
            let completions = std::mem::take(&mut *ls.completions.lock());
            for c in completions {
                match self.core.entries.get_mut(c.slot) {
                    Some(Some(Entry::Client(conn))) if conn.generation == c.generation => {
                        conn.inflight = false
                    }
                    _ => continue, // The connection died mid-request.
                }
                self.core.queue_reply(c.slot, c.reply, Some(c.ctx));
                self.flush_out(c.slot);
            }

            // Read afresh: the wake ending this wait may be `finish`'s.
            if ls.finish.load(Ordering::Acquire) {
                let deadline =
                    *finish_deadline.get_or_insert_with(|| Instant::now() + FINISH_GRACE);
                let flushing = Instant::now() < deadline;
                let busy = self.core.entries.iter().flatten().any(|e| match e {
                    Entry::Client(conn) => flushing && conn.out.is_some(),
                    Entry::Call(call) => call.job.is_some(),
                });
                if !busy && ls.completions.lock().is_empty() {
                    break;
                }
            }
        }

        // Drop every remaining connection (peers see a close).
        for slot in 0..self.core.entries.len() {
            self.core.close(slot);
        }
    }

    /// React to readiness on a slab entry's socket.
    fn handle_readiness(&mut self, slot: usize, readiness: u32) {
        let conn = match self.core.entries.get(slot) {
            Some(Some(Entry::Client(conn))) => conn,
            Some(Some(Entry::Call(_))) => return self.core.call_ready(slot, readiness),
            _ => return, // Stale event for a closed slot.
        };
        if readiness & EPOLLERR != 0 {
            self.core.close(slot);
        } else if conn.out.is_some() && readiness & (EPOLLOUT | EPOLLHUP) != 0 {
            self.flush_out(slot);
        } else if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            if conn.busy() {
                // A peer that pipelines or half-closes behind its
                // request: ignored, but level-triggered, so it would
                // spin the loop. Silence the socket — the interest must
                // be *empty* (EPOLLERR/HUP arrive regardless) — until
                // `flush_out` re-arms it.
                self.core.set_interest(slot, 0);
            } else {
                self.read_ready(slot);
            }
        }
    }

    /// Pull bytes into the connection's decoder until it would block,
    /// a frame completes, or the peer goes away.
    fn read_ready(&mut self, slot: usize) {
        let Some(Some(Entry::Client(conn))) = self.core.entries.get_mut(slot) else {
            return;
        };
        conn.last_activity = Instant::now();
        match read_some(&mut conn.stream, &mut conn.decoder) {
            Ok(Some(frame)) => self.dispatch_frame(slot, frame),
            Ok(None) => {} // Mid-frame.
            Err(WireError::Malformed(m)) => {
                // Answer once, then close.
                conn.out = Some(OutBuf::new(self.front.malformed(&m), None));
                conn.close_after_flush = true;
                self.flush_out(slot);
            }
            // EOF (no request is in flight: reads pause while busy) or
            // a failed read: the connection is done.
            Err(WireError::Io(_)) => self.core.close(slot),
        }
    }

    /// Hand one complete request frame to the front-end and act on its
    /// verdict.
    fn dispatch_frame(&mut self, slot: usize, frame: Frame) {
        let Some(Some(Entry::Client(conn))) = self.core.entries.get(slot) else {
            return;
        };
        let generation = conn.generation;
        let sink = Arc::clone(&self.core.ls);
        let done = move |(reply, ctx): InferReply| {
            let completion = Completion {
                slot,
                generation,
                reply,
                ctx,
            };
            sink.completions.lock().push(completion);
            // The loop's own thread drains the queue later this turn.
            if sink.owner.get() != Some(&thread::current().id()) {
                let _ = sink.wake.wake();
            }
        };
        match self.front.dispatch(frame, &mut self.core.upstream(), done) {
            Dispatched::Reply(reply, span) => {
                self.core.queue_reply(slot, reply, span);
                self.flush_out(slot);
            }
            Dispatched::Pending => {
                // Read interest stays armed; `handle_readiness` drops it
                // if the peer sends anything before it has its reply.
                if let Some(Some(Entry::Client(conn))) = self.core.entries.get_mut(slot) {
                    conn.inflight = true;
                }
            }
        }
    }

    /// Write as much pending output as the socket accepts; arm
    /// `EPOLLOUT` on `WouldBlock`, restore read interest when the reply
    /// is out.
    fn flush_out(&mut self, slot: usize) {
        let Some(Some(Entry::Client(conn))) = self.core.entries.get_mut(slot) else {
            return;
        };
        let Some(out) = conn.out.as_mut() else {
            return;
        };
        match write_some(&mut conn.stream, &out.head, &out.payload, &mut out.at) {
            Ok(true) => {}
            Ok(false) => return self.core.set_interest(slot, EPOLLOUT),
            Err(_) => return self.core.close(slot),
        }
        conn.last_activity = Instant::now();
        if let Some((ctx, started)) = out.span {
            self.front.reply_written(ctx, out.payload.len(), started);
        }
        conn.out = None;
        if conn.close_after_flush {
            self.core.close(slot);
        } else {
            self.core.set_interest(slot, READ);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame};
    use crate::{Client, ModelSpec, ServerConfig, SpnServer};
    use spn_core::NipsBenchmark;
    use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
    use std::sync::atomic::AtomicUsize;

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
        assert_eq!(server.reactor_metrics().interest_changes(), 0);
    }

    /// `set_interest` is the only place an entry's interest changes,
    /// and it must not record a change the kernel refused: a connection
    /// deregistered behind the loop's back (`MOD` → `ENOENT`) is
    /// closed, not remembered as armed and left silent.
    #[test]
    fn a_refused_interest_change_closes_the_connection() {
        let metrics = Arc::new(ReactorMetrics::new(1));
        let ls = LoopShared::new().unwrap();
        let mut core = Core::new(Arc::clone(&ls), Arc::clone(&metrics), None);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        metrics.conn_accepted();
        core.register_conn(stream).unwrap();
        assert_eq!(metrics.open_connections(), 1);

        let Some(Some(Entry::Client(registered))) = core.entries.first() else {
            panic!("registered in slot 0");
        };
        ls.epoll.delete(&registered.stream).unwrap();
        core.set_interest(0, 0);

        assert!(core.entries[0].is_none(), "left half-armed");
        assert_eq!(core.free, [0]);
        assert_eq!(metrics.open_connections(), 0, "counted in conn_closed");
    }

    /// The loop sleeps until the next occupied slot, and forever when
    /// no timer is pending.
    #[test]
    fn the_wheel_wakes_only_for_occupied_slots() {
        let tick = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(tick);
        assert_eq!(wheel.next_due(Instant::now()), None);
        wheel.insert_after((7, 1), Duration::from_millis(35));
        let now = Instant::now();
        let due = wheel.next_due(now).expect("a timer is pending");
        assert!(
            due > Duration::from_millis(25) && due <= Duration::from_millis(40),
            "{due:?}"
        );
        assert!(wheel.take_due(now).is_empty());
        assert_eq!(wheel.take_due(now + Duration::from_millis(45)), [(7, 1)]);
        assert_eq!(wheel.next_due(Instant::now()), None);
    }

    /// A service that forwards every `Infer` payload to `to` and answers
    /// with the upstream reply — or, when the call fails, an `Internal`
    /// error naming the io error kind.
    struct Forward {
        to: Target,
    }

    impl Service for Forward {
        fn stats_json(&self, _reactor: &ReactorMetrics) -> String {
            String::new()
        }

        fn rejected(&self, _status: Status) {}

        fn infer<F>(&self, payload: Vec<u8>, up: &mut Upstream<'_>, done: F) -> Option<InferReply>
        where
            F: FnOnce(InferReply) + Send + 'static,
        {
            up.infer(self.to, &payload, move |reply, _| {
                let frame = reply.unwrap_or_else(|e| {
                    Frame::error(Opcode::Infer, Status::Internal, &format!("{:?}", e.kind()))
                });
                done((frame, SpanCtx::NONE));
            });
            None
        }
    }

    fn target(addr: SocketAddr, pool_ttl: Option<Duration>) -> Target {
        Target {
            addr,
            generation: 0,
            connect_timeout: Duration::from_millis(500),
            rpc_timeout: Some(Duration::from_secs(5)),
            pool_ttl,
        }
    }

    /// A one-loop reactor forwarding to `to`, and a client of it.
    struct Forwarder {
        front: Arc<Frontend<Forward>>,
        handle: ReactorHandle,
        client: TcpStream,
        /// The listener's descriptor, owned by loop 0.
        listener: i32,
    }

    impl Forwarder {
        fn start(to: Target) -> Forwarder {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let fd = std::os::fd::AsRawFd::as_raw_fd(&listener);
            let front = Arc::new(Frontend::new(Forward { to }, addr, None));
            let config = ReactorConfig {
                loop_threads: 1,
                max_connections: 64,
                idle_timeout: None,
            };
            let handle = start(listener, Arc::clone(&front), config).unwrap();
            let client = TcpStream::connect(addr).unwrap();
            Forwarder {
                front,
                handle,
                client,
                listener: fd,
            }
        }

        fn infer(&mut self, payload: &[u8]) -> Frame {
            let request = Frame::request(Opcode::Infer, payload.to_vec());
            write_frame(&mut self.client, &request).unwrap();
            read_frame(&mut self.client).unwrap()
        }

        fn idle_expired_total(&self) -> u64 {
            self.handle.metrics().idle_expired_total()
        }
    }

    impl Drop for Forwarder {
        fn drop(&mut self) {
            self.front.request_shutdown();
            self.handle.finish();
        }
    }

    /// An SPN1 backend that echoes each request's payload in an `Ok`
    /// reply, counting the connections it accepted and saw closed.
    struct Echo {
        addr: SocketAddr,
        accepted: Arc<AtomicUsize>,
        closed: Arc<AtomicUsize>,
    }

    fn echo_backend() -> Echo {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (accepted, closed) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (a, c) = (Arc::clone(&accepted), Arc::clone(&closed));
        thread::spawn(move || {
            for mut stream in listener.incoming().map_while(Result::ok) {
                a.fetch_add(1, Ordering::SeqCst);
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    while let Ok(req) = read_frame(&mut stream) {
                        let reply = Frame::response(req.opcode, Status::Ok, req.payload);
                        if write_frame(&mut stream, &reply).is_err() {
                            break;
                        }
                    }
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        Echo {
            addr,
            accepted,
            closed,
        }
    }

    fn eventually(what: &str, mut holds: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !holds() {
            assert!(Instant::now() < deadline, "never: {what}");
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Back-to-back calls to one backend reuse the pooled connection.
    #[test]
    fn fresh_idle_connection_is_reused_within_ttl() {
        let backend = echo_backend();
        let mut fwd = Forwarder::start(target(backend.addr, Some(Duration::from_secs(10))));
        for i in 0..3u8 {
            let reply = fwd.infer(&[i; 5]);
            assert_eq!(
                reply,
                Frame::response(Opcode::Infer, Status::Ok, vec![i; 5])
            );
        }
        assert_eq!(
            backend.accepted.load(Ordering::SeqCst),
            1,
            "socket well within TTL must be reused"
        );
        assert_eq!(fwd.idle_expired_total(), 0);
    }

    /// A pooled connection past its TTL is closed and counted, never
    /// reused.
    #[test]
    fn ttl_expired_idle_connection_is_dropped_on_checkout() {
        let backend = echo_backend();
        let mut fwd = Forwarder::start(target(backend.addr, Some(Duration::from_millis(10))));
        assert_eq!(fwd.infer(b"a").status, Status::Ok);
        thread::sleep(Duration::from_millis(30));
        assert_eq!(fwd.infer(b"b").status, Status::Ok);
        assert_eq!(
            backend.accepted.load(Ordering::SeqCst),
            2,
            "expired pooled socket must not be reused"
        );
        assert_eq!(fwd.idle_expired_total(), 1);
    }

    /// The wheel retires a pooled connection past its TTL with no
    /// checkout to notice it; without a TTL nothing ever expires.
    #[test]
    fn expire_idle_sweeps_without_a_checkout() {
        let backend = echo_backend();
        let mut fwd = Forwarder::start(target(backend.addr, Some(Duration::from_millis(10))));
        assert_eq!(fwd.infer(b"a").status, Status::Ok);
        eventually("the idle connection expires", || {
            fwd.idle_expired_total() == 1
        });
        eventually("the backend sees it closed", || {
            backend.closed.load(Ordering::SeqCst) == 1
        });

        let backend = echo_backend();
        let mut fwd = Forwarder::start(target(backend.addr, None));
        assert_eq!(fwd.infer(b"a").status, Status::Ok);
        thread::sleep(Duration::from_millis(150));
        assert_eq!(fwd.idle_expired_total(), 0);
        assert_eq!(backend.closed.load(Ordering::SeqCst), 0);
    }

    /// A dial to a port nobody listens on fails at once, typed, and the
    /// continuation hears about it.
    #[test]
    fn dial_failure_is_fast_and_typed() {
        let dark = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut fwd = Forwarder::start(target(dark, None));
        let t = Instant::now();
        let reply = fwd.infer(b"a");
        assert!(
            t.elapsed() < Duration::from_millis(400),
            "{:?}",
            t.elapsed()
        );
        assert_eq!(reply.status, Status::Internal);
        assert_eq!(reply.payload, b"ConnectionRefused");
    }

    /// A backend that accepts and never answers times the call out
    /// after `rpc_timeout`, and the connection is not pooled.
    #[test]
    fn a_silent_backend_times_out() {
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let rpc_timeout = Duration::from_millis(100);
        let mut fwd = Forwarder::start(Target {
            rpc_timeout: Some(rpc_timeout),
            ..target(silent.local_addr().unwrap(), None)
        });
        let t = Instant::now();
        let reply = fwd.infer(b"a");
        assert!(t.elapsed() >= rpc_timeout, "{:?}", t.elapsed());
        assert_eq!(reply.status, Status::Internal);
        assert_eq!(reply.payload, b"TimedOut");
    }

    extern "C" {
        fn shutdown(fd: i32, how: i32) -> i32;
    }

    /// An `accept` that keeps failing stops loop 0 listening until the
    /// wheel's back-off has passed, and the loop serves its connections
    /// meanwhile. A listener shut down for reading (`SHUT_RD`) is
    /// closed but still registered: epoll reports it hung up on every
    /// wait, and every `accept` on it fails (`EINVAL`). Were it not
    /// disarmed, the loop would spin on it; were it not re-armed,
    /// `accept` would be tried once.
    #[test]
    fn accept_errors_back_off_through_the_wheel() {
        let mut fwd = Forwarder::start(target(echo_backend().addr, None));
        assert_eq!(fwd.infer(b"a").status, Status::Ok);
        let attempts = |fwd: &Forwarder| fwd.handle.metrics().accept_attempts();
        let (before, t) = (attempts(&fwd), Instant::now());
        // SAFETY: the descriptor is the listener's, open until `fwd`
        // drops.
        assert_eq!(unsafe { shutdown(fwd.listener, 0) }, 0);
        eventually("accept is retried", || attempts(&fwd) >= before + 3);
        assert_eq!(fwd.infer(b"b").status, Status::Ok);
        let tried = u128::from(attempts(&fwd) - before);
        let backoffs = t.elapsed().as_millis() / ACCEPT_BACKOFF.as_millis();
        assert!(
            tried <= backoffs + 2,
            "{tried} accepts in {:?}",
            t.elapsed()
        );
    }
}
