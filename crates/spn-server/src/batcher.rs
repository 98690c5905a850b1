//! The adaptive micro-batcher: the heart of the serving subsystem.
//!
//! Network clients send small `Infer` requests (often a handful of
//! samples); the scheduler amortises its per-job cost — block
//! splitting, device buffer allocation, control-thread wake-ups — over
//! *large* jobs. The batcher bridges the two regimes: each model owns
//! a queue into which connection threads deposit requests, and a
//! worker thread that coalesces whatever is queued into **one**
//! scheduler job when either
//!
//! * the queue holds at least `max_batch_samples` samples, or
//! * `max_batch_delay` has elapsed since the worker first saw the
//!   oldest waiting request (the latency bound);
//!
//! whichever comes first. The delay window is *adaptive*: the worker
//! waits in short linger slices and flushes as soon as the queue stops
//! growing, so a finished burst is not taxed with the full window —
//! the delay bound is only the worst case under a steady trickle.
//! Under load the batch fills instantly and throughput approaches the
//! raw scheduler rate; when idle a lone request pays at most the
//! delay bound. Results come back as one
//! `Vec<f64>` of probabilities, are mapped through `ln()` and demuxed
//! back to each request's reply channel in submission order — so a
//! batched answer is bit-identical to what the request would have
//! produced alone (the device computes per sample; batching only
//! changes job framing, never arithmetic).
//!
//! Batches are *pipelined*, not serialized: the worker submits each
//! flushed batch to the scheduler and immediately goes back to
//! coalescing the next one, while a separate demux thread waits on
//! the in-flight job handles (FIFO) and fans results back out. This
//! keeps every scheduler worker busy — without it, batching would
//! trade the scheduler's job-level parallelism away for coalescing
//! and could *lose* to per-request serving.

use crate::metrics::ServerMetrics;
use crate::protocol::Status;
use parking_lot::{Condvar, Mutex};
use spn_core::Dataset;
use spn_runtime::{JobHandle, JobOptions, RuntimeError, Scheduler};
use spn_telemetry::{SpanCtx, SpanKind};
use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// What a request eventually hears back from the batcher.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Per-sample log-likelihoods, in the request's row order.
    Ok(Vec<f64>),
    /// The request failed with a wire status and diagnostic.
    Err(Status, String),
}

/// Where a request's answer goes. The batcher calls this exactly once
/// per enqueued request, from the demux (or failure) path. The server
/// passes a closure that finishes the request's accounting and hands
/// the encoded response to the front-end's completion callback — which
/// wakes a blocked connection thread or queues writable interest on a
/// reactor loop, so demux threads never block on, or write to, a
/// client socket.
pub type ReplySink = Box<dyn FnOnce(Reply) + Send + 'static>;

/// A request parked in the batch queue.
struct Pending {
    /// Row-major feature block.
    data: Vec<u8>,
    /// Samples in `data`.
    num_samples: u32,
    /// Trace context minted when the request was decoded.
    ctx: SpanCtx,
    /// When the serving front-end enqueued it.
    enqueued: Instant,
    /// Absolute deadline, if the client set one.
    deadline: Option<Instant>,
    /// Where the answer goes (see [`ReplySink`]).
    reply: ReplySink,
}

/// Tuning knobs for one model's batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush as soon as this many samples are queued.
    pub max_batch_samples: u64,
    /// … or when the oldest queued request has waited this long.
    pub max_batch_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch_samples: 4096,
            max_batch_delay: Duration::from_millis(2),
        }
    }
}

/// The batch queue plus the drain flag, under **one** mutex.
///
/// Keeping `stopped` inside the queue lock (rather than a separate
/// atomic) closes the enqueue-after-drain race: the worker only exits
/// while holding the lock with `stopped && items.is_empty()`, and
/// [`Batcher::enqueue`] checks `stopped` under the same lock — so a
/// request can never slip into a queue no worker will ever flush.
/// Any such late request is answered immediately with
/// [`Status::ShuttingDown`] instead of parking forever.
struct BatchQueue {
    items: VecDeque<Pending>,
    stopped: bool,
}

struct Shared {
    queue: Mutex<BatchQueue>,
    cv: Condvar,
    scheduler: Arc<Scheduler>,
    num_features: usize,
    domain: usize,
    policy: BatchPolicy,
    opts: JobOptions,
    metrics: Arc<ServerMetrics>,
}

/// Per-model micro-batcher: a queue plus one worker thread.
///
/// Dropping the batcher drains the queue — every already-enqueued
/// request still receives a reply — and joins the worker.
pub struct Batcher {
    shared: Arc<Shared>,
    /// Behind mutexes so [`Batcher::drain`] works through `&self`
    /// (the server holds batchers in shared state).
    worker: Mutex<Option<thread::JoinHandle<()>>>,
    demux: Mutex<Option<thread::JoinHandle<()>>>,
}

/// A batch whose scheduler job is in flight, queued for the demux
/// thread.
struct InflightBatch {
    handle: JobHandle,
    live: Vec<Pending>,
    total: usize,
}

impl Batcher {
    /// Spawn the worker for `scheduler` serving a model with
    /// `num_features` features of domain `domain`.
    pub fn new(
        model: &str,
        scheduler: Arc<Scheduler>,
        num_features: usize,
        domain: usize,
        policy: BatchPolicy,
        opts: JobOptions,
        metrics: Arc<ServerMetrics>,
    ) -> Batcher {
        assert!(num_features > 0, "model must have at least one feature");
        assert!(
            policy.max_batch_samples > 0,
            "max_batch_samples must be > 0"
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(BatchQueue {
                items: VecDeque::new(),
                stopped: false,
            }),
            cv: Condvar::new(),
            scheduler,
            num_features,
            domain,
            policy,
            opts,
            metrics,
        });
        // Worker → demux pipeline: dropping the sender (worker exit)
        // is what stops the demux thread.
        let (inflight_tx, inflight_rx) = std::sync::mpsc::channel::<InflightBatch>();
        let w = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name(format!("spn-batch-{model}"))
            .spawn(move || worker_loop(&w, &inflight_tx))
            .expect("spawn batcher worker");
        let d = Arc::clone(&shared);
        let demux = thread::Builder::new()
            .name(format!("spn-demux-{model}"))
            .spawn(move || demux_loop(&d, inflight_rx))
            .expect("spawn batcher demux");
        Batcher {
            shared,
            worker: Mutex::new(Some(worker)),
            demux: Mutex::new(Some(demux)),
        }
    }

    /// Deposit a request; returns the channel the reply will arrive
    /// on. The caller has already validated shape and passed admission
    /// control.
    ///
    /// A reply is *always* delivered on the returned channel: if the
    /// batcher has already been asked to drain (so the worker may be
    /// gone and nothing would ever flush the queue), the request is
    /// refused immediately with [`Status::ShuttingDown`] instead of
    /// being parked forever. The stop check happens under the queue
    /// lock — the same lock the worker holds when it decides to exit —
    /// so the admit-or-refuse decision cannot race the worker's
    /// shutdown.
    pub fn enqueue(
        &self,
        ctx: SpanCtx,
        data: Vec<u8>,
        num_samples: u32,
        deadline: Option<Instant>,
    ) -> Receiver<Reply> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.enqueue_with(
            ctx,
            data,
            num_samples,
            deadline,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        rx
    }

    /// [`Batcher::enqueue`] with an explicit [`ReplySink`] instead of
    /// a channel — the server's entry point. The delivery guarantee is
    /// the same: the sink is always called exactly once.
    pub fn enqueue_with(
        &self,
        ctx: SpanCtx,
        data: Vec<u8>,
        num_samples: u32,
        deadline: Option<Instant>,
        reply: ReplySink,
    ) {
        debug_assert_eq!(data.len(), num_samples as usize * self.shared.num_features);
        let pending = Pending {
            data,
            num_samples,
            ctx,
            enqueued: Instant::now(),
            deadline,
            reply,
        };
        {
            let mut q = self.shared.queue.lock();
            if q.stopped {
                drop(q);
                self.shared.metrics.rejected(Status::ShuttingDown);
                (pending.reply)(Reply::Err(
                    Status::ShuttingDown,
                    "server is draining; request refused".into(),
                ));
                return;
            }
            q.items.push_back(pending);
        }
        self.shared.cv.notify_all();
    }

    /// Ask the worker to stop once the queue is empty (the server
    /// already gates new requests). Does not block.
    pub fn request_drain(&self) {
        self.shared.queue.lock().stopped = true;
        self.shared.cv.notify_all();
    }

    /// Join the worker and demux threads (after
    /// [`Batcher::request_drain`]). Worker first: its exit drops the
    /// in-flight channel, which is what lets the demux thread finish.
    /// Idempotent.
    pub fn join_worker(&self) {
        if let Some(w) = self.worker.lock().take() {
            let _ = w.join();
        }
        if let Some(d) = self.demux.lock().take() {
            let _ = d.join();
        }
    }

    /// Stop accepting, flush everything still queued — every
    /// already-enqueued request still receives a reply — and join the
    /// worker. Idempotent.
    pub fn drain(&self) {
        self.request_drain();
        self.join_worker();
    }

    /// Samples currently parked in this model's queue (for tests and
    /// stats; racy by nature).
    pub fn queued_samples(&self) -> u64 {
        self.shared
            .queue
            .lock()
            .items
            .iter()
            .map(|p| u64::from(p.num_samples))
            .sum()
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Map a scheduler error onto the wire status a client should see.
fn status_of(e: &RuntimeError) -> Status {
    match e {
        RuntimeError::QueueFull { .. } => Status::ServerBusy,
        RuntimeError::ShuttingDown => Status::ShuttingDown,
        RuntimeError::ShapeMismatch { .. } => Status::ShapeMismatch,
        _ => Status::Internal,
    }
}

fn worker_loop(shared: &Shared, inflight_tx: &std::sync::mpsc::Sender<InflightBatch>) {
    loop {
        let batch = {
            let mut q = shared.queue.lock();
            // Sleep until there is work (or we are told to stop and
            // the queue is already empty — the drain condition). The
            // exit decision is made while *holding* the queue lock, so
            // `enqueue` (which checks `stopped` under the same lock)
            // can never add work the worker will not see.
            while q.items.is_empty() {
                if q.stopped {
                    return;
                }
                shared.cv.wait_for(&mut q, Duration::from_millis(50));
            }
            // Adaptive window: wait for more work, but never longer
            // than the delay bound past the moment we saw the first
            // request. The wait happens in short "linger" slices; if a
            // slice passes without any new samples arriving, the burst
            // has quiesced and we flush early instead of idling out
            // the rest of the window. The delay bound is the worst
            // case (a steady trickle keeps extending the linger); the
            // common cost is one linger slice.
            let window_ends = Instant::now() + shared.policy.max_batch_delay;
            let linger = shared.policy.max_batch_delay / 8;
            let mut last_queued = 0u64;
            loop {
                let queued: u64 = q.items.iter().map(|p| u64::from(p.num_samples)).sum();
                if queued >= shared.policy.max_batch_samples || q.stopped {
                    break;
                }
                let now = Instant::now();
                if now >= window_ends {
                    break;
                }
                if queued == last_queued {
                    // Nothing new arrived during the last slice.
                    break;
                }
                last_queued = queued;
                shared.cv.wait_for(&mut q, linger.min(window_ends - now));
            }
            // Take whole requests up to the sample cap — always at
            // least one, so a single oversized request still flows.
            let mut batch = Vec::new();
            let mut samples = 0u64;
            while let Some(p) = q.items.front() {
                let n = u64::from(p.num_samples);
                if !batch.is_empty() && samples + n > shared.policy.max_batch_samples {
                    break;
                }
                samples += n;
                batch.push(q.items.pop_front().expect("front exists"));
            }
            batch
        };
        flush(shared, batch, inflight_tx);
    }
}

/// Coalesce one batch into a scheduler job and hand it to the demux
/// thread — without waiting for the job, so the next batch can form
/// (and run) while this one computes.
fn flush(
    shared: &Shared,
    batch: Vec<Pending>,
    inflight_tx: &std::sync::mpsc::Sender<InflightBatch>,
) {
    // Expire requests whose deadline passed while queued.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    let mut waits = Vec::with_capacity(batch.len());
    for p in batch {
        if let Some(d) = p.deadline {
            if now > d {
                shared.metrics.rejected(Status::DeadlineExceeded);
                (p.reply)(Reply::Err(
                    Status::DeadlineExceeded,
                    "deadline expired while queued for batching".into(),
                ));
                continue;
            }
        }
        waits.push(now.duration_since(p.enqueued));
        live.push(p);
    }
    if live.is_empty() {
        return;
    }

    let total: usize = live.iter().map(|p| p.num_samples as usize).sum();
    let mut data = Vec::with_capacity(total * shared.num_features);
    for p in &live {
        data.extend_from_slice(&p.data);
    }
    shared.metrics.batch_flushed(total as u64, &waits);

    if let Some(trace) = shared.scheduler.trace() {
        // One queue-wait span per member request, plus one span for the
        // batch itself: it spans from the oldest member's enqueue to
        // now, carries the lead request's context (the context stamped
        // onto the scheduler job below), and records the coalesced
        // sample count in its `block` field.
        for p in &live {
            trace.record(
                SpanKind::RequestQueued,
                p.ctx,
                0,
                u64::from(p.num_samples),
                p.enqueued,
                now,
            );
        }
        let earliest = live
            .iter()
            .map(|p| p.enqueued)
            .min()
            .expect("live is non-empty");
        trace.record(
            SpanKind::BatchFormed,
            live[0].ctx,
            0,
            total as u64,
            earliest,
            now,
        );
    }
    // The scheduler job inherits the lead request's trace context, so
    // the device spans serving this batch correlate back to a request.
    let mut opts = shared.opts;
    opts.ctx = live[0].ctx;

    let dataset = Arc::new(Dataset::from_raw(data, shared.num_features, shared.domain));
    // `submit_blocking` gives backpressure: when the scheduler queue
    // is full the batcher stalls here, the model queue backs up, and
    // admission control starts bouncing clients with ServerBusy.
    match shared.scheduler.submit_blocking(dataset, opts) {
        Ok(handle) => {
            let _ = inflight_tx.send(InflightBatch {
                handle,
                live,
                total,
            });
        }
        Err(e) => fail_batch(shared, live, &e),
    }
}

/// Wait for in-flight batch jobs (FIFO) and fan results back out to
/// each request's reply channel.
fn demux_loop(shared: &Shared, inflight_rx: Receiver<InflightBatch>) {
    while let Ok(batch) = inflight_rx.recv() {
        match batch.handle.wait() {
            Ok(probs) => {
                debug_assert_eq!(probs.len(), batch.total);
                // The device reports probabilities; the wire carries
                // log-likelihoods. One `ln()` per sample, applied the
                // same way regardless of batch framing →
                // bit-identical to an unbatched run.
                let lls: Vec<f64> = probs.iter().map(|p| p.ln()).collect();
                let mut at = 0usize;
                for p in batch.live {
                    let n = p.num_samples as usize;
                    (p.reply)(Reply::Ok(lls[at..at + n].to_vec()));
                    at += n;
                }
            }
            Err(e) => fail_batch(shared, batch.live, &e),
        }
    }
}

/// Answer every member of a failed batch with the mapped status.
fn fail_batch(shared: &Shared, live: Vec<Pending>, e: &RuntimeError) {
    let status = status_of(e);
    let msg = e.to_string();
    for p in live {
        shared.metrics.rejected(status);
        (p.reply)(Reply::Err(status, msg.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_covers_backpressure_and_drain() {
        assert_eq!(
            status_of(&RuntimeError::QueueFull { capacity: 4 }),
            Status::ServerBusy
        );
        assert_eq!(status_of(&RuntimeError::ShuttingDown), Status::ShuttingDown);
        assert_eq!(
            status_of(&RuntimeError::ShapeMismatch {
                expected_bytes: 10,
                got_bytes: 12
            }),
            Status::ShapeMismatch
        );
        assert_eq!(status_of(&RuntimeError::Cancelled), Status::Internal);
    }

    #[test]
    fn default_policy_is_sane() {
        let p = BatchPolicy::default();
        assert!(p.max_batch_samples >= 1);
        assert!(p.max_batch_delay > Duration::ZERO);
    }
}
