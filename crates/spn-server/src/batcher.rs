//! The adaptive micro-batcher: the heart of the serving subsystem.
//!
//! Network clients send small `Infer` requests (often a handful of
//! samples); the scheduler amortises its per-job cost — block
//! splitting, device buffer allocation, control-thread wake-ups — over
//! *large* jobs. The batcher bridges the two regimes: each model owns
//! a queue into which the serving front-end deposits requests, and one
//! worker thread that coalesces whatever is queued into **one**
//! scheduler job.
//!
//! **The flush rule is work-conserving.** A batch is flushed as soon
//! as any of these holds:
//!
//! * a PE is free to run the batch — fewer batches of this model are
//!   in flight than the job may use PEs;
//! * the queue holds at least `max_batch_samples` samples;
//! * the oldest queued request has waited `max_batch_delay` since it
//!   was enqueued;
//! * the batcher is draining.
//!
//! So a request never waits while an executor idles, batches grow only
//! *while the executors are busy* — batch size rises with load by
//! itself — and `max_batch_delay` is a worst-case bound on queue wait,
//! not a price every request pays.
//!
//! **Whoever makes the rule true flushes.** The rule is one function
//! (`Shared::ready`), evaluated under the queue lock by two callers.
//! [`Batcher::enqueue_with`] evaluates it right after pushing: if it
//! already holds — a PE is idle, as for every request of a lightly
//! loaded server — the *enqueuing* thread takes the batch and submits
//! it, waking no thread but the control thread that runs it — or none:
//! a batch cheaper than that hand-off, the scheduler runs right there,
//! so its replies go out before `enqueue_with` returns. Otherwise
//! the worker is notified; it is the only thread that *waits* — for a
//! PE to free, the delay bound, scheduler queue space, drain. An
//! enqueuer may be a reactor loop, so its submit never parks
//! ([`Scheduler::submit_then`]): a batch that meets a full scheduler
//! queue goes to the head of the line (`BatchQueue::stalled`) for the
//! worker's blocking submit.
//!
//! Batches are *pipelined*: a batch is submitted and the next one
//! forms at once, and no thread waits on results. The scheduler hands
//! each job's outcome to a completion closure on the thread that ran
//! the job's last block; the closure maps the
//! probabilities through `ln()`, fans them out to each request's
//! `ReplySink` in submission order and frees the batch's executor
//! slot. A batched answer is bit-identical to what the request would
//! have produced alone (the executors compute per sample; batching
//! only changes job framing, never arithmetic). The closure wakes the
//! worker but never submits — a control thread standing still is a PE
//! standing still, and one blocked on a full scheduler queue would wait
//! for space only control threads free.

use crate::metrics::ServerMetrics;
use crate::protocol::Status;
use parking_lot::{Condvar, Mutex};
use spn_core::Dataset;
use spn_runtime::{JobOptions, JobResult, RuntimeError, Scheduler};
use spn_telemetry::{LiveSpan, SpanCtx, SpanKind};
use std::collections::VecDeque;
use std::io;
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
/// per enqueued request — on the thread that ran the request's batch
/// (a scheduler control thread, or the enqueuer for a small one), or,
/// for a request refused or expired at flush, on the flushing thread:
/// the worker or the enqueuer (then before `enqueue_with` returns, as
/// for a small batch). It must therefore be short and never block:
/// the server passes a closure that finishes the request's accounting
/// and hands the encoded response to the front-end's completion
/// callback — which wakes a blocked connection thread or queues the
/// frame on a reactor loop, so no batcher or control thread ever writes
/// to a client socket.
pub(crate) type ReplySink = Box<dyn FnOnce(Reply) + Send + 'static>;

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
    /// Where the answer goes (see `ReplySink`).
    reply: ReplySink,
}

/// Tuning knobs for one model's batcher.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush as soon as this many samples are queued.
    pub max_batch_samples: u64,
    /// … or when the oldest queued request has waited this long. A
    /// bound, reached only while every executor stays busy: with a PE
    /// free the batcher flushes at once.
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

/// A coalesced batch, not yet submitted: its dataset, its members in row order.
type Formed = (Arc<Dataset>, Vec<Pending>);

/// The batch queue, the in-flight count and the drain flag, under
/// **one** mutex.
///
/// Keeping `stopped` inside the queue lock (rather than a separate
/// atomic) closes the enqueue-after-drain race: the worker only exits
/// while holding the lock with `stopped`, nothing queued and nothing
/// in flight, and [`Batcher::enqueue`] checks `stopped` under the same
/// lock — so a request can never slip into a queue no worker will ever
/// flush. Any such late request is answered immediately with
/// [`Status::ShuttingDown`] instead of parking forever.
struct BatchQueue {
    items: VecDeque<Pending>,
    /// Samples in `items` (kept as a running sum).
    queued_samples: u64,
    /// Batches an enqueuer formed but met a full scheduler queue with:
    /// the worker submits them, in order, ahead of `items`. In flight.
    stalled: VecDeque<Formed>,
    /// Batches taken off the queue whose requests have not all been
    /// answered yet.
    in_flight: u32,
    stopped: bool,
}

/// What enqueuers, the worker and the completion closures share. Not
/// the scheduler: a closure running on one of its control threads must
/// never be what drops it.
struct Shared {
    queue: Mutex<BatchQueue>,
    /// The worker waits here for work, a free executor slot, the
    /// oldest request's deadline or, draining, `in_flight == 0`.
    cv: Condvar,
    num_features: usize,
    domain: usize,
    policy: BatchPolicy,
    opts: JobOptions,
    /// Batches that can execute side by side: one per PE the job may
    /// use. A PE's second control thread overlaps transfer with
    /// compute; it is not a second execution slot.
    pes: u32,
    metrics: Arc<ServerMetrics>,
}

impl Shared {
    /// The flush rule (module doc); a batch parked for the worker goes first.
    fn ready(&self, q: &BatchQueue, now: Instant) -> bool {
        let oldest = q.items.front().filter(|_| q.stalled.is_empty());
        oldest.is_some_and(|p| {
            q.in_flight < self.pes
                || q.queued_samples >= self.policy.max_batch_samples
                || q.stopped
                || now.saturating_duration_since(p.enqueued) >= self.policy.max_batch_delay
        })
    }

    /// Take whole requests off the front of `q` up to the sample cap —
    /// always at least one, so a single oversized request still flows —
    /// and count the batch in flight.
    fn take_batch(&self, q: &mut BatchQueue) -> Vec<Pending> {
        q.in_flight += 1;
        let (mut take, mut samples) = (0, 0u64);
        for p in &q.items {
            let n = u64::from(p.num_samples);
            if take > 0 && samples + n > self.policy.max_batch_samples {
                break;
            }
            samples += n;
            take += 1;
        }
        q.queued_samples -= samples;
        q.items.drain(..take).collect()
    }
}

/// Per-model micro-batcher: a queue plus one worker thread.
///
/// Dropping the batcher drains the queue — every already-enqueued
/// request still receives a reply — and joins the worker.
pub struct Batcher {
    shared: Arc<Shared>,
    /// For flushes on the enqueuing thread (why not in [`Shared`]: see there).
    scheduler: Arc<Scheduler>,
    /// Behind a mutex so [`Batcher::drain`] works through `&self`
    /// (the server holds batchers in shared state).
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Spawn the worker for `scheduler` serving a model with
    /// `num_features` features of domain `domain`. Panics if the
    /// worker thread cannot be spawned; the server starts its batchers
    /// through `Batcher::start`, which returns that error.
    pub fn new(
        model: &str,
        scheduler: Arc<Scheduler>,
        num_features: usize,
        domain: usize,
        policy: BatchPolicy,
        opts: JobOptions,
        metrics: Arc<ServerMetrics>,
    ) -> Batcher {
        Self::start(
            model,
            scheduler,
            num_features,
            domain,
            policy,
            opts,
            metrics,
        )
        .expect("spawn batcher worker")
    }

    /// [`Batcher::new`], with a failed spawn returned as its error.
    pub(crate) fn start(
        model: &str,
        scheduler: Arc<Scheduler>,
        num_features: usize,
        domain: usize,
        policy: BatchPolicy,
        opts: JobOptions,
        metrics: Arc<ServerMetrics>,
    ) -> io::Result<Batcher> {
        assert!(num_features > 0, "model must have at least one feature");
        assert!(
            policy.max_batch_samples > 0,
            "max_batch_samples must be > 0"
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(BatchQueue {
                items: VecDeque::new(),
                queued_samples: 0,
                stalled: VecDeque::new(),
                in_flight: 0,
                stopped: false,
            }),
            cv: Condvar::new(),
            num_features,
            domain,
            policy,
            opts,
            pes: opts.num_pes.unwrap_or(scheduler.device().num_pes()),
            metrics,
        });
        let (w, s) = (Arc::clone(&shared), Arc::clone(&scheduler));
        let worker = thread::Builder::new()
            .name(format!("spn-batch-{model}"))
            .spawn(move || worker_loop(&w, &s))?;
        Ok(Batcher {
            shared,
            scheduler,
            worker: Mutex::new(Some(worker)),
        })
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

    /// [`Batcher::enqueue`] with an explicit `ReplySink` instead of
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
        let shared = &self.shared;
        debug_assert_eq!(data.len(), num_samples as usize * shared.num_features);
        let now = Instant::now();
        let pending = Pending {
            data,
            num_samples,
            ctx,
            enqueued: now,
            deadline,
            reply,
        };
        let mut q = shared.queue.lock();
        if q.stopped {
            drop(q);
            shared.metrics.rejected(Status::ShuttingDown);
            (pending.reply)(Reply::Err(
                Status::ShuttingDown,
                "server is draining; request refused".into(),
            ));
            return;
        }
        q.queued_samples += u64::from(num_samples);
        q.items.push_back(pending);
        if shared.ready(&q, now) {
            let batch = shared.take_batch(&mut q);
            drop(q);
            flush(shared, &self.scheduler, batch, false);
        } else {
            drop(q);
            shared.cv.notify_one();
        }
    }

    /// Ask the worker to stop once the queue is empty (the server
    /// already gates new requests). Does not block.
    pub(crate) fn request_drain(&self) {
        self.shared.queue.lock().stopped = true;
        self.shared.cv.notify_all();
    }

    /// Join the worker (after [`Batcher::request_drain`]), which leaves
    /// only once no batch is in flight: when this returns, every
    /// enqueued request has had its reply. Idempotent.
    pub(crate) fn join_worker(&self) {
        // Held across the join, so a concurrent caller cannot overtake
        // a worker that still has batches to flush.
        let mut worker = self.worker.lock();
        if let Some(w) = worker.take() {
            let _ = w.join();
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
    pub(crate) fn queued_samples(&self) -> u64 {
        self.shared.queue.lock().queued_samples
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

fn worker_loop(shared: &Arc<Shared>, scheduler: &Scheduler) {
    loop {
        let mut q = shared.queue.lock();
        // Every decision — flush, wait, exit — is made while *holding*
        // the queue lock, so `enqueue` (which checks `stopped` under
        // the same lock) can never add work the worker will not see.
        let batch = loop {
            if let Some(formed) = q.stalled.pop_front() {
                drop(q);
                submit(shared, scheduler, formed, true);
                q = shared.queue.lock();
                continue;
            }
            let Some(oldest) = q.items.front() else {
                // A batch in flight may still come back as `stalled`.
                if q.stopped && q.in_flight == 0 {
                    return;
                }
                shared.cv.wait(&mut q);
                continue;
            };
            let now = Instant::now();
            if shared.ready(&q, now) {
                break shared.take_batch(&mut q);
            }
            // Every PE is busy with this model: let the batch grow
            // until one finishes (the completion closure wakes us),
            // for at most the oldest request's delay bound.
            let due = oldest.enqueued.checked_add(shared.policy.max_batch_delay);
            match due.map(|due| due.saturating_duration_since(now)) {
                Some(left) => {
                    shared.cv.wait_for(&mut q, left);
                }
                None => shared.cv.wait(&mut q),
            }
        };
        drop(q);
        flush(shared, scheduler, batch, true);
    }
}

/// Coalesce one batch into a scheduler job whose completion answers
/// its requests — without waiting for the job, so the next batch can
/// form (and run) while this one computes. Only the worker `may_wait`
/// for scheduler queue space.
fn flush(shared: &Arc<Shared>, scheduler: &Scheduler, batch: Vec<Pending>, may_wait: bool) {
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
        return complete(shared, live, Ok(Vec::new()));
    }

    let total: usize = live.iter().map(|p| p.num_samples as usize).sum();
    // The lead request's buffer becomes the dataset: a lone request is
    // not copied at all, the others append to it (and free theirs now,
    // not when the job completes).
    let mut data = std::mem::take(&mut live[0].data);
    data.reserve_exact(total * shared.num_features - data.len());
    for p in &mut live[1..] {
        data.extend(std::mem::take(&mut p.data));
    }
    shared.metrics.batch_flushed(total as u64, &waits);

    if let Some(trace) = scheduler.trace() {
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
                LiveSpan::NO_THREAD,
                u64::from(p.num_samples),
                p.enqueued..now,
            );
        }
        let earliest = live.iter().map(|p| p.enqueued).fold(now, Instant::min);
        trace.record(
            SpanKind::BatchFormed,
            live[0].ctx,
            0,
            LiveSpan::NO_THREAD,
            total as u64,
            earliest..now,
        );
    }
    let dataset = Arc::new(Dataset::from_raw(data, shared.num_features, shared.domain));
    submit(shared, scheduler, (dataset, live), may_wait);
}

/// Hand a formed batch to the scheduler. A refused submission reaches
/// `complete` the same way a finished job does — except a full queue
/// met by a thread that may not wait: that batch is parked for the
/// worker, whose blocking submit is the backpressure (the model queue
/// backs up and admission control bounces clients with `ServerBusy`).
fn submit(shared: &Arc<Shared>, scheduler: &Scheduler, formed: Formed, may_wait: bool) {
    let (dataset, live) = formed;
    // The scheduler job inherits the lead request's trace context, so
    // the device spans serving this batch correlate back to a request.
    let mut opts = shared.opts;
    opts.ctx = live[0].ctx;
    let done = Arc::clone(shared);
    if may_wait {
        scheduler.submit_blocking_then(dataset, opts, move |result| complete(&done, live, result));
        return;
    }
    let again = Arc::clone(&dataset);
    scheduler.submit_then(dataset, opts, move |result| match result {
        Err(RuntimeError::QueueFull { .. }) => {
            done.queue.lock().stalled.push_back((again, live));
            done.cv.notify_one();
        }
        result => complete(&done, live, result),
    });
}

/// A batch's job ended with `result` (or was refused): answer every
/// member, then give the executor slot back. Runs on the scheduler
/// control thread that finished the job, or on the flushing thread for
/// a refusal, a batch whose every member had expired or one it ran.
fn complete(shared: &Shared, live: Vec<Pending>, result: JobResult) {
    match result {
        Ok(mut lls) => {
            // The executors report probabilities; the wire carries
            // log-likelihoods. One `ln()` per sample, applied the same
            // way regardless of batch framing → bit-identical to an
            // unbatched run.
            for v in &mut lls {
                *v = v.ln();
            }
            let lone = live.len() == 1;
            let mut at = 0usize;
            for p in live {
                let n = p.num_samples as usize;
                // A lone member's results are the whole job's: hand the
                // buffer over rather than copy it.
                let mine = if lone {
                    std::mem::take(&mut lls)
                } else {
                    lls[at..at + n].to_vec()
                };
                (p.reply)(Reply::Ok(mine));
                at += n;
            }
        }
        Err(e) => {
            let status = status_of(&e);
            let msg = e.to_string();
            for p in live {
                shared.metrics.rejected(status);
                (p.reply)(Reply::Err(status, msg.clone()));
            }
        }
    }
    // Last, so `in_flight == 0` means "every request answered" to the
    // draining worker. Only wake it: this may be a control thread.
    let mut q = shared.queue.lock();
    q.in_flight -= 1;
    let wake = !q.items.is_empty() || q.stopped;
    drop(q);
    if wake {
        shared.cv.notify_all();
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
