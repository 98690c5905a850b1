//! The concurrent inference scheduler: many jobs, one accelerator.
//!
//! The paper's runtime drives each PE with control threads to overlap
//! transfer and compute, but does so one job at a time. This module
//! generalises that design into a long-lived [`Scheduler`] that owns a
//! **persistent worker pool** (the control threads of Section IV-B,
//! kept alive across jobs instead of re-spawned per call) and
//! multiplexes block-sized sub-jobs from *many* concurrent inference
//! jobs across the PEs:
//!
//! * [`Scheduler::submit`] enqueues a job and returns a [`JobHandle`]
//!   immediately; a bounded queue provides backpressure
//!   ([`crate::RuntimeError::QueueFull`], or [`Scheduler::submit_blocking`]
//!   to wait for space);
//! * a job's outcome has exactly one consumer: whoever calls
//!   [`JobHandle::wait`], or — for callers that would only park a
//!   thread in `wait` to pass the result on — the closure given to
//!   [`Scheduler::submit_blocking_then`], run by the thread that
//!   finished the job;
//! * the caller can be the control thread: [`Scheduler::submit_then`]
//!   runs a one-block job cheaper than a hand-off itself;
//! * blocks are claimed **round-robin across jobs** (per-job FIFO): a
//!   small job submitted behind a huge one still completes promptly;
//! * transient failures — [`crate::DeviceError::TransientFault`] from
//!   the device's fault injection, or an out-of-memory race against
//!   another job's buffers — are retried per block with bounded linear
//!   backoff, up to [`JobOptions::max_retries`];
//! * one job failing (or being cancelled) never poisons the others:
//!   each block's device buffers are freed on every path, and job state
//!   is fully independent;
//! * every hot-path event feeds the [`MetricsRegistry`]
//!   (jobs/blocks/retries/bytes/per-PE busy time).
//!
//! It is the one way to run a job: a single blocking job is
//! `submit_blocking(..)?.wait()`, and the single-job path and the
//! multi-job path are the same code.
//!
//! The scheduler is backend-agnostic: it schedules, executors execute.
//! A job's [`crate::job::ExecBackend`] is resolved once, at
//! submission, into a block executor the job keeps; every control
//! thread then runs the same loop for every block of every job —
//! slice the block's input, run the executor, store the results. What
//! a device transfer, a compiled plan or a shard cut *is* lives with
//! the three executors, beside [`VirtualDevice`], [`PlanCache`] and
//! [`crate::ShardedExecutor`].

use crate::device::VirtualDevice;
use crate::executor::{BlockCx, BlockExecutor, Executors};
use crate::job::{split_into_blocks, Block, JobOptions};
use crate::metrics::{JobOutcome, MetricsRegistry, MetricsSnapshot};
use crate::plan_cache::PlanCache;
use crate::runtime::{validate_config, ExecProvenance, RuntimeConfig, RuntimeError};
use parking_lot::{Condvar, Mutex, MutexGuard};
use spn_core::Dataset;
use spn_hw::SynthConfig;
use spn_telemetry::TraceCollector;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on a single retry backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_millis(50);

/// Observable job state, as reported by [`JobHandle::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted; no block has started yet.
    Queued,
    /// At least one block has been dispatched.
    Running,
    /// All blocks done and verification passed; `wait()` will return
    /// the results.
    Completed,
    /// The job failed; `wait()` will return the error.
    Failed,
    /// The job was cancelled; `wait()` will return
    /// [`RuntimeError::Cancelled`].
    Cancelled,
}

/// How a job ended: its results (one probability per sample, dataset
/// order) or why there are none — [`RuntimeError::Cancelled`] for a
/// cancelled job.
pub type JobResult = Result<Vec<f64>, RuntimeError>;

/// Takes a job's outcome in place of a [`JobHandle::wait`] caller (see
/// [`Scheduler::submit_blocking_then`]).
type Consumer = Box<dyn FnOnce(JobResult) + Send>;

/// Where a job's outcome is, behind its completion mutex.
enum Phase {
    /// Not terminal yet; holds the consumer the job was submitted
    /// with, if any.
    Active(Option<Consumer>),
    /// Terminal. The result waits here for [`JobHandle::wait`]; `None`
    /// when it went to the job's consumer instead.
    Done(JobOutcome, Option<JobResult>),
}

/// All state of one submitted job. Scheduling counters (`next_block`,
/// `in_flight`) are atomics but only mutated under the scheduler's
/// state lock; `blocks_done` and `cancelled` are also read lock-free by
/// the handle.
struct JobState {
    id: u64,
    data: Arc<Dataset>,
    blocks: Vec<Block>,
    /// The job runs on PEs `0..pe_limit`.
    pe_limit: u32,
    opts: JobOptions,
    /// Runs every block of this job (resolved from `opts.backend` at
    /// submission).
    executor: Arc<dyn BlockExecutor>,
    /// How this job's results will have been produced (fixed at
    /// submission: backend plus plan-cache state).
    provenance: ExecProvenance,
    /// Next unclaimed block index (guarded by the scheduler state lock).
    next_block: AtomicUsize,
    /// Blocks currently executing (guarded by the scheduler state lock).
    in_flight: AtomicUsize,
    /// Blocks completed successfully.
    blocks_done: AtomicU64,
    /// Set by `cancel()` or on failure: workers stop claiming blocks.
    cancelled: AtomicBool,
    /// Set exactly once, when the job reaches a terminal phase.
    terminal: AtomicBool,
    /// Result accumulator, one slot per sample.
    results: Mutex<Vec<f64>>,
    completion: Mutex<Phase>,
    done_cv: Condvar,
}

impl JobState {
    /// Number of samples this job carries (for the in-flight gauge).
    fn samples(&self) -> u64 {
        self.data.num_samples() as u64
    }

    /// Whether a control thread of PE `pe` may claim a block of it now.
    fn claimable_by(&self, pe: u32) -> bool {
        !self.cancelled.load(Ordering::Relaxed)
            && !self.terminal.load(Ordering::Relaxed)
            && pe < self.pe_limit
            && self.next_block.load(Ordering::Relaxed) < self.blocks.len()
    }
}

/// Handle to a submitted job: wait, poll, inspect progress, cancel.
pub struct JobHandle {
    job: Arc<JobState>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.job.id)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// Scheduler-assigned job id (unique per scheduler instance).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Block until the job reaches a terminal state; returns the
    /// results (one probability per sample, dataset order) or the
    /// error. Consumes the handle. The outcome of a job submitted with
    /// a consumer is not the handle's to give: `wait` then returns
    /// [`RuntimeError::InvalidConfig`] once the job is terminal.
    pub fn wait(self) -> JobResult {
        let mut phase = self.job.completion.lock();
        while matches!(*phase, Phase::Active(_)) {
            self.job.done_cv.wait(&mut phase);
        }
        match &mut *phase {
            Phase::Done(_, result) => result.take().unwrap_or_else(|| {
                Err(RuntimeError::InvalidConfig {
                    reason: "the job's outcome went to its completion consumer".into(),
                })
            }),
            Phase::Active(_) => unreachable!("loop exits only on terminal phase"),
        }
    }

    /// Non-blocking status probe.
    pub fn poll(&self) -> JobStatus {
        match &*self.job.completion.lock() {
            Phase::Active(_) => {
                if self.job.blocks_done.load(Ordering::Relaxed) > 0
                    || self.job.in_flight.load(Ordering::Relaxed) > 0
                {
                    JobStatus::Running
                } else {
                    JobStatus::Queued
                }
            }
            Phase::Done(JobOutcome::Completed, _) => JobStatus::Completed,
            Phase::Done(JobOutcome::Failed, _) => JobStatus::Failed,
            Phase::Done(JobOutcome::Cancelled, _) => JobStatus::Cancelled,
        }
    }

    /// `(blocks_done, blocks_total)` — the progress bar numbers.
    pub fn progress(&self) -> (u64, u64) {
        (
            self.job.blocks_done.load(Ordering::Relaxed),
            self.job.blocks.len() as u64,
        )
    }

    /// Ask the scheduler to abandon the job. Unclaimed blocks are never
    /// dispatched; blocks already executing run to completion (freeing
    /// their device buffers as always) and then the job finalises as
    /// [`JobStatus::Cancelled`], unblocking `wait()`.
    pub fn cancel(&self) {
        let st = self.shared.state.lock();
        if self.job.terminal.load(Ordering::Relaxed) {
            return;
        }
        self.job.cancelled.store(true, Ordering::Relaxed);
        if self.job.in_flight.load(Ordering::Relaxed) == 0 {
            // Nothing executing: finalise right here.
            retire(&self.shared, st, &self.job, || Err(RuntimeError::Cancelled));
        }
        // else: the last in-flight block's worker finalises the job.
    }
}

/// Scheduler-internal shared state.
struct Shared {
    device: Arc<VirtualDevice>,
    config: RuntimeConfig,
    /// PE 0's synthesis config (all PEs are identical), read once.
    pe_cfg: SynthConfig,
    metrics: Arc<MetricsRegistry>,
    /// Live wall-clock span collector (`None` when tracing is off).
    /// Executors record their per-block spans into it, stamped with
    /// the job's [`JobOptions::ctx`] trace context.
    trace: Option<Arc<TraceCollector>>,
    /// Where blocks run: resolves a job's backend to its executor.
    executors: Executors,
    state: Mutex<State>,
    /// One per control thread, in [`State::parked`] order: a worker
    /// with no block to claim sleeps on its own.
    work_cv: Vec<Condvar>,
    /// `submit_blocking` sleeps here when the queue is full; also
    /// notified whenever a job leaves the queue (drain waits on it).
    space_cv: Condvar,
    /// Set by [`Scheduler::drain`] and `Drop`: refuse new submissions.
    draining: AtomicBool,
    /// Set by `Drop` after draining: workers exit.
    shutdown: AtomicBool,
    /// Wakes that found no block to claim (for tests; not telemetry).
    idle_wakes: AtomicU64,
    /// Control-thread notifications `submit_inner` issued (likewise).
    wakes_issued: AtomicU64,
    /// Blocks a submitter ran in a control thread's stead (likewise).
    inline_blocks: AtomicU64,
}

struct State {
    /// In-flight jobs, submission order.
    jobs: Vec<Arc<JobState>>,
    /// Round-robin cursor for cross-job fairness.
    rr: usize,
    next_id: u64,
    /// Where each control thread is. Worker `w` drives PE
    /// `w % num_pes`: index order reaches every PE's first thread first.
    park: Vec<Park>,
}

/// A control thread is awake (running a block, or about to claim one),
/// parked on its `work_cv`, or lent: asleep while a submitter runs one
/// block in its stead, and woken by no one but that submitter.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Park {
    Awake,
    Parked,
    Lent,
}

/// The long-lived concurrent scheduler. Owns `num_pes ×
/// threads_per_pe` worker threads for the device's whole lifetime;
/// dropping the scheduler shuts the pool down and cancels any jobs
/// that have not finished.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Start a scheduler on `device` with a validated `config`.
    pub fn new(device: Arc<VirtualDevice>, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        Scheduler::with_trace(device, config, None)
    }

    /// Like [`Scheduler::new`], but every block execution additionally
    /// records its backend's wall-clock spans into `trace` (stamped
    /// with the submitting job's [`JobOptions::ctx`]), for one unified
    /// Chrome-trace export alongside server-layer spans.
    pub fn with_trace(
        device: Arc<VirtualDevice>,
        config: RuntimeConfig,
        trace: Option<Arc<TraceCollector>>,
    ) -> Result<Self, RuntimeError> {
        Scheduler::with_cache(device, config, trace, Arc::new(PlanCache::new()))
    }

    /// Like [`Scheduler::with_trace`], but compiled plans go through a
    /// caller-owned [`PlanCache`] — the constructor a server uses so
    /// all its model schedulers share one cache. When the device
    /// carries its model ([`VirtualDevice::with_model`]), the plan is
    /// compiled (or fetched) eagerly here, recording a `plan-compile`
    /// span on a cache miss when tracing.
    pub fn with_cache(
        device: Arc<VirtualDevice>,
        config: RuntimeConfig,
        trace: Option<Arc<TraceCollector>>,
        plan_cache: Arc<PlanCache>,
    ) -> Result<Self, RuntimeError> {
        validate_config(&config)?;
        let pe_cfg = device.query_pe(0)?;
        let metrics = Arc::new(MetricsRegistry::new(device.num_pes()));
        let executors = Executors::new(Arc::clone(&device), plan_cache, trace.clone());
        let num_pes = device.num_pes();
        let num_workers = (num_pes * config.threads_per_pe) as usize;
        let shared = Arc::new(Shared {
            device,
            config,
            pe_cfg,
            metrics,
            trace,
            executors,
            state: Mutex::new(State {
                jobs: Vec::new(),
                rr: 0,
                next_id: 1,
                park: vec![Park::Awake; num_workers],
            }),
            work_cv: (0..num_workers).map(|_| Condvar::new()).collect(),
            space_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            idle_wakes: AtomicU64::new(0),
            wakes_issued: AtomicU64::new(0),
            inline_blocks: AtomicU64::new(0),
        });
        let workers = (0..num_workers)
            .map(|w| {
                let sh = Arc::clone(&shared);
                let (pe, t) = (w as u32 % num_pes, w as u32 / num_pes);
                std::thread::Builder::new()
                    .name(format!("spn-sched-pe{pe}-t{t}"))
                    .spawn(move || worker_loop(&sh, w, pe))
                    .expect("spawn scheduler worker thread")
            })
            .collect();
        Ok(Scheduler { shared, workers })
    }

    /// The device this scheduler drives.
    pub fn device(&self) -> &Arc<VirtualDevice> {
        &self.shared.device
    }

    /// The scheduler's runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The span collector this scheduler records into, when tracing.
    pub fn trace(&self) -> Option<&Arc<TraceCollector>> {
        self.shared.trace.as_ref()
    }

    /// The plan cache this scheduler compiles through.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        self.shared.executors.plan_cache()
    }

    /// Counters of the sharded execution path, or `None` when no
    /// sharded job has been submitted yet — the `shard` section of the
    /// unified telemetry document.
    pub fn shard_telemetry(&self) -> Option<spn_telemetry::ShardTelemetry> {
        self.shared.executors.shard_telemetry()
    }

    /// Convenience: a point-in-time [`MetricsSnapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Number of jobs currently accepted and not yet terminal — the
    /// live queue depth a serving layer polls for admission control.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().jobs.len()
    }

    /// Samples belonging to accepted, not-yet-terminal jobs (the
    /// work-weighted companion of [`Scheduler::queue_depth`]).
    pub fn samples_in_flight(&self) -> u64 {
        self.shared.metrics.samples_in_flight()
    }

    /// Graceful drain: refuse all further submissions (they get
    /// [`RuntimeError::ShuttingDown`]) and block until every accepted
    /// job has reached a terminal state. Idempotent; the scheduler
    /// stays drained afterwards (this is a shutdown primitive, not a
    /// pause).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        // Wake blocked submitters so they observe the drain and bail.
        self.shared.space_cv.notify_all();
        let mut st = self.shared.state.lock();
        while !st.jobs.is_empty() {
            self.shared.space_cv.wait(&mut st);
        }
    }

    /// Submit a job. Returns immediately with a [`JobHandle`], or
    /// [`RuntimeError::QueueFull`] when `queue_capacity` jobs are
    /// already in flight (backpressure — retry later or use
    /// [`Scheduler::submit_blocking`]).
    pub fn submit(&self, data: Arc<Dataset>, opts: JobOptions) -> Result<JobHandle, RuntimeError> {
        self.submit_inner(data, opts, false, &mut None)
    }

    /// Like [`Scheduler::submit`], but blocks until queue space is
    /// available instead of returning [`RuntimeError::QueueFull`].
    pub fn submit_blocking(
        &self,
        data: Arc<Dataset>,
        opts: JobOptions,
    ) -> Result<JobHandle, RuntimeError> {
        self.submit_inner(data, opts, true, &mut None)
    }

    /// Like [`Scheduler::submit_blocking`], but the outcome goes to
    /// `then` instead of to [`JobHandle::wait`] — for a caller that
    /// would otherwise park a thread in `wait` only to pass the result
    /// on. `then` runs exactly once: with the refusal, right here, when
    /// the submission is refused (`None` is returned); otherwise on
    /// whichever thread makes the job terminal — the control thread
    /// that finished its last block, a [`JobHandle::cancel`] caller,
    /// the thread dropping the scheduler, or, for a zero-sample job,
    /// the submitter. It runs with no scheduler lock held, but it *is*
    /// a PE's control thread standing still: keep it short, and never
    /// submit from it (a blocking submit against a full queue waits for
    /// space that only control threads free). The returned handle can
    /// still `cancel`, `poll` and report `progress`. The caller may
    /// park here, for queue space; in [`Scheduler::submit_then`] never.
    pub fn submit_blocking_then(
        &self,
        data: Arc<Dataset>,
        opts: JobOptions,
        then: impl FnOnce(JobResult) + Send + 'static,
    ) -> Option<JobHandle> {
        self.submit_consumed(data, opts, true, then)
    }

    /// The non-blocking twin of [`Scheduler::submit_blocking_then`],
    /// for a thread that must not park (an event loop): a full queue is
    /// a refusal like any other — `then` runs right here with
    /// [`RuntimeError::QueueFull`]. A one-block job cheaper than a
    /// hand-off (a small compiled-plan block, never a device one) runs
    /// right here, in the stead of a parked control thread that may
    /// claim it — that thread's retries, PE-busy time and span track —
    /// and `then` runs before this returns. Everything else is as there.
    pub fn submit_then(
        &self,
        data: Arc<Dataset>,
        opts: JobOptions,
        then: impl FnOnce(JobResult) + Send + 'static,
    ) -> Option<JobHandle> {
        self.submit_consumed(data, opts, false, then)
    }

    fn submit_consumed(
        &self,
        data: Arc<Dataset>,
        opts: JobOptions,
        blocking: bool,
        then: impl FnOnce(JobResult) + Send + 'static,
    ) -> Option<JobHandle> {
        let mut consumer: Option<Consumer> = Some(Box::new(then));
        match self.submit_inner(data, opts, blocking, &mut consumer) {
            Ok(handle) => Some(handle),
            Err(e) => {
                let then = consumer.take().expect("only an accepted job takes it");
                then(Err(e));
                None
            }
        }
    }

    /// `consumer` is taken iff the job is accepted.
    fn submit_inner(
        &self,
        data: Arc<Dataset>,
        opts: JobOptions,
        blocking: bool,
        consumer: &mut Option<Consumer>,
    ) -> Result<JobHandle, RuntimeError> {
        let num_pes = self.shared.device.num_pes();
        let pe_limit = opts.num_pes.unwrap_or(num_pes);
        if pe_limit == 0 || pe_limit > num_pes {
            return Err(RuntimeError::InvalidConfig {
                reason: format!("job requests {pe_limit} PEs but the device has {num_pes}"),
            });
        }
        if self.shared.pe_cfg.input_bytes != data.num_features() as u64 {
            return Err(RuntimeError::ShapeMismatch {
                expected_bytes: self.shared.pe_cfg.input_bytes,
                got_bytes: data.num_features() as u64,
            });
        }
        let (executor, provenance) = self.shared.executors.resolve(opts.backend)?;
        let total = data.num_samples();
        let blocks = split_into_blocks(total as u64, self.shared.config.block_samples);
        // Only `submit_then` (a consumer, never parking) stands in.
        let may_stand_in =
            !blocking && consumer.is_some() && blocks.len() == 1 && executor.runs_inline(total);

        let mut st = self.shared.state.lock();
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(RuntimeError::ShuttingDown);
        }
        let capacity = self.shared.config.queue_capacity;
        while !blocks.is_empty() && st.jobs.len() >= capacity {
            if !blocking {
                return Err(RuntimeError::QueueFull { capacity });
            }
            self.shared.space_cv.wait(&mut st);
            // The wake may be the drain/drop path telling us to
            // give up rather than space opening.
            if self.shared.draining.load(Ordering::Acquire) {
                return Err(RuntimeError::ShuttingDown);
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        let empty = blocks.is_empty();
        let job = Arc::new(JobState {
            id,
            data,
            blocks,
            pe_limit,
            opts,
            executor,
            provenance,
            next_block: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            blocks_done: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            terminal: AtomicBool::new(empty),
            results: Mutex::new(vec![0.0f64; total]),
            completion: Mutex::new(Phase::Active(consumer.take())),
            done_cv: Condvar::new(),
        });
        // Counted before a control thread can see the job: one that is
        // between blocks claims it the moment it is queued, and would
        // otherwise count it finished before it was counted submitted.
        self.shared.metrics.job_submitted(job.samples());
        if empty {
            drop(st);
            // A zero-sample job is trivially complete.
            publish(&self.shared, &job, Ok(Vec::new()));
        } else {
            st.jobs.push(Arc::clone(&job));
            // Wake one parked control thread per block, and only ones that
            // may claim it: one on a PE past `pe_limit` would park again while
            // the job sat unclaimed. Busy threads claim on their next turn.
            let wake: Vec<usize> = (0..st.park.len())
                .filter(|&w| st.park[w] == Park::Parked && (w as u32 % num_pes) < pe_limit)
                .take(job.blocks.len())
                .collect();
            if let (true, Some(&w)) = (may_stand_in, wake.first()) {
                stand_in(&self.shared, st, w, &job);
            } else {
                for &w in &wake {
                    st.park[w] = Park::Awake;
                }
                drop(st);
                self.shared
                    .wakes_issued
                    .fetch_add(wake.len() as u64, Ordering::Relaxed);
                for w in wake {
                    self.shared.work_cv[w].notify_one();
                }
            }
        }
        Ok(JobHandle {
            job,
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Drop for Scheduler {
    /// Deterministic shutdown, in this order:
    ///
    /// 1. mark the scheduler draining so every submitter — including
    ///    `submit_blocking` callers parked on the space condvar — gets
    ///    [`RuntimeError::ShuttingDown`] instead of enqueueing into a
    ///    pool that will never run their job (the old ordering could
    ///    deadlock such callers forever);
    /// 2. mark every queued job cancelled *before* stopping the pool,
    ///    so no worker claims a fresh block during teardown;
    /// 3. stop and join the workers (in-flight blocks finish, freeing
    ///    their device buffers);
    /// 4. finalise whatever jobs remain as `Cancelled`, unblocking
    ///    their waiters.
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        {
            let st = self.shared.state.lock();
            for job in &st.jobs {
                job.cancelled.store(true, Ordering::Relaxed);
            }
            // Under the lock `worker_loop` reads the flag under: a
            // control thread between that read and its `wait` holds the
            // lock, so it has either seen the flag or is already waiting
            // when the notifications below go out.
            self.shared.shutdown.store(true, Ordering::Release);
        }
        for cv in &self.shared.work_cv {
            cv.notify_all();
        }
        self.shared.space_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Unblock waiters of any job the pool never finished.
        let leftovers = std::mem::take(&mut self.shared.state.lock().jobs);
        for job in leftovers {
            if !job.terminal.swap(true, Ordering::Relaxed) {
                publish(&self.shared, &job, Err(RuntimeError::Cancelled));
            }
        }
        self.shared.space_cv.notify_all();
    }
}

/// What happened to one claimed block.
enum BlockOutcome {
    /// Ran to completion; results stored.
    Done,
    /// Not executed because the job was cancelled/failed meanwhile.
    Skipped,
    /// Permanent failure (or transient failure with retries exhausted).
    Failed(RuntimeError),
}

/// One persistent control thread — worker `w`, pinned to `pe` (a PE
/// only reaches its own HBM channel — the paper's no-crossbar design).
fn worker_loop(shared: &Shared, w: usize, pe: u32) {
    loop {
        let (job, idx) = {
            let mut st = shared.state.lock();
            let mut woken = false;
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(claim) = claim_block(&mut st, pe) {
                    break claim;
                }
                if woken {
                    shared.idle_wakes.fetch_add(1, Ordering::Relaxed);
                }
                // Under the lock `submit_inner` picks its wakes under.
                st.park[w] = Park::Parked;
                shared.work_cv[w].wait(&mut st);
                // Lent to a submitter: sleep on until it gives us back.
                while st.park[w] == Park::Lent && !shared.shutdown.load(Ordering::Acquire) {
                    shared.work_cv[w].wait(&mut st);
                }
                st.park[w] = Park::Awake;
                woken = true;
            }
        };
        process_block(shared, w as u32, pe, &job, idx);
    }
}

/// Run `job`'s one block through `w`'s own `process_block`, with parked
/// control thread `w` lent meanwhile (no submit wakes it). Giving `w`
/// back wakes it only if a block it may claim was queued meanwhile.
fn stand_in(shared: &Shared, mut st: MutexGuard<'_, State>, w: usize, job: &Arc<JobState>) {
    let pe = w as u32 % shared.device.num_pes();
    job.next_block.store(1, Ordering::Relaxed);
    job.in_flight.store(1, Ordering::Relaxed);
    st.park[w] = Park::Lent;
    drop(st);
    shared.inline_blocks.fetch_add(1, Ordering::Relaxed);
    process_block(shared, w as u32, pe, job, 0);
    let mut st = shared.state.lock();
    let wake = st.jobs.iter().any(|j| j.claimable_by(pe));
    st.park[w] = if wake { Park::Awake } else { Park::Parked };
    drop(st);
    if wake {
        shared.wakes_issued.fetch_add(1, Ordering::Relaxed);
        shared.work_cv[w].notify_one();
    }
}

/// Claim the next block of the next eligible job after the round-robin
/// cursor. Per-job FIFO (blocks in order), round-robin across jobs.
fn claim_block(st: &mut State, pe: u32) -> Option<(Arc<JobState>, usize)> {
    let n = st.jobs.len();
    let i = (0..n)
        .map(|k| (st.rr + k) % n)
        .find(|&i| st.jobs[i].claimable_by(pe))?;
    let job = &st.jobs[i];
    let next = job.next_block.fetch_add(1, Ordering::Relaxed);
    job.in_flight.fetch_add(1, Ordering::Relaxed);
    let claim = (Arc::clone(job), next);
    st.rr = (i + 1) % n;
    Some(claim)
}

/// One control-thread iteration, the same for every backend: slice
/// the block's input out of the dataset, run the job's executor into a
/// block-local buffer (retrying transient failures), account the PE's
/// time and store the results — the executor runs outside
/// `job.results`' lock, which is held only for the copy. Then do the
/// completion bookkeeping, possibly finalising the whole job. `tid` is
/// the calling worker's index, which its spans are recorded under.
/// Inlined into both callers: `worker_loop` keeps its one-caller layout.
#[inline(always)]
fn process_block(shared: &Shared, tid: u32, pe: u32, job: &Arc<JobState>, idx: usize) {
    let block = job.blocks[idx];
    let (src_off, src_len) = block.input_range(job.data.num_features() as u64);
    let src = &job.data.raw()[src_off as usize..(src_off + src_len) as usize];
    let cx = BlockCx {
        pe,
        tid,
        block: idx as u64,
        samples: block.samples as usize,
        ctx: job.opts.ctx,
        trace: shared.trace.as_deref(),
        metrics: &shared.metrics,
    };
    let mut out = Vec::with_capacity(cx.samples);
    let mut attempt: u32 = 0;
    let outcome = loop {
        if job.cancelled.load(Ordering::Relaxed) || job.terminal.load(Ordering::Relaxed) {
            break BlockOutcome::Skipped;
        }
        out.clear();
        let t0 = Instant::now();
        match job.executor.run_block(&cx, src, &mut out) {
            Ok(()) => {
                shared.metrics.add_pe_busy(pe, t0.elapsed());
                let first = block.first_sample as usize;
                job.results.lock()[first..first + cx.samples].copy_from_slice(&out);
                break BlockOutcome::Done;
            }
            Err(e) if e.is_transient() && attempt < job.opts.max_retries => {
                attempt += 1;
                shared.metrics.block_retried();
                let backoff =
                    Duration::from_micros(job.opts.retry_backoff_us.saturating_mul(attempt as u64))
                        .min(MAX_BACKOFF);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Err(e) => break BlockOutcome::Failed(e),
        }
    };

    let st = shared.state.lock();
    job.in_flight.fetch_sub(1, Ordering::Relaxed);
    if job.terminal.load(Ordering::Relaxed) {
        // Another worker already finalised the job (failure races).
        return;
    }
    let mut all_done = false;
    if let BlockOutcome::Done = outcome {
        shared.metrics.block_executed();
        let done = job.blocks_done.fetch_add(1, Ordering::Relaxed) + 1;
        all_done = done as usize == job.blocks.len();
    }
    match outcome {
        BlockOutcome::Failed(e) => {
            // First failure wins: stop claims and fail the job. Other
            // in-flight blocks of this job drain harmlessly; other
            // jobs are untouched.
            job.cancelled.store(true, Ordering::Relaxed);
            retire(shared, st, job, || Err(e));
        }
        _ if all_done => retire(shared, st, job, || verified_results(shared, job)),
        _ if job.cancelled.load(Ordering::Relaxed)
            && job.in_flight.load(Ordering::Relaxed) == 0 =>
        {
            retire(shared, st, job, || Err(RuntimeError::Cancelled))
        }
        _ => {}
    }
}

/// The one terminal transition. Under the state lock the job stops
/// being claimable and leaves the queue; with the lock released its
/// outcome is computed (verification sampling may take a while) and
/// published. The caller has checked `terminal` is still unset.
fn retire(
    shared: &Shared,
    mut st: MutexGuard<'_, State>,
    job: &Arc<JobState>,
    result: impl FnOnce() -> JobResult,
) {
    job.terminal.store(true, Ordering::Relaxed);
    st.jobs.retain(|j| !Arc::ptr_eq(j, job));
    drop(st);
    publish(shared, job, result());
}

/// Count a job's outcome, wake anyone waiting for queue space, and
/// hand `result` to its one consumer: the closure the job was
/// submitted with, else the [`JobHandle::wait`] caller. Called exactly
/// once per accepted job, with no scheduler lock held — the consumer
/// runs right here, on the calling thread.
fn publish(shared: &Shared, job: &JobState, result: JobResult) {
    let outcome = match &result {
        Ok(_) => JobOutcome::Completed,
        Err(RuntimeError::Cancelled) => JobOutcome::Cancelled,
        Err(_) => JobOutcome::Failed,
    };
    shared.metrics.job_finished(outcome, job.samples());
    shared.space_cv.notify_all();
    let mut phase = job.completion.lock();
    match std::mem::replace(&mut *phase, Phase::Done(outcome, None)) {
        Phase::Active(Some(consume)) => {
            drop(phase);
            consume(result);
        }
        Phase::Active(None) => {
            *phase = Phase::Done(outcome, Some(result));
            drop(phase);
            job.done_cv.notify_all();
        }
        Phase::Done(..) => unreachable!("a job is published once"),
    }
}

/// All blocks done: the job's results, or the verification failure.
/// Only device-precision results are checked: host results *are* exact
/// host arithmetic, while the golden check's tight tolerance assumes
/// device-format output re-computed by the same bit-accurate core.
fn verified_results(shared: &Shared, job: &JobState) -> JobResult {
    let results = std::mem::take(&mut *job.results.lock());
    if job.provenance == ExecProvenance::Device {
        verify_results(shared, job, &results)?;
    }
    Ok(results)
}

/// Spot-check a deterministic stride of results against the host
/// golden model (the paper's defence against silent transient faults).
fn verify_results(shared: &Shared, job: &JobState, results: &[f64]) -> Result<(), RuntimeError> {
    let n = results.len();
    let checks = ((n as f64 * shared.config.verify_fraction).ceil() as usize).min(n);
    if checks == 0 {
        return Ok(());
    }
    let stride = (n / checks).max(1);
    for i in (0..n).step_by(stride) {
        let expected = shared.device.golden(0, job.data.row(i))?;
        let got = results[i];
        if disagrees(got, expected) {
            return Err(RuntimeError::VerificationFailed {
                index: i,
                got,
                expected,
            });
        }
    }
    Ok(())
}

/// Whether a device result disagrees with the golden model's: neither
/// bit-equal nor within a relative 1e-12. A NaN is within no tolerance,
/// so it agrees only with the very same NaN.
fn disagrees(got: f64, expected: f64) -> bool {
    let tolerance = expected.abs() * 1e-12 + f64::MIN_POSITIVE;
    let within = (got - expected).abs() <= tolerance;
    got.to_bits() != expected.to_bits() && !within
}

#[cfg(test)]
impl JobHandle {
    /// How this job's results are produced: device execution, or a
    /// compiled host plan (with its cache-hit flag). Fixed at
    /// submission, before any result exists.
    pub(crate) fn provenance(&self) -> ExecProvenance {
        self.job.provenance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FaultInjection;
    use crate::job::ExecBackend;
    use crate::plan_cache::INLINE_OP_ROWS;
    use sim_core::MIB;
    use spn_arith::{AnyFormat, CfpFormat};
    use spn_core::Query;
    use spn_core::{Evaluator, NipsBenchmark};
    use spn_hw::{AcceleratorConfig, DatapathProgram};
    use spn_telemetry::SpanKind;

    fn device(pes: u32) -> (Arc<VirtualDevice>, NipsBenchmark) {
        let (dev, bench) = unshared_device(pes);
        (Arc::new(dev), bench)
    }

    fn unshared_device(pes: u32) -> (VirtualDevice, NipsBenchmark) {
        let bench = NipsBenchmark::Nips10;
        let prog = DatapathProgram::compile(&bench.build_spn());
        let dev = VirtualDevice::new(
            prog,
            AnyFormat::Cfp(CfpFormat::paper_default()),
            AcceleratorConfig::paper_default(),
            pes,
            16 * MIB,
        );
        (dev, bench)
    }

    fn config(block: u64, threads: u32) -> RuntimeConfig {
        RuntimeConfig::builder()
            .block_samples(block)
            .threads_per_pe(threads)
            .build()
            .unwrap()
    }

    fn reference(bench: NipsBenchmark, data: &Dataset) -> Vec<f64> {
        let spn = bench.build_spn();
        let mut ev = Evaluator::new(&spn);
        data.rows()
            .map(|r| ev.eval_bytes(&Query::Complete, r).exp())
            .collect()
    }

    #[test]
    fn submit_wait_matches_reference() {
        let (dev, bench) = device(2);
        let sched = Scheduler::new(dev, config(64, 2)).unwrap();
        let data = Arc::new(bench.dataset(777, 5));
        let handle = sched
            .submit(Arc::clone(&data), JobOptions::default())
            .unwrap();
        assert!(handle.id() > 0);
        let got = handle.wait().unwrap();
        let want = reference(bench, &data);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!(((g - w) / w).abs() < 1e-4);
        }
        let m = sched.metrics_snapshot();
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.blocks_executed, 777u64.div_ceil(64));
        assert_eq!(m.block_retries, 0);
        assert_eq!(m.jobs_in_flight, 0);
    }

    #[test]
    fn empty_job_completes_immediately() {
        let (dev, bench) = device(1);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let data = Arc::new(bench.dataset(0, 1));
        let handle = sched.submit(data, JobOptions::default()).unwrap();
        assert_eq!(handle.poll(), JobStatus::Completed);
        assert!(handle.wait().unwrap().is_empty());
        assert_eq!(sched.metrics_snapshot().jobs_completed, 1);
    }

    #[test]
    fn queue_full_backpressure() {
        // Paced, so job 1 outlasts the re-submit below however fast the
        // host emulates the datapath and however late the test thread
        // is rescheduled.
        let (dev, bench) = unshared_device(1);
        let dev = Arc::new(dev.with_pacing(Duration::from_micros(1)));
        let cfg = RuntimeConfig::builder()
            .block_samples(16)
            .threads_per_pe(1)
            .queue_capacity(1)
            .build()
            .unwrap();
        let sched = Scheduler::new(dev, cfg).unwrap();
        let big = Arc::new(bench.dataset(20_000, 1));
        let h1 = sched
            .submit(Arc::clone(&big), JobOptions::default())
            .unwrap();
        // The single-capacity queue is occupied while job 1 runs, so at
        // least one immediate re-submit must bounce (the first job needs
        // 1250 blocks; it cannot finish faster than we can re-try).
        let saw_queue_full = match sched.submit(Arc::clone(&big), JobOptions::default()) {
            Err(RuntimeError::QueueFull { capacity: 1 }) => true,
            Err(other) => panic!("unexpected error {other}"),
            Ok(h) => {
                // Job 1 already drained — should be impossible at 1250
                // blocks; clean up so the assert below reports it.
                h.cancel();
                let _ = h.wait();
                false
            }
        };
        assert!(saw_queue_full, "bounded queue should exert backpressure");
        // submit_then hands the refusal to its consumer, here and now.
        let (tx, rx) = std::sync::mpsc::channel();
        let refused = sched.submit_then(Arc::clone(&big), JobOptions::default(), move |r| {
            tx.send(r).unwrap()
        });
        assert!(refused.is_none());
        assert!(matches!(
            rx.try_recv(),
            Ok(Err(RuntimeError::QueueFull { capacity: 1 }))
        ));
        // submit_blocking waits for space instead of bouncing.
        let h2 = sched
            .submit_blocking(Arc::clone(&big), JobOptions::default())
            .unwrap();
        h1.wait().unwrap();
        h2.wait().unwrap();
    }

    /// A one-block job wakes one control thread, and one that can claim
    /// it — not the pool, seven of whose eight threads would take the
    /// state lock, find nothing and park again. (A woken thread can
    /// still lose its block to one that was between blocks.)
    #[test]
    fn one_block_jobs_do_not_wake_the_pool() {
        let (dev, bench) = device(4);
        let sched = Scheduler::new(dev, config(64, 2)).unwrap();
        let data = Arc::new(bench.dataset(1, 9));
        for _ in 0..500 {
            sched
                .submit(Arc::clone(&data), JobOptions::default())
                .unwrap()
                .wait()
                .unwrap();
        }
        // What `submit_inner` controls is how many threads it notifies
        // (wake-everyone would issue 4000). Whether a woken thread then
        // loses its block to one that was between blocks is the OS
        // scheduler's choice: printed, not asserted.
        let issued = sched.shared.wakes_issued.load(Ordering::Relaxed);
        let idle = sched.shared.idle_wakes.load(Ordering::Relaxed);
        println!("{issued} wakes issued, {idle} found nothing to claim");
        assert!(
            issued <= 500,
            "{issued} wakes issued for 500 one-block jobs"
        );
    }

    /// A scheduler whose device carries its model, so every backend
    /// runs on it; one control thread per PE.
    fn model_scheduler(dev: VirtualDevice, block: u64) -> Scheduler {
        let spn = Arc::new(NipsBenchmark::Nips10.build_spn());
        Scheduler::new(Arc::new(dev.with_model(spn)), config(block, 1)).unwrap()
    }

    fn backend(backend: ExecBackend) -> JobOptions {
        JobOptions::builder().backend(backend).build().unwrap()
    }

    /// Until every control thread sleeps on its condvar: only then is
    /// the scheduler idle in the sense the stand-in rule reads.
    fn wait_parked(sched: &Scheduler) {
        let t0 = Instant::now();
        let all_parked = || {
            sched
                .shared
                .state
                .lock()
                .park
                .iter()
                .all(|&p| p == Park::Parked)
        };
        while !all_parked() {
            assert!(t0.elapsed() < Duration::from_secs(10), "never parked");
            std::thread::yield_now();
        }
    }

    fn inline_blocks(sched: &Scheduler) -> u64 {
        sched.shared.inline_blocks.load(Ordering::Relaxed)
    }

    /// Submit `data` with a consumer, blocking or not; whether the
    /// consumer had run when the submit returned, the thread it ran on
    /// and the job's result.
    fn consume(
        sched: &Scheduler,
        data: &Arc<Dataset>,
        opts: JobOptions,
        blocking: bool,
    ) -> (bool, std::thread::ThreadId, Vec<f64>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let then = move |r: JobResult| tx.send((std::thread::current().id(), r)).unwrap();
        let data = Arc::clone(data);
        let handle = if blocking {
            sched.submit_blocking_then(data, opts, then)
        } else {
            sched.submit_then(data, opts, then)
        };
        assert!(handle.is_some(), "accepted");
        let early = rx.try_recv().ok();
        let ran_before_return = early.is_some();
        let (thread, result) =
            early.unwrap_or_else(|| rx.recv_timeout(Duration::from_secs(10)).unwrap());
        (ran_before_return, thread, result.unwrap())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The caller is the control thread: on an idle scheduler, a one-row
    /// compiled-plan job given to `submit_then` has run its consumer on
    /// the calling thread before `submit_then` returns, counted as a
    /// block like any other, with the control threads' bits.
    #[test]
    fn an_idle_scheduler_runs_a_small_host_block_on_the_submitter() {
        let (dev, bench) = unshared_device(2);
        let sched = model_scheduler(dev, 64);
        wait_parked(&sched);
        let data = Arc::new(bench.dataset(1, 3));
        let host = backend(ExecBackend::HostPlan);
        let (ran_before_return, thread, got) = consume(&sched, &data, host, false);
        assert!(
            ran_before_return,
            "the consumer ran before submit_then returned"
        );
        assert_eq!(thread, std::thread::current().id());
        assert_eq!(inline_blocks(&sched), 1);
        let want = sched.submit(data, host).unwrap().wait().unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(inline_blocks(&sched), 1, "submit never stands in");
        let m = sched.metrics_snapshot();
        assert_eq!((m.blocks_executed, m.jobs_completed), (2, 2));
        // The lent thread was given back: both PEs' threads park again.
        wait_parked(&sched);
    }

    /// Everything the stand-in rule does not name runs on a control
    /// thread, each case failing exactly one of its conditions on an
    /// otherwise idle scheduler.
    #[test]
    fn other_jobs_run_on_control_threads() {
        let bench = NipsBenchmark::Nips10;
        let host = backend(ExecBackend::HostPlan);
        let sharded = backend(ExecBackend::Sharded(2));
        let over = INLINE_OP_ROWS / bench.build_spn().stats().nodes + 1;
        let me = std::thread::current().id();
        // (case, block samples, rows, options, blocking)
        let cases = [
            ("a Device job", 64, 1, JobOptions::default(), false),
            ("a Sharded(2) job", 64, 1, sharded, false),
            ("a two-block job", 1, 2, host, false),
            ("a block over INLINE_OP_ROWS", 64, over, host, false),
            ("submit_blocking_then", 64, 1, host, true),
        ];
        for (case, block, rows, opts, blocking) in cases {
            let sched = model_scheduler(unshared_device(2).0, block);
            wait_parked(&sched);
            let data = Arc::new(bench.dataset(rows, 3));
            let (_, thread, got) = consume(&sched, &data, opts, blocking);
            assert_ne!(thread, me, "{case} ran on its submitter");
            assert_eq!(got.len(), rows, "{case}");
            assert_eq!(inline_blocks(&sched), 0, "{case}");
        }

        // `submit` has no consumer to run.
        let sched = model_scheduler(unshared_device(2).0, 64);
        wait_parked(&sched);
        let one = Arc::new(bench.dataset(1, 3));
        sched
            .submit(Arc::clone(&one), host)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(inline_blocks(&sched), 0, "submit");

        // The one control thread is busy with a paced device job: no
        // thread is parked, so the small job queues behind it.
        let (dev, _) = unshared_device(1);
        let sched = model_scheduler(dev.with_pacing(Duration::from_micros(20)), 64);
        wait_parked(&sched);
        let hold = sched
            .submit(Arc::new(bench.dataset(640, 1)), JobOptions::default())
            .unwrap();
        let (_, thread, _) = consume(&sched, &one, host, false);
        assert_ne!(
            thread, me,
            "a job behind a busy thread ran on its submitter"
        );
        assert_eq!(inline_blocks(&sched), 0, "busy");
        hold.wait().unwrap();
    }

    #[test]
    fn shape_mismatch_rejected_at_submit() {
        let (dev, _) = device(1);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let wrong = Arc::new(NipsBenchmark::Nips20.dataset(10, 1));
        assert!(matches!(
            sched.submit(wrong, JobOptions::default()),
            Err(RuntimeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn pe_limit_out_of_range_rejected() {
        let (dev, bench) = device(2);
        let sched = Scheduler::new(dev, config(64, 1)).unwrap();
        let data = Arc::new(bench.dataset(10, 1));
        let opts = JobOptions::builder().num_pes(3).build().unwrap();
        assert!(matches!(
            sched.submit(data, opts),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn golden_check_rejects_nan_and_far_results() {
        for (got, expected) in [
            (f64::NAN, 0.25),
            (f64::NAN, f64::NEG_INFINITY),
            (0.25, f64::NAN),
            (f64::INFINITY, 1.0),
            (0.25 * (1.0 + 1e-11), 0.25),
        ] {
            assert!(disagrees(got, expected), "{got} passed against {expected}");
        }
        for (got, expected) in [
            (0.25, 0.25),
            (0.25 * (1.0 + 1e-13), 0.25),
            (0.0, f64::MIN_POSITIVE),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        ] {
            assert!(!disagrees(got, expected), "{got} failed against {expected}");
        }
    }

    #[test]
    fn transient_faults_retried_to_success() {
        let bench = NipsBenchmark::Nips10;
        let prog = DatapathProgram::compile(&bench.build_spn());
        let dev = Arc::new(
            VirtualDevice::new(
                prog,
                AnyFormat::Cfp(CfpFormat::paper_default()),
                AcceleratorConfig::paper_default(),
                2,
                16 * MIB,
            )
            .with_faults(FaultInjection {
                launch_fail_probability: 0.4,
                seed: 41,
                ..FaultInjection::default()
            }),
        );
        let sched = Scheduler::new(dev, config(128, 2)).unwrap();
        let data = Arc::new(bench.dataset(1500, 6));
        let opts = JobOptions::builder()
            .max_retries(64)
            .retry_backoff_us(0)
            .build()
            .unwrap();
        let got = sched
            .submit(Arc::clone(&data), opts)
            .unwrap()
            .wait()
            .unwrap();
        let want = reference(bench, &data);
        for (g, w) in got.iter().zip(&want) {
            assert!(((g - w) / w).abs() < 1e-4);
        }
        let m = sched.metrics_snapshot();
        assert!(m.block_retries > 0, "p=0.4 must have caused retries");
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.jobs_failed, 0);
    }

    #[test]
    fn queue_depth_and_samples_gauge_track_jobs() {
        // Paced, so the job is still running when the gauges are read
        // right after `submit`, however fast the host emulates the
        // datapath.
        let (dev, bench) = unshared_device(1);
        let dev = Arc::new(dev.with_pacing(Duration::from_micros(1)));
        let sched = Scheduler::new(dev, config(16, 1)).unwrap();
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(sched.samples_in_flight(), 0);
        let data = Arc::new(bench.dataset(30_000, 3));
        let h = sched
            .submit(Arc::clone(&data), JobOptions::default())
            .unwrap();
        // While the job runs, both gauges are live and non-zero.
        assert_eq!(sched.queue_depth(), 1);
        assert_eq!(sched.samples_in_flight(), 30_000);
        h.wait().unwrap();
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(sched.samples_in_flight(), 0);
        assert_eq!(sched.metrics_snapshot().samples_in_flight, 0);
    }

    #[test]
    fn drain_refuses_new_jobs_and_finishes_accepted_ones() {
        let (dev, bench) = device(2);
        let sched = Scheduler::new(dev, config(64, 2)).unwrap();
        let data = Arc::new(bench.dataset(5_000, 4));
        let h = sched
            .submit(Arc::clone(&data), JobOptions::default())
            .unwrap();
        sched.drain();
        // Accepted work ran to completion during the drain...
        assert_eq!(sched.queue_depth(), 0);
        let got = h.wait().unwrap();
        assert_eq!(got.len(), 5_000);
        // ...and both submit flavours are refused afterwards.
        assert!(matches!(
            sched.submit(Arc::clone(&data), JobOptions::default()),
            Err(RuntimeError::ShuttingDown)
        ));
        assert!(matches!(
            sched.submit_blocking(data, JobOptions::default()),
            Err(RuntimeError::ShuttingDown)
        ));
        // Idempotent.
        sched.drain();
    }

    /// Regression test for the shutdown ordering: a `submit_blocking`
    /// caller parked on the full queue must be woken with
    /// `ShuttingDown` when the scheduler shuts down — the old ordering
    /// let it enqueue into the dead pool and wait forever. `drain()`
    /// and `Drop` share this wake path (`draining` is set before the
    /// space condvar is notified); `drain()` is the testable entry.
    #[test]
    fn shutdown_wakes_blocked_submitters_with_shutting_down() {
        // Paced, so the long job holds the queue's one slot for 100 ms
        // however fast the host emulates the datapath.
        let (dev, bench) = unshared_device(1);
        let dev = Arc::new(dev.with_pacing(Duration::from_micros(2)));
        let cfg = RuntimeConfig::builder()
            .block_samples(16)
            .threads_per_pe(1)
            .queue_capacity(1)
            .build()
            .unwrap();
        let sched = Arc::new(Scheduler::new(dev, cfg).unwrap());
        let big = Arc::new(bench.dataset(50_000, 1));
        let h1 = sched
            .submit(Arc::clone(&big), JobOptions::default())
            .unwrap();
        let s2 = Arc::clone(&sched);
        let b2 = Arc::clone(&big);
        let blocked = std::thread::spawn(move || {
            // Queue capacity 1 is occupied by the long job; this parks
            // (or observes the drain immediately if it loses the race).
            match s2.submit_blocking(b2, JobOptions::default()) {
                Err(RuntimeError::ShuttingDown) => {}
                Ok(_) => panic!("submission accepted during shutdown"),
                Err(other) => panic!("unexpected error {other}"),
            }
        });
        // Give the thread time to park on the space condvar.
        std::thread::sleep(Duration::from_millis(30));
        sched.drain();
        blocked.join().expect("blocked submitter must not deadlock");
        h1.wait().expect("accepted job completes during drain");
    }

    #[test]
    fn traced_scheduler_stamps_job_ctx_on_device_spans() {
        let (dev, bench) = device(2);
        let trace = Arc::new(TraceCollector::new());
        let sched = Scheduler::with_trace(dev, config(64, 1), Some(Arc::clone(&trace))).unwrap();
        assert!(sched.trace().is_some());
        let ctx = spn_telemetry::SpanCtx::mint();
        let data = Arc::new(bench.dataset(130, 5));
        let opts = JobOptions::builder().ctx(ctx).build().unwrap();
        sched
            .submit(Arc::clone(&data), opts)
            .unwrap()
            .wait()
            .unwrap();
        let spans = trace.spans();
        // 3 blocks of ≤64 samples × (h2d, execute, d2h).
        assert_eq!(spans.len(), 9);
        assert!(
            spans.iter().all(|s| s.ctx == ctx),
            "all spans carry the job ctx"
        );
        for kind in [SpanKind::H2D, SpanKind::Execute, SpanKind::D2H] {
            assert_eq!(spans.iter().filter(|s| s.kind == kind).count(), 3);
        }
        // An untraced scheduler records nothing and exposes no collector.
        let (dev2, _) = device(1);
        let plain = Scheduler::new(dev2, config(64, 1)).unwrap();
        assert!(plain.trace().is_none());
    }

    /// Regression test: `Drop` set `shutdown` and notified outside the
    /// state lock, so a control thread between its read of the flag and
    /// its `wait` — one just back from a block — slept through the
    /// wake-everyone and `drop` hung in `join`. Polling (not waiting)
    /// for a one-block job and dropping the moment it completes puts
    /// the drop beside that thread's return to the lock; 3000 rounds
    /// hung the old ordering in two runs of three.
    #[test]
    fn drop_never_misses_a_control_thread_about_to_park() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (dev, bench) = device(4);
            let data = Arc::new(bench.dataset(1, 9));
            for _ in 0..3000 {
                let sched = Scheduler::new(Arc::clone(&dev), config(64, 2)).unwrap();
                let handle = sched
                    .submit(Arc::clone(&data), JobOptions::default())
                    .unwrap();
                while handle.poll() != JobStatus::Completed {
                    std::hint::spin_loop();
                }
                drop(sched);
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("a scheduler drop hung joining a parked control thread");
    }

    #[test]
    fn dropping_scheduler_cancels_outstanding_jobs() {
        let (dev, bench) = device(1);
        let sched = Scheduler::new(dev, config(16, 1)).unwrap();
        let data = Arc::new(bench.dataset(50_000, 2));
        let handle = sched.submit(data, JobOptions::default()).unwrap();
        drop(sched);
        // The waiter is unblocked, not deadlocked.
        match handle.wait() {
            Ok(_) | Err(RuntimeError::Cancelled) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
