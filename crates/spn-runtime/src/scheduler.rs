//! The concurrent inference scheduler: many jobs, one accelerator.
//!
//! The paper's runtime drives each PE with control threads to overlap
//! transfer and compute, one job at a time. A [`Scheduler`] keeps those
//! threads alive across jobs (a **persistent worker pool**) and
//! multiplexes block-sized sub-jobs of *many* concurrent jobs across the
//! PEs: claimed **round-robin across jobs** (per-job FIFO), so a small
//! job behind a huge one still completes promptly; behind a bounded
//! queue ([`crate::RuntimeError::QueueFull`]); with transient failures
//! retried per block ([`JobOptions::max_retries`]); and with one job's
//! failure or cancellation never touching another's buffers or state.
//!
//! Every decision — which block a thread claims, who parks, is lent or
//! woken, when a job retires — is made by the I/O-free claim core
//! (`dispatch::Dispatch`), which [`crate::perf`] drives in virtual time
//! too. This module is its wall-clock shell: lock the state, call
//! the event, perform what it returns (notify a condvar, run an executor,
//! publish a result). It is backend-agnostic: a job's
//! [`crate::job::ExecBackend`] is resolved at submission into a block
//! executor, and every control thread runs one loop for every block —
//! slice the input, run the executor, store the results. What a device
//! transfer or a compiled plan *is* lives with the executors, beside
//! [`VirtualDevice`] and [`PlanCache`].

use crate::device::VirtualDevice;
use crate::dispatch::{Admitted, Claim, Dispatch, Ended};
use crate::executor::{BlockCx, BlockExecutor, Executors};
use crate::job::{block_len, split_into_blocks, Block, JobOptions};
use crate::metrics::{JobOutcome, MetricsRegistry, MetricsSnapshot};
use crate::plan_cache::PlanCache;
use crate::runtime::{validate_config, ExecProvenance, RuntimeConfig, RuntimeError};
use parking_lot::{Condvar, Mutex};
use spn_core::Dataset;
use spn_hw::SynthConfig;
use spn_telemetry::TraceCollector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on a single retry backoff sleep.
const MAX_BACKOFF: Duration = Duration::from_millis(50);

/// How a job ended: its results (one probability per sample, dataset
/// order) or why there are none — [`RuntimeError::Cancelled`] for a
/// job its scheduler shut down.
pub type JobResult = Result<Vec<f64>, RuntimeError>;

/// Takes a job's outcome in place of a [`JobHandle::wait`] caller (see
/// [`Scheduler::submit_blocking_then`]).
type Consumer = Box<dyn FnOnce(JobResult) + Send>;

/// Where a job's outcome is, behind its completion mutex: not terminal
/// yet (holding the job's consumer, if any), or terminal with the
/// result waiting for [`JobHandle::wait`] (`None` once consumed).
enum Phase {
    Active(Option<Consumer>),
    Done(Option<JobResult>),
}

/// One submitted job; where its blocks are is the dispatch state's.
struct JobState {
    id: u64,
    data: Arc<Dataset>,
    blocks: Vec<Block>,
    opts: JobOptions,
    /// Runs every block of this job (resolved from `opts.backend`).
    executor: Arc<dyn BlockExecutor>,
    /// How its results are produced: backend plus plan-cache state.
    provenance: ExecProvenance,
    /// Result accumulator, one slot per sample.
    results: Mutex<Vec<f64>>,
    completion: Mutex<Phase>,
    done_cv: Condvar,
}

/// Handle to a submitted job: its id, and `wait` for its outcome.
pub struct JobHandle {
    job: Arc<JobState>,
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
            Phase::Done(result) => result.take().unwrap_or_else(|| {
                Err(RuntimeError::InvalidConfig {
                    reason: "the job's outcome went to its completion consumer".into(),
                })
            }),
            Phase::Active(_) => unreachable!("loop exits only on terminal phase"),
        }
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
    /// The control-thread protocol: jobs, cursor, each thread's park.
    state: Mutex<Dispatch<Arc<JobState>>>,
    /// One per control thread, notified only when the dispatch state says.
    work_cv: Vec<Condvar>,
    /// Full-queue `submit_blocking` callers and `drain` wait here.
    space_cv: Condvar,
}

impl Shared {
    fn wake(&self, workers: &[usize]) {
        for &w in workers {
            self.work_cv[w].notify_one();
        }
    }
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
        let num_pes = device.num_pes();
        let num_workers = (num_pes * config.threads_per_pe) as usize;
        let shared = Arc::new(Shared {
            executors: Executors::new(Arc::clone(&device), plan_cache, trace.as_deref()),
            device,
            config,
            pe_cfg,
            metrics: Arc::new(MetricsRegistry::new(num_pes)),
            trace,
            state: Mutex::new(Dispatch::new(num_pes, num_workers, config.queue_capacity)),
            work_cv: (0..num_workers).map(|_| Condvar::new()).collect(),
            space_cv: Condvar::new(),
        });
        let workers = (0..num_workers)
            .map(|w| {
                let sh = Arc::clone(&shared);
                let (pe, t) = (w as u32 % num_pes, w as u32 / num_pes);
                std::thread::Builder::new()
                    .name(format!("spn-sched-pe{pe}-t{t}"))
                    .spawn(move || worker_loop(&sh, w))
                    .expect("spawn scheduler worker thread")
            })
            .collect();
        Ok(Scheduler { shared, workers })
    }

    /// The device this scheduler drives.
    pub fn device(&self) -> &Arc<VirtualDevice> {
        &self.shared.device
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

    /// Convenience: a point-in-time [`MetricsSnapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Number of jobs currently accepted and not yet terminal — the
    /// live queue depth a serving layer polls for admission control.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().len()
    }

    /// Graceful drain: refuse all further submissions (they get
    /// [`RuntimeError::ShuttingDown`]) and block until every accepted
    /// job has reached a terminal state. Idempotent; the scheduler
    /// stays drained afterwards (this is a shutdown primitive, not a
    /// pause).
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        st.drain();
        // Wake blocked submitters so they observe the drain and bail.
        self.shared.space_cv.notify_all();
        while st.len() > 0 {
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
    /// that finished its last block, the thread dropping the
    /// scheduler, or, for a zero-sample job,
    /// the submitter. It runs with no scheduler lock held, but it *is*
    /// a PE's control thread standing still: keep it short, and never
    /// submit from it (a blocking submit against a full queue waits for
    /// space that only control threads free). The returned handle
    /// still names the job's id. The caller may park here, for queue
    /// space; in [`Scheduler::submit_then`] never.
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
        let submitted = self.submit_inner(data, opts, blocking, &mut consumer);
        // Only an accepted job takes the consumer: a refusal goes to it.
        submitted
            .map_err(|e| consumer.map(|then| then(Err(e))))
            .ok()
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
        let block = block_len(total as u64, self.shared.config.block_samples, pe_limit);
        let blocks = split_into_blocks(total as u64, block);
        let num_blocks = blocks.len();
        // Only `submit_then` (a consumer, never parking) stands in.
        let stand_in = !blocking && consumer.is_some() && executor.runs_inline(total);
        let mut make = move |id| {
            let job = Arc::new(JobState {
                id,
                data,
                blocks,
                opts,
                executor,
                provenance,
                results: Mutex::new(vec![0.0f64; total]),
                completion: Mutex::new(Phase::Active(consumer.take())),
                done_cv: Condvar::new(),
            });
            // Counted before a control thread can see the job, lest one
            // between blocks claim it at once and count it finished
            // before it was counted submitted.
            self.shared.metrics.job_submitted(total as u64);
            job
        };

        let mut st = self.shared.state.lock();
        let (job, admitted) = loop {
            match st.submit(num_blocks, pe_limit, stand_in, make) {
                Ok(admitted) => break admitted,
                // The drain/drop path wakes us too: `submit` says which.
                Err((RuntimeError::QueueFull { .. }, unused)) if blocking => {
                    make = unused;
                    self.shared.space_cv.wait(&mut st);
                }
                Err((refused, _)) => return Err(refused),
            }
        };
        drop(st);
        match admitted {
            // A zero-sample job is trivially complete.
            Admitted::Empty => publish(&self.shared, &job, Ok(Vec::new())),
            Admitted::Wake(wake) => self.shared.wake(&wake),
            Admitted::StandIn(w) => process_block(&self.shared, w, &job, 0, true),
        }
        Ok(JobHandle { job })
    }
}

impl Drop for Scheduler {
    /// Deterministic shutdown: under the lock, refuse every submission,
    /// cancel every job and stop the pool; then wake the parked threads
    /// and `submit_blocking` callers (they get
    /// [`RuntimeError::ShuttingDown`]), publish the jobs with nothing in
    /// flight, and join the workers, each finishing its block in flight.
    fn drop(&mut self) {
        let (wake, cancelled) = self.shared.state.lock().shutdown();
        self.shared.wake(&wake);
        self.shared.space_cv.notify_all();
        for job in cancelled {
            publish(&self.shared, &job, Err(RuntimeError::Cancelled));
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Control thread `w`, pinned to PE `w % num_pes` (a PE only reaches
/// its own HBM channel — the paper's no-crossbar design).
fn worker_loop(shared: &Shared, w: usize) {
    loop {
        let (job, idx) = {
            let mut st = shared.state.lock();
            loop {
                match st.claim(w) {
                    Claim::Run(job, idx) => break (job, idx),
                    // Waits under the lock `submit` picks its wakes
                    // under, so no notification can fall in between.
                    Claim::Park => shared.work_cv[w].wait(&mut st),
                    Claim::Exit => return,
                }
            }
        };
        process_block(shared, w, &job, idx, false);
    }
}

/// One control-thread iteration, the same for every backend: slice
/// the block's input, run the job's executor into a block-local buffer
/// (retrying transient failures), account the PE's time and copy the
/// results into the job's, then report the block done — and, for a
/// `lent` stand-in, give worker `w` back — possibly publishing the job.
/// The PE, track and retries are `w`'s. Inlined into both callers.
#[inline(always)]
fn process_block(shared: &Shared, w: usize, job: &JobState, idx: usize, lent: bool) {
    let pe = w as u32 % shared.device.num_pes();
    let block = job.blocks[idx];
    let (src_off, src_len) = block.input_range(job.data.num_features() as u64);
    let src = &job.data.raw()[src_off as usize..(src_off + src_len) as usize];
    let cx = BlockCx {
        pe,
        tid: w as u32,
        block: idx as u64,
        samples: block.samples as usize,
        ctx: job.opts.ctx,
        trace: shared.trace.as_deref(),
        metrics: &shared.metrics,
    };
    let mut out = Vec::with_capacity(cx.samples);
    let mut attempt: u32 = 0;
    let ran = loop {
        out.clear();
        let t0 = Instant::now();
        match job.executor.run_block(&cx, src, &mut out) {
            Ok(()) => {
                shared.metrics.add_pe_busy(pe, t0.elapsed());
                let first = block.first_sample as usize;
                job.results.lock()[first..first + cx.samples].copy_from_slice(&out);
                break Ended::Done;
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
                // Claims skip a cancelled or failed job; a retry does too.
                if shared.state.lock().stopped(job.id) {
                    break Ended::Cancelled;
                }
            }
            Err(e) => break Ended::Failed(e),
        }
    };

    let mut st = shared.state.lock();
    let finished = st.block_done(job.id, ran, lent.then_some(w));
    if finished.counted {
        shared.metrics.block_executed();
    }
    drop(st);
    if finished.wake {
        shared.wake(&[w]);
    }
    let result = match finished.end {
        None => return,
        Some(Ended::Done) => verified_results(shared, job),
        Some(Ended::Failed(e)) => Err(e),
        Some(Ended::Cancelled) => Err(RuntimeError::Cancelled),
    };
    publish(shared, job, result);
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
    shared
        .metrics
        .job_finished(outcome, job.data.num_samples() as u64);
    shared.space_cv.notify_all();
    let mut phase = job.completion.lock();
    match std::mem::replace(&mut *phase, Phase::Done(None)) {
        Phase::Active(Some(consume)) => {
            drop(phase);
            consume(result);
        }
        Phase::Active(None) => {
            *phase = Phase::Done(Some(result));
            drop(phase);
            job.done_cv.notify_all();
        }
        Phase::Done(..) => unreachable!("a job is published once"),
    }
}

/// All blocks done: the job's results, or the verification failure. A
/// deterministic stride of results is spot-checked against the host
/// golden model (the paper's defence against silent transient faults).
/// Only device-precision results are checked: host results *are* exact
/// host arithmetic, while the golden check's tight tolerance assumes
/// device-format output re-computed by the same bit-accurate core.
fn verified_results(shared: &Shared, job: &JobState) -> JobResult {
    let results = std::mem::take(&mut *job.results.lock());
    let n = results.len();
    let checks = ((n as f64 * shared.config.verify_fraction).ceil() as usize).min(n);
    if checks == 0 || job.provenance != ExecProvenance::Device {
        return Ok(results);
    }
    for i in (0..n).step_by((n / checks).max(1)) {
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
    Ok(results)
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
    use crate::dispatch::Park;
    use crate::job::ExecBackend;
    use crate::plan_cache::INLINE_OP_ROWS;
    use sim_core::MIB;
    use spn_arith::{AnyFormat, CfpFormat};
    use spn_core::Query;
    use spn_core::{Evaluator, NipsBenchmark};
    use spn_hw::{AcceleratorConfig, DatapathProgram};
    use spn_telemetry::SpanKind;
    use std::sync::atomic::{AtomicBool, Ordering};

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
        assert_eq!(sched.metrics_snapshot().jobs_completed, 1);
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
        let (issued, idle) = {
            let st = sched.shared.state.lock();
            (st.wakes_issued, st.idle_wakes)
        };
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
        sched.shared.state.lock().inline_blocks
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
    /// block like any other, with the control threads' bits. Under a
    /// 4096-sample block too: [`block_len`] gives one row one block.
    #[test]
    fn an_idle_scheduler_runs_a_small_host_block_on_the_submitter() {
        for block in [64, 4096] {
            let (dev, bench) = unshared_device(2);
            let sched = model_scheduler(dev, block);
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
    }

    /// A job smaller than one block per PE is split evenly over the
    /// PEs: 4096 rows under a 4096-sample block on 2 PEs are two
    /// 2048-row blocks, and across a few such jobs both PEs run.
    /// Either backend keeps its bits: the plan's are the oracle's, the
    /// device's are `VirtualDevice::golden`'s.
    #[test]
    fn a_job_smaller_than_a_block_per_pe_runs_on_every_pe() {
        let (dev, bench) = unshared_device(2);
        let dev = Arc::new(dev.with_model(Arc::new(bench.build_spn())));
        let sched = Scheduler::new(Arc::clone(&dev), config(4096, 1)).unwrap();
        let data = Arc::new(bench.dataset(4096, 5));
        let want = bits(&reference(bench, &data));
        let golden: Vec<u64> = data
            .rows()
            .map(|r| dev.golden(0, r).unwrap().to_bits())
            .collect();
        let mut jobs = 0;
        while sched.metrics_snapshot().pe_busy_secs.contains(&0.0) {
            assert!(jobs < 50, "a PE ran no block of {jobs} two-block jobs");
            let blocks = || sched.metrics_snapshot().blocks_executed;
            let before = blocks();
            let host = sched
                .submit(Arc::clone(&data), backend(ExecBackend::HostPlan))
                .unwrap();
            assert_eq!(bits(&host.wait().unwrap()), want);
            assert_eq!(blocks() - before, 2);
            let device = sched
                .submit(Arc::clone(&data), JobOptions::default())
                .unwrap();
            assert_eq!(bits(&device.wait().unwrap()), golden);
            assert_eq!(blocks() - before, 4);
            jobs += 2;
        }
        assert_eq!(sched.metrics_snapshot().blocks_executed, 2 * jobs);
    }

    /// Everything the stand-in rule does not name runs on a control
    /// thread, each case failing exactly one of its conditions on an
    /// otherwise idle scheduler.
    #[test]
    fn other_jobs_run_on_control_threads() {
        let bench = NipsBenchmark::Nips10;
        let host = backend(ExecBackend::HostPlan);
        let over = INLINE_OP_ROWS / bench.build_spn().stats().nodes + 1;
        let me = std::thread::current().id();
        // (case, block samples, rows, options, blocking)
        let cases = [
            ("a Device job", 64, 1, JobOptions::default(), false),
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
        let samples_in_flight = || sched.metrics_snapshot().samples_in_flight;
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(samples_in_flight(), 0);
        let data = Arc::new(bench.dataset(30_000, 3));
        let h = sched
            .submit(Arc::clone(&data), JobOptions::default())
            .unwrap();
        // While the job runs, both gauges are live and non-zero.
        assert_eq!(sched.queue_depth(), 1);
        assert_eq!(samples_in_flight(), 30_000);
        h.wait().unwrap();
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(samples_in_flight(), 0);
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
        let opts = JobOptions {
            ctx,
            ..JobOptions::default()
        };
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
    /// wake-everyone and `drop` hung in `join`. Spinning (not waiting)
    /// on a one-block job's consumer and dropping the moment it runs
    /// puts the drop beside that thread's return to the lock; 3000
    /// rounds hung the old ordering in two runs of three.
    #[test]
    fn drop_never_misses_a_control_thread_about_to_park() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (dev, bench) = device(4);
            let data = Arc::new(bench.dataset(1, 9));
            for _ in 0..3000 {
                let sched = Scheduler::new(Arc::clone(&dev), config(64, 2)).unwrap();
                let done = Arc::new(AtomicBool::new(false));
                let flag = Arc::clone(&done);
                sched
                    .submit_then(Arc::clone(&data), JobOptions::default(), move |r| {
                        flag.store(r.is_ok(), Ordering::Release)
                    })
                    .expect("accepted");
                while !done.load(Ordering::Acquire) {
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
