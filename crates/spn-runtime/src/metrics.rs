//! Runtime observability: a lock-free metrics registry.
//!
//! The scheduler keeps the accelerator busy with blocks from many
//! concurrent jobs; operating such a system ("heavy traffic from
//! millions of users") requires knowing what it is doing *while it
//! runs*. [`MetricsRegistry`] is a set of atomic counters and gauges
//! updated by the scheduler's worker threads on their hot path —
//! a few relaxed atomic adds, never a lock — and snapshotted on demand
//! into a [`MetricsSnapshot`] (the `spn-telemetry` crate's
//! [`spn_telemetry::SchedulerTelemetry`] schema), which serde-serialises
//! to JSON for dashboards, the CLI (`spn accelerate --metrics out.json`)
//! and the server's `Stats` opcode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A point-in-time copy of the registry — the scheduler's section of
/// the unified telemetry schema, re-exported under the name the
/// runtime API has always used.
pub type MetricsSnapshot = spn_telemetry::SchedulerTelemetry;

/// Atomic counters/gauges for one scheduler instance.
///
/// All updates are `Ordering::Relaxed`: the registry observes the
/// system statistically, it does not synchronise it. A snapshot taken
/// while jobs are in flight is a consistent-enough point-in-time view;
/// a snapshot taken after all handles have been waited on is exact.
#[derive(Debug)]
pub struct MetricsRegistry {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    blocks_executed: AtomicU64,
    block_retries: AtomicU64,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    /// Jobs currently accepted and not yet terminal (gauge).
    jobs_in_flight: AtomicU64,
    /// Samples belonging to accepted, not-yet-terminal jobs (gauge).
    /// The admission-control signal for serving layers: it tracks how
    /// much *work* is queued, not just how many jobs.
    samples_in_flight: AtomicU64,
    /// High-watermark of `jobs_in_flight` (gauge).
    queue_high_watermark: AtomicU64,
    /// Cumulative wall-clock time each PE's control threads spent
    /// executing blocks (on whichever backend), in nanoseconds (one
    /// slot per PE).
    pe_busy_ns: Vec<AtomicU64>,
}

impl MetricsRegistry {
    /// Fresh registry for a device with `num_pes` processing elements.
    pub fn new(num_pes: u32) -> Self {
        MetricsRegistry {
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            blocks_executed: AtomicU64::new(0),
            block_retries: AtomicU64::new(0),
            h2d_bytes: AtomicU64::new(0),
            d2h_bytes: AtomicU64::new(0),
            jobs_in_flight: AtomicU64::new(0),
            samples_in_flight: AtomicU64::new(0),
            queue_high_watermark: AtomicU64::new(0),
            pe_busy_ns: (0..num_pes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// A job of `samples` samples was accepted into the scheduler
    /// queue.
    pub fn job_submitted(&self, samples: u64) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        self.samples_in_flight.fetch_add(samples, Ordering::Relaxed);
        let now = self.jobs_in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_high_watermark.fetch_max(now, Ordering::Relaxed);
    }

    /// A job of `samples` samples reached a terminal state; exactly
    /// one of the three outcome counters is bumped and the in-flight
    /// gauges drop.
    pub fn job_finished(&self, outcome: JobOutcome, samples: u64) {
        match outcome {
            JobOutcome::Completed => &self.jobs_completed,
            JobOutcome::Failed => &self.jobs_failed,
            JobOutcome::Cancelled => &self.jobs_cancelled,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
        self.samples_in_flight.fetch_sub(samples, Ordering::Relaxed);
    }

    /// Samples belonging to jobs that are accepted and not yet
    /// terminal — the live admission-control gauge.
    pub(crate) fn samples_in_flight(&self) -> u64 {
        self.samples_in_flight.load(Ordering::Relaxed)
    }

    /// One block ran to completion on the device.
    pub fn block_executed(&self) {
        self.blocks_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// One block attempt failed transiently and will be retried.
    pub fn block_retried(&self) {
        self.block_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes moved host→device.
    pub fn add_h2d_bytes(&self, bytes: u64) {
        self.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Bytes moved device→host.
    pub fn add_d2h_bytes(&self, bytes: u64) {
        self.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Account wall-clock execution time to a PE.
    pub fn add_pe_busy(&self, pe: u32, busy: Duration) {
        if let Some(slot) = self.pe_busy_ns.get(pe as usize) {
            slot.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of every counter and gauge.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            blocks_executed: self.blocks_executed.load(Ordering::Relaxed),
            block_retries: self.block_retries.load(Ordering::Relaxed),
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
            jobs_in_flight: self.jobs_in_flight.load(Ordering::Relaxed),
            samples_in_flight: self.samples_in_flight.load(Ordering::Relaxed),
            queue_high_watermark: self.queue_high_watermark.load(Ordering::Relaxed),
            pe_busy_secs: self
                .pe_busy_ns
                .iter()
                .map(|ns| ns.load(Ordering::Relaxed) as f64 / 1e9)
                .collect(),
        }
    }
}

/// Which terminal state a job reached (see
/// [`MetricsRegistry::job_finished`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// All blocks done, verification passed.
    Completed,
    /// A block exhausted its retries or verification failed.
    Failed,
    /// The submitter gave up on the job.
    Cancelled,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new(2);
        m.job_submitted(40);
        m.job_submitted(60);
        m.block_executed();
        m.block_retried();
        m.add_h2d_bytes(100);
        m.add_h2d_bytes(28);
        m.add_d2h_bytes(64);
        m.add_pe_busy(1, Duration::from_millis(3));
        assert_eq!(m.samples_in_flight(), 100);
        assert_eq!(m.snapshot().jobs_in_flight, 2);
        m.job_finished(JobOutcome::Completed, 40);
        m.job_finished(JobOutcome::Failed, 60);
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.jobs_cancelled, 0);
        assert_eq!(s.blocks_executed, 1);
        assert_eq!(s.block_retries, 1);
        assert_eq!(s.h2d_bytes, 128);
        assert_eq!(s.d2h_bytes, 64);
        assert_eq!(s.jobs_in_flight, 0);
        assert_eq!(s.samples_in_flight, 0);
        assert_eq!(s.queue_high_watermark, 2);
        assert!(s.pe_busy_secs[1] > 0.0 && s.pe_busy_secs[0] == 0.0);
    }

    #[test]
    fn out_of_range_pe_busy_is_ignored() {
        let m = MetricsRegistry::new(1);
        m.add_pe_busy(7, Duration::from_secs(1)); // silently dropped
        assert_eq!(m.snapshot().pe_busy_secs, vec![0.0]);
    }

    #[test]
    fn json_round_trips_through_serde() {
        let m = MetricsRegistry::new(3);
        m.job_submitted(17);
        m.block_executed();
        m.add_pe_busy(0, Duration::from_micros(1500));
        let snap = m.snapshot();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        let back_compact: MetricsSnapshot =
            serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back_compact, snap);
    }

    #[test]
    fn updates_are_thread_safe() {
        use std::sync::Arc;
        let m = Arc::new(MetricsRegistry::new(4));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.block_executed();
                    m.add_h2d_bytes(10);
                    m.add_pe_busy(t % 4, Duration::from_nanos(5));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.blocks_executed, 8000);
        assert_eq!(s.h2d_bytes, 80_000);
    }
}
