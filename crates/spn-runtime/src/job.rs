//! Job decomposition and per-job options. The paper's runtime (Section
//! IV-B) breaks each job into blocks: the unit of transfer/compute
//! overlap and, across concurrent jobs, of multiplexing. The configured
//! `block_samples` is the largest block. A job smaller than one such
//! block per PE is split evenly over the PEs it may use instead
//! (`block_len`), so no PE idles while another runs the whole job.
//! [`JobOptions`] carries the per-job knobs (retry budget, backoff, PE
//! restriction, backend).

use crate::runtime::RuntimeError;
use serde::{Deserialize, Serialize};
use spn_telemetry::SpanCtx;

/// One contiguous block of samples within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Index of the first sample.
    pub first_sample: u64,
    /// Number of samples in the block.
    pub samples: u64,
}

impl Block {
    /// Byte range of this block's input in the job's input buffer.
    pub(crate) fn input_range(&self, input_bytes_per_sample: u64) -> (u64, u64) {
        (
            self.first_sample * input_bytes_per_sample,
            self.samples * input_bytes_per_sample,
        )
    }
}

/// The block length a `total`-sample job on `pes` PEs is cut at: its
/// even share per PE, rounded up to whole plan passes
/// ([`spn_core::plan::LANES`] rows), and never more than
/// `block_samples`. A job of at least `pes × block_samples` samples
/// keeps `block_samples`; a smaller one gets one block per PE (fewer
/// when the rounding leaves the last PEs nothing). The scheduler and
/// its timing twin, [`crate::perf`], both cut jobs here.
pub(crate) fn block_len(total: u64, block_samples: u64, pes: u32) -> u64 {
    let lanes = spn_core::plan::LANES as u64;
    let share = total.div_ceil(u64::from(pes));
    // At least one pass: an empty job still needs a positive length.
    block_samples.min(share.div_ceil(lanes).max(1) * lanes)
}

/// Split `total_samples` into blocks of at most `block_samples`.
///
/// # Panics
/// Panics if `block_samples` is zero.
pub fn split_into_blocks(total_samples: u64, block_samples: u64) -> Vec<Block> {
    assert!(block_samples > 0, "block size must be positive");
    let mut blocks = Vec::with_capacity(total_samples.div_ceil(block_samples) as usize);
    let mut first = 0;
    while first < total_samples {
        let samples = block_samples.min(total_samples - first);
        blocks.push(Block {
            first_sample: first,
            samples,
        });
        first += samples;
    }
    blocks
}

/// Where a job's blocks execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The virtual accelerator card: blocks are DMA'd in, run on the
    /// bit-accurate PE cores, and DMA'd back. The default.
    #[default]
    Device,
    /// The host CPU through the model's compiled inference plan
    /// ([`spn_core::CompiledPlan`]): no device transfers, full f64
    /// precision. Requires the scheduler's device to carry its model
    /// ([`crate::VirtualDevice::with_model`]); submission is rejected
    /// otherwise.
    HostPlan,
}

/// Per-job options for [`crate::scheduler::Scheduler::submit`].
///
/// Construct via [`JobOptions::builder`] (validating) or rely on
/// [`JobOptions::default`]. All fields are public for read access;
/// the builder keeps invalid combinations out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOptions {
    /// Per-block retry budget for *transient* failures
    /// ([`crate::DeviceError::TransientFault`] and out-of-memory races
    /// against other in-flight jobs). `0` fails the job on the first
    /// transient error.
    pub max_retries: u32,
    /// Base backoff between retry attempts, in microseconds. The
    /// actual sleep grows linearly with the attempt number and is
    /// bounded (see [`crate::scheduler`]); `0` retries immediately.
    pub retry_backoff_us: u64,
    /// Restrict the job to the first `n` PEs (`None` = all PEs) —
    /// the scaling-experiment knob.
    pub num_pes: Option<u32>,
    /// Which backend executes the job's blocks.
    pub backend: ExecBackend,
    /// Trace context of the request this job serves
    /// ([`SpanCtx::NONE`] when no client request is behind it). The
    /// scheduler stamps it onto every device span the job's blocks
    /// produce, which is what correlates a live Chrome-trace export
    /// end to end.
    pub ctx: SpanCtx,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            max_retries: 3,
            retry_backoff_us: 200,
            num_pes: None,
            backend: ExecBackend::Device,
            ctx: SpanCtx::NONE,
        }
    }
}

impl JobOptions {
    /// Fluent, validating builder.
    pub fn builder() -> JobOptionsBuilder {
        JobOptionsBuilder {
            opts: JobOptions::default(),
        }
    }
}

/// Builder for [`JobOptions`]; see [`JobOptions::builder`].
#[derive(Debug, Clone)]
pub struct JobOptionsBuilder {
    opts: JobOptions,
}

impl JobOptionsBuilder {
    /// Per-block transient-failure retry budget.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.opts.max_retries = n;
        self
    }

    /// Base backoff between retries, in microseconds.
    pub fn retry_backoff_us(mut self, us: u64) -> Self {
        self.opts.retry_backoff_us = us;
        self
    }

    /// Restrict the job to the first `n` PEs.
    pub fn num_pes(mut self, n: u32) -> Self {
        self.opts.num_pes = Some(n);
        self
    }

    /// Choose the execution backend (device by default).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.opts.backend = backend;
        self
    }

    /// Attach the trace context of the request this job serves.
    pub fn ctx(mut self, ctx: SpanCtx) -> Self {
        self.opts.ctx = ctx;
        self
    }

    /// Validate and build. `num_pes == 0` is rejected here; an
    /// out-of-range count (greater than the device's PE count) is
    /// rejected at submission, where the device is known.
    pub fn build(self) -> Result<JobOptions, RuntimeError> {
        if self.opts.num_pes == Some(0) {
            return Err(RuntimeError::InvalidConfig {
                reason: "num_pes must be at least 1".into(),
            });
        }
        Ok(self.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_options_builder_validates() {
        let o = JobOptions::builder()
            .max_retries(7)
            .retry_backoff_us(50)
            .num_pes(2)
            .backend(ExecBackend::HostPlan)
            .build()
            .unwrap();
        assert_eq!(o.max_retries, 7);
        assert_eq!(o.retry_backoff_us, 50);
        assert_eq!(o.num_pes, Some(2));
        assert_eq!(o.backend, ExecBackend::HostPlan);
        assert_eq!(JobOptions::default().backend, ExecBackend::Device);
        assert!(matches!(
            JobOptions::builder().num_pes(0).build(),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn job_options_default_is_buildable() {
        assert_eq!(
            JobOptions::builder().build().unwrap(),
            JobOptions::default()
        );
    }

    #[test]
    fn block_len_splits_a_small_job_evenly() {
        // (total, block_samples, pes) → block length, and the blocks
        // that length cuts. On one PE every case cuts as at
        // `block_samples`.
        for (total, block, pes, len, blocks) in [
            (4096, 4096, 2, 2048, 2),
            (4097, 4096, 2, 2112, 2),
            (16384, 4096, 2, 4096, 4),
            (100, 4096, 2, 64, 2),
            (1, 4096, 2, 64, 1),
            (0, 4096, 2, 64, 0),
            (4096, 100, 2, 100, 41),
            (4096, 4096, 3, 1408, 3),
        ] {
            let case = format!("{total}/{block}/{pes}");
            assert_eq!(block_len(total, block, pes), len, "{case}");
            assert_eq!(split_into_blocks(total, len).len(), blocks, "{case}");
            assert_eq!(
                split_into_blocks(total, block_len(total, block, 1)),
                split_into_blocks(total, block),
                "{case} on one PE"
            );
        }
    }

    #[test]
    fn exact_division() {
        let blocks = split_into_blocks(100, 25);
        assert_eq!(blocks.len(), 4);
        assert!(blocks.iter().all(|b| b.samples == 25));
        assert_eq!(blocks[3].first_sample, 75);
    }

    #[test]
    fn remainder_block_is_short() {
        let blocks = split_into_blocks(10, 4);
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[2].samples, 2);
        // Blocks tile the job exactly.
        let total: u64 = blocks.iter().map(|b| b.samples).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn single_block_jobs() {
        assert_eq!(split_into_blocks(5, 100).len(), 1);
        assert_eq!(split_into_blocks(0, 100).len(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_panics() {
        split_into_blocks(10, 0);
    }

    #[test]
    fn byte_ranges() {
        let b = Block {
            first_sample: 10,
            samples: 5,
        };
        assert_eq!(b.input_range(10), (100, 50));
    }
}
