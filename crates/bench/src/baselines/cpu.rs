//! The real CPU baseline: multi-threaded batch SPN inference on the
//! host, measured (not modelled).
//!
//! This is the one comparison platform the reproduction can run for
//! real (repro band: "only CPU baseline practical"). It mirrors what
//! SPNC-compiled CPU inference does: the network is compiled once into
//! a flat plan ([`CompiledPlan`], the repo's fastest CPU path) and the
//! batch is split into one contiguous share per worker thread, each
//! evaluated lane-wide in the linear domain with a carried exponent.

use spn_core::{CompiledPlan, Dataset, PlanExecutor, Query, Spn};
use std::time::Instant;

/// Multi-threaded CPU inference engine.
pub struct CpuBaseline {
    plan: CompiledPlan,
    threads: usize,
}

impl CpuBaseline {
    /// Engine over `spn` using `threads` workers (0 = all cores).
    pub fn new(spn: Spn, threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        CpuBaseline {
            plan: CompiledPlan::compile(&spn),
            threads,
        }
    }

    /// Log-likelihoods for every sample in the dataset, in order.
    pub(crate) fn infer(&self, data: &Dataset) -> Vec<f64> {
        let nf = data.num_features();
        let mut out = vec![0.0f64; data.num_samples()];
        let share = out.len().div_ceil(self.threads).max(1);
        std::thread::scope(|scope| {
            for (rows, out) in data.raw().chunks(share * nf).zip(out.chunks_mut(share)) {
                scope.spawn(move || {
                    let mut lls = Vec::with_capacity(out.len());
                    PlanExecutor::new(&self.plan).eval_batch_raw(
                        &Query::Complete,
                        rows,
                        nf,
                        &mut lls,
                    );
                    out.copy_from_slice(&lls);
                });
            }
        });
        out
    }

    /// Measure sustained throughput in samples/s: run `infer` over the
    /// dataset `repeats` times and take the best run (the paper reports
    /// best-case per platform).
    pub fn measure_throughput(&self, data: &Dataset, repeats: usize) -> f64 {
        assert!(repeats > 0);
        let mut best = 0.0f64;
        for _ in 0..repeats {
            let t0 = Instant::now();
            let out = self.infer(data);
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(&out);
            best = best.max(data.num_samples() as f64 / secs);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn_core::{Evaluator, NipsBenchmark};

    #[test]
    fn matches_single_threaded_reference() {
        let bench = NipsBenchmark::Nips10;
        let spn = bench.build_spn();
        let data = bench.dataset(5000, 21);
        let cpu = CpuBaseline::new(spn.clone(), 4);
        let got = cpu.infer(&data);
        let mut ev = Evaluator::new(&spn);
        for (i, row) in data.rows().enumerate() {
            assert_eq!(got[i], ev.eval_bytes(&Query::Complete, row), "sample {i}");
        }
    }

    #[test]
    fn thread_counts_agree() {
        let bench = NipsBenchmark::Nips20;
        let spn = bench.build_spn();
        let data = bench.dataset(2000, 8);
        let one = CpuBaseline::new(spn.clone(), 1).infer(&data);
        let many = CpuBaseline::new(spn, 8).infer(&data);
        assert_eq!(one, many);
    }

    #[test]
    fn empty_dataset() {
        let bench = NipsBenchmark::Nips10;
        let cpu = CpuBaseline::new(bench.build_spn(), 2);
        assert!(cpu.infer(&bench.dataset(0, 1)).is_empty());
    }

    #[test]
    fn zero_threads_resolves_to_available() {
        let cpu = CpuBaseline::new(NipsBenchmark::Nips10.build_spn(), 0);
        assert!(cpu.threads >= 1);
    }

    #[test]
    fn throughput_is_positive_and_finite() {
        let bench = NipsBenchmark::Nips10;
        let cpu = CpuBaseline::new(bench.build_spn(), 2);
        let data = bench.dataset(20_000, 2);
        let rate = cpu.measure_throughput(&data, 2);
        assert!(rate.is_finite() && rate > 0.0);
    }
}
