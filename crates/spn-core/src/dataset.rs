//! Datasets: row-major byte matrices matching the benchmark input format.
//!
//! The paper's benchmarks feed the accelerator *single-byte* feature
//! values (e.g. NIPS10 = 10 bytes in, one f64 out per sample). This
//! module provides the corresponding container plus synthetic generators
//! standing in for the UCI NIPS bag-of-words corpus, which we cannot
//! ship: a mixture-of-clusters generator that produces data with real
//! structure, and an independent generator for throughput benchmarking
//! where content is irrelevant.

use rand::prelude::*;
use rand::rngs::StdRng;

/// A row-major matrix of byte-valued samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    data: Vec<u8>,
    num_features: usize,
}

impl Dataset {
    /// Wrap an existing buffer whose values lie in `0..domain`, the
    /// number of distinct values a feature can take (checked, not kept).
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `num_features`,
    /// or if any value exceeds the domain.
    pub fn from_raw(data: Vec<u8>, num_features: usize, domain: usize) -> Self {
        assert!(num_features > 0, "need at least one feature");
        assert!(
            data.len().is_multiple_of(num_features),
            "buffer length {} is not a multiple of {num_features}",
            data.len()
        );
        assert!(domain > 0 && domain <= 256, "domain must be in 1..=256");
        if let Some((at, v)) = out_of_domain(&data, domain) {
            panic!("values must be < domain {domain}: byte {at} is {v}");
        }
        Dataset { data, num_features }
    }

    /// Number of samples (rows).
    pub fn num_samples(&self) -> usize {
        self.data.len() / self.num_features
    }

    /// Number of features (columns).
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Row accessor.
    pub fn row(&self, i: usize) -> &[u8] {
        let start = i * self.num_features;
        &self.data[start..start + self.num_features]
    }

    /// All rows as an iterator.
    pub fn rows(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(self.num_features)
    }

    /// Raw flat buffer (row-major). This is exactly the byte stream the
    /// runtime DMA-transfers to the device.
    pub fn raw(&self) -> &[u8] {
        &self.data
    }
}

/// Lanes of [`out_of_domain`]'s max-reduction: one AVX-512 register,
/// four SSE2 ones.
const MAX_LANES: usize = 64;

/// The first byte of `data` outside `0..domain`, as `(index, value)`;
/// `None` when every byte is inside.
///
/// The one domain check over a feature block: [`Dataset::from_raw`]
/// asserts with it and the server rejects requests with it. The scan is
/// a branch-free lane-wise max over 64-byte chunks, then over the
/// shorter tail, so it vectorises; only a block that fails it is
/// searched again for the offending byte. Domain 256 admits every byte
/// and reads none.
pub fn out_of_domain(data: &[u8], domain: usize) -> Option<(usize, u8)> {
    if domain > usize::from(u8::MAX) {
        return None;
    }
    let mut lanes = [0u8; MAX_LANES];
    let mut chunks = data.chunks_exact(MAX_LANES);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = (*m).max(v);
        }
    }
    let tail = chunks.remainder().iter().fold(0, |m, &v| m.max(v));
    if usize::from(lanes.iter().fold(tail, |m, &v| m.max(v))) < domain {
        return None;
    }
    let at = data.iter().position(|&v| usize::from(v) >= domain)?;
    Some((at, data[at]))
}

/// Configuration for the clustered bag-of-words generator.
#[derive(Debug, Clone)]
pub struct BagOfWordsConfig {
    /// Number of features (word-count variables).
    pub num_features: usize,
    /// Per-feature domain (distinct count values, <= 256).
    pub domain: usize,
    /// Number of latent "topics" (mixture components).
    pub num_clusters: usize,
    /// Geometric-ish concentration: higher = peakier per-topic histograms.
    pub concentration: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BagOfWordsConfig {
    fn default() -> Self {
        BagOfWordsConfig {
            num_features: 10,
            domain: 16,
            num_clusters: 4,
            concentration: 2.0,
            seed: 0xBAD5EED,
        }
    }
}

/// Generate a clustered synthetic bag-of-words dataset.
///
/// Each sample first draws a latent topic, then each feature draws from
/// that topic's per-feature categorical. The result has the mixture
/// structure LearnSPN-style learners discover (sum over topics, product
/// over conditionally independent features) — the same structure the
/// paper's NIPS SPNs encode.
pub fn generate_bag_of_words(cfg: &BagOfWordsConfig, num_samples: usize) -> Dataset {
    assert!(cfg.num_clusters > 0 && cfg.domain > 0 && cfg.domain <= 256);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Per-topic, per-feature categorical parameters: a random "preferred"
    // value with geometric decay away from it.
    let mut topic_probs: Vec<Vec<Vec<f64>>> = Vec::with_capacity(cfg.num_clusters);
    for _ in 0..cfg.num_clusters {
        let mut per_feature = Vec::with_capacity(cfg.num_features);
        for _ in 0..cfg.num_features {
            let peak = rng.gen_range(0..cfg.domain);
            let mut probs: Vec<f64> = (0..cfg.domain)
                .map(|v| {
                    let dist = (v as f64 - peak as f64).abs();
                    (-cfg.concentration * dist).exp()
                })
                .collect();
            let total: f64 = probs.iter().sum();
            for p in &mut probs {
                *p /= total;
            }
            per_feature.push(probs);
        }
        topic_probs.push(per_feature);
    }

    // Topic mixture weights: Dirichlet-ish via normalized uniforms.
    let mut weights: Vec<f64> = (0..cfg.num_clusters)
        .map(|_| rng.gen::<f64>() + 0.1)
        .collect();
    let wsum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= wsum;
    }

    let mut data = Vec::with_capacity(num_samples * cfg.num_features);
    for _ in 0..num_samples {
        let topic = sample_categorical(&weights, &mut rng);
        for feature_probs in &topic_probs[topic] {
            let v = sample_categorical(feature_probs, &mut rng);
            data.push(v as u8);
        }
    }
    Dataset::from_raw(data, cfg.num_features, cfg.domain)
}

fn sample_categorical(probs: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
/// Generate i.i.d. uniform byte data (for tests where content does
/// not matter, only size).
pub(crate) fn generate_uniform(
    num_samples: usize,
    num_features: usize,
    domain: usize,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..num_samples * num_features)
        .map(|_| rng.gen_range(0..domain) as u8)
        .collect();
    Dataset::from_raw(data, num_features, domain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_shapes() {
        let d = Dataset::from_raw(vec![0, 1, 2, 3, 4, 5], 3, 16);
        assert_eq!(d.num_samples(), 2);
        assert_eq!(d.num_features(), 3);
        assert_eq!(d.row(0), &[0, 1, 2]);
        assert_eq!(d.row(1), &[3, 4, 5]);
        assert_eq!(d.raw().len(), 6);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn ragged_buffer_panics() {
        Dataset::from_raw(vec![0, 1, 2, 3, 4], 3, 16);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn out_of_domain_value_panics() {
        Dataset::from_raw(vec![0, 200], 1, 16);
    }

    /// `(block length, bad byte index)` for each place an out-of-domain
    /// byte can sit relative to the max-reduction's 64-byte chunks: the
    /// first byte, the last, inside a tail shorter than any vector width
    /// (70 = 64 + 6), and mid-way through a 320 KiB block. Every length
    /// is whole 10-feature rows.
    const BAD_AT: [(usize, usize); 4] = [
        (327_680, 0),
        (327_680, 327_679),
        (70, 67),
        (327_680, 163_845),
    ];

    #[test]
    fn out_of_domain_finds_a_bad_byte_at_every_position() {
        for (len, at) in BAD_AT {
            let mut data = vec![3u8; len];
            assert_eq!(out_of_domain(&data, 4), None);
            data[at] = 4;
            assert_eq!(
                out_of_domain(&data, 4),
                Some((at, 4)),
                "{len} bytes, bad at {at}"
            );
            assert_eq!(out_of_domain(&data, 5), None);
            data[at] = 255;
            assert_eq!(out_of_domain(&data, 255), Some((at, 255)));
            assert_eq!(
                out_of_domain(&data, 256),
                None,
                "domain 256 admits every byte"
            );
        }
        assert_eq!(out_of_domain(&[], 1), None);
        assert_eq!(
            out_of_domain(&[0, 9, 9], 9),
            Some((1, 9)),
            "the first bad byte"
        );
    }

    #[test]
    fn from_raw_panics_on_a_bad_byte_at_every_position() {
        for (len, at) in BAD_AT {
            let mut data = vec![1u8; len];
            data[at] = 200;
            let err = std::panic::catch_unwind(|| Dataset::from_raw(data, 10, 16))
                .expect_err("an out-of-domain byte must panic");
            let msg = err.downcast::<String>().expect("a formatted panic message");
            assert!(msg.contains(&format!("byte {at} is 200")), "{msg}");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = BagOfWordsConfig::default();
        let a = generate_bag_of_words(&cfg, 100);
        let b = generate_bag_of_words(&cfg, 100);
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let c = generate_bag_of_words(&cfg2, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn generator_respects_domain() {
        let cfg = BagOfWordsConfig {
            domain: 8,
            ..Default::default()
        };
        let d = generate_bag_of_words(&cfg, 500);
        assert!(d.raw().iter().all(|&v| v < 8));
        assert_eq!(d.num_samples(), 500);
    }

    #[test]
    fn clustered_data_is_clustered() {
        // With peaky topics, per-feature marginals should be multi-modal
        // rather than uniform: variance of bucket counts well above the
        // uniform expectation.
        let cfg = BagOfWordsConfig {
            num_features: 4,
            domain: 16,
            num_clusters: 3,
            concentration: 3.0,
            seed: 7,
        };
        let d = generate_bag_of_words(&cfg, 2000);
        let mut counts = [0u32; 16];
        for row in d.rows() {
            counts[row[0] as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        // Uniform would give ~125 per bucket; clustered data concentrates.
        assert!(max > 300.0, "max bucket count {max} looks uniform");
    }

    #[test]
    fn uniform_generator_covers_domain() {
        let d = generate_uniform(4000, 2, 4, 3);
        let mut seen = [false; 4];
        for &v in d.raw() {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
