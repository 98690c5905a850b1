//! Random SPN generation in the style of RAT-SPNs (Peharz et al. 2018).
//!
//! The paper cites random SPN structures as a practical way to obtain
//! well-performing networks without data-dependent learning; we use the
//! same idea both for tests (arbitrary valid networks for property
//! testing) and as the skeleton of the NIPS benchmark family in
//! [`crate::nips`].
//!
//! The construction is a *region graph*: the full variable set is
//! recursively partitioned; each region carries `repetitions` alternative
//! sub-networks; a parent region combines one representative from each
//! child partition with a product node and mixes the combinations with a
//! sum node. By construction every sum is complete and every product is
//! decomposable.

use crate::builder::SpnBuilder;
use crate::graph::{NodeId, Spn};
use crate::leaf::Leaf;
use crate::validate::SpnError;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Parameters for random structure generation.
#[derive(Debug, Clone)]
pub struct RandomSpnConfig {
    /// Number of random variables.
    pub num_vars: usize,
    /// Per-feature value domain (histogram buckets).
    pub domain: usize,
    /// Alternative sub-networks kept per region (>= 1). More repetitions
    /// mean wider sum nodes and more arithmetic.
    pub repetitions: usize,
    /// Regions with at most this many variables become leaf regions
    /// (factorized products of histogram leaves).
    pub max_leaf_region: usize,
    /// RNG seed (structure and leaf parameters are fully deterministic
    /// given the seed).
    pub seed: u64,
}

impl Default for RandomSpnConfig {
    fn default() -> Self {
        RandomSpnConfig {
            num_vars: 8,
            domain: 16,
            repetitions: 2,
            max_leaf_region: 2,
            seed: 42,
        }
    }
}

/// Generate a random, valid SPN.
pub fn random_spn(cfg: &RandomSpnConfig, name: &str) -> Result<Spn, SpnError> {
    assert!(cfg.num_vars > 0, "need at least one variable");
    assert!(cfg.repetitions > 0, "need at least one repetition");
    assert!(cfg.max_leaf_region > 0, "leaf regions must hold >= 1 var");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = SpnBuilder::new(cfg.num_vars);
    let vars: Vec<usize> = (0..cfg.num_vars).collect();
    let reps = build_region(&mut b, &vars, cfg, &mut rng);
    // The root mixes the top region's repetitions.
    let root = if reps.len() == 1 {
        reps[0]
    } else {
        let w = dirichlet_ish(reps.len(), &mut rng);
        b.sum(w.into_iter().zip(reps).collect())
    };
    b.finish(root, name)
}

/// Build a region over `vars`, returning `repetitions` alternative roots.
fn build_region(
    b: &mut SpnBuilder,
    vars: &[usize],
    cfg: &RandomSpnConfig,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    if vars.len() <= cfg.max_leaf_region {
        // Leaf region: each repetition is a fresh factorization with its
        // own random histograms.
        return (0..cfg.repetitions)
            .map(|_| {
                let leaves: Vec<NodeId> = vars
                    .iter()
                    .map(|&v| b.leaf(v, random_histogram(cfg.domain, rng)))
                    .collect();
                if leaves.len() == 1 {
                    leaves[0]
                } else {
                    b.product(leaves)
                }
            })
            .collect();
    }

    // Random balanced-ish split.
    let mut shuffled = vars.to_vec();
    shuffled.shuffle(rng);
    let cut = shuffled.len() / 2;
    let (left, right) = shuffled.split_at(cut);
    let mut left = left.to_vec();
    let mut right = right.to_vec();
    left.sort_unstable();
    right.sort_unstable();

    let lreps = build_region(b, &left, cfg, rng);
    let rreps = build_region(b, &right, cfg, rng);

    // All cross-products of child representatives, then `repetitions`
    // sums over them with independent random weights.
    let mut products = Vec::with_capacity(lreps.len() * rreps.len());
    for &l in &lreps {
        for &r in &rreps {
            products.push(b.product(vec![l, r]));
        }
    }
    (0..cfg.repetitions)
        .map(|_| {
            let w = dirichlet_ish(products.len(), rng);
            b.sum(w.into_iter().zip(products.iter().copied()).collect())
        })
        .collect()
}

/// Random normalized histogram over `domain` unit buckets, with all
/// densities strictly positive (log-domain hardware requirement).
pub(crate) fn random_histogram(domain: usize, rng: &mut StdRng) -> Leaf {
    let raw: Vec<f64> = (0..domain).map(|_| rng.gen::<f64>() + 0.01).collect();
    let total: f64 = raw.iter().sum();
    let probs: Vec<f64> = raw.iter().map(|r| r / total).collect();
    Leaf::byte_histogram(&probs)
}

/// Normalized positive weights that sum to 1.
fn dirichlet_ish(n: usize, rng: &mut StdRng) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.05).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|r| r / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Node;
    use crate::infer::Evaluator;
    use crate::query::Query;

    #[test]
    fn generates_valid_networks_across_sizes() {
        for num_vars in [1, 2, 3, 5, 8, 13, 40] {
            let cfg = RandomSpnConfig {
                num_vars,
                ..Default::default()
            };
            let spn = random_spn(&cfg, "rnd").unwrap();
            assert_eq!(spn.num_vars(), num_vars);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = RandomSpnConfig::default();
        let a = random_spn(&cfg, "a").unwrap();
        let b = random_spn(&cfg, "b").unwrap();
        assert_eq!(a.nodes(), b.nodes());
        let c = random_spn(
            &RandomSpnConfig {
                seed: 43,
                ..cfg.clone()
            },
            "c",
        )
        .unwrap();
        assert_ne!(a.nodes(), c.nodes());
    }

    #[test]
    fn repetitions_widen_the_network() {
        let small = random_spn(
            &RandomSpnConfig {
                repetitions: 1,
                ..Default::default()
            },
            "r1",
        )
        .unwrap();
        let big = random_spn(
            &RandomSpnConfig {
                repetitions: 3,
                ..Default::default()
            },
            "r3",
        )
        .unwrap();
        assert!(big.len() > small.len());
    }

    #[test]
    fn random_network_is_normalized_on_small_domain() {
        let cfg = RandomSpnConfig {
            num_vars: 3,
            domain: 4,
            repetitions: 2,
            max_leaf_region: 1,
            seed: 9,
        };
        let spn = random_spn(&cfg, "norm").unwrap();
        let mut ev = Evaluator::new(&spn);
        let mut total = 0.0;
        for a in 0..4u8 {
            for b in 0..4u8 {
                for c in 0..4u8 {
                    total += ev.eval_bytes(&Query::Complete, &[a, b, c]).exp();
                }
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    #[test]
    fn single_var_network() {
        let cfg = RandomSpnConfig {
            num_vars: 1,
            repetitions: 2,
            ..Default::default()
        };
        let spn = random_spn(&cfg, "one").unwrap();
        // Root should be a sum over the two repetitions' leaves.
        assert!(matches!(spn.node(spn.root()), Node::Sum { .. }));
    }

    #[test]
    fn random_histogram_is_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        for domain in [1, 2, 16, 256] {
            let h = random_histogram(domain, &mut rng);
            h.validate().unwrap();
            assert_eq!(h.table_size(), Some(domain));
        }
    }
}
