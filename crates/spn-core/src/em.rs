//! EM parameter learning: optimizing sum-node weights for a fixed
//! structure.
//!
//! Structure learning ([`crate::learn`]) fixes the graph; this module
//! fits the mixture weights to data with the classic expectation-
//! maximization scheme for SPNs (Poon & Domingos 2011, "hard"/soft
//! inference variants — we implement the soft one):
//!
//! * **E-step** — per sample, an upward pass computes every node's
//!   log-value, then a downward pass distributes unit "flow" from the
//!   root: a sum node routes flow to child `c` in proportion to
//!   `w_c · value_c / value_node`; a product node passes its flow to
//!   all children.
//! * **M-step** — each sum edge's new weight is its accumulated flow,
//!   Laplace-smoothed and normalized per node.
//!
//! EM monotonically increases training likelihood (up to smoothing),
//! which the tests assert.

use crate::dataset::Dataset;
use crate::graph::{Node, Spn};
use crate::infer::log_sum_exp_weighted;
use crate::transform::normalize_weights;
use crate::validate::SpnError;

/// EM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct EmParams {
    /// Number of EM iterations.
    pub iterations: usize,
    /// Laplace smoothing added to each edge's expected count (keeps
    /// weights strictly positive).
    pub smoothing: f64,
}

impl Default for EmParams {
    fn default() -> Self {
        EmParams {
            iterations: 10,
            smoothing: 0.1,
        }
    }
}

/// Per-iteration progress record.
#[derive(Debug, Clone, Copy)]
pub struct EmIteration {
    /// Iteration index (0 = before any update).
    pub iteration: usize,
    /// Mean train log-likelihood under the weights *entering* the
    /// iteration.
    pub mean_log_likelihood: f64,
}

/// Run EM weight learning. Returns the re-weighted SPN and the
/// per-iteration likelihood trajectory (including a final entry for the
/// returned model).
pub fn em_weights(
    spn: &Spn,
    data: &Dataset,
    params: &EmParams,
) -> Result<(Spn, Vec<EmIteration>), SpnError> {
    assert!(data.num_samples() > 0, "EM needs data");
    assert!(params.smoothing > 0.0, "smoothing must be positive");
    let mut current = spn.clone();
    let mut history = Vec::with_capacity(params.iterations + 1);

    for it in 0..params.iterations {
        let (mean_ll, flows) = e_step(&current, data);
        history.push(EmIteration {
            iteration: it,
            mean_log_likelihood: mean_ll,
        });
        current = m_step(&current, &flows, params.smoothing)?;
    }
    let (final_ll, _) = e_step(&current, data);
    history.push(EmIteration {
        iteration: params.iterations,
        mean_log_likelihood: final_ll,
    });
    Ok((current, history))
}

/// Upward + downward pass over every sample. Returns the mean train
/// log-likelihood and, per sum node, the accumulated flow per edge
/// (indexed like the node's child list; empty vectors for non-sums).
fn e_step(spn: &Spn, data: &Dataset) -> (f64, Vec<Vec<f64>>) {
    let n = spn.len();
    let mut flows: Vec<Vec<f64>> = spn
        .nodes()
        .iter()
        .map(|node| match node {
            Node::Sum { children, .. } => vec![0.0; children.len()],
            _ => Vec::new(),
        })
        .collect();
    let mut log_value = vec![0.0f64; n];
    let mut flow = vec![0.0f64; n];
    let mut total_ll = 0.0;

    for row in data.rows() {
        // Upward: log-values.
        for (i, node) in spn.nodes().iter().enumerate() {
            log_value[i] = match node {
                Node::Leaf { var, dist } => dist.log_density(Some(row[*var] as f64)),
                Node::Product { children } => children.iter().map(|c| log_value[c.index()]).sum(),
                Node::Sum { children, weights } => log_sum_exp_weighted(
                    children
                        .iter()
                        .zip(weights)
                        .map(|(c, &w)| (log_value[c.index()], w)),
                ),
            };
        }
        let root_ll = log_value[spn.root().index()];
        total_ll += root_ll;
        if !root_ll.is_finite() {
            // Out-of-support sample contributes no flow.
            continue;
        }
        // Downward: distribute flow from the root.
        flow.fill(0.0);
        flow[spn.root().index()] = 1.0;
        for i in (0..n).rev() {
            let f = flow[i];
            if f == 0.0 {
                continue;
            }
            match &spn.nodes()[i] {
                Node::Leaf { .. } => {}
                Node::Product { children } => {
                    for c in children {
                        flow[c.index()] += f;
                    }
                }
                Node::Sum { children, weights } => {
                    let lv = log_value[i];
                    for (k, (c, &w)) in children.iter().zip(weights).enumerate() {
                        if w <= 0.0 {
                            continue;
                        }
                        let share = w * (log_value[c.index()] - lv).exp();
                        flow[c.index()] += f * share;
                        flows[i][k] += f * share;
                    }
                }
            }
        }
    }

    (total_ll / data.num_samples() as f64, flows)
}

/// Rebuild with weights proportional to smoothed flows.
fn m_step(spn: &Spn, flows: &[Vec<f64>], smoothing: f64) -> Result<Spn, SpnError> {
    let mut b = crate::builder::SpnBuilder::new(spn.num_vars());
    let mut map = Vec::with_capacity(spn.len());
    for (i, node) in spn.nodes().iter().enumerate() {
        let id = match node {
            Node::Leaf { var, dist } => b.leaf(*var, dist.clone()),
            Node::Product { children } => {
                b.product(children.iter().map(|c| map[c.index()]).collect())
            }
            Node::Sum { children, .. } => {
                let counts = &flows[i];
                let total: f64 = counts.iter().sum::<f64>() + smoothing * counts.len() as f64;
                b.sum(
                    children
                        .iter()
                        .zip(counts)
                        .map(|(c, &cnt)| ((cnt + smoothing) / total, map[c.index()]))
                        .collect(),
                )
            }
        };
        map.push(id);
    }
    // Normalize exactly (guards against floating drift over iterations).
    normalize_weights(&b.finish_unchecked(map[spn.root().index()], &spn.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;
    use crate::leaf::Leaf;
    use crate::query::Query;
    use crate::sample::Sampler;

    /// Two-component mixture with distinctive components.
    fn true_model(w0: f64) -> Spn {
        let mut b = SpnBuilder::new(2);
        let a0 = b.leaf(0, Leaf::byte_histogram(&[0.9, 0.1]));
        let a1 = b.leaf(1, Leaf::byte_histogram(&[0.8, 0.2]));
        let c0 = b.leaf(0, Leaf::byte_histogram(&[0.1, 0.9]));
        let c1 = b.leaf(1, Leaf::byte_histogram(&[0.2, 0.8]));
        let p0 = b.product(vec![a0, a1]);
        let p1 = b.product(vec![c0, c1]);
        let s = b.sum(vec![(w0, p0), (1.0 - w0, p1)]);
        b.finish(s, "true").unwrap()
    }

    fn data_from(spn: &Spn, n: usize, seed: u64) -> Dataset {
        let raw = Sampler::new(spn, seed).sample_bytes(n);
        Dataset::from_raw(raw, spn.num_vars(), 2)
    }

    #[test]
    fn em_recovers_mixture_weights() {
        let truth = true_model(0.75);
        let data = data_from(&truth, 8000, 42);
        // Start from the wrong weights (uniform).
        let start = true_model(0.5);
        let (fitted, _) = em_weights(&start, &data, &EmParams::default()).unwrap();
        match fitted.node(fitted.root()) {
            Node::Sum { weights, .. } => {
                assert!(
                    (weights[0] - 0.75).abs() < 0.03,
                    "recovered w0 = {}",
                    weights[0]
                );
            }
            _ => panic!("root is a sum"),
        }
    }

    #[test]
    fn em_monotonically_improves_likelihood() {
        let truth = true_model(0.85);
        let data = data_from(&truth, 3000, 7);
        let start = true_model(0.3);
        let (_, history) = em_weights(
            &start,
            &data,
            &EmParams {
                iterations: 8,
                smoothing: 1e-3,
            },
        )
        .unwrap();
        assert_eq!(history.len(), 9);
        for w in history.windows(2) {
            assert!(
                w[1].mean_log_likelihood >= w[0].mean_log_likelihood - 1e-9,
                "LL decreased: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // And meaningfully improves from the bad start.
        assert!(
            history.last().unwrap().mean_log_likelihood > history[0].mean_log_likelihood + 0.01
        );
    }

    #[test]
    fn em_on_learned_structure_improves_fit() {
        // learn_spn fits leaves + cluster proportions; EM polishes the
        // weights jointly.
        let cfg = crate::dataset::BagOfWordsConfig {
            num_features: 4,
            domain: 8,
            num_clusters: 3,
            concentration: 2.0,
            seed: 5,
        };
        let data = crate::dataset::generate_bag_of_words(&cfg, 2000);
        let learned =
            crate::learn::learn_spn(&data, &crate::learn::LearnParams::default(), "l").unwrap();
        let (_, history) = em_weights(
            &learned,
            &data,
            &EmParams {
                iterations: 5,
                smoothing: 0.05,
            },
        )
        .unwrap();
        assert!(
            history.last().unwrap().mean_log_likelihood >= history[0].mean_log_likelihood - 1e-9
        );
    }

    #[test]
    fn em_output_is_valid_and_usable() {
        let truth = true_model(0.6);
        let data = data_from(&truth, 500, 3);
        let (fitted, _) = em_weights(&truth, &data, &EmParams::default()).unwrap();
        crate::validate::validate(&fitted).unwrap();
        // The fitted model still normalizes.
        let mut ev = crate::infer::Evaluator::new(&fitted);
        let total: f64 = [[0u8, 0], [0, 1], [1, 0], [1, 1]]
            .iter()
            .map(|s| ev.eval_bytes(&Query::Complete, s).exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_keeps_dead_components_alive() {
        // A component that never explains data keeps epsilon weight.
        let truth = true_model(1.0 - 1e-12);
        let data = data_from(&truth, 400, 9);
        let start = true_model(0.5);
        let (fitted, _) = em_weights(
            &start,
            &data,
            &EmParams {
                iterations: 6,
                smoothing: 0.5,
            },
        )
        .unwrap();
        match fitted.node(fitted.root()) {
            Node::Sum { weights, .. } => {
                assert!(weights.iter().all(|&w| w > 0.0), "{weights:?}");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "EM needs data")]
    fn empty_data_panics() {
        let spn = true_model(0.5);
        let empty = Dataset::from_raw(vec![], 2, 2);
        let _ = em_weights(&spn, &empty, &EmParams::default());
    }
}
