//! LearnSPN-style structure learning.
//!
//! The paper (Section II-A) sketches the classic recipe: test groups of
//! variables for independence — if independent subsets exist, introduce a
//! *product* node; otherwise cluster the rows and introduce a *sum* node;
//! recurse until a single variable remains, which becomes a histogram
//! leaf. This module implements that recipe (Gens & Domingos 2013,
//! adapted to byte-valued Mixed-SPN data):
//!
//! * Variable splits use pairwise **mutual information** with a G-test
//!   style threshold, then connected components of the dependency graph.
//! * Row splits use deterministic **k-means** (k = 2) on the byte rows.
//! * Leaves are Laplace-smoothed byte histograms, so every bucket has
//!   non-zero mass — a hard requirement for the log-domain hardware.

use crate::builder::SpnBuilder;
use crate::dataset::Dataset;
use crate::graph::{NodeId, Spn};
use crate::leaf::Leaf;
use crate::validate::SpnError;

/// Structure-learning hyperparameters.
#[derive(Debug, Clone)]
pub struct LearnParams {
    /// Below this many rows, stop splitting and factorize all variables.
    pub min_instances: usize,
    /// Mutual-information threshold (nats) above which two variables are
    /// considered dependent.
    pub independence_threshold: f64,
    /// Laplace smoothing for leaf histograms.
    pub smoothing: f64,
    /// Maximum recursion depth (safety bound; alternating sum/product
    /// levels count individually).
    pub max_depth: usize,
    /// k-means iterations for row clustering.
    pub kmeans_iters: usize,
    /// Seed for the deterministic clustering initialization.
    pub seed: u64,
}

impl Default for LearnParams {
    fn default() -> Self {
        LearnParams {
            min_instances: 64,
            independence_threshold: 0.05,
            smoothing: 1.0,
            max_depth: 32,
            kmeans_iters: 10,
            seed: 0x5EED,
        }
    }
}

/// Learn an SPN from data.
///
/// Returns a validated network over `data.num_features()` variables.
pub fn learn_spn(data: &Dataset, params: &LearnParams, name: &str) -> Result<Spn, SpnError> {
    assert!(data.num_samples() > 0, "cannot learn from an empty dataset");
    let mut b = SpnBuilder::new(data.num_features());
    let all_vars: Vec<usize> = (0..data.num_features()).collect();
    let all_rows: Vec<usize> = (0..data.num_samples()).collect();
    let root = learn_node(&mut b, data, &all_rows, &all_vars, params, 0);
    b.finish(root, name)
}

fn learn_node(
    b: &mut SpnBuilder,
    data: &Dataset,
    rows: &[usize],
    vars: &[usize],
    params: &LearnParams,
    depth: usize,
) -> NodeId {
    debug_assert!(!vars.is_empty());
    // Base case: single variable -> histogram leaf.
    if vars.len() == 1 {
        return fit_leaf(b, data, rows, vars[0], params);
    }
    // Too little data or too deep: assume full independence.
    if rows.len() < params.min_instances || depth >= params.max_depth {
        return factorize(b, data, rows, vars, params);
    }

    // Try a product split via independence components.
    let components = independence_components(data, rows, vars, params.independence_threshold);
    if components.len() > 1 {
        let children: Vec<NodeId> = components
            .iter()
            .map(|comp| learn_node(b, data, rows, comp, params, depth + 1))
            .collect();
        return b.product(children);
    }

    // Otherwise split rows into clusters and build a sum.
    let (cluster_a, cluster_b) = kmeans2(data, rows, vars, params);
    if cluster_a.is_empty() || cluster_b.is_empty() {
        // Degenerate clustering (all rows identical): factorize.
        return factorize(b, data, rows, vars, params);
    }
    let wa = cluster_a.len() as f64 / rows.len() as f64;
    let wb = 1.0 - wa;
    let ca = learn_node(b, data, &cluster_a, vars, params, depth + 1);
    let cb = learn_node(b, data, &cluster_b, vars, params, depth + 1);
    b.sum(vec![(wa, ca), (wb, cb)])
}

/// Product of single-variable leaves over `vars`.
fn factorize(
    b: &mut SpnBuilder,
    data: &Dataset,
    rows: &[usize],
    vars: &[usize],
    params: &LearnParams,
) -> NodeId {
    let children: Vec<NodeId> = vars
        .iter()
        .map(|&v| fit_leaf(b, data, rows, v, params))
        .collect();
    if children.len() == 1 {
        children[0]
    } else {
        b.product(children)
    }
}

fn fit_leaf(
    b: &mut SpnBuilder,
    data: &Dataset,
    rows: &[usize],
    var: usize,
    params: &LearnParams,
) -> NodeId {
    let values: Vec<u8> = rows.iter().map(|&r| data.row(r)[var]).collect();
    let leaf = Leaf::fit_byte_histogram(&values, data.domain(), params.smoothing);
    b.leaf(var, leaf)
}

/// Pairwise empirical mutual information between two columns, in nats.
pub(crate) fn mutual_information(data: &Dataset, rows: &[usize], a: usize, c: usize) -> f64 {
    let domain = data.domain();
    let n = rows.len();
    if n == 0 {
        return 0.0;
    }
    let mut joint = vec![0f64; domain * domain];
    let mut ma = vec![0f64; domain];
    let mut mc = vec![0f64; domain];
    for &r in rows {
        let row = data.row(r);
        let (va, vc) = (row[a] as usize, row[c] as usize);
        joint[va * domain + vc] += 1.0;
        ma[va] += 1.0;
        mc[vc] += 1.0;
    }
    let nf = n as f64;
    let mut mi = 0.0;
    for va in 0..domain {
        if ma[va] == 0.0 {
            continue;
        }
        for vc in 0..domain {
            let j = joint[va * domain + vc];
            if j == 0.0 || mc[vc] == 0.0 {
                continue;
            }
            let pj = j / nf;
            mi += pj * (pj / ((ma[va] / nf) * (mc[vc] / nf))).ln();
        }
    }
    mi.max(0.0)
}

/// Partition `vars` into connected components of the "dependent"
/// relation (MI above threshold). Each component keeps ascending order.
fn independence_components(
    data: &Dataset,
    rows: &[usize],
    vars: &[usize],
    threshold: f64,
) -> Vec<Vec<usize>> {
    let k = vars.len();
    // Union-find over local indices.
    let mut parent: Vec<usize> = (0..k).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..k {
        for j in (i + 1)..k {
            let mi = mutual_information(data, rows, vars[i], vars[j]);
            if mi > threshold {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &var) in vars.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(var);
    }
    groups.into_values().collect()
}

/// Deterministic 2-means over the selected rows/vars. Returns the two
/// row-index clusters (either may be empty in degenerate cases).
fn kmeans2(
    data: &Dataset,
    rows: &[usize],
    vars: &[usize],
    params: &LearnParams,
) -> (Vec<usize>, Vec<usize>) {
    let d = vars.len();
    // Initialize centroids from the two most distant of a deterministic
    // sample of rows (cheap k-means++ approximation).
    let probe = |r: usize| -> Vec<f64> {
        let row = data.row(r);
        vars.iter().map(|&v| row[v] as f64).collect()
    };
    let first = rows[params.seed as usize % rows.len()];
    let c0_init = probe(first);
    // Farthest row from c0 becomes c1.
    let far = rows
        .iter()
        .copied()
        .max_by(|&x, &y| {
            dist2(&probe(x), &c0_init)
                .partial_cmp(&dist2(&probe(y), &c0_init))
                .unwrap()
        })
        .unwrap();
    let mut c0 = c0_init;
    let mut c1 = probe(far);

    let mut assign = vec![false; rows.len()]; // false -> cluster 0
    for _ in 0..params.kmeans_iters {
        let mut changed = false;
        for (i, &r) in rows.iter().enumerate() {
            let p = probe(r);
            let to_one = dist2(&p, &c1) < dist2(&p, &c0);
            if assign[i] != to_one {
                assign[i] = to_one;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Recompute centroids.
        let mut sum0 = vec![0.0; d];
        let mut sum1 = vec![0.0; d];
        let mut n0 = 0usize;
        let mut n1 = 0usize;
        for (i, &r) in rows.iter().enumerate() {
            let p = probe(r);
            if assign[i] {
                for (s, v) in sum1.iter_mut().zip(&p) {
                    *s += v;
                }
                n1 += 1;
            } else {
                for (s, v) in sum0.iter_mut().zip(&p) {
                    *s += v;
                }
                n0 += 1;
            }
        }
        if n0 == 0 || n1 == 0 {
            break;
        }
        for s in &mut sum0 {
            *s /= n0 as f64;
        }
        for s in &mut sum1 {
            *s /= n1 as f64;
        }
        c0 = sum0;
        c1 = sum1;
    }

    let mut a = Vec::new();
    let mut b_rows = Vec::new();
    for (i, &r) in rows.iter().enumerate() {
        if assign[i] {
            b_rows.push(r);
        } else {
            a.push(r);
        }
    }
    (a, b_rows)
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_bag_of_words, BagOfWordsConfig};
    use crate::infer::Evaluator;
    use crate::query::Query;

    fn clustered_data(features: usize, samples: usize) -> Dataset {
        generate_bag_of_words(
            &BagOfWordsConfig {
                num_features: features,
                domain: 8,
                num_clusters: 3,
                concentration: 2.5,
                seed: 11,
            },
            samples,
        )
    }

    #[test]
    fn learns_valid_spn() {
        let data = clustered_data(6, 800);
        let spn = learn_spn(&data, &LearnParams::default(), "learned").unwrap();
        assert_eq!(spn.num_vars(), 6);
        let st = spn.stats();
        assert!(st.sums >= 1, "clustered data should induce sum nodes");
        assert!(st.leaves >= 6);
    }

    #[test]
    fn learned_model_fits_better_than_uniform() {
        let data = clustered_data(5, 1000);
        let spn = learn_spn(&data, &LearnParams::default(), "fit").unwrap();
        let mut ev = Evaluator::new(&spn);
        let mean_ll: f64 = data
            .rows()
            .map(|r| ev.eval_bytes(&Query::Complete, r))
            .sum::<f64>()
            / data.num_samples() as f64;
        // Uniform model over 8^5 outcomes -> mean LL = -5 ln 8 ≈ -10.4.
        let uniform_ll = -(5.0 * (8f64).ln());
        assert!(
            mean_ll > uniform_ll + 0.5,
            "learned mean LL {mean_ll} should clearly beat uniform {uniform_ll}"
        );
    }

    #[test]
    fn small_data_factorizes() {
        let data = clustered_data(4, 16); // below min_instances
        let spn = learn_spn(&data, &LearnParams::default(), "tiny").unwrap();
        // Should be a single product of leaves (or just leaves).
        assert_eq!(spn.stats().sums, 0);
        assert_eq!(spn.stats().leaves, 4);
    }

    #[test]
    fn single_feature_is_leaf_only() {
        let data = clustered_data(1, 500);
        let spn = learn_spn(&data, &LearnParams::default(), "one").unwrap();
        assert_eq!(spn.stats().leaves, 1);
        assert_eq!(spn.stats().nodes, 1);
    }

    #[test]
    fn mutual_information_detects_dependence() {
        // Construct perfectly correlated columns vs independent ones.
        let n = 512;
        let mut raw = Vec::with_capacity(n * 3);
        for i in 0..n {
            let a = (i % 4) as u8;
            raw.push(a); // col 0
            raw.push(a); // col 1 == col 0 (dependent)
            raw.push(((i / 4) % 4) as u8); // col 2 cycles independently
        }
        let d = Dataset::from_raw(raw, 3, 4);
        let rows: Vec<usize> = (0..n).collect();
        let dep = mutual_information(&d, &rows, 0, 1);
        let indep = mutual_information(&d, &rows, 0, 2);
        assert!(
            dep > 1.0,
            "identical columns should have MI ~ln4, got {dep}"
        );
        assert!(
            indep < 0.01,
            "cycled columns should be ~independent, got {indep}"
        );
    }

    #[test]
    fn independent_features_induce_product_root() {
        // Two independent uniform features.
        let d = crate::dataset::generate_uniform(2000, 2, 8, 5);
        let spn = learn_spn(&d, &LearnParams::default(), "indep").unwrap();
        assert!(
            spn.node(spn.root()).is_product(),
            "independent features should factorize at the root"
        );
    }

    #[test]
    fn learning_is_deterministic() {
        let data = clustered_data(5, 600);
        let a = learn_spn(&data, &LearnParams::default(), "a").unwrap();
        let b = learn_spn(&data, &LearnParams::default(), "b").unwrap();
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn model_normalizes_on_small_domain() {
        // Full enumeration over a tiny domain checks the learned model is
        // a proper distribution.
        let data = clustered_data(2, 700);
        let spn = learn_spn(&data, &LearnParams::default(), "norm").unwrap();
        let mut ev = Evaluator::new(&spn);
        let mut total = 0.0;
        for a in 0..8u8 {
            for b in 0..8u8 {
                total += ev.eval_bytes(&Query::Complete, &[a, b]).exp();
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }
}
