//! Integration test crate; the suites are `tests/*.rs`. This library
//! holds the helpers they share.

use proptest::prelude::*;
use spn_core::RandomSpnConfig;

/// Strategy: a random-but-valid configuration of a small table-leaf
/// SPN — what the differential suites (`plan_differential`,
/// `datapath_differential`) build their structures from.
pub fn small_spn_configs() -> impl Strategy<Value = RandomSpnConfig> {
    (1usize..=5, 2usize..=4, 1usize..=3, 1usize..=2, any::<u64>()).prop_map(
        |(num_vars, domain, repetitions, max_leaf_region, seed)| RandomSpnConfig {
            num_vars,
            domain,
            repetitions,
            max_leaf_region,
            seed,
        },
    )
}

/// Assert that a scaling series keeps its shape. `points` are
/// `(n, ratio)`: `n` units of a resource (PEs, backends, shards) and a
/// ratio of counts or occupancies the code exports that is `n` when the
/// resource is used perfectly (PE utilisation, total requests over the
/// busiest backend's, total nodes over the largest shard's). Passes
/// when the ratio never falls as `n` grows and every point reaches
/// `floor · n` — no seconds, no committed baseline: a build that stops
/// scaling yields a flat series and fails on any machine.
pub fn assert_scales(label: &str, points: &[(usize, f64)], floor: f64) {
    for (i, &(n, ratio)) in points.iter().enumerate() {
        assert!(
            ratio >= floor * n as f64,
            "{label}: {ratio:.2} at n={n} is below the floor {:.2} ({floor} x n); series {points:?}",
            floor * n as f64
        );
        assert!(
            i == 0 || ratio >= points[i - 1].1,
            "{label}: falls from n={} to n={n}; series {points:?}",
            points[i - 1].0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::assert_scales;

    /// The gate passes what it should: the ideal series, and one that
    /// sits exactly on its floor.
    #[test]
    fn ideal_and_at_floor_series_pass() {
        assert_scales("ideal", &[(1, 1.0), (2, 2.0), (4, 4.0)], 0.8);
        assert_scales("at floor", &[(1, 0.8), (2, 1.6), (4, 3.2)], 0.8);
    }

    /// ...and fails what it must: a build that no longer scales reads
    /// 1.0 at every n.
    #[test]
    #[should_panic(expected = "is below the floor")]
    fn flat_series_fails() {
        assert_scales("flat", &[(1, 1.0), (2, 1.0), (4, 1.0)], 0.8);
    }

    #[test]
    #[should_panic(expected = "falls from n=2 to n=4")]
    fn falling_series_fails() {
        assert_scales("falling", &[(1, 1.0), (2, 3.0), (4, 2.9)], 0.625);
    }
}
