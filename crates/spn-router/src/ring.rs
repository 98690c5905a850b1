//! Consistent-hash placement of models on backends.
//!
//! Each backend contributes `weight × VNODES_PER_WEIGHT` virtual
//! nodes, hashed deterministically from its backend id alone — the
//! ring is a pure function of the backend list, so every router
//! instance (and every restart) computes the same placement without
//! coordination. A model's replica set is the first K *distinct*
//! backends met walking clockwise from the model's hash point.
//!
//! Why consistent hashing instead of static assignment: adding or
//! removing one backend moves only ~1/N of the models (the arcs the
//! backend's vnodes owned), so a scale-out does not invalidate every
//! backend's warm state (plan caches, batcher queues) the way a
//! modulo placement would.

use sim_core::fnv1a_mix64;

/// Virtual nodes per unit of weight. High enough that per-backend
/// load imbalance stays in the low single-digit percent range.
pub(crate) const VNODES_PER_WEIGHT: u32 = 64;

/// The ring: sorted virtual nodes, each owned by a backend index.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(vnode hash, backend index)`, sorted by hash.
    ring: Vec<(u64, usize)>,
    num_backends: usize,
}

impl HashRing {
    /// Build a ring over `backends`, every backend with weight 1.
    pub fn new(backends: &[String]) -> HashRing {
        HashRing::with_weights(&backends.iter().map(|b| (b.clone(), 1)).collect::<Vec<_>>())
    }

    /// Build a ring with explicit integer weights (a weight-2 backend
    /// owns ~2× the arc and attracts ~2× the models).
    pub(crate) fn with_weights(backends: &[(String, u32)]) -> HashRing {
        assert!(!backends.is_empty(), "ring needs at least one backend");
        let mut ring = Vec::new();
        for (idx, (id, weight)) in backends.iter().enumerate() {
            assert!(*weight > 0, "backend '{id}' has zero weight");
            for v in 0..weight * VNODES_PER_WEIGHT {
                let key = format!("{id}#{v}");
                ring.push((fnv1a_mix64(key.as_bytes()), idx));
            }
        }
        ring.sort_unstable();
        HashRing {
            ring,
            num_backends: backends.len(),
        }
    }

    /// The ordered replica set for `model`: up to `k` distinct backend
    /// indices, first-met-clockwise first. The first entry is the
    /// model's primary; the rest are failover targets in preference
    /// order. `k` larger than the backend count returns them all.
    pub fn replicas(&self, model: &str, k: usize) -> Vec<usize> {
        let k = k.min(self.num_backends).max(1);
        let h = fnv1a_mix64(model.as_bytes());
        let start = self.ring.partition_point(|&(vh, _)| vh < h);
        let mut out = Vec::with_capacity(k);
        for i in 0..self.ring.len() {
            let (_, backend) = self.ring[(start + i) % self.ring.len()];
            if !out.contains(&backend) {
                out.push(backend);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    /// Known answers: placement is part of the cluster contract (every
    /// router instance, on every platform and after every refactor of
    /// the hash, must agree where a model lives).
    #[test]
    fn placement_known_answers() {
        let ring = HashRing::new(&ids(4));
        for (model, replicas, walk) in [
            ("NIPS5", [3, 0, 2], [3, 0, 2, 1]),
            ("NIPS10", [3, 0, 2], [3, 0, 2, 1]),
            ("NIPS20", [1, 2, 3], [1, 2, 3, 0]),
            ("NIPS80", [1, 3, 2], [1, 3, 2, 0]),
            ("model-a", [2, 0, 1], [2, 0, 1, 3]),
        ] {
            assert_eq!(ring.replicas(model, 3), replicas, "{model}");
            assert_eq!(ring.replicas(model, 4), walk, "{model}");
        }
    }

    #[test]
    fn placement_is_deterministic_across_builds() {
        let a = HashRing::new(&ids(4));
        let b = HashRing::new(&ids(4));
        for m in ["NIPS10", "NIPS20", "alpha", "zeta"] {
            assert_eq!(a.replicas(m, 2), b.replicas(m, 2));
        }
    }

    #[test]
    fn replicas_are_distinct_and_capped_at_backend_count() {
        let ring = HashRing::new(&ids(3));
        let r = ring.replicas("NIPS10", 2);
        assert_eq!(r.len(), 2);
        assert_ne!(r[0], r[1]);
        // Asking for more replicas than backends returns them all.
        let all = ring.replicas("NIPS10", 10);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn load_spreads_over_backends() {
        let ring = HashRing::new(&ids(4));
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[ring.replicas(&format!("model-{i}"), 1)[0]] += 1;
        }
        // With 64 vnodes each, no backend should own a wildly skewed
        // share of 1000 primaries (exact split would be 250).
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (100..500).contains(&c),
                "backend {b} owns {c}/1000 primaries"
            );
        }
    }

    #[test]
    fn removing_a_backend_moves_only_its_arcs() {
        let four = HashRing::new(&ids(4));
        let three = HashRing::new(&ids(3)); // backend 3 removed
        let mut moved = 0;
        for i in 0..1000 {
            let model = format!("model-{i}");
            let before = four.replicas(&model, 1)[0];
            let after = three.replicas(&model, 1)[0];
            if before != 3 && before != after {
                moved += 1;
            }
        }
        // Models not on the removed backend overwhelmingly stay put —
        // the consistent-hashing property static assignment lacks.
        assert!(moved < 50, "{moved}/1000 unrelated models moved");
    }

    #[test]
    fn weights_shift_ownership() {
        let ring = HashRing::with_weights(&[("a".to_string(), 1), ("b".to_string(), 3)]);
        let mut b_count = 0;
        for i in 0..1000 {
            if ring.replicas(&format!("m{i}"), 1)[0] == 1 {
                b_count += 1;
            }
        }
        assert!(
            (600..900).contains(&b_count),
            "weight-3 backend owns {b_count}/1000"
        );
    }
}
