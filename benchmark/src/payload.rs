//! Seeded request payloads. The program under test never sees the
//! seed, only the feature blocks generated from it.

/// SplitMix64 (Steele, Lea, Flood 2014) — the benchmark's own copy, so
/// that no change to the repository's generators can move the inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A row-major `samples × features` block of word counts: the product
/// of two uniform bytes, scaled back to a byte, which skews towards
/// small counts the way bag-of-words data does while still reaching
/// every value of the 0..=255 domain.
pub fn feature_block(rng: &mut SplitMix64, samples: usize, features: usize) -> Vec<u8> {
    (0..samples * features)
        .map(|_| {
            let r = rng.next_u64();
            let (a, b) = ((r >> 8) & 0xFF, (r >> 40) & 0xFF);
            ((a * b) >> 8) as u8
        })
        .collect()
}

/// The `pool` distinct feature blocks of a workload, from its seed.
pub fn feature_pool(seed: u64, pool: usize, samples: usize, features: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..pool)
        .map(|_| feature_block(&mut rng, samples, features))
        .collect()
}

/// Whether `reply` equals `oracle` bit for bit.
pub fn bits_equal(reply: &[f64], oracle: &[f64]) -> bool {
    reply.len() == oracle.len()
        && reply
            .iter()
            .zip(oracle)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_blocks_and_distinct_requests() {
        let a = feature_pool(7, 8, 16, 10);
        let b = feature_pool(7, 8, 16, 10);
        let c = feature_pool(8, 8, 16, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for i in 0..a.len() {
            assert_eq!(a[i].len(), 160);
            for j in 0..i {
                assert_ne!(a[i], a[j], "pool entries {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn one_flipped_mantissa_bit_is_a_mismatch() {
        let oracle = vec![-12.5f64, -0.25, f64::NEG_INFINITY];
        assert!(bits_equal(&oracle, &oracle));
        let mut reply = oracle.clone();
        reply[1] = f64::from_bits(reply[1].to_bits() ^ 1);
        assert!(!bits_equal(&reply, &oracle));
        assert!(!bits_equal(&oracle[..2], &oracle));
        // -0.0 == 0.0 numerically, but not bit for bit.
        assert!(!bits_equal(&[0.0], &[-0.0]));
    }
}
