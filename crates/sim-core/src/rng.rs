//! A tiny deterministic RNG for simulation-internal randomness.
//!
//! Models need jitter (e.g. randomized refresh phase) without pulling the
//! full `rand` stack into the simulation kernel, and — critically — with
//! bit-for-bit reproducibility across platforms. This is `splitmix64`,
//! the seeding generator recommended by Vigna; it passes BigCrush for our
//! modest purposes and is two instructions per output.

/// Deterministic 64-bit generator (splitmix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform in [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening multiply rejection-free approximation is fine here:
        // bias is < 2^-64 * bound, negligible for simulation jitter.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The splitmix64 output finalizer: a bijective avalanche mix of one
/// 64-bit word.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a (64-bit) over `bytes`, finished with the splitmix64 mix: the
/// workspace's one platform-stable, dependency-free byte hash (ring
/// placement, trace and reply digests). Not cryptographic. Every
/// per-byte step is a bijection of the running state, so any
/// single-byte change reaches the output; the finalizer supplies the
/// high-bit avalanche raw FNV lacks, which keys differing only in a
/// short suffix need.
pub fn fnv1a_mix64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_mix64_known_answers() {
        assert_eq!(fnv1a_mix64(b""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(fnv1a_mix64(b"abc"), 0x0dd4_9049_0804_b508);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_answer() {
        // Reference values for splitmix64 with seed 1234567.
        let mut r = SplitMix64::new(1234567);
        let first = r.next_u64();
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(first, r2.next_u64());
        // And different seeds diverge immediately.
        assert_ne!(first, SplitMix64::new(1234568).next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_roughly_uniform() {
        let mut r = SplitMix64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = r.next_below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
