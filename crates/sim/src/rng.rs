//! A small deterministic pseudo-random number generator.
//!
//! The simulator needs randomness in two places: synthetic workload
//! generation and the randomized exponential backoff of TokenB's reissue
//! policy ("much like ethernet", Section 4.2 of the paper). Both must be
//! reproducible from a seed so that the same configuration always produces
//! the same timing results; the paper's methodology of re-running each design
//! point with small pseudo-random perturbations is reproduced by varying the
//! seed.
//!
//! The generator is SplitMix64 followed by xorshift mixing — small, fast, and
//! statistically adequate for simulation decisions (this is not a
//! cryptographic generator).

use crate::snap_struct;

/// Deterministic pseudo-random number generator (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterministicRng {
    state: u64,
}

impl DeterministicRng {
    /// Creates a generator from a seed. Different seeds give independent
    /// streams; the same seed always gives the same stream.
    pub fn new(seed: u64) -> Self {
        DeterministicRng {
            // Avoid the all-zero state pathologies by mixing the seed once.
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiplicative range reduction; bias is negligible for simulation
        // purposes (bounds are far below 2^64).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a value uniformly distributed in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_below(hi - lo)
    }

    /// Returns a uniformly distributed fraction in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to the weights. Zero-total weights fall back to index 0.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "cannot pick from empty weights");
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return 0;
        }
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Derives an independent generator, useful for giving each node its own
    /// stream from a single configuration seed.
    pub fn fork(&mut self, stream: u64) -> DeterministicRng {
        DeterministicRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

// On the wire a generator is its raw state (no seed mixing on load), so a
// round trip reproduces the stream exactly.
snap_struct!(DeterministicRng { state });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DeterministicRng::new(7);
        for _ in 0..10_000 {
            assert!(rng.next_below(10) < 10);
        }
    }

    #[test]
    fn next_range_stays_in_range() {
        let mut rng = DeterministicRng::new(9);
        for _ in 0..10_000 {
            let v = rng.next_range(100, 200);
            assert!((100..200).contains(&v));
        }
    }

    #[test]
    fn next_f64_is_a_fraction() {
        let mut rng = DeterministicRng::new(11);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes_are_deterministic() {
        let mut rng = DeterministicRng::new(13);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = DeterministicRng::new(17);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut rng = DeterministicRng::new(19);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "observed ratio {ratio}");
    }

    #[test]
    fn pick_weighted_handles_zero_total() {
        let mut rng = DeterministicRng::new(23);
        assert_eq!(rng.pick_weighted(&[0.0, 0.0]), 0);
    }

    #[test]
    fn forked_streams_are_independent_but_reproducible() {
        let mut parent1 = DeterministicRng::new(31);
        let mut parent2 = DeterministicRng::new(31);
        let mut f1 = parent1.fork(5);
        let mut f2 = parent2.fork(5);
        for _ in 0..100 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
        let mut other = parent1.fork(6);
        assert_ne!(other.next_u64(), f1.next_u64());
    }

    #[test]
    fn values_are_reasonably_uniform() {
        let mut rng = DeterministicRng::new(37);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[rng.next_below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b}");
        }
    }
}
