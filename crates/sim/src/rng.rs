//! Deterministic pseudo-random number generation.
//!
//! The simulator never consults wall-clock time or OS entropy; every
//! stochastic choice (workload addresses, hash seeds) flows from a
//! user-provided seed through [`Rng`], a xoshiro256** generator seeded via
//! SplitMix64 (the initialization recommended by the xoshiro authors).
//! A run's seed reaches its consumers only through a [`SeedTap`], which
//! records whether any of them read it.

/// A seedable xoshiro256** PRNG.
///
/// # Example
///
/// ```
/// use barre_sim::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A sample from a bounded power-law-ish (Zipf-like, exponent ~1)
    /// distribution over `[0, n)`; used for hot-page skew in graph
    /// workloads. Smaller indices are more likely.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zipf_like(&mut self, n: u64) -> u64 {
        assert!(n > 0, "n must be nonzero");
        // Inverse-CDF of p(x) ~ 1/(x+1) over [0, n): x = n^u - 1.
        let u = self.next_f64();
        let x = ((n as f64).powf(u) - 1.0) as u64;
        x.min(n - 1)
    }

    /// Derives an independent child generator (for per-component streams).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// A run's seed, held privately, with a record of whether anything read
/// it.
///
/// Every consumer of a run's seed derives its value through the tap, so
/// a tap still [`untouched`](SeedTap::untouched) once the run is built
/// proves the run computes the same thing for every seed.
///
/// # Example
///
/// ```
/// use barre_sim::{Rng, SeedTap};
/// let mut tap = SeedTap::new(42);
/// assert!(tap.untouched());
/// assert_eq!(tap.rng(7), Rng::new(42 ^ 7));
/// assert!(!tap.untouched());
/// ```
#[derive(Debug)]
pub struct SeedTap {
    seed: u64,
    read: bool,
}

impl SeedTap {
    /// A tap over `seed` that nothing has read yet.
    pub fn new(seed: u64) -> Self {
        Self { seed, read: false }
    }

    /// The seed XOR `salt`; records the read.
    pub fn salted(&mut self, salt: u64) -> u64 {
        self.read = true;
        self.seed ^ salt
    }

    /// A generator seeded with the seed XOR `salt`; records the read.
    pub fn rng(&mut self, salt: u64) -> Rng {
        Rng::new(self.salted(salt))
    }

    /// Whether nothing has read the seed.
    pub fn untouched(&self) -> bool {
        !self.read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_tap_records_reads_and_derives_as_before() {
        let mut tap = SeedTap::new(0xBA22E);
        assert!(tap.untouched());
        assert_eq!(tap.salted(3), 0xBA22E ^ 3);
        assert!(!tap.untouched());
        let mut a = SeedTap::new(9).rng(5);
        let mut b = Rng::new(9 ^ 5);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_below_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Rng::new(4);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_roughly_uniform() {
        let mut r = Rng::new(5);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.next_below(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket {b} out of range");
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let mut r = Rng::new(6);
        let mut low = 0u32;
        for _ in 0..10_000 {
            if r.zipf_like(1000) < 100 {
                low += 1;
            }
        }
        // With exponent-1 skew, far more than 10% of mass is in the lowest decile.
        assert!(low > 3_000, "low-decile draws: {low}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = Rng::new(9);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
