//! A small deterministic PRNG for workloads and tests.
//!
//! The build environment has no crates registry, so the simulator carries
//! its own generator instead of depending on `rand`. [`Rng64`] is the
//! SplitMix64 generator (Steele, Lea, Flood — "Fast splittable pseudorandom
//! number generators", OOPSLA 2014): tiny, fast, and statistically solid
//! for its 64-bit state, which is exactly what deterministic traffic
//! generation and property tests need. It is **not** a cryptographic
//! generator.

/// A deterministic 64-bit pseudorandom generator (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Identical seeds yield identical
    /// sequences on every platform.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `u64` in `[0, bound)` (Lemire's debiased multiply-shift).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection sampling on the top bits keeps the distribution exact.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = u128::from(r) * u128::from(bound);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// A uniform `u64` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// A uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 bits of randomness, same resolution as a uniform f64.
        let r = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        r < p
    }
}

impl Rng64 {
    /// Walks the generator through a state visitor: its entire dynamic
    /// state is the 64-bit SplitMix64 counter; carrying it makes restored
    /// traffic sources continue the exact sequence the snapshot
    /// interrupted.
    pub fn walk<V: crate::persist::StateVisit + ?Sized>(&mut self, p: &mut V) {
        p.item(&mut self.state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = Rng64::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below_usize(7)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut r = Rng64::seed_from_u64(2);
        let (mut lo_hit, mut hi_hit) = (false, false);
        for _ in 0..1000 {
            match r.range_inclusive(3, 5) {
                3 => lo_hit = true,
                5 => hi_hit = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::seed_from_u64(3);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "p=0.3 gave {hits}/10000");
    }
}
