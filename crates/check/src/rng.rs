//! Seeded generator randomness for property tests.
//!
//! A thin wrapper over the workspace simulation RNG
//! ([`vdc_apptier::rng::SimRng`], xoshiro256++ seeded via SplitMix64) with
//! the integer-range helpers generators want. The wrapper keeps the
//! harness API stable while guaranteeing test randomness and simulator
//! randomness share one PRNG implementation — the sequences are
//! bit-identical to the pre-unification duplicate, so recorded failing
//! seeds stay valid.

use vdc_apptier::rng::SimRng;

/// Deterministic test RNG (xoshiro256++ seeded via SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: SimRng,
}

impl TestRng {
    /// Construct from a 64-bit seed.
    pub(crate) fn seed_from_u64(seed: u64) -> TestRng {
        TestRng {
            inner: SimRng::seed_from_u64(seed),
        }
    }

    /// Next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.uniform()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.uniform_range(lo, hi)
    }

    /// Uniform integer in `[0, n)` (`n = 0` returns 0).
    pub fn below(&mut self, n: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty usize range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty u64 range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = TestRng::seed_from_u64(1);
        let mut b = TestRng::seed_from_u64(1);
        let mut c = TestRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = TestRng::seed_from_u64(3);
        for _ in 0..2000 {
            assert!((10..20).contains(&r.usize_in(10, 20)));
            assert!((5..6).contains(&r.u64_in(5, 6)));
            let f = r.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn matches_simulator_rng_stream() {
        // The wrapper must expose exactly the SimRng sequence: a recorded
        // failing seed replays the same case either way.
        let mut t = TestRng::seed_from_u64(0x5EED);
        let mut s = SimRng::seed_from_u64(0x5EED);
        for _ in 0..64 {
            assert_eq!(t.next_u64(), s.next_u64());
        }
    }
}
