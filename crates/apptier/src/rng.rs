//! Deterministic random sampling for every stochastic component in the
//! workspace.
//!
//! The core is a hand-rolled, std-only **xoshiro256++** generator seeded
//! through **SplitMix64** (Blackman & Vigna's recommended seeding
//! procedure), so the whole workspace builds offline with zero external
//! dependencies and every experiment is reproducible bit-for-bit from a
//! 64-bit seed. On top of the core sit the distribution samplers the
//! plant needs — exponential think times, log-normal service demands —
//! so inverse-CDF math stays here rather than scattered through the
//! simulators.
//!
//! Seeding convention: every stochastic component takes a `u64` seed and
//! derives all randomness from one [`SimRng`]; derived components draw
//! their seed from [`seed_stream`] (one base seed, one stream index per
//! component) rather than sharing a generator, so per-component streams
//! stay independent of iteration order.

/// One step of the SplitMix64 sequence (used only to expand seeds).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = avalanche(z);
    z
}

/// The SplitMix64 finalizer: a full-avalanche bijection on `u64`.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed of stream `stream` from a base seed.
///
/// This is the workspace's one seed-derivation helper: simulators use it
/// for per-application streams, the property-test runner for per-case
/// streams, benches for auxiliary inputs. `stream` is spread by the golden
/// ratio (the SplitMix64 increment) and the result avalanched, so nearby
/// stream indices give unrelated seeds and `seed_stream(s, a)` collides
/// with `seed_stream(s, b)` only if `a == b`.
pub fn seed_stream(base: u64, stream: u64) -> u64 {
    avalanche(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seedable simulation RNG: xoshiro256++ core plus the distribution
/// samplers the plant uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Construct from a 64-bit seed (deterministic across runs and
    /// platforms). The 256-bit state is expanded with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> SimRng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // xoshiro must never be seeded with the all-zero state.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Next raw 64-bit output of the xoshiro256++ core.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Exponential sample with the given mean (mean 0 returns 0).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; 1-u in (0, 1] avoids ln(0).
        let u = self.uniform();
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    /// The two uniforms of one Box–Muller draw, in draw order: `u1`,
    /// floored at the smallest positive normal so that its log is finite,
    /// then `u2`. [`normal_from`] turns them into the normal.
    fn normal_uniforms(&mut self) -> (f64, f64) {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (u1, u2)
    }

    /// Log-normal sample with the given *linear-space* mean and coefficient
    /// of variation (`cv = σ/μ`); see [`LogNormal`], which this builds for
    /// one draw. A caller drawing many samples from one distribution
    /// should build the [`LogNormal`] once.
    pub(crate) fn lognormal(&mut self, mean: f64, cv: f64) -> f64 {
        LogNormal::new(mean, cv).sample(self)
    }

    /// Uniform integer in `[0, n)` (Lemire multiply-shift; `n ≤ 1` returns 0).
    pub fn index(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniformly pick a reference out of a non-empty slice.
    pub fn pick<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        assert!(!options.is_empty(), "pick from an empty slice");
        &options[self.index(options.len())]
    }
}

/// The Box–Muller standard normal of the uniforms `(u1, u2)`:
/// `r·cos(2π·u2)` with radius `r = √(−2 ln u1)`.
fn normal_from(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A log-normal distribution given by its *linear-space* mean and
/// coefficient of variation (`cv = σ/μ`), with the log-space parameters
/// derived once at construction.
///
/// A draw is `exp(μ̂ + σ̂·z)` for one Box–Muller normal `z`, where
/// `σ̂² = ln(1 + cv²)` and `μ̂ = ln(mean) − σ̂²/2` (so the linear-space mean
/// and cv are the given ones). Each float operation is the one a
/// per-draw derivation would perform, in the same order, so a sampler
/// built once draws the same bits as rebuilding it for every draw.
/// `mean ≤ 0` always yields 0 and `cv ≤ 0` always yields `mean`; neither
/// consumes a random number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal(Shape);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Degenerate: this value, without a draw.
    Constant(f64),
    /// Log-space location `μ̂` and scale `σ̂`.
    Spread { mu: f64, sigma: f64 },
}

impl LogNormal {
    /// The distribution with linear-space `mean` and coefficient of
    /// variation `cv`.
    pub(crate) fn new(mean: f64, cv: f64) -> LogNormal {
        if mean <= 0.0 {
            return LogNormal(Shape::Constant(0.0));
        }
        if cv <= 0.0 {
            return LogNormal(Shape::Constant(mean));
        }
        // For LogNormal(μ̂, σ̂): mean = exp(μ̂ + σ̂²/2), cv² = exp(σ̂²) − 1.
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormal(Shape::Spread {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        })
    }

    /// One sample, drawing from `rng` unless the distribution is
    /// degenerate.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> f64 {
        match self.0 {
            Shape::Constant(v) => v,
            Shape::Spread { mu, sigma } => {
                let (u1, u2) = rng.normal_uniforms();
                spread_draw(mu, sigma, u1, u2)
            }
        }
    }

    /// The `k`-th smallest (zero-based, in `f64::total_cmp` order) of the
    /// next `n` samples, or `None` when the walk below cannot prove its
    /// answer exact. On `Some`, `rng` is where drawing all `n` samples
    /// would leave it; on `None` it is untouched, so the caller can draw
    /// them instead.
    ///
    /// The walk pulls both uniforms of every draw, in stream order, but
    /// evaluates only the draws whose normal can reach `TAIL_Z`: a draw
    /// with `u1 > e^(−TAIL_Z²/2)` has radius below `TAIL_Z`, and one with
    /// `u2` inside `(¼, ¾)` has `cos(2π·u2) < 0`. Both tests keep a
    /// `TAIL_MARGIN` that outweighs every rounding once
    /// `σ̂ ≥ TAIL_MIN_SIGMA`, so every skipped draw is below
    /// `x0 = exp(μ̂ + σ̂·TAIL_Z)`. The evaluated draws that reach
    /// `x0` are kept, with [`spread_draw`]'s bits; they are the top `m` of
    /// the batch, so the answer is the `(k − (n − m))`-th kept draw when
    /// `k ≥ n − m`. `x0` must be a normal float and every kept draw finite,
    /// so that no sample is one `measure` would drop.
    pub(crate) fn tail_order_statistic(&self, rng: &mut SimRng, n: usize, k: usize) -> Option<f64> {
        let Shape::Spread { mu, sigma } = self.0 else {
            return None;
        };
        let x0 = (mu + sigma * TAIL_Z).exp();
        if sigma < TAIL_MIN_SIGMA || !x0.is_normal() {
            return None;
        }
        let u1_floor = (-TAIL_Z * TAIL_Z / 2.0).exp() * (1.0 + TAIL_MARGIN);
        let mut walk = rng.clone();
        // 13.6 % of draws reach the tail in expectation.
        let mut kept = Vec::with_capacity(n / 4);
        for _ in 0..n {
            let (u1, u2) = walk.normal_uniforms();
            if u1 > u1_floor || (0.25 + TAIL_MARGIN < u2 && u2 < 0.75 - TAIL_MARGIN) {
                continue;
            }
            let x = spread_draw(mu, sigma, u1, u2);
            if x >= x0 {
                kept.push(x);
            }
        }
        let below = n - kept.len();
        if k < below || kept.iter().any(|x| !x.is_finite()) {
            return None;
        }
        *rng = walk;
        Some(*kept.select_nth_unstable_by(k - below, f64::total_cmp).1)
    }
}

/// The normal quantile at which [`LogNormal::tail_order_statistic`] cuts
/// the tail: `P(z ≥ 1.1)` keeps 13.6 % of draws in expectation, against
/// the 10 % a p90 needs, so over 2,000 draws a shortfall is 4.6 standard
/// deviations away. Of the draws, `e^(−1.1²/2)·½ ≈ 27 %` are evaluated.
const TAIL_Z: f64 = 1.1;

/// Margin on the walk's two rejection tests. A rejected `u1` puts the
/// radius at least `0.9·TAIL_MARGIN` below `TAIL_Z`.
const TAIL_MARGIN: f64 = 1e-9;

/// The smallest `σ̂` the walk accepts. The gap it leaves in the exponent,
/// `0.9e-9·σ̂ ≥ 9e-13`, is then at least 7 times the rounding of
/// `μ̂ + σ̂·z` at any `|μ̂ + σ̂·TAIL_Z| < 710` (a normal `x0`).
const TAIL_MIN_SIGMA: f64 = 1e-3;

/// `exp(μ̂ + σ̂·z)` for the Box–Muller normal `z` of `(u1, u2)`: the one
/// formula of a spread draw, shared by [`LogNormal::sample`] and the tail
/// walk.
fn spread_draw(mu: f64, sigma: f64, u1: f64, u2: f64) -> f64 {
    (mu + sigma * normal_from(u1, u2)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_stream_is_injective_per_base_and_avalanched() {
        // Distinct streams from one base must not collide (bijection per
        // base: xor with an odd-multiple spread, then a bijective mix).
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..10_000u64 {
            assert!(seen.insert(seed_stream(42, stream)));
        }
        // Stream 0 of base s is the avalanche of s, not s itself.
        assert_ne!(seed_stream(42, 0), 42);
        // Nearby streams differ in many bits (weak avalanche check).
        let d = (seed_stream(7, 1) ^ seed_stream(7, 2)).count_ones();
        assert!(d > 10, "only {d} differing bits");
    }

    #[test]
    fn seed_stream_matches_documented_construction() {
        // Pin the construction: one SplitMix64-style avalanche of
        // `base ^ stream·φ64`. Downstream seed streams (property-test
        // cases, per-app plants) depend on these exact values.
        let reference = |base: u64, stream: u64| {
            let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for (base, stream) in [(0, 0), (1, 0), (0x5EED_CAFE, 17), (u64::MAX, u64::MAX)] {
            assert_eq!(seed_stream(base, stream), reference(base, stream));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
        let mut c = SimRng::seed_from_u64(8);
        let same: usize = (0..100)
            .filter(|_| {
                let x = SimRng::seed_from_u64(9).uniform();
                c.uniform() == x
            })
            .count();
        assert!(same < 100);
    }

    #[test]
    fn matches_xoshiro256pp_reference_vector() {
        // Reference: seeding state directly with s = [1, 2, 3, 4] must
        // reproduce the published xoshiro256++ sequence.
        let mut r = SimRng { s: [1, 2, 3, 4] };
        let expect: [u64; 5] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
        ];
        for e in expect {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(0);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::seed_from_u64(42);
        let n = 50_000;
        let mean = 0.5;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let emp = sum / n as f64;
        assert!((emp - mean).abs() < 0.02, "empirical mean {emp}");
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn lognormal_mean_and_cv_close() {
        let mut r = SimRng::seed_from_u64(43);
        let n = 100_000;
        let (mean, cv) = (10.0, 0.5);
        let samples: Vec<f64> = (0..n).map(|_| r.lognormal(mean, cv)).collect();
        let emp_mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - emp_mean).powi(2)).sum::<f64>() / n as f64;
        let emp_cv = var.sqrt() / emp_mean;
        assert!((emp_mean - mean).abs() / mean < 0.03, "mean {emp_mean}");
        assert!((emp_cv - cv).abs() < 0.05, "cv {emp_cv}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_draw_bits_are_pinned() {
        // The DES draws its service demands here: pin the exact bits of
        // one stream across three (mean, cv) pairs so the derivation of
        // the log-space parameters cannot drift by an ulp.
        let mut r = SimRng::seed_from_u64(2010);
        let expect: [(f64, f64, [u64; 3]); 3] = [
            (
                10.0e6,
                0.9,
                [
                    0x4150_ace6_a3ab_8025,
                    0x415b_6134_5971_da5e,
                    0x4193_55ce_419c_9fa9,
                ],
            ),
            (
                0.5,
                0.45,
                [
                    0x3fe3_8ed2_263c_57a0,
                    0x3fd3_505e_c8dd_65e0,
                    0x3fd7_1676_f91a_1ff0,
                ],
            ),
            (
                3.0,
                1.2,
                [
                    0x3fee_5800_eddc_cb5e,
                    0x3ff5_5e75_450f_5bee,
                    0x3fee_a59d_69ce_7a99,
                ],
            ),
        ];
        for (mean, cv, bits) in expect {
            let got: Vec<u64> = (0..3).map(|_| r.lognormal(mean, cv).to_bits()).collect();
            assert_eq!(got, bits, "lognormal({mean}, {cv})");
        }
    }

    #[test]
    fn lognormal_degenerate_cases() {
        // `mean ≤ 0` yields 0 and `cv ≤ 0` the mean, and neither draws.
        let mut r = SimRng::seed_from_u64(19);
        let before = r.clone();
        for (mean, cv, want) in [
            (0.0, 0.5, 0.0),
            (-2.0, 0.5, 0.0),
            (-2.0, -1.0, 0.0),
            (5.0, 0.0, 5.0),
            (5.0, -0.3, 5.0),
        ] {
            let d = LogNormal::new(mean, cv);
            for _ in 0..3 {
                assert_eq!(d.sample(&mut r).to_bits(), f64::to_bits(want));
            }
            assert_eq!(r.lognormal(mean, cv).to_bits(), f64::to_bits(want));
            assert_eq!(
                r, before,
                "LogNormal::new({mean}, {cv}) drew from the stream"
            );
        }
        // A proper distribution draws two uniforms per sample.
        LogNormal::new(5.0, 0.3).sample(&mut r);
        let mut two = before;
        two.uniform();
        two.uniform();
        assert_eq!(r, two);
    }

    #[test]
    fn tail_walk_matches_the_drawn_batch_or_leaves_the_stream() {
        // Where the walk answers, it is the sorted batch's element and the
        // stream is where drawing the batch leaves it.
        let d = LogNormal::new(0.8, 0.45);
        let mut walked = SimRng::seed_from_u64(31);
        let mut drawn = walked.clone();
        let (n, k) = (2000, 1799);
        let got = d.tail_order_statistic(&mut walked, n, k);
        let mut batch: Vec<f64> = (0..n).map(|_| d.sample(&mut drawn)).collect();
        batch.sort_unstable_by(f64::total_cmp);
        assert_eq!(got.map(f64::to_bits), Some(batch[k].to_bits()));
        assert_eq!(walked, drawn);
        // Where it cannot prove the answer, it declines and draws nothing:
        // no spread, too narrow, a tail edge that overflows or underflows,
        // kept draws that overflow, and too few kept draws for the rank.
        for (mean, cv, n, k) in [
            (5.0, 0.0, 2000, 1799),
            (1.0, 1e-4, 2000, 1799),
            (f64::MAX, 3.0, 2000, 1799),
            (1e-320, 0.5, 2000, 1799),
            (1e307, 3.0, 2000, 1999),
            (1.0, 0.5, 100, 0),
        ] {
            let before = walked.clone();
            let d = LogNormal::new(mean, cv);
            assert_eq!(
                d.tail_order_statistic(&mut walked, n, k),
                None,
                "{mean}, {cv}"
            );
            assert_eq!(
                walked, before,
                "LogNormal::new({mean}, {cv}) moved the stream"
            );
        }
    }

    #[test]
    fn uniform_range_and_index_bounds() {
        let mut r = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = r.uniform_range(3.0, 7.0);
            assert!((3.0..7.0).contains(&v));
            let i = r.index(5);
            assert!(i < 5);
        }
        assert_eq!(r.index(0), 0);
        assert_eq!(r.index(1), 0);
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(17);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.index(10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket {i}: {frac}");
        }
    }

    #[test]
    fn pick_covers_all_options() {
        let mut r = SimRng::seed_from_u64(5);
        let opts = ["a", "b", "c"];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(*r.pick(&opts));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::seed_from_u64(3);
        let n = 100_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let (u1, u2) = r.normal_uniforms();
                normal_from(u1, u2)
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
