//! Deterministic random sampling for every stochastic component in the
//! workspace.
//!
//! The core is a hand-rolled, std-only **xoshiro256++** generator seeded
//! through **SplitMix64** (Blackman & Vigna's recommended seeding
//! procedure), so the whole workspace builds offline with zero external
//! dependencies and every experiment is reproducible bit-for-bit from a
//! 64-bit seed. On top of the core sit the distribution samplers the
//! plant needs — exponential think times, log-normal service demands and
//! a log-normal batch's order statistics — so inverse-CDF math stays here
//! rather than scattered through the simulators.
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

    /// A Gamma(`shape`, 1) variate for `shape ≥ 1`, by Marsaglia and
    /// Tsang's rejection (ACM TOMS 26(3), 2000): with `d = shape − ⅓` and
    /// `c = 1/√(9d)`, each try takes one normal `x` and one uniform `u` and
    /// accepts `d·(1 + c·x)³`. The squeeze `u < 1 − 0.0331·x⁴` accepts
    /// most tries without a logarithm.
    fn gamma(&mut self, shape: f64) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let (u1, u2) = self.normal_uniforms();
            let x = normal_from(u1, u2);
            let u = self.uniform();
            let t = 1.0 + c * x;
            if t <= 0.0 {
                continue;
            }
            let v = t * t * t;
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
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
                (mu + sigma * normal_from(u1, u2)).exp()
            }
        }
    }

    /// The `k`-th smallest (zero-based, `k < n`) of `n` samples, drawn
    /// from its own law instead of by drawing the `n` samples. For `n`
    /// i.i.d. draws from a continuous `F` it is `F⁻¹(U)` with
    /// `U ~ Beta(k + 1, n − k)`, so the answer has the distribution of the
    /// sorted batch's `k`-th element, not its bits.
    ///
    /// `U = a / (a + b)` for `a ~ Gamma(k + 1)` and `b ~ Gamma(n − k)`, and
    /// the answer is `exp(μ̂ + σ̂·z)` with `z = Φ⁻¹(U)`. When `a > b`, `z` is
    /// `−Φ⁻¹(b / (a + b))` instead, so an upper-tail `U` is never rounded
    /// through `1 − U`. A constant distribution returns its value and draws
    /// nothing, as drawing its batch would.
    pub(crate) fn order_statistic(&self, rng: &mut SimRng, n: usize, k: usize) -> f64 {
        // A shape below 1 would never accept a Gamma try.
        assert!(k < n, "rank {k} of {n} samples");
        match self.0 {
            Shape::Constant(v) => v,
            Shape::Spread { mu, sigma } => {
                let a = rng.gamma((k + 1) as f64);
                let b = rng.gamma((n - k) as f64);
                let z = if a <= b {
                    inverse_normal_cdf(a / (a + b))
                } else {
                    -inverse_normal_cdf(b / (a + b))
                };
                (mu + sigma * z).exp()
            }
        }
    }
}

/// The standard normal quantile `Φ⁻¹(p)` for `p` in `(0, 1)`: Wichura's
/// algorithm AS241 (PPND16, Applied Statistics 37(3), 1988), relative
/// error about 1e-16. Rational approximations in `q = p − ½` near the
/// centre and in `√(−ln min(p, 1 − p))` in the tails.
fn inverse_normal_cdf(p: f64) -> f64 {
    // Wichura's coefficient sets, constant term first, each written as the
    // shortest decimal of the f64 that the published 20-digit value rounds
    // to: A/B in `q` near the centre, C/D for `r ≤ 5` and E/F beyond.
    const A: [f64; 8] = [
        3.387_132_872_796_366_5,
        133.141_667_891_784_38,
        1_971.590_950_306_551_3,
        13_731.693_765_509_46,
        45_921.953_931_549_87,
        67_265.770_927_008_7,
        33_430.575_583_588_13,
        2_509.080_928_730_122_7,
    ];
    const B: [f64; 8] = [
        1.0,
        42.313_330_701_600_91,
        687.187_007_492_057_9,
        5_394.196_021_424_751,
        21_213.794_301_586_597,
        39_307.895_800_092_71,
        28_729.085_735_721_943,
        5_226.495_278_852_854,
    ];
    const C: [f64; 8] = [
        1.423_437_110_749_683_5,
        4.630_337_846_156_546,
        5.769_497_221_460_691,
        3.647_848_324_763_204_5,
        1.270_458_252_452_368_4,
        0.241_780_725_177_450_6,
        0.022_723_844_989_269_184,
        0.000_774_545_014_278_341_4,
    ];
    const D: [f64; 8] = [
        1.0,
        2.053_191_626_637_759,
        1.676_384_830_183_803_8,
        0.689_767_334_985_1,
        0.148_103_976_427_480_08,
        0.015_198_666_563_616_457,
        0.000_547_593_808_499_534_5,
        1.050_750_071_644_416_9e-9,
    ];
    const E: [f64; 8] = [
        6.657_904_643_501_103,
        5.463_784_911_164_114,
        1.784_826_539_917_291_3,
        0.296_560_571_828_504_87,
        0.026_532_189_526_576_124,
        0.001_242_660_947_388_078_4,
        2.711_555_568_743_487_6e-5,
        2.010_334_399_292_288_1e-7,
    ];
    const F: [f64; 8] = [
        1.0,
        0.599_832_206_555_888,
        0.136_929_880_922_735_8,
        0.014_875_361_290_850_615,
        0.000_786_869_131_145_613_3,
        1.846_318_317_510_054_8e-5,
        1.421_511_758_316_446e-7,
        2.044_263_103_389_939_7e-15,
    ];
    let poly = |c: &[f64; 8], x: f64| c.iter().rev().fold(0.0, |acc, &c| acc * x + c);
    let q = p - 0.5;
    if q.abs() <= 0.425 {
        let r = 0.180625 - q * q;
        return q * poly(&A, r) / poly(&B, r);
    }
    let r = (-(if q < 0.0 { p } else { 1.0 - p }).ln()).sqrt();
    let z = if r <= 5.0 {
        poly(&C, r - 1.6) / poly(&D, r - 1.6)
    } else {
        poly(&E, r - 5.0) / poly(&F, r - 5.0)
    };
    if q < 0.0 {
        -z
    } else {
        z
    }
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
        // `mean ≤ 0` yields 0 and `cv ≤ 0` the mean, and neither draws,
        // not even for an order statistic.
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
            assert_eq!(d.order_statistic(&mut r, 9, 4).to_bits(), want.to_bits());
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
    fn inverse_normal_cdf_matches_reference_quantiles() {
        assert_eq!(inverse_normal_cdf(0.5), 0.0);
        for (p, want) in [
            (0.9, 1.281_551_565_544_600_4),
            (0.975, 1.959_963_984_540_054),
            (1e-10, -6.361_340_902_404_056),
        ] {
            let got = inverse_normal_cdf(p);
            assert!((got - want).abs() <= 1e-14 * want.abs(), "Φ⁻¹({p}) = {got}");
        }
        // Odd symmetry, exact where `1 − p` is: both sides take the same
        // branch on the same `min(p, 1 − p)`.
        for p in [0.25, 0.0625, 2f64.powi(-10), 2f64.powi(-40)] {
            assert_eq!(inverse_normal_cdf(1.0 - p), -inverse_normal_cdf(p), "p {p}");
        }
    }

    #[test]
    fn gamma_mean_and_variance_match_the_shape() {
        // Gamma(α, 1) has mean α and variance α; the sample variance's
        // standard error is α·√((2 + 6/α)/n) (excess kurtosis 6/α).
        let mut r = SimRng::seed_from_u64(1988);
        let n = 100_000;
        for shape in [1.0, 2.0, 201.0, 1800.0] {
            let draws: Vec<f64> = (0..n).map(|_| r.gamma(shape)).collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let se_mean = (shape / n as f64).sqrt();
            let se_var = shape * ((2.0 + 6.0 / shape) / n as f64).sqrt();
            assert!(
                (mean - shape).abs() < 4.0 * se_mean,
                "shape {shape}: mean {mean}"
            );
            assert!(
                (var - shape).abs() < 4.0 * se_var,
                "shape {shape}: var {var}"
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
