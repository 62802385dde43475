//! Property-based tests for the plant: conservation laws and statistics
//! invariants that must hold for any workload configuration.

use std::cell::Cell;
use vdc_apptier::monitor::{ResponseStats, SlaMetric};
use vdc_apptier::{AnalyticPlant, AppSim, Plant, TierDemand, WorkloadProfile};
use vdc_check::{check, f64_range, from_fn, prop_assert, prop_assert_eq, vec_of, Gen, TestRng};

const CASES: u32 = 24;

fn gen_profile(rng: &mut TestRng) -> WorkloadProfile {
    let n_tiers = rng.usize_in(1, 4);
    let tiers = (0..n_tiers)
        .map(|_| TierDemand::new(rng.f64_in(1.0e6, 30.0e6), rng.f64_in(0.0, 1.2)).unwrap())
        .collect();
    WorkloadProfile::new(tiers, rng.f64_in(0.0, 0.1)).unwrap()
}

/// `(profile, concurrency, seed)` — the tuple every simulator property uses.
fn sim_inputs(max_concurrency: usize) -> impl Gen<Value = (WorkloadProfile, usize, u64)> {
    from_fn(move |rng: &mut TestRng| {
        (
            gen_profile(rng),
            rng.usize_in(1, max_concurrency),
            rng.u64_in(0, 1000),
        )
    })
}

#[test]
fn response_times_are_positive_and_finite() {
    check(CASES, &sim_inputs(30), |(profile, concurrency, seed)| {
        let alloc = vec![1.0; profile.n_tiers()];
        let mut sim = AppSim::new(profile.clone(), *concurrency, &alloc, *seed).unwrap();
        sim.run_for(20.0);
        for t in sim.take_completed() {
            prop_assert!(t.is_finite() && t > 0.0, "response time {t}");
        }
        Ok(())
    });
}

#[test]
fn total_completed_is_monotone_and_consistent() {
    check(CASES, &sim_inputs(20), |(profile, concurrency, seed)| {
        let alloc = vec![1.5; profile.n_tiers()];
        let mut sim = AppSim::new(profile.clone(), *concurrency, &alloc, *seed).unwrap();
        let mut total = 0u64;
        for _ in 0..5 {
            sim.run_for(5.0);
            let batch = sim.take_completed().len() as u64;
            total += batch;
            prop_assert_eq!(sim.total_completed(), total);
        }
        Ok(())
    });
}

#[test]
fn utilization_within_bounds() {
    check(CASES, &sim_inputs(40), |(profile, concurrency, seed)| {
        let alloc = vec![0.8; profile.n_tiers()];
        let mut sim = AppSim::new(profile.clone(), *concurrency, &alloc, *seed).unwrap();
        sim.run_for(30.0);
        for u in sim.utilizations() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
        Ok(())
    });
}

#[test]
fn queue_population_never_exceeds_concurrency() {
    check(CASES, &sim_inputs(30), |(profile, concurrency, seed)| {
        let alloc = vec![0.5; profile.n_tiers()];
        let mut sim = AppSim::new(profile.clone(), *concurrency, &alloc, *seed).unwrap();
        for _ in 0..10 {
            sim.run_for(2.0);
            let in_flight: usize = sim.queue_lengths().iter().sum();
            prop_assert!(in_flight <= *concurrency, "{in_flight} > {concurrency}");
        }
        Ok(())
    });
}

#[test]
fn same_seed_same_trajectory() {
    check(CASES, &sim_inputs(20), |(profile, concurrency, seed)| {
        let alloc = vec![1.0; profile.n_tiers()];
        let mut a = AppSim::new(profile.clone(), *concurrency, &alloc, *seed).unwrap();
        let mut b = AppSim::new(profile.clone(), *concurrency, &alloc, *seed).unwrap();
        a.run_for(15.0);
        b.run_for(15.0);
        prop_assert_eq!(a.take_completed(), b.take_completed());
        prop_assert_eq!(a.queue_lengths(), b.queue_lengths());
        Ok(())
    });
}

// ---- monitor properties ----------------------------------------------------

#[test]
fn percentile_is_monotone_and_bounded() {
    check(
        CASES,
        &vec_of(f64_range(0.0, 100.0), 1, 200),
        |samples: &Vec<f64>| {
            let stats = ResponseStats::from_samples(samples.clone());
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = f64::NEG_INFINITY;
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let v = stats.percentile(p);
                prop_assert!(v >= prev, "percentile not monotone at {p}");
                prop_assert!(v >= sorted[0] && v <= sorted[sorted.len() - 1]);
                prev = v;
            }
            // Nearest-rank p100 is the max; mean within [min, max].
            prop_assert_eq!(stats.percentile(100.0), stats.max());
            prop_assert!(stats.mean() >= stats.min() - 1e-12);
            prop_assert!(stats.mean() <= stats.max() + 1e-12);
            Ok(())
        },
    );
}

#[test]
fn std_dev_zero_iff_constant() {
    check(
        CASES,
        &(f64_range(0.1, 10.0), vdc_check::usize_range(2, 50)),
        |&(value, n)| {
            let stats = ResponseStats::from_samples(vec![value; n]);
            prop_assert!(stats.std_dev().abs() < 1e-12);
            let mut mixed = vec![value; n];
            mixed[0] = value + 1.0;
            let stats2 = ResponseStats::from_samples(mixed);
            prop_assert!(stats2.std_dev() > 0.0);
            Ok(())
        },
    );
}

/// A response-time batch of 0–2500 values with the inputs a selection must
/// order exactly like the sort: repeated values, ±0, NaN and ±∞. One batch
/// in four is short (under 8 values), one in eight is drawn from a
/// four-value pool, so ties and all-dropped batches are common.
fn gen_batch(rng: &mut TestRng) -> Vec<f64> {
    let n = if rng.below(4) == 0 {
        rng.usize_in(0, 8)
    } else {
        rng.usize_in(0, 2501)
    };
    let pooled = rng.below(8) == 0;
    let mut batch: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let v = if pooled {
            [0.0, -0.0, 0.75, f64::NAN][rng.usize_in(0, 4)]
        } else {
            match rng.below(16) {
                0 if !batch.is_empty() => batch[rng.usize_in(0, batch.len())],
                1 => 0.0,
                2 => -0.0,
                3 => f64::NAN,
                4 => f64::INFINITY,
                5 => f64::NEG_INFINITY,
                6 => -rng.f64_in(0.0, 3.0),
                _ => rng.f64_in(0.0, 3.0),
            }
        };
        batch.push(v);
    }
    batch
}

#[test]
fn measure_matches_the_sorted_stats_bit_for_bit() {
    check(
        64,
        &from_fn(|rng: &mut TestRng| (gen_batch(rng), rng.f64_in(-10.0, 110.0))),
        |(batch, random_p)| {
            let stats = ResponseStats::from_samples(batch.clone());
            let sorted = |read: &dyn Fn(&ResponseStats) -> f64| {
                (!stats.is_empty()).then(|| read(&stats).to_bits())
            };
            let measured = |metric: SlaMetric| metric.measure(batch.clone()).map(f64::to_bits);
            for p in [0.0, 0.1, 50.0, 90.0, 99.9, 100.0, *random_p] {
                prop_assert_eq!(
                    measured(SlaMetric::Percentile(p)),
                    sorted(&|s| s.percentile(p)),
                    "p{p} over {} values",
                    batch.len()
                );
            }
            prop_assert_eq!(measured(SlaMetric::Mean), sorted(&|s| s.mean()));
            prop_assert_eq!(measured(SlaMetric::Max), sorted(&|s| s.max()));
            Ok(())
        },
    );
}

/// An analytic plant and its cv, the periods (seconds) before each of eight
/// drains, the period after each drain, and a random percentile. A drain
/// follows 1–3 `run_for` calls of 10 ms to 300 s, so batches run from
/// nothing to the 2,000-draw cap, and two or three of them are often
/// pending at once. One plant in four has cv 0, so its batches are
/// constant.
#[allow(clippy::type_complexity)]
fn analytic_inputs() -> impl Gen<Value = (AnalyticPlant, f64, Vec<Vec<f64>>, f64, f64)> {
    from_fn(|rng: &mut TestRng| {
        let profile = gen_profile(rng);
        let alloc: Vec<f64> = (0..profile.n_tiers())
            .map(|_| rng.f64_in(0.2, 3.0))
            .collect();
        let cv = if rng.below(4) == 0 {
            0.0
        } else {
            rng.f64_in(0.05, 1.2)
        };
        let plant = AnalyticPlant::new(
            profile,
            rng.usize_in(1, 80),
            &alloc,
            cv,
            rng.u64_in(0, 1 << 32),
        )
        .unwrap();
        let period = |rng: &mut TestRng| 10f64.powf(rng.f64_in(-2.0, 2.5));
        let runs = (0..8)
            .map(|_| (0..rng.usize_in(1, 4)).map(|_| period(rng)).collect())
            .collect();
        let next_s = period(rng);
        (plant, cv, runs, next_s, rng.f64_in(-10.0, 110.0))
    })
}

/// Where `measure` still drains, it is drain-and-select bit for bit: for
/// `Mean`, for any metric over two or more pending batches, and for any
/// metric over a constant batch, whose order statistic draws nothing. A
/// percentile of one spread batch is drawn from its own law instead; that
/// is checked in distribution below.
#[test]
fn analytic_measure_keeps_drain_bits_where_it_drains() {
    let (multi_batch, mean, constant) = (Cell::new(0), Cell::new(0), Cell::new(0));
    check(
        64,
        &analytic_inputs(),
        |(plant, cv, runs, next_s, random_p)| {
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let metrics = [
                SlaMetric::Percentile(50.0),
                SlaMetric::P90,
                SlaMetric::Percentile(95.0),
                SlaMetric::Percentile(99.9),
                SlaMetric::Percentile(100.0),
                SlaMetric::Percentile(*random_p),
                SlaMetric::Mean,
                SlaMetric::Max,
            ];
            // `a` measures, `b` drains and selects, `c` drains after every
            // `run_for` to count the batches `a` and `b` hold at once.
            let (mut a, mut b, mut c) = (plant.clone(), plant.clone(), plant.clone());
            for (metric, periods) in metrics.into_iter().zip(runs) {
                let mut batches = 0;
                let mut one_by_one = Vec::new();
                for &dt in periods {
                    a.run_for(dt);
                    b.run_for(dt);
                    c.run_for(dt);
                    let batch = c.take_completed();
                    batches += usize::from(!batch.is_empty());
                    one_by_one.extend(batch);
                }
                let measured = a.measure(metric).map(f64::to_bits);
                let drained = b.take_completed();
                prop_assert_eq!(bits(drained.clone()), bits(one_by_one));
                if batches == 1 && metric != SlaMetric::Mean && *cv > 0.0 {
                    // Drawn from its law, which the property below checks:
                    // rejoin `a` to the stream the drain left.
                    a = b.clone();
                } else {
                    prop_assert_eq!(
                        measured,
                        metric.measure(drained).map(f64::to_bits),
                        "{metric:?} over {batches} batches at cv {cv}"
                    );
                    let count = match (batches, metric) {
                        (0, _) => None,
                        (1, SlaMetric::Mean) => Some(&mean),
                        (1, _) => Some(&constant),
                        _ => Some(&multi_batch),
                    };
                    if let Some(count) = count {
                        count.set(count.get() + 1);
                    }
                }
                // Same stream: the next period draws the same bits on all.
                for p in [&mut a, &mut b, &mut c] {
                    p.run_for(*next_s);
                }
                let next_b = bits(b.take_completed());
                prop_assert_eq!(bits(a.take_completed()), next_b.clone());
                prop_assert_eq!(bits(c.take_completed()), next_b);
            }
            Ok(())
        },
    );
    for (name, count) in [
        ("multi-batch drain", &multi_batch),
        ("mean over one batch", &mean),
        ("percentile of a constant batch", &constant),
    ] {
        assert!(count.get() > 0, "no case covered: {name}");
    }
}

/// One case of the distributional property: an analytic plant with a
/// spread (cv 0.05–1.2), a period that completes about `n` requests, and
/// a metric (p in [0, 100], or `Max` one case in five). Half the cases aim
/// at n ≤ 10, where a rank off by one shows most; the rest at 11 to 2,000,
/// log-uniform, up to the cap.
fn distribution_inputs() -> impl Gen<Value = (AnalyticPlant, f64, SlaMetric)> {
    from_fn(|rng: &mut TestRng| {
        let profile = gen_profile(rng);
        let alloc: Vec<f64> = (0..profile.n_tiers())
            .map(|_| rng.f64_in(0.2, 3.0))
            .collect();
        let concurrency = rng.usize_in(1, 80);
        let n = if rng.below(2) == 0 {
            rng.usize_in(1, 10) as f64
        } else {
            10f64.powf(rng.f64_in(11f64.log10(), 2000f64.log10()))
        };
        // A constant twin drains without drawing, so counting its
        // completions is cheap: time the first batch of 100 or more.
        let twin = AnalyticPlant::new(profile.clone(), concurrency, &alloc, 0.0, 0).unwrap();
        let mut probe_s = 1e-3;
        let rate = loop {
            let mut p = twin.clone();
            p.run_for(probe_s);
            let done = p.take_completed().len();
            if done >= 100 {
                break done as f64 / probe_s;
            }
            probe_s *= 2.0;
        };
        let cv = rng.f64_in(0.05, 1.2);
        let plant = AnalyticPlant::new(profile, concurrency, &alloc, cv, rng.u64_in(0, 1 << 32));
        let metric = if rng.below(5) == 0 {
            SlaMetric::Max
        } else {
            SlaMetric::Percentile(rng.f64_in(0.0, 100.0))
        };
        (plant.unwrap(), (n + 0.5) / rate, metric)
    })
}

/// The two-sample Kolmogorov–Smirnov statistic: the largest gap between
/// the empirical CDFs of `a` and `b`.
fn ks_statistic(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
    a.sort_unstable_by(f64::total_cmp);
    b.sort_unstable_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0, 0, 0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// The sample mean and variance of the logs of `v`.
fn log_mean_var(v: &[f64]) -> (f64, f64) {
    let logs: Vec<f64> = v.iter().map(|x| x.ln()).collect();
    let mean = logs.iter().sum::<f64>() / logs.len() as f64;
    let var = logs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (logs.len() - 1) as f64;
    (mean, var)
}

/// A percentile of one pending batch, drawn from the order statistic's
/// law, has drain-and-select's distribution. Two clones step the same
/// periods (`run_for` draws nothing, so both hold the same batch sizes);
/// one answers `DRAWS` `measure` calls, the other drains and selects as
/// often. Each case passes a two-sample Kolmogorov–Smirnov test, and the
/// means of the logs agree within the matching normal bound, at a
/// family-wise α of 1e-3 (Bonferroni over the cases).
#[test]
fn analytic_measure_matches_drain_and_select_in_distribution() {
    const CASES: u32 = 16;
    const DRAWS: usize = 4096;
    let alpha = 1e-3 / f64::from(CASES);
    // P(D ≥ c·√(2/DRAWS)) ≈ 2·e^(−2c²) for two samples of DRAWS each.
    let d_max = (-(alpha / 2.0).ln() / 2.0).sqrt() * (2.0 / DRAWS as f64).sqrt();
    // Φ⁻¹(1 − α/2) at α = 1e-3 / 16, in standard errors of the difference.
    let z_max = 4.0;
    let small = Cell::new(0);
    check(
        CASES,
        &distribution_inputs(),
        |(plant, period_s, metric)| {
            let (mut a, mut b) = (plant.clone(), plant.clone());
            let (mut measured, mut selected) = (Vec::new(), Vec::new());
            let mut n_max = 0;
            for _ in 0..DRAWS {
                a.run_for(*period_s);
                b.run_for(*period_s);
                let batch = b.take_completed();
                n_max = n_max.max(batch.len());
                let (x, y) = (a.measure(*metric), metric.measure(batch));
                prop_assert!(x.is_some() && y.is_some(), "an empty {period_s} s period");
                measured.extend(x);
                selected.extend(y);
            }
            // Means on the log scale, where the plant's spread is normal:
            // the linear mean of a maximum has a heavy right tail.
            let ((ma, va), (ms, vs)) = (log_mean_var(&measured), log_mean_var(&selected));
            let se = ((va + vs) / DRAWS as f64).sqrt();
            prop_assert!(
                (ma - ms).abs() <= z_max * se,
                "{metric:?} over ≤ {n_max}: log mean {ma} vs {ms} (se {se})"
            );
            let d = ks_statistic(measured, selected);
            prop_assert!(
                d < d_max,
                "{metric:?} over ≤ {n_max}: KS D {d:.4} ≥ {d_max:.4}"
            );
            small.set(small.get() + u32::from(n_max <= 10));
            Ok(())
        },
    );
    assert!(4 * small.get() >= CASES, "{} cases at n ≤ 10", small.get());
}
