//! Property-based tests for the plant: conservation laws and statistics
//! invariants that must hold for any workload configuration.

use vdc_apptier::monitor::{ResponseStats, SlaMetric};
use vdc_apptier::{AppSim, TierDemand, WorkloadProfile};
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
