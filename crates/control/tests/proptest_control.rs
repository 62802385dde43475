//! Property-based tests for the control layer: identification recovers
//! arbitrary stable models, the reference trajectory behaves like a
//! first-order system, and the MPC never violates its constraints.

use vdc_check::{check, f64_range, from_fn, prop_assert, prop_assume, vec_of, Gen, TestRng};
use vdc_control::arx::ArxModel;
use vdc_control::mpc::{MpcConfig, MpcController};
use vdc_control::reference::ReferenceTrajectory;
use vdc_control::stability::{is_stable, model_spectral_radius};
use vdc_control::sysid::{fit_arx, ExperimentData, Prbs};

const CASES: u32 = 32;

/// A random stable ARX(1, 2) model with 2 inputs and negative gains (the
/// physical shape of a response-time model).
fn gen_stable_model(rng: &mut TestRng) -> ArxModel {
    let a = rng.f64_in(-0.8, 0.8);
    let b1 = vec![rng.f64_in(-300.0, -20.0), rng.f64_in(-300.0, -20.0)];
    let b2 = vec![rng.f64_in(-100.0, -5.0), rng.f64_in(-100.0, -5.0)];
    let bias = rng.f64_in(500.0, 2500.0);
    ArxModel::new(vec![a], vec![b1, b2], bias).unwrap()
}

fn stable_model() -> impl Gen<Value = ArxModel> {
    from_fn(gen_stable_model)
}

/// Simulate `model` under PRBS excitation into an identification data set.
fn excite(model: &ArxModel, n: usize, seed: u16) -> ExperimentData {
    let mut p1 = Prbs::new(0.5, 1.4, 3, seed | 1);
    let mut p2 = Prbs::new(0.4, 1.2, 4, seed.wrapping_add(77) | 1);
    let mut data = ExperimentData::new();
    let mut t_hist = vec![model.bias()];
    let mut c_hist = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
    for _ in 0..n {
        let c = vec![p1.next_level(), p2.next_level()];
        c_hist.rotate_right(1);
        c_hist[0] = c.clone();
        let t = model.predict(&t_hist, &c_hist).unwrap();
        t_hist[0] = t;
        data.push(c, t);
    }
    data
}

#[test]
fn identification_recovers_any_stable_model() {
    let gen = from_fn(|rng: &mut TestRng| (gen_stable_model(rng), rng.u64_in(1, 5000) as u16));
    check(CASES, &gen, |(model, seed)| {
        let data = excite(model, 260, *seed);
        let fit = fit_arx(&data, 1, 2).unwrap();
        prop_assert!(
            (fit.model.a()[0] - model.a()[0]).abs() < 1e-4,
            "a: {} vs {}",
            fit.model.a()[0],
            model.a()[0]
        );
        for lag in 0..2 {
            for ch in 0..2 {
                prop_assert!(
                    (fit.model.b()[lag][ch] - model.b()[lag][ch]).abs() < 1e-2,
                    "b[{lag}][{ch}]: {} vs {}",
                    fit.model.b()[lag][ch],
                    model.b()[lag][ch]
                );
            }
        }
        prop_assert!(fit.r_squared > 0.999);
        Ok(())
    });
}

#[test]
fn stability_analysis_matches_ar_coefficient() {
    check(CASES, &f64_range(-0.99, 0.99), |&a| {
        let m = ArxModel::new(vec![a], vec![vec![-100.0]], 1000.0).unwrap();
        let rho = model_spectral_radius(&m).unwrap();
        prop_assert!((rho - a.abs()).abs() < 1e-7);
        prop_assert!(is_stable(&m, 0.0).unwrap());
        Ok(())
    });
}

#[test]
fn reference_trajectory_is_exponential() {
    let gen = (
        f64_range(0.5, 10.0),
        f64_range(1.0, 60.0),
        f64_range(100.0, 2000.0),
        f64_range(100.0, 4000.0),
    );
    check(CASES, &gen, |&(period, tau, ts, t0)| {
        let r = ReferenceTrajectory::new(period, tau).unwrap();
        // First-order recursion: ref(i+1) - Ts = decay * (ref(i) - Ts).
        let d = r.decay();
        for i in 0..20 {
            let lhs = r.at(ts, t0, i + 1) - ts;
            let rhs = d * (r.at(ts, t0, i) - ts);
            prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
        }
        // Error shrinks monotonically.
        let e0 = (r.at(ts, t0, 1) - ts).abs();
        let e5 = (r.at(ts, t0, 6) - ts).abs();
        prop_assert!(e5 <= e0 + 1e-12);
        Ok(())
    });
}

#[test]
fn mpc_always_respects_box_and_rate_limits() {
    let gen = (
        stable_model(),
        vec_of(f64_range(200.0, 3500.0), 10, 11),
        f64_range(0.2, 0.6),
        f64_range(0.5, 2.5),
        f64_range(0.05, 0.5),
    );
    check(CASES, &gen, |(model, t_seq, c_lo, width, rate)| {
        let reference = ReferenceTrajectory::new(4.0, 12.0).unwrap();
        let cfg = MpcConfig {
            prediction_horizon: 8,
            control_horizon: 2,
            q_weight: 1.0,
            r_weight: vec![1e3; 2],
            reference,
            setpoint: 1000.0,
            c_min: vec![*c_lo; 2],
            c_max: vec![c_lo + width; 2],
            delta_max: Some(*rate),
        };
        let mut ctrl = MpcController::new(model.clone(), cfg, &[c_lo + width / 2.0; 2]).unwrap();
        let mut prev = ctrl.current_allocation().to_vec();
        for t in t_seq {
            let step = ctrl.step(*t).unwrap();
            for (a, p) in step.allocation.iter().zip(&prev) {
                prop_assert!(*a >= c_lo - 1e-9);
                prop_assert!(*a <= c_lo + width + 1e-9);
                prop_assert!(
                    (a - p).abs() <= rate + 1e-9,
                    "rate limit violated: {} -> {}",
                    p,
                    a
                );
            }
            prev = step.allocation;
        }
        Ok(())
    });
}

#[test]
fn mpc_converges_on_its_own_model() {
    check(CASES, &stable_model(), |model| {
        // Closed loop against the exact model from a random start: the
        // terminal-constraint MPC must settle near the set point when it is
        // reachable within the box.
        let reference = ReferenceTrajectory::new(4.0, 12.0).unwrap();
        // Reachability: pick a set point inside the plant's range over the
        // box [0.2, 3.0]².
        let t_at = |c: f64| {
            let denom = 1.0 - model.a()[0];
            let sum_b: f64 = model.b().iter().map(|lag| lag.iter().sum::<f64>()).sum();
            (model.bias() + sum_b * c) / denom
        };
        let (hi, lo) = (t_at(0.4), t_at(2.5));
        let ts = 0.5 * (hi + lo);
        prop_assume!(ts > 50.0);
        let cfg = MpcConfig {
            prediction_horizon: 8,
            control_horizon: 2,
            q_weight: 1.0,
            r_weight: vec![1e2; 2],
            reference,
            setpoint: ts,
            c_min: vec![0.2; 2],
            c_max: vec![3.0; 2],
            delta_max: Some(0.5),
        };
        let mut ctrl = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();
        let mut t_hist = vec![t_at(1.0)];
        let mut c_hist = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let mut t = t_hist[0];
        for _ in 0..60 {
            let step = ctrl.step(t).unwrap();
            c_hist.rotate_right(1);
            c_hist[0] = step.allocation.clone();
            t = model.predict(&t_hist, &c_hist).unwrap();
            t_hist[0] = t;
        }
        prop_assert!(
            (t - ts).abs() < 0.05 * ts.abs() + 5.0,
            "did not converge: {t} vs {ts}"
        );
        Ok(())
    });
}
