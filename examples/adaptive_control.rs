//! Online model adaptation vs robust fixed gains, off the design point.
//!
//! The paper identifies eq. (1) once (at concurrency 40) and relies on MPC
//! feedback for robustness (Figs. 4–5). This example demonstrates the two
//! extensions the workspace supports when the plant drifts away from the
//! identification conditions:
//!
//! 1. **Adaptation** — re-estimating the ARX parameters online with
//!    forgetting-factor RLS and hot-swapping the MPC's model (the raw
//!    `vdc-control` layer, which exposes `update_model`).
//! 2. **Robustness** — a fixed-gain provisioning controller that never
//!    re-identifies anything, built through the [`ControllerSpec`] seam
//!    and driven as a `dyn TierController` like any other law.
//!
//! Both run at concurrency 70 — far from the design point — against
//! identical plant instances.
//!
//! ```text
//! cargo run --example adaptive_control --release
//! ```

use vdcpower::apptier::monitor::SlaMetric;
use vdcpower::apptier::{AppSim, Plant, WorkloadProfile};
use vdcpower::control::sysid::RecursiveLeastSquares;
use vdcpower::control::{MpcConfig, MpcController, ReferenceTrajectory};
use vdcpower::core::controller::{identify_plant, IdentificationConfig};
use vdcpower::core::ControllerSpec;

fn main() {
    let profile = WorkloadProfile::rubbos();
    let period_s = 4.0;
    let setpoint = 1000.0;

    // Identify at concurrency 40 (the paper's design point).
    let mut twin = AppSim::new(profile.clone(), 40, &[1.0, 1.0], 3).unwrap();
    let model = identify_plant(&mut twin, &IdentificationConfig::default(), 17).unwrap();
    println!(
        "identified at concurrency 40: gains = [{:.0}, {:.0}] ms/GHz",
        model.dc_gain(0).unwrap(),
        model.dc_gain(1).unwrap()
    );

    // Controller built directly on the raw MPC layer so we can swap models.
    let reference = ReferenceTrajectory::new(period_s, 3.0 * period_s).unwrap();
    let cfg = MpcConfig {
        prediction_horizon: 10,
        control_horizon: 3,
        q_weight: 1.0,
        r_weight: vec![4.0e4; 2],
        reference,
        setpoint,
        c_min: vec![0.3; 2],
        c_max: vec![3.0; 2],
        delta_max: Some(0.3),
    };
    let mut mpc = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();

    // Forgetting-factor RLS seeded with nothing: it learns from closed-loop
    // data and periodically refreshes the MPC's model.
    let mut rls = RecursiveLeastSquares::new(1, 2, 2, 0.985, 1e5).unwrap();

    // The plant runs at concurrency 70 — far from the design point.
    let mut plant = AppSim::new(profile.clone(), 70, &[1.0, 1.0], 11).unwrap();
    let mut tail = Vec::new();
    println!("\nrunning at concurrency 70 with online adaptation:");
    for k in 0..150 {
        plant.set_allocations(mpc.current_allocation()).unwrap();
        plant.run_for(period_s);
        let Some(p90_s) = plant.measure(SlaMetric::P90) else {
            continue;
        };
        let t_ms = p90_s * 1000.0;
        rls.observe(mpc.current_allocation(), t_ms).unwrap();
        let step = mpc.step(t_ms).unwrap();

        // Every 25 periods, refresh the controller's model from RLS (if the
        // estimate is sane: stable AR part and negative gains).
        if k % 25 == 24 {
            if let Ok(est) = rls.model() {
                let stable = est.a().iter().map(|a| a.abs()).sum::<f64>() < 1.0;
                let negative_gains =
                    (0..2).all(|ch| est.dc_gain(ch).map(|g| g < 0.0).unwrap_or(false));
                if stable && negative_gains {
                    println!(
                        "  k={k:3}: swapped in RLS model, gains = [{:.0}, {:.0}] ms/GHz",
                        est.dc_gain(0).unwrap(),
                        est.dc_gain(1).unwrap()
                    );
                    mpc.update_model(est).unwrap();
                }
            }
        }
        if k >= 110 {
            tail.push(t_ms);
        }
        let _ = step;
    }
    let adaptive_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;

    // The robust alternative: no model refresh, no identification data at
    // run time — a fixed-gain law on the filtered relative error, built
    // through the same seam the co-simulation uses and driven through the
    // object-safe trait.
    let mut robust = ControllerSpec::Robust
        .build(&model, setpoint, period_s, &[1.0, 1.0])
        .unwrap();
    let mut plant = AppSim::new(profile, 70, &[1.0, 1.0], 11).unwrap();
    let mut tail = Vec::new();
    println!("\nrunning at concurrency 70 with fixed robust gains (no re-identification):");
    for k in 0..150 {
        let measured = robust.control_period(&mut plant).unwrap();
        if k % 25 == 24 {
            if let Some(t) = measured {
                println!(
                    "  k={k:3}: p90 {t:5.0} ms, demand {:.2} GHz",
                    robust.total_demand_ghz()
                );
            }
        }
        if k >= 110 {
            if let Some(t) = measured {
                tail.push(t);
            }
        }
    }
    let robust_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;

    println!(
        "\nsteady-state p90 at concurrency 70 (set point {setpoint} ms):\n\
         \x20 adaptive MPC (RLS refresh): {adaptive_mean:.0} ms\n\
         \x20 robust fixed gains:         {robust_mean:.0} ms"
    );
}
