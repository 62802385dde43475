//! Integration of the identification → control pipeline across crates:
//! the model identified on the DES plant must be usable by the MPC, track
//! set-point changes, and survive workload shifts — the §VII-A scenarios,
//! at reduced scale for test time.

use vdcpower::apptier::{AppSim, WorkloadProfile};
use vdcpower::control::stability::{is_stable, model_poles};
use vdcpower::core::controller::{identify_plant, IdentificationConfig, ResponseTimeController};
use vdcpower::core::TierController;

fn ident_cfg() -> IdentificationConfig {
    IdentificationConfig {
        periods: 140,
        ..Default::default()
    }
}

#[test]
fn identified_model_is_stable_and_physical() {
    let mut plant = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 5).unwrap();
    let model = identify_plant(&mut plant, &ident_cfg(), 55).unwrap();
    // Stable AR dynamics (margin 0: strictly inside the unit circle).
    assert!(is_stable(&model, 0.0).unwrap(), "a = {:?}", model.a());
    assert_eq!(model_poles(&model).unwrap().len(), 1);
    // Physical: more CPU, lower response time — on both tiers.
    for ch in 0..2 {
        assert!(model.dc_gain(ch).unwrap() < 0.0);
    }
    // The bias dominates (response time is positive at zero allocation
    // change) and is in a plausible ms range.
    assert!(model.bias() > 0.0 && model.bias() < 60_000.0);
}

#[test]
fn controller_tracks_a_setpoint_staircase() {
    let profile = WorkloadProfile::rubbos();
    let mut twin = AppSim::new(profile.clone(), 30, &[1.0, 1.0], 6).unwrap();
    let model = identify_plant(&mut twin, &ident_cfg(), 66).unwrap();
    let mut ctrl = ResponseTimeController::new(model, 900.0, 4.0, &[1.0, 1.0]).unwrap();
    let mut plant = AppSim::new(profile, 30, &[1.0, 1.0], 7).unwrap();

    for &target in &[900.0_f64, 1200.0, 700.0] {
        ctrl.set_setpoint(target);
        let mut tail = Vec::new();
        for k in 0..70 {
            if let Some(t) = ctrl.control_period(&mut plant).unwrap() {
                if k >= 45 {
                    tail.push(t);
                }
            }
        }
        let mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        assert!(
            (mean - target).abs() < 0.2 * target,
            "staircase step to {target}: settled at {mean:.0}"
        );
    }
}

#[test]
fn three_tier_application_is_controllable() {
    // The paper's formulation covers r_i tiers; exercise r = 3 end-to-end.
    let profile = WorkloadProfile::three_tier();
    let mut twin = AppSim::new(profile.clone(), 30, &[1.0, 1.0, 1.0], 8).unwrap();
    let model = identify_plant(&mut twin, &ident_cfg(), 88).unwrap();
    assert_eq!(model.n_inputs(), 3);
    let mut ctrl = ResponseTimeController::new(model, 1000.0, 4.0, &[1.0, 1.0, 1.0]).unwrap();
    let mut plant = AppSim::new(profile, 30, &[1.0, 1.0, 1.0], 9).unwrap();
    let mut tail = Vec::new();
    for k in 0..110 {
        if let Some(t) = ctrl.control_period(&mut plant).unwrap() {
            if k >= 70 {
                tail.push(t);
            }
        }
    }
    let mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    assert!(
        (mean - 1000.0).abs() < 200.0,
        "3-tier steady state {mean:.0} ms"
    );
}

#[test]
fn controller_survives_infeasible_setpoint_by_saturating() {
    // A 50 ms set point is unreachable: the controller must saturate at its
    // allocation ceiling without panicking or oscillating out of bounds.
    let profile = WorkloadProfile::rubbos();
    let mut twin = AppSim::new(profile.clone(), 40, &[1.0, 1.0], 10).unwrap();
    let model = identify_plant(&mut twin, &ident_cfg(), 99).unwrap();
    let mut ctrl = ResponseTimeController::new(model, 50.0, 4.0, &[1.0, 1.0]).unwrap();
    let mut plant = AppSim::new(profile, 40, &[1.0, 1.0], 11).unwrap();
    for _ in 0..60 {
        ctrl.control_period(&mut plant).unwrap();
    }
    let alloc = ctrl.allocation();
    for &c in alloc {
        assert!(c <= 3.0 + 1e-9, "allocation {c} beyond ceiling");
    }
    assert!(
        alloc.iter().sum::<f64>() > 4.0,
        "controller should be pushing hard: {alloc:?}"
    );
}
