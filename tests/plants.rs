//! Cross-crate plant interchangeability: the same controller must drive
//! the discrete-event simulator, the analytic MVA plant, and an open-loop
//! workload through the one `Plant` interface.

use vdcpower::apptier::{AnalyticPlant, AppSim, Plant, WorkloadProfile};
use vdcpower::core::controller::{identify_plant, IdentificationConfig, ResponseTimeController};
use vdcpower::core::TierController;

fn ident() -> IdentificationConfig {
    IdentificationConfig {
        periods: 140,
        ..Default::default()
    }
}

fn steady_state(ctrl: &mut ResponseTimeController, plant: &mut dyn Plant, periods: usize) -> f64 {
    let mut tail = Vec::new();
    for k in 0..periods {
        if let Some(t) = ctrl.control_period(plant).unwrap() {
            if k >= periods * 2 / 3 {
                tail.push(t);
            }
        }
    }
    tail.iter().sum::<f64>() / tail.len().max(1) as f64
}

#[test]
fn controller_identified_on_des_works_on_analytic_plant() {
    // Identify on the exact simulator, control the analytic approximation:
    // cross-plant generalization through the shared trait.
    let mut des_twin = AppSim::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 3).unwrap();
    let model = identify_plant(&mut des_twin, &ident(), 33).unwrap();
    let mut ctrl = ResponseTimeController::new(model, 1000.0, 4.0, &[1.0, 1.0]).unwrap();
    let mut analytic =
        AnalyticPlant::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 0.45, 5).unwrap();
    let mean = steady_state(&mut ctrl, &mut analytic, 90);
    assert!(
        (mean - 1000.0).abs() < 150.0,
        "analytic plant steady state {mean:.0} ms"
    );
}

#[test]
fn controller_identified_on_analytic_works_on_des() {
    // The reverse direction: cheap identification, faithful plant.
    let mut fast_twin =
        AnalyticPlant::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 0.45, 7).unwrap();
    let model = identify_plant(&mut fast_twin, &ident(), 44).unwrap();
    // Physicality survives the analytic substitution.
    for ch in 0..2 {
        assert!(model.dc_gain(ch).unwrap() < 0.0);
    }
    let mut ctrl = ResponseTimeController::new(model, 1000.0, 4.0, &[1.0, 1.0]).unwrap();
    let mut des = AppSim::new(WorkloadProfile::rubbos(), 40, &[1.0, 1.0], 9).unwrap();
    let mean = steady_state(&mut ctrl, &mut des, 110);
    assert!(
        (mean - 1000.0).abs() < 200.0,
        "DES steady state {mean:.0} ms under analytic-identified model"
    );
}

#[test]
fn controller_holds_setpoint_on_open_loop_workload() {
    // Open-loop arrivals (no client self-throttling): the controller must
    // still regulate p90 by scaling capacity with the offered load.
    let mut twin = AppSim::open(WorkloadProfile::rubbos(), 35.0, &[1.0, 1.0], 21).unwrap();
    let model = identify_plant(&mut twin, &ident(), 55).unwrap();
    let mut ctrl = ResponseTimeController::new(model, 120.0, 4.0, &[1.0, 1.0]).unwrap();
    let mut plant = AppSim::open(WorkloadProfile::rubbos(), 35.0, &[1.0, 1.0], 23).unwrap();
    let mean = steady_state(&mut ctrl, &mut plant, 110);
    assert!(
        (mean - 120.0).abs() < 60.0,
        "open-loop steady state {mean:.0} ms vs 120 ms set point"
    );
}

#[test]
fn mixed_class_workload_is_controllable() {
    // The 85/15 browse/post mixture has much heavier tails; the controller
    // still holds the p90 set point (with wider variance).
    let mut twin = AppSim::new(WorkloadProfile::rubbos_mixed(), 30, &[1.0, 1.0], 31).unwrap();
    let model = identify_plant(&mut twin, &ident(), 66).unwrap();
    let mut ctrl = ResponseTimeController::new(model, 1200.0, 4.0, &[1.0, 1.0]).unwrap();
    let mut plant = AppSim::new(WorkloadProfile::rubbos_mixed(), 30, &[1.0, 1.0], 37).unwrap();
    let mean = steady_state(&mut ctrl, &mut plant, 120);
    assert!(
        (mean - 1200.0).abs() < 250.0,
        "mixed-class steady state {mean:.0} ms"
    );
}
