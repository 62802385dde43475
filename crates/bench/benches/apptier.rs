//! Benches for the plant: discrete-event simulation throughput (events are
//! the dominant cost of the testbed experiments), one co-simulation control
//! period of the analytic plant, and the analytic MVA evaluator.

use std::hint::black_box;
use vdc_apptier::monitor::SlaMetric;
use vdc_apptier::{mva_closed_network, AnalyticPlant, AppSim, Plant, WorkloadProfile};
use vdc_bench::harness::BenchHarness;

fn bench_des(h: &mut BenchHarness) {
    for concurrency in [10usize, 40, 80] {
        let mut sim = AppSim::new(WorkloadProfile::rubbos(), concurrency, &[1.0, 1.0], 7).unwrap();
        // Warm up into steady state once.
        sim.run_for(10.0);
        sim.take_completed();
        h.bench("des_run_one_period", &concurrency.to_string(), || {
            sim.run_for(4.0);
            sim.take_completed()
        });
    }
}

/// The work the co-simulation pays per application and control period:
/// advance the analytic plant one 112.5 s period (a 900 s trace sample
/// split into 8) and measure its p90, as the controllers do.
fn bench_analytic_period(h: &mut BenchHarness) {
    for concurrency in [10usize, 40, 80] {
        let mut plant =
            AnalyticPlant::new(WorkloadProfile::rubbos(), concurrency, &[1.0, 1.0], 0.45, 7)
                .unwrap();
        h.bench("analytic_period", &concurrency.to_string(), || {
            plant.run_for(112.5);
            plant.measure(SlaMetric::P90)
        });
    }
}

fn bench_mva(h: &mut BenchHarness) {
    for population in [40usize, 400, 4000] {
        let demands = [0.011, 0.013, 0.004];
        h.bench("mva", &population.to_string(), || {
            mva_closed_network(black_box(&demands), 0.0, population).unwrap()
        });
    }
}

fn main() {
    let mut h = BenchHarness::from_env("apptier");
    bench_des(&mut h);
    bench_analytic_period(&mut h);
    bench_mva(&mut h);
    h.finish();
}
