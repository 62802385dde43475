//! Tier-1 churn gate at the workspace level: the lifecycle-events
//! subsystem must be a strict superset of the fixed-population replay.
//!
//! * With **zero events**, `run_churn` is bit-identical to
//!   `run_large_scale` on the same trace — every churn hook is dormant
//!   and the slot-recycling free list is never touched.
//! * With a real churn stream, the run is deterministic (same seed, same
//!   result) and the admission ledger balances: every arrival is either
//!   admitted or rejected, and nothing is silently dropped.

use vdc_churn::{AdmissionPolicy, ChurnConfig, ChurnWorkload};
use vdc_core::churn::run_churn;
use vdc_core::largescale::{run_large_scale, LargeScaleConfig, OptimizerKind};
use vdc_core::RunOptions;
use vdc_trace::{generate_trace, TraceConfig, UtilizationTrace};

fn day_trace(n_vms: usize, seed: u64) -> UtilizationTrace {
    generate_trace(&TraceConfig {
        n_vms,
        n_samples: 48,
        interval_s: 900.0,
        seed,
    })
}

#[test]
fn zero_event_churn_run_matches_fixed_population_replay() {
    let trace = day_trace(30, 0xFACADE);
    let cfg = LargeScaleConfig::new(30, OptimizerKind::Ipac);
    let opts = RunOptions::default().with_series();
    let fixed = run_large_scale(&trace, &cfg, &opts).expect("fixed replay runs");
    let workload = ChurnWorkload::empty(trace.n_samples());
    let churned = run_churn(
        &trace,
        &cfg,
        &workload,
        AdmissionPolicy::WakeAndRetry,
        &opts,
    )
    .expect("empty churn replay runs");

    assert_eq!(
        fixed.total_energy_wh.to_bits(),
        churned.base.total_energy_wh.to_bits(),
        "total energy"
    );
    assert_eq!(
        fixed.energy_per_vm_wh.to_bits(),
        churned.base.energy_per_vm_wh.to_bits(),
        "energy per VM"
    );
    assert_eq!(
        fixed.sla_violation_fraction.to_bits(),
        churned.base.sla_violation_fraction.to_bits(),
        "SLA fraction"
    );
    assert_eq!(fixed.migrations, churned.base.migrations, "migrations");
    assert_eq!(
        fixed.peak_active_servers, churned.base.peak_active_servers,
        "peak active servers"
    );
    assert_eq!(
        fixed.final_placements, churned.base.final_placements,
        "final placements"
    );
    let fixed_series: Vec<u64> = fixed.series.iter().map(|s| s.power_w.to_bits()).collect();
    let churn_series: Vec<u64> = churned
        .base
        .series
        .iter()
        .map(|s| s.power_w.to_bits())
        .collect();
    assert_eq!(fixed_series, churn_series, "power series");

    assert_eq!(churned.arrivals, 0);
    assert_eq!(churned.departures, 0);
    assert_eq!(churned.rejections, 0);
    assert_eq!(churned.recycled_slots, 0);
    assert_eq!(churned.live_churn_vms, 0);
}

#[test]
fn churn_replay_is_deterministic_and_conserves_arrivals() {
    let trace = day_trace(30, 0xD1CE);
    let cfg = LargeScaleConfig::new(30, OptimizerKind::Ipac);
    let wl_cfg = ChurnConfig {
        mean_lifetime_s: 3_600.0,
        ..ChurnConfig::with_flash_crowd(60.0, 20, 15, 0x51DE)
    };
    let workload = ChurnWorkload::generate(&wl_cfg, trace.n_samples(), trace.interval_s());
    let opts = RunOptions::default();
    let a = run_churn(
        &trace,
        &cfg,
        &workload,
        AdmissionPolicy::WakeAndRetry,
        &opts,
    )
    .unwrap();
    let b = run_churn(
        &trace,
        &cfg,
        &workload,
        AdmissionPolicy::WakeAndRetry,
        &opts,
    )
    .unwrap();

    assert!(a.arrivals > 0, "scenario must churn");
    assert_eq!(a.admitted + a.rejections, a.arrivals, "admission ledger");
    assert_eq!(
        a.base.total_energy_wh.to_bits(),
        b.base.total_energy_wh.to_bits(),
        "repeat run: energy"
    );
    assert_eq!(
        a.base.final_placements, b.base.final_placements,
        "repeat run: placements"
    );
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.departures, b.departures);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.rejections, b.rejections);
    assert_eq!(a.wake_retries, b.wake_retries);
    assert_eq!(a.recycled_slots, b.recycled_slots);
    assert_eq!(a.live_churn_vms, b.live_churn_vms);
}
