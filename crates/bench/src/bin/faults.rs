//! Fault injection with graceful degradation: the full co-simulation
//! replayed under a deterministic `FaultPlan` — host crash storms with
//! evacuation, transient migration failures with retry-and-backoff, and
//! sensor dropout ridden out in MPC safe mode — versus the fault-free
//! baseline. The table shows what each fault family costs: power stays
//! close to baseline, the violation fraction degrades gracefully instead
//! of collapsing, and every crash, retry, stranded VM, and safe-mode
//! sample is accounted for.
//!
//! ```text
//! cargo run -p vdc-bench --bin faults --release [--apps 24] [--samples 96]
//!     [--seed 64337] [--shards N] [--quiet|-q] [--verbose|-v]
//! ```
//!
//! The everything-fails-at-once run is instrumented:
//! `results/METRICS_faults.json` / `.tsv` capture the `fault.*` counter
//! family (crashes, recoveries, evacuated/stranded VMs, migration retries
//! and drops, watchdog reliefs) plus `control.safe_mode_samples` and
//! `optimizer.plan_partial` on top of the cosim metrics (see DESIGN.md
//! §12).

use vdc_bench::{figure_header, rule};
use vdc_core::cosim::{run_cosim, CosimConfig, CosimResult};
use vdc_core::{FaultConfig, FaultPlan, RunOptions};
use vdc_telemetry::export::write_metrics;
use vdc_telemetry::{arg_count, arg_num, exit_with, Reporter, Telemetry};
use vdc_trace::{generate_trace, TraceConfig, UtilizationTrace};

fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .counter_values()
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

fn run_scenario(
    trace: &UtilizationTrace,
    cfg: &CosimConfig,
    plan: Option<&FaultPlan>,
    telemetry: &Telemetry,
    shards: usize,
) -> CosimResult {
    let mut opts = RunOptions::default()
        .with_telemetry(telemetry)
        .with_shards(shards);
    if let Some(plan) = plan {
        opts = opts.with_faults(plan);
    }
    run_cosim(trace, cfg, &opts)
        .unwrap_or_else(|e| exit_with(&format!("faulted co-simulation failed: {e}")))
}

fn scenario_row(name: &str, r: &CosimResult, t: &Telemetry) {
    println!(
        "{:<18} {:>9.1} {:>7.2}% {:>7} {:>8} {:>9} {:>7} {:>7} {:>9} {:>9}",
        name,
        r.total_energy_wh,
        100.0 * r.violation_fraction,
        counter(t, "fault.crashes"),
        counter(t, "fault.recoveries"),
        counter(t, "fault.stranded_vms"),
        counter(t, "fault.migration_retries"),
        counter(t, "fault.migrations_dropped"),
        counter(t, "control.safe_mode_samples"),
        counter(t, "fault.watchdog_reliefs"),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reporter = Reporter::from_args(&args);
    let n_apps = arg_count(&args, "--apps", 24);
    let n_samples = arg_count(&args, "--samples", 96);
    let seed = arg_num(&args, "--seed", 64337u64);
    let shards = arg_num(&args, "--shards", 0usize); // 0 = host parallelism

    let trace = generate_trace(&TraceConfig {
        n_vms: n_apps,
        n_samples,
        interval_s: 900.0,
        seed,
    });
    let cfg = CosimConfig {
        n_apps,
        seed,
        ..Default::default()
    };
    // The cosim fleet is auto-sized from peak static provisioning; plans
    // over-cover it (events for hosts past the fleet are skipped
    // deterministically).
    let n_hosts = 2 * n_apps;

    figure_header(
        "Faults",
        "deterministic fault injection with graceful degradation, vs fault-free",
    );
    reporter.info(&format!(
        "{n_apps} MPC-controlled applications over {:.1} day(s) @ {:.0} s samples (seed {seed})",
        n_samples as f64 * trace.interval_s() / 86400.0,
        trace.interval_s()
    ));

    // One plan per fault family, plus everything at once. All draws come
    // from seed-streamed generators, so each scenario is reproducible in
    // isolation.
    let crash_cfg = FaultConfig::crash_storm(8.0 * 3_600.0, 1_800.0, seed ^ 0xFA11);
    let flaky_cfg = FaultConfig {
        migration_failure_prob: 0.35,
        migration_backoff_budget: 1,
        ..FaultConfig::quiet(seed ^ 0xF1A6)
    };
    let dropout_cfg = FaultConfig::sensor_dropout(6.0, 5_400.0, seed ^ 0xD809);
    let combined_cfg = FaultConfig {
        migration_failure_prob: 0.25,
        migration_backoff_budget: 3,
        dropouts_per_day: 4.0,
        dropout_mean_s: 5_400.0,
        ..FaultConfig::crash_storm(8.0 * 3_600.0, 1_800.0, seed ^ 0xA11F)
    };
    let interval_s = trace.interval_s();
    let crash_plan = FaultPlan::generate(&crash_cfg, n_samples, interval_s, n_hosts, n_apps);
    let flaky_plan = FaultPlan::generate(&flaky_cfg, n_samples, interval_s, n_hosts, n_apps);
    let dropout_plan = FaultPlan::generate(&dropout_cfg, n_samples, interval_s, n_hosts, n_apps);
    let combined_plan = FaultPlan::generate(&combined_cfg, n_samples, interval_s, n_hosts, n_apps);
    reporter.info(&format!(
        "crash plan: {} host events; dropout plan: {} windows; combined: {} events",
        crash_plan.host_events().len(),
        dropout_plan.dropout_windows().len(),
        combined_plan.host_events().len() + combined_plan.dropout_windows().len(),
    ));

    let baseline_tel = Telemetry::enabled();
    let baseline = run_scenario(&trace, &cfg, None, &baseline_tel, shards);
    let crash_tel = Telemetry::enabled();
    let crash = run_scenario(&trace, &cfg, Some(&crash_plan), &crash_tel, shards);
    let flaky_tel = Telemetry::enabled();
    let flaky = run_scenario(&trace, &cfg, Some(&flaky_plan), &flaky_tel, shards);
    let dropout_tel = Telemetry::enabled();
    let dropout = run_scenario(&trace, &cfg, Some(&dropout_plan), &dropout_tel, shards);
    // The headline scenario — everything fails at once — is the exported
    // one.
    let telemetry = Telemetry::enabled();
    let combined = run_scenario(&trace, &cfg, Some(&combined_plan), &telemetry, shards);

    rule(114);
    println!(
        "{:<18} {:>9} {:>8} {:>7} {:>8} {:>9} {:>7} {:>7} {:>9} {:>9}",
        "scenario",
        "Wh",
        "viol",
        "crashes",
        "recover",
        "stranded",
        "retries",
        "dropped",
        "safemode",
        "watchdog"
    );
    rule(114);
    scenario_row("fault-free", &baseline, &baseline_tel);
    scenario_row("crash storm", &crash, &crash_tel);
    scenario_row("flaky migrations", &flaky, &flaky_tel);
    scenario_row("sensor dropout", &dropout, &dropout_tel);
    scenario_row("everything", &combined, &telemetry);
    rule(114);
    println!(
        "graceful degradation: the combined scenario spends {:.1}% more energy and adds\n\
         {:.2} points of violation over fault-free, while every evacuation, retry, and\n\
         masked sample is accounted for (stranded VMs stay registered, never lost).",
        100.0 * (combined.total_energy_wh / baseline.total_energy_wh - 1.0),
        100.0 * (combined.violation_fraction - baseline.violation_fraction),
    );

    match write_metrics(&telemetry, "faults", "results") {
        Ok(path) => println!("metrics -> {path}"),
        Err(e) => reporter.warn(&format!("could not write metrics: {e}")),
    }
}
