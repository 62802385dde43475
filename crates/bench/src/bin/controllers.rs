//! Controller ablation: one trace, three tier controllers, head to head.
//!
//! Replays the same utilization trace through the full co-simulation once
//! per [`ControllerSpec`] — the paper MPC, the robust fixed-gain
//! provisioner, and the cooling-coupled MPC — under identical conditions:
//! a sensor-dropout fault plan (so the safe-mode column is exercised, not
//! zero) and a stepped site-PUE series fed forward each sample (so the
//! cooling-coupled variant has a signal to react to; the others ignore it
//! by contract). The same series prices the run's power, so energy is
//! reported twice: IT Wh and facility Wh (IT × PUE per sample). The table
//! is the ablation: both energies, SLO violation fraction, migrations,
//! and safe-mode samples per controller.
//!
//! ```text
//! cargo run -p vdc-bench --bin controllers --release [--apps 16]
//!     [--samples 672] [--seed 51103] [--shards N] [--quiet|-q]
//! ```
//!
//! Output: `results/METRICS_controllers.json` / `.tsv` with one
//! `controllers.<name>.*` family per controller (`energy_wh` in IT Wh,
//! `facility_energy_wh`, violation fraction, migrations, safe-mode
//! samples) — deterministic values, gated by `tools/results_gate` in ci.sh.

use vdc_bench::{figure_header, rule};
use vdc_core::cosim::{run_cosim, CosimConfig, CosimResult};
use vdc_core::{ControllerSpec, FaultConfig, FaultPlan, RunOptions};
use vdc_dcsim::PueSeries;
use vdc_telemetry::export::write_metrics;
use vdc_telemetry::{arg_count, arg_num, exit_with, Reporter, Telemetry};
use vdc_trace::{generate_trace, TraceConfig};

fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .counter_values()
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// The site PUE trajectory: a cool-night / hot-afternoon square wave over
/// each simulated day. 96 samples = one day at 15-minute cadence; the
/// afternoon block (samples 48..72 of each day) runs hot.
fn diurnal_pue(n_samples: usize) -> PueSeries {
    let samples = (0..n_samples.max(1))
        .map(|t| {
            let tod = t % 96;
            if (48..72).contains(&tod) {
                1.85
            } else {
                1.25
            }
        })
        .collect();
    PueSeries::from_samples(samples).expect("PUE samples >= 1 validate")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reporter = Reporter::from_args(&args);
    let n_apps = arg_count(&args, "--apps", 16);
    let n_samples = arg_count(&args, "--samples", 672);
    let seed = arg_num(&args, "--seed", 51103u64);
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
    // Identical sensor-dropout plan for every controller: each must ride
    // the masked windows out in safe mode, so the safe-mode column
    // compares like for like.
    let dropout_cfg = FaultConfig::sensor_dropout(4.0, 5_400.0, seed ^ 0xD809);
    let n_hosts = 2 * n_apps;
    let plan = FaultPlan::generate(&dropout_cfg, n_samples, trace.interval_s(), n_hosts, n_apps);
    let pue = diurnal_pue(n_samples);

    figure_header(
        "Controllers",
        "one trace, three tier controllers: MPC vs robust vs cooling-coupled",
    );
    reporter.info(&format!(
        "{n_apps} applications over {:.1} day(s) @ {:.0} s samples (seed {seed}); \
         {} dropout windows; PUE steps 1.25 <-> 1.85 each afternoon",
        n_samples as f64 * trace.interval_s() / 86400.0,
        trace.interval_s(),
        plan.dropout_windows().len(),
    ));

    let specs = [
        ControllerSpec::Mpc,
        ControllerSpec::Robust,
        ControllerSpec::cooling(),
    ];
    // Summary sink: one `controllers.<name>.*` family per run, exported as
    // the bin's METRICS file.
    let summary = Telemetry::enabled();
    let mut rows: Vec<(ControllerSpec, CosimResult, u64)> = Vec::new();
    for spec in specs {
        let telemetry = Telemetry::enabled();
        let opts = RunOptions::default()
            .with_telemetry(&telemetry)
            .with_shards(shards)
            .with_controller(spec)
            .with_faults(&plan)
            .with_pue(&pue);
        let result = run_cosim(&trace, &cfg, &opts)
            .unwrap_or_else(|e| exit_with(&format!("{} run failed: {e}", spec.name())));
        let safe_mode = counter(&telemetry, "control.safe_mode_samples");
        let name = spec.name();
        summary.record(
            &format!("controllers.{name}.energy_wh"),
            result.it_energy_wh,
        );
        summary.record(
            &format!("controllers.{name}.facility_energy_wh"),
            result.total_energy_wh,
        );
        summary.record(
            &format!("controllers.{name}.violation_fraction"),
            result.violation_fraction,
        );
        summary.incr(&format!("controllers.{name}.migrations"), result.migrations);
        summary.incr(&format!("controllers.{name}.safe_mode_samples"), safe_mode);
        reporter.info(&format!(
            "{name}: done ({:.1} facility Wh)",
            result.total_energy_wh
        ));
        rows.push((spec, result, safe_mode));
    }

    rule(78);
    println!(
        "{:<12} {:>11} {:>13} {:>9} {:>12} {:>12}",
        "controller", "IT Wh", "facility Wh", "viol %", "migrations", "safe-mode"
    );
    rule(78);
    for (spec, r, safe_mode) in &rows {
        println!(
            "{:<12} {:>11.1} {:>13.1} {:>8.2}% {:>12} {:>12}",
            spec.name(),
            r.it_energy_wh,
            r.total_energy_wh,
            100.0 * r.violation_fraction,
            r.migrations,
            safe_mode,
        );
    }
    rule(78);
    let (_, mpc, _) = &rows[0];
    let (_, cooling, _) = &rows[2];
    println!(
        "cooling-coupled vs paper MPC: {:+.2}% facility energy ({:+.2}% IT), \
         {:+.2} points of violation\n\
         (the cooling term trades allocation slack for facility power when the\n\
         site runs hot; the robust controller needs no model at all).",
        100.0 * (cooling.total_energy_wh / mpc.total_energy_wh - 1.0),
        100.0 * (cooling.it_energy_wh / mpc.it_energy_wh - 1.0),
        100.0 * (cooling.violation_fraction - mpc.violation_fraction),
    );

    match write_metrics(&summary, "controllers", "results") {
        Ok(path) => println!("metrics -> {path}"),
        Err(e) => reporter.warn(&format!("could not write metrics: {e}")),
    }
}
