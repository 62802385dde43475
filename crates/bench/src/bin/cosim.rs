//! Full-system co-simulation: the complete Fig. 1 architecture, end to
//! end — hundreds of MPC-controlled applications whose workload intensity
//! follows the trace, consolidated by IPAC, throttled by DVFS, relieved on
//! demand — versus **static peak provisioning** of the same applications.
//!
//! This is the experiment the paper implies but never runs at scale: both
//! of its evaluation halves (controller on 4 servers; consolidation on
//! replayed demands) composed into one system.
//!
//! ```text
//! cargo run -p vdc-bench --bin cosim --release [--apps 100] [--days 7] [--quick]
//!     [--shards N] [--quiet|-q] [--verbose|-v]
//! ```
//!
//! `--shards N` fans the per-sample control loop over N worker threads
//! (default: host parallelism; output is bit-identical for every N).
//!
//! The dynamic run is instrumented: `results/METRICS_cosim.json` / `.tsv`
//! capture MPC phase timings, DVFS transition counts, and per-app SLO
//! accounting (see DESIGN.md §Telemetry).

use vdc_bench::{figure_header, rule};
use vdc_core::cosim::{run_cosim, CosimConfig};
use vdc_core::RunOptions;
use vdc_telemetry::export::write_metrics;
use vdc_telemetry::{arg_count, arg_num, arg_present, exit_with, Reporter, Telemetry};
use vdc_trace::{generate_trace, TraceConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reporter = Reporter::from_args(&args);
    let quick = arg_present(&args, "--quick");
    let n_apps = arg_count(&args, "--apps", if quick { 30 } else { 100 });
    let days = arg_count(&args, "--days", if quick { 1 } else { 7 });
    let seed = arg_num(&args, "--seed", 0xC051u64);
    let shards = arg_num(&args, "--shards", 0usize); // 0 = host parallelism

    figure_header(
        "Co-simulation",
        "controllers-in-the-loop vs static peak provisioning (full Fig. 1 system)",
    );
    let trace = generate_trace(&TraceConfig {
        n_vms: n_apps,
        n_samples: 96 * days,
        interval_s: 900.0,
        seed,
    });
    reporter.info(&format!(
        "{n_apps} two-tier applications over {days} day(s); optimizer every 4 h; \
         relief every 15 min"
    ));

    let base = CosimConfig {
        n_apps,
        seed,
        ..Default::default()
    };
    let opts = RunOptions::default().with_shards(shards);
    let telemetry = Telemetry::enabled();
    reporter.debug("running the dynamic (MPC + IPAC + DVFS) configuration");
    let dynamic = run_cosim(&trace, &base, &opts.with_telemetry(&telemetry))
        .unwrap_or_else(|e| exit_with(&format!("dynamic run failed: {e}")));
    reporter.debug("running the static peak-provisioned baseline");
    let static_peak = run_cosim(
        &trace,
        &CosimConfig {
            controllers_enabled: false,
            ..base
        },
        &opts,
    )
    .unwrap_or_else(|e| exit_with(&format!("static run failed: {e}")));

    rule(78);
    println!(
        "{:<22} {:>13} {:>13} {:>12} {:>12}",
        "scheme", "Wh/app", "track err", "violations", "mean srv"
    );
    rule(78);
    for (name, r) in [
        ("MPC + IPAC + DVFS", &dynamic),
        ("static peak + IPAC", &static_peak),
    ] {
        println!(
            "{:<22} {:>13.1} {:>10.0} ms {:>11.2}% {:>12.1}",
            name,
            r.energy_per_app_wh,
            r.mean_tracking_error_ms,
            100.0 * r.violation_fraction,
            r.mean_active_servers
        );
    }
    rule(78);
    let saving = 1.0 - dynamic.total_energy_wh / static_peak.total_energy_wh;
    println!(
        "dynamic control saves {:.1} % energy versus peak sizing while holding the\n\
         same SLA — the integrated claim of the paper, reproduced in one run\n\
         (static tracking error is one-sided: over-provisioned apps run *below*\n\
         the set point, which wastes power rather than violating the SLA).",
        100.0 * saving
    );
    match write_metrics(&telemetry, "cosim", "results") {
        Ok(path) => println!("metrics -> {path}"),
        Err(e) => reporter.warn(&format!("could not write metrics: {e}")),
    }
}
