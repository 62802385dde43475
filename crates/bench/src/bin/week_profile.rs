//! A week in profile: hourly power, active-server, and migration series of
//! the large-scale data center under IPAC — the "behind the scenes" of one
//! Fig. 6 point. Useful for sanity-checking the diurnal response of the
//! two-level scheme (consolidation at night, DVFS through the day).
//!
//! ```text
//! cargo run -p vdc-bench --bin week_profile --release [--vms 1030] [--quick]
//!     [--quiet|-q] [--verbose|-v]
//! ```
//!
//! The run is instrumented: `results/METRICS_week_profile.json` / `.tsv`
//! capture per-sample step cost, optimizer invocation stats, and DVFS
//! transition counts (see DESIGN.md §Telemetry).

use vdc_bench::{figure_header, rule};
use vdc_core::largescale::{run_large_scale, LargeScaleConfig, OptimizerKind};
use vdc_core::RunOptions;
use vdc_telemetry::export::write_metrics;
use vdc_telemetry::{
    arg_count, arg_num, arg_present, check_flags, exit_with, Flag, Reporter, Telemetry,
};
use vdc_trace::{generate_trace, TraceConfig};

/// The flags this bin reads; any other ends it with exit status 1.
const FLAGS: &[Flag] = &[
    Flag::switch("--quick"),
    Flag::value("--vms"),
    Flag::value("--seed"),
    Flag::QUIET,
    Flag::VERBOSE,
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, FLAGS);
    let reporter = Reporter::from_args(&args);
    let quick = arg_present(&args, "--quick");
    let n_vms = arg_count(&args, "--vms", if quick { 200 } else { 1030 });
    let seed = arg_num(&args, "--seed", 5415u64);

    let trace_cfg = if quick {
        TraceConfig {
            n_vms,
            n_samples: 96,
            interval_s: 900.0,
            seed,
        }
    } else {
        TraceConfig {
            n_vms,
            ..TraceConfig::paper_scale(seed)
        }
    };
    figure_header(
        "Week profile",
        "hourly cluster power / active servers / migrations under IPAC",
    );
    reporter.info(&format!(
        "{n_vms} VMs over {:.1} day(s) @ {:.0} s samples (seed {seed})",
        trace_cfg.n_samples as f64 * trace_cfg.interval_s / 86400.0,
        trace_cfg.interval_s
    ));
    let trace = generate_trace(&trace_cfg);
    let telemetry = Telemetry::enabled();
    let cfg = LargeScaleConfig::new(n_vms, OptimizerKind::Ipac);
    let opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_series();
    let result = run_large_scale(&trace, &cfg, &opts)
        .unwrap_or_else(|e| exit_with(&format!("run failed: {e}")));
    let series = &result.series;

    rule(76);
    println!(
        "{:>6} {:>5} {:>12} {:>12} {:>12} {:>12}",
        "day", "hour", "power (W)", "active srv", "migrations", "unmet %"
    );
    rule(76);
    // Print every 4 hours.
    let per_hour = (3600.0 / trace.interval_s()).round() as usize;
    for s in series.iter().step_by(4 * per_hour.max(1)) {
        let hours = s.t_s / 3600.0;
        println!(
            "{:>6} {:>5} {:>12.1} {:>12} {:>12} {:>11.3}%",
            (hours / 24.0) as u64 + 1,
            (hours % 24.0) as u64,
            s.power_w,
            s.active_servers,
            s.migrations_so_far,
            100.0 * s.unmet_fraction
        );
    }
    rule(76);
    println!(
        "totals: {:.1} Wh/VM over {:.0} h | {} migrations ({} from overload relief)",
        result.energy_per_vm_wh,
        trace.duration_s() / 3600.0,
        result.migrations,
        result.relief_migrations
    );
    println!(
        "SLA: {:.4} % of demanded CPU cycles went unserved; wake transitions cost {:.1} Wh",
        100.0 * result.sla_violation_fraction,
        result.wake_energy_wh
    );
    match write_metrics(&telemetry, "week_profile", "results") {
        Ok(path) => println!("metrics -> {path}"),
        Err(e) => reporter.warn(&format!("could not write metrics: {e}")),
    }
}
