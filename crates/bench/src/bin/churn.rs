//! VM lifecycle churn under admission control: a day of steady
//! diurnally-modulated arrivals/departures, then the same day hit by a
//! flash crowd, replayed once per admission policy. The table contrasts
//! what each policy trades: `reject` sheds load (rejections up, power
//! flat), `queue` delays it (queue depth up, no rejections), and
//! `wake-and-retry` buys capacity from the sleeping pool (wake retries
//! up, power up).
//!
//! ```text
//! cargo run -p vdc-bench --bin churn --release [--vms 120] [--samples 96]
//!     [--seed 5415] [--quiet|-q] [--verbose|-v]
//! ```
//!
//! The flash-crowd/wake-and-retry run is instrumented:
//! `results/METRICS_churn.json` / `.tsv` capture the `churn.*` counter
//! family (arrivals, departures, rejections, wake retries), the queue
//! depth gauge, and the placement/wake-wait histograms on top of the
//! large-scale metrics (see DESIGN.md §11).

use vdc_bench::{figure_header, rule};
use vdc_churn::{AdmissionPolicy, ChurnConfig, ChurnWorkload};
use vdc_core::churn::{run_churn, ChurnResult};
use vdc_core::largescale::{LargeScaleConfig, OptimizerKind};
use vdc_core::RunOptions;
use vdc_telemetry::export::write_metrics;
use vdc_telemetry::{arg_count, arg_num, exit_with, Reporter, Telemetry};
use vdc_trace::{generate_trace, TraceConfig, UtilizationTrace};

fn scenario_row(name: &str, policy: &str, r: &ChurnResult) {
    println!(
        "{:<14} {:<14} {:>9.1} {:>7.3}% {:>8} {:>8} {:>7} {:>6} {:>6} {:>9}",
        name,
        policy,
        r.base.total_energy_wh,
        100.0 * r.base.sla_violation_fraction,
        r.arrivals,
        r.departures,
        r.rejections,
        r.wake_retries,
        r.peak_queue_depth,
        r.base.migrations,
    );
}

fn run_scenario(
    trace: &UtilizationTrace,
    cfg: &LargeScaleConfig,
    workload: &ChurnWorkload,
    policy: AdmissionPolicy,
    opts: &RunOptions<'_>,
) -> ChurnResult {
    run_churn(trace, cfg, workload, policy, opts)
        .unwrap_or_else(|e| exit_with(&format!("churn run failed: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reporter = Reporter::from_args(&args);
    let n_vms = arg_count(&args, "--vms", 120);
    let n_samples = arg_count(&args, "--samples", 96);
    let seed = arg_num(&args, "--seed", 5415u64);

    let trace = generate_trace(&TraceConfig {
        n_vms,
        n_samples,
        interval_s: 900.0,
        seed,
    });
    // Fleet sized so consolidation keeps a sleeping pool: the flash
    // crowd overflows the *active* set (policies diverge) while
    // wake-and-retry still has dark servers to buy capacity from.
    let cfg = LargeScaleConfig {
        n_servers: Some((n_vms / 2).max(4)),
        ..LargeScaleConfig::new(n_vms, OptimizerKind::Ipac)
    };

    figure_header(
        "Churn",
        "VM lifecycle churn: steady arrivals vs a flash crowd, per admission policy",
    );
    reporter.info(&format!(
        "{n_vms} base VMs on {} servers over {:.1} day(s) @ {:.0} s samples (seed {seed})",
        cfg.n_servers.unwrap_or(0),
        n_samples as f64 * trace.interval_s() / 86400.0,
        trace.interval_s()
    ));

    // Steady stream: ~n_vms/2 arrivals/day, 3-hour lifetimes so slots
    // recycle within the horizon. The flash crowd adds a burst of
    // n_vms/3 short-lived VMs in the early afternoon on top of it.
    let steady_cfg = ChurnConfig {
        mean_lifetime_s: 3.0 * 3600.0,
        ..ChurnConfig::steady(n_vms as f64 / 2.0, seed ^ 0xC4B2)
    };
    let flash_cfg = ChurnConfig {
        mean_lifetime_s: 3.0 * 3600.0,
        ..ChurnConfig::with_flash_crowd(
            n_vms as f64 / 2.0,
            n_samples / 2,
            (n_vms / 3).max(1),
            seed ^ 0xC4B2,
        )
    };
    let steady_wl = ChurnWorkload::generate(&steady_cfg, n_samples, trace.interval_s());
    let flash_wl = ChurnWorkload::generate(&flash_cfg, n_samples, trace.interval_s());
    reporter.info(&format!(
        "steady workload: {} arrivals / {} in-horizon departures; flash crowd adds {}",
        steady_wl.total_arrivals(),
        steady_wl.total_departures(),
        flash_wl.total_arrivals() - steady_wl.total_arrivals()
    ));

    let plain = RunOptions::default();
    let steady = run_scenario(
        &trace,
        &cfg,
        &steady_wl,
        AdmissionPolicy::WakeAndRetry,
        &plain,
    );
    let reject = run_scenario(&trace, &cfg, &flash_wl, AdmissionPolicy::Reject, &plain);
    let queue = run_scenario(&trace, &cfg, &flash_wl, AdmissionPolicy::Queue, &plain);
    // The headline scenario is instrumented and exported.
    let telemetry = Telemetry::enabled();
    let instrumented = plain.with_telemetry(&telemetry);
    let flash = run_scenario(
        &trace,
        &cfg,
        &flash_wl,
        AdmissionPolicy::WakeAndRetry,
        &instrumented,
    );

    rule(106);
    println!(
        "{:<14} {:<14} {:>9} {:>8} {:>8} {:>8} {:>7} {:>6} {:>6} {:>9}",
        "scenario",
        "admission",
        "Wh",
        "SLA",
        "arrive",
        "depart",
        "reject",
        "wake",
        "queue",
        "migrations"
    );
    rule(106);
    scenario_row("steady", "wake-and-retry", &steady);
    scenario_row("flash crowd", "reject", &reject);
    scenario_row("flash crowd", "queue", &queue);
    scenario_row("flash crowd", "wake-and-retry", &flash);
    rule(106);
    println!(
        "flash/wake-and-retry: {} of {} arrivals landed in recycled slots; {} churn VMs live at end",
        flash.recycled_slots, flash.arrivals, flash.live_churn_vms
    );

    match write_metrics(&telemetry, "churn", "results") {
        Ok(path) => println!("metrics -> {path}"),
        Err(e) => reporter.warn(&format!("could not write metrics: {e}")),
    }
}
