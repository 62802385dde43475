//! Figure 3: typical run of the response-time controller under a workload
//! surge — App5's concurrency doubles (40 → 80) during t ∈ [600, 1200) s.
//! Prints (a) the response time of App5 and (b) cluster power over time.
//!
//! ```text
//! cargo run -p vdc-bench --bin fig3 --release [--apps 8] [--total 1500]
//!     [--surge-start 600] [--surge-end 1200] [--surge-concurrency 80]
//! ```

use vdc_bench::{figure_header, rule};
use vdc_core::experiments::{fig3, fig3_static_baseline};
use vdc_core::testbed::TestbedConfig;
use vdc_telemetry::{arg_count, arg_num, exit_with, Reporter};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reporter = Reporter::from_args(&args);
    let cfg = TestbedConfig {
        n_apps: arg_count(&args, "--apps", 8),
        concurrency: arg_num(&args, "--concurrency", 40usize),
        setpoint_ms: arg_num(&args, "--setpoint", 1000.0f64),
        seed: arg_num(&args, "--seed", 2010u64),
        ..Default::default()
    };
    let total_s = arg_num(&args, "--total", 1500.0f64);
    let surge_start = arg_num(&args, "--surge-start", 600.0f64);
    let surge_end = arg_num(&args, "--surge-end", 1200.0f64);
    let surge_c = arg_num(&args, "--surge-concurrency", 80usize);
    let app = arg_num(&args, "--app", 4usize); // App5, 0-indexed

    figure_header(
        "Figure 3",
        "typical run under a workload surge: (a) App5 response time, (b) cluster power",
    );
    reporter.info(&format!(
        "surge: concurrency {} → {} during [{:.0}, {:.0}) s of a {:.0} s run",
        cfg.concurrency, surge_c, surge_start, surge_end, total_s
    ));
    let series = fig3(&cfg, app, total_s, surge_start, surge_end, surge_c)
        .unwrap_or_else(|e| exit_with(&format!("fig3 failed: {e}")));

    rule(54);
    println!(
        "{:>8} {:>16} {:>12}  phase",
        "t (s)", "App5 p90 (ms)", "power (W)"
    );
    rule(54);
    // Print every 20 s to keep the table readable.
    for p in series
        .iter()
        .filter(|p| (p.time_s as u64).is_multiple_of(20))
    {
        let phase = if p.time_s >= surge_start && p.time_s < surge_end {
            "SURGE"
        } else {
            ""
        };
        match p.response_ms {
            Some(t) => println!(
                "{:>8.0} {:>16.0} {:>12.1}  {}",
                p.time_s, t, p.power_w, phase
            ),
            None => println!(
                "{:>8.0} {:>16} {:>12.1}  {}",
                p.time_s, "-", p.power_w, phase
            ),
        }
    }
    rule(54);
    let phase_mean = |lo: f64, hi: f64| {
        let vals: Vec<f64> = series
            .iter()
            .filter(|p| p.time_s >= lo && p.time_s < hi)
            .filter_map(|p| p.response_ms)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let power_mean = |lo: f64, hi: f64| {
        let vals: Vec<f64> = series
            .iter()
            .filter(|p| p.time_s >= lo && p.time_s < hi)
            .map(|p| p.power_w)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    println!(
        "mean p90: pre-surge {:.0} ms | surge (after resettle) {:.0} ms | post {:.0} ms",
        phase_mean(200.0, surge_start),
        phase_mean(surge_start + 200.0, surge_end),
        phase_mean(surge_end + 100.0, total_s),
    );
    println!(
        "mean power: pre-surge {:.1} W | surge {:.1} W | post {:.1} W",
        power_mean(200.0, surge_start),
        power_mean(surge_start + 200.0, surge_end),
        power_mean(surge_end + 100.0, total_s),
    );

    // Counterfactual: the same surge with allocations frozen at the
    // pre-surge equilibrium (what a controller-less scheme experiences).
    let frozen = [0.9, 0.9];
    let baseline = fig3_static_baseline(
        &cfg,
        total_s,
        surge_start,
        surge_end,
        surge_c,
        &frozen,
        4242,
    )
    .unwrap_or_else(|e| exit_with(&format!("baseline failed: {e}")));
    let base_mean = |lo: f64, hi: f64| {
        let vals: Vec<f64> = baseline
            .iter()
            .filter(|p| p.time_s >= lo && p.time_s < hi)
            .filter_map(|p| p.response_ms)
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    rule(54);
    println!(
        "static-allocation baseline ({:.1} GHz/tier, no controller):\n\
         mean p90: pre-surge {:.0} ms | surge {:.0} ms | post {:.0} ms",
        frozen[0],
        base_mean(200.0, surge_start),
        base_mean(surge_start + 100.0, surge_end),
        base_mean(surge_end + 100.0, total_s),
    );
    println!(
        "without reallocation the surge roughly doubles the response time;\n\
         the MPC holds it at the set point (compare the surge columns)."
    );
}
