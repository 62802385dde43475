//! Figure 2: response time of all 8 applications in the data center, set
//! point 1000 ms, power optimizer disabled.
//!
//! ```text
//! cargo run -p vdc-bench --bin fig2 --release [--apps 8] [--concurrency 40]
//!     [--setpoint 1000] [--warmup 50] [--measure 250] [--seed 2010]
//! ```

use vdc_bench::{figure_header, rule};
use vdc_core::experiments::fig2;
use vdc_core::testbed::TestbedConfig;
use vdc_telemetry::{arg_count, arg_num, exit_with};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = TestbedConfig {
        n_apps: arg_count(&args, "--apps", 8),
        concurrency: arg_num(&args, "--concurrency", 40usize),
        setpoint_ms: arg_num(&args, "--setpoint", 1000.0f64),
        seed: arg_num(&args, "--seed", 2010u64),
        ..Default::default()
    };
    let warmup = arg_num(&args, "--warmup", 50usize);
    let measure = arg_num(&args, "--measure", 250usize);

    figure_header(
        "Figure 2",
        "90-percentile response time of all applications (mean ± std)",
    );
    println!(
        "testbed: {} apps, concurrency {}, set point {} ms, {} warm-up + {} measured periods",
        cfg.n_apps, cfg.concurrency, cfg.setpoint_ms, warmup, measure
    );
    let result = fig2(&cfg, warmup, measure)
        .unwrap_or_else(|e| exit_with(&format!("fig2 experiment failed: {e}")));
    rule(46);
    println!(
        "{:<8} {:>12} {:>10} {:>8}",
        "App", "mean (ms)", "std (ms)", "n"
    );
    rule(46);
    for (i, m) in result.per_app.iter().enumerate() {
        println!(
            "App{:<5} {:>12.1} {:>10.1} {:>8}",
            i + 1,
            m.mean,
            m.std,
            m.n
        );
    }
    rule(46);
    let overall: f64 =
        result.per_app.iter().map(|m| m.mean).sum::<f64>() / result.per_app.len() as f64;
    println!(
        "overall mean {:.1} ms vs set point {:.0} ms ({:+.1} %)",
        overall,
        result.setpoint_ms,
        100.0 * (overall - result.setpoint_ms) / result.setpoint_ms
    );
}
