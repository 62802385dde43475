//! Figure 5: response time of App5 under set points 600–1300 ms at
//! concurrency 40 (controller identified at 40; set point differs from the
//! design conditions).
//!
//! ```text
//! cargo run -p vdc-bench --bin fig5 --release [--concurrency 40]
//!     [--warmup 40] [--measure 150] [--seed 2010]
//! ```

use vdc_bench::{figure_header, rule};
use vdc_core::controller::IdentificationConfig;
use vdc_core::experiments::{fig5, PlantKind};
use vdc_telemetry::{arg_num, arg_present, exit_with};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let concurrency = arg_num(&args, "--concurrency", 40usize);
    let warmup = arg_num(&args, "--warmup", 40usize);
    let measure = arg_num(&args, "--measure", 150usize);
    let seed = arg_num(&args, "--seed", 2010u64);

    figure_header(
        "Figure 5",
        "response time of App5 under different set points (600–1300 ms)",
    );
    let setpoints = [600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0];
    let kind = if arg_present(&args, "--fast") {
        PlantKind::Analytic
    } else {
        PlantKind::Des
    };
    let points = fig5(
        &setpoints,
        concurrency,
        &IdentificationConfig::default(),
        warmup,
        measure,
        seed,
        kind,
    )
    .unwrap_or_else(|e| exit_with(&format!("fig5 failed: {e}")));

    rule(62);
    println!(
        "{:>14} {:>12} {:>10} {:>10} {:>8}",
        "setpoint (ms)", "mean (ms)", "std (ms)", "err (%)", "n"
    );
    rule(62);
    for p in &points {
        println!(
            "{:>14.0} {:>12.1} {:>10.1} {:>10.1} {:>8}",
            p.x,
            p.response.mean,
            p.response.std,
            100.0 * (p.response.mean - p.x) / p.x,
            p.response.n
        );
    }
    rule(62);
    let worst = points
        .iter()
        .map(|p| ((p.response.mean - p.x) / p.x).abs())
        .fold(0.0_f64, f64::max);
    println!(
        "worst relative tracking error across set points: {:.1} %",
        worst * 100.0
    );
}
