//! Figure 4: response time of App5 under concurrency levels 30–80, with
//! the controller identified at concurrency 40 (robustness to workload
//! different from the identification conditions).
//!
//! ```text
//! cargo run -p vdc-bench --bin fig4 --release [--setpoint 1000]
//!     [--warmup 40] [--measure 150] [--seed 2010]
//! ```

use vdc_bench::{figure_header, rule};
use vdc_core::controller::IdentificationConfig;
use vdc_core::experiments::{fig4, PlantKind};
use vdc_telemetry::{arg_num, arg_present, exit_with};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let setpoint = arg_num(&args, "--setpoint", 1000.0f64);
    let warmup = arg_num(&args, "--warmup", 40usize);
    let measure = arg_num(&args, "--measure", 150usize);
    let seed = arg_num(&args, "--seed", 2010u64);

    figure_header(
        "Figure 4",
        "response time of App5 under different workloads (controller identified at 40)",
    );
    let concurrencies = [30, 40, 50, 60, 70, 80];
    let kind = if arg_present(&args, "--fast") {
        PlantKind::Analytic
    } else {
        PlantKind::Des
    };
    let points = fig4(
        &concurrencies,
        setpoint,
        &IdentificationConfig::default(),
        warmup,
        measure,
        seed,
        kind,
    )
    .unwrap_or_else(|e| exit_with(&format!("fig4 failed: {e}")));

    rule(52);
    println!(
        "{:>12} {:>12} {:>10} {:>8}",
        "concurrency", "mean (ms)", "std (ms)", "n"
    );
    rule(52);
    for p in &points {
        println!(
            "{:>12.0} {:>12.1} {:>10.1} {:>8}",
            p.x, p.response.mean, p.response.std, p.response.n
        );
    }
    rule(52);
    let worst = points
        .iter()
        .map(|p| (p.response.mean - setpoint).abs())
        .fold(0.0_f64, f64::max);
    println!("set point {setpoint:.0} ms; worst mean deviation across levels: {worst:.1} ms");
}
