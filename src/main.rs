//! `vdcpower` — command-line driver for the two-level power/performance
//! management system.
//!
//! ```text
//! vdcpower identify   [--concurrency 40] [--seed 42]
//! vdcpower testbed    [--apps 8] [--concurrency 40] [--setpoint 1000] [--periods 200]
//! vdcpower largescale [--vms 500] [--optimizer ipac|pmapper|ipac-no-dvfs] [--samples 672]
//!                     [--fleet spec.json]  (heterogeneous host fleet from a
//!                                           `FleetSpec` JSON file)
//! vdcpower trace-gen  [--vms 100] [--samples 672] [--seed 1] --out trace.csv
//! vdcpower trace-info --in trace.csv
//! ```
//!
//! The figure-regeneration binaries live in `vdc-bench` (`cargo run -p
//! vdc-bench --bin fig2 …`); this driver is for ad-hoc exploration.
//!
//! Every command accepts `--quiet`/`-q` (warnings only) and
//! `--verbose`/`-v` (debug narration). Narration goes to stderr; stdout
//! carries only results.

use std::fs::File;
use std::io::{BufReader, Write};
use std::process::ExitCode;

use vdcpower::apptier::{AppSim, WorkloadProfile};
use vdcpower::control::analysis::{achievable_range, analyze_closed_loop};
use vdcpower::control::{MpcConfig, ReferenceTrajectory};
use vdcpower::core::controller::{identify_plant, IdentificationConfig};
use vdcpower::core::experiments::MeanStd;
use vdcpower::core::largescale::{run_large_scale, LargeScaleConfig, OptimizerKind};
use vdcpower::core::testbed::{Testbed, TestbedConfig};
use vdcpower::core::RunOptions;
use vdcpower::dcsim::FleetSpec;
use vdcpower::telemetry::export::write_metrics;
use vdcpower::telemetry::{arg_count, arg_num, arg_value, Reporter, Telemetry};
use vdcpower::trace::{generate_trace, trace_stats, TraceConfig, UtilizationTrace};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vdcpower <command> [flags]\n\
         commands:\n\
         \x20 identify    identify a response-time model and analyze the loop\n\
         \x20 testbed     run the 4-server / N-application testbed scenario\n\
         \x20 largescale  replay a synthetic trace under a power optimizer\n\
         \x20             (--fleet spec.json loads a heterogeneous host fleet)\n\
         \x20 trace-gen   generate a synthetic utilization trace as CSV\n\
         \x20 trace-info  summarize a trace CSV\n\
         global flags: --quiet/-q (warnings only), --verbose/-v (debug narration)\n\
         run `cargo run -p vdc-bench --bin fig2 --release` etc. for the paper figures"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reporter = Reporter::from_args(&args);
    match args.first().map(String::as_str) {
        Some("identify") => cmd_identify(&args, &reporter),
        Some("testbed") => cmd_testbed(&args, &reporter),
        Some("largescale") => cmd_largescale(&args, &reporter),
        Some("trace-gen") => cmd_trace_gen(&args, &reporter),
        Some("trace-info") => cmd_trace_info(&args),
        _ => usage(),
    }
}

fn cmd_identify(args: &[String], reporter: &Reporter) -> ExitCode {
    let concurrency = arg_num(args, "--concurrency", 40usize);
    let seed = arg_num(args, "--seed", 42u64);
    reporter.info(&format!(
        "identifying at concurrency {concurrency} (seed {seed})..."
    ));
    let mut plant = match AppSim::new(WorkloadProfile::rubbos(), concurrency, &[1.0, 1.0], seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("plant construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match identify_plant(&mut plant, &IdentificationConfig::default(), seed) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("identification failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("model (eq. (1) form, ms / GHz):");
    println!("  a  = {:?}", model.a());
    println!("  b  = {:?}", model.b());
    println!("  bias = {:.1}", model.bias());
    for ch in 0..model.n_inputs() {
        if let Some(g) = model.dc_gain(ch) {
            println!("  dc gain tier {}: {:.1} ms/GHz", ch + 1, g);
        }
    }
    let cfg = MpcConfig {
        prediction_horizon: 10,
        control_horizon: 3,
        q_weight: 1.0,
        r_weight: vec![4.0e4; model.n_inputs()],
        reference: ReferenceTrajectory::new(4.0, 12.0).expect("static config"),
        setpoint: 1000.0,
        c_min: vec![0.3; model.n_inputs()],
        c_max: vec![3.0; model.n_inputs()],
        delta_max: Some(0.3),
    };
    match analyze_closed_loop(&model, &cfg) {
        Ok(a) => {
            println!(
                "closed loop: decay radius {:.3}, {} marginal mode(s), settles in ~{} periods",
                a.decay_radius(),
                a.marginal_modes(),
                a.settling_periods()
                    .map(|s| format!("{s:.0}"))
                    .unwrap_or_else(|| "<state-dim".into())
            );
        }
        Err(e) => println!("closed-loop analysis unavailable: {e}"),
    }
    if let Some((lo, hi)) = achievable_range(&model, &cfg.c_min, &cfg.c_max) {
        // The linear model extrapolates below zero at generous allocations;
        // clamp the display (the physical floor is the zero-load service
        // time), and flag that only the upper end is trustworthy.
        println!(
            "achievable steady-state range over the allocation box: {:.0}–{:.0} ms\n\
             (the §IV-A feasibility check: pick set points inside this band;\n\
             the lower end is a linear extrapolation — trust the upper end)",
            lo.max(0.0),
            hi
        );
    }
    ExitCode::SUCCESS
}

fn cmd_testbed(args: &[String], reporter: &Reporter) -> ExitCode {
    let cfg = TestbedConfig {
        n_apps: arg_count(args, "--apps", 8),
        concurrency: arg_num(args, "--concurrency", 40usize),
        setpoint_ms: arg_num(args, "--setpoint", 1000.0f64),
        seed: arg_num(args, "--seed", 2010u64),
        ..Default::default()
    };
    let periods = arg_count(args, "--periods", 200);
    reporter.info(&format!(
        "testbed: {} apps @ concurrency {}, set point {} ms, {periods} periods",
        cfg.n_apps, cfg.concurrency, cfg.setpoint_ms
    ));
    let mut tb = match Testbed::build(&cfg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let samples = match tb.run(periods) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tail = &samples[periods / 3..];
    for app in 0..cfg.n_apps {
        let vals: Vec<f64> = tail.iter().filter_map(|s| s.response_ms[app]).collect();
        let m = MeanStd::from_samples(&vals);
        println!(
            "  App{:<2} p90 = {:7.1} ± {:5.1} ms ({} samples)",
            app + 1,
            m.mean,
            m.std,
            m.n
        );
    }
    let power = tail.iter().map(|s| s.power_w).sum::<f64>() / tail.len() as f64;
    let energy_wh = samples.iter().map(|s| s.power_w).sum::<f64>() * cfg.period_s / 3600.0;
    println!("  mean cluster power {power:.1} W | energy so far {energy_wh:.1} Wh");
    ExitCode::SUCCESS
}

fn cmd_largescale(args: &[String], reporter: &Reporter) -> ExitCode {
    let n_vms = arg_count(args, "--vms", 500);
    let samples = arg_count(args, "--samples", 672);
    let seed = arg_num(args, "--seed", 5415u64);
    let optimizer = match arg_value(args, "--optimizer").as_deref() {
        None | Some("ipac") => OptimizerKind::Ipac,
        Some("pmapper") => OptimizerKind::Pmapper,
        Some("ipac-no-dvfs") => OptimizerKind::IpacNoDvfs,
        Some(other) => {
            eprintln!("unknown optimizer {other:?} (ipac | pmapper | ipac-no-dvfs)");
            return ExitCode::FAILURE;
        }
    };
    // Optional fleet-spec file (see `FleetSpec::to_json` for the format):
    // host mixes load from disk instead of recompiling the sweep.
    let fleet = match arg_value(args, "--fleet") {
        None => None,
        Some(path) => match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| FleetSpec::from_json_str(&text).map_err(|e| e.to_string()))
        {
            Ok(spec) => Some(spec),
            Err(e) => {
                eprintln!("could not load fleet spec {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    reporter.info(&format!(
        "largescale: {n_vms} VMs, {samples} samples @ 15 min, optimizer {optimizer:?}"
    ));
    let trace = generate_trace(&TraceConfig {
        n_vms,
        n_samples: samples,
        interval_s: 900.0,
        seed,
    });
    let telemetry = Telemetry::enabled();
    let mut cfg = LargeScaleConfig::new(n_vms, optimizer);
    cfg.fleet = fleet;
    match run_large_scale(
        &trace,
        &cfg,
        &RunOptions::default().with_telemetry(&telemetry),
    ) {
        Ok(r) => {
            println!("  energy per VM     {:.1} Wh", r.energy_per_vm_wh);
            println!("  total energy      {:.1} Wh", r.total_energy_wh);
            println!(
                "  migrations        {} ({} from overload relief)",
                r.migrations, r.relief_migrations
            );
            println!(
                "  active servers    mean {:.1}, peak {}",
                r.mean_active_servers, r.peak_active_servers
            );
            println!(
                "  SLA violations    {:.4} % of demanded cycles",
                100.0 * r.sla_violation_fraction
            );
            println!("  wake energy       {:.1} Wh", r.wake_energy_wh);
            match write_metrics(&telemetry, "largescale", "results") {
                Ok(path) => println!("  metrics -> {path}"),
                Err(e) => reporter.warn(&format!("could not write metrics: {e}")),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_trace_gen(args: &[String], reporter: &Reporter) -> ExitCode {
    let n_vms = arg_count(args, "--vms", 100);
    let samples = arg_count(args, "--samples", 672);
    let seed = arg_num(args, "--seed", 1u64);
    let Some(out) = arg_value(args, "--out") else {
        eprintln!("trace-gen requires --out <file.csv>");
        return ExitCode::FAILURE;
    };
    reporter.debug(&format!(
        "generating {n_vms} VMs x {samples} samples (seed {seed})"
    ));
    let trace = generate_trace(&TraceConfig {
        n_vms,
        n_samples: samples,
        interval_s: 900.0,
        seed,
    });
    let file = match File::create(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = trace.write_csv(file) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out}: {} VMs x {} samples, mean utilization {:.1} %",
        trace.n_vms(),
        trace.n_samples(),
        100.0 * trace.mean_utilization()
    );
    ExitCode::SUCCESS
}

fn cmd_trace_info(args: &[String]) -> ExitCode {
    let Some(input) = arg_value(args, "--in") else {
        eprintln!("trace-info requires --in <file.csv>");
        return ExitCode::FAILURE;
    };
    let file = match File::open(&input) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match UtilizationTrace::read_csv(BufReader::new(file)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("parse failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{input}: {} VMs x {} samples @ {:.0} s ({:.1} days)",
        trace.n_vms(),
        trace.n_samples(),
        trace.interval_s(),
        trace.duration_s() / 86400.0
    );
    let stats = trace_stats(&trace, trace.n_vms());
    println!(
        "mean utilization      {:.1} %",
        100.0 * stats.mean_utilization
    );
    println!(
        "mean per-VM peak      {:.1} %",
        100.0 * stats.mean_peak_utilization
    );
    println!(
        "lag-1 autocorrelation {:.2}",
        stats.mean_lag1_autocorrelation
    );
    println!("aggregate peak/mean   {:.2}", stats.aggregate_peak_to_mean);
    println!("sector mix:");
    for (sector, count) in &stats.sector_counts {
        println!("  {:<15} {count}", sector.name());
    }
    let (peak_t, peak) = stats
        .aggregate_demand_ghz
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty trace");
    println!(
        "peak aggregate demand {:.1} GHz at sample {} (hour {:.1})",
        peak,
        peak_t,
        peak_t as f64 * trace.interval_s() / 3600.0
    );
    let mut stdout = std::io::stdout();
    let _ = stdout.flush();
    ExitCode::SUCCESS
}
