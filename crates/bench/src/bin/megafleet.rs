//! Megafleet: the streaming + hierarchical scale tier.
//!
//! Drives [`vdc_core::run_large_scale_streaming`] with a constant-memory
//! [`StreamingTrace`] and the hierarchical pod optimizer
//! (`RunOptions::with_pods`) at fleet sizes where a materialized week —
//! `n_vms × n_samples` f64s — would dominate memory. The point of the bin
//! is to *enforce* the streaming claim, not narrate it: peak RSS is read
//! back from the kernel (`VmHWM` in `/proc/self/status`) and the process
//! exits non-zero when `--max-rss-mib` is exceeded, so CI fails loudly if
//! anything re-materializes the trace. It also exits non-zero when any VM
//! is left unplaced (`megafleet.unplaced_vms`): Wh/VM and the SLA share
//! only describe the VMs that found a server.
//!
//! ```text
//! cargo run -p vdc-bench --bin megafleet --release [--servers 8000]
//!     [--vms 20000] [--samples 48] [--pod-size 256] [--seed N]
//!     [--shards N] [--max-rss-mib M] [--fleet spec.json] [--out DIR]
//!     [--quiet|-q]
//! ```
//!
//! `--max-rss-mib 0` (the default) measures without a budget. The CI smoke
//! tier is the default size, `--servers 8000 --vms 20000 --samples 48`,
//! under a fixed budget (see ci.sh). With the paper's VM mix a fleet needs
//! roughly one server per three VMs: at seed 5415, 5500 servers leave 9 of
//! 20000 VMs unplaced and 5750 place them all.
//!
//! Output: `results/BENCH_megafleet.json` with one record carrying the
//! wall-clock timing fields plus `peak_rss_kib` / `rss_budget_kib` (both
//! masked as wall-clock-like by `results_gate` — host-dependent values,
//! gated on shape only), and `results/METRICS_megafleet.json` / `.tsv`
//! with the run's telemetry (`megafleet.*`, `optimizer.pod_*`).

use std::time::Instant;
use vdc_bench::{figure_header, rule};
use vdc_core::largescale::{LargeScaleConfig, OptimizerKind};
use vdc_core::{run_large_scale_streaming, RunOptions};
use vdc_dcsim::json::{array, JsonObject};
use vdc_dcsim::FleetSpec;
use vdc_telemetry::export::write_metrics;
use vdc_telemetry::{arg_count, arg_num, arg_value, exit_with, Reporter, Telemetry};
use vdc_trace::{StreamingTrace, TraceConfig};

/// Peak resident-set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable — the budget
/// check is skipped rather than failed in that case.
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reporter = Reporter::from_args(&args);
    let servers = arg_count(&args, "--servers", 8000);
    let n_vms = arg_count(&args, "--vms", 20_000);
    let n_samples = arg_count(&args, "--samples", 48);
    let pod_size = arg_num(&args, "--pod-size", 256usize);
    let seed = arg_num(&args, "--seed", 5415u64);
    let shards = arg_num(&args, "--shards", 0usize); // 0 = host parallelism
    let max_rss_mib = arg_num(&args, "--max-rss-mib", 0u64); // 0 = no budget
    let out_dir = arg_value(&args, "--out").unwrap_or_else(|| "results".to_string());
    // Optional fleet-spec file (`FleetSpec::to_json` format). A loaded
    // fleet defines its own host mix and server counts, so it takes
    // precedence over `--servers`.
    let fleet = arg_value(&args, "--fleet").map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| exit_with(&format!("could not read fleet spec {path}: {e}")));
        FleetSpec::from_json_str(&text)
            .unwrap_or_else(|e| exit_with(&format!("could not parse fleet spec {path}: {e}")))
    });

    figure_header(
        "Megafleet",
        "streaming trace + hierarchical pod optimizer at fleet scale",
    );
    reporter.info(&format!(
        "{servers} servers, {n_vms} VMs, {n_samples} samples, pods of {pod_size} (seed {seed})"
    ));

    let trace_cfg = TraceConfig {
        n_vms,
        n_samples,
        interval_s: 900.0,
        seed,
    };
    let mut stream = StreamingTrace::new(&trace_cfg);
    let telemetry = Telemetry::enabled();
    let cfg = LargeScaleConfig {
        n_servers: Some(servers),
        fleet,
        ..LargeScaleConfig::new(n_vms, OptimizerKind::Ipac)
    };
    let mut opts = RunOptions::default()
        .with_telemetry(&telemetry)
        .with_shards(shards);
    if pod_size > 0 {
        opts = opts.with_pods(pod_size);
    }

    let start = Instant::now();
    let result = run_large_scale_streaming(&mut stream, &cfg, &opts)
        .unwrap_or_else(|e| exit_with(&format!("run failed: {e}")));
    let wall_ns = start.elapsed().as_nanos() as f64;
    let rss_kib = peak_rss_kib();
    let budget_kib = max_rss_mib * 1024;
    telemetry.record("megafleet.wall_ns", wall_ns);
    telemetry.record("megafleet.peak_rss_kib", rss_kib as f64);
    // Wh/VM and the SLA figures describe the placed VMs only, so a run
    // that leaves any unplaced fails below.
    let unplaced = n_vms - result.final_placements.len();
    telemetry.incr("megafleet.vms", n_vms as u64);
    telemetry.incr("megafleet.servers", servers as u64);
    telemetry.incr("megafleet.unplaced_vms", unplaced as u64);

    rule(78);
    println!(
        "wall {:.2} s | peak RSS {:.1} MiB | {:.1} Wh/VM | {} migrations | SLA unmet {:.4} % | {} unplaced",
        wall_ns / 1e9,
        rss_kib as f64 / 1024.0,
        result.energy_per_vm_wh,
        result.migrations,
        100.0 * result.sla_violation_fraction,
        unplaced
    );
    rule(78);

    // One BenchRecord-shaped entry (single sample: the whole run), plus the
    // RSS fields results_gate masks alongside the timing keys.
    let id = format!("s{servers}_v{n_vms}_t{n_samples}_p{pod_size}");
    let record = JsonObject::new()
        .str("group", "megafleet")
        .str("id", &id)
        .int("iters_per_sample", 1)
        .num("min_ns", wall_ns)
        .num("median_ns", wall_ns)
        .num("mean_ns", wall_ns)
        .num("max_ns", wall_ns)
        .nums("sample_ns", &[wall_ns])
        .num("peak_rss_kib", rss_kib as f64)
        .num("rss_budget_kib", budget_kib as f64)
        .build();
    let doc = JsonObject::new()
        .str("bench", "megafleet")
        .int("samples", 1)
        .raw("results", &array(&[record]))
        .build();
    let bench_path = format!("{out_dir}/BENCH_megafleet.json");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&bench_path, doc + "\n")) {
        Ok(()) => println!("bench -> {bench_path}"),
        Err(e) => reporter.warn(&format!("could not write {bench_path}: {e}")),
    }
    match write_metrics(&telemetry, "megafleet", &out_dir) {
        Ok(path) => println!("metrics -> {path}"),
        Err(e) => reporter.warn(&format!("could not write metrics: {e}")),
    }

    if budget_kib > 0 && rss_kib > budget_kib {
        exit_with(&format!(
            "megafleet: peak RSS {:.1} MiB exceeds budget {max_rss_mib} MiB",
            rss_kib as f64 / 1024.0
        ));
    }
    if unplaced > 0 {
        exit_with(&format!(
            "megafleet: {unplaced} of {n_vms} VMs unplaced; the fleet is too small"
        ));
    }
}
