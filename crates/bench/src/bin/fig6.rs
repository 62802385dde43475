//! Figure 6: energy consumption per VM over 7 days, IPAC vs pMapper,
//! across data centers of 30 … 5,415 VMs.
//!
//! Default: the figure's tick sizes (30, 1030, …, 5030, plus the full
//! 5,415). `--full` sweeps all 54 data-center sizes like the paper;
//! `--quick` shrinks the trace for a fast smoke run.
//!
//! ```text
//! cargo run -p vdc-bench --bin fig6 --release [--full | --quick] [--seed 5415]
//!     [--shards N] [--mixed-fleet]
//! ```
//!
//! `--shards N` spreads the swept data-center sizes over N worker threads
//! (default: host parallelism; output is bit-identical for every N).
//! `--mixed-fleet` swaps the homogeneous paper catalog for the two-site
//! SPECpower fleet (a lean low-PUE site plus a legacy high-PUE site) so the
//! sweep exercises heterogeneous efficiency ordering and per-site PUE.

use vdc_apptier::rng::SimRng;
use vdc_bench::{figure_header, rule};
use vdc_core::experiments::{fig6, Fig6Config};
use vdc_core::RunOptions;
use vdc_dcsim::FleetSpec;
use vdc_telemetry::{arg_num, arg_present, check_flags, exit_with, Flag};
use vdc_trace::{generate_trace, TraceConfig};

/// The flags this bin reads; any other ends it with exit status 1.
const FLAGS: &[Flag] = &[
    Flag::value("--seed"),
    Flag::switch("--quick"),
    Flag::switch("--full"),
    Flag::value("--shards"),
    Flag::switch("--mixed-fleet"),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_flags(&args, FLAGS);
    let seed = arg_num(&args, "--seed", 5415u64);
    let quick = arg_present(&args, "--quick");
    let full = arg_present(&args, "--full");
    let shards = arg_num(&args, "--shards", 0usize); // 0 = host parallelism
    let mixed = arg_present(&args, "--mixed-fleet");

    let trace_cfg = if quick {
        TraceConfig {
            n_vms: 600,
            n_samples: 96, // one day
            interval_s: 900.0,
            seed,
        }
    } else {
        TraceConfig::paper_scale(seed)
    };

    let sizes: Vec<usize> = if quick {
        vec![30, 150, 300, 600]
    } else if full {
        // 54 data centers from 30 to 5,415 VMs, like §VII-B.
        let mut v: Vec<usize> = (0..53).map(|i| 30 + i * 100).collect();
        v.push(5415);
        v
    } else {
        vec![30, 1030, 2030, 3030, 4030, 5030, 5415]
    };

    figure_header(
        "Figure 6",
        "energy per VM in 7 days vs number of VMs: IPAC vs pMapper",
    );
    println!(
        "trace: {} VMs x {} samples @ {:.0} s; sweeping {} data-center sizes",
        trace_cfg.n_vms,
        trace_cfg.n_samples,
        trace_cfg.interval_s,
        sizes.len()
    );
    let trace = generate_trace(&trace_cfg);
    let fleet_spec = if mixed {
        // Same server-to-VM ratio as the legacy sweep (3,000 per 5,415).
        let max_size = sizes.iter().copied().max().unwrap_or(1);
        let n_servers = ((max_size as f64 * 3000.0 / 5415.0).ceil() as usize).max(8);
        let spec = FleetSpec::specpower_mixed(n_servers);
        // Replay the fleet draw (run_large_scale seeds it with the config
        // seed, 0x5415) to report the drawn per-profile composition.
        let mut rng = SimRng::seed_from_u64(0x5415);
        let assignments = spec.assignments_with(&mut |n| rng.index(n));
        let mut per_profile = vec![0usize; spec.catalog.len()];
        for &(_, profile) in &assignments {
            per_profile[profile.index()] += 1;
        }
        println!(
            "mixed fleet: {n_servers} servers across {} sites",
            spec.sites.len()
        );
        for (site, s) in spec.sites.iter().enumerate() {
            println!(
                "  site {site} '{}': {} servers, PUE {:.2}",
                s.name,
                s.n_servers,
                s.pue.at(0)
            );
        }
        for (idx, count) in per_profile.iter().enumerate() {
            if *count > 0 {
                let p = spec
                    .catalog
                    .get(vdc_dcsim::ProfileId::from_index(idx))
                    .unwrap();
                println!(
                    "  {:>4} x {:<28} idle fraction {:>5.1}%  {:.3} GHz/W",
                    count,
                    p.name,
                    100.0 * p.idle_fraction(),
                    p.power_efficiency()
                );
            }
        }
        Some(spec)
    } else {
        None
    };
    let fig6_cfg = Fig6Config {
        fleet_spec,
        ..Fig6Config::new(sizes)
    };
    let opts = RunOptions::default().with_shards(shards);
    let points =
        fig6(&trace, &fig6_cfg, &opts).unwrap_or_else(|e| exit_with(&format!("fig6 failed: {e}")));

    rule(104);
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "#VMs",
        "IPAC (Wh/VM)",
        "pMap (Wh/VM)",
        "saving",
        "IPAC migr",
        "IPAC srv",
        "pMap srv",
        "IPAC SLA"
    );
    rule(104);
    let mut savings = Vec::new();
    for p in &points {
        savings.push(p.saving_fraction());
        println!(
            "{:>8} {:>14.1} {:>14.1} {:>9.1}% {:>12} {:>12.1} {:>12.1} {:>9.3}%",
            p.n_vms,
            p.ipac.energy_per_vm_wh,
            p.pmapper.energy_per_vm_wh,
            100.0 * p.saving_fraction(),
            p.ipac.migrations,
            p.ipac.mean_active_servers,
            p.pmapper.mean_active_servers,
            100.0 * p.ipac.sla_violation_fraction
        );
    }
    rule(104);
    let mean_saving = savings.iter().sum::<f64>() / savings.len() as f64;
    println!(
        "mean IPAC saving vs pMapper: {:.1} % (paper reports 40.7 % on its trace)",
        100.0 * mean_saving
    );
    println!(
        "note: 'saving' here is (1 - IPAC/pMapper) of energy-per-VM; compare the shape:\n\
         IPAC below pMapper everywhere, both rising with #VMs as less-efficient\n\
         servers come into use."
    );
}
