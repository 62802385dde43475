//! Data-center consolidation walkthrough: spread VMs across a small fleet,
//! run the IPAC power optimizer, and compare power before/after — then show
//! the cost-aware migration policy vetoing an expensive drain.
//!
//! ```text
//! cargo run --example consolidation --release
//! ```

use vdcpower::consolidate::constraint::AndConstraint;
use vdcpower::consolidate::ipac::ipac_plan;
use vdcpower::consolidate::policy::{AlwaysAllow, BandwidthBudget};
use vdcpower::consolidate::view::{apply_plan, snapshot};
use vdcpower::dcsim::{DataCenter, Server, ServerHandle, ServerSpec, VmSpec};

fn build_spread_datacenter() -> DataCenter {
    let mut dc = DataCenter::new();
    // A mixed fleet: 2 efficient quads, 4 mid dual-2GHz, 6 small dual-1.5.
    for _ in 0..2 {
        dc.add_server(Server::active(ServerSpec::type_quad_3ghz()));
    }
    for _ in 0..4 {
        dc.add_server(Server::active(ServerSpec::type_dual_2ghz()));
    }
    for _ in 0..6 {
        dc.add_server(Server::active(ServerSpec::type_dual_1_5ghz()));
    }
    // 24 VMs spread round-robin (the anti-pattern consolidation fixes).
    for i in 0..24u64 {
        let demand = 0.3 + 0.05 * (i % 7) as f64;
        let vm = dc.add_vm(VmSpec::new(i, demand, 768.0)).unwrap();
        dc.place_vm(vm, ServerHandle::from_index((i % 12) as usize))
            .unwrap();
    }
    dc
}

fn report(dc: &DataCenter, label: &str) {
    let active = dc.active_servers();
    println!(
        "{label:<22} active servers: {:>2}   total power: {:>7.1} W",
        active.len(),
        dc.total_power_watts()
    );
}

fn main() {
    println!("== IPAC consolidation ==");
    let mut dc = build_spread_datacenter();
    dc.apply_dvfs().unwrap();
    report(&dc, "before (spread)");

    let constraint = AndConstraint::cpu_and_memory();
    let plan = ipac_plan(&snapshot(&dc), &[], &constraint, &AlwaysAllow);
    println!(
        "IPAC plan: {} migrations moving {:.0} MiB, {} servers to sleep",
        plan.n_migrations(),
        plan.total_migration_mib(),
        plan.servers_to_sleep.len()
    );
    let stats = apply_plan(&mut dc, &plan).unwrap();
    dc.apply_dvfs().unwrap();
    report(&dc, "after IPAC");
    println!(
        "executed: {} migrations ({:.0} MiB copied), {} servers slept\n",
        stats.migrations, stats.migrated_mib, stats.slept
    );

    println!("== cost-aware migration policy ==");
    // Same starting point, but the administrator caps each drain batch at
    // 1 GiB of migration traffic (§V: "if the network bandwidth is a
    // bottleneck ... a migration with high bandwidth consumption is the
    // least preferred").
    let mut dc2 = build_spread_datacenter();
    dc2.apply_dvfs().unwrap();
    let strict = BandwidthBudget {
        max_batch_mib: 1024.0,
    };
    let plan2 = ipac_plan(&snapshot(&dc2), &[], &constraint, &strict);
    println!(
        "with a 1 GiB per-batch budget: {} migrations planned ({:.0} MiB)",
        plan2.n_migrations(),
        plan2.total_migration_mib()
    );
    let stats2 = apply_plan(&mut dc2, &plan2).unwrap();
    dc2.apply_dvfs().unwrap();
    report(&dc2, "after capped IPAC");
    println!(
        "the policy traded {} fewer migrations for less consolidation",
        plan.n_migrations().saturating_sub(stats2.migrations)
    );
}
