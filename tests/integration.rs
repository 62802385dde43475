//! Cross-crate integration tests: the full two-level pipeline of Fig. 1,
//! exercised through the public facade crate.

use vdcpower::consolidate::item::PackItem;
use vdcpower::core::controller::IdentificationConfig;
use vdcpower::core::experiments::{fig2, fig6, Fig6Config, MeanStd};
use vdcpower::core::largescale::{run_large_scale, LargeScaleConfig, OptimizerKind};
use vdcpower::core::optimizer::{OptimizerConfig, PowerOptimizer};
use vdcpower::core::testbed::{Testbed, TestbedConfig};
use vdcpower::core::RunOptions;
use vdcpower::dcsim::VmId;
use vdcpower::trace::{generate_trace, TraceConfig};

fn quick_testbed_cfg(n_apps: usize) -> TestbedConfig {
    TestbedConfig {
        n_apps,
        concurrency: 25,
        ident: IdentificationConfig {
            periods: 120,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn fig2_pipeline_tracks_setpoint_for_every_app() {
    let cfg = quick_testbed_cfg(3);
    let result = fig2(&cfg, 40, 60).expect("fig2 runs");
    assert_eq!(result.per_app.len(), 3);
    for (i, m) in result.per_app.iter().enumerate() {
        assert!(m.n > 30, "app {i} produced too few measurements");
        assert!(
            (m.mean - 1000.0).abs() < 200.0,
            "app {i}: mean {:.1} should be near the 1000 ms set point",
            m.mean
        );
        assert!(m.std < 400.0, "app {i}: std {:.1} implausibly large", m.std);
    }
}

#[test]
fn controllers_and_optimizer_integrate_on_the_testbed() {
    // Run the controllers, then invoke the data-center optimizer (IPAC) on
    // top — the integrated architecture of Fig. 1. Power must drop (or at
    // worst stay) and response times must still track afterwards.
    let cfg = quick_testbed_cfg(2);
    let mut tb = Testbed::build(&cfg).expect("testbed builds");
    tb.run(50).expect("warm-up");
    let before = tb.run(10).expect("pre-optimizer sample");
    let before_power = before.iter().map(|s| s.power_w).sum::<f64>() / before.len() as f64;

    let stats = tb.run_optimizer().expect("optimizer runs");
    // 4 VMs spread over servers 0–2 with ~0.6 GHz each: consolidation must
    // find something to do.
    assert!(
        stats.migrations + stats.slept > 0,
        "optimizer should consolidate the spread testbed: {stats:?}"
    );

    let after = tb.run(60).expect("post-optimizer run");
    let after_power =
        after[20..].iter().map(|s| s.power_w).sum::<f64>() / (after.len() - 20) as f64;
    assert!(
        after_power < before_power,
        "consolidation should cut power: {after_power:.1} vs {before_power:.1}"
    );
    // SLAs still hold after migration.
    for app in 0..2 {
        let tail: Vec<f64> = after[30..]
            .iter()
            .filter_map(|s| s.response_ms[app])
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        assert!(
            (mean - 1000.0).abs() < 250.0,
            "app {app} lost its SLA after consolidation: {mean:.0} ms"
        );
    }
}

#[test]
fn large_scale_shapes_match_the_paper() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 80,
        n_samples: 96,
        interval_s: 900.0,
        seed: 1234,
    });
    let points =
        fig6(&trace, &Fig6Config::new([40, 80]), &RunOptions::default()).expect("fig6 runs");
    assert_eq!(points.len(), 2);
    for p in &points {
        // The headline claim: IPAC consumes less energy per VM.
        assert!(
            p.ipac.energy_per_vm_wh < p.pmapper.energy_per_vm_wh,
            "IPAC must beat pMapper at n = {}",
            p.n_vms
        );
        // Both schemes keep all VMs placed on a bounded fleet.
        assert!(p.ipac.peak_active_servers <= 80);
    }
}

#[test]
fn migration_counters_and_energy_are_consistent() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 30,
        n_samples: 48,
        interval_s: 900.0,
        seed: 77,
    });
    let r = run_large_scale(
        &trace,
        &LargeScaleConfig::new(30, OptimizerKind::Ipac),
        &RunOptions::default(),
    )
    .expect("run");
    assert_eq!(r.n_vms, 30);
    assert!((r.energy_per_vm_wh * 30.0 - r.total_energy_wh).abs() < 1e-6);
    assert!(r.mean_active_servers <= r.peak_active_servers as f64);
    // 48 samples / 16-per-invocation = 2 periodic + 1 initial invocation.
    assert_eq!(r.optimizer_invocations, 3);
}

#[test]
fn optimizer_places_new_vms_against_live_datacenter() {
    use vdcpower::dcsim::{DataCenter, Server, ServerSpec, VmSpec};
    let mut dc = DataCenter::new();
    let quad = dc.add_server(Server::asleep(ServerSpec::type_quad_3ghz()));
    dc.add_server(Server::asleep(ServerSpec::type_dual_1_5ghz()));
    let mut items = Vec::new();
    for i in 0..4u64 {
        dc.add_vm(VmSpec::new(i, 0.8, 1024.0)).unwrap();
        items.push(PackItem::new(VmId(i), 0.8, 1024.0));
    }
    let mut opt = PowerOptimizer::new(OptimizerConfig::ipac_default());
    let stats = opt.optimize(&mut dc, &items).unwrap();
    assert_eq!(stats.placements, 4);
    // All four fit on the efficient quad; the small server stays asleep.
    assert_eq!(dc.active_servers(), vec![quad]);
}

#[test]
fn mean_std_helper_is_exported_and_sane() {
    let m = MeanStd::from_samples(&[1.0, 2.0, 3.0]);
    assert!((m.mean - 2.0).abs() < 1e-12);
    assert_eq!(m.n, 3);
}
