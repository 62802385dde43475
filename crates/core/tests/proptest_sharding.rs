//! Property-based shard equivalence: for *arbitrary* small configurations
//! (VM count, fleet size, trace seed, optimizer kind, pod size) and an
//! *arbitrary* shard count, `run_large_scale` must be bit-identical to the
//! single-threaded run. A drawn pod size splits the fleet into pods whose
//! plans fan out over the shards; the flat cases fan nothing out. The
//! example-based suite (`tests/sharding.rs`) pins specific shard counts;
//! this one walks the configuration space so a shard-dependence that only
//! shows up at, say, 7 VMs on 3 servers in pods of 2 still gets caught.
//! Failures replay with `VDC_CHECK_SEED`.

use vdc_check::{check, from_fn, prop_assert_eq, Gen, TestRng};
use vdc_core::largescale::{run_large_scale, LargeScaleConfig, OptimizerKind};
use vdc_core::RunOptions;
use vdc_trace::{generate_trace, TraceConfig};

const CASES: u32 = 24;

/// Shrinkable instance: the trace is regenerated from its config inside
/// the property, so a failing case prints as a few numbers, not a week of
/// samples.
#[derive(Debug, Clone)]
struct Instance {
    trace_cfg: TraceConfig,
    cfg: LargeScaleConfig,
    /// Pod size of the hierarchical planner; `None` plans flat.
    pods: Option<usize>,
    shards: usize,
}

fn instance() -> impl Gen<Value = Instance> {
    from_fn(|rng: &mut TestRng| {
        let n_vms = rng.usize_in(1, 16);
        let trace_cfg = TraceConfig {
            n_vms,
            n_samples: rng.usize_in(4, 24),
            interval_s: 900.0,
            seed: rng.u64_in(0, u64::MAX - 1),
        };
        let mut cfg = LargeScaleConfig::new(
            n_vms,
            if rng.bool() {
                OptimizerKind::Ipac
            } else {
                OptimizerKind::Pmapper
            },
        );
        // Half the cases pin a tight fleet (overload-relief pressure),
        // half auto-size.
        if rng.bool() {
            cfg.n_servers = Some(rng.usize_in(2, 10));
        }
        cfg.optimizer_period_samples = rng.usize_in(1, 8);
        cfg.seed = rng.u64_in(0, u64::MAX - 1);
        Instance {
            trace_cfg,
            cfg,
            pods: match rng.usize_in(0, 5) {
                0 => None,
                p => Some(p),
            },
            shards: rng.usize_in(2, 32),
        }
    })
}

#[test]
fn sharded_run_large_scale_equals_unsharded() {
    check(CASES, &instance(), |inst| {
        let trace = generate_trace(&inst.trace_cfg);
        let opts = |shards| {
            let opts = RunOptions::default().with_shards(shards);
            inst.pods.map_or(opts, |p| opts.with_pods(p))
        };
        let single = run_large_scale(&trace, &inst.cfg, &opts(1)).expect("single-threaded run");
        let sharded = run_large_scale(&trace, &inst.cfg, &opts(inst.shards)).expect("sharded run");
        let ctx = format!(
            "n_vms={} servers={:?} pods={:?} shards={}",
            inst.cfg.n_vms, inst.cfg.n_servers, inst.pods, inst.shards
        );
        prop_assert_eq!(
            single.total_energy_wh.to_bits(),
            sharded.total_energy_wh.to_bits(),
            "{ctx}: total energy"
        );
        prop_assert_eq!(
            single.energy_per_vm_wh.to_bits(),
            sharded.energy_per_vm_wh.to_bits(),
            "{ctx}: energy per VM"
        );
        prop_assert_eq!(
            single.sla_violation_fraction.to_bits(),
            sharded.sla_violation_fraction.to_bits(),
            "{ctx}: SLA fraction"
        );
        prop_assert_eq!(
            single.mean_active_servers.to_bits(),
            sharded.mean_active_servers.to_bits(),
            "{ctx}: mean active servers"
        );
        prop_assert_eq!(single.migrations, sharded.migrations, "{ctx}: migrations");
        prop_assert_eq!(
            single.relief_migrations,
            sharded.relief_migrations,
            "{ctx}: relief migrations"
        );
        prop_assert_eq!(
            single.peak_active_servers,
            sharded.peak_active_servers,
            "{ctx}: peak active"
        );
        prop_assert_eq!(
            single.wake_energy_wh.to_bits(),
            sharded.wake_energy_wh.to_bits(),
            "{ctx}: wake energy"
        );
        prop_assert_eq!(
            &single.final_placements,
            &sharded.final_placements,
            "{ctx}: final placements"
        );
        Ok(())
    });
}
