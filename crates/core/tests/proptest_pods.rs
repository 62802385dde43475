//! Property-based pod-partition laws: for *arbitrary* site layouts and
//! pod sizes, [`vdc_core::pod_partition`] must produce a true partition
//! (every server in exactly one pod), never straddle a site boundary, and
//! hit the documented pod-count formula for site-grouped fleets. On top
//! of the combinatorial laws, the degenerate configuration — a pod at
//! least as large as the fleet — must make the hierarchical optimizer
//! bitwise indistinguishable from flat planning. Failures replay with
//! `VDC_CHECK_SEED`.

use vdc_check::{check, from_fn, prop_assert, prop_assert_eq, Gen, TestRng};
use vdc_core::largescale::{run_large_scale, LargeScaleConfig, OptimizerKind};
use vdc_core::{pod_partition, RunOptions};
use vdc_trace::{generate_trace, TraceConfig};

const CASES: u32 = 48;

/// A site-grouped fleet layout: `site_lens[s]` servers at site `s`, laid
/// out contiguously — the only layout `FleetSpec` produces.
#[derive(Debug, Clone)]
struct Layout {
    site_lens: Vec<usize>,
    pod_size: usize,
}

fn layout() -> impl Gen<Value = Layout> {
    from_fn(|rng: &mut TestRng| {
        let n_sites = rng.usize_in(1, 4);
        let site_lens = (0..n_sites).map(|_| rng.usize_in(0, 20)).collect();
        Layout {
            site_lens,
            pod_size: rng.usize_in(1, 12),
        }
    })
}

fn sites_of(layout: &Layout) -> Vec<usize> {
    let mut sites = Vec::new();
    for (s, &len) in layout.site_lens.iter().enumerate() {
        sites.extend(std::iter::repeat_n(s, len));
    }
    sites
}

#[test]
fn pods_partition_the_fleet_exactly() {
    check(CASES, &layout(), |l| {
        let sites = sites_of(l);
        let pods = pod_partition(&sites, l.pod_size);
        // Every server in exactly one pod: the ranges chain seamlessly
        // from 0 to n with no gap, overlap, or empty pod.
        let mut next = 0usize;
        for pod in &pods {
            prop_assert_eq!(pod.start, next, "pods must chain without gaps");
            prop_assert!(pod.end > pod.start, "pods must be non-empty");
            prop_assert!(
                pod.end - pod.start <= l.pod_size,
                "pod exceeds pod_size {}",
                l.pod_size
            );
            next = pod.end;
        }
        prop_assert_eq!(next, sites.len(), "pods must cover the whole fleet");
        Ok(())
    });
}

#[test]
fn pods_never_straddle_sites() {
    check(CASES, &layout(), |l| {
        let sites = sites_of(l);
        for pod in pod_partition(&sites, l.pod_size) {
            let site = sites[pod.start];
            prop_assert!(
                sites[pod.clone()].iter().all(|&s| s == site),
                "pod {:?} straddles a site boundary",
                pod
            );
        }
        Ok(())
    });
}

#[test]
fn pod_count_is_ceil_per_site() {
    check(CASES, &layout(), |l| {
        let sites = sites_of(l);
        let pods = pod_partition(&sites, l.pod_size);
        let expected: usize = l
            .site_lens
            .iter()
            .map(|&len| len.div_ceil(l.pod_size))
            .sum();
        prop_assert_eq!(
            pods.len(),
            expected,
            "site-grouped fleet: pod count must be sum of per-site ceils \
             (site_lens {:?}, pod_size {})",
            &l.site_lens,
            l.pod_size
        );
        Ok(())
    });
}

/// Shrinkable run configuration for the degeneracy property; mirrors
/// `proptest_sharding.rs` so a failing case prints as a few numbers.
#[derive(Debug, Clone)]
struct Instance {
    trace_cfg: TraceConfig,
    cfg: LargeScaleConfig,
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
            if rng.usize_in(0, 1) == 0 {
                OptimizerKind::Ipac
            } else {
                OptimizerKind::Pmapper
            },
        );
        if rng.usize_in(0, 1) == 0 {
            cfg.n_servers = Some(rng.usize_in(2, 10));
        }
        cfg.optimizer_period_samples = rng.usize_in(1, 8);
        cfg.seed = rng.u64_in(0, u64::MAX - 1);
        Instance { trace_cfg, cfg }
    })
}

#[test]
fn whole_fleet_pod_degenerates_to_flat() {
    check(CASES, &instance(), |inst| {
        let trace = generate_trace(&inst.trace_cfg);
        let flat = run_large_scale(&trace, &inst.cfg, &RunOptions::default()).expect("flat run");
        // A pod at least as large as any fleet this instance can build:
        // one pod spans everything, so routing, packing, spill, rebalance,
        // and drain must all collapse to the flat code path's answer.
        let hier = run_large_scale(
            &trace,
            &inst.cfg,
            &RunOptions::default().with_pods(usize::MAX),
        )
        .expect("hierarchical run");
        let ctx = format!(
            "n_vms={} servers={:?} seed={:#x}",
            inst.cfg.n_vms, inst.cfg.n_servers, inst.trace_cfg.seed
        );
        prop_assert_eq!(
            flat.total_energy_wh.to_bits(),
            hier.total_energy_wh.to_bits(),
            "{ctx}: total energy"
        );
        prop_assert_eq!(
            flat.sla_violation_fraction.to_bits(),
            hier.sla_violation_fraction.to_bits(),
            "{ctx}: SLA fraction"
        );
        prop_assert_eq!(
            flat.mean_active_servers.to_bits(),
            hier.mean_active_servers.to_bits(),
            "{ctx}: mean active servers"
        );
        prop_assert_eq!(flat.migrations, hier.migrations, "{ctx}: migrations");
        prop_assert_eq!(
            flat.wake_energy_wh.to_bits(),
            hier.wake_energy_wh.to_bits(),
            "{ctx}: wake energy"
        );
        prop_assert_eq!(
            &flat.final_placements,
            &hier.final_placements,
            "{ctx}: final placements"
        );
        Ok(())
    });
}
