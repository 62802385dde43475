//! Tier-1 determinism gate: the full co-simulation must be bit-identical
//! across runs with the same seed.
//!
//! The hermetic PRNG (`vdc_apptier::rng::SimRng`) is the only randomness
//! source in the workspace, so two same-seed runs must agree on every f64
//! of the recorded power and response-time trajectories — not just within
//! a tolerance. Comparing `to_bits` makes any nondeterminism (HashMap
//! iteration, thread interleaving, platform math differences inside one
//! build) a hard failure.

use vdc_churn::{AdmissionPolicy, ChurnConfig, ChurnWorkload};
use vdc_core::churn::{run_churn, ChurnResult};
use vdc_core::cosim::{run_cosim, CosimConfig, CosimResult};
use vdc_core::experiments::{fig3_static_baseline, fig4, fig5, PlantKind, SweepPoint};
use vdc_core::largescale::{run_large_scale, LargeScaleConfig, LargeScaleResult, OptimizerKind};
use vdc_core::{
    run_large_scale_streaming, ControllerSpec, FaultConfig, FaultPlan, IdentificationConfig,
    RunOptions, Testbed, TestbedConfig,
};
use vdc_dcsim::PueSeries;
use vdc_telemetry::Telemetry;
use vdc_trace::{generate_trace, StreamingTrace, TraceConfig};

fn small_run(seed: u64) -> CosimResult {
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: seed ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed,
        ..Default::default()
    };
    run_cosim(&trace, &cfg, &RunOptions::default()).expect("co-simulation runs")
}

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let a = small_run(0xD5EED);
    let b = small_run(0xD5EED);
    assert_eq!(
        bits(&a.power_series_w),
        bits(&b.power_series_w),
        "power trajectory diverged between same-seed runs"
    );
    assert_eq!(
        bits(&a.response_series_ms),
        bits(&b.response_series_ms),
        "response-time trajectory diverged between same-seed runs"
    );
    assert_eq!(a.total_energy_wh.to_bits(), b.total_energy_wh.to_bits());
    assert_eq!(a.migrations, b.migrations);
}

/// The controller seam's default-path pin: selecting the paper MPC
/// *explicitly* through `RunOptions` must reproduce the implicit-default
/// run bit for bit. The seam may add controllers, but `ControllerSpec::Mpc` is
/// the pre-seam code path, not a near-copy of it.
#[test]
fn explicit_mpc_spec_is_bit_identical_to_the_default() {
    let default = small_run(0xD5EED);
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0xD5EED ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0xD5EED,
        ..Default::default()
    };
    let explicit = run_cosim(
        &trace,
        &cfg,
        &RunOptions::default().with_controller(ControllerSpec::Mpc),
    )
    .expect("explicit-spec run");
    assert_eq!(
        bits(&default.power_series_w),
        bits(&explicit.power_series_w),
        "explicit ControllerSpec::Mpc perturbed the power trajectory"
    );
    assert_eq!(
        bits(&default.response_series_ms),
        bits(&explicit.response_series_ms),
        "explicit ControllerSpec::Mpc perturbed the response trajectory"
    );
    assert_eq!(
        default.total_energy_wh.to_bits(),
        explicit.total_energy_wh.to_bits()
    );
    assert_eq!(default.migrations, explicit.migrations);
    assert_eq!(default.final_placements, explicit.final_placements);
}

#[test]
fn telemetry_does_not_perturb_the_simulation() {
    // The instrumented entry point must be an observer only: attaching an
    // enabled sink may read clocks and fill the registry, but every f64 of
    // the simulation output stays bit-identical to the plain run.
    let plain = small_run(0xD5EED);
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0xD5EED ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0xD5EED,
        ..Default::default()
    };
    let telemetry = Telemetry::enabled();
    let instrumented = run_cosim(
        &trace,
        &cfg,
        &RunOptions::default().with_telemetry(&telemetry),
    )
    .expect("instrumented run");
    assert_eq!(
        bits(&plain.power_series_w),
        bits(&instrumented.power_series_w),
        "telemetry perturbed the power trajectory"
    );
    assert_eq!(
        bits(&plain.response_series_ms),
        bits(&instrumented.response_series_ms),
        "telemetry perturbed the response-time trajectory"
    );
    assert_eq!(
        plain.total_energy_wh.to_bits(),
        instrumented.total_energy_wh.to_bits()
    );
    assert_eq!(plain.migrations, instrumented.migrations);
    // And the sink actually observed the run.
    let counters = telemetry.counter_values();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("cosim.samples"), 24);
    assert!(get("mpc.steps") > 0, "MPC steps not recorded");
    assert!(!telemetry.slo_snapshot().is_empty(), "no SLO accounting");
}

#[test]
fn empty_fault_plan_is_bit_identical_to_a_plain_run() {
    // Attaching a `FaultPlan` with no scheduled events must be a no-op all
    // the way down: the single `RunOptions::faults()` gate filters empty
    // plans, so none of the fault machinery (host events, fallible plan
    // application, safe mode, watchdog) may run, and every f64 of the
    // trajectories stays bit-identical to a run with no plan attached.
    let plain = small_run(0xD5EED);
    let trace = generate_trace(&TraceConfig {
        n_vms: 12,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0xD5EED ^ 0x7ACE,
    });
    let cfg = CosimConfig {
        n_apps: 6,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0xD5EED,
        ..Default::default()
    };
    let plan = FaultPlan::empty();
    let faulted =
        run_cosim(&trace, &cfg, &RunOptions::default().with_faults(&plan)).expect("empty-plan run");
    assert_eq!(
        bits(&plain.power_series_w),
        bits(&faulted.power_series_w),
        "empty fault plan perturbed the power trajectory"
    );
    assert_eq!(
        bits(&plain.response_series_ms),
        bits(&faulted.response_series_ms),
        "empty fault plan perturbed the response-time trajectory"
    );
    assert_eq!(
        plain.total_energy_wh.to_bits(),
        faulted.total_energy_wh.to_bits()
    );
    assert_eq!(plain.migrations, faulted.migrations);
    assert_eq!(plain.final_placements, faulted.final_placements);
}

/// The streaming trace generator must be a pure re-chunking of its
/// materialized twin ([`StreamingTrace::materialize`], the documented
/// bit-identity reference — `generate_trace`'s serial RNG is a different
/// stream by design): driving the replay sample-by-sample from
/// [`StreamingTrace`] yields every bit the materialized week does, with
/// and without the hierarchical pod optimizer. This is the determinism
/// half of the megafleet claim — constant memory may not cost a single
/// ULP.
#[test]
fn streaming_replay_is_bit_identical_to_materialized() {
    let trace_cfg = TraceConfig {
        n_vms: 30,
        n_samples: 24,
        interval_s: 900.0,
        seed: 0x5EED5,
    };
    // Streaming refuses to auto-size (that would scan the whole trace up
    // front), so pin the fleet explicitly for both runs.
    let cfg = LargeScaleConfig {
        n_servers: Some(24),
        ..LargeScaleConfig::new(30, OptimizerKind::Ipac)
    };
    for pods in [None, Some(4)] {
        let mut opts = RunOptions::default().with_series();
        if let Some(p) = pods {
            opts = opts.with_pods(p);
        }
        let trace = StreamingTrace::materialize(&trace_cfg);
        let materialized = run_large_scale(&trace, &cfg, &opts).expect("materialized run");
        let mut stream = StreamingTrace::new(&trace_cfg);
        let streamed = run_large_scale_streaming(&mut stream, &cfg, &opts).expect("streaming run");
        let ctx = format!("pods={pods:?}");
        assert_eq!(
            materialized.total_energy_wh.to_bits(),
            streamed.total_energy_wh.to_bits(),
            "{ctx}: total energy diverged between streaming and materialized"
        );
        assert_eq!(
            bits(
                &materialized
                    .series
                    .iter()
                    .map(|s| s.power_w)
                    .collect::<Vec<_>>()
            ),
            bits(
                &streamed
                    .series
                    .iter()
                    .map(|s| s.power_w)
                    .collect::<Vec<_>>()
            ),
            "{ctx}: power series diverged between streaming and materialized"
        );
        assert_eq!(
            materialized.sla_violation_fraction.to_bits(),
            streamed.sla_violation_fraction.to_bits(),
            "{ctx}: SLA fraction diverged"
        );
        assert_eq!(
            materialized.migrations, streamed.migrations,
            "{ctx}: migrations diverged"
        );
        assert_eq!(
            materialized.final_placements, streamed.final_placements,
            "{ctx}: final placements diverged"
        );
    }
}

/// Same-seed hierarchical runs are bit-identical — the pod optimizer adds
/// no randomness source beyond the seeded trace.
#[test]
fn same_seed_hierarchical_runs_are_bit_identical() {
    let run = || {
        let trace = generate_trace(&TraceConfig {
            n_vms: 30,
            n_samples: 24,
            interval_s: 900.0,
            seed: 0xD5EED,
        });
        let cfg = LargeScaleConfig::new(30, OptimizerKind::Ipac);
        run_large_scale(
            &trace,
            &cfg,
            &RunOptions::default().with_series().with_pods(8),
        )
        .expect("hierarchical run")
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.total_energy_wh.to_bits(),
        b.total_energy_wh.to_bits(),
        "hierarchical energy diverged between same-seed runs"
    );
    assert_eq!(
        bits(&a.series.iter().map(|s| s.power_w).collect::<Vec<_>>()),
        bits(&b.series.iter().map(|s| s.power_w).collect::<Vec<_>>()),
        "hierarchical power trajectory diverged between same-seed runs"
    );
    assert_eq!(a.final_placements, b.final_placements);
}

#[test]
fn different_seeds_diverge() {
    let a = small_run(1);
    let b = small_run(2);
    assert_ne!(
        bits(&a.power_series_w),
        bits(&b.power_series_w),
        "different seeds produced identical power trajectories"
    );
}

#[test]
fn trajectories_cover_every_sample_and_are_physical() {
    let r = small_run(42);
    assert_eq!(r.power_series_w.len(), 24);
    assert_eq!(r.response_series_ms.len(), 24);
    for &w in &r.power_series_w {
        assert!(w.is_finite() && w >= 0.0, "power sample {w}");
    }
    for &ms in &r.response_series_ms {
        // -1.0 is the no-measurement sentinel; everything else is a mean
        // response time in milliseconds.
        assert!(ms == -1.0 || (ms.is_finite() && ms > 0.0), "response {ms}");
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of every value fed in:
/// f64s by their bits, counts and placements as u64s. A golden digest pins
/// every bit of a result in one constant.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    fn placements(&mut self, ps: &[(u64, usize)]) {
        self.u64(ps.len() as u64);
        for &(vm, server) in ps {
            self.u64(vm);
            self.u64(server as u64);
        }
    }
}

fn cosim_digest(r: &CosimResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.n_apps as u64);
    for x in [
        r.total_energy_wh,
        r.it_energy_wh,
        r.energy_per_app_wh,
        r.mean_tracking_error_ms,
        r.violation_fraction,
        r.mean_active_servers,
    ] {
        h.f64(x);
    }
    h.u64(r.migrations);
    h.f64s(&r.power_series_w);
    h.f64s(&r.response_series_ms);
    h.placements(&r.final_placements);
    h.0
}

fn large_scale_digest(h: &mut Fnv, r: &LargeScaleResult) {
    h.u64(r.n_vms as u64);
    for x in [
        r.total_energy_wh,
        r.energy_per_vm_wh,
        r.mean_active_servers,
        r.sla_violation_fraction,
        r.wake_energy_wh,
    ] {
        h.f64(x);
    }
    for n in [
        r.migrations,
        r.peak_active_servers as u64,
        r.optimizer_invocations,
        r.relief_migrations,
    ] {
        h.u64(n);
    }
    h.placements(&r.final_placements);
    h.f64s(&r.site_energy_wh);
    h.u64(r.series.len() as u64);
    for s in &r.series {
        h.f64(s.t_s);
        h.f64(s.power_w);
        h.u64(s.active_servers as u64);
        h.u64(s.migrations_so_far);
        h.f64(s.unmet_fraction);
    }
}

fn churn_digest(r: &ChurnResult) -> u64 {
    let mut h = Fnv::new();
    large_scale_digest(&mut h, &r.base);
    for n in [
        r.arrivals,
        r.departures,
        r.admitted,
        r.rejections,
        r.wake_retries,
        r.peak_queue_depth as u64,
        r.recycled_slots,
        r.live_churn_vms as u64,
    ] {
        h.u64(n);
    }
    h.0
}

/// Counter `name` of a telemetry sink (0 when never registered).
fn counter(t: &Telemetry, name: &str) -> u64 {
    t.counter_values()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Golden pin: co-simulation with a stepped PUE series, sensor dropout and
/// a crash storm — the facility power charge, safe mode, host evacuation
/// and (under a 150 ms set point the controllers cannot hold) the SLO
/// watchdog all feed the digest.
#[test]
fn golden_cosim_with_stepped_pue_dropout_and_crash_storm() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 8,
        n_samples: 48,
        interval_s: 900.0,
        seed: 0x601D,
    });
    let cfg = CosimConfig {
        n_apps: 8,
        setpoint_ms: 150.0,
        control_periods_per_sample: 2,
        optimizer_period_samples: 8,
        seed: 0x601D,
        ..Default::default()
    };
    let mut steps = vec![1.2; 16];
    steps.extend([1.6; 16]);
    steps.extend([1.35; 16]);
    let pue = PueSeries::from_samples(steps).expect("valid PUE steps");
    let fault_cfg = FaultConfig {
        dropouts_per_day: 4.0,
        dropout_mean_s: 7_200.0,
        ..FaultConfig::crash_storm(12.0 * 3_600.0, 1_800.0, 0xC4A5)
    };
    let plan = FaultPlan::generate(&fault_cfg, trace.n_samples(), trace.interval_s(), 16, 8);
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_pue(&pue)
        .with_faults(&plan)
        .with_telemetry(&telemetry);
    let r = run_cosim(&trace, &cfg, &opts).expect("faulted co-simulation runs");
    for name in [
        "fault.crashes",
        "fault.watchdog_reliefs",
        "control.safe_mode_samples",
    ] {
        assert!(
            counter(&telemetry, name) > 0,
            "scenario must exercise {name}"
        );
    }
    let digest = cosim_digest(&r);
    assert_eq!(digest, GOLDEN_COSIM, "cosim digest {digest:#018x}");
}

/// Golden pin: the cooling-coupled MPC under a PUE series that steps
/// twice. Its facility-power weight is energy weight × PUE, so each step
/// changes the MPC's stacked system mid-run, and the box-QP fallback runs
/// on it (the paper MPC, at weight 0, never sees either).
#[test]
fn golden_cooling_mpc_with_stepped_pue() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 8,
        n_samples: 36,
        interval_s: 900.0,
        seed: 0xC001,
    });
    let cfg = CosimConfig {
        n_apps: 4,
        control_periods_per_sample: 4,
        optimizer_period_samples: 8,
        seed: 0xC001,
        ..Default::default()
    };
    let mut steps = vec![1.15; 12];
    steps.extend([1.7; 12]);
    steps.extend([1.4; 12]);
    let pue = PueSeries::from_samples(steps).expect("valid PUE steps");
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_controller(ControllerSpec::cooling())
        .with_pue(&pue)
        .with_telemetry(&telemetry);
    let r = run_cosim(&trace, &cfg, &opts).expect("cooling co-simulation runs");
    assert!(
        counter(&telemetry, "mpc.qp_fallbacks") > 0,
        "scenario must exercise the box-QP fallback"
    );
    let digest = cosim_digest(&r);
    assert_eq!(digest, GOLDEN_COOLING, "cooling digest {digest:#018x}");
}

/// Golden pin: the auto-sized legacy fleet (`fleet: None`) under IPAC and
/// pMapper, every field and the per-sample series.
#[test]
fn golden_large_scale_auto_sized_ipac_and_pmapper() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 40,
        n_samples: 48,
        interval_s: 900.0,
        seed: 0x601E,
    });
    for (optimizer, golden) in [
        (OptimizerKind::Ipac, GOLDEN_LARGE_SCALE_IPAC),
        (OptimizerKind::Pmapper, GOLDEN_LARGE_SCALE_PMAPPER),
    ] {
        let cfg = LargeScaleConfig::new(40, optimizer);
        assert!(cfg.fleet.is_none() && cfg.n_servers.is_none());
        let r = run_large_scale(&trace, &cfg, &RunOptions::default().with_series())
            .expect("auto-sized replay runs");
        let mut h = Fnv::new();
        large_scale_digest(&mut h, &r);
        assert_eq!(h.0, golden, "{optimizer:?} digest {:#018x}", h.0);
    }
}

/// Golden pin: the streaming replay under the hierarchical planner, 400
/// VMs on 150 servers in pods of 16. Its invocations reach the cross-pod
/// rebalance and the fragmentation drain after the pod plans, and the
/// digest covers every field and the per-sample series.
#[test]
fn golden_hierarchical_streaming_replay() {
    let trace_cfg = TraceConfig {
        n_vms: 400,
        n_samples: 96,
        interval_s: 900.0,
        seed: 4,
    };
    let cfg = LargeScaleConfig {
        n_servers: Some(150),
        ..LargeScaleConfig::new(400, OptimizerKind::Ipac)
    };
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_series()
        .with_pods(16)
        .with_telemetry(&telemetry);
    let mut stream = StreamingTrace::new(&trace_cfg);
    let r = run_large_scale_streaming(&mut stream, &cfg, &opts).expect("hierarchical replay runs");
    assert_eq!(r.final_placements.len(), 400, "every VM is placed");
    for name in ["optimizer.pod_drain_moves", "optimizer.pod_rebalance_moves"] {
        assert!(
            counter(&telemetry, name) > 0,
            "scenario must exercise {name}"
        );
    }
    let mut h = Fnv::new();
    large_scale_digest(&mut h, &r);
    assert_eq!(
        h.0, GOLDEN_HIERARCHICAL,
        "hierarchical digest {:#018x}",
        h.0
    );
}

/// Golden pin: churn on a tight fleet with a crash storm and flaky
/// migrations and wakes, overload relief off so the SLO watchdog is the
/// only relief between optimizer invocations — admission, evacuation,
/// stranding and the watchdog on the replay path.
#[test]
fn golden_churn_with_crash_storm() {
    let trace = generate_trace(&TraceConfig {
        n_vms: 40,
        n_samples: 48,
        interval_s: 900.0,
        seed: 0x601F,
    });
    let fault_cfg = FaultConfig {
        migration_failure_prob: 0.2,
        migration_backoff_budget: 3,
        wake_failure_prob: 0.4,
        ..FaultConfig::crash_storm(8.0 * 3_600.0, 1_800.0, 0xFA11)
    };
    let plan = FaultPlan::generate(&fault_cfg, trace.n_samples(), trace.interval_s(), 40, 0);
    let wl_cfg = ChurnConfig {
        mean_lifetime_s: 3_600.0,
        ..ChurnConfig::with_flash_crowd(80.0, 24, 25, 0xF1A5)
    };
    let workload = ChurnWorkload::generate(&wl_cfg, trace.n_samples(), trace.interval_s());
    let cfg = LargeScaleConfig {
        n_servers: Some(14),
        overload_relief: false,
        ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
    };
    let telemetry = Telemetry::enabled();
    let opts = RunOptions::default()
        .with_series()
        .with_faults(&plan)
        .with_telemetry(&telemetry);
    let r = run_churn(
        &trace,
        &cfg,
        &workload,
        AdmissionPolicy::WakeAndRetry,
        &opts,
    )
    .expect("faulted churn runs");
    for name in [
        "fault.crashes",
        "fault.watchdog_reliefs",
        "fault.stranded_vms",
        "fault.wake_failures",
        "churn.rejections",
    ] {
        assert!(
            counter(&telemetry, name) > 0,
            "scenario must exercise {name}"
        );
    }
    let digest = churn_digest(&r);
    assert_eq!(digest, GOLDEN_CHURN, "churn digest {digest:#018x}");
}

/// Every sample's p90s, power and frequencies over `periods`, then each
/// controller's final allocation.
fn testbed_digest(cfg: &TestbedConfig, periods: usize) -> u64 {
    let mut tb = Testbed::build(cfg).expect("testbed builds");
    let samples = tb.run(periods).expect("testbed runs");
    let mut h = Fnv::new();
    h.u64(samples.len() as u64);
    for s in &samples {
        for r in &s.response_ms {
            h.u64(r.map_or(u64::MAX, f64::to_bits));
        }
        h.f64(s.power_w);
        h.f64s(&s.freq_ghz);
    }
    for app in 0..tb.n_apps() {
        h.f64s(tb.controller(app).allocation());
    }
    h.0
}

/// Golden pin: the DES testbed (two apps, shared identified model, paper
/// MPC, DVFS arbitration) over 40 periods. Two apps leave server 3 with
/// no VM, so it sleeps and draws no charged power.
#[test]
fn golden_testbed_des_with_mpc() {
    let cfg = TestbedConfig {
        n_apps: 2,
        concurrency: 25,
        ident: IdentificationConfig {
            periods: 120,
            ..Default::default()
        },
        ..Default::default()
    };
    let digest = testbed_digest(&cfg, 40);
    assert_eq!(digest, GOLDEN_TESTBED, "testbed digest {digest:#018x}");
}

/// Golden pin: the paper's testbed as `fig2` and `fig3` run it (eight apps
/// at concurrency 40, all four servers busy) over 40 periods.
#[test]
fn golden_testbed_eight_apps() {
    let cfg = TestbedConfig {
        ident: IdentificationConfig {
            periods: 120,
            ..Default::default()
        },
        ..Default::default()
    };
    let digest = testbed_digest(&cfg, 40);
    assert_eq!(
        digest, GOLDEN_TESTBED_EIGHT_APPS,
        "eight-app testbed digest {digest:#018x}"
    );
}

/// Golden pin: the single-application runs at `experiments_fast.rs`'s
/// sizes — the Fig. 4 and Fig. 5 sweeps on the analytic plant (a DES-
/// identified model, then MPC periods whose p90 the plant measures) and
/// the Fig. 3 static baseline on the DES. Every sweep point's x, mean,
/// std and n, then every baseline point.
#[test]
fn golden_single_app_sweeps_and_static_baseline() {
    let ident = IdentificationConfig {
        periods: 160,
        ..Default::default()
    };
    let sweep_digest = |h: &mut Fnv, points: &[SweepPoint]| {
        h.u64(points.len() as u64);
        for p in points {
            h.f64(p.x);
            h.f64(p.response.mean);
            h.f64(p.response.std);
            h.u64(p.response.n as u64);
        }
    };
    let mut h = Fnv::new();
    let fig4_points = fig4(
        &[30, 50, 70],
        1000.0,
        &ident,
        30,
        100,
        7,
        PlantKind::Analytic,
    )
    .expect("fig4 sweep runs");
    sweep_digest(&mut h, &fig4_points);
    let fig5_points = fig5(
        &[700.0, 1000.0, 1300.0],
        40,
        &ident,
        30,
        100,
        9,
        PlantKind::Analytic,
    )
    .expect("fig5 sweep runs");
    sweep_digest(&mut h, &fig5_points);
    let cfg = TestbedConfig {
        concurrency: 40,
        ..Default::default()
    };
    let baseline = fig3_static_baseline(&cfg, 600.0, 200.0, 400.0, 80, &[0.9, 0.9], 11)
        .expect("static baseline runs");
    h.u64(baseline.len() as u64);
    for p in &baseline {
        h.f64(p.time_s);
        h.u64(p.response_ms.map_or(u64::MAX, f64::to_bits));
        h.f64(p.power_w);
    }
    assert_eq!(h.0, GOLDEN_SINGLE_APP, "single-app digest {:#018x}", h.0);
}

// Bit digests of the pinned runs. A change that moves one changes
// simulation results and must say so.
const GOLDEN_COSIM: u64 = 0x316c_c997_349f_75de;
const GOLDEN_COOLING: u64 = 0xd889_7aaa_09c9_4a7c;
const GOLDEN_LARGE_SCALE_IPAC: u64 = 0x6286_7530_b359_3a7b;
const GOLDEN_LARGE_SCALE_PMAPPER: u64 = 0x911b_85de_591f_d5e6;
const GOLDEN_HIERARCHICAL: u64 = 0x21fd_e832_3b5d_2b14;
const GOLDEN_CHURN: u64 = 0x8637_efdc_c6fc_172e;
const GOLDEN_TESTBED: u64 = 0xc726_da30_0475_5b25;
const GOLDEN_TESTBED_EIGHT_APPS: u64 = 0x82bc_f5e2_7f5b_3d27;
const GOLDEN_SINGLE_APP: u64 = 0xbd5c_cf5c_9783_7698;
