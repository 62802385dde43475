//! Full-system co-simulation: the Fig. 1 architecture at data-center
//! scale, with the response-time controllers **in the loop**.
//!
//! The paper's large-scale evaluation (§VII-B) replays recorded CPU
//! demands; its testbed evaluation (§VII-A) runs the controllers on four
//! servers. This module closes the gap the paper leaves implicit: hundreds
//! of MPC-controlled multi-tier applications whose *workloads* follow the
//! trace (clients come and go diurnally), whose *allocations* come from
//! their controllers, and whose VMs are consolidated by IPAC and throttled
//! by DVFS — i.e. the complete two-level system, end to end.
//!
//! Each application is an instant analytic plant ([`AnalyticPlant`]), so a
//! week of 15-minute samples over hundreds of applications runs in
//! seconds. The ablation comparison is **static peak provisioning**: the
//! same applications with allocations frozen at what the controller needs
//! at peak concurrency — the classic worst-case sizing the paper's
//! dynamic reallocation replaces.

use crate::controller::{identify_plant, IdentificationConfig};
use crate::optimizer::OptimizerConfig;
use crate::pipeline::{SimState, Stages, PAPER_MEAN_CAPACITY_GHZ};
use crate::run::RunOptions;
use crate::tier::{ControllerSpec, TierController};
use crate::{CoreError, Result};
use vdc_apptier::monitor::SlaMetric;
use vdc_apptier::rng::{seed_stream, SimRng};
use vdc_apptier::{AnalyticPlant, Plant, WorkloadProfile};
use vdc_consolidate::item::PackItem;
use vdc_dcsim::{DataCenter, FleetSpec, VmHandle, VmSpec};
use vdc_trace::UtilizationTrace;

/// Configuration of a co-simulation run.
#[derive(Debug, Clone)]
pub struct CosimConfig {
    /// Number of controlled applications (each a two-tier plant).
    pub n_apps: usize,
    /// Response-time set point (ms).
    pub setpoint_ms: f64,
    /// Control periods executed per 15-minute trace sample.
    pub control_periods_per_sample: usize,
    /// Whether the tier controllers run; `false` freezes every application
    /// at its peak-sized static allocation (the ablation baseline).
    pub controllers_enabled: bool,
    /// Consolidation period in trace samples (16 = 4 h).
    pub optimizer_period_samples: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig {
            n_apps: 100,
            setpoint_ms: 1000.0,
            control_periods_per_sample: 8,
            controllers_enabled: true,
            optimizer_period_samples: 16,
            seed: 0xC051,
        }
    }
}

/// Result of a co-simulation run.
#[derive(Debug, Clone)]
pub struct CosimResult {
    /// Applications simulated.
    pub n_apps: usize,
    /// Total energy of active servers over the horizon (Wh). With a PUE
    /// series attached to the run's options this is facility Wh: each
    /// sample's IT power is scaled by that sample's PUE, as the trace
    /// replay charges it. Without one it equals `it_energy_wh`.
    pub total_energy_wh: f64,
    /// IT energy of active servers over the horizon (Wh), before PUE.
    pub it_energy_wh: f64,
    /// Energy per application (Wh), in the unit of `total_energy_wh`.
    pub energy_per_app_wh: f64,
    /// Mean absolute tracking error of the measured SLA metric vs the set
    /// point, over all apps and samples with measurements (ms).
    pub mean_tracking_error_ms: f64,
    /// Fraction of measurements exceeding 1.5× the set point (severe SLA
    /// violations).
    pub violation_fraction: f64,
    /// Mean active servers.
    pub mean_active_servers: f64,
    /// Total migrations (optimizer + relief).
    pub migrations: u64,
    /// Instantaneous active-server power at each trace sample (watts, in
    /// the unit of `total_energy_wh`) — the power trajectory, recorded for
    /// reproducibility audits.
    pub power_series_w: Vec<f64>,
    /// Mean measured SLA metric at each trace sample (ms); samples with no
    /// completed measurements record `-1.0`.
    pub response_series_ms: Vec<f64>,
    /// Final VM placement `(vm id, server index)`, sorted by VM id — part
    /// of the shard-equivalence contract (`tests/sharding.rs`).
    pub final_placements: Vec<(u64, usize)>,
}

/// One controlled application in the co-simulation.
struct App {
    plant: AnalyticPlant,
    controller: Box<dyn TierController>,
    /// Client population cap (peak concurrency).
    max_clients: usize,
    /// Arena handles of the two tier VMs.
    vm_handles: [VmHandle; 2],
}

/// Advance one application through every control period of one trace
/// sample, returning the per-period measurements. This is the shard worker
/// body: it touches only the application's own plant and controller, so a
/// worker needs no view of any other shard.
fn app_sample_periods(
    app: &mut App,
    cfg: &CosimConfig,
    static_alloc: &[f64],
    period_s: f64,
    masked: bool,
) -> Result<Vec<Option<f64>>> {
    // Under sensor dropout the plant still runs, but the monitor that would
    // time its completions is down: no measurement exists for the period
    // (None, never a fabricated 0.0).
    let mut measured = Vec::with_capacity(cfg.control_periods_per_sample);
    for _ in 0..cfg.control_periods_per_sample {
        let m = if cfg.controllers_enabled && masked {
            app.controller.control_period_masked(&mut app.plant)?
        } else if cfg.controllers_enabled {
            app.controller.control_period(&mut app.plant)?
        } else {
            app.plant.set_allocations(static_alloc)?;
            app.plant.run_for(period_s);
            if masked {
                let _ = app.plant.take_completed();
                None
            } else {
                app.plant.measure(SlaMetric::P90).map(|s| s * 1000.0)
            }
        };
        measured.push(m);
    }
    Ok(measured)
}

/// Run the co-simulation over (the first `n_apps` rows of) a trace.
///
/// Each application's concurrency at sample `t` is its trace row's
/// utilization scaled into `[2, max_clients]` — applications inherit the
/// trace's diurnal/weekly structure while their CPU demands emerge from
/// feedback control rather than being replayed.
///
/// [`RunOptions`] carries the cross-cutting axes: a telemetry sink (per-app
/// SLO accounting against `cfg.setpoint_ms`, MPC phase-split timings,
/// optimizer invocation stats, per-server power samples, per-sample step
/// cost, DVFS/wake/sleep transition counts — telemetry only observes,
/// results are bit-identical; enforced by `tests/determinism.rs`), the
/// shard count and the tier controller. Applications are partitioned into
/// contiguous shards; results are bit-identical for every shard count
/// because each app owns its plant, controller, and `seed_stream`-derived
/// RNG stream, and all cross-app reductions stay sequential in app order.
/// The power/response trajectories are part of [`CosimResult`] proper, so
/// `capture_series` has no effect here.
pub fn run_cosim(
    trace: &UtilizationTrace,
    cfg: &CosimConfig,
    opts: &RunOptions<'_>,
) -> Result<CosimResult> {
    if cfg.n_apps == 0 || cfg.n_apps > trace.n_vms() {
        return Err(CoreError::BadConfig(format!(
            "n_apps {} outside trace size {}",
            cfg.n_apps,
            trace.n_vms()
        )));
    }
    if cfg.control_periods_per_sample == 0 || cfg.optimizer_period_samples == 0 {
        return Err(CoreError::BadConfig(
            "control and optimizer periods must be positive".into(),
        ));
    }
    let telemetry = &opts.telemetry();
    let shards = opts.shards();
    let spec = opts.controller.unwrap_or(ControllerSpec::Mpc);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let profile = WorkloadProfile::rubbos();
    let period_s = 900.0 / cfg.control_periods_per_sample as f64;

    // One shared identified model (the paper identifies once and reuses).
    let mut twin = AnalyticPlant::new(profile.clone(), 40, &[1.0, 1.0], 0.45, cfg.seed)?;
    let ident = IdentificationConfig {
        periods: 200,
        period_s,
        ..Default::default()
    };
    let model = identify_plant(&mut twin, &ident, cfg.seed)?;

    // Static-peak allocation: what the controller converges to at the
    // highest concurrency any app will see. Found once by closed-loop
    // search on a twin, then reused (classic peak sizing).
    let peak_clients = 80;
    let static_alloc = {
        let mut peak_twin = AnalyticPlant::new(
            profile.clone(),
            peak_clients,
            &[1.0, 1.0],
            0.45,
            cfg.seed ^ 1,
        )?;
        let mut c = spec.build(&model, cfg.setpoint_ms, period_s, &[1.0, 1.0])?;
        for _ in 0..80 {
            c.control_period(&mut peak_twin)?;
        }
        c.allocation().to_vec()
    };

    // Size the paper fleet for peak static provisioning of all apps. The
    // shared `rng` draws the server types first, then each app's client cap.
    let fleet_capacity_needed: f64 = static_alloc.iter().sum::<f64>() * cfg.n_apps as f64;
    let n_servers =
        ((fleet_capacity_needed * 1.6 / PAPER_MEAN_CAPACITY_GHZ).ceil() as usize).max(4);
    let stages = Stages {
        prefix: "cosim",
        optimizer_period: cfg.optimizer_period_samples,
        relief: true,
        dvfs: true,
        interval_s: trace.interval_s(),
    };
    let mut dc = DataCenter::new();
    FleetSpec::paper_default(n_servers).build_with(&mut dc, &mut |n| rng.index(n))?;
    let mut sim = SimState::new(stages, dc, OptimizerConfig::ipac_default(), opts);
    if sim.faults.is_some() {
        telemetry.incr("control.safe_mode_samples", 0);
    }

    // Build the applications and register their tier VMs.
    let mut apps = Vec::with_capacity(cfg.n_apps);
    let mut initial_items = Vec::with_capacity(2 * cfg.n_apps);
    for a in 0..cfg.n_apps {
        let max_clients = 30 + rng.index(50);
        let c0 = if cfg.controllers_enabled {
            vec![1.0, 1.0]
        } else {
            static_alloc.clone()
        };
        let plant = AnalyticPlant::new(
            profile.clone(),
            max_clients / 2,
            &c0,
            0.45,
            seed_stream(cfg.seed, a as u64),
        )?;
        let mut controller = spec.build(&model, cfg.setpoint_ms, period_s, &c0)?;
        controller.set_telemetry(telemetry.clone());
        let mut handles = [VmHandle::from_index(0); 2];
        for tier in 0..2usize {
            let spec = VmSpec::for_app(
                (2 * a + tier) as u64,
                a as u32,
                tier as u32,
                c0[tier],
                1024.0,
            );
            let id = spec.id;
            handles[tier] = sim.dc.add_vm(spec)?;
            initial_items.push(PackItem::new(id, c0[tier], 1024.0));
        }
        apps.push(App {
            plant,
            controller,
            max_clients,
            vm_handles: handles,
        });
    }
    sim.optimize(&initial_items)?;

    let mut err_sum = 0.0;
    let mut err_count = 0usize;
    let mut violations = 0usize;
    let mut power_series_w = Vec::with_capacity(trace.n_samples());
    let mut response_series_ms = Vec::with_capacity(trace.n_samples());

    for t in 0..trace.n_samples() {
        let sample_span = sim.timer("sample_ns");

        // 1. Workload: concurrency follows the trace's shape.
        for (a, app) in apps.iter_mut().enumerate() {
            let u = trace.utilization(a, t);
            let clients = (2.0 + u * app.max_clients as f64).round() as usize;
            app.plant.set_concurrency(clients);
        }

        // 1.5 Feed-forward: the site's current PUE sample reaches every
        //     controller before the control fan-out. A no-op by contract
        //     for controllers that don't price cooling, and absent entirely
        //     (bit-identical loop) when no series is attached.
        if let Some(series) = opts.pue {
            let pue = series.at(t);
            for app in apps.iter_mut() {
                app.controller.observe_pue(pue);
            }
        }

        // 2. Application-level control (or static hold), fanned out over
        //    shards. Each worker advances a contiguous chunk of apps; the
        //    SLO accounting below folds the returned measurements
        //    sequentially in (app, period) order, exactly as the
        //    single-threaded loop did — so the shard count cannot perturb
        //    any f64 of the result.
        let control_span = sim.timer("control_ns");
        // The dropout mask is a pure function of the immutable plan, so
        // shard workers may consult it directly; all mutable fault
        // accounting stays in the sequential fold below.
        let plan = sim.faults.as_ref().map(|f| f.plan());
        let per_app: Vec<Result<Vec<Option<f64>>>> =
            crate::shard::map_slice_mut(&mut apps, shards, |a, app| {
                let masked = plan.is_some_and(|p| p.sensor_dropped(a, t));
                app_sample_periods(app, cfg, &static_alloc, period_s, masked)
            });
        control_span.finish();
        let mut sample_ms_sum = 0.0;
        let mut sample_ms_count = 0usize;
        let mut sample_violations = 0usize;
        for (a, measurements) in per_app.into_iter().enumerate() {
            let measurements = measurements?;
            if plan.is_some_and(|p| p.sensor_dropped(a, t)) {
                // Masked periods are sensor outage, not starvation — the
                // controller held its allocation in safe mode.
                if let Some(f) = sim.faults.as_mut() {
                    let periods = cfg.control_periods_per_sample as u64;
                    f.safe_mode_samples += periods;
                    telemetry.incr("control.safe_mode_samples", periods);
                }
                continue;
            }
            for measured in measurements {
                if let Some(ms) = measured {
                    telemetry.slo_observe(a as u32, cfg.setpoint_ms, ms, period_s);
                    err_sum += (ms - cfg.setpoint_ms).abs();
                    err_count += 1;
                    sample_ms_sum += ms;
                    sample_ms_count += 1;
                    if ms > 1.5 * cfg.setpoint_ms {
                        violations += 1;
                        sample_violations += 1;
                    }
                } else {
                    telemetry.incr("cosim.starved_periods", 1);
                }
            }
        }

        // 3. Propagate demands to the data center.
        for app in &apps {
            let alloc: &[f64] = if cfg.controllers_enabled {
                app.controller.allocation()
            } else {
                &static_alloc
            };
            for (tier, &vm) in app.vm_handles.iter().enumerate() {
                sim.dc.set_vm_demand(vm, alloc[tier])?;
            }
        }

        // 4. The shared data-center stages. The power charge is facility
        //    power (IT × this sample's PUE) when a series is attached;
        //    without one the factor is 1.0, which leaves every product
        //    bit-identical to the IT power. Severe SLO violations feed the
        //    watchdog.
        sim.host_events(t)?;
        sim.consolidate_or_relieve(t)?;
        sim.dvfs()?;
        let charge = sim.account(opts.pue.map_or(1.0, |series| series.at(t)))?;
        power_series_w.push(charge.watts);
        response_series_ms.push(if sample_ms_count > 0 {
            sample_ms_sum / sample_ms_count as f64
        } else {
            -1.0
        });
        sim.watchdog(sample_violations > 0)?;
        sample_span.finish();
    }

    let totals = sim.finish();
    telemetry.gauge_set("cosim.mean_active_servers", totals.mean_active_servers);
    Ok(CosimResult {
        n_apps: cfg.n_apps,
        total_energy_wh: totals.energy_wh,
        it_energy_wh: totals.it_energy_wh,
        energy_per_app_wh: totals.energy_wh / cfg.n_apps as f64,
        mean_tracking_error_ms: if err_count > 0 {
            err_sum / err_count as f64
        } else {
            f64::INFINITY
        },
        violation_fraction: if err_count > 0 {
            violations as f64 / err_count as f64
        } else {
            1.0
        },
        mean_active_servers: totals.mean_active_servers,
        migrations: totals.migrations,
        power_series_w,
        response_series_ms,
        final_placements: totals.final_placements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_trace::{generate_trace, TraceConfig};

    /// Local shorthand: the quiet default-options run.
    fn run_cosim(t: &UtilizationTrace, cfg: &CosimConfig) -> Result<CosimResult> {
        super::run_cosim(t, cfg, &RunOptions::default())
    }

    fn day_trace(n: usize, seed: u64) -> UtilizationTrace {
        generate_trace(&TraceConfig {
            n_vms: n,
            n_samples: 96,
            interval_s: 900.0,
            seed,
        })
    }

    #[test]
    fn validates_config() {
        let t = day_trace(10, 1);
        let mut cfg = CosimConfig {
            n_apps: 0,
            ..Default::default()
        };
        assert!(run_cosim(&t, &cfg).is_err());
        cfg.n_apps = 50; // > trace rows
        assert!(run_cosim(&t, &cfg).is_err());
        cfg.n_apps = 5;
        cfg.control_periods_per_sample = 0;
        assert!(run_cosim(&t, &cfg).is_err());
    }

    #[test]
    fn controlled_run_tracks_and_completes() {
        let t = day_trace(20, 2);
        let cfg = CosimConfig {
            n_apps: 20,
            control_periods_per_sample: 4,
            ..Default::default()
        };
        let r = run_cosim(&t, &cfg).unwrap();
        assert_eq!(r.n_apps, 20);
        assert!(r.total_energy_wh > 0.0);
        assert!(
            r.mean_tracking_error_ms < 0.25 * cfg.setpoint_ms,
            "tracking error {:.0} ms",
            r.mean_tracking_error_ms
        );
        assert!(r.violation_fraction < 0.05, "{}", r.violation_fraction);
        assert!(r.mean_active_servers >= 1.0);
    }

    #[test]
    fn dynamic_control_saves_energy_vs_static_peak() {
        let t = day_trace(25, 3);
        let base = CosimConfig {
            n_apps: 25,
            control_periods_per_sample: 4,
            ..Default::default()
        };
        let dynamic = run_cosim(&t, &base).unwrap();
        let stat = run_cosim(
            &t,
            &CosimConfig {
                controllers_enabled: false,
                ..base
            },
        )
        .unwrap();
        assert!(
            dynamic.total_energy_wh < stat.total_energy_wh,
            "dynamic {:.0} Wh must beat static peak {:.0} Wh",
            dynamic.total_energy_wh,
            stat.total_energy_wh
        );
        // The static baseline over-provisions, so it violates rarely too —
        // the win is energy, not SLA.
        assert!(stat.violation_fraction < 0.05);
    }

    #[test]
    fn attached_pue_charges_facility_energy_beside_it_energy() {
        let t = day_trace(6, 4);
        let cfg = CosimConfig {
            n_apps: 6,
            control_periods_per_sample: 2,
            ..Default::default()
        };
        let plain = run_cosim(&t, &cfg).unwrap();
        assert_eq!(
            plain.it_energy_wh.to_bits(),
            plain.total_energy_wh.to_bits()
        );
        let pue = vdc_dcsim::PueSeries::constant(1.5).unwrap();
        let opts = RunOptions::default().with_pue(&pue);
        let facility = super::run_cosim(&t, &cfg, &opts).unwrap();
        // The paper MPC ignores the feed, so the IT side is the plain run.
        assert_eq!(
            facility.it_energy_wh.to_bits(),
            plain.total_energy_wh.to_bits()
        );
        let mut it_wh = 0.0;
        for (f, p) in facility.power_series_w.iter().zip(&plain.power_series_w) {
            assert!((f - 1.5 * p).abs() <= 1e-9 * p, "{f} W vs 1.5 x {p} W");
            it_wh += p * t.interval_s() / 3600.0;
        }
        // Only the active-server power is scaled; wake energy is not.
        let extra = facility.total_energy_wh - facility.it_energy_wh;
        assert!((extra - 0.5 * it_wh).abs() <= 1e-9 * it_wh, "{extra} Wh");
    }

    #[test]
    fn sharded_run_matches_single_threaded() {
        let t = day_trace(8, 9);
        let base = CosimConfig {
            n_apps: 8,
            control_periods_per_sample: 2,
            optimizer_period_samples: 8,
            ..Default::default()
        };
        let one = run_cosim(&t, &base).unwrap();
        for shards in [2usize, 3, 8] {
            let opts = RunOptions::default().with_shards(shards);
            let s = super::run_cosim(&t, &base, &opts).unwrap();
            let as_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                as_bits(&one.power_series_w),
                as_bits(&s.power_series_w),
                "power trajectory diverged at shards={shards}"
            );
            assert_eq!(
                as_bits(&one.response_series_ms),
                as_bits(&s.response_series_ms),
                "response trajectory diverged at shards={shards}"
            );
            assert_eq!(one.total_energy_wh.to_bits(), s.total_energy_wh.to_bits());
            assert_eq!(one.migrations, s.migrations);
            assert_eq!(one.final_placements, s.final_placements);
        }
    }

    #[test]
    fn sensor_dropout_engages_safe_mode_without_nans() {
        use vdc_faults::{FaultConfig, FaultPlan};
        let t = day_trace(12, 7);
        let cfg = CosimConfig {
            n_apps: 12,
            control_periods_per_sample: 2,
            ..Default::default()
        };
        // Several outages per app-day, each ~2 hours.
        let plan = FaultPlan::generate(
            &FaultConfig::sensor_dropout(4.0, 7200.0, 0xD80),
            t.n_samples(),
            t.interval_s(),
            0,
            cfg.n_apps,
        );
        assert!(
            !plan.dropout_windows().is_empty(),
            "config must generate dropout windows"
        );
        let telemetry = vdc_telemetry::Telemetry::enabled();
        let opts = RunOptions::default()
            .with_telemetry(&telemetry)
            .with_faults(&plan);
        let r = super::run_cosim(&t, &cfg, &opts).unwrap();
        let safe_samples = telemetry
            .counter_values()
            .into_iter()
            .find(|(n, _)| n == "control.safe_mode_samples")
            .map(|(_, v)| v)
            .expect("safe mode counter registered");
        assert!(
            safe_samples > 0,
            "outages must put controllers in safe mode"
        );
        // Masked samples are absent, never fabricated: every series entry
        // is finite (−1.0 marks a sample with no measurements at all).
        for (i, &ms) in r.response_series_ms.iter().enumerate() {
            assert!(ms.is_finite(), "sample {i} response {ms} must be finite");
            assert!(ms >= -1.0, "sample {i}: {ms}");
        }
        for (i, &w) in r.power_series_w.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "sample {i} power {w}");
        }
        assert!(r.mean_tracking_error_ms.is_finite());
        // Control still works: violations stay rare despite the outages.
        assert!(
            r.violation_fraction < 0.10,
            "violation fraction {} under dropout",
            r.violation_fraction
        );
    }

    #[test]
    fn host_crashes_in_cosim_keep_the_loop_running() {
        use vdc_faults::{FaultConfig, FaultPlan};
        let t = day_trace(10, 8);
        let cfg = CosimConfig {
            n_apps: 10,
            control_periods_per_sample: 2,
            ..Default::default()
        };
        // Generate against a generous host count; out-of-range indices for
        // the auto-sized fleet are skipped by the run loop.
        let plan = FaultPlan::generate(
            &FaultConfig::crash_storm(24.0 * 3600.0, 3600.0, 0xC4A5),
            t.n_samples(),
            t.interval_s(),
            64,
            cfg.n_apps,
        );
        assert!(!plan.host_events().is_empty());
        let telemetry = vdc_telemetry::Telemetry::enabled();
        let opts = RunOptions::default()
            .with_telemetry(&telemetry)
            .with_faults(&plan);
        let r = super::run_cosim(&t, &cfg, &opts).unwrap();
        assert!(r.total_energy_wh > 0.0);
        assert!(r.mean_tracking_error_ms.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = day_trace(10, 4);
        let cfg = CosimConfig {
            n_apps: 10,
            control_periods_per_sample: 4,
            ..Default::default()
        };
        let a = run_cosim(&t, &cfg).unwrap();
        let b = run_cosim(&t, &cfg).unwrap();
        assert_eq!(a.total_energy_wh, b.total_energy_wh);
        assert_eq!(a.migrations, b.migrations);
    }
}
