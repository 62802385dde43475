//! The large-scale trace-driven simulation of §VI-B / §VII-B.
//!
//! Replays a 7-day utilization trace (5,415 VMs at the paper's scale)
//! against a simulated data center whose servers are randomly drawn from
//! the three CPU types of §VI-B. The data-center-level optimizer (IPAC or
//! pMapper) re-maps VMs on a long period; the server-level arbitrator
//! re-runs DVFS every trace sample (15 minutes); energy is integrated over
//! the whole week and reported per VM — the metric of Fig. 6.

use crate::optimizer::OptimizerConfig;
use crate::pipeline::{SimState, Stages, PAPER_MEAN_CAPACITY_GHZ};
use crate::run::RunOptions;
use crate::{CoreError, Result};
use vdc_apptier::rng::SimRng;
use vdc_consolidate::item::PackItem;
use vdc_dcsim::{DataCenter, FleetSpec, VmSpec};
use vdc_trace::{DemandSource, StreamingTrace, UtilizationTrace};

/// Which optimizer drives the large-scale run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// IPAC with DVFS (the paper's solution).
    Ipac,
    /// IPAC without DVFS (ablation: isolates consolidation from DVFS).
    IpacNoDvfs,
    /// pMapper baseline (no DVFS, per the paper's comparison: "IPAC is
    /// integrated with DVFS … Thus, IPAC saves more power").
    Pmapper,
}

/// Configuration of one large-scale run.
#[derive(Debug, Clone)]
pub struct LargeScaleConfig {
    /// Number of VMs to take from the trace.
    pub n_vms: usize,
    /// Number of simulated servers; `None` auto-sizes ("every data center
    /// is assumed to have enough inactive servers").
    pub n_servers: Option<usize>,
    /// Optimizer variant.
    pub optimizer: OptimizerKind,
    /// Optimizer invocation period, in trace samples (16 × 15 min = 4 h).
    pub optimizer_period_samples: usize,
    /// Run the on-demand overload-relief pass every sample between
    /// optimizer invocations (§III; see `vdc_consolidate::relief`).
    pub overload_relief: bool,
    /// RNG seed for server-type assignment.
    pub seed: u64,
    /// Multi-site fleet spec. `None` (the default) stamps the legacy
    /// single-site 15/35/50 paper fleet of `n_servers` machines; `Some`
    /// takes the server count, host mix, and per-site PUE series from the
    /// spec (`n_servers` is ignored). `FleetSpec::paper_default(k)` is
    /// bit-identical to `n_servers: Some(k)` under the same seed.
    pub fleet: Option<FleetSpec>,
}

impl LargeScaleConfig {
    /// Defaults matching §VII-B: IPAC, optimizer every 4 hours.
    pub fn new(n_vms: usize, optimizer: OptimizerKind) -> LargeScaleConfig {
        LargeScaleConfig {
            n_vms,
            n_servers: None,
            optimizer,
            optimizer_period_samples: 16,
            overload_relief: true,
            seed: 0x5415,
            fleet: None,
        }
    }
}

/// Result of one large-scale run.
#[derive(Debug, Clone)]
pub struct LargeScaleResult {
    /// Number of VMs simulated.
    pub n_vms: usize,
    /// Total energy over the trace (Wh).
    pub total_energy_wh: f64,
    /// Energy per VM (Wh) — the Fig. 6 y-axis.
    pub energy_per_vm_wh: f64,
    /// Total live migrations executed.
    pub migrations: u64,
    /// Mean number of active servers over the run.
    pub mean_active_servers: f64,
    /// Peak number of active servers.
    pub peak_active_servers: usize,
    /// Optimizer invocations.
    pub optimizer_invocations: u64,
    /// Live migrations performed by the on-demand overload-relief pass
    /// (already included in `migrations`).
    pub relief_migrations: u64,
    /// Fraction of total CPU demand that could not be served because its
    /// host was overloaded beyond maximum capacity (performance-assurance
    /// proxy; 0.0 = every VM always got its demanded cycles).
    pub sla_violation_fraction: f64,
    /// Energy spent on wake transitions (Wh, included in the total).
    pub wake_energy_wh: f64,
    /// Final VM→server placement, sorted by VM id (shard-equivalence
    /// suites compare this against the single-threaded run).
    pub final_placements: Vec<(u64, usize)>,
    /// Facility energy per site (Wh, PUE included), indexed by site; one
    /// entry for the legacy single-site fleet. Wake energy is charged at
    /// the IT level and is *not* folded into these per-site figures.
    pub site_energy_wh: Vec<f64>,
    /// Per-sample time series (power, active servers, migration progress).
    /// Populated only when [`RunOptions::capture_series`] is set; empty
    /// otherwise.
    pub series: Vec<WeekSample>,
}

/// Auto-size the fleet so capacity comfortably exceeds peak demand.
///
/// Requires a random-access source (the caller rejects streaming sources
/// up front).
fn auto_servers<S: DemandSource>(trace: &S, n_vms: usize) -> usize {
    // Peak aggregate demand across the trace.
    let peak = (0..trace.n_samples())
        .map(|t| (0..n_vms).map(|vm| trace.demand_ghz(vm, t)).sum::<f64>())
        .fold(0.0_f64, f64::max);
    // Mean fleet capacity under the 15/35/50 type mix; 2× headroom + floor.
    ((peak * 2.0 / PAPER_MEAN_CAPACITY_GHZ).ceil() as usize).max(4) + 2
}

/// One sample of the large-scale time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeekSample {
    /// Simulation time (seconds since trace start).
    pub t_s: f64,
    /// Instantaneous power of active servers (watts).
    pub power_w: f64,
    /// Active server count.
    pub active_servers: usize,
    /// Cumulative migrations (optimizer + relief).
    pub migrations_so_far: u64,
    /// Instantaneous unmet demand fraction.
    pub unmet_fraction: f64,
}

/// Run the large-scale simulation.
///
/// [`RunOptions`] carries the cross-cutting axes: telemetry sink
/// (per-sample step cost `largescale.sample_ns`, optimizer invocation
/// stats, per-server power samples, DVFS/wake/sleep transition counts —
/// telemetry only observes, results are bit-identical to the
/// uninstrumented run), the shard count, and whether
/// the per-sample [`WeekSample`] series is kept in the result.
pub fn run_large_scale(
    trace: &UtilizationTrace,
    cfg: &LargeScaleConfig,
    opts: &RunOptions<'_>,
) -> Result<LargeScaleResult> {
    let mut source = trace;
    run_large_scale_impl(&mut source, cfg, opts, None)
}

/// Run the large-scale simulation against a constant-memory streaming
/// trace ([`StreamingTrace`]) — the megafleet path, where a materialized
/// week (`n_vms × n_samples` f64s) would not fit in memory.
///
/// Bit-identical to [`run_large_scale`] on the trace
/// [`StreamingTrace::materialize`] yields for the same
/// [`vdc_trace::TraceConfig`] (the determinism suite pins this). The
/// streaming source cannot be scanned ahead of time, so the fleet must be
/// sized explicitly: `cfg.n_servers` or `cfg.fleet` is required.
pub fn run_large_scale_streaming(
    stream: &mut StreamingTrace,
    cfg: &LargeScaleConfig,
    opts: &RunOptions<'_>,
) -> Result<LargeScaleResult> {
    run_large_scale_impl(stream, cfg, opts, None)
}

/// The replay loop under [`run_large_scale`] (no lifecycle events,
/// `churn: None`), [`run_large_scale_streaming`], and [`crate::run_churn`].
/// Every churn hook is behind the `Option`, so the fixed-population path is
/// byte-identical to the pre-churn loop. Generic over the demand source:
/// the loop only ever reads sample `t` after `advance_to(t)`, in
/// monotonically increasing order, which is exactly the contract a
/// streaming source can honor. Each sample runs the replay's demand stage
/// (trace demands, site PUE, lifecycle events), then the shared stages of
/// [`crate::pipeline`].
pub(crate) fn run_large_scale_impl<S: DemandSource>(
    source: &mut S,
    cfg: &LargeScaleConfig,
    opts: &RunOptions<'_>,
    mut churn: Option<&mut crate::churn::ChurnCtx<'_>>,
) -> Result<LargeScaleResult> {
    if cfg.n_vms == 0 || cfg.n_vms > source.n_vms() {
        return Err(CoreError::BadConfig(format!(
            "n_vms {} outside trace size {}",
            cfg.n_vms,
            source.n_vms()
        )));
    }
    if cfg.optimizer_period_samples == 0 {
        return Err(CoreError::BadConfig(
            "optimizer period must be at least one sample".into(),
        ));
    }
    let telemetry = &opts.telemetry();
    let n_samples = source.n_samples();
    let interval_s = source.interval_s();
    let paper_fleet;
    let fleet = match &cfg.fleet {
        Some(spec) => spec,
        None => {
            let n_servers = match cfg.n_servers {
                Some(n) => n,
                None if source.random_access() => auto_servers(&*source, cfg.n_vms),
                None => {
                    return Err(CoreError::BadConfig(
                        "auto-sizing scans every sample up front; a streaming trace \
                         requires an explicit n_servers or fleet spec"
                            .into(),
                    ))
                }
            };
            paper_fleet = FleetSpec::paper_default(n_servers);
            &paper_fleet
        }
    };
    let stages = Stages {
        prefix: "largescale",
        optimizer_period: cfg.optimizer_period_samples,
        relief: cfg.overload_relief,
        dvfs: cfg.optimizer == OptimizerKind::Ipac,
        interval_s,
    };
    let optimizer = match cfg.optimizer {
        OptimizerKind::Ipac | OptimizerKind::IpacNoDvfs => OptimizerConfig::ipac_default(),
        OptimizerKind::Pmapper => OptimizerConfig::pmapper_default(),
    };
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut dc = DataCenter::new();
    fleet.build_with(&mut dc, &mut |n| rng.index(n))?;
    let mut sim = SimState::new(stages, dc, optimizer, opts);

    // Register the VMs with their t = 0 demands. Registration order makes
    // arena slot i the trace row i, which is what lets the per-sample
    // demand update below write the demand table by slot index.
    source.advance_to(0);
    let mut initial_items = Vec::with_capacity(cfg.n_vms);
    for vm in 0..cfg.n_vms {
        let demand = source.demand_ghz(vm, 0);
        let mem = source.meta(vm).memory_mib;
        let spec = VmSpec::new(vm as u64, demand, mem);
        let id = spec.id;
        let handle = sim.dc.add_vm(spec)?;
        debug_assert_eq!(handle.index(), vm);
        initial_items.push(PackItem::new(id, demand, mem));
    }
    sim.optimize(&initial_items)?;

    let mut series = if opts.capture_series {
        Vec::with_capacity(n_samples)
    } else {
        Vec::new()
    };
    for t in 0..n_samples {
        let sample_span = sim.timer("sample_ns");
        // Advance each site's PUE to this sample *before* any consolidation
        // or admission decision, so the efficiency ordering sees the same
        // facility cost the power charge uses.
        if let Some(spec) = &cfg.fleet {
            for (site, s) in spec.sites.iter().enumerate() {
                sim.dc.set_site_pue(site, s.pue.at(t))?;
            }
        }
        // Update demands from the trace: slot i is trace row i, so this is
        // one write per slot of the dense demand table. The `.max(0.0)`
        // clamp matches `set_vm_demand`.
        let demand_span = sim.timer("demand_ns");
        // Advance the demand source to this sample (no-op for materialized
        // traces; one generator step for streaming sources).
        source.advance_to(t);
        for (vm, d) in sim.dc.demands_mut()[..cfg.n_vms].iter_mut().enumerate() {
            *d = source.demand_ghz(vm, t).max(0.0);
        }
        if let Some(ctx) = churn.as_deref() {
            // Churn slots (arena region past the base population): live
            // owners read their workload demand, vacant/queued slots 0.
            ctx.write_demands(&mut sim.dc, t);
        }
        demand_span.finish();
        // Lifecycle events due at this sample: departures free their arena
        // slots, arrivals go through admission, before the shared stages,
        // so the optimizer always re-plans the post-event population.
        if let Some(ctx) = churn.as_deref_mut() {
            ctx.apply_events(&mut sim, t)?;
        }
        sim.host_events(t)?;
        sim.consolidate_or_relieve(t)?;
        sim.dvfs()?;
        let charge = sim.account(1.0)?;
        if opts.capture_series {
            series.push(WeekSample {
                t_s: t as f64 * interval_s,
                power_w: charge.watts,
                active_servers: charge.active,
                migrations_so_far: sim.migrations(),
                unmet_fraction: if charge.demand_ghz > 0.0 {
                    charge.unmet_ghz / charge.demand_ghz
                } else {
                    0.0
                },
            });
        }
        // Unserved demand is the replay's SLO violation.
        sim.watchdog(charge.unmet_ghz > 0.0)?;
        sample_span.finish();
    }

    let totals = sim.finish();
    telemetry.gauge_set(
        "largescale.energy_per_vm_wh",
        totals.energy_wh / cfg.n_vms as f64,
    );
    // Per-site facility-energy gauges only exist for explicit fleet runs,
    // so the legacy metric key set (and its committed baselines) is
    // untouched.
    if let Some(spec) = &cfg.fleet {
        for (site, s) in spec.sites.iter().enumerate() {
            telemetry.gauge_set(
                &format!("largescale.site_energy_wh.{}", s.name),
                totals.site_energy_wh[site],
            );
        }
    }
    Ok(LargeScaleResult {
        n_vms: cfg.n_vms,
        total_energy_wh: totals.energy_wh,
        energy_per_vm_wh: totals.energy_wh / cfg.n_vms as f64,
        migrations: totals.migrations,
        mean_active_servers: totals.mean_active_servers,
        peak_active_servers: totals.peak_active_servers,
        optimizer_invocations: totals.optimizer_invocations,
        relief_migrations: totals.relief_migrations,
        sla_violation_fraction: totals.sla_violation_fraction,
        wake_energy_wh: totals.wake_energy_wh,
        final_placements: totals.final_placements,
        site_energy_wh: totals.site_energy_wh,
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_trace::{generate_trace, TraceConfig};

    /// Local shorthand: the quiet default-options run.
    fn run_large_scale(t: &UtilizationTrace, cfg: &LargeScaleConfig) -> Result<LargeScaleResult> {
        super::run_large_scale(t, cfg, &RunOptions::default())
    }

    fn small_trace() -> UtilizationTrace {
        generate_trace(&TraceConfig {
            n_vms: 40,
            n_samples: 96, // one day
            interval_s: 900.0,
            seed: 99,
        })
    }

    #[test]
    fn validates_config() {
        let t = small_trace();
        assert!(run_large_scale(&t, &LargeScaleConfig::new(0, OptimizerKind::Ipac)).is_err());
        assert!(run_large_scale(&t, &LargeScaleConfig::new(100, OptimizerKind::Ipac)).is_err());
        let mut cfg = LargeScaleConfig::new(10, OptimizerKind::Ipac);
        cfg.optimizer_period_samples = 0;
        assert!(run_large_scale(&t, &cfg).is_err());
    }

    #[test]
    fn ipac_run_produces_plausible_energy() {
        let t = small_trace();
        let r = run_large_scale(&t, &LargeScaleConfig::new(40, OptimizerKind::Ipac)).unwrap();
        assert_eq!(r.n_vms, 40);
        assert!(r.total_energy_wh > 0.0);
        // Sanity: per-VM power between 1 W and 300 W.
        let watts_per_vm = r.energy_per_vm_wh / 24.0;
        assert!(
            (1.0..300.0).contains(&watts_per_vm),
            "implausible {watts_per_vm} W per VM"
        );
        assert!(r.mean_active_servers >= 1.0);
        assert!(r.optimizer_invocations >= 1);
    }

    #[test]
    fn ipac_beats_pmapper_on_energy() {
        let t = small_trace();
        let ipac = run_large_scale(&t, &LargeScaleConfig::new(40, OptimizerKind::Ipac)).unwrap();
        let pmapper =
            run_large_scale(&t, &LargeScaleConfig::new(40, OptimizerKind::Pmapper)).unwrap();
        assert!(
            ipac.energy_per_vm_wh < pmapper.energy_per_vm_wh,
            "IPAC {} Wh/VM should beat pMapper {} Wh/VM",
            ipac.energy_per_vm_wh,
            pmapper.energy_per_vm_wh
        );
    }

    #[test]
    fn dvfs_contributes_savings() {
        let t = small_trace();
        let with = run_large_scale(&t, &LargeScaleConfig::new(40, OptimizerKind::Ipac)).unwrap();
        let without =
            run_large_scale(&t, &LargeScaleConfig::new(40, OptimizerKind::IpacNoDvfs)).unwrap();
        assert!(
            with.energy_per_vm_wh < without.energy_per_vm_wh,
            "DVFS should save energy: {} vs {}",
            with.energy_per_vm_wh,
            without.energy_per_vm_wh
        );
    }

    #[test]
    fn fleet_capacity_covers_demand() {
        let t = small_trace();
        let r = run_large_scale(&t, &LargeScaleConfig::new(30, OptimizerKind::Ipac)).unwrap();
        // With auto-sizing there must be no runaway active-server count.
        assert!(r.peak_active_servers < 40);
    }

    pub(super) fn assert_results_bit_identical(
        a: &LargeScaleResult,
        b: &LargeScaleResult,
        ctx: &str,
    ) {
        assert_eq!(a.n_vms, b.n_vms, "{ctx}");
        assert_eq!(
            a.total_energy_wh.to_bits(),
            b.total_energy_wh.to_bits(),
            "{ctx}: total energy"
        );
        assert_eq!(
            a.energy_per_vm_wh.to_bits(),
            b.energy_per_vm_wh.to_bits(),
            "{ctx}: energy per VM"
        );
        assert_eq!(a.migrations, b.migrations, "{ctx}: migrations");
        assert_eq!(
            a.mean_active_servers.to_bits(),
            b.mean_active_servers.to_bits(),
            "{ctx}: mean active"
        );
        assert_eq!(a.peak_active_servers, b.peak_active_servers, "{ctx}");
        assert_eq!(a.optimizer_invocations, b.optimizer_invocations, "{ctx}");
        assert_eq!(a.relief_migrations, b.relief_migrations, "{ctx}");
        assert_eq!(
            a.sla_violation_fraction.to_bits(),
            b.sla_violation_fraction.to_bits(),
            "{ctx}: SLA fraction"
        );
        assert_eq!(
            a.wake_energy_wh.to_bits(),
            b.wake_energy_wh.to_bits(),
            "{ctx}: wake energy"
        );
        assert_eq!(a.final_placements, b.final_placements, "{ctx}: placements");
        let (sa, sb): (Vec<u64>, Vec<u64>) = (
            a.site_energy_wh.iter().map(|x| x.to_bits()).collect(),
            b.site_energy_wh.iter().map(|x| x.to_bits()).collect(),
        );
        assert_eq!(sa, sb, "{ctx}: per-site energy");
    }

    #[test]
    fn sharded_run_is_bit_identical_to_single_threaded() {
        let t = small_trace();
        let base = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        // Pods of 4, so the shard count fans out real work.
        let opts = RunOptions::default().with_series().with_pods(4);
        let single = super::run_large_scale(&t, &base, &opts.with_shards(1)).unwrap();
        for shards in [2usize, 3, 8] {
            let sharded = super::run_large_scale(&t, &base, &opts.with_shards(shards)).unwrap();
            assert_results_bit_identical(&single, &sharded, &format!("shards={shards}"));
            let (series, single_series) = (&sharded.series, &single.series);
            assert_eq!(series.len(), single_series.len());
            for (a, b) in series.iter().zip(single_series) {
                assert_eq!(a.power_w.to_bits(), b.power_w.to_bits(), "shards={shards}");
                assert_eq!(a.active_servers, b.active_servers);
                assert_eq!(a.migrations_so_far, b.migrations_so_far);
                assert_eq!(
                    a.unmet_fraction.to_bits(),
                    b.unmet_fraction.to_bits(),
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn single_vm_runs_and_is_shard_invariant() {
        // Edge case: 1 VM, and far more shards than VMs or servers. The
        // auto-sized fleet has at least 6 servers, so pods of 2 fan out.
        let t = small_trace();
        let cfg = LargeScaleConfig::new(1, OptimizerKind::Ipac);
        let opts = RunOptions::default().with_pods(2);
        let single = super::run_large_scale(&t, &cfg, &opts).unwrap();
        assert_eq!(single.final_placements.len(), 1);
        assert!(single.total_energy_wh > 0.0);
        let sharded = super::run_large_scale(&t, &cfg, &opts.with_shards(64)).unwrap();
        assert_results_bit_identical(&single, &sharded, "1 VM, 64 shards");
    }

    #[test]
    fn streaming_run_matches_materialized_run() {
        let tc = TraceConfig {
            n_vms: 30,
            n_samples: 48,
            interval_s: 900.0,
            seed: 7,
        };
        let trace = StreamingTrace::materialize(&tc);
        let mut stream = StreamingTrace::new(&tc);
        let cfg = LargeScaleConfig {
            n_servers: Some(24),
            ..LargeScaleConfig::new(30, OptimizerKind::Ipac)
        };
        let opts = RunOptions::default().with_series();
        let a = super::run_large_scale(&trace, &cfg, &opts).unwrap();
        let b = super::run_large_scale_streaming(&mut stream, &cfg, &opts).unwrap();
        assert_results_bit_identical(&a, &b, "streaming vs materialized");
        assert_eq!(a.series.len(), b.series.len());
        for (x, y) in a.series.iter().zip(&b.series) {
            assert_eq!(x.power_w.to_bits(), y.power_w.to_bits());
        }
    }

    #[test]
    fn streaming_auto_sizing_is_rejected() {
        // Auto-sizing scans the full horizon up front, which a streaming
        // source cannot do — the run must fail loudly, not silently fall
        // back to something else.
        let tc = TraceConfig {
            n_vms: 10,
            n_samples: 8,
            interval_s: 900.0,
            seed: 3,
        };
        let mut stream = StreamingTrace::new(&tc);
        let cfg = LargeScaleConfig::new(10, OptimizerKind::Ipac);
        assert!(cfg.n_servers.is_none() && cfg.fleet.is_none());
        let err = super::run_large_scale_streaming(&mut stream, &cfg, &RunOptions::default());
        assert!(matches!(err, Err(CoreError::BadConfig(_))), "{err:?}");
    }

    #[test]
    fn hierarchical_run_matches_itself_and_differs_from_flat_metadata() {
        // End-to-end seam check: `with_pods` flows from RunOptions into the
        // optimizer, the run completes, and the same options reproduce the
        // same bits.
        let t = small_trace();
        let cfg = LargeScaleConfig {
            n_servers: Some(24),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let opts = RunOptions::default().with_pods(8);
        let a = super::run_large_scale(&t, &cfg, &opts).unwrap();
        let b = super::run_large_scale(&t, &cfg, &opts).unwrap();
        assert_results_bit_identical(&a, &b, "hierarchical repeat");
        assert!(a.total_energy_wh > 0.0);
        assert_eq!(a.final_placements.len(), 40);
    }

    #[test]
    fn shards_zero_means_auto_and_stays_identical() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(20, OptimizerKind::Pmapper);
        let opts = RunOptions::default().with_pods(4);
        let single = super::run_large_scale(&t, &cfg, &opts).unwrap();
        // 0 = auto: host parallelism.
        let auto = super::run_large_scale(&t, &cfg, &opts.with_shards(0)).unwrap();
        assert_results_bit_identical(&single, &auto, "shards=0 (auto)");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use vdc_faults::{FaultConfig, FaultPlan};
    use vdc_telemetry::Telemetry;
    use vdc_trace::{generate_trace, TraceConfig};

    fn small_trace() -> UtilizationTrace {
        generate_trace(&TraceConfig {
            n_vms: 40,
            n_samples: 96,
            interval_s: 900.0,
            seed: 99,
        })
    }

    fn counter(telemetry: &Telemetry, name: &str) -> u64 {
        telemetry
            .counter_values()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("counter {name} not registered"))
    }

    #[test]
    fn empty_plan_is_bit_identical_to_a_plain_run() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        let plain = super::run_large_scale(&t, &cfg, &RunOptions::default()).unwrap();
        let empty = FaultPlan::empty();
        let faulted =
            super::run_large_scale(&t, &cfg, &RunOptions::default().with_faults(&empty)).unwrap();
        super::tests::assert_results_bit_identical(&plain, &faulted, "empty fault plan");
    }

    #[test]
    fn quiet_config_generates_an_empty_plan_end_to_end() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        let plan =
            FaultPlan::generate(&FaultConfig::quiet(7), t.n_samples(), t.interval_s(), 30, 0);
        assert!(plan.is_empty());
        let plain = super::run_large_scale(&t, &cfg, &RunOptions::default()).unwrap();
        let faulted =
            super::run_large_scale(&t, &cfg, &RunOptions::default().with_faults(&plan)).unwrap();
        super::tests::assert_results_bit_identical(&plain, &faulted, "quiet plan");
    }

    #[test]
    fn crash_storm_evacuates_and_recovers_without_losing_vms() {
        let t = small_trace();
        let cfg = LargeScaleConfig {
            n_servers: Some(30),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        // Aggressive MTTF: every host fails roughly twice a day.
        let plan = FaultPlan::generate(
            &FaultConfig::crash_storm(12.0 * 3600.0, 1800.0, 0xFA11),
            t.n_samples(),
            t.interval_s(),
            30,
            0,
        );
        assert!(!plan.is_empty(), "a crash storm must generate events");
        let telemetry = Telemetry::enabled();
        let opts = RunOptions::default()
            .with_telemetry(&telemetry)
            .with_faults(&plan);
        let r = super::run_large_scale(&t, &cfg, &opts).unwrap();
        assert!(r.total_energy_wh > 0.0);
        let crashes = counter(&telemetry, "fault.crashes");
        let recoveries = counter(&telemetry, "fault.recoveries");
        assert!(crashes > 0, "the storm must crash hosts");
        assert!(recoveries > 0, "short MTTR must recover hosts in-horizon");
        assert!(recoveries <= crashes);
        // Every base VM is either placed at the end or was counted
        // stranded at some point — none silently vanish.
        let stranded = counter(&telemetry, "fault.stranded_vms");
        assert!(
            r.final_placements.len() as u64 + stranded >= 40,
            "{} placed + {} stranded events must cover 40 VMs",
            r.final_placements.len(),
            stranded
        );
    }

    #[test]
    fn crash_storm_is_deterministic_per_seed() {
        let t = small_trace();
        let cfg = LargeScaleConfig {
            n_servers: Some(30),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let plan = FaultPlan::generate(
            &FaultConfig::crash_storm(12.0 * 3600.0, 1800.0, 0xFA11),
            t.n_samples(),
            t.interval_s(),
            30,
            0,
        );
        let opts = RunOptions::default().with_faults(&plan);
        let a = super::run_large_scale(&t, &cfg, &opts).unwrap();
        let b = super::run_large_scale(&t, &cfg, &opts).unwrap();
        super::tests::assert_results_bit_identical(&a, &b, "same seed, same storm");
    }

    #[test]
    fn flaky_migrations_drop_moves_but_commit_the_prefix() {
        let t = small_trace();
        let cfg = LargeScaleConfig::new(40, OptimizerKind::Ipac);
        // Certain failure with a zero retry budget: every migration is
        // dropped, so only initial placements (and none of the periodic
        // re-maps) ever move a VM.
        let plan = FaultPlan::generate(
            &FaultConfig {
                migration_backoff_budget: 0,
                ..FaultConfig::flaky_migrations(1.0, 3)
            },
            t.n_samples(),
            t.interval_s(),
            0,
            0,
        );
        let telemetry = Telemetry::enabled();
        let opts = RunOptions::default()
            .with_telemetry(&telemetry)
            .with_faults(&plan);
        let r = super::run_large_scale(&t, &cfg, &opts).unwrap();
        assert_eq!(r.migrations, 0, "every migration draw fails");
        assert_eq!(r.final_placements.len(), 40, "placements still complete");
        assert!(counter(&telemetry, "fault.migrations_dropped") > 0);
        // Moderate flakiness with retry budget still lands most moves.
        let flaky = FaultPlan::generate(
            &FaultConfig::flaky_migrations(0.3, 3),
            t.n_samples(),
            t.interval_s(),
            0,
            0,
        );
        let telemetry2 = Telemetry::enabled();
        let r2 = super::run_large_scale(
            &t,
            &cfg,
            &RunOptions::default()
                .with_telemetry(&telemetry2)
                .with_faults(&flaky),
        )
        .unwrap();
        assert!(r2.migrations > 0, "retries must land most migrations");
        assert!(counter(&telemetry2, "fault.migration_retries") > 0);
    }
}

#[cfg(test)]
mod fleet_tests {
    use super::*;
    use vdc_dcsim::fleet::PueSeries;
    use vdc_dcsim::{HostCatalog, SiteSpec};
    use vdc_trace::{generate_trace, TraceConfig};

    fn trace(n_vms: usize, seed: u64) -> UtilizationTrace {
        generate_trace(&TraceConfig {
            n_vms,
            n_samples: 96,
            interval_s: 900.0,
            seed,
        })
    }

    #[test]
    fn paper_default_fleet_is_bit_identical_to_legacy_template() {
        let t = trace(40, 0xF1EE7);
        for optimizer in [OptimizerKind::Ipac, OptimizerKind::Pmapper] {
            let legacy = LargeScaleConfig {
                n_servers: Some(30),
                ..LargeScaleConfig::new(40, optimizer)
            };
            let fleet = LargeScaleConfig {
                fleet: Some(FleetSpec::paper_default(30)),
                ..legacy.clone()
            };
            let opts = RunOptions::default().with_series();
            let a = super::run_large_scale(&t, &legacy, &opts).unwrap();
            let b = super::run_large_scale(&t, &fleet, &opts).unwrap();
            super::tests::assert_results_bit_identical(&a, &b, "paper-default fleet");
            let (pa, pb): (Vec<u64>, Vec<u64>) = (
                a.series.iter().map(|s| s.power_w.to_bits()).collect(),
                b.series.iter().map(|s| s.power_w.to_bits()).collect(),
            );
            assert_eq!(pa, pb, "power series must match bit for bit");
            // The single-site fleet reports exactly one energy bucket,
            // holding the facility (== IT at PUE 1.0) energy sans wake.
            assert_eq!(b.site_energy_wh.len(), 1);
            assert!(
                (b.site_energy_wh[0] - (b.total_energy_wh - b.wake_energy_wh)).abs() < 1e-9,
                "site bucket {} vs total-minus-wake {}",
                b.site_energy_wh[0],
                b.total_energy_wh - b.wake_energy_wh
            );
        }
    }

    #[test]
    fn mixed_fleet_prefers_low_idle_fraction_site() {
        let t = trace(40, 0xF1EE8);
        let spec = FleetSpec::specpower_mixed(12);
        let cfg = LargeScaleConfig {
            fleet: Some(spec.clone()),
            ..LargeScaleConfig::new(40, OptimizerKind::Ipac)
        };
        let r = super::run_large_scale(&t, &cfg, &RunOptions::default()).unwrap();
        assert_eq!(r.site_energy_wh.len(), 2);
        // Replay the deterministic profile draws to recover each server's
        // site, then check PAC/IPAC packed the load into the
        // low-idle-fraction (and low-PUE) "lean" site.
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let assignments = spec.assignments_with(&mut |n| rng.index(n));
        let on_lean = r
            .final_placements
            .iter()
            .filter(|(_, s)| assignments[*s].0 == 0)
            .count();
        assert!(
            2 * on_lean > r.final_placements.len(),
            "only {on_lean}/{} VMs on the efficient site",
            r.final_placements.len()
        );
        assert!(
            r.site_energy_wh[0] > 0.0,
            "the preferred site must burn energy"
        );
    }

    #[test]
    fn pue_step_change_scales_facility_power_midweek() {
        let t = trace(30, 0xF1EE9);
        // Single-site paper fleet; PUE jumps from 1.0 to 1.5 at sample 48.
        let mut samples = vec![1.0; 48];
        samples.extend(std::iter::repeat_n(1.5, 48));
        let catalog = HostCatalog::paper();
        let mix = vec![
            (vdc_dcsim::ProfileId::from_index(0), 15),
            (vdc_dcsim::ProfileId::from_index(1), 35),
            (vdc_dcsim::ProfileId::from_index(2), 50),
        ];
        let mut site = SiteSpec::new("stepped", 24, mix, 1.0).unwrap();
        site.pue = PueSeries::from_samples(samples).unwrap();
        let stepped_spec = FleetSpec::new(catalog, vec![site]).unwrap();
        let base_cfg = LargeScaleConfig {
            fleet: Some(FleetSpec::paper_default(24)),
            ..LargeScaleConfig::new(30, OptimizerKind::Ipac)
        };
        let step_cfg = LargeScaleConfig {
            fleet: Some(stepped_spec),
            ..base_cfg.clone()
        };
        let opts = RunOptions::default().with_series();
        let base = super::run_large_scale(&t, &base_cfg, &opts).unwrap();
        let step = super::run_large_scale(&t, &step_cfg, &opts).unwrap();
        // A uniform PUE rescales every efficiency key by the same factor,
        // so placements are unchanged; facility power scales per sample.
        assert_eq!(base.final_placements, step.final_placements);
        assert_eq!(base.series.len(), step.series.len());
        for (i, (a, b)) in base.series.iter().zip(&step.series).enumerate() {
            let pue = if i < 48 { 1.0 } else { 1.5 };
            assert!(
                (b.power_w - a.power_w * pue).abs() < 1e-6 * a.power_w.max(1.0),
                "sample {i}: {} vs {} x {pue}",
                b.power_w,
                a.power_w
            );
        }
        assert!(step.total_energy_wh > base.total_energy_wh);
    }
}

#[cfg(test)]
mod relief_tests {
    use super::*;
    use vdc_trace::{generate_trace, TraceConfig};

    /// Local shorthand: the quiet default-options run.
    fn run_large_scale(t: &UtilizationTrace, cfg: &LargeScaleConfig) -> Result<LargeScaleResult> {
        super::run_large_scale(t, cfg, &RunOptions::default())
    }

    fn trace(n_vms: usize, seed: u64) -> UtilizationTrace {
        generate_trace(&TraceConfig {
            n_vms,
            n_samples: 96,
            interval_s: 900.0,
            seed,
        })
    }

    #[test]
    fn relief_reduces_sla_violations() {
        // Force pressure: a deliberately small fleet so demand swings
        // overload servers between optimizer invocations.
        let t = trace(60, 404);
        let base = LargeScaleConfig {
            n_servers: Some(14),
            ..LargeScaleConfig::new(60, OptimizerKind::Ipac)
        };
        let with_relief = run_large_scale(&t, &base).unwrap();
        let without = run_large_scale(
            &t,
            &LargeScaleConfig {
                overload_relief: false,
                ..base
            },
        )
        .unwrap();
        assert!(
            with_relief.sla_violation_fraction <= without.sla_violation_fraction,
            "relief must not increase violations: {} vs {}",
            with_relief.sla_violation_fraction,
            without.sla_violation_fraction
        );
        // Under real pressure relief should actually migrate something.
        if without.sla_violation_fraction > 0.0 {
            assert!(with_relief.relief_migrations > 0);
        }
    }

    #[test]
    fn sla_violation_fraction_is_a_fraction() {
        let t = trace(30, 405);
        let r = run_large_scale(&t, &LargeScaleConfig::new(30, OptimizerKind::Ipac)).unwrap();
        assert!((0.0..=1.0).contains(&r.sla_violation_fraction));
        // Well-provisioned fleets should be (near-)violation-free.
        assert!(
            r.sla_violation_fraction < 0.05,
            "{}",
            r.sla_violation_fraction
        );
    }

    #[test]
    fn wake_energy_is_charged_on_top_of_site_energy() {
        let t = trace(30, 406);
        let r = run_large_scale(&t, &LargeScaleConfig::new(30, OptimizerKind::Ipac)).unwrap();
        assert!(r.wake_energy_wh > 0.0, "at least the initial wakes");
        assert_eq!(r.site_energy_wh.len(), 1, "the legacy fleet is one site");
        assert!(
            (r.total_energy_wh - r.wake_energy_wh - r.site_energy_wh[0]).abs() < 1e-6,
            "wake energy must explain the gap to the site energy exactly"
        );
    }
}
