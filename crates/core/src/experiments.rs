//! Experiment runners — one per figure of the paper's evaluation (§VII).
//!
//! Each runner returns plain data; the `vdc-bench` figure binaries print
//! the same rows/series the paper plots, and EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use crate::controller::{identify_plant, IdentificationConfig, ResponseTimeController};
use crate::largescale::{run_large_scale, LargeScaleConfig, LargeScaleResult, OptimizerKind};
use crate::run::RunOptions;
use crate::testbed::{Testbed, TestbedConfig};
use crate::Result;
use vdc_apptier::monitor::SlaMetric;
use vdc_apptier::{AnalyticPlant, AppSim, Plant, WorkloadProfile};
use vdc_control::ArxModel;
use vdc_dcsim::FleetSpec;
use vdc_trace::UtilizationTrace;

/// Mean and standard deviation of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Number of samples.
    pub n: usize,
}

impl MeanStd {
    /// Compute from samples (0/0 for empty input).
    pub fn from_samples(samples: &[f64]) -> MeanStd {
        let n = samples.len();
        if n == 0 {
            return MeanStd {
                mean: 0.0,
                std: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        MeanStd {
            mean,
            std: var.sqrt(),
            n,
        }
    }
}

// ---------------------------------------------------------------- Fig. 2 --

/// Result of the Fig. 2 experiment: response time of all applications under
/// the same set point.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Set point used (ms).
    pub setpoint_ms: f64,
    /// Per-application mean ± std of the measured p90 (ms).
    pub per_app: Vec<MeanStd>,
}

/// Fig. 2: run the full testbed (power optimizer disabled), discard the
/// warm-up, and report mean ± std of every application's 90-percentile
/// response time.
pub fn fig2(
    cfg: &TestbedConfig,
    warmup_periods: usize,
    measure_periods: usize,
) -> Result<Fig2Result> {
    let mut tb = Testbed::build(cfg)?;
    tb.run(warmup_periods)?;
    let samples = tb.run(measure_periods)?;
    let per_app = (0..cfg.n_apps)
        .map(|a| {
            let vals: Vec<f64> = samples.iter().filter_map(|s| s.response_ms[a]).collect();
            MeanStd::from_samples(&vals)
        })
        .collect();
    Ok(Fig2Result {
        setpoint_ms: cfg.setpoint_ms,
        per_app,
    })
}

// ---------------------------------------------------------------- Fig. 3 --

/// One point of the Fig. 3 time series.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Time (s).
    pub time_s: f64,
    /// Measured p90 of the surged application (ms), if measured.
    pub response_ms: Option<f64>,
    /// Cluster power (W).
    pub power_w: f64,
}

/// Result of the Fig. 3 experiment.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Index of the surged application.
    pub app: usize,
    /// The time series.
    pub series: Vec<Fig3Point>,
}

/// Fig. 3: typical run with a workload surge. The surged application's
/// concurrency doubles during `[surge_start_s, surge_end_s)`.
pub fn fig3(
    cfg: &TestbedConfig,
    app: usize,
    total_s: f64,
    surge_start_s: f64,
    surge_end_s: f64,
    surge_concurrency: usize,
) -> Result<Fig3Result> {
    let mut tb = Testbed::build(cfg)?;
    let mut series = Vec::new();
    let mut surged = false;
    let mut restored = false;
    while tb.time_s() < total_s {
        if !surged && tb.time_s() >= surge_start_s {
            tb.set_concurrency(app, surge_concurrency);
            surged = true;
        }
        if !restored && tb.time_s() >= surge_end_s {
            tb.set_concurrency(app, cfg.concurrency);
            restored = true;
        }
        let s = tb.step()?;
        series.push(Fig3Point {
            time_s: s.time_s,
            response_ms: s.response_ms[app],
            power_w: s.power_w,
        });
    }
    Ok(Fig3Result { app, series })
}

/// Static-allocation baseline for the Fig. 3 scenario: the same surge
/// schedule with allocations frozen at the pre-surge controller
/// equilibrium. Shows the SLA violation the controller prevents (the role
/// the pMapper baseline plays in the paper's Fig. 3 caption: its
/// performance management cannot reallocate CPU between VMs).
pub fn fig3_static_baseline(
    cfg: &TestbedConfig,
    total_s: f64,
    surge_start_s: f64,
    surge_end_s: f64,
    surge_concurrency: usize,
    frozen_alloc: &[f64],
    seed: u64,
) -> Result<Vec<Fig3Point>> {
    let profile = WorkloadProfile::rubbos();
    let mut plant = AppSim::new(profile, cfg.concurrency, frozen_alloc, seed)?;
    let period = cfg.period_s;
    let mut series = Vec::new();
    let mut time = 0.0;
    let mut surged = false;
    let mut restored = false;
    while time < total_s {
        if !surged && time >= surge_start_s {
            plant.set_concurrency(surge_concurrency);
            surged = true;
        }
        if !restored && time >= surge_end_s {
            plant.set_concurrency(cfg.concurrency);
            restored = true;
        }
        plant.run_for(period);
        time += period;
        series.push(Fig3Point {
            time_s: time,
            response_ms: SlaMetric::P90
                .measure(plant.take_completed())
                .map(|s| s * 1000.0),
            power_w: 0.0, // single-app baseline: cluster power not modeled
        });
    }
    Ok(series)
}

// ----------------------------------------------------------- Figs. 4 & 5 --

/// One swept point of Fig. 4 / Fig. 5.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The swept value (concurrency for Fig. 4, set point for Fig. 5).
    pub x: f64,
    /// Mean ± std of the controlled p90 (ms).
    pub response: MeanStd,
}

/// Which plant backs the single-application sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlantKind {
    /// The exact discrete-event simulator (default; slower, faithful).
    #[default]
    Des,
    /// The instant MVA-backed analytic plant (tuning sweeps, CI).
    Analytic,
}

fn make_plant(
    kind: PlantKind,
    concurrency: usize,
    c0: &[f64],
    seed: u64,
) -> Result<Box<dyn Plant>> {
    let profile = WorkloadProfile::rubbos();
    Ok(match kind {
        PlantKind::Des => Box::new(AppSim::new(profile, concurrency, c0, seed)?),
        PlantKind::Analytic => Box::new(AnalyticPlant::new(profile, concurrency, c0, 0.45, seed)?),
    })
}

/// Identify once (at the given concurrency) and return the shared model —
/// Figs. 4/5 deliberately reuse the model identified at concurrency 40
/// while the actual workload differs.
pub fn identify_reference_model(
    concurrency: usize,
    ident: &IdentificationConfig,
    seed: u64,
) -> Result<ArxModel> {
    let profile = WorkloadProfile::rubbos();
    let n = profile.n_tiers();
    let mut twin = AppSim::new(profile, concurrency, &vec![1.0; n], seed)?;
    identify_plant(&mut twin, ident, seed)
}

/// Run one application under its controller and report tail statistics.
#[allow(clippy::too_many_arguments)]
fn run_single_app(
    model: &ArxModel,
    setpoint_ms: f64,
    concurrency: usize,
    period_s: f64,
    warmup: usize,
    measure: usize,
    seed: u64,
    kind: PlantKind,
) -> Result<MeanStd> {
    let n = model.n_inputs();
    let c0 = vec![1.0; n];
    let mut plant = make_plant(kind, concurrency, &c0, seed)?;
    let mut ctrl = ResponseTimeController::new(model.clone(), setpoint_ms, period_s, &c0)?;
    for _ in 0..warmup {
        ctrl.control_period(plant.as_mut())?;
    }
    let mut vals = Vec::with_capacity(measure);
    for _ in 0..measure {
        if let Some(t) = ctrl.control_period(plant.as_mut())? {
            vals.push(t);
        }
    }
    Ok(MeanStd::from_samples(&vals))
}

/// Fig. 4: response time under concurrency levels different from the one
/// the controller was identified at.
pub fn fig4(
    concurrencies: &[usize],
    setpoint_ms: f64,
    ident: &IdentificationConfig,
    warmup: usize,
    measure: usize,
    seed: u64,
) -> Result<Vec<SweepPoint>> {
    fig4_with_plant(
        concurrencies,
        setpoint_ms,
        ident,
        warmup,
        measure,
        seed,
        PlantKind::Des,
    )
}

/// [`fig4`] with an explicit plant backend (`PlantKind::Analytic` runs the
/// whole sweep in milliseconds).
#[allow(clippy::too_many_arguments)]
pub fn fig4_with_plant(
    concurrencies: &[usize],
    setpoint_ms: f64,
    ident: &IdentificationConfig,
    warmup: usize,
    measure: usize,
    seed: u64,
    kind: PlantKind,
) -> Result<Vec<SweepPoint>> {
    let model = identify_reference_model(40, ident, seed)?;
    concurrencies
        .iter()
        .map(|&c| {
            let r = run_single_app(
                &model,
                setpoint_ms,
                c,
                ident.period_s,
                warmup,
                measure,
                seed.wrapping_add(c as u64),
                kind,
            )?;
            Ok(SweepPoint {
                x: c as f64,
                response: r,
            })
        })
        .collect()
}

/// Fig. 5: response time across set points (600–1300 ms in the paper).
pub fn fig5(
    setpoints_ms: &[f64],
    concurrency: usize,
    ident: &IdentificationConfig,
    warmup: usize,
    measure: usize,
    seed: u64,
) -> Result<Vec<SweepPoint>> {
    fig5_with_plant(
        setpoints_ms,
        concurrency,
        ident,
        warmup,
        measure,
        seed,
        PlantKind::Des,
    )
}

/// [`fig5`] with an explicit plant backend.
#[allow(clippy::too_many_arguments)]
pub fn fig5_with_plant(
    setpoints_ms: &[f64],
    concurrency: usize,
    ident: &IdentificationConfig,
    warmup: usize,
    measure: usize,
    seed: u64,
    kind: PlantKind,
) -> Result<Vec<SweepPoint>> {
    let model = identify_reference_model(40, ident, seed)?;
    setpoints_ms
        .iter()
        .map(|&ts| {
            let r = run_single_app(
                &model,
                ts,
                concurrency,
                ident.period_s,
                warmup,
                measure,
                seed.wrapping_add(ts as u64),
                kind,
            )?;
            Ok(SweepPoint { x: ts, response: r })
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 6 --

/// One Fig. 6 point: both schemes at one data-center size.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Number of VMs in this simulated data center.
    pub n_vms: usize,
    /// IPAC result.
    pub ipac: LargeScaleResult,
    /// pMapper result.
    pub pmapper: LargeScaleResult,
}

impl Fig6Point {
    /// Relative energy saving of IPAC vs pMapper (positive = IPAC better).
    pub fn saving_fraction(&self) -> f64 {
        if self.pmapper.energy_per_vm_wh <= 0.0 {
            return 0.0;
        }
        1.0 - self.ipac.energy_per_vm_wh / self.pmapper.energy_per_vm_wh
    }
}

/// Configuration of the Fig. 6 sweep.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Data-center sizes to sweep (number of VMs per point).
    pub sizes: Vec<usize>,
    /// Shared server-fleet size. `None` applies the paper ratio (3,000
    /// servers for 5,415 VMs) to the largest swept size. Ignored when
    /// `fleet_spec` is set.
    pub fleet: Option<usize>,
    /// Shard count for the across-sizes fan-out (`0` = host parallelism).
    pub shards: usize,
    /// Heterogeneous multi-site fleet shared by every swept size. `None`
    /// keeps the legacy homogeneous-catalog fleet of `fleet` servers.
    pub fleet_spec: Option<FleetSpec>,
}

impl Fig6Config {
    /// Sweep the given sizes with the paper-ratio fleet at host parallelism.
    pub fn new(sizes: impl Into<Vec<usize>>) -> Fig6Config {
        Fig6Config {
            sizes: sizes.into(),
            fleet: None,
            shards: 0,
            fleet_spec: None,
        }
    }
}

/// Fig. 6: energy per VM for IPAC vs pMapper across data-center sizes,
/// parallelized across sizes on the [`crate::shard`] substrate. Each swept
/// size is one shard-map element; results come back in sweep order, so the
/// output is identical for every shard count.
///
/// Every size runs against the **same fixed server fleet** (the paper uses
/// one pool of 3,000 simulated servers for all 54 data centers): small data
/// centers occupy only the most power-efficient machines, large ones are
/// forced onto less efficient types — which is what makes energy-per-VM
/// rise with the VM count in Fig. 6.
pub fn fig6(trace: &UtilizationTrace, cfg: &Fig6Config) -> Result<Vec<Fig6Point>> {
    let fleet = cfg.fleet.unwrap_or_else(|| {
        // Paper ratio: 3,000 servers for 5,415 VMs.
        let max_size = cfg.sizes.iter().copied().max().unwrap_or(1);
        ((max_size as f64 * 3000.0 / 5415.0).ceil() as usize).max(8)
    });
    crate::shard::map_indices(cfg.sizes.len(), cfg.shards, |i| {
        let n_vms = cfg.sizes[i];
        let mut ipac_cfg = LargeScaleConfig::new(n_vms, OptimizerKind::Ipac);
        ipac_cfg.n_servers = Some(fleet);
        ipac_cfg.fleet = cfg.fleet_spec.clone();
        let mut pmap_cfg = LargeScaleConfig::new(n_vms, OptimizerKind::Pmapper);
        pmap_cfg.n_servers = Some(fleet);
        pmap_cfg.fleet = cfg.fleet_spec.clone();
        let opts = RunOptions::default();
        let ipac = run_large_scale(trace, &ipac_cfg, &opts)?;
        let pmapper = run_large_scale(trace, &pmap_cfg, &opts)?;
        Ok(Fig6Point {
            n_vms,
            ipac,
            pmapper,
        })
    })
    .into_iter()
    .collect()
}

/// Ablation (ABL1 in DESIGN.md): IPAC with and without DVFS, plus pMapper,
/// at one size — separates the paper's two claimed saving sources.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Size used.
    pub n_vms: usize,
    /// IPAC with DVFS.
    pub ipac: LargeScaleResult,
    /// IPAC without DVFS.
    pub ipac_no_dvfs: LargeScaleResult,
    /// pMapper.
    pub pmapper: LargeScaleResult,
}

/// Run the DVFS ablation.
pub fn ablation_dvfs(trace: &UtilizationTrace, n_vms: usize) -> Result<AblationResult> {
    let opts = RunOptions::default();
    Ok(AblationResult {
        n_vms,
        ipac: run_large_scale(
            trace,
            &LargeScaleConfig::new(n_vms, OptimizerKind::Ipac),
            &opts,
        )?,
        ipac_no_dvfs: run_large_scale(
            trace,
            &LargeScaleConfig::new(n_vms, OptimizerKind::IpacNoDvfs),
            &opts,
        )?,
        pmapper: run_large_scale(
            trace,
            &LargeScaleConfig::new(n_vms, OptimizerKind::Pmapper),
            &opts,
        )?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_trace::{generate_trace, TraceConfig};

    #[test]
    fn mean_std_basics() {
        let m = MeanStd::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.mean, 5.0);
        assert_eq!(m.std, 2.0);
        assert_eq!(m.n, 8);
        let empty = MeanStd::from_samples(&[]);
        assert_eq!(empty.n, 0);
    }

    #[test]
    fn fig6_parallel_matches_expectation() {
        let trace = generate_trace(&TraceConfig {
            n_vms: 60,
            n_samples: 48, // half a day keeps the test fast
            interval_s: 900.0,
            seed: 5,
        });
        let points = fig6(&trace, &Fig6Config::new([20, 40, 60])).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.ipac.energy_per_vm_wh > 0.0);
            assert!(p.pmapper.energy_per_vm_wh > 0.0);
            assert!(
                p.saving_fraction() > 0.0,
                "IPAC should save energy at n = {}: {:?}",
                p.n_vms,
                p.saving_fraction()
            );
        }
    }

    #[test]
    fn fig6_shard_count_does_not_change_results() {
        let trace = generate_trace(&TraceConfig {
            n_vms: 40,
            n_samples: 24,
            interval_s: 900.0,
            seed: 7,
        });
        let sizes = vec![10usize, 25, 40];
        let single = fig6(
            &trace,
            &Fig6Config {
                shards: 1,
                ..Fig6Config::new(sizes.clone())
            },
        )
        .unwrap();
        for shards in [2usize, 8] {
            let sharded = fig6(
                &trace,
                &Fig6Config {
                    shards,
                    ..Fig6Config::new(sizes.clone())
                },
            )
            .unwrap();
            assert_eq!(sharded.len(), single.len());
            for (a, b) in sharded.iter().zip(&single) {
                assert_eq!(a.n_vms, b.n_vms);
                assert_eq!(
                    a.ipac.total_energy_wh.to_bits(),
                    b.ipac.total_energy_wh.to_bits(),
                    "shards={shards} n={}",
                    a.n_vms
                );
                assert_eq!(
                    a.pmapper.total_energy_wh.to_bits(),
                    b.pmapper.total_energy_wh.to_bits()
                );
                assert_eq!(a.ipac.migrations, b.ipac.migrations);
                assert_eq!(a.ipac.final_placements, b.ipac.final_placements);
            }
        }
    }

    #[test]
    fn ablation_orders_sanely() {
        let trace = generate_trace(&TraceConfig {
            n_vms: 40,
            n_samples: 48,
            interval_s: 900.0,
            seed: 6,
        });
        let a = ablation_dvfs(&trace, 40).unwrap();
        assert!(a.ipac.energy_per_vm_wh <= a.ipac_no_dvfs.energy_per_vm_wh);
        assert!(a.ipac.energy_per_vm_wh <= a.pmapper.energy_per_vm_wh);
    }
}
