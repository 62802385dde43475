//! The application-level response-time controller (§IV), bound to a
//! simulated multi-tier plant.
//!
//! Combines the pieces the paper describes: system identification of the
//! eq. (1) model by PRBS excitation and least squares, then an MPC
//! controller tracking the 90-percentile response time by adjusting the
//! per-tier CPU allocations every control period.

use crate::{CoreError, Result};
use vdc_apptier::monitor::SlaMetric;
use vdc_apptier::Plant;
use vdc_control::sysid::{fit_arx, ExperimentData, Prbs};
use vdc_control::{ArxModel, MpcConfig, MpcController, ReferenceTrajectory};

/// Nominal reference time constant, as a multiple of the control period.
const REFERENCE_TC_PERIODS: f64 = 3.0;

/// How much the reference band widens while re-entering closed loop after
/// a sensor outage: the first clean sample steps toward the set point this
/// much slower, so a single post-outage measurement can't command an
/// aggressive allocation move.
const SAFE_MODE_REFERENCE_SCALE: f64 = 3.0;

/// Low PRBS allocation level per tier (GHz) of the identification
/// experiment.
const PRBS_LOW_GHZ: f64 = 0.45;
/// High PRBS allocation level per tier (GHz).
const PRBS_HIGH_GHZ: f64 = 1.3;

/// Configuration of the identification experiment (§IV-B / §VI-A: the
/// paper identifies at concurrency 40).
#[derive(Debug, Clone)]
pub struct IdentificationConfig {
    /// Number of control periods to excite.
    pub periods: usize,
    /// Control period (seconds).
    pub period_s: f64,
    /// Hold length of each PRBS level, in periods.
    pub hold: usize,
    /// ARX output lags (paper's example: 1).
    pub na: usize,
    /// ARX input lags (paper's example: 2).
    pub nb: usize,
    /// Which response-time statistic to identify against. The paper uses
    /// the 90th percentile but notes the solution "can be extended to
    /// control other SLAs such as average or maximum response times"
    /// (§III); the controller must use the same metric it was identified
    /// with.
    pub metric: SlaMetric,
}

impl Default for IdentificationConfig {
    fn default() -> Self {
        IdentificationConfig {
            periods: 220,
            period_s: 4.0,
            hold: 3,
            na: 1,
            nb: 2,
            metric: SlaMetric::P90,
        }
    }
}

/// Identify an eq. (1)-style ARX model for `plant` by PRBS excitation.
///
/// The plant is driven for `cfg.periods` control periods with independent
/// per-tier PRBS allocation signals; the 90-percentile response time of
/// each period is regressed on the allocation history. The plant is
/// *consumed* mutably — identify on a dedicated instance (or accept the
/// warm-up perturbation, as a real testbed would).
pub fn identify_plant<P: Plant + ?Sized>(
    plant: &mut P,
    cfg: &IdentificationConfig,
    seed: u64,
) -> Result<ArxModel> {
    let n_tiers = plant.n_tiers();
    let mut prbs: Vec<Prbs> = (0..n_tiers)
        .map(|i| {
            Prbs::new(
                PRBS_LOW_GHZ,
                PRBS_HIGH_GHZ,
                cfg.hold + i % 2, // decorrelate tiers with different holds
                (seed as u16).wrapping_add(101 * i as u16 + 1),
            )
        })
        .collect();
    let mut data = ExperimentData::new();
    for _ in 0..cfg.periods {
        let alloc: Vec<f64> = prbs.iter_mut().map(|p| p.next_level()).collect();
        plant.set_allocations(&alloc)?;
        plant.run_for(cfg.period_s);
        let Some(value) = plant.measure(cfg.metric) else {
            // Starved period: skip the sample (no measurement, like a
            // monitor timeout on the real testbed).
            continue;
        };
        data.push(alloc, value * 1000.0); // seconds → ms
    }
    let fit = fit_arx(&data, cfg.na, cfg.nb)?;
    Ok(fit.model)
}

/// A response-time controller bound to one application.
#[derive(Debug, Clone)]
pub struct ResponseTimeController {
    mpc: MpcController,
    period_s: f64,
    /// The SLA statistic this controller regulates (default: p90).
    metric: SlaMetric,
    /// Most recent measured 90-percentile response time (ms).
    last_measurement_ms: Option<f64>,
    /// EWMA-filtered measurement fed to the MPC. Per-period p90 estimates
    /// over ~100 requests are heavy-tailed; light filtering keeps the
    /// controller from chasing sampling noise.
    filtered_ms: Option<f64>,
    /// Sensor-dropout safe mode: the monitor is down, the allocation is
    /// frozen at its last-good value, and the reference band is widened
    /// for re-entry. Cleared by the first clean sample.
    safe_mode: bool,
}

/// EWMA weight of the newest p90 sample.
const MEASUREMENT_EWMA_ALPHA: f64 = 0.5;

impl ResponseTimeController {
    /// Build a controller from an identified model.
    ///
    /// `setpoint_ms` is the SLA target; `c0` the initial per-tier
    /// allocation (GHz).
    pub fn new(
        model: ArxModel,
        setpoint_ms: f64,
        period_s: f64,
        c0: &[f64],
    ) -> Result<ResponseTimeController> {
        if !(setpoint_ms.is_finite() && setpoint_ms > 0.0) {
            return Err(CoreError::BadConfig(format!(
                "setpoint {setpoint_ms} ms must be positive"
            )));
        }
        let n = model.n_inputs();
        let reference = ReferenceTrajectory::new(period_s, REFERENCE_TC_PERIODS * period_s)
            .map_err(CoreError::Control)?;
        let cfg = MpcConfig {
            prediction_horizon: 10,
            control_horizon: 3,
            q_weight: 1.0,
            // The tracking error is in ms² (~1e4–1e5 per period near the
            // set point), so the move penalty must be of comparable scale
            // to damp noise-chasing: 0.3 GHz moves cost ~0.09 · 4e4 ≈ 4e3.
            r_weight: vec![4.0e4; n],
            reference,
            setpoint: setpoint_ms,
            // Stay inside the identified operating region: far below the
            // PRBS low level the linearized gains are badly wrong.
            c_min: vec![0.3; n],
            c_max: vec![3.0; n],
            delta_max: Some(0.3),
        };
        let mpc = MpcController::new(model, cfg, c0)?;
        Ok(ResponseTimeController {
            mpc,
            period_s,
            metric: SlaMetric::P90,
            last_measurement_ms: None,
            filtered_ms: None,
            safe_mode: false,
        })
    }

    /// Change the regulated SLA statistic (§III: "can be extended to
    /// control other SLAs such as average or maximum response times").
    /// Use the same metric the model was identified with.
    pub fn set_metric(&mut self, metric: SlaMetric) {
        self.metric = metric;
    }

    /// Attach a telemetry sink to the underlying MPC (phase-split timings
    /// and solver-fallback counters; see [`MpcController::set_telemetry`]).
    pub(crate) fn set_telemetry(&mut self, telemetry: vdc_telemetry::Telemetry) {
        self.mpc.set_telemetry(telemetry);
    }

    /// Override the per-tier allocation bounds (GHz). The edit happens in
    /// place: controller state resets as a rebuild would, but the MPC's
    /// cached step-response matrix survives (it depends only on the model
    /// and horizons). Invalid bounds (non-finite, inverted, or infeasible
    /// against the rate limit) are rejected: the error is returned, a
    /// `control.bad_bounds` telemetry counter ticks, and the previous
    /// bounds stay in force.
    pub(crate) fn set_bounds(&mut self, c_min: f64, c_max: f64) -> Result<()> {
        let n = self.mpc.model().n_inputs();
        self.mpc
            .set_allocation_bounds(vec![c_min; n], vec![c_max; n])
            .map_err(|e| {
                self.mpc.telemetry().incr("control.bad_bounds", 1);
                CoreError::Control(e)
            })
    }

    /// Control period (seconds).
    pub(crate) fn period_s(&self) -> f64 {
        self.period_s
    }

    /// Change the set point (ms) at run time.
    pub fn set_setpoint(&mut self, setpoint_ms: f64) {
        self.mpc.set_setpoint(setpoint_ms);
    }

    /// Current set point (ms).
    pub(crate) fn setpoint(&self) -> f64 {
        self.mpc.config().setpoint
    }

    /// Currently applied allocation (GHz per tier).
    pub fn allocation(&self) -> &[f64] {
        self.mpc.current_allocation()
    }

    /// Most recent measurement fed to the controller (ms).
    pub(crate) fn last_measurement_ms(&self) -> Option<f64> {
        self.last_measurement_ms
    }

    /// Whether the controller is holding in sensor-dropout safe mode.
    pub(crate) fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    /// Run one control period with the response-time sensor *down*: the
    /// plant advances under the frozen last-good allocation, completions
    /// drain unseen (the monitor that would time them is the thing that
    /// failed), and no MPC step runs — stepping on a fabricated number
    /// would chase noise that isn't there. The first masked period enters
    /// safe mode: the EWMA filter resets (pre-outage dynamics are stale)
    /// and the reference band widens so re-entry is gentle. Returns
    /// `Ok(None)` always — a masked sample is *absent*, never `0.0`.
    pub(crate) fn control_period_masked<P: Plant + ?Sized>(
        &mut self,
        plant: &mut P,
    ) -> Result<Option<f64>> {
        plant.set_allocations(self.allocation())?;
        plant.run_for(self.period_s);
        let _ = plant.take_completed();
        if !self.safe_mode {
            self.safe_mode = true;
            if let Ok(wide) = ReferenceTrajectory::new(
                self.period_s,
                SAFE_MODE_REFERENCE_SCALE * REFERENCE_TC_PERIODS * self.period_s,
            ) {
                self.mpc.set_reference(wide);
            }
        }
        self.last_measurement_ms = None;
        self.filtered_ms = None;
        Ok(None)
    }

    /// Run one control period against the plant: simulate `period_s`
    /// seconds, measure the 90-percentile response time, and compute and
    /// apply the next allocation. Returns the measurement (ms) if any
    /// requests completed.
    pub fn control_period<P: Plant + ?Sized>(&mut self, plant: &mut P) -> Result<Option<f64>> {
        plant.set_allocations(self.allocation())?;
        plant.run_for(self.period_s);
        let Some(measured_s) = plant.measure(self.metric) else {
            // No completions (severely starved): push allocations up by the
            // rate limit to recover, as a watchdog would.
            let bumped: Vec<f64> = self
                .allocation()
                .iter()
                .map(|&c| (c + 0.2).min(self.mpc.config().c_max[0]))
                .collect();
            let t_guess = self.setpoint() * 4.0;
            let _ = self.mpc.step(t_guess)?;
            // Overwrite the MPC's move with the watchdog bump if larger.
            let current = self.mpc.current_allocation().to_vec();
            let merged: Vec<f64> = current
                .iter()
                .zip(&bumped)
                .map(|(&a, &b)| a.max(b))
                .collect();
            self.force_allocation(&merged);
            self.last_measurement_ms = None;
            return Ok(None);
        };
        let t_ms = measured_s * 1000.0;
        self.last_measurement_ms = Some(t_ms);
        let filtered = match self.filtered_ms {
            Some(prev) => MEASUREMENT_EWMA_ALPHA * t_ms + (1.0 - MEASUREMENT_EWMA_ALPHA) * prev,
            None => t_ms,
        };
        self.filtered_ms = Some(filtered);
        let _step = self.mpc.step(filtered)?;
        if self.safe_mode {
            // First clean sample after a sensor outage: the step above ran
            // against the widened band; restore the nominal reference and
            // re-enter normal closed-loop operation.
            self.safe_mode = false;
            if let Ok(nominal) =
                ReferenceTrajectory::new(self.period_s, REFERENCE_TC_PERIODS * self.period_s)
            {
                self.mpc.set_reference(nominal);
            }
        }
        Ok(Some(t_ms))
    }

    fn force_allocation(&mut self, alloc: &[f64]) {
        // Reset the MPC state at the forced allocation, keeping the model,
        // config, and cached predictor; histories reset, which is
        // acceptable after a starvation event (the old dynamics are stale
        // anyway).
        let _ = self.mpc.force_allocation(alloc);
    }

    /// Mutable access to the wrapped MPC, for the cooling-coupled spec
    /// (its energy weight) and the PUE feed, without widening the public
    /// surface.
    pub(crate) fn mpc_mut(&mut self) -> &mut MpcController {
        &mut self.mpc
    }
}

// The sharded co-sim ships each application's controller to a scoped
// worker thread (`crate::shard::map_slice_mut`), so the controller must
// stay `Send` — enforced here at compile time rather than discovered as a
// cryptic trait error at the spawn site if someone adds an `Rc`/`RefCell`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ResponseTimeController>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use vdc_apptier::{AppSim, WorkloadProfile};

    fn plant(concurrency: usize, seed: u64) -> AppSim {
        AppSim::new(WorkloadProfile::rubbos(), concurrency, &[1.0, 1.0], seed).unwrap()
    }

    fn quick_ident_cfg() -> IdentificationConfig {
        IdentificationConfig {
            periods: 150,
            ..Default::default()
        }
    }

    #[test]
    fn identification_produces_sensible_model() {
        let mut p = plant(40, 1);
        let model = identify_plant(&mut p, &quick_ident_cfg(), 11).unwrap();
        assert_eq!(model.n_inputs(), 2);
        assert_eq!(model.na(), 1);
        assert_eq!(model.nb(), 2);
        // More CPU must lower response time: negative DC gains.
        for ch in 0..2 {
            let g = model.dc_gain(ch).expect("non-integrating model");
            assert!(g < 0.0, "channel {ch} gain {g} should be negative");
        }
        // Stable AR part.
        assert!(model.a()[0].abs() < 1.0, "a = {:?}", model.a());
    }

    #[test]
    fn controller_converges_to_setpoint_on_real_plant() {
        let mut ident = plant(40, 2);
        let model = identify_plant(&mut ident, &quick_ident_cfg(), 22).unwrap();
        let mut ctrl = ResponseTimeController::new(model, 1000.0, 4.0, &[1.0, 1.0]).unwrap();
        let mut run = plant(40, 3);
        let mut tail = Vec::new();
        for k in 0..120 {
            if let Some(t) = ctrl.control_period(&mut run).unwrap() {
                if k >= 80 {
                    tail.push(t);
                }
            }
        }
        assert!(tail.len() > 20, "controller starved the plant");
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 1000.0).abs() < 150.0,
            "steady-state p90 {mean} ms should track the 1000 ms set point"
        );
    }

    #[test]
    fn controller_validates_setpoint() {
        let model = ArxModel::new(vec![0.4], vec![vec![-100.0, -80.0]], 1200.0).unwrap();
        for setpoint in [0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let c = ResponseTimeController::new(model.clone(), setpoint, 4.0, &[1.0, 1.0]);
            assert!(c.is_err(), "setpoint {setpoint} accepted");
        }
    }

    #[test]
    fn setpoint_change_applies() {
        let model = ArxModel::new(vec![0.4], vec![vec![-100.0, -80.0]], 1200.0).unwrap();
        let mut c = ResponseTimeController::new(model, 1000.0, 4.0, &[1.0, 1.0]).unwrap();
        assert_eq!(c.setpoint(), 1000.0);
        c.set_setpoint(700.0);
        assert_eq!(c.setpoint(), 700.0);
        assert_eq!(c.period_s(), 4.0);
        assert!((c.allocation().iter().sum::<f64>() - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod metric_tests {
    use super::*;
    use vdc_apptier::{AppSim, WorkloadProfile};

    /// §III extension: control the *mean* response time instead of the
    /// 90th percentile. Identification and control must share the metric.
    #[test]
    fn mean_response_time_is_controllable() {
        let ident = IdentificationConfig {
            periods: 140,
            metric: SlaMetric::Mean,
            ..Default::default()
        };
        let mut twin = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 41).unwrap();
        let model = identify_plant(&mut twin, &ident, 41).unwrap();
        // Target the mean at 600 ms (mean sits well below the p90).
        let mut ctrl = ResponseTimeController::new(model, 600.0, 4.0, &[1.0, 1.0]).unwrap();
        ctrl.set_metric(SlaMetric::Mean);
        assert_eq!(ctrl.metric, SlaMetric::Mean);
        let mut plant = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 43).unwrap();
        let mut tail = Vec::new();
        for k in 0..110 {
            if let Some(t) = ctrl.control_period(&mut plant).unwrap() {
                if k >= 70 {
                    tail.push(t);
                }
            }
        }
        let mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
        assert!(
            (mean - 600.0).abs() < 120.0,
            "controlled mean {mean:.0} ms vs 600 ms target"
        );
    }

    /// Identification under the mean metric produces lower bias/levels
    /// than under p90 (the mean is below the tail by construction).
    #[test]
    fn metric_choice_shifts_identified_level() {
        let mk = |metric| IdentificationConfig {
            periods: 130,
            metric,
            ..Default::default()
        };
        let mut twin_a = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 5).unwrap();
        let m_mean = identify_plant(&mut twin_a, &mk(SlaMetric::Mean), 5).unwrap();
        let mut twin_b = AppSim::new(WorkloadProfile::rubbos(), 30, &[1.0, 1.0], 5).unwrap();
        let m_p90 = identify_plant(&mut twin_b, &mk(SlaMetric::P90), 5).unwrap();
        // Compare steady-state predictions at a common operating point.
        let at = |m: &vdc_control::ArxModel| {
            let denom = 1.0 - m.a().iter().sum::<f64>();
            let num: f64 = m.b().iter().flat_map(|lag| lag.iter()).sum::<f64>();
            (m.bias() + num * 1.0) / denom
        };
        assert!(
            at(&m_mean) < at(&m_p90),
            "mean level {:.0} must sit below p90 level {:.0}",
            at(&m_mean),
            at(&m_p90)
        );
    }
}
