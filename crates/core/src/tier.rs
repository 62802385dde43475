//! The pluggable controller seam: [`TierController`] and [`ControllerSpec`].
//!
//! The paper's MPC ([`ResponseTimeController`]) is one point in a design
//! space. This module turns the application-control layer into a real seam:
//! an object-safe trait every run loop (`cosim`, `testbed`, faults) drives
//! through `Box<dyn TierController>`, with two implementations and three
//! specs —
//!
//! * **`mpc`** — the paper's §IV controller, [`ResponseTimeController`],
//!   unchanged. The default, and bit-identical to the pre-seam code path.
//! * **`robust`** — [`RobustTierController`], the model-free fixed-gain
//!   provisioning law of [`vdc_control::robust`] (after Makridis et al.,
//!   arXiv:1811.05533), wrapped with the same plant-loop mechanics
//!   (measure → filter → move, starvation watchdog, sensor-dropout safe
//!   mode).
//! * **`cooling`** — the cooling-coupled MPC (after Ogura et al.,
//!   arXiv:1806.03375): a [`ResponseTimeController`] whose MPC has a
//!   non-zero weight on the PUE-weighted allocation-level term of
//!   [`vdc_control::MpcController`]. The PUE arrives per sample through
//!   [`TierController::observe_pue`] from the fleet layer's `PueSeries`.
//!
//! Selection is data, not code: [`ControllerSpec`] travels on
//! `RunOptions` and builds the boxed controller from the identified model.
//!
//! ## Trait contract
//!
//! Implementations must uphold, and the conformance suite
//! (`tests/controller_conformance.rs`) checks, the following:
//!
//! * `control_period` advances the plant exactly `period_s` seconds under
//!   the *currently applied* allocation, then computes the next one.
//!   Returns `Ok(Some(t_ms))` for a clean measurement, `Ok(None)` when the
//!   period starved (no completions).
//! * `control_period_masked` is the sensor-down variant: the plant still
//!   advances (requests drain unseen), the allocation freezes at its
//!   last-good value, and *no* control law runs. The first masked period
//!   enters safe mode; the first clean `control_period` afterwards exits
//!   it. Masked periods always return `Ok(None)` — an absent sample is
//!   never `0.0`.
//! * `set_bounds` with invalid bounds (non-finite, inverted, infeasible)
//!   returns `Err`, ticks a `control.bad_bounds` telemetry counter, and
//!   leaves the previous bounds in force. It must never partially apply.
//! * `allocation()` is always inside the configured box, and never moves
//!   while in safe mode.
//! * `observe_pue` is feed-forward only: it may not change a control move
//!   unless the controller prices cooling. The robust law ignores it (the
//!   default no-op); the paper MPC records it, and its zero energy weight
//!   keeps it inert.

use crate::controller::ResponseTimeController;
use crate::{CoreError, Result};
use vdc_apptier::monitor::SlaMetric;
use vdc_apptier::Plant;
use vdc_control::{ArxModel, RobustConfig, RobustController};
use vdc_telemetry::Telemetry;

/// An application-level controller bound to one multi-tier plant: the
/// object-safe seam the run loops drive. See the module docs for the
/// behavioral contract.
pub trait TierController: Send + std::fmt::Debug {
    /// Run one control period against the plant and apply the next
    /// allocation. `Ok(Some(t_ms))` on a clean measurement, `Ok(None)`
    /// when the period starved.
    fn control_period(&mut self, plant: &mut dyn Plant) -> Result<Option<f64>>;

    /// Run one control period with the response-time sensor down: freeze
    /// the allocation, drain completions unseen, enter safe mode on the
    /// first masked period. Always `Ok(None)`.
    fn control_period_masked(&mut self, plant: &mut dyn Plant) -> Result<Option<f64>>;

    /// Currently applied allocation (GHz per tier).
    fn allocation(&self) -> &[f64];

    /// Replace the per-tier allocation box (GHz). Invalid bounds return
    /// `Err`, tick `control.bad_bounds`, and leave the old box in force.
    fn set_bounds(&mut self, c_min: f64, c_max: f64) -> Result<()>;

    /// Change the response-time set point (ms) at run time.
    fn set_setpoint(&mut self, setpoint_ms: f64);

    /// Current set point (ms).
    fn setpoint(&self) -> f64;

    /// Control period (seconds).
    fn period_s(&self) -> f64;

    /// Whether the controller is holding in sensor-dropout safe mode.
    fn in_safe_mode(&self) -> bool;

    /// Most recent clean measurement fed to the controller (ms), if any.
    fn last_measurement_ms(&self) -> Option<f64>;

    /// Attach a telemetry sink. Telemetry only observes — attaching one
    /// must not change a single control move.
    fn set_telemetry(&mut self, telemetry: Telemetry);

    /// Feed the site's current PUE sample (feed-forward, from the fleet
    /// layer's `PueSeries`). Controllers that do not price cooling ignore
    /// it or hold it inert; the default is a no-op.
    fn observe_pue(&mut self, _pue: f64) {}

    /// Total CPU demand across tiers (GHz) — what the server-level
    /// arbitrators aggregate.
    fn total_demand_ghz(&self) -> f64 {
        self.allocation().iter().sum()
    }
}

/// Starvation-watchdog bump per period (GHz) — matches the MPC path's.
const WATCHDOG_BUMP_GHZ: f64 = 0.2;

/// The robust provisioning controller bound to a plant: the fixed-gain law
/// of [`vdc_control::robust`] plus the plant-loop mechanics every tier
/// controller needs (p90 measurement, starvation watchdog, sensor-dropout
/// safe mode).
#[derive(Debug, Clone)]
pub struct RobustTierController {
    law: RobustController,
    period_s: f64,
    metric: SlaMetric,
    last_measurement_ms: Option<f64>,
    safe_mode: bool,
}

impl RobustTierController {
    /// Build from the SLA target and initial allocation. The allocation
    /// box and rate limit come from [`RobustConfig::default`] and match
    /// the MPC path's (`c` in `[0.3, 3.0]` GHz, 0.3 GHz per period).
    pub(crate) fn new(setpoint_ms: f64, period_s: f64, c0: &[f64]) -> Result<RobustTierController> {
        if !(period_s.is_finite() && period_s > 0.0) {
            return Err(CoreError::BadConfig(format!(
                "control period {period_s} s must be positive"
            )));
        }
        let law = RobustController::new(setpoint_ms, RobustConfig::default(), c0)
            .map_err(CoreError::Control)?;
        Ok(RobustTierController {
            law,
            period_s,
            metric: SlaMetric::P90,
            last_measurement_ms: None,
            safe_mode: false,
        })
    }
}

impl TierController for RobustTierController {
    fn control_period(&mut self, plant: &mut dyn Plant) -> Result<Option<f64>> {
        plant.set_allocations(self.law.allocation())?;
        plant.run_for(self.period_s);
        let Some(measured_s) = plant.measure(self.metric) else {
            // Starved: watchdog-bump the allocation by the rate limit.
            let bumped: Vec<f64> = self
                .law
                .allocation()
                .iter()
                .map(|&c| c + WATCHDOG_BUMP_GHZ)
                .collect();
            self.law
                .force_allocation(&bumped)
                .map_err(CoreError::Control)?;
            self.last_measurement_ms = None;
            return Ok(None);
        };
        let t_ms = measured_s * 1000.0;
        self.last_measurement_ms = Some(t_ms);
        let _ = self.law.step(t_ms);
        if self.safe_mode {
            // First clean sample: the filter was reset on safe-mode entry,
            // so this step already moved gently; resume normal operation.
            self.safe_mode = false;
        }
        Ok(Some(t_ms))
    }

    fn control_period_masked(&mut self, plant: &mut dyn Plant) -> Result<Option<f64>> {
        plant.set_allocations(self.law.allocation())?;
        plant.run_for(self.period_s);
        let _ = plant.take_completed();
        if !self.safe_mode {
            self.safe_mode = true;
            // Pre-outage error history is stale; re-entry reseeds fresh.
            self.law.reset_filter();
        }
        self.last_measurement_ms = None;
        Ok(None)
    }

    fn allocation(&self) -> &[f64] {
        self.law.allocation()
    }

    fn set_bounds(&mut self, c_min: f64, c_max: f64) -> Result<()> {
        self.law.set_bounds(c_min, c_max).map_err(|e| {
            self.law.telemetry().incr("control.bad_bounds", 1);
            CoreError::Control(e)
        })
    }

    fn set_setpoint(&mut self, setpoint_ms: f64) {
        self.law.set_setpoint(setpoint_ms);
    }

    fn setpoint(&self) -> f64 {
        self.law.setpoint()
    }

    fn period_s(&self) -> f64 {
        self.period_s
    }

    fn in_safe_mode(&self) -> bool {
        self.safe_mode
    }

    fn last_measurement_ms(&self) -> Option<f64> {
        self.last_measurement_ms
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.law.set_telemetry(telemetry);
    }
}

/// Default energy weight for [`ControllerSpec::cooling`], in the MPC's
/// cost units (the tracking error is in ms², so allocation-level pressure
/// needs comparable scale — see `MpcController::set_energy_weight`). Tuned
/// against the `controllers` ablation: a visible energy saving at PUE ≈
/// 1.3–1.6 while the week trace still completes within its SLO budget.
pub const DEFAULT_COOLING_WEIGHT: f64 = 1.5e4;

/// Which tier controller a run builds for each application. Travels on
/// `RunOptions`; the run loops call
/// [`ControllerSpec::build`] with the identified model instead of
/// constructing a concrete controller type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ControllerSpec {
    /// The paper's MPC (§IV) — the default, bit-identical to the pre-seam
    /// code path.
    #[default]
    Mpc,
    /// The model-free robust provisioning law (Makridis et al.,
    /// arXiv:1811.05533). Ignores the identified model by design.
    Robust,
    /// The cooling-coupled MPC (Ogura et al., arXiv:1806.03375) with the
    /// given energy weight.
    CoolingMpc {
        /// Weight of the PUE-multiplied allocation-level term.
        energy_weight: f64,
    },
}

impl ControllerSpec {
    /// The cooling-coupled variant at [`DEFAULT_COOLING_WEIGHT`].
    pub fn cooling() -> ControllerSpec {
        ControllerSpec::CoolingMpc {
            energy_weight: DEFAULT_COOLING_WEIGHT,
        }
    }

    /// Stable short name for CLI flags and metrics labels.
    pub fn name(&self) -> &'static str {
        match self {
            ControllerSpec::Mpc => "mpc",
            ControllerSpec::Robust => "robust",
            ControllerSpec::CoolingMpc { .. } => "cooling",
        }
    }

    /// Build the boxed controller for one application from its identified
    /// model. The `Mpc` arm routes through [`ResponseTimeController::new`]
    /// with exactly the pre-seam arguments, so the default path stays
    /// bit-identical.
    pub fn build(
        &self,
        model: &ArxModel,
        setpoint_ms: f64,
        period_s: f64,
        c0: &[f64],
    ) -> Result<Box<dyn TierController>> {
        Ok(match *self {
            ControllerSpec::Mpc => Box::new(ResponseTimeController::new(
                model.clone(),
                setpoint_ms,
                period_s,
                c0,
            )?),
            ControllerSpec::Robust => {
                Box::new(RobustTierController::new(setpoint_ms, period_s, c0)?)
            }
            ControllerSpec::CoolingMpc { energy_weight } => {
                let mut rtc =
                    ResponseTimeController::new(model.clone(), setpoint_ms, period_s, c0)?;
                rtc.mpc_mut()
                    .set_energy_weight(energy_weight)
                    .map_err(CoreError::Control)?;
                Box::new(rtc)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    #[test]
    fn spec_names_and_default() {
        let names = [
            ControllerSpec::Mpc,
            ControllerSpec::Robust,
            ControllerSpec::cooling(),
        ]
        .map(|spec| spec.name());
        assert_eq!(names, ["mpc", "robust", "cooling"]);
        assert_eq!(ControllerSpec::default(), ControllerSpec::Mpc);
    }

    #[test]
    fn build_produces_working_controllers_of_each_kind() {
        for spec in [
            ControllerSpec::Mpc,
            ControllerSpec::Robust,
            ControllerSpec::cooling(),
        ] {
            let ctrl = spec.build(&model(), 1000.0, 4.0, &[1.0, 1.0]).unwrap();
            assert_eq!(ctrl.allocation(), &[1.0, 1.0], "{}", spec.name());
            assert_eq!(ctrl.setpoint(), 1000.0);
            assert_eq!(ctrl.period_s(), 4.0);
            assert!(!ctrl.in_safe_mode());
            assert!((ctrl.total_demand_ghz() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn build_rejects_bad_inputs() {
        assert!(ControllerSpec::Mpc
            .build(&model(), -5.0, 4.0, &[1.0, 1.0])
            .is_err());
        assert!(ControllerSpec::Robust
            .build(&model(), 1000.0, 0.0, &[1.0, 1.0])
            .is_err());
        assert!(ControllerSpec::CoolingMpc {
            energy_weight: -1.0
        }
        .build(&model(), 1000.0, 4.0, &[1.0, 1.0])
        .is_err());
    }

    #[test]
    fn bad_bounds_are_rejected_and_counted() {
        let telemetry = Telemetry::enabled();
        for spec in [
            ControllerSpec::Mpc,
            ControllerSpec::Robust,
            ControllerSpec::cooling(),
        ] {
            let mut ctrl = spec.build(&model(), 1000.0, 4.0, &[1.0, 1.0]).unwrap();
            ctrl.set_telemetry(telemetry.clone());
            assert!(ctrl.set_bounds(2.0, 1.0).is_err(), "{}", spec.name());
            assert!(ctrl.set_bounds(0.5, 2.5).is_ok(), "{}", spec.name());
        }
        let counters = telemetry.counter_values();
        let bad = counters
            .iter()
            .find(|(n, _)| n == "control.bad_bounds")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(bad, 3, "each controller must tick control.bad_bounds once");
    }

    #[test]
    fn observe_pue_is_recorded_and_inert_at_zero_weight() {
        // The paper MPC records the PUE; its zero energy weight keeps the
        // observation out of the control law.
        let mut mpc = ResponseTimeController::new(model(), 1000.0, 4.0, &[1.0, 1.0]).unwrap();
        assert_eq!(mpc.mpc_mut().pue(), 1.0);
        TierController::observe_pue(&mut mpc, 2.5);
        assert_eq!(mpc.mpc_mut().pue(), 2.5);
        assert_eq!(mpc.mpc_mut().energy_weight(), 0.0);
        // The robust law ignores it (the default no-op).
        let mut robust = ControllerSpec::Robust
            .build(&model(), 1000.0, 4.0, &[1.0, 1.0])
            .unwrap();
        robust.observe_pue(2.5);
        assert_eq!(robust.allocation(), &[1.0, 1.0]);
    }
}
