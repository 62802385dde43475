//! Robust dynamic provisioning controller (after Makridis et al.,
//! arXiv:1811.05533).
//!
//! Where the MPC of [`crate::mpc`] optimizes over an identified ARX model,
//! this controller is deliberately *model-free*: a fixed robust gain pair
//! acting on the EWMA-filtered **relative** response-time error
//!
//! ```text
//! e(k) = (t(k) − Ts) / Ts
//! ```
//!
//! in velocity (incremental) form,
//!
//! ```text
//! Δc(k) = Kp · (ē(k) − ē(k−1)) + Ki · ē(k)
//! ```
//!
//! applied uniformly to every tier and clamped to a per-period move bound
//! and the allocation box. The velocity form carries its integral action in
//! the *applied allocation* rather than an explicit integrator state, so
//! saturation cannot wind anything up, and the only dynamic state is the
//! filtered error — which is why the controller needs no re-identification
//! when the plant drifts: there is no model to go stale. The price is
//! slower, first-order convergence and no per-tier preference shaping; the
//! paper's MPC wins on tracking, this controller wins on robustness to
//! model mismatch and on cost (no least-squares solve per period).

use crate::{ControlError, Result};
use vdc_telemetry::Telemetry;

/// Configuration of the robust provisioning controller.
#[derive(Debug, Clone)]
pub struct RobustConfig {
    /// Proportional gain on the filtered relative-error *increment*
    /// (GHz per unit of relative error).
    pub kp: f64,
    /// Integral gain on the filtered relative error (GHz per period per
    /// unit of relative error). Must be positive — this is the term that
    /// makes tracking offset-free.
    pub ki: f64,
    /// EWMA weight of the newest relative-error sample, in `(0, 1]`.
    pub filter_alpha: f64,
    /// Relative-error deadband: filtered errors within it hold the
    /// allocation (no noise-chasing near the set point).
    pub deadband: f64,
    /// Per-tier minimum allocation (GHz).
    pub c_min: f64,
    /// Per-tier maximum allocation (GHz).
    pub c_max: f64,
    /// Per-period move bound (GHz).
    pub delta_max: f64,
}

impl Default for RobustConfig {
    /// Gains sized for the workspace's RUBBoS-like plants: the same
    /// allocation box and rate limit the MPC controller uses, a half-weight
    /// error filter, and a 2 % deadband.
    fn default() -> Self {
        RobustConfig {
            kp: 0.8,
            ki: 0.35,
            filter_alpha: 0.5,
            deadband: 0.02,
            c_min: 0.3,
            c_max: 3.0,
            delta_max: 0.3,
        }
    }
}

impl RobustConfig {
    fn validate(&self) -> Result<()> {
        if !self.kp.is_finite() || self.kp < 0.0 {
            return Err(ControlError::BadConfig(format!(
                "kp {} must be finite and >= 0",
                self.kp
            )));
        }
        if !self.ki.is_finite() || self.ki <= 0.0 {
            return Err(ControlError::BadConfig(format!(
                "ki {} must be finite and > 0 (integral action is what tracks)",
                self.ki
            )));
        }
        if !(self.filter_alpha > 0.0 && self.filter_alpha <= 1.0) {
            return Err(ControlError::BadConfig(format!(
                "filter_alpha {} must be in (0, 1]",
                self.filter_alpha
            )));
        }
        if !self.deadband.is_finite() || self.deadband < 0.0 {
            return Err(ControlError::BadConfig(format!(
                "deadband {} must be finite and >= 0",
                self.deadband
            )));
        }
        if !self.c_min.is_finite() || !self.c_max.is_finite() || self.c_min > self.c_max {
            return Err(ControlError::BadConfig(format!(
                "allocation bounds [{}, {}] must be finite with c_min <= c_max",
                self.c_min, self.c_max
            )));
        }
        if !self.delta_max.is_finite() || self.delta_max <= 0.0 {
            return Err(ControlError::BadConfig(format!(
                "delta_max {} must be finite and > 0",
                self.delta_max
            )));
        }
        Ok(())
    }
}

/// The model-free robust controller: fixed gains, filtered relative error,
/// bounded moves. See the module docs for the control law.
#[derive(Debug, Clone)]
pub struct RobustController {
    cfg: RobustConfig,
    setpoint_ms: f64,
    alloc: Vec<f64>,
    /// EWMA-filtered relative error `ē(k)`.
    filtered_error: Option<f64>,
    /// Previous filtered error `ē(k−1)` for the velocity term.
    prev_error: Option<f64>,
    telemetry: Telemetry,
}

impl RobustController {
    /// Build a controller targeting `setpoint_ms` from the initial per-tier
    /// allocation `c0` (clamped into the configured box).
    pub fn new(setpoint_ms: f64, cfg: RobustConfig, c0: &[f64]) -> Result<RobustController> {
        cfg.validate()?;
        if !(setpoint_ms.is_finite() && setpoint_ms > 0.0) {
            return Err(ControlError::BadConfig(format!(
                "setpoint {setpoint_ms} ms must be positive"
            )));
        }
        if c0.is_empty() {
            return Err(ControlError::BadDimensions("need at least one tier".into()));
        }
        let alloc = c0.iter().map(|c| c.clamp(cfg.c_min, cfg.c_max)).collect();
        Ok(RobustController {
            cfg,
            setpoint_ms,
            alloc,
            filtered_error: None,
            prev_error: None,
            telemetry: Telemetry::disabled(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &RobustConfig {
        &self.cfg
    }

    /// Currently applied allocation (GHz per tier).
    pub fn allocation(&self) -> &[f64] {
        &self.alloc
    }

    /// Current set point (ms).
    pub fn setpoint(&self) -> f64 {
        self.setpoint_ms
    }

    /// Change the set point (ms) at run time; non-positive or non-finite
    /// values are ignored (the relative error divides by the set point).
    pub fn set_setpoint(&mut self, setpoint_ms: f64) {
        if setpoint_ms.is_finite() && setpoint_ms > 0.0 {
            self.setpoint_ms = setpoint_ms;
        }
    }

    /// Replace the allocation box in place. The applied allocation is
    /// clamped into the new box; the error filter survives (no model, no
    /// histories — nothing else to reset). Invalid bounds are rejected and
    /// leave the old box in force.
    pub fn set_bounds(&mut self, c_min: f64, c_max: f64) -> Result<()> {
        let mut cfg = self.cfg.clone();
        cfg.c_min = c_min;
        cfg.c_max = c_max;
        cfg.validate()?;
        self.cfg = cfg;
        for c in &mut self.alloc {
            *c = c.clamp(c_min, c_max);
        }
        Ok(())
    }

    /// Attach a telemetry sink (`robust.steps` / `robust.holds` counters).
    /// Telemetry only observes — it never alters the control law.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Reset the error filter (sensor-outage re-entry: pre-outage errors
    /// are stale). The next measurement seeds the filter fresh, and with
    /// `ē(k−1)` unknown the velocity term vanishes on that first sample —
    /// re-entry moves by at most `Ki · ē`, gentle by construction.
    pub fn reset_filter(&mut self) {
        self.filtered_error = None;
        self.prev_error = None;
    }

    /// Force the applied allocation (clamped into the box) and reset the
    /// error filter — the starvation-watchdog path.
    pub fn force_allocation(&mut self, alloc: &[f64]) -> Result<()> {
        if alloc.len() != self.alloc.len() {
            return Err(ControlError::BadDimensions(format!(
                "forced allocation has {} entries, controller has {} tiers",
                alloc.len(),
                self.alloc.len()
            )));
        }
        self.alloc = alloc
            .iter()
            .map(|c| c.clamp(self.cfg.c_min, self.cfg.c_max))
            .collect();
        self.reset_filter();
        Ok(())
    }

    /// Feed the response-time measurement for the period that just ended
    /// and compute the next allocation (applied uniformly to every tier).
    pub fn step(&mut self, t_measured_ms: f64) -> &[f64] {
        let e = (t_measured_ms - self.setpoint_ms) / self.setpoint_ms;
        let filtered = match self.filtered_error {
            Some(prev) => self.cfg.filter_alpha * e + (1.0 - self.cfg.filter_alpha) * prev,
            None => e,
        };
        let prev = self.prev_error.unwrap_or(filtered);
        self.filtered_error = Some(filtered);
        self.prev_error = Some(filtered);
        if filtered.abs() <= self.cfg.deadband {
            self.telemetry.incr("robust.holds", 1);
            return &self.alloc;
        }
        self.telemetry.incr("robust.steps", 1);
        let delta = (self.cfg.kp * (filtered - prev) + self.cfg.ki * filtered)
            .clamp(-self.cfg.delta_max, self.cfg.delta_max);
        for c in &mut self.alloc {
            *c = (*c + delta).clamp(self.cfg.c_min, self.cfg.c_max);
        }
        &self.alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArxModel;

    /// The mpc-module plant: t∞ = (1400 − 300c₁ − 100c₂) / 0.55, so the
    /// 1000 ms set point sits at c₁ = c₂ ≈ 2.12 when tiers move together.
    fn plant_model() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    /// Closed loop against the exact ARX plant (the controller never sees
    /// the model — it is model-free by design).
    fn run_closed_loop(
        ctrl: &mut RobustController,
        plant: &ArxModel,
        steps: usize,
        t0: f64,
    ) -> Vec<f64> {
        let mut t_hist = vec![t0; plant.na()];
        let mut c_hist = vec![ctrl.allocation().to_vec(); plant.nb()];
        let mut t = t0;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let alloc = ctrl.step(t).to_vec();
            c_hist.insert(0, alloc);
            c_hist.truncate(plant.nb());
            t = plant.predict(&t_hist, &c_hist).unwrap();
            t_hist.insert(0, t);
            t_hist.truncate(plant.na().max(1));
            out.push(t);
        }
        out
    }

    #[test]
    fn config_validation() {
        let ok = RobustConfig::default();
        assert!(RobustController::new(1000.0, ok.clone(), &[1.0, 1.0]).is_ok());
        assert!(RobustController::new(0.0, ok.clone(), &[1.0, 1.0]).is_err());
        assert!(RobustController::new(1000.0, ok.clone(), &[]).is_err());
        let bad = |f: &dyn Fn(&mut RobustConfig)| {
            let mut cfg = RobustConfig::default();
            f(&mut cfg);
            RobustController::new(1000.0, cfg, &[1.0, 1.0]).is_err()
        };
        assert!(bad(&|c| c.ki = 0.0));
        assert!(bad(&|c| c.kp = -1.0));
        assert!(bad(&|c| c.filter_alpha = 0.0));
        assert!(bad(&|c| c.filter_alpha = 1.5));
        assert!(bad(&|c| c.deadband = -0.1));
        assert!(bad(&|c| {
            c.c_min = 2.0;
            c.c_max = 1.0;
        }));
        assert!(bad(&|c| c.delta_max = 0.0));
    }

    #[test]
    fn converges_to_setpoint_on_arx_plant() {
        let plant = plant_model();
        let mut ctrl = RobustController::new(1000.0, RobustConfig::default(), &[1.0, 1.0]).unwrap();
        let traj = run_closed_loop(&mut ctrl, &plant, 120, 2000.0);
        let tail = &traj[90..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        // The deadband tolerates 2 % (±20 ms); converge well inside 5 %.
        assert!(
            (mean - 1000.0).abs() < 50.0,
            "steady state {mean} ms vs 1000 ms set point"
        );
    }

    #[test]
    fn converges_from_below_too() {
        let plant = plant_model();
        let mut ctrl = RobustController::new(1200.0, RobustConfig::default(), &[2.5, 2.5]).unwrap();
        let traj = run_closed_loop(&mut ctrl, &plant, 120, 500.0);
        let mean = traj[90..].iter().sum::<f64>() / 30.0;
        assert!((mean - 1200.0).abs() < 60.0, "steady state {mean} ms");
    }

    #[test]
    fn tolerates_plant_drift_without_reidentification() {
        // The robustness claim: halve the plant's gains mid-run (a drift
        // that would invalidate an identified model) and the fixed-gain
        // loop still recovers the set point.
        let strong = plant_model();
        let weak = ArxModel::new(
            vec![0.45],
            vec![vec![-90.0, -60.0], vec![-30.0, -20.0]],
            1400.0,
        )
        .unwrap();
        let mut ctrl = RobustController::new(1400.0, RobustConfig::default(), &[1.0, 1.0]).unwrap();
        let _ = run_closed_loop(&mut ctrl, &strong, 80, 2000.0);
        let traj = run_closed_loop(&mut ctrl, &weak, 160, 1400.0);
        let mean = traj[130..].iter().sum::<f64>() / 30.0;
        assert!(
            (mean - 1400.0).abs() < 70.0,
            "post-drift steady state {mean} ms vs 1400 ms"
        );
    }

    #[test]
    fn respects_box_and_rate_limit() {
        let plant = plant_model();
        let cfg = RobustConfig {
            c_max: 1.5,
            ..RobustConfig::default()
        };
        let mut ctrl = RobustController::new(100.0, cfg, &[1.0, 1.0]).unwrap(); // unreachable
        let _ = run_closed_loop(&mut ctrl, &plant, 5, 2000.0);
        let mut prev = ctrl.allocation().to_vec();
        for _ in 0..40 {
            let next = ctrl.step(2000.0).to_vec();
            for (n, p) in next.iter().zip(&prev) {
                assert!((n - p).abs() <= 0.3 + 1e-12, "rate limit violated");
                assert!(
                    (0.3..=1.5 + 1e-12).contains(n),
                    "allocation {n} outside box"
                );
            }
            prev = next;
        }
        assert!(ctrl.allocation()[0] > 1.49, "should saturate at c_max");
    }

    #[test]
    fn deadband_holds_near_the_setpoint() {
        let mut ctrl = RobustController::new(1000.0, RobustConfig::default(), &[2.0, 2.0]).unwrap();
        let before = ctrl.allocation().to_vec();
        // 1 % error sits inside the 2 % deadband.
        let after = ctrl.step(1010.0).to_vec();
        assert_eq!(before, after, "deadband must hold the allocation");
    }

    #[test]
    fn filter_reset_gives_gentle_reentry() {
        let mut ctrl = RobustController::new(1000.0, RobustConfig::default(), &[1.0, 1.0]).unwrap();
        // Build up a large error history, then reset (sensor outage).
        let _ = ctrl.step(3000.0);
        let _ = ctrl.step(3000.0);
        ctrl.reset_filter();
        let before = ctrl.allocation().to_vec();
        let after = ctrl.step(1300.0).to_vec();
        // With the velocity term vanished the move is at most Ki·ē.
        let cfg = RobustConfig::default();
        let expect = cfg.ki * 0.3;
        for (b, a) in before.iter().zip(&after) {
            assert!(
                (a - b).abs() <= expect + 1e-12,
                "re-entry move {} vs bound {expect}",
                a - b
            );
        }
    }

    #[test]
    fn bounds_edit_and_forced_allocation() {
        let mut ctrl = RobustController::new(1000.0, RobustConfig::default(), &[2.8, 2.8]).unwrap();
        ctrl.set_bounds(0.5, 2.0).unwrap();
        assert!(ctrl.allocation().iter().all(|&c| c <= 2.0));
        assert!(ctrl.set_bounds(3.0, 1.0).is_err());
        assert_eq!(ctrl.config().c_max, 2.0, "failed edit leaves old box");
        ctrl.force_allocation(&[1.2, 9.0]).unwrap();
        assert_eq!(ctrl.allocation(), &[1.2, 2.0]);
        assert!(ctrl.force_allocation(&[1.0]).is_err());
    }

    #[test]
    fn setpoint_guarding() {
        let mut ctrl = RobustController::new(1000.0, RobustConfig::default(), &[1.0, 1.0]).unwrap();
        ctrl.set_setpoint(0.0);
        assert_eq!(ctrl.setpoint(), 1000.0);
        ctrl.set_setpoint(f64::NAN);
        assert_eq!(ctrl.setpoint(), 1000.0);
        ctrl.set_setpoint(700.0);
        assert_eq!(ctrl.setpoint(), 700.0);
    }
}
