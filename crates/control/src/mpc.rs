//! Model Predictive Controller for multi-tier response-time control
//! (§IV-B of the paper).
//!
//! Each control period the controller minimizes the cost of eq. (2),
//!
//! ```text
//! J(k) = Σ_{i=1..P} ||t(k+i|k) − ref(k+i|k)||²_Q
//!      + Σ_{i=0..M−1} ||Δc(k+i|k)||²_R
//! ```
//!
//! over the input trajectory `ΔC = [Δc(k), …, Δc(k+M−1|k)]`, subject to the
//! terminal constraint `t(k+M|k) = Ts` (eq. (4)) and the allocation box
//! `c_min ≤ c ≤ c_max`, then applies only the first move (receding horizon).
//!
//! ## Formulation
//!
//! The predictor is the classic step-response (DMC/GPC) lifting of the ARX
//! model: `t_pred = F + Ψ·ΔC`, where `F` is the free response (future
//! outputs with all future moves zero) and `Ψ` holds the model's
//! step-response coefficients. A constant output-disturbance estimate
//! `d(k) = t_meas(k) − t_model(k)` is added to all predictions, which gives
//! the controller integral action and offset-free tracking under model
//! mismatch — essential because the real plant (a closed queueing network)
//! is nonlinear while eq. (1) is linear.
//!
//! ## Solving
//!
//! The cost is a least-squares objective; with the terminal constraint it is
//! solved by the KKT system of [`vdc_linalg::lstsq_eq`] (the paper's "least
//! squares solver"). If the resulting first move violates the allocation
//! box, the problem is re-solved as a box-constrained QP
//! ([`vdc_linalg::BoxQp`]) with the terminal constraint folded in as a
//! large quadratic penalty. Bounds are enforced exactly on the first move —
//! the only one ever applied — and as a rate limit on later moves.

use crate::arx::ArxModel;
use crate::reference::ReferenceTrajectory;
use crate::{ControlError, Result};
use vdc_linalg::{lstsq_eq, BoxQp, Matrix, QpError, Vector};
use vdc_telemetry::Telemetry;

/// Weight of the terminal-constraint penalty relative to `Q` when the
/// box-QP fallback path is taken.
const TERMINAL_PENALTY_FACTOR: f64 = 1e4;

/// Configuration of an MPC response-time controller.
#[derive(Debug, Clone)]
pub struct MpcConfig {
    /// Prediction horizon `P` (periods).
    pub prediction_horizon: usize,
    /// Control horizon `M ≤ P` (periods).
    pub control_horizon: usize,
    /// Tracking-error weight `Q` (> 0).
    pub q_weight: f64,
    /// Control-penalty weight per input channel, `R(i)` of eq. (2). A higher
    /// weight for a channel makes the controller more reluctant to change
    /// that VM's allocation (§IV-B: "can be tuned to represent a preference
    /// among the VMs").
    pub r_weight: Vec<f64>,
    /// Reference trajectory (eq. (3)).
    pub reference: ReferenceTrajectory,
    /// Response-time set point `Ts` (e.g. milliseconds).
    pub setpoint: f64,
    /// Per-channel minimum CPU allocation (GHz).
    pub c_min: Vec<f64>,
    /// Per-channel maximum CPU allocation (GHz).
    pub c_max: Vec<f64>,
    /// Maximum per-period allocation change per channel (GHz); `None`
    /// disables rate limiting.
    pub delta_max: Option<f64>,
    /// Whether to impose the terminal constraint `t(k+M|k) = Ts` (eq. (4)).
    pub terminal_constraint: bool,
}

impl MpcConfig {
    /// Sensible defaults for a response-time controller over `n_inputs`
    /// tier VMs: P = 8, M = 2, Q = 1, R = 100 per channel.
    pub fn defaults(n_inputs: usize, setpoint: f64, reference: ReferenceTrajectory) -> MpcConfig {
        MpcConfig {
            prediction_horizon: 8,
            control_horizon: 2,
            q_weight: 1.0,
            r_weight: vec![100.0; n_inputs],
            reference,
            setpoint,
            c_min: vec![0.1; n_inputs],
            c_max: vec![4.0; n_inputs],
            delta_max: Some(1.0),
            terminal_constraint: true,
        }
    }

    fn validate(&self, n_inputs: usize) -> Result<()> {
        if self.control_horizon == 0 || self.prediction_horizon < self.control_horizon {
            return Err(ControlError::BadConfig(format!(
                "need 1 <= M <= P, got M={} P={}",
                self.control_horizon, self.prediction_horizon
            )));
        }
        if self.q_weight <= 0.0 {
            return Err(ControlError::BadConfig("Q weight must be positive".into()));
        }
        if self.r_weight.len() != n_inputs
            || self.c_min.len() != n_inputs
            || self.c_max.len() != n_inputs
        {
            return Err(ControlError::BadConfig(format!(
                "weights/bounds must have one entry per input ({n_inputs})"
            )));
        }
        if self.r_weight.iter().any(|&r| r <= 0.0) {
            return Err(ControlError::BadConfig("R weights must be positive".into()));
        }
        if self
            .c_min
            .iter()
            .zip(&self.c_max)
            .any(|(lo, hi)| lo > hi || !lo.is_finite() || !hi.is_finite())
        {
            return Err(ControlError::BadConfig(
                "allocation bounds must be finite with c_min <= c_max".into(),
            ));
        }
        if let Some(d) = self.delta_max {
            if d <= 0.0 {
                return Err(ControlError::BadConfig("delta_max must be positive".into()));
            }
        }
        Ok(())
    }
}

/// Outcome of one control step.
#[derive(Debug, Clone)]
pub struct MpcStep {
    /// The new allocation vector `c(k+1)` to apply (GHz per channel).
    pub allocation: Vec<f64>,
    /// The first move `Δc(k)` actually taken.
    pub delta: Vec<f64>,
    /// Predicted response time at the end of the prediction horizon.
    pub predicted_terminal: f64,
    /// Current disturbance estimate (measurement minus model prediction).
    pub disturbance: f64,
    /// Whether the box-QP fallback path was used.
    pub saturated: bool,
}

/// Receding-horizon MPC controller for one multi-tier application.
///
/// # Examples
///
/// ```
/// use vdc_control::{ArxModel, MpcConfig, MpcController, ReferenceTrajectory};
///
/// let model = ArxModel::new(
///     vec![0.45],
///     vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
///     1400.0,
/// ).unwrap();
/// let cfg = MpcConfig {
///     setpoint: 1000.0,
///     r_weight: vec![1e2; 2],
///     ..MpcConfig::defaults(2, 1000.0, ReferenceTrajectory::new(4.0, 12.0).unwrap())
/// };
/// let mut ctrl = MpcController::new(model, cfg, &[1.0, 1.0]).unwrap();
/// // Response time above the set point: the controller adds CPU.
/// let step = ctrl.step(1800.0).unwrap();
/// assert!(step.delta.iter().sum::<f64>() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MpcController {
    model: ArxModel,
    cfg: MpcConfig,
    /// Dynamic matrix Ψ: `P x (M·m)`; column `j·m + ch` is the effect of
    /// move `j` on channel `ch`.
    psi: Matrix,
    /// Measured output history, most recent first (length ≥ na).
    t_hist: Vec<f64>,
    /// Applied input history `c(k−1), c(k−2), …`, most recent first.
    c_hist: Vec<Vec<f64>>,
    /// Allocation currently applied (`c(k)`).
    c_current: Vec<f64>,
    /// Output disturbance estimate (constant-offset form).
    disturbance: f64,
    /// Smoothing gain applied to the disturbance innovation: 1.0 is the
    /// raw DMC bias update; < 1.0 is the steady-state Kalman filter of
    /// `crate::observer` (use `DisturbanceKalman::new(..).gain()` to derive
    /// it from noise variances).
    disturbance_gain: f64,
    /// Number of dynamic-matrix rebuilds since construction (the cache
    /// generation of Ψ; see [`MpcController::predictor_generation`]).
    generation: u64,
    /// Cooling-coupling weight of the facility-power term (see
    /// [`MpcController::set_energy_weight`]); `0.0` — the default — keeps
    /// the objective exactly the paper's eq. (2).
    energy_weight: f64,
    /// Site PUE observed for the current period (≥ 1); scales the
    /// facility-power term when the cooling coupling is enabled.
    pue: f64,
    /// Observability sink (disabled by default; see [`MpcController::set_telemetry`]).
    telemetry: Telemetry,
}

impl MpcController {
    /// Build a controller for `model` with configuration `cfg`, starting
    /// from an initial allocation `c0` (clamped into the configured box).
    pub fn new(model: ArxModel, cfg: MpcConfig, c0: &[f64]) -> Result<MpcController> {
        let m = model.n_inputs();
        cfg.validate(m)?;
        if c0.len() != m {
            return Err(ControlError::BadDimensions(format!(
                "initial allocation has {} entries, model has {m} inputs",
                c0.len()
            )));
        }
        let psi = build_dynamic_matrix(&model, cfg.prediction_horizon, cfg.control_horizon)?;
        let mut c_current = c0.to_vec();
        for (c, (&lo, &hi)) in c_current.iter_mut().zip(cfg.c_min.iter().zip(&cfg.c_max)) {
            *c = c.clamp(lo, hi);
        }
        let na = model.na().max(1);
        let nb = model.nb();
        Ok(MpcController {
            model,
            cfg,
            psi,
            t_hist: Vec::with_capacity(na),
            c_hist: vec![c_current.clone(); nb],
            c_current,
            disturbance: 0.0,
            disturbance_gain: 1.0,
            generation: 0,
            energy_weight: 0.0,
            pue: 1.0,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Construct a controller with explicit internal state: output history
    /// `t_hist` (most recent first, `t(k−1), t(k−2), …`), input history
    /// `c_hist` (most recent first, `c(k−1), …`), and the currently applied
    /// allocation `c_current = c(k)`. Histories shorter than the model
    /// orders are padded with their last entry (or with `c_current`).
    ///
    /// This is the entry point for closed-loop analysis (see
    /// `stability`/`analysis`): it lets the per-step control law be probed
    /// as a pure function of the loop state.
    pub fn with_state(
        model: ArxModel,
        cfg: MpcConfig,
        t_hist: &[f64],
        c_hist: &[Vec<f64>],
        c_current: &[f64],
    ) -> Result<MpcController> {
        let mut ctrl = MpcController::new(model, cfg, c_current)?;
        ctrl.t_hist = t_hist.to_vec();
        ctrl.t_hist.truncate(ctrl.model.na().max(1));
        ctrl.c_hist = c_hist.to_vec();
        while ctrl.c_hist.len() < ctrl.model.nb() {
            let pad = ctrl
                .c_hist
                .last()
                .cloned()
                .unwrap_or_else(|| ctrl.c_current.clone());
            ctrl.c_hist.push(pad);
        }
        ctrl.c_hist.truncate(ctrl.model.nb().max(1));
        Ok(ctrl)
    }

    /// The model in use.
    pub fn model(&self) -> &ArxModel {
        &self.model
    }

    /// The configuration in use.
    pub fn config(&self) -> &MpcConfig {
        &self.cfg
    }

    /// Currently applied allocation `c(k)`.
    pub fn current_allocation(&self) -> &[f64] {
        &self.c_current
    }

    /// Change the set point at run time (the Fig. 5 sweep does this).
    pub fn set_setpoint(&mut self, ts: f64) {
        self.cfg.setpoint = ts;
    }

    /// Set the disturbance-observer smoothing gain, in `(0, 1]`. Values
    /// outside the interval are clamped. See [`crate::observer`].
    pub fn set_disturbance_gain(&mut self, gain: f64) {
        self.disturbance_gain = gain.clamp(1e-6, 1.0);
    }

    /// Enable (or disable, with `0.0`) the cooling-coupled facility-power
    /// term in the objective: `ρ_cool · Σ_j ||c(k+j|k)||²` with
    /// `ρ_cool = weight · PUE` (see [`set_pue`](MpcController::set_pue)).
    /// Predicted *allocation levels* — not moves — are penalized, so the
    /// controller leans toward the cheapest allocation mix that still
    /// satisfies the terminal constraint; a higher facility PUE (more
    /// cooling watts per IT watt) leans harder. With the default `0.0` the
    /// stacked system is exactly the paper's eq. (2), bit for bit.
    ///
    /// The weight is in `Q` units per GHz² (tracking errors are ms², so
    /// values of order 1e1–1e3 trade visible energy against residual
    /// tracking slack). Rejects negative or non-finite weights.
    pub fn set_energy_weight(&mut self, weight: f64) -> Result<()> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(ControlError::BadConfig(format!(
                "energy weight {weight} must be finite and >= 0"
            )));
        }
        self.energy_weight = weight;
        Ok(())
    }

    /// The cooling-coupling weight (`0.0` = off).
    pub fn energy_weight(&self) -> f64 {
        self.energy_weight
    }

    /// Observe the current site PUE (facility watts per IT watt, ≥ 1).
    /// Only consulted while the cooling coupling is enabled
    /// ([`set_energy_weight`](MpcController::set_energy_weight)); with a
    /// zero weight the observation is recorded but cannot perturb the
    /// control law. Non-finite values are ignored; values below 1 clamp.
    pub fn set_pue(&mut self, pue: f64) {
        if pue.is_finite() {
            self.pue = pue.max(1.0);
        }
    }

    /// The most recently observed site PUE.
    pub fn pue(&self) -> f64 {
        self.pue
    }

    /// Replace the reference trajectory at run time — e.g. a supervisor
    /// widening the approach band while re-entering closed loop after a
    /// sensor outage. The cached step-response predictor depends only on
    /// the model and horizons, so it survives the swap.
    pub fn set_reference(&mut self, reference: ReferenceTrajectory) {
        self.cfg.reference = reference;
    }

    /// Attach a telemetry sink. Each [`step`](MpcController::step) then
    /// records the predictor-assembly vs QP-solve phase split
    /// (`mpc.predict_ns` / `mpc.solve_ns`), fallback counters, and
    /// [`update_model`](MpcController::update_model) the dynamic-matrix
    /// rebuild cost (`mpc.predictor_rebuild_ns`). Telemetry only observes —
    /// it never alters the computed control law.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry sink (disabled unless
    /// [`set_telemetry`](MpcController::set_telemetry) was called). Lets
    /// wrappers that rebuild the controller carry the sink over.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The cache generation of the dynamic matrix Ψ: the number of true
    /// predictor rebuilds since construction. Stays flat across
    /// [`update_model`](MpcController::update_model) calls that hand back
    /// an unchanged model and across bounds/allocation edits, which never
    /// touch Ψ.
    pub fn predictor_generation(&self) -> u64 {
        self.generation
    }

    /// Replace the model (e.g. after an RLS update) and rebuild the
    /// dynamic matrix. Histories are preserved where possible.
    ///
    /// Ψ depends only on the model and the horizons, so a replacement
    /// equal to the current model (a sysid refresh that converged) keeps
    /// the cached predictor: no rebuild, no
    /// `mpc.predictor_rebuild_ns`/`mpc.model_rebuilds` activity.
    pub fn update_model(&mut self, model: ArxModel) -> Result<()> {
        if model.n_inputs() != self.model.n_inputs() {
            return Err(ControlError::BadDimensions(
                "replacement model has different input count".into(),
            ));
        }
        if model == self.model {
            return Ok(());
        }
        let rebuild_span = self.telemetry.timer("mpc.predictor_rebuild_ns");
        self.psi = build_dynamic_matrix(
            &model,
            self.cfg.prediction_horizon,
            self.cfg.control_horizon,
        )?;
        rebuild_span.finish();
        self.telemetry.incr("mpc.model_rebuilds", 1);
        self.generation += 1;
        while self.c_hist.len() < model.nb() {
            self.c_hist.push(
                self.c_hist
                    .last()
                    .cloned()
                    .unwrap_or_else(|| self.c_current.clone()),
            );
        }
        self.c_hist.truncate(model.nb().max(1));
        self.model = model;
        Ok(())
    }

    /// Replace the per-channel allocation box in place.
    ///
    /// State resets exactly as a rebuild at the current allocation would —
    /// `c_current` clamped into the new box, histories re-seeded,
    /// disturbance cleared — but the cached dynamic matrix Ψ survives: it
    /// depends only on the model and the horizons, never on bounds.
    pub fn set_allocation_bounds(&mut self, c_min: Vec<f64>, c_max: Vec<f64>) -> Result<()> {
        let m = self.model.n_inputs();
        let mut cfg = self.cfg.clone();
        cfg.c_min = c_min;
        cfg.c_max = c_max;
        cfg.validate(m)?;
        self.cfg = cfg;
        let c0 = self.c_current.clone();
        self.reset_state(&c0);
        Ok(())
    }

    /// Force the applied allocation to `alloc` (clamped into the box) and
    /// reset histories and the disturbance estimate — the
    /// starvation-watchdog path. Keeps the cached dynamic matrix Ψ.
    pub fn force_allocation(&mut self, alloc: &[f64]) -> Result<()> {
        let m = self.model.n_inputs();
        if alloc.len() != m {
            return Err(ControlError::BadDimensions(format!(
                "forced allocation has {} entries, model has {m} inputs",
                alloc.len()
            )));
        }
        self.reset_state(alloc);
        Ok(())
    }

    /// Re-seed the controller state at allocation `c0` the way
    /// [`new`](MpcController::new) does, leaving the model, config, Ψ,
    /// disturbance gain, and telemetry sink untouched.
    fn reset_state(&mut self, c0: &[f64]) {
        let mut c_current = c0.to_vec();
        for (c, (&lo, &hi)) in c_current
            .iter_mut()
            .zip(self.cfg.c_min.iter().zip(&self.cfg.c_max))
        {
            *c = c.clamp(lo, hi);
        }
        self.c_hist = vec![c_current.clone(); self.model.nb()];
        self.c_current = c_current;
        self.t_hist.clear();
        self.disturbance = 0.0;
    }

    /// Feed the response-time measurement for the period that just ended and
    /// compute the next allocation. Returns the applied step.
    pub fn step(&mut self, t_measured: f64) -> Result<MpcStep> {
        let m = self.model.n_inputs();

        // Disturbance estimate: how far off was the model's one-step
        // prediction of this measurement? The measured period ran under
        // `c_current`, so it is the most recent input lag.
        if self.t_hist.len() >= self.model.na() && self.c_hist.len() + 1 >= self.model.nb() {
            let mut pred_c: Vec<Vec<f64>> = Vec::with_capacity(self.model.nb());
            pred_c.push(self.c_current.clone());
            for past in &self.c_hist {
                if pred_c.len() >= self.model.nb() {
                    break;
                }
                pred_c.push(past.clone());
            }
            while pred_c.len() < self.model.nb() {
                pred_c.push(self.c_current.clone());
            }
            let t_model = self.model.predict(&self.t_hist, &pred_c)?;
            let innovation = t_measured - t_model;
            self.disturbance += self.disturbance_gain * (innovation - self.disturbance);
        }

        // Update output history with the new measurement.
        self.t_hist.insert(0, t_measured);
        self.t_hist.truncate(self.model.na().max(1));

        // Not enough history yet for the model order: hold allocations.
        if self.t_hist.len() < self.model.na() {
            return Ok(MpcStep {
                allocation: self.c_current.clone(),
                delta: vec![0.0; m],
                predicted_terminal: t_measured,
                disturbance: self.disturbance,
                saturated: false,
            });
        }

        self.telemetry.incr("mpc.steps", 1);
        let p = self.cfg.prediction_horizon;
        let mm = self.cfg.control_horizon;
        let n_dec = mm * m;

        // Predictor phase: free response plus stacked-objective assembly.
        let predict_span = self.telemetry.timer("mpc.predict_ns");

        // Free response: future outputs if allocations stay at c_current.
        let free = self.free_response(p)?;

        // Reference trajectory from the current measurement.
        let reference = self.cfg.reference.horizon(self.cfg.setpoint, t_measured, p);

        // Stacked least-squares objective:
        //   || sqrt(Q) (Ψ ΔC − (ref − F)) ||² + || sqrt(R̄) ΔC ||²
        // plus, when the cooling coupling is on, the facility-power rows
        //   || sqrt(ρ_cool) c(k+j|k) ||²  for j = 0..M−1
        // where c(k+j|k) = c(k) + Σ_{i≤j} Δc(k+i|k) and ρ_cool scales with
        // the observed site PUE. A zero weight appends nothing, so the
        // default stacked system is bit-identical to the paper's eq. (2).
        let rho_cool = self.energy_weight * self.pue;
        let n_cool = if rho_cool > 0.0 { n_dec } else { 0 };
        let sq = self.cfg.q_weight.sqrt();
        let mut a = Matrix::zeros(p + n_dec + n_cool, n_dec);
        let mut b = vec![0.0; p + n_dec + n_cool];
        for i in 0..p {
            for j in 0..n_dec {
                a[(i, j)] = sq * self.psi[(i, j)];
            }
            b[i] = sq * (reference[i] - free[i]);
        }
        for j in 0..n_dec {
            let ch = j % m;
            a[(p + j, j)] = self.cfg.r_weight[ch].sqrt();
        }
        if n_cool > 0 {
            // Lower-triangular move selector: the level at horizon step j
            // accumulates every move up to and including j.
            let sc = rho_cool.sqrt();
            for j in 0..mm {
                for ch in 0..m {
                    let row = p + n_dec + j * m + ch;
                    for i in 0..=j {
                        a[(row, i * m + ch)] = sc;
                    }
                    b[row] = -sc * self.c_current[ch];
                }
            }
        }
        let a_rhs = Vector::from_vec(b);

        // Terminal constraint (eq. (4)): t(k+M|k) = Ts.
        let terminal_row = self.psi.block(mm - 1, 0, 1, n_dec);
        let terminal_rhs = self.cfg.setpoint - free[mm - 1];
        predict_span.finish();

        // Solve phase: KKT least squares, then the Hildreth box-QP fallback
        // if the first move leaves the allocation box.
        let solve_span = self.telemetry.timer("mpc.solve_ns");
        let mut saturated = false;
        let delta_all = if self.cfg.terminal_constraint {
            match lstsq_eq(
                &a,
                &a_rhs,
                &terminal_row,
                &Vector::from_slice(&[terminal_rhs]),
            ) {
                Ok(sol) => sol,
                Err(_) => {
                    // Singular KKT (e.g. terminal row ~ 0): fall back to the
                    // unconstrained least-squares solution.
                    self.telemetry.incr("mpc.kkt_singular", 1);
                    vdc_linalg::lstsq(&a, &a_rhs)?
                }
            }
        } else {
            vdc_linalg::lstsq(&a, &a_rhs)?
        };

        // Box check on the first move.
        let (lo, hi) = self.first_move_bounds();
        let first_ok =
            (0..m).all(|ch| delta_all[ch] >= lo[ch] - 1e-12 && delta_all[ch] <= hi[ch] + 1e-12);

        let delta_all = if first_ok {
            delta_all
        } else {
            saturated = true;
            self.telemetry.incr("mpc.qp_fallbacks", 1);
            self.solve_box_qp(&a, &a_rhs, &terminal_row, terminal_rhs, &lo, &hi)?
        };
        solve_span.finish();

        // Apply the first move (receding horizon).
        let mut delta: Vec<f64> = (0..m).map(|ch| delta_all[ch]).collect();
        let mut c_next = self.c_current.clone();
        for ch in 0..m {
            delta[ch] = delta[ch].clamp(lo[ch], hi[ch]);
            c_next[ch] = (c_next[ch] + delta[ch]).clamp(self.cfg.c_min[ch], self.cfg.c_max[ch]);
        }

        // Predicted terminal output under the chosen trajectory.
        let mut predicted_terminal = free[p - 1];
        for j in 0..n_dec {
            predicted_terminal += self.psi[(p - 1, j)] * delta_all[j];
        }

        // Shift input history: c_current becomes c(k−1) next period.
        self.c_hist.insert(0, self.c_current.clone());
        self.c_hist.truncate(self.model.nb().max(1));
        self.c_current = c_next.clone();

        Ok(MpcStep {
            allocation: c_next,
            delta,
            predicted_terminal,
            disturbance: self.disturbance,
            saturated,
        })
    }

    /// Bounds on the first move so that `c(k+1)` stays inside the box and
    /// the rate limit.
    fn first_move_bounds(&self) -> (Vec<f64>, Vec<f64>) {
        let m = self.model.n_inputs();
        let mut lo = Vec::with_capacity(m);
        let mut hi = Vec::with_capacity(m);
        for ch in 0..m {
            let mut l = self.cfg.c_min[ch] - self.c_current[ch];
            let mut h = self.cfg.c_max[ch] - self.c_current[ch];
            if let Some(d) = self.cfg.delta_max {
                l = l.max(-d);
                h = h.min(d);
            }
            // Guard against an inverted interval when c_current drifted out
            // of a freshly narrowed box.
            if l > h {
                let mid = 0.5 * (l + h);
                l = mid;
                h = mid;
            }
            lo.push(l);
            hi.push(h);
        }
        (lo, hi)
    }

    /// Box-QP fallback: minimize the stacked LS objective with the terminal
    /// constraint as a quadratic penalty, under bounds on the first move
    /// (and the rate limit on later moves).
    fn solve_box_qp(
        &self,
        a: &Matrix,
        rhs: &Vector,
        terminal_row: &Matrix,
        terminal_rhs: f64,
        lo_first: &[f64],
        hi_first: &[f64],
    ) -> Result<Vector> {
        let n_dec = a.cols();
        let m = self.model.n_inputs();
        // H = 2(AᵀA + ρ ψᵀψ), f = −2(Aᵀ rhs + ρ ψᵀ d).
        let mut h = a.gram();
        let at_rhs = a.tr_matvec(rhs)?;
        let rho = TERMINAL_PENALTY_FACTOR * self.cfg.q_weight;
        let mut f = Vec::with_capacity(n_dec);
        for j in 0..n_dec {
            f.push(-2.0 * (at_rhs[j] + rho * terminal_row[(0, j)] * terminal_rhs));
        }
        if self.cfg.terminal_constraint {
            for i in 0..n_dec {
                for j in 0..n_dec {
                    h[(i, j)] += rho * terminal_row[(0, i)] * terminal_row[(0, j)];
                }
            }
        }
        h.scale_mut(2.0);
        let rate = self.cfg.delta_max.unwrap_or(f64::INFINITY);
        let wide = if rate.is_finite() { rate } else { 1e12 };
        let mut lb = vec![-wide; n_dec];
        let mut ub = vec![wide; n_dec];
        lb[..m].copy_from_slice(lo_first);
        ub[..m].copy_from_slice(hi_first);
        let qp = BoxQp::new(h, Vector::from_vec(f), lb, ub)
            .map_err(|e| ControlError::Qp(e.to_string()))?;
        // `mpc.qp_iterations` is the fallback's machine-independent cost:
        // active-set iterations, counted on both the converged and the
        // capped exit.
        match qp.solve() {
            Ok(sol) => {
                self.telemetry
                    .incr("mpc.qp_iterations", sol.iterations as u64);
                Ok(sol.x)
            }
            // Iteration cap: accept the best feasible iterate.
            Err(QpError::IterationLimit(best)) => {
                self.telemetry
                    .incr("mpc.qp_iterations", best.iterations as u64);
                Ok(best.x)
            }
            Err(e) => Err(ControlError::Qp(e.to_string())),
        }
    }

    /// Free response of the (disturbance-corrected) model over `p` periods:
    /// predicted outputs when all future allocations stay at `c_current`.
    fn free_response(&self, p: usize) -> Result<Vec<f64>> {
        let mut t_sim = self.t_hist.clone();
        // Future input history: most recent first, c(k) = c_current.
        let mut c_sim: Vec<Vec<f64>> = Vec::with_capacity(self.model.nb());
        c_sim.push(self.c_current.clone());
        for past in &self.c_hist {
            if c_sim.len() >= self.model.nb() {
                break;
            }
            c_sim.push(past.clone());
        }
        while c_sim.len() < self.model.nb() {
            c_sim.push(self.c_current.clone());
        }
        let mut out = Vec::with_capacity(p);
        for _ in 0..p {
            let t = self.model.predict(&t_sim, &c_sim)? + self.disturbance;
            out.push(t);
            t_sim.insert(0, t);
            t_sim.truncate(self.model.na().max(1));
            c_sim.insert(0, self.c_current.clone());
            c_sim.truncate(self.model.nb().max(1));
        }
        Ok(out)
    }
}

/// Build the dynamic (step-response) matrix Ψ of the GPC predictor.
///
/// `Ψ[i−1, j·m + ch] = s_ch(i − j)` where `s_ch` is the step response of
/// channel `ch` and `s_ch(l) = 0` for `l ≤ 0`: move `j` (applied at time
/// `k+j`) begins to affect the output at time `k+j+1`.
fn build_dynamic_matrix(model: &ArxModel, p: usize, m_horizon: usize) -> Result<Matrix> {
    let m = model.n_inputs();
    let mut psi = Matrix::zeros(p, m_horizon * m);
    for ch in 0..m {
        let s = model.step_response(ch, p)?;
        for j in 0..m_horizon {
            for i in (j + 1)..=p {
                // Effect on t(k+i|k) of a move at k+j: s[i - j - 1].
                psi[(i - 1, j * m + ch)] = s[i - j - 1];
            }
        }
    }
    Ok(psi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant_model() -> ArxModel {
        // Two-tier paper-like model: more CPU => lower response time.
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    fn default_cfg(setpoint: f64) -> MpcConfig {
        let reference = ReferenceTrajectory::new(4.0, 12.0).unwrap();
        MpcConfig {
            prediction_horizon: 8,
            control_horizon: 2,
            q_weight: 1.0,
            r_weight: vec![1e-4, 1e-4],
            reference,
            setpoint,
            c_min: vec![0.2, 0.2],
            c_max: vec![3.0, 3.0],
            delta_max: Some(0.5),
            terminal_constraint: true,
        }
    }

    /// Closed loop against the exact model: the controller should drive the
    /// output to the set point.
    fn run_closed_loop(
        ctrl: &mut MpcController,
        plant: &ArxModel,
        steps: usize,
        t0: f64,
    ) -> Vec<f64> {
        let mut t_hist = vec![t0; plant.na()];
        let mut c_hist = vec![ctrl.current_allocation().to_vec(); plant.nb()];
        let mut t = t0;
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let step = ctrl.step(t).unwrap();
            // Plant evolves under the newly applied allocation.
            c_hist.insert(0, step.allocation.clone());
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
        let model = plant_model();
        let mut cfg = default_cfg(1000.0);
        cfg.control_horizon = 0;
        assert!(MpcController::new(model.clone(), cfg, &[1.0, 1.0]).is_err());

        let mut cfg = default_cfg(1000.0);
        cfg.prediction_horizon = 1; // < M = 2
        assert!(MpcController::new(model.clone(), cfg, &[1.0, 1.0]).is_err());

        let mut cfg = default_cfg(1000.0);
        cfg.q_weight = 0.0;
        assert!(MpcController::new(model.clone(), cfg, &[1.0, 1.0]).is_err());

        let mut cfg = default_cfg(1000.0);
        cfg.r_weight = vec![1.0]; // wrong length
        assert!(MpcController::new(model.clone(), cfg, &[1.0, 1.0]).is_err());

        let mut cfg = default_cfg(1000.0);
        cfg.c_min = vec![2.0, 2.0];
        cfg.c_max = vec![1.0, 1.0];
        assert!(MpcController::new(model.clone(), cfg, &[1.0, 1.0]).is_err());

        let cfg = default_cfg(1000.0);
        assert!(MpcController::new(model, cfg, &[1.0]).is_err()); // c0 length
    }

    #[test]
    fn converges_to_setpoint_on_exact_model() {
        let model = plant_model();
        let cfg = default_cfg(1000.0);
        let mut ctrl = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();
        let traj = run_closed_loop(&mut ctrl, &model, 60, 2000.0);
        let tail = &traj[40..];
        for &t in tail {
            assert!((t - 1000.0).abs() < 10.0, "tail value {t}");
        }
    }

    #[test]
    fn converges_from_below_too() {
        let model = plant_model();
        let cfg = default_cfg(1200.0);
        let mut ctrl = MpcController::new(model.clone(), cfg, &[2.0, 2.0]).unwrap();
        let traj = run_closed_loop(&mut ctrl, &model, 60, 400.0);
        assert!((traj[59] - 1200.0).abs() < 10.0, "final {}", traj[59]);
    }

    #[test]
    fn offset_free_under_model_mismatch() {
        // Plant has different gains and bias than the controller's model:
        // the disturbance estimator must remove the steady-state offset.
        let ctrl_model = plant_model();
        let plant = ArxModel::new(
            vec![0.5],
            vec![vec![-150.0, -100.0], vec![-50.0, -30.0]],
            1550.0,
        )
        .unwrap();
        let mut cfg = default_cfg(1000.0);
        // The mismatched plant has weaker gains; widen the box so the set
        // point stays reachable (t∞ = 3100 − 400c₁ − 260c₂ needs c ≈ 3.2).
        cfg.c_max = vec![6.0, 6.0];
        let mut ctrl = MpcController::new(ctrl_model, cfg, &[1.0, 1.0]).unwrap();
        let traj = run_closed_loop(&mut ctrl, &plant, 120, 1800.0);
        let tail_mean: f64 = traj[90..].iter().sum::<f64>() / 30.0;
        assert!(
            (tail_mean - 1000.0).abs() < 20.0,
            "steady state {tail_mean} should be near 1000"
        );
    }

    #[test]
    fn respects_allocation_box() {
        let model = plant_model();
        let mut cfg = default_cfg(100.0); // unreachably low set point
        cfg.c_max = vec![1.5, 1.5];
        let mut ctrl = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();
        let _ = run_closed_loop(&mut ctrl, &model, 40, 2000.0);
        let c = ctrl.current_allocation();
        // Allocations must saturate at the max without exceeding it.
        for &ci in c {
            assert!(ci <= 1.5 + 1e-9, "allocation {ci} exceeds c_max");
        }
        assert!(c[0] > 1.49, "should be pushed to the max, got {}", c[0]);
    }

    #[test]
    fn respects_rate_limit() {
        let model = plant_model();
        let mut cfg = default_cfg(500.0);
        cfg.delta_max = Some(0.1);
        let mut ctrl = MpcController::new(model.clone(), cfg, &[0.5, 0.5]).unwrap();
        let mut prev = ctrl.current_allocation().to_vec();
        let mut t = 2500.0;
        for _ in 0..20 {
            let step = ctrl.step(t).unwrap();
            for (a, p) in step.allocation.iter().zip(&prev) {
                assert!((a - p).abs() <= 0.1 + 1e-9, "rate limit violated");
            }
            prev = step.allocation.clone();
            t -= 50.0;
        }
    }

    #[test]
    fn qp_fallbacks_count_their_active_set_iterations() {
        let model = plant_model();
        let mut cfg = default_cfg(100.0); // unreachable: the box binds
        cfg.c_max = vec![1.5, 1.5];
        let mut ctrl = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();
        let telemetry = Telemetry::enabled();
        ctrl.set_telemetry(telemetry.clone());
        let _ = run_closed_loop(&mut ctrl, &model, 40, 2000.0);
        let count = |name: &str| {
            telemetry
                .counter_values()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        let fallbacks = count("mpc.qp_fallbacks");
        assert!(fallbacks > 0, "the saturated loop must fall back");
        // Every fallback runs at least one active-set iteration.
        assert!(count("mpc.qp_iterations") >= fallbacks);
    }

    #[test]
    fn setpoint_change_tracked() {
        let model = plant_model();
        let cfg = default_cfg(1000.0);
        let mut ctrl = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();
        let _ = run_closed_loop(&mut ctrl, &model, 50, 1500.0);
        ctrl.set_setpoint(800.0);
        let traj = run_closed_loop(&mut ctrl, &model, 50, 1000.0);
        assert!((traj[49] - 800.0).abs() < 12.0, "final {}", traj[49]);
    }

    #[test]
    fn without_terminal_constraint_still_converges() {
        let model = plant_model();
        let mut cfg = default_cfg(1000.0);
        cfg.terminal_constraint = false;
        let mut ctrl = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();
        let traj = run_closed_loop(&mut ctrl, &model, 80, 2000.0);
        assert!((traj[79] - 1000.0).abs() < 15.0);
    }

    #[test]
    fn update_model_rebuilds_predictor() {
        let model = plant_model();
        let cfg = default_cfg(1000.0);
        let mut ctrl = MpcController::new(model, cfg, &[1.0, 1.0]).unwrap();
        let stronger = ArxModel::new(
            vec![0.3],
            vec![vec![-250.0, -150.0], vec![-80.0, -60.0]],
            1300.0,
        )
        .unwrap();
        ctrl.update_model(stronger.clone()).unwrap();
        assert_eq!(ctrl.model(), &stronger);
        let traj = run_closed_loop(&mut ctrl, &stronger, 60, 1800.0);
        assert!((traj[59] - 1000.0).abs() < 10.0);
        // Input-count mismatch rejected.
        let wrong = ArxModel::new(vec![0.3], vec![vec![-250.0]], 1300.0).unwrap();
        assert!(ctrl.update_model(wrong).is_err());
    }

    #[test]
    fn unchanged_model_keeps_cached_predictor() {
        let model = plant_model();
        let cfg = default_cfg(1000.0);
        let mut ctrl = MpcController::new(model.clone(), cfg, &[1.0, 1.0]).unwrap();
        let telemetry = Telemetry::enabled();
        ctrl.set_telemetry(telemetry.clone());
        assert_eq!(ctrl.predictor_generation(), 0);
        // A sysid refresh that converged to the same coefficients: cache hit.
        ctrl.update_model(model.clone()).unwrap();
        ctrl.update_model(model).unwrap();
        assert_eq!(ctrl.predictor_generation(), 0);
        let rebuilds = |t: &Telemetry| {
            t.counter_values()
                .into_iter()
                .find(|(n, _)| n == "mpc.model_rebuilds")
                .map(|(_, v)| v)
                .unwrap_or(0)
        };
        assert_eq!(rebuilds(&telemetry), 0, "cache hits must not rebuild");
        // A genuinely different model: cache miss, one rebuild.
        let stronger = ArxModel::new(
            vec![0.3],
            vec![vec![-250.0, -150.0], vec![-80.0, -60.0]],
            1300.0,
        )
        .unwrap();
        ctrl.update_model(stronger).unwrap();
        assert_eq!(ctrl.predictor_generation(), 1);
        assert_eq!(rebuilds(&telemetry), 1);
    }

    #[test]
    fn bounds_change_in_place_matches_full_rebuild() {
        let model = plant_model();
        let cfg = default_cfg(1000.0);
        let mut in_place = MpcController::new(model.clone(), cfg.clone(), &[1.0, 1.0]).unwrap();
        in_place
            .set_allocation_bounds(vec![0.4, 0.4], vec![2.5, 2.5])
            .unwrap();
        assert_eq!(
            in_place.predictor_generation(),
            0,
            "a bounds edit must not rebuild the predictor"
        );
        let mut narrowed = cfg;
        narrowed.c_min = vec![0.4, 0.4];
        narrowed.c_max = vec![2.5, 2.5];
        let mut rebuilt = MpcController::new(model, narrowed, &[1.0, 1.0]).unwrap();
        for t in [1800.0, 1500.0, 1200.0, 1100.0] {
            let a = in_place.step(t).unwrap();
            let b = rebuilt.step(t).unwrap();
            for (x, y) in a.allocation.iter().zip(&b.allocation) {
                assert_eq!(x.to_bits(), y.to_bits(), "in-place diverged at t={t}");
            }
        }
        // Invalid boxes are rejected and leave the old bounds in force.
        assert!(in_place
            .set_allocation_bounds(vec![3.0, 3.0], vec![1.0, 1.0])
            .is_err());
        assert_eq!(in_place.config().c_min, vec![0.4, 0.4]);
    }

    #[test]
    fn force_allocation_matches_full_rebuild() {
        let model = plant_model();
        let cfg = default_cfg(1000.0);
        let mut in_place = MpcController::new(model.clone(), cfg.clone(), &[1.0, 1.0]).unwrap();
        let _ = in_place.step(1900.0).unwrap();
        in_place.force_allocation(&[2.2, 2.4]).unwrap();
        assert_eq!(in_place.predictor_generation(), 0);
        let mut rebuilt = MpcController::new(model, cfg, &[2.2, 2.4]).unwrap();
        for t in [1400.0, 1200.0, 1050.0] {
            let a = in_place.step(t).unwrap();
            let b = rebuilt.step(t).unwrap();
            for (x, y) in a.allocation.iter().zip(&b.allocation) {
                assert_eq!(x.to_bits(), y.to_bits(), "forced state diverged at t={t}");
            }
        }
        assert!(in_place.force_allocation(&[1.0]).is_err(), "length checked");
    }

    #[test]
    fn higher_r_weight_moves_channel_less() {
        let model = plant_model();
        let mut cfg = default_cfg(800.0);
        cfg.r_weight = vec![1e-6, 10.0]; // channel 1 heavily penalized
        cfg.delta_max = None; // keep the rate limit from masking the split
        let mut ctrl = MpcController::new(model, cfg, &[1.0, 1.0]).unwrap();
        let step = ctrl.step(900.0).unwrap();
        assert!(
            step.delta[0].abs() > step.delta[1].abs(),
            "cheap channel should move more: {:?}",
            step.delta
        );
    }

    #[test]
    fn zero_energy_weight_is_bit_identical_even_with_pue_observed() {
        // The cooling gate: a controller that merely *observes* PUE but has
        // no energy weight must produce every bit the plain controller does.
        let model = plant_model();
        let cfg = default_cfg(1000.0);
        let mut plain = MpcController::new(model.clone(), cfg.clone(), &[1.0, 1.0]).unwrap();
        let mut observed = MpcController::new(model, cfg, &[1.0, 1.0]).unwrap();
        observed.set_energy_weight(0.0).unwrap();
        observed.set_pue(1.73);
        for t in [1900.0, 1500.0, 1200.0, 1050.0, 990.0] {
            let a = plain.step(t).unwrap();
            let b = observed.step(t).unwrap();
            for (x, y) in a.allocation.iter().zip(&b.allocation) {
                assert_eq!(x.to_bits(), y.to_bits(), "PUE observation perturbed t={t}");
            }
        }
    }

    #[test]
    fn energy_weight_validation() {
        let model = plant_model();
        let mut ctrl = MpcController::new(model, default_cfg(1000.0), &[1.0, 1.0]).unwrap();
        assert!(ctrl.set_energy_weight(-1.0).is_err());
        assert!(ctrl.set_energy_weight(f64::NAN).is_err());
        assert!(ctrl.set_energy_weight(50.0).is_ok());
        assert_eq!(ctrl.energy_weight(), 50.0);
        ctrl.set_pue(f64::NAN); // ignored
        assert_eq!(ctrl.pue(), 1.0);
        ctrl.set_pue(0.2); // clamps up
        assert_eq!(ctrl.pue(), 1.0);
        ctrl.set_pue(1.6);
        assert_eq!(ctrl.pue(), 1.6);
    }

    #[test]
    fn cooling_term_shrinks_the_allocation_norm() {
        // With the facility-power rows active the controller settles on a
        // cheaper allocation mix (lower Σc²) while the terminal constraint
        // keeps it tracking the set point.
        let model = plant_model();
        let run = |weight: f64, pue: f64| {
            let mut ctrl =
                MpcController::new(model.clone(), default_cfg(1000.0), &[1.0, 1.0]).unwrap();
            ctrl.set_energy_weight(weight).unwrap();
            ctrl.set_pue(pue);
            let traj = run_closed_loop(&mut ctrl, &model, 80, 2000.0);
            let norm: f64 = ctrl.current_allocation().iter().map(|c| c * c).sum();
            (norm, traj[79])
        };
        let (norm_plain, t_plain) = run(0.0, 1.0);
        let (norm_cool, t_cool) = run(100.0, 1.5);
        assert!(
            norm_cool < norm_plain - 1e-6,
            "cooling norm {norm_cool} must undercut plain {norm_plain}"
        );
        assert!((t_plain - 1000.0).abs() < 15.0, "plain tracks: {t_plain}");
        assert!(
            (t_cool - 1000.0).abs() < 60.0,
            "cooling still tracks: {t_cool}"
        );
        // A hotter facility leans harder on the allocation.
        let (norm_hot, _) = run(100.0, 3.0);
        assert!(
            norm_hot <= norm_cool + 1e-9,
            "PUE 3.0 norm {norm_hot} vs PUE 1.5 norm {norm_cool}"
        );
    }

    #[test]
    fn dynamic_matrix_is_lower_block_toeplitz() {
        let model = plant_model();
        let psi = build_dynamic_matrix(&model, 6, 3).unwrap();
        let m = model.n_inputs();
        // Entries above the move time are zero: move j affects only i > j.
        for j in 0..3 {
            for ch in 0..m {
                for i in 0..j {
                    assert_eq!(psi[(i, j * m + ch)], 0.0);
                }
            }
        }
        // Toeplitz structure: psi[i][move 0] == psi[i+1][move 1].
        for i in 1..5 {
            for ch in 0..m {
                assert!((psi[(i, ch)] - psi[(i + 1 - 1 + 1, m + ch)]).abs() < 1e-12);
            }
        }
    }
}
