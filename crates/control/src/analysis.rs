//! Closed-loop analysis of the MPC response-time controller.
//!
//! The paper's first contribution bullet promises to "design a performance
//! controller … based on MIMO control theory, **and analyze the control
//! performance**"; stability itself is argued via the terminal constraint
//! (§IV-B, citing \[14, 15\]). This module provides the numerical
//! counterpart: away from its constraints, the receding-horizon law is a
//! time-invariant map of the loop state
//!
//! ```text
//! z(k) = [t(k), …, t(k−na+1),  c(k), …, c(k−nb+2)]
//! ```
//!
//! (allocation lags beyond the first appear because the ARX model has `nb`
//! input lags). We linearize one controller+plant step around the loop's
//! equilibrium by finite differences and compute the spectral radius of the
//! resulting closed-loop transition matrix: `ρ < 1` certifies local
//! asymptotic stability of the nominal loop (plant = model), and the
//! magnitude of `ρ` quantifies how fast disturbances decay.

use crate::arx::ArxModel;
use crate::mpc::{MpcConfig, MpcController};
use crate::{ControlError, Result};
use vdc_linalg::{eigenvalues, Complex, Matrix};

/// Result of a closed-loop linearization.
#[derive(Debug, Clone)]
pub struct ClosedLoopAnalysis {
    /// Eigenvalues of the linearized closed-loop transition matrix
    /// (dimension `na + m·(nb−1)`).
    pub(crate) eigenvalues: Vec<Complex>,
    /// Spectral radius `max |λ|`.
    pub(crate) spectral_radius: f64,
}

impl ClosedLoopAnalysis {
    /// Number of (near-)marginal modes, `|λ| ≥ 0.999`. With `m > 1` tier
    /// VMs and a single output, the allocation *split* has an
    /// `m−1`-dimensional null space that the control penalty `R` (which
    /// weights allocation *changes*, not levels) never re-centers, so a
    /// well-posed response-time loop carries exactly `m − 1` such modes
    /// even though its tracking error decays; anything larger flags a
    /// mistuned controller. [`ClosedLoopAnalysis::decay_radius`] is the
    /// rate of the modes that move the output.
    pub fn marginal_modes(&self) -> usize {
        self.eigenvalues.iter().filter(|z| z.abs() >= 0.999).count()
    }

    /// Largest `|λ|` strictly below the marginal band — the decay rate of
    /// the modes that drive the tracking error. Falls back to the full
    /// spectral radius when every mode is marginal.
    pub fn decay_radius(&self) -> f64 {
        let below = self
            .eigenvalues
            .iter()
            .map(|z| z.abs())
            .filter(|a| *a < 0.999)
            .fold(0.0_f64, f64::max);
        if self.marginal_modes() == self.eigenvalues.len() {
            self.spectral_radius
        } else {
            below
        }
    }

    /// Approximate 2-%-settling horizon of the tracking error in control
    /// periods, `ln(0.02) / ln(ρ_decay)`; `None` if the output modes are
    /// deadbeat (ρ ≈ 0 — settles in at most the state dimension) or the
    /// loop is unstable.
    pub fn settling_periods(&self) -> Option<f64> {
        let rho = self.decay_radius();
        if rho >= 1.0 {
            return None;
        }
        if rho < 1e-9 {
            return None;
        }
        Some((0.02_f64).ln() / rho.ln())
    }
}

/// Loop state dimension for a model.
fn state_dim(model: &ArxModel) -> usize {
    model.na().max(1) + model.n_inputs() * model.nb().saturating_sub(1)
}

/// One exact closed-loop step `z → z⁺` with plant = model.
///
/// The controller is freshly constructed from the state each call, so the
/// map is a pure function (the receding-horizon law is time-invariant).
fn closed_loop_step(model: &ArxModel, cfg: &MpcConfig, z: &[f64]) -> Result<Vec<f64>> {
    let na = model.na().max(1);
    let nb = model.nb();
    let m = model.n_inputs();

    // Unpack the state.
    let t_now = z[0];
    let t_prev: Vec<f64> = z[1..na].to_vec(); // t(k−1) … t(k−na+1)
    let mut c_lags: Vec<Vec<f64>> = Vec::with_capacity(nb - 1);
    for j in 0..(nb - 1) {
        let base = na + j * m;
        c_lags.push(z[base..base + m].to_vec());
    }
    let c_current = if nb >= 1 && !c_lags.is_empty() {
        c_lags[0].clone()
    } else {
        // nb == 1: no allocation lags in the state; use the box midpoint.
        cfg.c_min
            .iter()
            .zip(&cfg.c_max)
            .map(|(lo, hi)| 0.5 * (lo + hi))
            .collect()
    };
    let c_hist: Vec<Vec<f64>> = c_lags.iter().skip(1).cloned().collect();

    // Controller sees history *before* the new measurement.
    let mut ctrl =
        MpcController::with_state(model.clone(), cfg.clone(), &t_prev, &c_hist, &c_current)?;
    let step = ctrl.step(t_now)?;
    let c_next = step.allocation;

    // Plant update: t(k+1) uses the new allocation and the lagged ones.
    let mut t_hist_plant = vec![t_now];
    t_hist_plant.extend_from_slice(&t_prev);
    let mut c_hist_plant = vec![c_next.clone()];
    c_hist_plant.extend(c_lags.iter().cloned());
    while c_hist_plant.len() < nb {
        c_hist_plant.push(c_current.clone());
    }
    let t_next = model.predict(&t_hist_plant, &c_hist_plant)?;

    // Pack z⁺.
    let mut z_next = Vec::with_capacity(z.len());
    z_next.push(t_next);
    z_next.push(t_now);
    z_next.extend_from_slice(&t_prev[..na.saturating_sub(2).min(t_prev.len())]);
    z_next.truncate(na);
    while z_next.len() < na {
        z_next.push(*z_next.last().expect("na >= 1"));
    }
    z_next.extend_from_slice(&c_next);
    for lag in c_lags.iter().take(nb.saturating_sub(2)) {
        z_next.extend_from_slice(lag);
    }
    debug_assert_eq!(z_next.len(), z.len());
    Ok(z_next)
}

/// Linearize the closed loop around its equilibrium.
///
/// The equilibrium allocation is the midpoint of the configured box; the
/// analysis overrides the set point to the model's steady-state output at
/// that allocation so the loop has an exact interior fixed point, and
/// disables the rate limit (the analysis targets the *unconstrained* law —
/// saturated behaviour is inherently nonlinear).
pub fn analyze_closed_loop(model: &ArxModel, cfg: &MpcConfig) -> Result<ClosedLoopAnalysis> {
    let (c_star, t_star) = equilibrium(model, cfg)?;
    let mut a_cfg = cfg.clone();
    a_cfg.setpoint = t_star;
    a_cfg.delta_max = None;

    let n = state_dim(model);
    let na = model.na().max(1);
    let mut z_star = Vec::with_capacity(n);
    z_star.extend(std::iter::repeat_n(t_star, na));
    for _ in 0..(model.nb() - 1) {
        z_star.extend_from_slice(&c_star);
    }

    // Verify the fixed point.
    let z_check = closed_loop_step(model, &a_cfg, &z_star)?;
    let drift = z_star
        .iter()
        .zip(&z_check)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    if drift > 1e-6 * (1.0 + t_star.abs()) {
        return Err(ControlError::BadConfig(format!(
            "equilibrium is not a fixed point (drift {drift}); \
             is the set point reachable inside the box?"
        )));
    }

    // Finite-difference Jacobian, central differences.
    let mut jac = Matrix::zeros(n, n);
    for col in 0..n {
        let scale = if col < na {
            (1.0 + t_star.abs()) * 1e-6
        } else {
            1e-6
        };
        let mut zp = z_star.clone();
        zp[col] += scale;
        let fp = closed_loop_step(model, &a_cfg, &zp)?;
        let mut zm = z_star.clone();
        zm[col] -= scale;
        let fm = closed_loop_step(model, &a_cfg, &zm)?;
        for row in 0..n {
            jac[(row, col)] = (fp[row] - fm[row]) / (2.0 * scale);
        }
    }

    let eigs = eigenvalues(&jac)?;
    let spectral_radius = eigs.iter().fold(0.0_f64, |acc, z| acc.max(z.abs()));
    Ok(ClosedLoopAnalysis {
        eigenvalues: eigs,
        spectral_radius,
    })
}

/// The equilibrium the analysis linearizes around: the box-midpoint
/// allocation `c*` (GHz) and the model's steady-state response time `t*`
/// there, which becomes the analysis set point.
fn equilibrium(model: &ArxModel, cfg: &MpcConfig) -> Result<(Vec<f64>, f64)> {
    let denom = 1.0 - model.a().iter().sum::<f64>();
    if denom.abs() < 1e-9 {
        return Err(ControlError::BadConfig(
            "integrating model: no steady state to linearize around".into(),
        ));
    }
    let c_star: Vec<f64> = cfg
        .c_min
        .iter()
        .zip(&cfg.c_max)
        .map(|(lo, hi)| 0.5 * (lo + hi))
        .collect();
    let gain_sum: f64 = model
        .b()
        .iter()
        .map(|lag| lag.iter().zip(&c_star).map(|(b, c)| b * c).sum::<f64>())
        .sum();
    Ok((c_star, (model.bias() + gain_sum) / denom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceTrajectory;

    fn paper_model() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    fn cfg(r: f64) -> MpcConfig {
        MpcConfig {
            prediction_horizon: 10,
            control_horizon: 3,
            q_weight: 1.0,
            r_weight: vec![r; 2],
            reference: ReferenceTrajectory::new(4.0, 12.0).unwrap(),
            setpoint: 1000.0, // overridden by the analysis
            c_min: vec![0.3; 2],
            c_max: vec![3.0; 2],
            delta_max: Some(0.3),
        }
    }

    #[test]
    fn nominal_loop_output_modes_are_stable() {
        let analysis = analyze_closed_loop(&paper_model(), &cfg(4.0e4)).unwrap();
        assert_eq!(analysis.eigenvalues.len(), 3); // na=1 + 2*(nb-1)=2
        assert!(equilibrium(&paper_model(), &cfg(4.0e4)).unwrap().1 > 0.0);
        // With 2 inputs and 1 output the loop carries exactly one
        // structural marginal mode (the allocation-split null space).
        assert_eq!(
            analysis.marginal_modes(),
            1,
            "eigenvalues: {:?}",
            analysis.eigenvalues
        );
        // The modes that drive the tracking error decay.
        assert!(
            analysis.decay_radius() < 1.0,
            "decay radius {}",
            analysis.decay_radius()
        );
        // Settling estimate is finite and positive when 0 < rho < 1.
        if analysis.decay_radius() > 1e-9 {
            let s = analysis.settling_periods().unwrap();
            assert!(s > 0.0 && s.is_finite());
        }
    }

    #[test]
    fn single_input_loop_has_no_marginal_mode() {
        // One tier, one output: no null space, radius itself must be < 1.
        let model = ArxModel::new(vec![0.45], vec![vec![-200.0], vec![-60.0]], 1400.0).unwrap();
        let mut c = cfg(4.0e4);
        c.r_weight = vec![4.0e4];
        c.c_min = vec![0.3];
        c.c_max = vec![3.0];
        let analysis = analyze_closed_loop(&model, &c).unwrap();
        assert_eq!(analysis.marginal_modes(), 0, "{:?}", analysis.eigenvalues);
        assert!(
            analysis.spectral_radius < 1.0,
            "radius {}",
            analysis.spectral_radius
        );
    }

    #[test]
    fn control_penalty_scan_stays_stable() {
        // The decay radius is NOT monotone in R: with the hard terminal
        // constraint the output is forced to the set point within M periods
        // regardless of R, and at small R the loop instead follows the
        // exponential reference trajectory. What must hold across the whole
        // scan: stable tracking modes and exactly one structural marginal
        // mode (m − 1 = 1).
        for r in [1.0, 1.0e2, 1.0e4, 1.0e7] {
            let a = analyze_closed_loop(&paper_model(), &cfg(r)).unwrap();
            assert!(
                a.decay_radius() < 1.0,
                "R = {r}: decay radius {}",
                a.decay_radius()
            );
            assert_eq!(a.marginal_modes(), 1, "R = {r}: {:?}", a.eigenvalues);
        }
    }

    #[test]
    fn integrating_model_is_rejected() {
        let m = ArxModel::new(vec![1.0], vec![vec![-100.0, -50.0]], 0.0).unwrap();
        assert!(analyze_closed_loop(&m, &cfg(1.0)).is_err());
    }

    #[test]
    fn equilibrium_matches_model_steady_state() {
        let model = paper_model();
        let (c_star, t_star) = equilibrium(&model, &cfg(4.0e4)).unwrap();
        // t* = (bias + Σ b·c*) / (1 − a) with c* = box midpoint (1.65).
        let c = 1.65;
        let expect = (1400.0 + (-180.0 - 120.0 - 60.0 - 40.0) * c) / (1.0 - 0.45);
        assert!((t_star - expect).abs() < 1e-9);
        assert_eq!(c_star, vec![1.65, 1.65]);
    }

    #[test]
    fn linearization_predicts_simulated_decay() {
        // The linearized radius must upper-bound the observed decay of a
        // small perturbation in simulation (same unconstrained config).
        let model = paper_model();
        let mut a_cfg = cfg(4.0e4);
        let analysis = analyze_closed_loop(&model, &a_cfg).unwrap();
        let (c_star, t_star) = equilibrium(&model, &a_cfg).unwrap();
        a_cfg.setpoint = t_star;
        a_cfg.delta_max = None;

        // Simulate the loop from a slightly perturbed start.
        let mut ctrl =
            MpcController::with_state(model.clone(), a_cfg, &[t_star], &[], &c_star).unwrap();
        let mut t = t_star + 50.0;
        let mut t_hist = [t_star];
        let mut c_hist = vec![c_star.clone(), c_star.clone()];
        let mut errs = Vec::new();
        for _ in 0..12 {
            let step = ctrl.step(t).unwrap();
            c_hist.rotate_right(1);
            c_hist[0] = step.allocation.clone();
            let t_next = model.predict(&[t, t_hist[0]][..1], &c_hist).unwrap();
            t_hist[0] = t;
            t = t_next;
            errs.push((t - t_star).abs());
        }
        // After a dozen periods the perturbation must have decayed hard if
        // rho is small.
        let final_err = errs.last().unwrap();
        assert!(
            *final_err < 50.0 * (analysis.decay_radius() + 0.2).powi(6),
            "decay too slow: errs {errs:?}, rho {}",
            analysis.decay_radius()
        );
    }
}

/// Achievable steady-state output range of `model` over the allocation box
/// `[c_min, c_max]` — the §IV-A feasibility check: "we assume that the
/// constrained optimization problem is feasible, i.e., there exists a set
/// of CPU resource allocations within their acceptable ranges that can
/// make the response time of the application achieve the desired value."
///
/// The steady state is linear in the allocation, so the extremes sit at
/// box corners selected by each channel's gain sign. Returns `None` for
/// integrating models (no steady state).
pub fn achievable_range(model: &ArxModel, c_min: &[f64], c_max: &[f64]) -> Option<(f64, f64)> {
    let m = model.n_inputs();
    if c_min.len() != m || c_max.len() != m {
        return None;
    }
    let denom = 1.0 - model.a().iter().sum::<f64>();
    if denom.abs() < 1e-12 {
        return None;
    }
    // Total steady-state gain per channel: Σ_lag b[lag][ch].
    let mut lo = model.bias();
    let mut hi = model.bias();
    for ch in 0..m {
        let g: f64 = model.b().iter().map(|lag| lag[ch]).sum();
        // Contribution g·c over c ∈ [c_min, c_max].
        let (c_lo, c_hi) = (c_min[ch], c_max[ch]);
        let (add_lo, add_hi) = if g >= 0.0 {
            (g * c_lo, g * c_hi)
        } else {
            (g * c_hi, g * c_lo)
        };
        lo += add_lo;
        hi += add_hi;
    }
    let (mut t_lo, mut t_hi) = (lo / denom, hi / denom);
    if t_lo > t_hi {
        std::mem::swap(&mut t_lo, &mut t_hi);
    }
    Some((t_lo, t_hi))
}

#[cfg(test)]
mod feasibility_tests {
    use super::*;

    fn model() -> ArxModel {
        // t∞(c) = (1400 − 240 c₁ − 160 c₂) / 0.55.
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    #[test]
    fn range_matches_hand_computation() {
        let (lo, hi) = achievable_range(&model(), &[0.3, 0.3], &[3.0, 3.0]).unwrap();
        let t_at = |c1: f64, c2: f64| (1400.0 - 240.0 * c1 - 160.0 * c2) / 0.55;
        assert!((lo - t_at(3.0, 3.0)).abs() < 1e-9);
        assert!((hi - t_at(0.3, 0.3)).abs() < 1e-9);
        assert!(lo < hi);
    }

    #[test]
    fn mixed_gain_signs_pick_correct_corners() {
        // One positive, one negative gain.
        let m = ArxModel::new(vec![0.0], vec![vec![100.0, -50.0]], 500.0).unwrap();
        let (lo, hi) = achievable_range(&m, &[0.0, 0.0], &[2.0, 2.0]).unwrap();
        // min at c1=0 (g>0) and c2=2 (g<0): 500 − 100 = 400.
        // max at c1=2, c2=0: 500 + 200 = 700.
        assert!((lo - 400.0).abs() < 1e-9);
        assert!((hi - 700.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        let m = model();
        assert!(achievable_range(&m, &[0.3], &[3.0, 3.0]).is_none());
        let integ = ArxModel::new(vec![1.0], vec![vec![-1.0, -1.0]], 0.0).unwrap();
        assert!(achievable_range(&integ, &[0.0, 0.0], &[1.0, 1.0]).is_none());
    }
}
