//! MISO ARX models of application response time.
//!
//! The paper's system model (eq. (1)) for a two-tier application is
//!
//! ```text
//! t(k) = α₁₁ t(k−1) + β₁₁ᵀ c(k−1) + β₁₂ᵀ c(k−2) + γ(k−1)
//! ```
//!
//! i.e. an ARX model with one output lag and two input lags over the vector
//! of per-tier CPU allocations. This module implements the general class:
//! `na` output lags, `nb` input lags, `m` inputs, plus a constant bias.

use crate::{ControlError, Result};
use vdc_linalg::Matrix;

/// A Multiple-Input Single-Output ARX model
///
/// ```text
/// t(k) = Σ_{j=1..na} a[j−1]·t(k−j) + Σ_{j=1..nb} b[j−1]ᵀ·c(k−j) + bias
/// ```
///
/// where `t` is the (scalar) 90-percentile response time and `c` is the
/// vector of CPU allocations of the application's tier VMs (GHz).
///
/// # Examples
///
/// ```
/// use vdc_control::ArxModel;
///
/// // The two-tier model shape of eq. (1): more CPU lowers response time.
/// let m = ArxModel::new(
///     vec![0.45],
///     vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
///     1400.0,
/// ).unwrap();
/// assert!(m.dc_gain(0).unwrap() < 0.0);
/// let t = m.predict(&[900.0], &[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArxModel {
    /// Output-lag coefficients `a[0..na]` (`a[j-1]` multiplies `t(k-j)`).
    a: Vec<f64>,
    /// Input-lag coefficient vectors: `b[j-1][i]` multiplies `c_i(k-j)`.
    b: Vec<Vec<f64>>,
    /// Constant bias term (absorbs the γ disturbance mean).
    bias: f64,
    /// Number of inputs (tiers).
    n_inputs: usize,
}

impl ArxModel {
    /// Construct a model from explicit coefficients.
    ///
    /// `b` must be non-empty and rectangular: every lag vector must have the
    /// same length (the input count). `a` may be empty (pure FIR model).
    pub fn new(a: Vec<f64>, b: Vec<Vec<f64>>, bias: f64) -> Result<ArxModel> {
        if b.is_empty() {
            return Err(ControlError::BadDimensions(
                "ARX model needs at least one input lag".into(),
            ));
        }
        let n_inputs = b[0].len();
        if n_inputs == 0 {
            return Err(ControlError::BadDimensions(
                "ARX model needs at least one input".into(),
            ));
        }
        if b.iter().any(|lag| lag.len() != n_inputs) {
            return Err(ControlError::BadDimensions(
                "ARX input-lag vectors have inconsistent lengths".into(),
            ));
        }
        Ok(ArxModel {
            a,
            b,
            bias,
            n_inputs,
        })
    }

    /// Number of output lags `na`.
    pub fn na(&self) -> usize {
        self.a.len()
    }

    /// Number of input lags `nb`.
    pub fn nb(&self) -> usize {
        self.b.len()
    }

    /// Number of inputs (tier VMs).
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Output-lag coefficients.
    pub fn a(&self) -> &[f64] {
        &self.a
    }

    /// Input-lag coefficient vectors.
    pub fn b(&self) -> &[Vec<f64>] {
        &self.b
    }

    /// Bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// One-step prediction.
    ///
    /// `t_hist[j]` is `t(k−1−j)` (most recent first) and `c_hist[j]` is
    /// `c(k−1−j)`. Histories must be at least `na` / `nb` long.
    pub fn predict(&self, t_hist: &[f64], c_hist: &[Vec<f64>]) -> Result<f64> {
        if t_hist.len() < self.na() {
            return Err(ControlError::BadDimensions(format!(
                "need {} output lags, got {}",
                self.na(),
                t_hist.len()
            )));
        }
        if c_hist.len() < self.nb() {
            return Err(ControlError::BadDimensions(format!(
                "need {} input lags, got {}",
                self.nb(),
                c_hist.len()
            )));
        }
        let mut t = self.bias;
        for (j, &aj) in self.a.iter().enumerate() {
            t += aj * t_hist[j];
        }
        for (j, bj) in self.b.iter().enumerate() {
            let c = &c_hist[j];
            if c.len() != self.n_inputs {
                return Err(ControlError::BadDimensions(format!(
                    "input lag {} has {} entries, model has {} inputs",
                    j,
                    c.len(),
                    self.n_inputs
                )));
            }
            for (bi, ci) in bj.iter().zip(c) {
                t += bi * ci;
            }
        }
        Ok(t)
    }

    /// Simulate the model forward over an input sequence.
    ///
    /// `inputs[k]` is `c(k)`; the output at step `k` uses inputs up to
    /// `c(k−1)`. Initial output history is zero; initial inputs are zero.
    /// Returns `t(1..=inputs.len())` — the free run of the model.
    pub(crate) fn simulate(&self, inputs: &[Vec<f64>]) -> Result<Vec<f64>> {
        let n = inputs.len();
        let mut t_hist: Vec<f64> = vec![0.0; self.na()];
        let mut c_hist: Vec<Vec<f64>> = vec![vec![0.0; self.n_inputs]; self.nb()];
        let mut out = Vec::with_capacity(n);
        for input in inputs {
            // Shift input history: most recent first.
            c_hist.rotate_right(1);
            c_hist[0] = input.clone();
            let t = self.predict(&t_hist, &c_hist)?;
            if !t_hist.is_empty() {
                t_hist.rotate_right(1);
                t_hist[0] = t;
            }
            out.push(t);
        }
        Ok(out)
    }

    /// Step-response coefficients of input channel `ch`: `s[i]` is the output
    /// at time `i+1` after a unit step on channel `ch` applied from time 0,
    /// with zero initial conditions and zero bias.
    ///
    /// These are the entries of the MPC dynamic matrix: a step of size
    /// `Δc_ch` at time `k+m` contributes `Δc_ch · s[i−m−1]` to `t(k+i|k)`.
    pub(crate) fn step_response(&self, ch: usize, horizon: usize) -> Result<Vec<f64>> {
        if ch >= self.n_inputs {
            return Err(ControlError::BadDimensions(format!(
                "channel {} out of range ({} inputs)",
                ch, self.n_inputs
            )));
        }
        let zero_bias = ArxModel {
            bias: 0.0,
            ..self.clone()
        };
        let mut step = vec![0.0; self.n_inputs];
        step[ch] = 1.0;
        let inputs = vec![step; horizon];
        zero_bias.simulate(&inputs)
    }

    /// Steady-state (DC) gain from input channel `ch` to the output:
    /// `Σ_j b[j][ch] / (1 − Σ_j a[j])`. `None` if the denominator vanishes
    /// (integrating model).
    pub fn dc_gain(&self, ch: usize) -> Option<f64> {
        if ch >= self.n_inputs {
            return None;
        }
        let denom = 1.0 - self.a.iter().sum::<f64>();
        if denom.abs() < 1e-12 {
            return None;
        }
        let num: f64 = self.b.iter().map(|lag| lag[ch]).sum();
        Some(num / denom)
    }

    /// Companion matrix of the autoregressive part; its eigenvalues are the
    /// model poles. Returns `None` for models with `na = 0` (FIR: no poles).
    pub(crate) fn companion_matrix(&self) -> Option<Matrix> {
        let na = self.na();
        if na == 0 {
            return None;
        }
        let mut m = Matrix::zeros(na, na);
        for (j, &aj) in self.a.iter().enumerate() {
            m[(0, j)] = aj;
        }
        for i in 1..na {
            m[(i, i - 1)] = 1.0;
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example model of eq. (1) in the paper, with coefficients in the
    /// right ballpark for a two-tier application (response time in ms,
    /// allocation in GHz; more CPU => lower response time, so b < 0).
    fn paper_like_model() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(ArxModel::new(vec![0.5], vec![], 0.0).is_err());
        assert!(ArxModel::new(vec![0.5], vec![vec![]], 0.0).is_err());
        assert!(ArxModel::new(vec![0.5], vec![vec![1.0, 2.0], vec![1.0]], 0.0).is_err());
        let m = paper_like_model();
        assert_eq!(m.na(), 1);
        assert_eq!(m.nb(), 2);
        assert_eq!(m.n_inputs(), 2);
    }

    #[test]
    fn predict_matches_hand_computation() {
        let m = paper_like_model();
        // t(k) = 0.45*800 + (-180*1.0 - 120*0.8) + (-60*1.2 - 40*0.9) + 1400
        let t = m
            .predict(&[800.0], &[vec![1.0, 0.8], vec![1.2, 0.9]])
            .unwrap();
        let expected = 0.45 * 800.0 + (-180.0 - 96.0) + (-72.0 - 36.0) + 1400.0;
        assert!((t - expected).abs() < 1e-9, "{t} vs {expected}");
    }

    #[test]
    fn predict_rejects_short_history() {
        let m = paper_like_model();
        assert!(m.predict(&[], &[vec![1.0, 1.0], vec![1.0, 1.0]]).is_err());
        assert!(m.predict(&[800.0], &[vec![1.0, 1.0]]).is_err());
        assert!(m.predict(&[800.0], &[vec![1.0], vec![1.0, 1.0]]).is_err());
    }

    #[test]
    fn simulate_converges_to_dc_value_under_constant_input() {
        let m = paper_like_model();
        let c = vec![1.0, 1.0];
        let out = m.simulate(&vec![c.clone(); 200]).unwrap();
        let last = *out.last().unwrap();
        // Steady state: t = (bias + Σb·c) / (1 − Σa)
        let ss = (1400.0 + (-180.0 - 120.0 - 60.0 - 40.0)) / (1.0 - 0.45);
        assert!((last - ss).abs() < 1e-6, "{last} vs {ss}");
    }

    #[test]
    fn step_response_settles_at_dc_gain() {
        let m = paper_like_model();
        let s = m.step_response(0, 100).unwrap();
        let gain = m.dc_gain(0).unwrap();
        assert!((s.last().unwrap() - gain).abs() < 1e-9);
        // More CPU lowers response time: negative gain.
        assert!(gain < 0.0);
        // First coefficient is b[0][0] (one-step delay).
        assert!((s[0] - (-180.0)).abs() < 1e-12);
    }

    #[test]
    fn step_response_bad_channel() {
        assert!(paper_like_model().step_response(2, 10).is_err());
    }

    #[test]
    fn dc_gain_integrator_is_none() {
        let m = ArxModel::new(vec![1.0], vec![vec![1.0]], 0.0).unwrap();
        assert!(m.dc_gain(0).is_none());
        assert!(m.dc_gain(5).is_none());
    }

    #[test]
    fn companion_matrix_poles() {
        // t(k) = 0.5 t(k-1) + 0.2 t(k-2) + u: companion [[0.5,0.2],[1,0]].
        let m = ArxModel::new(vec![0.5, 0.2], vec![vec![1.0]], 0.0).unwrap();
        let cm = m.companion_matrix().unwrap();
        assert_eq!(cm[(0, 0)], 0.5);
        assert_eq!(cm[(0, 1)], 0.2);
        assert_eq!(cm[(1, 0)], 1.0);
        // FIR model has no companion matrix.
        let fir = ArxModel::new(vec![], vec![vec![1.0]], 0.0).unwrap();
        assert!(fir.companion_matrix().is_none());
    }

    #[test]
    fn fir_model_simulation() {
        // t(k) = 2 c(k-1): pure gain with one delay.
        let m = ArxModel::new(vec![], vec![vec![2.0]], 0.0).unwrap();
        let out = m.simulate(&[vec![1.0], vec![3.0], vec![5.0]]).unwrap();
        assert_eq!(out, vec![2.0, 6.0, 10.0]);
    }
}
