//! System identification of response-time models.
//!
//! The paper (§IV-B) does not derive a physical equation for `t = f(c)`;
//! it excites the testbed, records data, and fits eq. (1) with least
//! squares. This module provides the same workflow against any plant:
//!
//! 1. design an excitation signal ([`Prbs`], independent per tier),
//! 2. log `(c(k), t(k))` pairs into [`ExperimentData`],
//! 3. fit an [`crate::ArxModel`] with [`fit_arx`] (QR least squares),
//! 4. or adapt online with [`RecursiveLeastSquares`].

use crate::arx::ArxModel;
use crate::{ControlError, Result};
use vdc_linalg::{Matrix, Vector};

/// Pseudo-Random Binary Sequence generator (maximal-length LFSR).
///
/// PRBS is the standard excitation for linear system identification: it is
/// persistently exciting and has a flat spectrum. Each call to
/// [`Prbs::next_level`] returns either `low` or `high`.
#[derive(Debug, Clone)]
pub struct Prbs {
    /// LFSR state (16-bit taps 16,15,13,4 — maximal length 65535).
    state: u16,
    low: f64,
    high: f64,
    /// Hold each level for this many steps (shapes excitation bandwidth).
    hold: usize,
    held: usize,
    current_bit: bool,
}

impl Prbs {
    /// Create a PRBS alternating between `low` and `high`, holding each
    /// level for `hold` consecutive samples. `seed` must be non-zero
    /// (a zero seed is replaced with 1).
    pub fn new(low: f64, high: f64, hold: usize, seed: u16) -> Prbs {
        Prbs {
            state: if seed == 0 { 1 } else { seed },
            low,
            high,
            hold: hold.max(1),
            held: 0,
            current_bit: true,
        }
    }

    fn step_lfsr(&mut self) -> bool {
        // Fibonacci LFSR, taps 16,15,13,4.
        let bit = (self.state ^ (self.state >> 1) ^ (self.state >> 3) ^ (self.state >> 12)) & 1;
        self.state = (self.state >> 1) | (bit << 15);
        bit == 1
    }

    /// Next excitation level.
    pub fn next_level(&mut self) -> f64 {
        if self.held == 0 {
            self.current_bit = self.step_lfsr();
        }
        self.held = (self.held + 1) % self.hold;
        if self.current_bit {
            self.high
        } else {
            self.low
        }
    }
}

/// Logged identification data: aligned sequences of inputs and outputs.
///
/// `inputs[k]` is the allocation vector `c(k)` applied during period `k`;
/// `outputs[k]` is the response time `t(k)` measured at the end of period
/// `k`.
#[derive(Debug, Clone, Default)]
pub struct ExperimentData {
    inputs: Vec<Vec<f64>>,
    outputs: Vec<f64>,
}

impl ExperimentData {
    /// Empty data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one sample `(c(k), t(k))`.
    pub fn push(&mut self, input: Vec<f64>, output: f64) {
        self.inputs.push(input);
        self.outputs.push(output);
    }

    /// Number of samples.
    pub(crate) fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether no samples have been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Recorded inputs.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.inputs
    }

    /// Recorded outputs.
    pub fn outputs(&self) -> &[f64] {
        &self.outputs
    }
}

/// An identified model together with fit-quality metrics.
#[derive(Debug, Clone)]
pub struct ArxFit {
    /// The identified model.
    pub model: ArxModel,
    /// Coefficient of determination of one-step predictions.
    pub r_squared: f64,
}

/// Fit an ARX(`na`, `nb`) model to experiment data by QR least squares.
///
/// The regression for each usable time index `k` (where all lags exist) is
///
/// ```text
/// t(k) = [t(k−1)…t(k−na), c(k), c(k−1), …, c(k−nb+1), 1] · θ
/// ```
///
/// Convention: `inputs[k]` is the allocation **in force during** period `k`
/// and `outputs[k]` the response time measured over period `k`, so the most
/// recent input lag is the same-period allocation. (The paper's eq. (1)
/// indexes allocations by decision instant, which shifts the labels by one
/// period but describes the same model.)
pub fn fit_arx(data: &ExperimentData, na: usize, nb: usize) -> Result<ArxFit> {
    if nb == 0 {
        return Err(ControlError::BadConfig("nb must be >= 1".into()));
    }
    if data.is_empty() {
        return Err(ControlError::InsufficientData {
            available: 0,
            required: 1,
        });
    }
    let m = data.inputs[0].len();
    if m == 0 || data.inputs.iter().any(|c| c.len() != m) {
        return Err(ControlError::BadDimensions(
            "experiment inputs are empty or ragged".into(),
        ));
    }
    let lag = na.max(nb - 1);
    let n_params = na + nb * m + 1;
    let n = data.len();
    if n <= lag || n - lag < n_params + 2 {
        return Err(ControlError::InsufficientData {
            available: n.saturating_sub(lag),
            required: n_params + 2,
        });
    }

    let rows = n - lag;
    let mut reg = Matrix::zeros(rows, n_params);
    let mut y = Vec::with_capacity(rows);
    for (row, k) in (lag..n).enumerate() {
        let mut col = 0;
        for j in 1..=na {
            reg[(row, col)] = data.outputs[k - j];
            col += 1;
        }
        for j in 0..nb {
            for i in 0..m {
                reg[(row, col)] = data.inputs[k - j][i];
                col += 1;
            }
        }
        reg[(row, col)] = 1.0; // bias
        y.push(data.outputs[k]);
    }
    let yv = Vector::from_vec(y);
    let theta = vdc_linalg::Qr::new(&reg)?.solve(&yv)?;

    // Unpack parameters.
    let a: Vec<f64> = (0..na).map(|j| theta[j]).collect();
    let mut b = Vec::with_capacity(nb);
    for j in 0..nb {
        b.push((0..m).map(|i| theta[na + j * m + i]).collect());
    }
    let bias = theta[n_params - 1];
    let model = ArxModel::new(a, b, bias)?;

    // Fit metrics.
    let pred = reg.matvec(&theta)?;
    let resid = &pred - &yv;
    let sse: f64 = resid.as_slice().iter().map(|e| e * e).sum();
    let mean = yv.sum() / rows as f64;
    let sst: f64 = yv.as_slice().iter().map(|v| (v - mean).powi(2)).sum();
    let r_squared = if sst > 0.0 { 1.0 - sse / sst } else { 1.0 };
    Ok(ArxFit { model, r_squared })
}

/// Recursive least squares with exponential forgetting.
///
/// Tracks the ARX parameter vector online so the controller can adapt when
/// the workload drifts away from the identification conditions (the
/// robustness experiments of Fig. 4/5 in the paper probe exactly this).
#[derive(Debug, Clone)]
pub struct RecursiveLeastSquares {
    na: usize,
    nb: usize,
    m: usize,
    theta: Vector,
    /// Inverse covariance (information) matrix P.
    p: Matrix,
    lambda: f64,
    t_hist: Vec<f64>,
    c_hist: Vec<Vec<f64>>,
}

impl RecursiveLeastSquares {
    /// Create an RLS estimator for an ARX(`na`,`nb`) model with `m` inputs.
    ///
    /// `forgetting` λ ∈ (0, 1]: 1.0 = ordinary RLS; 0.95–0.99 tracks
    /// time-varying plants. `initial_covariance` scales the prior
    /// uncertainty (large = fast initial adaptation).
    pub fn new(
        na: usize,
        nb: usize,
        m: usize,
        forgetting: f64,
        initial_covariance: f64,
    ) -> Result<RecursiveLeastSquares> {
        if nb == 0 || m == 0 {
            return Err(ControlError::BadConfig(
                "RLS needs nb >= 1 and m >= 1".into(),
            ));
        }
        if !(0.0 < forgetting && forgetting <= 1.0) {
            return Err(ControlError::BadConfig(format!(
                "forgetting factor {forgetting} outside (0, 1]"
            )));
        }
        let n_params = na + nb * m + 1;
        Ok(RecursiveLeastSquares {
            na,
            nb,
            m,
            theta: Vector::zeros(n_params),
            p: Matrix::identity(n_params).scaled(initial_covariance),
            lambda: forgetting,
            t_hist: Vec::new(),
            c_hist: Vec::new(),
        })
    }

    fn regressor(&self) -> Option<Vector> {
        if self.t_hist.len() < self.na || self.c_hist.len() < self.nb {
            return None;
        }
        let mut phi = Vec::with_capacity(self.theta.len());
        for j in 0..self.na {
            phi.push(self.t_hist[j]);
        }
        for j in 0..self.nb {
            phi.extend_from_slice(&self.c_hist[j]);
        }
        phi.push(1.0);
        Some(Vector::from_vec(phi))
    }

    /// Feed one observation `(c(k), t(k))` — `input` is the allocation in
    /// force during period `k` (same convention as [`fit_arx`]). Parameters
    /// update once enough history has accumulated.
    pub fn observe(&mut self, input: &[f64], output: f64) -> Result<()> {
        if input.len() != self.m {
            return Err(ControlError::BadDimensions(format!(
                "RLS input has {} entries, expected {}",
                input.len(),
                self.m
            )));
        }
        // The same-period input is part of the regressor: push it first.
        self.c_hist.insert(0, input.to_vec());
        self.c_hist.truncate(self.nb);
        if let Some(phi) = self.regressor() {
            // Standard RLS update.
            let p_phi = self.p.matvec(&phi)?;
            let denom = self.lambda + phi.dot(&p_phi);
            let gain = p_phi.scaled(1.0 / denom);
            let err = output - phi.dot(&self.theta);
            self.theta.axpy(err, &gain);
            // P = (P - gain·phiᵀ·P) / λ
            let phi_t_p = self.p.tr_matvec(&phi)?;
            let n = self.theta.len();
            for r in 0..n {
                for c in 0..n {
                    self.p[(r, c)] = (self.p[(r, c)] - gain[r] * phi_t_p[c]) / self.lambda;
                }
            }
        }
        // Shift output history (most recent first).
        self.t_hist.insert(0, output);
        self.t_hist.truncate(self.na.max(1));
        Ok(())
    }

    /// Current parameter estimate as an [`ArxModel`].
    pub fn model(&self) -> Result<ArxModel> {
        let a: Vec<f64> = (0..self.na).map(|j| self.theta[j]).collect();
        let mut b = Vec::with_capacity(self.nb);
        for j in 0..self.nb {
            b.push(
                (0..self.m)
                    .map(|i| self.theta[self.na + j * self.m + i])
                    .collect(),
            );
        }
        ArxModel::new(a, b, self.theta[self.theta.len() - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn true_model() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    /// Generate noiseless data from the true model under PRBS excitation.
    fn make_data(n: usize, noise: f64) -> ExperimentData {
        let model = true_model();
        let mut p1 = Prbs::new(0.6, 1.4, 3, 0xACE1);
        let mut p2 = Prbs::new(0.5, 1.2, 4, 0xBEEF);
        let mut rng_state: u64 = 7;
        let mut noise_next = move || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (((rng_state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) * noise
        };
        let mut data = ExperimentData::new();
        let mut t_hist = vec![800.0];
        let mut c_hist = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        for _ in 0..n {
            let c = vec![p1.next_level(), p2.next_level()];
            c_hist.rotate_right(1);
            c_hist[0] = c.clone();
            let t = model.predict(&t_hist, &c_hist).unwrap() + noise_next();
            t_hist[0] = t;
            data.push(c, t);
        }
        data
    }

    #[test]
    fn prbs_levels_and_hold() {
        let mut p = Prbs::new(-1.0, 1.0, 2, 1);
        let seq: Vec<f64> = (0..20).map(|_| p.next_level()).collect();
        assert!(seq.iter().all(|&v| v == -1.0 || v == 1.0));
        // Hold = 2: values come in pairs.
        for pair in seq.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
        // Both levels appear.
        assert!(seq.contains(&-1.0) && seq.contains(&1.0));
    }

    #[test]
    fn prbs_zero_seed_survives() {
        let mut p = Prbs::new(0.0, 1.0, 1, 0);
        // Must not get stuck at all-zero state.
        let seq: Vec<f64> = (0..100).map(|_| p.next_level()).collect();
        assert!(seq.contains(&1.0));
    }

    #[test]
    fn fit_recovers_true_parameters_noiseless() {
        let data = make_data(300, 0.0);
        let fit = fit_arx(&data, 1, 2).unwrap();
        let m = fit.model;
        assert!((m.a()[0] - 0.45).abs() < 1e-6, "a = {:?}", m.a());
        assert!((m.b()[0][0] + 180.0).abs() < 1e-4);
        assert!((m.b()[0][1] + 120.0).abs() < 1e-4);
        assert!((m.b()[1][0] + 60.0).abs() < 1e-4);
        assert!((m.b()[1][1] + 40.0).abs() < 1e-4);
        assert!((m.bias() - 1400.0).abs() < 1e-3);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn fit_with_noise_still_close() {
        let data = make_data(2000, 20.0);
        let fit = fit_arx(&data, 1, 2).unwrap();
        assert!((fit.model.a()[0] - 0.45).abs() < 0.05);
        assert!((fit.model.b()[0][0] + 180.0).abs() < 25.0);
        assert!(fit.r_squared > 0.9);
    }

    #[test]
    fn fit_rejects_insufficient_data() {
        let mut data = ExperimentData::new();
        for k in 0..5 {
            data.push(vec![1.0, 1.0], 100.0 + k as f64);
        }
        assert!(matches!(
            fit_arx(&data, 1, 2),
            Err(ControlError::InsufficientData { .. })
        ));
        assert!(matches!(
            fit_arx(&ExperimentData::new(), 1, 1),
            Err(ControlError::InsufficientData { .. })
        ));
    }

    #[test]
    fn fit_rejects_bad_orders_and_ragged_inputs() {
        let data = make_data(100, 0.0);
        assert!(matches!(
            fit_arx(&data, 1, 0),
            Err(ControlError::BadConfig(_))
        ));
        let mut ragged = ExperimentData::new();
        ragged.push(vec![1.0, 2.0], 1.0);
        ragged.push(vec![1.0], 2.0);
        for _ in 0..50 {
            ragged.push(vec![1.0, 2.0], 1.0);
        }
        assert!(fit_arx(&ragged, 1, 1).is_err());
    }

    #[test]
    fn rls_converges_to_true_parameters() {
        let data = make_data(800, 1.0);
        let mut rls = RecursiveLeastSquares::new(1, 2, 2, 1.0, 1e6).unwrap();
        for (c, &t) in data.inputs().iter().zip(data.outputs()) {
            rls.observe(c, t).unwrap();
        }
        let m = rls.model().unwrap();
        assert!((m.a()[0] - 0.45).abs() < 0.05, "a = {:?}", m.a());
        assert!((m.b()[0][0] + 180.0).abs() < 20.0, "b = {:?}", m.b());
    }

    #[test]
    fn rls_validates_inputs() {
        assert!(RecursiveLeastSquares::new(1, 0, 2, 1.0, 100.0).is_err());
        assert!(RecursiveLeastSquares::new(1, 1, 2, 0.0, 100.0).is_err());
        assert!(RecursiveLeastSquares::new(1, 1, 2, 1.5, 100.0).is_err());
        let mut rls = RecursiveLeastSquares::new(1, 1, 2, 1.0, 100.0).unwrap();
        assert!(rls.observe(&[1.0], 5.0).is_err());
    }

    #[test]
    fn rls_with_forgetting_tracks_parameter_change() {
        // Plant gain changes halfway; forgetting RLS should follow.
        let m1 = ArxModel::new(vec![0.3], vec![vec![-100.0]], 500.0).unwrap();
        let m2 = ArxModel::new(vec![0.3], vec![vec![-200.0]], 500.0).unwrap();
        let mut rls = RecursiveLeastSquares::new(1, 1, 1, 0.97, 1e6).unwrap();
        let mut prbs = Prbs::new(0.5, 1.5, 2, 77);
        let mut t_hist = vec![0.0];
        let mut c_hist = vec![vec![1.0]];
        for step in 0..1200 {
            let model = if step < 600 { &m1 } else { &m2 };
            let c = vec![prbs.next_level()];
            c_hist[0] = c.clone();
            let t = model.predict(&t_hist, &c_hist).unwrap();
            t_hist[0] = t;
            rls.observe(&c, t).unwrap();
        }
        let m = rls.model().unwrap();
        assert!(
            (m.b()[0][0] + 200.0).abs() < 30.0,
            "tracked gain {:?} should be near -200",
            m.b()
        );
    }
}
