//! Box-constrained quadratic programming via a primal active-set method.
//!
//! The MPC controller minimizes a strictly convex quadratic cost in the
//! stacked control moves, subject to box constraints (CPU allocations within
//! their acceptable ranges, §IV-A). This module solves
//!
//! ```text
//! min ½ xᵀ H x + fᵀ x   subject to   lb ≤ x ≤ ub
//! ```
//!
//! with `H` symmetric positive definite, using the classic primal active-set
//! scheme: fix a working set of variables at their bounds, solve the free
//! sub-system with Cholesky, then either step to the first blocking bound or
//! release a bound whose Lagrange multiplier has the wrong sign. For SPD `H`
//! this terminates in finitely many iterations.
//!
//! The MPC's terminal equality constraint is handled upstream (hard KKT
//! solve when no bound is active, quadratic penalty folded into `H`,`f`
//! otherwise — see `vdc-control::mpc`).

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::vector::Vector;

/// Failure modes of the QP solver.
#[derive(Debug, Clone, PartialEq)]
pub enum QpError {
    /// Input dimensions are inconsistent.
    DimensionMismatch,
    /// Some `lb[i] > ub[i]`, so the feasible set is empty.
    InfeasibleBounds,
    /// `H` is not positive definite on the free subspace.
    NotPositiveDefinite,
    /// Iteration limit reached (anti-cycling guard). The best feasible
    /// iterate is still returned inside the error.
    IterationLimit(QpSolution),
}

impl std::fmt::Display for QpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpError::DimensionMismatch => write!(f, "QP dimension mismatch"),
            QpError::InfeasibleBounds => write!(f, "QP bounds are infeasible (lb > ub)"),
            QpError::NotPositiveDefinite => write!(f, "QP Hessian is not positive definite"),
            QpError::IterationLimit(_) => write!(f, "QP active-set iteration limit reached"),
        }
    }
}

impl std::error::Error for QpError {}

/// Result of a successful QP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    /// The minimizer.
    pub x: Vector,
    /// Objective value `½xᵀHx + fᵀx` at the minimizer.
    pub objective: f64,
    /// Number of active-set iterations used.
    pub iterations: usize,
    /// Indices of bounds active at the solution.
    pub(crate) active: Vec<usize>,
}

/// Bound status of a variable in the working set.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BoundSide {
    Free,
    Lower,
    Upper,
}

/// A box-constrained QP instance. Build once, then [`BoxQp::solve`].
///
/// # Examples
///
/// ```
/// use vdc_linalg::{BoxQp, Matrix, Vector};
///
/// // min ½xᵀ diag(2,2) x − (2, 6)·x  subject to 0 ≤ x ≤ 2:
/// // the unconstrained optimum (1, 3) clamps to (1, 2).
/// let qp = BoxQp::new(
///     Matrix::diag(&[2.0, 2.0]),
///     Vector::from_slice(&[-2.0, -6.0]),
///     vec![0.0, 0.0],
///     vec![2.0, 2.0],
/// ).unwrap();
/// let sol = qp.solve().unwrap();
/// assert!((sol.x[0] - 1.0).abs() < 1e-9);
/// assert!((sol.x[1] - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BoxQp {
    h: Matrix,
    f: Vector,
    lb: Vec<f64>,
    ub: Vec<f64>,
}

impl BoxQp {
    /// Construct a QP `min ½xᵀHx + fᵀx, lb ≤ x ≤ ub`.
    pub fn new(h: Matrix, f: Vector, lb: Vec<f64>, ub: Vec<f64>) -> Result<Self, QpError> {
        let n = f.len();
        if h.shape() != (n, n) || lb.len() != n || ub.len() != n {
            return Err(QpError::DimensionMismatch);
        }
        if lb.iter().zip(&ub).any(|(l, u)| l > u) {
            return Err(QpError::InfeasibleBounds);
        }
        Ok(BoxQp { h, f, lb, ub })
    }

    /// Objective value at `x`.
    pub fn objective(&self, x: &Vector) -> f64 {
        let hx = self.h.matvec(x).expect("dimension checked at construction");
        0.5 * x.dot(&hx) + self.f.dot(x)
    }

    /// Gradient `Hx + f`.
    fn gradient(&self, x: &Vector) -> Vector {
        let mut g = self.h.matvec(x).expect("dimension checked at construction");
        g += &self.f;
        g
    }

    /// Solve from a warm-start point (clamped into the box first).
    ///
    /// For SPD `H` the active-set iteration converges; the iteration cap is
    /// a safety net that returns the best iterate found so far.
    pub(crate) fn solve_from(&self, x0: &Vector) -> Result<QpSolution, QpError> {
        let n = self.f.len();
        if x0.len() != n {
            return Err(QpError::DimensionMismatch);
        }
        let mut x = x0.clone();
        x.clamp_box(&self.lb, &self.ub);

        // Working set: which bound each coordinate is pinned to.
        let mut w: Vec<BoundSide> = (0..n)
            .map(|i| {
                if x[i] <= self.lb[i] {
                    BoundSide::Lower
                } else if x[i] >= self.ub[i] {
                    BoundSide::Upper
                } else {
                    BoundSide::Free
                }
            })
            .collect();

        let max_iter = 6 * n + 20;
        const TOL: f64 = 1e-10;
        for iter in 0..max_iter {
            // Solve the reduced problem on free coordinates:
            // H_FF x_F = -(f_F + H_FP x_P) where P are pinned coordinates.
            let free: Vec<usize> = (0..n).filter(|&i| w[i] == BoundSide::Free).collect();
            let mut cand = x.clone();
            if !free.is_empty() {
                let nf = free.len();
                let mut hff = Matrix::zeros(nf, nf);
                let mut rhs = vec![0.0; nf];
                for (a, &i) in free.iter().enumerate() {
                    let mut acc = -self.f[i];
                    for j in 0..n {
                        if w[j] == BoundSide::Free {
                            continue;
                        }
                        acc -= self.h[(i, j)] * x[j];
                    }
                    rhs[a] = acc;
                    for (b, &j) in free.iter().enumerate() {
                        hff[(a, b)] = self.h[(i, j)];
                    }
                }
                let chol = Cholesky::new(&hff).map_err(|_| QpError::NotPositiveDefinite)?;
                let xf = chol
                    .solve(&Vector::from_vec(rhs))
                    .map_err(|_| QpError::NotPositiveDefinite)?;
                for (a, &i) in free.iter().enumerate() {
                    cand[i] = xf[a];
                }
            }

            // Is the candidate inside the box on the free coordinates?
            let mut blocking: Option<(usize, f64, BoundSide)> = None;
            for &i in &free {
                let (lo, hi) = (self.lb[i], self.ub[i]);
                if cand[i] < lo - TOL || cand[i] > hi + TOL {
                    // Fraction of the step we can take before hitting bound i.
                    let dir = cand[i] - x[i];
                    let (limit, side) = if dir < 0.0 {
                        (lo, BoundSide::Lower)
                    } else {
                        (hi, BoundSide::Upper)
                    };
                    let alpha = if dir.abs() < 1e-300 {
                        0.0
                    } else {
                        ((limit - x[i]) / dir).clamp(0.0, 1.0)
                    };
                    match blocking {
                        Some((_, best, _)) if alpha >= best => {}
                        _ => blocking = Some((i, alpha, side)),
                    }
                }
            }

            match blocking {
                Some((i, alpha, side)) => {
                    // Partial step to the first blocking bound, pin it.
                    for j in 0..n {
                        if w[j] == BoundSide::Free {
                            x[j] += alpha * (cand[j] - x[j]);
                        }
                    }
                    x[i] = match side {
                        BoundSide::Lower => self.lb[i],
                        BoundSide::Upper => self.ub[i],
                        BoundSide::Free => unreachable!("blocking bound is never free"),
                    };
                    w[i] = side;
                    // Re-clamp to guard against floating-point drift.
                    x.clamp_box(&self.lb, &self.ub);
                }
                None => {
                    // Full step; check multipliers of pinned coordinates.
                    x = cand;
                    x.clamp_box(&self.lb, &self.ub);
                    let g = self.gradient(&x);
                    // KKT: at a lower bound we need g_i >= 0, at an upper
                    // bound g_i <= 0. Release the most violated pin.
                    let mut worst: Option<(usize, f64)> = None;
                    for i in 0..n {
                        let viol = match w[i] {
                            BoundSide::Lower => -g[i],
                            BoundSide::Upper => g[i],
                            BoundSide::Free => continue,
                        };
                        if viol > TOL {
                            match worst {
                                Some((_, v)) if v >= viol => {}
                                _ => worst = Some((i, viol)),
                            }
                        }
                    }
                    match worst {
                        Some((i, _)) => w[i] = BoundSide::Free,
                        None => {
                            let active = (0..n).filter(|&i| w[i] != BoundSide::Free).collect();
                            return Ok(QpSolution {
                                objective: self.objective(&x),
                                x,
                                iterations: iter + 1,
                                active,
                            });
                        }
                    }
                }
            }
        }
        let active = (0..n).filter(|&i| w[i] != BoundSide::Free).collect();
        Err(QpError::IterationLimit(QpSolution {
            objective: self.objective(&x),
            x,
            iterations: max_iter,
            active,
        }))
    }

    /// Solve starting from the box-clamped origin.
    pub fn solve(&self) -> Result<QpSolution, QpError> {
        let x0 = Vector::zeros(self.f.len());
        self.solve_from(&x0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wide_bounds(n: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![-1e9; n], vec![1e9; n])
    }

    #[test]
    fn unconstrained_interior_minimum() {
        // min ½xᵀHx + fᵀx with H = diag(2, 4), f = (-2, -8): x* = (1, 2).
        let h = Matrix::diag(&[2.0, 4.0]);
        let f = Vector::from_slice(&[-2.0, -8.0]);
        let (lb, ub) = wide_bounds(2);
        let sol = BoxQp::new(h, f, lb, ub).unwrap().solve().unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
        assert!(sol.active.is_empty());
    }

    #[test]
    fn active_upper_bound() {
        // Same objective but ub = (0.5, 10): x0 pinned at 0.5; with a
        // diagonal H the other coordinate is unaffected.
        let h = Matrix::diag(&[2.0, 4.0]);
        let f = Vector::from_slice(&[-2.0, -8.0]);
        let sol = BoxQp::new(h, f, vec![-10.0, -10.0], vec![0.5, 10.0])
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.x[0] - 0.5).abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
        assert_eq!(sol.active, vec![0]);
    }

    #[test]
    fn active_lower_bound_with_coupling() {
        // H = [[2,1],[1,2]], f = (-3,-3): unconstrained x* = (1,1).
        // lb = (1.5, -inf): x0 pinned at 1.5; then
        // x1 = (3 - 1.5)/2 = 0.75.
        let h = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let f = Vector::from_slice(&[-3.0, -3.0]);
        let sol = BoxQp::new(h, f, vec![1.5, -1e9], vec![1e9, 1e9])
            .unwrap()
            .solve()
            .unwrap();
        assert!((sol.x[0] - 1.5).abs() < 1e-9);
        assert!((sol.x[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn fully_pinned_box() {
        // Degenerate box lb = ub: solution is forced.
        let h = Matrix::identity(3);
        let f = Vector::zeros(3);
        let sol = BoxQp::new(h, f, vec![1.0, 2.0, 3.0], vec![1.0, 2.0, 3.0])
            .unwrap()
            .solve()
            .unwrap();
        assert_eq!(sol.x.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn infeasible_bounds_rejected() {
        let h = Matrix::identity(1);
        let f = Vector::zeros(1);
        assert_eq!(
            BoxQp::new(h, f, vec![2.0], vec![1.0]).unwrap_err(),
            QpError::InfeasibleBounds
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let h = Matrix::identity(2);
        let f = Vector::zeros(3);
        assert_eq!(
            BoxQp::new(h, f, vec![0.0; 3], vec![1.0; 3]).unwrap_err(),
            QpError::DimensionMismatch
        );
    }

    #[test]
    fn matches_projection_for_diagonal_h() {
        // With diagonal H the exact solution is the componentwise clamp of
        // the unconstrained minimizer.
        let h = Matrix::diag(&[1.0, 2.0, 3.0, 4.0]);
        let f = Vector::from_slice(&[-10.0, 4.0, -9.0, 0.4]);
        let lb = vec![-1.0; 4];
        let ub = vec![2.0; 4];
        let sol = BoxQp::new(h.clone(), f.clone(), lb.clone(), ub.clone())
            .unwrap()
            .solve()
            .unwrap();
        for i in 0..4 {
            let unc = -f[i] / h[(i, i)];
            let expect = unc.clamp(lb[i], ub[i]);
            assert!((sol.x[i] - expect).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn random_qps_beat_random_feasible_points() {
        // The solver's objective must be <= the objective at many random
        // feasible points (global optimality of convex QP).
        let mut state: u64 = 42;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [2usize, 3, 6] {
            // Random SPD H = MᵀM + I.
            let mut m = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    m[(r, c)] = next();
                }
            }
            let mut h = m.gram();
            h.add_diag_mut(1.0);
            let f: Vector = (0..n).map(|_| next() * 3.0).collect();
            let lb = vec![-0.5; n];
            let ub = vec![0.5; n];
            let qp = BoxQp::new(h, f, lb.clone(), ub.clone()).unwrap();
            let sol = qp.solve().unwrap();
            for _ in 0..200 {
                let mut p: Vector = (0..n).map(|_| next() * 0.5).collect();
                p.clamp_box(&lb, &ub);
                assert!(
                    qp.objective(&p) >= sol.objective - 1e-8,
                    "n={n}: random point beats active-set solution"
                );
            }
        }
    }

    #[test]
    fn warm_start_agrees_with_cold_start() {
        let h = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let f = Vector::from_slice(&[-1.0, -4.0]);
        let qp = BoxQp::new(h, f, vec![0.0, 0.0], vec![1.0, 1.0]).unwrap();
        let cold = qp.solve().unwrap();
        let warm = qp.solve_from(&Vector::from_slice(&[0.9, 0.1])).unwrap();
        assert!((cold.x[0] - warm.x[0]).abs() < 1e-8);
        assert!((cold.x[1] - warm.x[1]).abs() < 1e-8);
    }
}
