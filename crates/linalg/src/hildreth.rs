//! Hildreth's method for box-constrained QP — the classic dual coordinate
//! ascent used in the early MPC literature (Maciejowski \[15\] presents it as
//! *the* embedded QP solver for predictive control).
//!
//! Provided as an independent cross-check of the primal active-set solver
//! in [`crate::qp`]: the two methods have entirely different failure modes
//! (active-set cycling vs slow dual convergence), so agreement between
//! them on random problems is strong evidence of correctness — see the
//! equivalence property test in `tests/proptest_linalg.rs`.

use crate::matrix::Matrix;
use crate::qp::QpError;
use crate::vector::Vector;

/// Result of a Hildreth solve.
#[derive(Debug, Clone)]
pub struct HildrethSolution {
    /// The (approximate) minimizer.
    pub x: Vector,
    /// Dual iterations used.
    pub iterations: usize,
    /// Whether the duals converged within tolerance (if `false`, `x` is
    /// the best iterate at the iteration cap).
    pub converged: bool,
}

/// Solve `min ½xᵀHx + fᵀx  s.t.  lb ≤ x ≤ ub` by Hildreth's dual method.
///
/// The box is expressed as `A x ≤ b` with `A = [I; −I]`; the dual QP is
/// solved by cyclic coordinate ascent on the multipliers λ ≥ 0, and the
/// primal is recovered as `x = −H⁻¹(f + Aᵀλ)`.
pub fn hildreth_solve(
    h: &Matrix,
    f: &Vector,
    lb: &[f64],
    ub: &[f64],
    max_iter: usize,
    tol: f64,
) -> Result<HildrethSolution, QpError> {
    let n = f.len();
    if h.shape() != (n, n) || lb.len() != n || ub.len() != n {
        return Err(QpError::DimensionMismatch);
    }
    if lb.iter().zip(ub).any(|(l, u)| l > u) {
        return Err(QpError::InfeasibleBounds);
    }
    let h_inv = crate::lu::Lu::new(h)
        .and_then(|lu| lu.inverse())
        .map_err(|_| QpError::NotPositiveDefinite)?;

    // Constraints: rows 0..n are x_i <= ub_i; rows n..2n are -x_i <= -lb_i.
    // P = A H⁻¹ Aᵀ has the simple 2x2-block structure of ±H⁻¹ entries.
    let p = |i: usize, j: usize| -> f64 {
        let (si, ii) = if i < n { (1.0, i) } else { (-1.0, i - n) };
        let (sj, jj) = if j < n { (1.0, j) } else { (-1.0, j - n) };
        si * sj * h_inv[(ii, jj)]
    };
    // d = A H⁻¹ f + b
    let h_inv_f = h_inv.matvec(f).expect("square times n-vector");
    let mut d = vec![0.0; 2 * n];
    for i in 0..n {
        d[i] = h_inv_f[i] + ub[i];
        d[n + i] = -h_inv_f[i] - lb[i];
    }

    let mut lambda = vec![0.0_f64; 2 * n];
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        let mut max_change = 0.0_f64;
        for i in 0..2 * n {
            let pii = p(i, i);
            if pii <= 1e-300 {
                continue;
            }
            // w = d_i + Σ_j P_ij λ_j  (excluding the diagonal term update).
            let mut w = d[i];
            for (j, &lj) in lambda.iter().enumerate() {
                if j != i {
                    w += p(i, j) * lj;
                }
            }
            let new = (-w / pii).max(0.0);
            max_change = max_change.max((new - lambda[i]).abs());
            lambda[i] = new;
        }
        if max_change < tol {
            converged = true;
            break;
        }
    }

    // x = -H⁻¹ (f + Aᵀ λ);  Aᵀλ has entries λ_i − λ_{n+i}.
    let mut rhs = vec![0.0; n];
    for i in 0..n {
        rhs[i] = f[i] + lambda[i] - lambda[n + i];
    }
    let mut x = h_inv
        .matvec(&Vector::from_vec(rhs))
        .expect("square times n-vector")
        .scaled(-1.0);
    // Guard against residual dual error: project into the box.
    x.clamp_box(lb, ub);
    Ok(HildrethSolution {
        x,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qp::BoxQp;

    #[test]
    fn validates_inputs() {
        let h = Matrix::identity(2);
        let f = Vector::zeros(2);
        assert!(matches!(
            hildreth_solve(&h, &Vector::zeros(3), &[0.0; 3], &[1.0; 3], 100, 1e-9),
            Err(QpError::DimensionMismatch)
        ));
        assert!(matches!(
            hildreth_solve(&h, &f, &[2.0, 0.0], &[1.0, 1.0], 100, 1e-9),
            Err(QpError::InfeasibleBounds)
        ));
    }

    #[test]
    fn interior_minimum_unclamped() {
        // min (x0-1)² + (x1-2)² within a wide box.
        let h = Matrix::diag(&[2.0, 2.0]);
        let f = Vector::from_slice(&[-2.0, -4.0]);
        let sol = hildreth_solve(&h, &f, &[-10.0; 2], &[10.0; 2], 10_000, 1e-12).unwrap();
        assert!(sol.converged);
        assert!((sol.x[0] - 1.0).abs() < 1e-8);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn clamps_at_bounds() {
        let h = Matrix::diag(&[2.0, 2.0]);
        let f = Vector::from_slice(&[-2.0, -6.0]); // optimum (1, 3)
        let sol = hildreth_solve(&h, &f, &[0.0; 2], &[2.0; 2], 10_000, 1e-12).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-7);
        assert!((sol.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn agrees_with_active_set_on_coupled_problem() {
        let h = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let f = Vector::from_slice(&[-1.0, -4.0]);
        let (lb, ub) = (vec![0.0, 0.0], vec![1.0, 1.0]);
        let hd = hildreth_solve(&h, &f, &lb, &ub, 20_000, 1e-13).unwrap();
        let qp = BoxQp::new(h, f, lb, ub).unwrap();
        let asol = qp.solve().unwrap();
        for i in 0..2 {
            assert!(
                (hd.x[i] - asol.x[i]).abs() < 1e-6,
                "Hildreth {:?} vs active-set {:?}",
                hd.x,
                asol.x
            );
        }
    }
}
