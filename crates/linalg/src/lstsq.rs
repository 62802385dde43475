//! Least-squares solvers: unconstrained and equality-constrained.
//!
//! `lstsq` backs the ARX system identification; [`Kkt`] is the core of the
//! MPC solve with the paper's terminal constraint `t(k+M|k) = Ts` (§IV-B):
//! the constraint forces the predicted response time to reach the set point
//! at the end of the prediction horizon, which guarantees closed-loop
//! stability in optimal-control theory.

use crate::lu::Lu;
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::vector::Vector;
use crate::{LinalgError, Result};

/// Solve `min_x ||A x - b||₂` via Householder QR.
pub fn lstsq(a: &Matrix, b: &Vector) -> Result<Vector> {
    Qr::new(a)?.solve(b)
}

/// The factored KKT system of the equality-constrained least-squares
/// problem
///
/// ```text
/// min_x ||A x - b||₂   subject to   C x = d
/// ```
///
/// ```text
/// [ 2AᵀA  Cᵀ ] [x]   [2Aᵀb]
/// [  C    0  ] [λ] = [ d  ]
/// ```
///
/// The matrix depends only on `A` and `C`, so it is factored once and then
/// solved for any right-hand side `(Aᵀb, d)`. `A` is `m x n`, `C` is
/// `p x n` with `p <= n`. A small Tikhonov damping is applied to the `AᵀA`
/// block to keep the KKT matrix invertible when `A` is rank-deficient but
/// the constraint pins the remaining degrees of freedom.
///
/// # Examples
///
/// ```
/// use vdc_linalg::{Kkt, Matrix, Vector};
///
/// // min ||x||² subject to x0 + x1 = 2  =>  x = (1, 1).
/// let a = Matrix::identity(2);
/// let kkt = Kkt::new(&a, &Matrix::from_rows(&[&[1.0, 1.0]])).unwrap();
/// let atb = a.tr_matvec(&Vector::zeros(2)).unwrap();
/// let x = kkt.solve(&atb, &Vector::from_slice(&[2.0])).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-8 && (x[1] - 1.0).abs() < 1e-8);
/// ```
#[derive(Debug, Clone)]
pub struct Kkt {
    lu: Lu,
    /// Unknowns `n` (columns of `A` and `C`).
    n: usize,
    /// Constraints `p` (rows of `C`).
    p: usize,
}

impl Kkt {
    /// Assemble and LU-factor the damped KKT matrix of `A` and `C`.
    /// Returns [`LinalgError::Singular`] when it is singular.
    pub fn new(a: &Matrix, c: &Matrix) -> Result<Kkt> {
        let n = a.cols();
        let p = c.rows();
        if c.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Kkt::new: constraint columns",
                got: c.shape(),
                expected: (p, n),
            });
        }
        if p > n {
            return Err(LinalgError::DimensionMismatch {
                context: "Kkt::new: more constraints than unknowns",
                got: (p, n),
                expected: (n, n),
            });
        }
        let mut kkt = Matrix::zeros(n + p, n + p);
        let mut g = a.gram();
        g.scale_mut(2.0);
        let damping = 1e-10 * g.max_abs().max(1.0);
        g.add_diag_mut(damping);
        kkt.set_block(0, 0, &g);
        kkt.set_block(0, n, &c.transpose());
        kkt.set_block(n, 0, c);
        Ok(Kkt {
            lu: Lu::new(&kkt)?,
            n,
            p,
        })
    }

    /// The minimizer `x` for the right-hand side `atb = Aᵀb` and `d`.
    pub fn solve(&self, atb: &Vector, d: &Vector) -> Result<Vector> {
        if atb.len() != self.n || d.len() != self.p {
            return Err(LinalgError::DimensionMismatch {
                context: "Kkt::solve: rhs length",
                got: (atb.len(), d.len()),
                expected: (self.n, self.p),
            });
        }
        let mut rhs = Vec::with_capacity(self.n + self.p);
        rhs.extend(atb.as_slice().iter().map(|v| 2.0 * v));
        rhs.extend_from_slice(d.as_slice());
        let sol = self.lu.solve(&Vector::from_vec(rhs))?;
        Ok(sol.segment(0, self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `min ||A x − b||` subject to `C x = d`: factor, then solve.
    fn solve_eq(a: &Matrix, b: &Vector, c: &Matrix, d: &Vector) -> Result<Vector> {
        Kkt::new(a, c)?.solve(&a.tr_matvec(b)?, d)
    }

    #[test]
    fn unconstrained_matches_qr() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = lstsq(&a, &b).unwrap();
        // Normal equations: (AᵀA) x = Aᵀ b  =>  [[2,1],[1,2]] x = [4,5]
        // => x = [1, 2].
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constrained_solution_satisfies_constraint() {
        // min ||x||² s.t. x0 + x1 = 2  =>  x = [1, 1].
        let a = Matrix::identity(2);
        let b = Vector::zeros(2);
        let c = Matrix::from_rows(&[&[1.0, 1.0]]);
        let d = Vector::from_slice(&[2.0]);
        let x = solve_eq(&a, &b, &c, &d).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-8);
        assert!((x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn constraint_binds_even_against_objective() {
        // Objective pulls x toward (5, 5); constraint x0 - x1 = 4.
        // Lagrangian optimum: x = (7, 3).
        let a = Matrix::identity(2);
        let b = Vector::from_slice(&[5.0, 5.0]);
        let c = Matrix::from_rows(&[&[1.0, -1.0]]);
        let d = Vector::from_slice(&[4.0]);
        let x = solve_eq(&a, &b, &c, &d).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-8, "x0 = {}", x[0]);
        assert!((x[1] - 3.0).abs() < 1e-8, "x1 = {}", x[1]);
        assert!((x[0] - x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_limit_matches_lstsq() {
        // With an always-satisfied constraint 0ᵀx = 0... not allowed (rank),
        // so instead compare against a constraint that the unconstrained
        // optimum already satisfies: solution must coincide.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let xu = lstsq(&a, &b).unwrap(); // [1, 2]
        let c = Matrix::from_rows(&[&[1.0, 1.0]]);
        let d = Vector::from_slice(&[xu[0] + xu[1]]);
        let xc = solve_eq(&a, &b, &c, &d).unwrap();
        assert!((xc[0] - xu[0]).abs() < 1e-7);
        assert!((xc[1] - xu[1]).abs() < 1e-7);
    }

    #[test]
    fn dimension_errors() {
        let a = Matrix::identity(2);
        let b = Vector::zeros(2);
        // Wrong constraint width.
        let c = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]);
        assert!(Kkt::new(&a, &c).is_err());
        // More constraints than unknowns.
        let c2 = Matrix::identity(3);
        assert!(Kkt::new(&a, &c2.block(0, 0, 3, 2)).is_err());
        // Wrong rhs length.
        let c3 = Matrix::from_rows(&[&[1.0, 0.0]]);
        let kkt = Kkt::new(&a, &c3).unwrap();
        assert!(kkt.solve(&Vector::zeros(3), &Vector::zeros(1)).is_err());
        assert!(kkt.solve(&b, &Vector::zeros(2)).is_err());
    }

    #[test]
    fn multiple_constraints() {
        // 3 unknowns, 2 constraints: x0 = 1, x1 + x2 = 4; objective pulls all
        // to zero => x2 = x1 = 2 by symmetry.
        let a = Matrix::identity(3);
        let b = Vector::zeros(3);
        let c = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 1.0]]);
        let d = Vector::from_slice(&[1.0, 4.0]);
        let x = solve_eq(&a, &b, &c, &d).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-8);
        assert!((x[1] - 2.0).abs() < 1e-8);
        assert!((x[2] - 2.0).abs() < 1e-8);
    }
}
