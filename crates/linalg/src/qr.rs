//! Householder QR decomposition and least-squares solves.
//!
//! QR is the workhorse of system identification (§IV-B of the paper): the
//! ARX regressor matrix is tall and possibly ill-conditioned, and QR-based
//! least squares is far more robust than normal equations.

use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::{LinalgError, Result};

/// Relative tolerance on diagonal entries of `R` for rank decisions.
const RANK_TOL: f64 = 1e-12;

/// Householder QR decomposition of an `m x n` matrix with `m >= n`.
///
/// Stores the Householder vectors packed below the diagonal of `qr` and the
/// upper triangle of `R` on and above the diagonal; `beta` holds the scalar
/// coefficients of each reflector.
#[derive(Debug, Clone)]
pub struct Qr {
    qr: Matrix,
    beta: Vec<f64>,
}

impl Qr {
    /// Factorize `a` (must have `rows >= cols`).
    pub fn new(a: &Matrix) -> Result<Qr> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                context: "Qr::new (needs rows >= cols)",
                got: (m, n),
                expected: (n, n),
            });
        }
        let mut qr = a.clone();
        let mut beta = vec![0.0; n];
        for k in 0..n {
            // Compute the Householder reflector for column k, rows k..m.
            let mut norm2 = 0.0;
            for r in k..m {
                norm2 += qr[(r, k)] * qr[(r, k)];
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                beta[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            // v = x - alpha*e1, stored with v[k] implicit.
            let v0 = qr[(k, k)] - alpha;
            // beta = 2 / (vᵀv) with vᵀv = norm2 - 2*alpha*x0 + alpha².
            let vtv = norm2 - 2.0 * alpha * qr[(k, k)] + alpha * alpha;
            beta[k] = if vtv == 0.0 { 0.0 } else { 2.0 / vtv };
            qr[(k, k)] = v0;
            // Apply reflector to the trailing columns.
            for c in (k + 1)..n {
                let mut dot = 0.0;
                for r in k..m {
                    dot += qr[(r, k)] * qr[(r, c)];
                }
                let s = beta[k] * dot;
                for r in k..m {
                    let vk = qr[(r, k)];
                    qr[(r, c)] -= s * vk;
                }
            }
            // Store R's diagonal entry; the v vector stays below.
            // Temporarily keep v0 at (k,k); we stash alpha separately by
            // normalizing: we overwrite after applying to store R.
            // Use a second pass: keep alpha in place of the diagonal and v
            // scaled so that v[k] = 1 is implicit.
            if v0 != 0.0 {
                for r in (k + 1)..m {
                    qr[(r, k)] /= v0;
                }
                beta[k] *= v0 * v0;
            }
            qr[(k, k)] = alpha;
        }
        Ok(Qr { qr, beta })
    }

    /// Number of columns of the original matrix.
    pub(crate) fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// Numerical rank estimate from the diagonal of `R`.
    pub(crate) fn rank(&self) -> usize {
        let scale = self.qr.max_abs().max(1.0);
        (0..self.cols())
            .filter(|&i| self.qr[(i, i)].abs() > RANK_TOL * scale)
            .count()
    }

    /// Apply `Qᵀ` to a vector in place.
    fn apply_qt(&self, x: &mut [f64]) {
        let (m, n) = self.qr.shape();
        for k in 0..n {
            if self.beta[k] == 0.0 {
                continue;
            }
            // v = [1, qr[k+1..m, k]]
            let mut dot = x[k];
            for r in (k + 1)..m {
                dot += self.qr[(r, k)] * x[r];
            }
            let s = self.beta[k] * dot;
            x[k] -= s;
            for r in (k + 1)..m {
                x[r] -= s * self.qr[(r, k)];
            }
        }
    }

    /// Least-squares solve: `min_x ||A x - b||₂`.
    ///
    /// Returns [`LinalgError::Singular`] when `A` is numerically
    /// rank-deficient.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                context: "Qr::solve",
                got: (b.len(), 1),
                expected: (m, 1),
            });
        }
        if self.rank() < n {
            return Err(LinalgError::Singular);
        }
        let mut y = b.as_slice().to_vec();
        self.apply_qt(&mut y);
        // Back-substitute R x = y[0..n].
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            x[i] = acc / self.qr[(i, i)];
        }
        Ok(Vector::from_vec(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_square_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Vector::from_slice(&[5.0, 10.0]);
        let x = Qr::new(&a).unwrap().solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_regression() {
        // Fit y = 2x + 1 through exact points: residual should be ~0 and
        // coefficients recovered.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut rows = Vec::new();
        let mut b = Vec::new();
        for &x in &xs {
            rows.push(vec![x, 1.0]);
            b.push(2.0 * x + 1.0);
        }
        let a = Matrix::from_vec(5, 2, rows.concat());
        let qr = Qr::new(&a).unwrap();
        let sol = qr.solve(&Vector::from_vec(b.clone())).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-12);
        assert!((sol[1] - 1.0).abs() < 1e-12);
        assert!((&a.matvec(&sol).unwrap() - &Vector::from_vec(b)).norm() < 1e-12);
    }

    #[test]
    fn noisy_regression_minimizes_residual() {
        // Points off the line: LS solution must beat small perturbations.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let b = Vector::from_slice(&[0.1, 2.2, 3.9, 6.1]);
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve(&b).unwrap();
        let base = (&a.matvec(&x).unwrap() - &b).norm();
        for d0 in [-0.01, 0.01] {
            for d1 in [-0.01, 0.01] {
                let xp = Vector::from_slice(&[x[0] + d0, x[1] + d1]);
                let r = (&a.matvec(&xp).unwrap() - &b).norm();
                assert!(r >= base - 1e-12);
            }
        }
    }

    #[test]
    fn rank_deficient_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let qr = Qr::new(&a).unwrap();
        assert_eq!(qr.rank(), 1);
        assert_eq!(
            qr.solve(&Vector::from_slice(&[1.0, 2.0, 3.0])).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn wide_matrix_rejected() {
        assert!(matches!(
            Qr::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn zero_column_handled() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]);
        let qr = Qr::new(&a).unwrap();
        assert_eq!(qr.rank(), 1);
    }
}
