//! LU decomposition with partial pivoting.
//!
//! Used for general square solves: KKT systems in the active-set QP, matrix
//! inverses in controller analysis, and determinants in the characteristic
//! polynomial tests.

use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::{LinalgError, Result};

/// Relative pivot threshold below which a matrix is declared singular.
const SINGULAR_TOL: f64 = 1e-13;

/// LU decomposition `P * A = L * U` with partial (row) pivoting.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed LU factors: strictly-lower part holds L (unit diagonal
    /// implicit), upper triangle holds U.
    lu: Matrix,
    /// Row permutation: row `i` of `LU` came from row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), for determinants.
    perm_sign: f64,
}

impl Lu {
    /// Factorize a square matrix.
    ///
    /// Returns [`LinalgError::Singular`] when a pivot is smaller than
    /// `SINGULAR_TOL` relative to the largest entry of the matrix.
    pub fn new(a: &Matrix) -> Result<Lu> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                context: "Lu::new",
                got: a.shape(),
                expected: (a.rows(), a.rows()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let scale = a.max_abs().max(1.0);

        for k in 0..n {
            // Find pivot row.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < SINGULAR_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let factor = lu[(r, k)] / pivot;
                lu[(r, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    let ukc = lu[(k, c)];
                    lu[(r, c)] -= factor * ukc;
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factorized matrix.
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Lu::solve",
                got: (b.len(), 1),
                expected: (n, 1),
            });
        }
        // Apply permutation.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(Vector::from_vec(x))
    }

    /// Solve `A X = B` column by column.
    pub(crate) fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Lu::solve_matrix",
                got: b.shape(),
                expected: (n, b.cols()),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let x = self.solve(&b.col(c))?;
            for r in 0..n {
                out[(r, c)] = x[r];
            }
        }
        Ok(out)
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the factorized matrix.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn solve_identity() {
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = Lu::new(&Matrix::identity(3)).unwrap().solve(&b).unwrap();
        assert_close(x.as_slice(), b.as_slice(), 1e-14);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Vector::from_slice(&[5.0, 10.0]);
        let x = Lu::new(&a).unwrap().solve(&b).unwrap();
        assert_close(x.as_slice(), &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the initial pivot position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = Lu::new(&a).unwrap().solve(&b).unwrap();
        assert_close(x.as_slice(), &[3.0, 2.0], 1e-14);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(Lu::new(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::new(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let lu = Lu::new(&a).unwrap();
        assert!((lu.det() - (-6.0)).abs() < 1e-12);
        // Permutation parity: swapping rows flips the sign.
        let a2 = Matrix::from_rows(&[&[6.0, 3.0], &[4.0, 3.0]]);
        let lu2 = Lu::new(&a2).unwrap();
        assert!((lu2.det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = Matrix::identity(3);
        assert!((&prod - &eye).max_abs() < 1e-12);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[9.0, 4.0], &[8.0, 3.0]]);
        let x = Lu::new(&a).unwrap().solve_matrix(&b).unwrap();
        let check = a.matmul(&x).unwrap();
        assert!((&check - &b).max_abs() < 1e-12);
    }

    #[test]
    fn random_solve_residuals_small() {
        // Deterministic pseudo-random fill via a simple LCG so the test is
        // reproducible without pulling rand into the dependency set here.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for n in [1usize, 2, 5, 10, 20] {
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    a[(r, c)] = next();
                }
                a[(r, r)] += 3.0; // diagonal dominance: well-conditioned
            }
            let b: Vector = (0..n).map(|_| next()).collect();
            let x = Lu::new(&a).unwrap().solve(&b).unwrap();
            let r = &a.matvec(&x).unwrap() - &b;
            assert!(r.max_abs() < 1e-10, "n={n} residual {}", r.max_abs());
        }
    }
}
