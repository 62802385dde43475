//! Eigenvalues of small dense matrices.
//!
//! Used to analyze the closed-loop dynamics of the MPC controller: the paper
//! argues stability via the terminal constraint; we verify numerically by
//! computing the spectral radius of the closed-loop transition matrix (all
//! eigenvalues must lie strictly inside the unit circle).
//!
//! Implementation: characteristic polynomial via the Faddeev–LeVerrier
//! recurrence, then Aberth–Ehrlich root finding. This is `O(n⁴)` and only
//! appropriate for the small (n ≲ 15) matrices that appear in identified
//! ARX models — which is exactly our use case.

use crate::complex::Complex;
use crate::matrix::Matrix;
use crate::poly::Poly;
use crate::{LinalgError, Result};

/// Coefficients of the characteristic polynomial `det(λI − A)`, lowest
/// degree first, computed with the Faddeev–LeVerrier recurrence.
pub(crate) fn characteristic_polynomial(a: &Matrix) -> Result<Poly> {
    if !a.is_square() {
        return Err(LinalgError::DimensionMismatch {
            context: "characteristic_polynomial",
            got: a.shape(),
            expected: (a.rows(), a.rows()),
        });
    }
    let n = a.rows();
    // c[n] = 1 (monic); recurrence produces c[n-k] for k = 1..n.
    let mut coeffs = vec![0.0; n + 1];
    coeffs[n] = 1.0;
    let mut m = Matrix::zeros(n, n); // M_0 = 0
    for k in 1..=n {
        // M_k = A * M_{k-1} + c_{n-k+1} * I
        let mut am = a.matmul(&m)?;
        let prev_c = coeffs[n - k + 1];
        for i in 0..n {
            am[(i, i)] += prev_c;
        }
        m = am;
        // c_{n-k} = -trace(A * M_k) / k
        let amk = a.matmul(&m)?;
        let trace: f64 = (0..n).map(|i| amk[(i, i)]).sum();
        coeffs[n - k] = -trace / k as f64;
    }
    Ok(Poly::new(coeffs))
}

/// All eigenvalues of a small square matrix.
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>> {
    characteristic_polynomial(a)?.roots()
}

/// Spectral radius `max |λᵢ|` of a small square matrix.
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    Ok(eigenvalues(a)?.iter().fold(0.0_f64, |m, z| m.max(z.abs())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_eigenvalues() {
        let a = Matrix::diag(&[1.0, 2.0, 3.0]);
        let mut eigs: Vec<f64> = eigenvalues(&a).unwrap().iter().map(|z| z.re).collect();
        eigs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((eigs[0] - 1.0).abs() < 1e-8);
        assert!((eigs[1] - 2.0).abs() < 1e-8);
        assert!((eigs[2] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn char_poly_2x2() {
        // A = [[2, 1], [1, 2]] => λ² - 4λ + 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let p = characteristic_polynomial(&a).unwrap();
        assert_eq!(p.degree(), 2);
        assert!((p.eval(0.0) - 3.0).abs() < 1e-12);
        assert!(p.eval(1.0).abs() < 1e-12);
        assert!(p.eval(3.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_matrix_complex_eigs() {
        // 90° rotation: eigenvalues ±i, spectral radius 1.
        let a = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let eigs = eigenvalues(&a).unwrap();
        for z in &eigs {
            assert!(z.re.abs() < 1e-8);
            assert!((z.im.abs() - 1.0).abs() < 1e-8);
        }
        assert!((spectral_radius(&a).unwrap() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn stable_companion_matrix() {
        // Companion matrix of z² - 0.5 z - 0.2 (stable ARX poles).
        let a = Matrix::from_rows(&[&[0.5, 0.2], &[1.0, 0.0]]);
        let rho = spectral_radius(&a).unwrap();
        assert!(rho < 1.0, "spectral radius {rho} should be < 1");
        // Against explicit quadratic roots: (0.5 ± sqrt(0.25 + 0.8)) / 2.
        let r = (0.5 + (0.25_f64 + 0.8).sqrt()) / 2.0;
        assert!((rho - r).abs() < 1e-8);
    }

    #[test]
    fn unstable_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.2, 0.0], &[0.3, 0.5]]);
        assert!(spectral_radius(&a).unwrap() > 1.0);
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            eigenvalues(&Matrix::zeros(2, 3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn trace_and_det_consistency() {
        // Sum of eigenvalues = trace; product = det.
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[2.0, 3.0, 1.0], &[0.0, 1.0, 5.0]]);
        let eigs = eigenvalues(&a).unwrap();
        let sum: f64 = eigs.iter().map(|z| z.re).sum();
        assert!((sum - 12.0).abs() < 1e-7);
        let prod = eigs.iter().fold(Complex::ONE, |acc, &z| acc * z);
        let det = crate::lu::Lu::new(&a).unwrap().det();
        assert!((prod.re - det).abs() < 1e-6);
        assert!(prod.im.abs() < 1e-6);
    }
}
