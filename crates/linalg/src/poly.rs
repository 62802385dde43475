//! Real-coefficient polynomials and complex root finding.
//!
//! Roots of the ARX characteristic polynomial decide closed-loop stability
//! (all poles strictly inside the unit circle). The Aberth–Ehrlich method
//! finds all roots simultaneously and is robust for the small degrees
//! (< 20) that appear in identified models.

use crate::complex::Complex;
use crate::{LinalgError, Result};

/// A polynomial with real coefficients, stored lowest-degree first:
/// `p(x) = c\[0\] + c\[1\] x + … + c[n] xⁿ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Poly {
    coeffs: Vec<f64>,
}

impl Poly {
    /// Build from coefficients, lowest degree first. Trailing (highest
    /// degree) zero coefficients are trimmed.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut c = coeffs;
        while c.len() > 1 && c.last() == Some(&0.0) {
            c.pop();
        }
        if c.is_empty() {
            c.push(0.0);
        }
        Poly { coeffs: c }
    }

    /// The zero polynomial.
    pub(crate) fn zero() -> Self {
        Poly { coeffs: vec![0.0] }
    }

    /// Degree (0 for constants, including the zero polynomial).
    pub(crate) fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluate at a real point (Horner).
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Evaluate at a complex point (Horner).
    pub fn eval_complex(&self, z: Complex) -> Complex {
        self.coeffs
            .iter()
            .rev()
            .fold(Complex::ZERO, |acc, &c| acc * z + Complex::real(c))
    }

    /// Derivative polynomial.
    pub(crate) fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        let d: Vec<f64> = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| c * i as f64)
            .collect();
        Poly::new(d)
    }

    /// Polynomial multiplication.
    pub fn mul(&self, other: &Poly) -> Poly {
        let mut out = vec![0.0; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }

    /// Build the monic polynomial with the given real roots.
    pub fn from_roots(roots: &[f64]) -> Poly {
        let mut p = Poly::new(vec![1.0]);
        for &r in roots {
            p = p.mul(&Poly::new(vec![-r, 1.0]));
        }
        p
    }

    /// All complex roots via the Aberth–Ehrlich simultaneous iteration.
    ///
    /// Returns [`LinalgError::NoConvergence`] if the iteration fails to meet
    /// tolerance within the iteration budget, and
    /// [`LinalgError::Singular`] for the zero polynomial (roots undefined).
    pub fn roots(&self) -> Result<Vec<Complex>> {
        let n = self.degree();
        if n == 0 {
            return if self.coeffs[0] == 0.0 {
                Err(LinalgError::Singular)
            } else {
                Ok(Vec::new())
            };
        }
        // Normalize to a monic polynomial for numerical sanity.
        let lead = self.coeffs[n];
        let monic: Vec<f64> = self.coeffs.iter().map(|c| c / lead).collect();
        let p = Poly {
            coeffs: monic.clone(),
        };
        let dp = p.derivative();

        // Initial guesses on a circle whose radius follows the Cauchy bound,
        // with an irrational angle offset to avoid symmetry stalls.
        let radius = 1.0 + monic[..n].iter().fold(0.0_f64, |m, c| m.max(c.abs()));
        let mut z: Vec<Complex> = (0..n)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64 + 0.4;
                Complex::from_polar(radius * 0.7, theta)
            })
            .collect();

        const MAX_ITER: usize = 500;
        const TOL: f64 = 1e-12;
        // Residual acceptance must be relative to the polynomial's scale:
        // a monic degree-n polynomial with roots of magnitude r has
        // coefficients up to ~r^n, so |p| near a root is far above any
        // absolute epsilon for clustered large roots.
        let residual_scale = monic.iter().fold(1.0_f64, |m, c| m.max(c.abs()));
        for _ in 0..MAX_ITER {
            let mut converged = true;
            let snapshot = z.clone();
            for i in 0..n {
                let zi = snapshot[i];
                let pz = p.eval_complex(zi);
                if pz.abs() < TOL * residual_scale {
                    continue;
                }
                let dpz = dp.eval_complex(zi);
                let newton = if dpz.abs_sq() > 0.0 {
                    pz / dpz
                } else {
                    Complex::real(TOL)
                };
                // Aberth correction: subtract pairwise repulsion.
                let mut sum = Complex::ZERO;
                for (j, &zj) in snapshot.iter().enumerate() {
                    if j != i {
                        let diff = zi - zj;
                        if diff.abs_sq() > 1e-300 {
                            sum = sum + Complex::ONE / diff;
                        }
                    }
                }
                let denom = Complex::ONE - newton * sum;
                let step = if denom.abs_sq() > 1e-300 {
                    newton / denom
                } else {
                    newton
                };
                z[i] = zi - step;
                if !z[i].is_finite() {
                    // Restart this root from a perturbed location.
                    z[i] = Complex::from_polar(radius, 1.7 * (i as f64 + 1.0));
                    converged = false;
                    continue;
                }
                if step.abs() > TOL * (1.0 + z[i].abs()) {
                    converged = false;
                }
            }
            if converged {
                return Ok(z);
            }
        }
        // Accept if residuals are small even without step convergence
        // (clustered roots converge in value long before the pairwise
        // Aberth corrections settle).
        if z.iter()
            .all(|&zi| p.eval_complex(zi).abs() < 1e-6 * residual_scale)
        {
            return Ok(z);
        }
        Err(LinalgError::NoConvergence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort_by_re(mut roots: Vec<Complex>) -> Vec<Complex> {
        roots.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        roots
    }

    #[test]
    fn eval_and_derivative() {
        // p(x) = 1 + 2x + 3x²
        let p = Poly::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.eval(2.0), 17.0);
        let d = p.derivative();
        assert_eq!(d.coeffs, [2.0, 6.0]);
        assert_eq!(Poly::new(vec![5.0]).derivative(), Poly::zero());
    }

    #[test]
    fn trailing_zeros_trimmed() {
        let p = Poly::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn multiplication() {
        // (1 + x)(1 - x) = 1 - x²
        let a = Poly::new(vec![1.0, 1.0]);
        let b = Poly::new(vec![1.0, -1.0]);
        assert_eq!(a.mul(&b).coeffs, [1.0, 0.0, -1.0]);
    }

    #[test]
    fn linear_root() {
        // 2x - 4 = 0 => x = 2
        let p = Poly::new(vec![-4.0, 2.0]);
        let r = p.roots().unwrap();
        assert_eq!(r.len(), 1);
        assert!((r[0].re - 2.0).abs() < 1e-9);
        assert!(r[0].im.abs() < 1e-9);
    }

    #[test]
    fn quadratic_real_roots() {
        // (x-1)(x-3) = x² - 4x + 3
        let p = Poly::new(vec![3.0, -4.0, 1.0]);
        let r = sort_by_re(p.roots().unwrap());
        assert!((r[0].re - 1.0).abs() < 1e-8);
        assert!((r[1].re - 3.0).abs() < 1e-8);
    }

    #[test]
    fn quadratic_complex_roots() {
        // x² + 1 = 0 => ±i
        let p = Poly::new(vec![1.0, 0.0, 1.0]);
        let r = p.roots().unwrap();
        assert_eq!(r.len(), 2);
        for root in &r {
            assert!(root.re.abs() < 1e-8);
            assert!((root.im.abs() - 1.0).abs() < 1e-8);
        }
        assert!((r[0].im + r[1].im).abs() < 1e-8, "conjugate pair");
    }

    #[test]
    fn from_roots_recovered() {
        let roots = [0.5, -0.25, 0.9, -0.8];
        let p = Poly::from_roots(&roots);
        let mut found: Vec<f64> = p.roots().unwrap().iter().map(|z| z.re).collect();
        found.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expected = roots.to_vec();
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (f, e) in found.iter().zip(&expected) {
            assert!((f - e).abs() < 1e-7, "{f} vs {e}");
        }
    }

    #[test]
    fn high_degree_wilkinson_like() {
        // Roots 0.1, 0.2, ..., 0.8 — clustered but tractable.
        let roots: Vec<f64> = (1..=8).map(|i| i as f64 / 10.0).collect();
        let p = Poly::from_roots(&roots);
        let found = p.roots().unwrap();
        for &target in &roots {
            let closest = found
                .iter()
                .map(|z| (*z - Complex::real(target)).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(closest < 1e-5, "root {target} missed by {closest}");
        }
    }

    #[test]
    fn constant_polynomials() {
        assert!(Poly::new(vec![3.0]).roots().unwrap().is_empty());
        assert_eq!(Poly::zero().roots().unwrap_err(), LinalgError::Singular);
    }
}
