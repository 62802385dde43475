//! Stability analysis of identified models: open-loop pole locations and
//! the spectral radius of an ARX model. (The paper ensures MPC stability
//! by the terminal constraint, eq. (4), citing optimal-control theory
//! \[14, 15\]; [`crate::analysis`] checks the closed loop numerically.)

use crate::arx::ArxModel;
use crate::Result;
use vdc_linalg::{eigenvalues, Complex};

/// Poles of the ARX model (roots of `zⁿᵃ − a₁ zⁿᵃ⁻¹ − … − aₙₐ`).
///
/// FIR models (`na = 0`) have no poles and return an empty vector.
pub fn model_poles(model: &ArxModel) -> Result<Vec<Complex>> {
    match model.companion_matrix() {
        Some(cm) => Ok(eigenvalues(&cm)?),
        None => Ok(Vec::new()),
    }
}

/// Spectral radius of the model's autoregressive dynamics (0 for FIR).
pub fn model_spectral_radius(model: &ArxModel) -> Result<f64> {
    Ok(model_poles(model)?
        .iter()
        .fold(0.0_f64, |m, z| m.max(z.abs())))
}

/// Whether the open-loop model is BIBO stable (all poles strictly inside
/// the unit circle, with `margin` of slack: radius < 1 − margin).
pub fn is_stable(model: &ArxModel, margin: f64) -> Result<bool> {
    Ok(model_spectral_radius(model)? < 1.0 - margin)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plant() -> ArxModel {
        ArxModel::new(
            vec![0.45],
            vec![vec![-180.0, -120.0], vec![-60.0, -40.0]],
            1400.0,
        )
        .unwrap()
    }

    #[test]
    fn poles_of_paper_model() {
        let m = plant();
        let poles = model_poles(&m).unwrap();
        assert_eq!(poles.len(), 1);
        assert!((poles[0].re - 0.45).abs() < 1e-9);
        assert!(is_stable(&m, 0.0).unwrap());
        assert!((model_spectral_radius(&m).unwrap() - 0.45).abs() < 1e-9);
    }

    #[test]
    fn unstable_model_detected() {
        let m = ArxModel::new(vec![1.1], vec![vec![1.0]], 0.0).unwrap();
        assert!(!is_stable(&m, 0.0).unwrap());
        // Marginally stable fails a positive margin.
        let m2 = ArxModel::new(vec![0.98], vec![vec![1.0]], 0.0).unwrap();
        assert!(is_stable(&m2, 0.0).unwrap());
        assert!(!is_stable(&m2, 0.05).unwrap());
    }

    #[test]
    fn fir_has_no_poles_and_is_stable() {
        let m = ArxModel::new(vec![], vec![vec![2.0]], 0.0).unwrap();
        assert!(model_poles(&m).unwrap().is_empty());
        assert_eq!(model_spectral_radius(&m).unwrap(), 0.0);
        assert!(is_stable(&m, 0.1).unwrap());
    }
}
