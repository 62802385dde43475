//! Control-theory substrate for `vdcpower`: ARX modeling, system
//! identification, and Model Predictive Control.
//!
//! This crate implements §IV of the paper ("Response Time Controller"):
//!
//! * [`arx`] — the MISO ARX model class of eq. (1):
//!   `t(k) = Σ aₘ t(k−m) + Σ bₘᵀ c(k−m) + γ`, relating an application's
//!   90-percentile response time to the CPU allocations of its tier VMs.
//! * [`sysid`] — "standard approach … called system identification":
//!   pseudo-random excitation design, batch least-squares ARX fitting with
//!   fit metrics, and recursive least squares for online adaptation.
//! * `reference` — the exponential reference trajectory of eq. (3).
//! * [`mpc`] — the model predictive controller of §IV-B: lifted
//!   step-response predictor, quadratic cost of eq. (2), terminal
//!   constraint of eq. (4), allocation box constraints, receding-horizon
//!   application of the first move.
//! * [`robust`] — a model-free robust provisioning alternative (fixed
//!   gains on filtered relative RT error, after Makridis et al.,
//!   arXiv:1811.05533).
//! * [`stability`] — pole analysis of identified models.
//! * [`analysis`] — numerical linearization of the full receding-horizon
//!   law and closed-loop spectral radii (the paper invokes the
//!   terminal-constraint stability argument from optimal control; we
//!   verify it numerically).

#![warn(missing_docs)]

pub mod analysis;
pub mod arx;
pub mod mpc;
pub mod reference;
pub mod robust;
pub mod stability;
pub mod sysid;

pub use analysis::{achievable_range, analyze_closed_loop, ClosedLoopAnalysis};
pub use arx::ArxModel;
pub use mpc::{MpcConfig, MpcController};
pub use reference::ReferenceTrajectory;
pub use robust::{RobustConfig, RobustController};
pub use sysid::{fit_arx, ArxFit, ExperimentData, Prbs, RecursiveLeastSquares};

/// Errors from model construction, identification, or control.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// Model orders or data shapes are inconsistent.
    BadDimensions(String),
    /// Not enough data points to identify the requested model.
    InsufficientData {
        /// Number of usable regression rows available.
        available: usize,
        /// Number of rows required.
        required: usize,
    },
    /// The underlying linear-algebra routine failed.
    Numerical(vdc_linalg::LinalgError),
    /// The QP solver failed.
    Qp(String),
    /// A configuration value is invalid (e.g. M > P, non-positive weight).
    BadConfig(String),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::BadDimensions(s) => write!(f, "bad dimensions: {s}"),
            ControlError::InsufficientData {
                available,
                required,
            } => write!(
                f,
                "insufficient identification data: {available} rows available, {required} required"
            ),
            ControlError::Numerical(e) => write!(f, "numerical failure: {e}"),
            ControlError::Qp(s) => write!(f, "QP failure: {s}"),
            ControlError::BadConfig(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<vdc_linalg::LinalgError> for ControlError {
    fn from(e: vdc_linalg::LinalgError) -> Self {
        ControlError::Numerical(e)
    }
}

/// Result alias for control operations.
pub type Result<T> = std::result::Result<T, ControlError>;
