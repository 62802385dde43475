//! Dense linear-algebra substrate for `vdcpower`.
//!
//! The control-theory ecosystem in Rust is thin, so this crate implements —
//! from scratch — everything the MPC response-time controller of the paper
//! needs:
//!
//! * [`Matrix`] / [`Vector`]: small dense row-major matrices with the usual
//!   arithmetic.
//! * [`lu::Lu`]: LU decomposition with partial pivoting (general solves,
//!   determinants, inverses, KKT systems).
//! * [`qr::Qr`]: Householder QR (least-squares system identification).
//! * [`cholesky::Cholesky`]: SPD factorization (fast solves of MPC Hessians).
//! * [`lstsq`](crate::lstsq()): unconstrained least squares; [`Kkt`]: the
//!   equality-constrained kind, factored once and solved for many
//!   right-hand sides.
//! * [`qp`]: box- and equality-constrained quadratic programming via a
//!   primal active-set method (the "least squares solver" of §IV-B of the
//!   paper, honoring allocation ranges).
//! * [`eig`] / [`poly`] / [`complex`]: spectral radii via characteristic
//!   polynomials and Aberth–Ehrlich root finding (closed-loop stability
//!   analysis of the identified ARX models).
//!
//! Matrices here are *small* (MPC horizons of tens, ARX orders of a few), so
//! the implementations favour clarity and numerical robustness over blocked
//! performance; everything is `O(n³)` dense with partial pivoting.

#![warn(missing_docs)]
// Triangular-solve and factorization loops index by position on purpose:
// the math (row/column recurrences with running offsets) reads better with
// explicit indices than with iterator adaptors.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod complex;
pub mod eig;
pub mod hildreth;
pub mod lstsq;
pub mod lu;
pub mod matrix;
pub mod poly;
pub mod qp;
pub mod qr;
pub mod vector;

pub use cholesky::Cholesky;
pub use complex::Complex;
pub use eig::{eigenvalues, spectral_radius};
pub use hildreth::{hildreth_solve, HildrethSolution};
pub use lstsq::{lstsq, Kkt};
pub use lu::Lu;
pub use matrix::Matrix;
pub use qp::{BoxQp, QpError, QpSolution};
pub use qr::Qr;
pub use vector::Vector;

/// Error type shared by the factorizations and solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix was structurally incompatible (dimension mismatch).
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Dimensions the caller supplied, `(rows, cols)` pairs.
        got: (usize, usize),
        /// Dimensions that were required.
        expected: (usize, usize),
    },
    /// The matrix was singular (or numerically so) to working precision.
    Singular,
    /// The matrix was expected to be symmetric positive definite but is not.
    NotPositiveDefinite,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                got,
                expected,
            } => write!(
                f,
                "dimension mismatch in {context}: got {}x{}, expected {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
            LinalgError::NoConvergence => write!(f, "iteration failed to converge"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Result alias for linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
