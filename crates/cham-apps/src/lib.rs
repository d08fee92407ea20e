//! # cham-apps — privacy-preserving applications on the CHAM stack
//!
//! The end-to-end workloads of the paper's evaluation (§V-B.3 / §V-B.4):
//!
//! * [`lr`] — **HeteroLR**: vertically-partitioned federated logistic
//!   regression (two data parties + an arbiter), with interchangeable
//!   crypto backends: FATE's original Paillier or the CHAM B/FV HMVP,
//! * [`beaver`] — **Beaver triple generation** for cryptographic
//!   neural-network inference (Delphi-style preprocessing),
//! * [`paillier`] — the semi-HE baseline algorithm, on an in-repo
//!   [`bigint`] substrate,
//! * [`secretshare`] — additive secret sharing over `Z_t`,
//! * [`fixed`] — fixed-point encoding between `f64` model quantities and
//!   the plaintext ring,
//! * [`datasets`] — seeded synthetic datasets for the Fig. 7 sweeps,
//! * [`protocol`] — a two-party transcript recorder (message sizes and
//!   rounds) for the semi-honest model of §II-F.

#![warn(missing_docs)]
// Index-based loops mirror the paper's algorithm statements (butterfly
// and gradient indices); suppress the stylistic lint crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod beaver;
pub mod bigint;
pub mod datasets;
pub mod fixed;
pub mod lr;
pub mod paillier;
pub mod protocol;
pub mod secretshare;

use std::error::Error;
use std::fmt;

/// Errors from the application layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum AppError {
    /// A value exceeds its representable range.
    OutOfRange(&'static str),
    /// Operand shapes disagree.
    ShapeMismatch {
        /// Expected size.
        expected: usize,
        /// Provided size.
        got: usize,
    },
    /// Invalid configuration (message names the rule).
    InvalidConfig(&'static str),
    /// Underlying HE error.
    He(cham_he::HeError),
    /// Underlying simulator error.
    Sim(cham_sim::SimError),
    /// Underlying math error.
    Math(cham_math::MathError),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::OutOfRange(m) => write!(f, "value out of range: {m}"),
            AppError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            AppError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            AppError::He(e) => write!(f, "he error: {e}"),
            AppError::Sim(e) => write!(f, "sim error: {e}"),
            AppError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl Error for AppError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AppError::He(e) => Some(e),
            AppError::Sim(e) => Some(e),
            AppError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cham_he::HeError> for AppError {
    fn from(e: cham_he::HeError) -> Self {
        AppError::He(e)
    }
}

impl From<cham_sim::SimError> for AppError {
    fn from(e: cham_sim::SimError) -> Self {
        AppError::Sim(e)
    }
}

impl From<cham_math::MathError> for AppError {
    fn from(e: cham_math::MathError) -> Self {
        AppError::Math(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AppError>;
