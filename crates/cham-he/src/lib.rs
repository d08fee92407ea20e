//! # cham-he — the CHAM homomorphic-encryption algorithm stack
//!
//! This crate implements the algorithmic half of the CHAM accelerator
//! (DAC'23): a B/FV-style RLWE scheme specialised for *coefficient-encoded
//! homomorphic matrix-vector product* (HMVP, paper Alg. 1), together with
//! the LWE↔RLWE ciphertext conversions of Chen et al. that CHAM is the
//! first accelerator to support:
//!
//! * [`params`] — the paper's `N = 4096` parameter set with hardware-
//!   friendly moduli (§II-F),
//! * [`keys`] — secret keys, RNS key-switch keys with a special modulus,
//!   and Galois (automorphism) keys,
//! * [`encoding`] — coefficient encoding (Eq. 1) and the batch (SIMD)
//!   encoding used by the related-work baselines (§II-E),
//! * [`ciphertext`] — RLWE and LWE ciphertext types over the unified
//!   vector-like storage of §IV-B,
//! * [`encrypt`] — encryption, decryption, and an exact noise meter,
//! * [`ops`] — homomorphic addition, plaintext multiplication, rescale
//!   (pipeline stage-4), automorphism + key-switch,
//! * [`extract`] — `EXTRACTLWES` (Eq. 3) and `LWE-TO-RLWE`,
//! * [`pack`] — `PACKTWOLWES` / `PACKLWES` (Algs. 2 & 3),
//! * [`hmvp`] — the end-to-end HMVP with tiling for arbitrary shapes,
//! * [`baseline`] — batch-encoded rotate-and-sum and diagonal HMVP, the
//!   `O(m log N)` / `O(m)` comparators of §II-E,
//! * [`conv`] — 2-D convolution via coefficient encoding (the paper's
//!   "easily extended" claim),
//! * [`noise`] — analytic noise bounds validated against the exact meter,
//! * [`wire`] — versioned byte serialization for ciphertexts.
//!
//! ## Quickstart
//!
//! ```
//! use cham_he::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let params = ChamParams::insecure_test_default()?;
//! let sk = SecretKey::generate(&params, &mut rng);
//! let enc = Encryptor::new(&params, &sk);
//! let dec = Decryptor::new(&params, &sk);
//!
//! let v = vec![5u64; params.degree()];
//! let pt = CoeffEncoder::new(&params).encode_vector(&v)?;
//! let ct = enc.encrypt_augmented(&pt, &mut rng);
//! let out = dec.decrypt_augmented(&ct);
//! assert_eq!(out.values()[0], 5);
//! # Ok::<(), cham_he::HeError>(())
//! ```

#![warn(missing_docs)]
pub mod baseline;
pub mod ciphertext;
pub mod conv;
pub mod encoding;
pub mod encrypt;
pub mod extract;
pub mod hmvp;
pub mod keys;
pub mod noise;
pub mod ops;
#[cfg(test)]
pub(crate) mod oracle;
pub mod pack;
pub mod params;
pub mod scratch;
pub mod wire;

use std::error::Error;
use std::fmt;

/// Convenient glob-import of the main API surface.
pub mod prelude {
    pub use crate::ciphertext::{LweCiphertext, RlweCiphertext};
    pub use crate::encoding::{BatchEncoder, CoeffEncoder, Plaintext};
    pub use crate::encrypt::{Decryptor, Encryptor};
    pub use crate::hmvp::{Hmvp, HmvpResult};
    pub use crate::keys::{GaloisKeys, KeySwitchKey, SecretKey};
    pub use crate::params::{ChamParams, ChamParamsBuilder};
}

/// Errors from the HE layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HeError {
    /// Parameter validation failed (message names the offending rule).
    InvalidParams(&'static str),
    /// An operand has the wrong length/shape for the operation.
    ShapeMismatch {
        /// The size the operation required.
        expected: usize,
        /// The size it was given.
        got: usize,
    },
    /// Operands belong to different parameter sets, bases, or domains.
    Incompatible(&'static str),
    /// The requested Galois key is missing.
    MissingGaloisKey(usize),
    /// Underlying arithmetic error.
    Math(cham_math::MathError),
    /// An operation that needs noise headroom would exceed the budget.
    NoiseBudgetExhausted,
}

impl fmt::Display for HeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeError::InvalidParams(m) => write!(f, "invalid parameters: {m}"),
            HeError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            HeError::Incompatible(m) => write!(f, "incompatible operands: {m}"),
            HeError::MissingGaloisKey(k) => {
                write!(f, "missing galois key for automorphism index {k}")
            }
            HeError::Math(e) => write!(f, "math error: {e}"),
            HeError::NoiseBudgetExhausted => write!(f, "noise budget exhausted"),
        }
    }
}

impl Error for HeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HeError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cham_math::MathError> for HeError {
    fn from(e: cham_math::MathError) -> Self {
        HeError::Math(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HeError>;
