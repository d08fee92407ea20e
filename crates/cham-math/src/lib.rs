//! # cham-math — arithmetic substrate for the CHAM reproduction
//!
//! This crate provides the number-theoretic foundation that the CHAM
//! accelerator (DAC'23) is built on:
//!
//! * [`modulus`] — modular arithmetic over word-sized primes, with both a
//!   generic Barrett path and the paper's *hardware-friendly* shift-add
//!   reduction for moduli with only three non-zero bits (§IV-A.3),
//! * [`primality`] — Miller–Rabin primality testing and primitive-root
//!   search used to derive NTT twiddle factors,
//! * [`ntt`] — the negacyclic number-theoretic transform in the classic
//!   iterative (Cooley–Tukey / Gentleman–Sande) formulation,
//! * [`ntt_cg`] — the *constant-geometry* (Pease) NTT of the paper's
//!   Algorithm 4, whose fixed datapath is what the CHAM NTT units implement,
//! * [`poly`] — polynomials in `Z_q[X]/(X^N + 1)` with the full table of
//!   CHAM polynomial-processing-unit operations (Table I): `MODADD`,
//!   `MODMUL`, `REV`, `SHIFTNEG`, `AUTOMORPH`, monomial multiplication,
//! * [`rns`] — residue-number-system machinery: CRT reconstruction, rescale
//!   by the special modulus (pipeline stage-4), and modulus switching,
//! * [`sampling`] — the random distributions used by RLWE key generation
//!   and encryption (uniform, ternary, centred binomial).
//!
//! Everything is pure, safe Rust with no external arithmetic dependencies.
//!
//! ## Example
//!
//! ```
//! use cham_math::modulus::Modulus;
//! use cham_math::ntt::NttTable;
//!
//! // One of the CHAM ciphertext moduli: q0 = 2^34 + 2^27 + 1.
//! let q = Modulus::new((1u64 << 34) + (1 << 27) + 1)?;
//! let table = NttTable::new(1 << 12, q)?;
//! let mut a = vec![1u64; 1 << 12];
//! table.forward(&mut a);
//! table.inverse(&mut a);
//! assert!(a.iter().all(|&x| x == 1));
//! # Ok::<(), cham_math::MathError>(())
//! ```

#![warn(missing_docs)]
// Index-based loops mirror the paper's algorithm statements (butterfly
// and gradient indices); suppress the stylistic lint crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod karatsuba;
pub mod modulus;
pub mod montgomery;
pub mod ntt;
pub mod ntt_cg;
pub mod poly;
pub mod primality;
pub mod rns;
pub mod sampling;
pub mod simd;

pub use modulus::Modulus;
pub use ntt::NttTable;
pub use ntt_cg::CgNttTable;
pub use poly::Poly;
pub use rns::{RnsContext, RnsPoly};
pub use simd::{simd_stats, Backend, SimdStats};

use std::error::Error;
use std::fmt;

/// Errors produced by the arithmetic substrate.
///
/// Every fallible constructor in this crate validates its arguments
/// (C-VALIDATE) and reports failures through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MathError {
    /// The modulus value is unusable (zero, one, or too large to keep
    /// intermediate products inside `u128`).
    InvalidModulus(u64),
    /// The requested ring degree is not a power of two, or is out of the
    /// supported range.
    InvalidDegree(usize),
    /// The modulus does not support an NTT of the requested size
    /// (`q ≢ 1 mod 2N`).
    NoNttSupport {
        /// The offending modulus.
        modulus: u64,
        /// The requested transform size.
        degree: usize,
    },
    /// Two operands belong to incompatible contexts (different degree or
    /// modulus chain).
    ContextMismatch,
    /// The element has no inverse under the modulus.
    NotInvertible(u64),
    /// A parameter combination is invalid (message explains which).
    InvalidParameter(&'static str),
}

impl fmt::Display for MathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MathError::InvalidModulus(q) => write!(f, "invalid modulus {q}"),
            MathError::InvalidDegree(n) => {
                write!(
                    f,
                    "invalid ring degree {n} (must be a power of two in [4, 2^20])"
                )
            }
            MathError::NoNttSupport { modulus, degree } => {
                write!(
                    f,
                    "modulus {modulus} does not support an NTT of size {degree} (q mod 2N != 1)"
                )
            }
            MathError::ContextMismatch => write!(f, "operands belong to incompatible contexts"),
            MathError::NotInvertible(x) => write!(f, "{x} is not invertible under the modulus"),
            MathError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl Error for MathError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MathError>;

/// Reverses the lowest `bits` bits of `x`.
///
/// This is the index permutation produced by decimation-in-time FFT
/// orderings; the CHAM constant-geometry NTT emits its output in this order
/// (paper Alg. 4: "in bit-reversed order").
///
/// # Example
/// ```
/// assert_eq!(cham_math::bit_reverse(0b0011, 4), 0b1100);
/// ```
#[inline]
pub const fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        x.reverse_bits() >> (usize::BITS - bits)
    }
}

/// Returns `log2(n)` for a power of two `n`.
///
/// # Panics
/// Panics if `n` is not a power of two.
#[inline]
pub fn log2_exact(n: usize) -> u32 {
    assert!(n.is_power_of_two(), "{n} is not a power of two");
    n.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_reverse_small() {
        assert_eq!(bit_reverse(0, 3), 0);
        assert_eq!(bit_reverse(1, 3), 4);
        assert_eq!(bit_reverse(3, 3), 6);
        assert_eq!(bit_reverse(5, 3), 5);
    }

    #[test]
    fn bit_reverse_zero_bits() {
        assert_eq!(bit_reverse(0, 0), 0);
    }

    #[test]
    fn bit_reverse_involution() {
        for bits in 1..12u32 {
            for x in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
            }
        }
    }

    #[test]
    fn log2_exact_works() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(4096), 12);
    }

    #[test]
    #[should_panic]
    fn log2_exact_rejects_non_power() {
        log2_exact(12);
    }

    #[test]
    fn error_display_is_lowercase() {
        let e = MathError::InvalidModulus(0);
        let s = e.to_string();
        assert!(s.starts_with("invalid"));
        assert!(!s.ends_with('.'));
    }
}
