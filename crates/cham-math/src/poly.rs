//! Polynomials over `Z_q[X]/(X^N + 1)` and the CHAM polynomial-processing-
//! unit (PPU) operation set.
//!
//! Table I of the paper lists the arithmetic the PPUs implement; all but
//! `REV` is here with the same names:
//!
//! | paper        | method                      |
//! |--------------|-----------------------------|
//! | `MODADD`     | [`Poly::add`]               |
//! | `MODMUL`     | [`Poly::mul_pointwise`]     |
//! | `SHIFTNEG`   | [`Poly::shift_neg`]         |
//! | `AUTOMORPH`  | [`Poly::automorph`]         |
//!
//! `REV` runs only inside extraction's Eq. 3 rearrangement (`cham-he`'s
//! `extract`, a reversal with negation in place), so it has no method here.
//!
//! On hardware all of these are *vectorized* passes over a coefficient
//! stream; LWE ciphertext vectors reuse the same storage (a `Poly` is "a
//! vector-like data structure", §IV-B), which is why `cham-he` builds both
//! RLWE and LWE ciphertexts on this one type.

use crate::modulus::Modulus;
use crate::ntt::negacyclic_mul_schoolbook;
use crate::{MathError, Result};

/// A dense polynomial (equivalently, a coefficient vector) modulo one prime.
///
/// Coefficients are kept canonical in `[0, q)`; the modulus itself is passed
/// to each operation rather than stored, so a `Poly` can move between RNS
/// limbs without reallocation.
///
/// # Example
/// ```
/// use cham_math::{Modulus, Poly};
/// let q = Modulus::new(17)?;
/// let a = Poly::from_coeffs(vec![1, 2, 3, 4]);
/// let b = a.shift_neg(1, &q); // multiply by X
/// assert_eq!(b.coeffs(), &[17 - 4, 1, 2, 3]);
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    coeffs: Vec<u64>,
}

impl Poly {
    /// The zero polynomial of degree bound `n`.
    pub fn zero(n: usize) -> Self {
        Self { coeffs: vec![0; n] }
    }

    /// Wraps a coefficient vector. Callers must ensure canonical form;
    /// [`Poly::from_signed`] maps arbitrary signed values into it.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Self { coeffs }
    }

    /// Builds a polynomial from signed coefficients, mapping into `[0, q)`.
    pub fn from_signed(coeffs: &[i64], q: &Modulus) -> Self {
        Self {
            coeffs: coeffs.iter().map(|&c| q.from_signed(c)).collect(),
        }
    }

    /// Number of coefficients (the ring degree `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True when the polynomial has no coefficients.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Borrow the coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutably borrow the coefficients.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// Consume into the coefficient vector.
    #[inline]
    pub fn into_coeffs(self) -> Vec<u64> {
        self.coeffs
    }

    /// `MODADD`: coefficient-wise addition.
    ///
    /// # Panics
    /// Panics if the operands have different lengths.
    pub fn add(&self, rhs: &Self, q: &Modulus) -> Self {
        assert_eq!(self.len(), rhs.len(), "operand length mismatch");
        Self {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| q.add(a, b))
                .collect(),
        }
    }

    /// In-place `MODADD`.
    ///
    /// # Panics
    /// Panics if the operands have different lengths.
    pub fn add_assign(&mut self, rhs: &Self, q: &Modulus) {
        assert_eq!(self.len(), rhs.len(), "operand length mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a = q.add(*a, b);
        }
    }

    /// Coefficient-wise subtraction.
    ///
    /// # Panics
    /// Panics if the operands have different lengths.
    pub fn sub(&self, rhs: &Self, q: &Modulus) -> Self {
        assert_eq!(self.len(), rhs.len(), "operand length mismatch");
        Self {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| q.sub(a, b))
                .collect(),
        }
    }

    /// In-place subtraction.
    ///
    /// # Panics
    /// Panics if the operands have different lengths.
    pub fn sub_assign(&mut self, rhs: &Self, q: &Modulus) {
        assert_eq!(self.len(), rhs.len(), "operand length mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a = q.sub(*a, b);
        }
    }

    /// `MODMUL`: coefficient-wise (Hadamard) multiplication — the NTT-domain
    /// product.
    ///
    /// # Panics
    /// Panics if the operands have different lengths.
    pub fn mul_pointwise(&self, rhs: &Self, q: &Modulus) -> Self {
        assert_eq!(self.len(), rhs.len(), "operand length mismatch");
        Self {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(&a, &b)| q.mul(a, b))
                .collect(),
        }
    }

    /// In-place `MODMUL` — the allocation-free twin of
    /// [`Poly::mul_pointwise`].
    ///
    /// # Panics
    /// Panics if the operands have different lengths.
    pub fn mul_pointwise_assign(&mut self, rhs: &Self, q: &Modulus) {
        assert_eq!(self.len(), rhs.len(), "operand length mismatch");
        for (a, &b) in self.coeffs.iter_mut().zip(&rhs.coeffs) {
            *a = q.mul(*a, b);
        }
    }

    /// Multiplies every coefficient by a scalar.
    pub fn mul_scalar(&self, s: u64, q: &Modulus) -> Self {
        let s = q.reduce(s);
        Self {
            coeffs: self.coeffs.iter().map(|&a| q.mul(a, s)).collect(),
        }
    }

    /// Full negacyclic product via schoolbook convolution (`O(N^2)` oracle;
    /// production paths multiply in the NTT domain instead).
    ///
    /// # Panics
    /// Panics if the operands have different lengths.
    pub fn mul_negacyclic_schoolbook(&self, rhs: &Self, q: &Modulus) -> Self {
        Self {
            coeffs: negacyclic_mul_schoolbook(&self.coeffs, &rhs.coeffs, q),
        }
    }

    /// `SHIFTNEG`: multiplication by the monomial `X^s` in the negacyclic
    /// ring — a circular shift by `s` with negation of the wrapped-around
    /// coefficients. Accepts any `s` (reduced mod `2N`, since `X^N = −1`).
    pub fn shift_neg(&self, s: usize, q: &Modulus) -> Self {
        let n = self.len();
        let s2 = s % (2 * n);
        let (s, negate_all) = if s2 >= n { (s2 - n, true) } else { (s2, false) };
        let mut coeffs = vec![0u64; n];
        for (i, &a) in self.coeffs.iter().enumerate() {
            let j = i + s;
            let (pos, wrapped) = if j >= n { (j - n, true) } else { (j, false) };
            let neg = wrapped ^ negate_all;
            coeffs[pos] = if neg { q.neg(a) } else { a };
        }
        Self { coeffs }
    }

    /// `AUTOMORPH`: the Galois map `X → X^k`, i.e.
    /// `a_i → (−1)^{⌊ik/N⌋} a at position ik mod N` (paper Table I).
    ///
    /// # Errors
    /// Returns [`MathError::InvalidParameter`] unless `k` is odd (even `k`
    /// is not a ring automorphism of `Z_q[X]/(X^N+1)`).
    pub fn automorph(&self, k: usize, q: &Modulus) -> Result<Self> {
        if k.is_multiple_of(2) {
            return Err(MathError::InvalidParameter(
                "automorphism index must be odd",
            ));
        }
        let n = self.len();
        let mut coeffs = vec![0u64; n];
        for (i, &a) in self.coeffs.iter().enumerate() {
            let ik = i * k;
            let pos = ik % n;
            // (−1)^{⌊ik/N⌋}: each wrap past N flips the sign.
            if (ik / n).is_multiple_of(2) {
                coeffs[pos] = a;
            } else {
                coeffs[pos] = q.neg(a);
            }
        }
        Ok(Self { coeffs })
    }

    /// Infinity norm of the centred representative — the noise magnitude
    /// measure used by the `cham-he` noise meter.
    pub fn centered_inf_norm(&self, q: &Modulus) -> u64 {
        self.coeffs
            .iter()
            .map(|&c| q.center(c).unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

impl FromIterator<u64> for Poly {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Self {
            coeffs: iter.into_iter().collect(),
        }
    }
}

impl AsRef<[u64]> for Poly {
    fn as_ref(&self) -> &[u64] {
        &self.coeffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::Q0;
    use rand::{Rng, SeedableRng};

    fn q17() -> Modulus {
        Modulus::new(17).unwrap()
    }

    fn random_poly(n: usize, q: &Modulus, rng: &mut impl Rng) -> Poly {
        (0..n).map(|_| rng.gen_range(0..q.value())).collect()
    }

    #[test]
    fn add_sub_roundtrip() {
        let q = Modulus::new(Q0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = random_poly(32, &q, &mut rng);
        let b = random_poly(32, &q, &mut rng);
        assert_eq!(a.add(&b, &q).sub(&b, &q), a);
        let mut c = a.clone();
        c.add_assign(&b, &q);
        c.sub_assign(&b, &q);
        assert_eq!(c, a);
        assert_eq!(a.sub(&a, &q), Poly::zero(32));
    }

    #[test]
    fn shift_neg_is_monomial_multiplication() {
        let q = Modulus::new(Q0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 16;
        let a = random_poly(n, &q, &mut rng);
        for s in 0..2 * n {
            // Oracle: schoolbook multiply by X^s (X^N = -1 handled by two
            // half-range cases).
            let mut mono = Poly::zero(n);
            let (idx, neg) = if s % (2 * n) >= n {
                (s % n, true)
            } else {
                (s, false)
            };
            mono.coeffs_mut()[idx] = if neg { q.neg(1) } else { 1 };
            let expect = a.mul_negacyclic_schoolbook(&mono, &q);
            assert_eq!(a.shift_neg(s, &q), expect, "s={s}");
        }
    }

    #[test]
    fn shift_neg_full_period_is_identity() {
        let q = q17();
        let a = Poly::from_coeffs(vec![1, 2, 3, 4]);
        assert_eq!(a.shift_neg(8, &q), a); // X^{2N} = 1
        assert_eq!(a.shift_neg(4, &q), Poly::from_coeffs(vec![16, 15, 14, 13])); // X^N = -1
        assert_eq!(a.shift_neg(0, &q), a);
    }

    #[test]
    fn automorph_rejects_even_k() {
        let q = q17();
        let a = Poly::from_coeffs(vec![1, 2, 3, 4]);
        assert!(a.automorph(2, &q).is_err());
        assert!(a.automorph(1, &q).is_ok());
    }

    #[test]
    fn automorph_identity_and_composition() {
        let q = Modulus::new(Q0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 32;
        let a = random_poly(n, &q, &mut rng);
        assert_eq!(a.automorph(1, &q).unwrap(), a);
        // Group law: automorph(k1) ∘ automorph(k2) == automorph(k1*k2 mod 2N).
        for (k1, k2) in [(3usize, 5usize), (7, 9), (63, 3)] {
            let lhs = a.automorph(k1, &q).unwrap().automorph(k2, &q).unwrap();
            let rhs = a.automorph((k1 * k2) % (2 * n), &q).unwrap();
            assert_eq!(lhs, rhs, "k1={k1} k2={k2}");
        }
        // automorph(2N-1) is the "conjugation"; applying twice = identity.
        let c = a.automorph(2 * n - 1, &q).unwrap();
        assert_eq!(c.automorph(2 * n - 1, &q).unwrap(), a);
    }

    #[test]
    fn automorph_respects_ring_structure() {
        // σ_k(a·b) == σ_k(a)·σ_k(b): automorphisms are ring homomorphisms.
        let q = Modulus::new(Q0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 16;
        let a = random_poly(n, &q, &mut rng);
        let b = random_poly(n, &q, &mut rng);
        for k in [3usize, 5, 31] {
            let lhs = a
                .mul_negacyclic_schoolbook(&b, &q)
                .automorph(k, &q)
                .unwrap();
            let rhs = a
                .automorph(k, &q)
                .unwrap()
                .mul_negacyclic_schoolbook(&b.automorph(k, &q).unwrap(), &q);
            assert_eq!(lhs, rhs, "k={k}");
        }
    }

    #[test]
    fn from_signed_and_norm() {
        let q = q17();
        let a = Poly::from_signed(&[-1, 0, 8, -8], &q);
        assert_eq!(a.coeffs(), &[16, 0, 8, 9]);
        assert_eq!(a.centered_inf_norm(&q), 8);
        assert_eq!(Poly::zero(4).centered_inf_norm(&q), 0);
    }

    #[test]
    fn mul_scalar_matches_pointwise() {
        let q = q17();
        let a = Poly::from_coeffs(vec![1, 2, 3, 4]);
        let s = 5;
        let b = a.mul_scalar(s, &q);
        assert_eq!(b.coeffs(), &[5, 10, 15, 3]);
    }
}
