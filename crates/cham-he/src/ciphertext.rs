//! RLWE and LWE ciphertext types.
//!
//! Both are built on the same vector-like storage ([`cham_math::RnsPoly`]),
//! mirroring §IV-B: *"both LWE ciphertext (composed of a vector and a
//! scalar) and RLWE ciphertext (composed of polynomials) can be well
//! supported by a unified data structure"*.
//!
//! Decryption convention: `phase(b, a) = b + a·s`; a ciphertext encrypts
//! plaintext `μ` when `phase ≈ Δ·μ` with `Δ = ⌊Q_basis/t⌋`.
//!
//! Table I's per-element stages (MODADD/MODSUB, MULTMONO, AUTOMORPH) run
//! on the HMVP and pack paths as fused `cham_math::simd` kernels over the
//! limbs, not as methods here; `sub` and `mul_monomial` stay for the test
//! oracles (`oracle.rs`).

use crate::{HeError, Result};
use cham_math::rns::{Form, RnsPoly};

/// An RLWE ciphertext `(b(X), a(X))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlweCiphertext {
    pub(crate) b: RnsPoly,
    pub(crate) a: RnsPoly,
}

impl RlweCiphertext {
    /// Wraps two RNS polynomials.
    ///
    /// # Errors
    /// [`HeError::Incompatible`] when the components disagree in context or
    /// form.
    pub fn new(b: RnsPoly, a: RnsPoly) -> Result<Self> {
        if b.context() != a.context() || b.form() != a.form() {
            return Err(HeError::Incompatible(
                "ciphertext components must share context and form",
            ));
        }
        Ok(Self { b, a })
    }

    /// A transparent encryption of zero (used for padding in `PACKLWES`).
    pub fn zero_like(&self) -> Self {
        Self {
            b: RnsPoly::zero(self.b.context()),
            a: RnsPoly::zero(self.a.context()),
        }
    }

    /// The `b` component.
    #[inline]
    pub fn b(&self) -> &RnsPoly {
        &self.b
    }

    /// The `a` component.
    #[inline]
    pub fn a(&self) -> &RnsPoly {
        &self.a
    }

    /// Current representation domain (shared by both components).
    #[inline]
    pub fn form(&self) -> Form {
        self.b.form()
    }

    /// Converts both components to NTT form in place.
    pub fn to_ntt(&mut self) {
        self.b.to_ntt();
        self.a.to_ntt();
    }

    /// Converts both components to coefficient form in place.
    pub fn to_coeff(&mut self) {
        self.b.to_coeff();
        self.a.to_coeff();
    }

    /// Homomorphic addition.
    ///
    /// # Errors
    /// [`HeError::Incompatible`] on context/form mismatch.
    pub fn add(&self, rhs: &Self) -> Result<Self> {
        Ok(Self {
            b: self.b.add(&rhs.b)?,
            a: self.a.add(&rhs.a)?,
        })
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    /// [`HeError::Incompatible`] on context/form mismatch.
    pub fn sub(&self, rhs: &Self) -> Result<Self> {
        Ok(Self {
            b: self.b.sub(&rhs.b)?,
            a: self.a.sub(&rhs.a)?,
        })
    }

    /// Multiplication by the monomial `X^s` (`MULTMONO`, built on
    /// `SHIFTNEG`). Coefficient form required.
    ///
    /// # Errors
    /// [`HeError::Math`] when in NTT form.
    pub fn mul_monomial(&self, s: usize) -> Result<Self> {
        Ok(Self {
            b: self.b.shift_neg(s)?,
            a: self.a.shift_neg(s)?,
        })
    }
}

/// An LWE ciphertext `(b, â)`: a scalar `b` (stored as RNS residues) and a
/// mask vector `â` such that `phase = b + ⟨â, s⟩`.
///
/// Produced by `EXTRACTLWES` (Eq. 3) from an RLWE ciphertext; convertible
/// back via `LWE-TO-RLWE` for packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    /// `b` residues, one per limb of the basis.
    pub(crate) b: Vec<u64>,
    /// The mask vector in the Eq. 3 arrangement, coefficient form.
    pub(crate) a: RnsPoly,
}

impl LweCiphertext {
    /// Wraps raw components.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when `b` has a residue count different
    /// from the mask's limb count, or [`HeError::Incompatible`] when the
    /// mask is in NTT form.
    pub fn new(b: Vec<u64>, a: RnsPoly) -> Result<Self> {
        if b.len() != a.context().len() {
            return Err(HeError::ShapeMismatch {
                expected: a.context().len(),
                got: b.len(),
            });
        }
        if a.form() != Form::Coeff {
            return Err(HeError::Incompatible(
                "lwe mask must be in coefficient form",
            ));
        }
        Ok(Self { b, a })
    }

    /// The scalar `b`, as one residue per basis limb.
    #[inline]
    pub fn b(&self) -> &[u64] {
        &self.b
    }

    /// The mask vector (Eq. 3 arrangement).
    #[inline]
    pub fn a(&self) -> &RnsPoly {
        &self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ChamParams;
    use cham_math::rns::RnsPoly;

    fn params() -> ChamParams {
        ChamParams::insecure_test_default().unwrap()
    }

    #[test]
    fn new_rejects_mismatched_components() {
        let p = params();
        let b = RnsPoly::zero(p.ciphertext_context());
        let a = RnsPoly::zero(p.augmented_context());
        assert!(RlweCiphertext::new(b.clone(), a).is_err());
        let mut a2 = RnsPoly::zero(p.ciphertext_context());
        a2.to_ntt();
        assert!(RlweCiphertext::new(b.clone(), a2).is_err());
        assert!(RlweCiphertext::new(b.clone(), b).is_ok());
    }

    #[test]
    fn add_sub_neg_algebra() {
        let p = params();
        let ctx = p.ciphertext_context();
        let one = RnsPoly::from_signed(ctx, &vec![1i64; p.degree()]).unwrap();
        let two = RnsPoly::from_signed(ctx, &vec![2i64; p.degree()]).unwrap();
        let ct1 = RlweCiphertext::new(one.clone(), one.clone()).unwrap();
        let ct2 = RlweCiphertext::new(two.clone(), two).unwrap();
        let sum = ct1.add(&ct1).unwrap();
        assert_eq!(sum, ct2);
        assert_eq!(sum.sub(&ct1).unwrap(), ct1);
        assert_eq!(ct1.sub(&ct1).unwrap(), ct1.zero_like());
    }

    #[test]
    fn monomial_full_rotation_is_identity() {
        let p = params();
        let ctx = p.ciphertext_context();
        let x = RnsPoly::from_signed(ctx, &(0..p.degree() as i64).collect::<Vec<_>>()).unwrap();
        let ct = RlweCiphertext::new(x.clone(), x).unwrap();
        assert_eq!(ct.mul_monomial(2 * p.degree()).unwrap(), ct);
        // X^N = −1: the half rotation negates, so it cancels the original.
        let half = ct.mul_monomial(p.degree()).unwrap();
        assert_ne!(half, ct);
        assert_eq!(ct.add(&half).unwrap(), ct.zero_like());
    }

    #[test]
    fn lwe_validation() {
        let p = params();
        let a = RnsPoly::zero(p.ciphertext_context());
        assert!(LweCiphertext::new(vec![0; 2], a.clone()).is_ok());
        assert!(LweCiphertext::new(vec![0; 3], a.clone()).is_err());
        let mut antt = a;
        antt.to_ntt();
        assert!(LweCiphertext::new(vec![0; 2], antt).is_err());
    }
}
