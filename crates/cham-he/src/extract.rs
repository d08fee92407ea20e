//! `EXTRACTLWES` (Eq. 3) and the inverse `LWE-TO-RLWE` conversion.
//!
//! After the dot product, only the *constant coefficient* of each result
//! ciphertext is meaningful (Eq. 2). `EXTRACTLWES` peels that coefficient
//! off as an LWE ciphertext `(b₀, â)` with
//!
//! ```text
//! â(X) = a₀ − Σ_{j=1}^{N−1} a_j X^{N−j}       (Eq. 3)
//! ```
//!
//! so that `b₀ + ⟨â, s⟩` equals the RLWE phase's constant coefficient. The
//! rearrangement is an involution; applying it again (`LWE-TO-RLWE`)
//! recovers an RLWE-shaped pair whose phase carries the payload in its
//! constant coefficient — the form `PACKLWES` consumes. On CHAM both
//! directions are `SHIFTNEG`/`REV`-style coefficient passes executed by the
//! PPUs in the same pipeline stage as RESCALE (§III-A).

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::ops::in_coeff_form;
use crate::{HeError, Result};
use cham_math::rns::RnsPoly;
use cham_math::Modulus;
use std::borrow::Cow;

/// The Eq. 3 coefficient rearrangement, in place: `â₀ = a₀`,
/// `â_{N−j} = −a_j`. An involution (applying twice is the identity) —
/// which is why the fused multiply path, going from a rescaled row
/// straight to a pack leaf, applies it zero times instead of twice.
pub(crate) fn rearrange_in_place(a: &mut RnsPoly) {
    let ctx = a.context().clone();
    for (limb, m) in a.limbs_mut().iter_mut().zip(ctx.moduli()) {
        rearrange_limb(limb.coeffs_mut(), m);
    }
}

fn rearrange_limb(coeffs: &mut [u64], m: &Modulus) {
    let tail = &mut coeffs[1..];
    tail.reverse();
    for c in tail {
        *c = m.neg(*c);
    }
}

/// `EXTRACTLWES` at coefficient `index`: converts an RLWE ciphertext into
/// the LWE ciphertext of its plaintext's `index`-th coefficient.
///
/// The CHAM pipeline only extracts `index = 0` (the dot-product result);
/// general indices are provided because the 2-D convolution extension reads
/// interior coefficients.
///
/// # Errors
/// [`HeError::ShapeMismatch`] when `index >= N`.
pub fn extract_lwe(ct: &RlweCiphertext, index: usize) -> Result<LweCiphertext> {
    cham_telemetry::counter_add!("cham_he.extract.extract_lwe", 1);
    let n = ct.b().context().degree();
    if index >= n {
        return Err(HeError::ShapeMismatch {
            expected: n,
            got: index,
        });
    }
    let (mut b, mut a) = (in_coeff_form(ct.b()), in_coeff_form(ct.a()));
    // Shift the wanted coefficient into position 0: multiplying by X^{-i}
    // = -X^{N-i} moves coefficient i to 0 (and is exactly how the PPUs do
    // it, via SHIFTNEG).
    if index != 0 {
        b = Cow::Owned(b.shift_neg(2 * n - index)?);
        a = Cow::Owned(a.shift_neg(2 * n - index)?);
    }
    let b_res: Vec<u64> = b.limbs().iter().map(|limb| limb.coeffs()[0]).collect();
    let mut a_hat = a.into_owned();
    rearrange_in_place(&mut a_hat);
    LweCiphertext::new(b_res, a_hat)
}

/// `LWE-TO-RLWE`: re-imports an LWE ciphertext as an RLWE ciphertext whose
/// plaintext carries the payload in its constant coefficient (non-constant
/// coefficients are meaningless "garbage" that `PACKLWES` overwrites).
pub fn lwe_to_rlwe(lwe: &LweCiphertext) -> RlweCiphertext {
    let ctx = lwe.a().context();
    let mut ct = RlweCiphertext {
        b: RnsPoly::zero(ctx),
        a: RnsPoly::zero(ctx),
    };
    for (limb, &b0) in ct.b.limbs_mut().iter_mut().zip(lwe.b()) {
        limb.coeffs_mut()[0] = b0;
    }
    write_mask(lwe, &mut ct.a);
    ct
}

/// The RLWE mask of an LWE ciphertext (the Eq. 3 rearrangement undone)
/// written over every coefficient of the coefficient-form `dst`, a
/// polynomial over the LWE's basis (so `dst` may be a recycled buffer).
pub(crate) fn write_mask(lwe: &LweCiphertext, dst: &mut RnsPoly) {
    debug_assert_eq!(dst.context(), lwe.a().context());
    let moduli = lwe.a().context().moduli();
    let limbs = dst.limbs_mut().iter_mut().zip(lwe.a().limbs());
    for ((out, src), m) in limbs.zip(moduli) {
        out.coeffs_mut().copy_from_slice(src.coeffs());
        rearrange_limb(out.coeffs_mut(), m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::SecretKey;
    use crate::params::ChamParams;
    use rand::{Rng, SeedableRng};

    fn setup() -> (
        ChamParams,
        Encryptor,
        Decryptor,
        CoeffEncoder,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        (params, enc, dec, coder, rng)
    }

    #[test]
    fn extract_constant_coefficient() {
        let (params, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus().value();
        let vals: Vec<u64> = (0..params.degree()).map(|_| rng.gen_range(0..t)).collect();
        let ct = enc.encrypt(&coder.encode_vector(&vals).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, 0).unwrap();
        assert_eq!(dec.decrypt_lwe(&lwe), vals[0]);
    }

    #[test]
    fn extract_arbitrary_coefficients() {
        let (params, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus().value();
        let n = params.degree();
        let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let ct = enc.encrypt(&coder.encode_vector(&vals).unwrap(), &mut rng);
        for idx in [0usize, 1, 7, n / 2, n - 1] {
            let lwe = extract_lwe(&ct, idx).unwrap();
            assert_eq!(dec.decrypt_lwe(&lwe), vals[idx], "index {idx}");
        }
        assert!(extract_lwe(&ct, n).is_err());
    }

    #[test]
    fn lwe_to_rlwe_keeps_payload_at_constant_coeff() {
        let (_, enc, dec, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[321, 7, 9]).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, 0).unwrap();
        let back = lwe_to_rlwe(&lwe);
        let pt = dec.decrypt(&back);
        assert_eq!(pt.values()[0], 321);
    }

    #[test]
    fn rearrangement_is_involution() {
        let (params, _, _, _, mut rng) = setup();
        let ctx = params.ciphertext_context();
        let a = cham_math::sampling::uniform_rns_poly(ctx, &mut rng);
        let mut twice = a.clone();
        rearrange_in_place(&mut twice);
        assert_ne!(twice, a);
        rearrange_in_place(&mut twice);
        assert_eq!(twice, a);
    }

    #[test]
    fn lwe_to_rlwe_of_extract_zero_restores_mask() {
        // For index 0 the round trip reproduces the original mask `a`
        // exactly, and `b` truncated to its constant coefficient.
        let (_, enc, _, coder, mut rng) = setup();
        let mut ct = enc.encrypt(&coder.encode_vector(&[5]).unwrap(), &mut rng);
        ct.to_coeff();
        let lwe = extract_lwe(&ct, 0).unwrap();
        let rt = lwe_to_rlwe(&lwe);
        assert_eq!(rt.a(), ct.a());
        assert_eq!(rt.b().limbs()[0].coeffs()[0], ct.b().limbs()[0].coeffs()[0]);
        assert!(rt.b().limbs()[0].coeffs()[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn extract_after_augmented_pipeline() {
        // Extraction works in the augmented basis too (pre-rescale LWEs are
        // never used by the pipeline, but the types permit it).
        let (_, enc, dec, coder, mut rng) = setup();
        let ct = enc.encrypt_augmented(&coder.encode_vector(&[4242]).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, 0).unwrap();
        assert_eq!(dec.decrypt_lwe(&lwe), 4242);
    }
}
