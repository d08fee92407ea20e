//! Key material: secret keys, RNS key-switch keys, and Galois keys.
//!
//! Key-switching follows the hybrid/GHS construction the paper's special
//! modulus implies (§II-F: "the other 39 bit is used as a special modulus
//! for key-switching"):
//!
//! * the ciphertext basis `Q = q0·q1` is *augmented* to `Q·p`,
//! * the digit decomposition is the RNS decomposition (one digit per
//!   ciphertext prime),
//! * digit `i`'s gadget constant is `g_i = p·(Q/q_i)·[(Q/q_i)^{-1}]_{q_i}`,
//!   which satisfies `g_i ≡ p (mod q_i)`, `g_i ≡ 0 (mod q_j, j≠i)` and
//!   `g_i ≡ 0 (mod p)` — so key-switch output rescales by `p` back to `Q`
//!   with only additive noise `≈ (Σ_i ‖d_i·e_i‖)/p`.

use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::rns::{Form, RnsContext, RnsPoly};
use cham_math::sampling::{noise_rns_poly, ternary_rns_poly, uniform_rns_poly};
use cham_math::simd;
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashMap;

/// An RLWE secret key: ternary coefficients embedded into both the normal
/// and augmented bases (coefficient and NTT forms are derived on demand).
#[derive(Debug, Clone)]
pub struct SecretKey {
    params: ChamParams,
    /// Signed ternary coefficients — the canonical representation.
    coeffs: Vec<i64>,
    /// NTT-form embeddings with Shoup companions, cached for fast
    /// phase computation.
    s_ct_ntt: SecretNtt,
    s_aug_ntt: SecretNtt,
}

/// `s` in NTT form over one basis, with every word's Shoup companion, so
/// that `a·s` costs one lazy Shoup multiply per coefficient and one
/// normalize instead of a Barrett reduction.
#[derive(Debug, Clone)]
pub(crate) struct SecretNtt {
    s: RnsPoly,
    /// `⌊s_j·2^64 / qᵢ⌋` per limb.
    shoup: Vec<Vec<u64>>,
}

impl SecretNtt {
    fn new(ctx: &RnsContext, coeffs: &[i64]) -> Result<Self> {
        let mut s = RnsPoly::from_signed(ctx, coeffs)?;
        s.to_ntt();
        let shoup = s
            .limbs()
            .iter()
            .zip(ctx.moduli())
            .map(|(limb, m)| limb.coeffs().iter().map(|&w| m.shoup(w)).collect())
            .collect();
        Ok(Self { s, shoup })
    }

    /// `a ← a·s` for an NTT-form `a` over the same basis, canonical out:
    /// per limb, [`simd::mul_shoup_lazy_slice`] into `[0, 2q)` and one
    /// [`simd::reduce_from_lazy_slice`].
    ///
    /// # Panics
    /// Panics if `a` is in coefficient form or over another basis.
    pub(crate) fn mul_assign(&self, a: &mut RnsPoly) {
        let ctx = self.s.context();
        assert!(
            a.form() == Form::Ntt && a.context() == ctx,
            "a·s needs an NTT-form operand over the key's basis"
        );
        let per_limb = self.s.limbs().iter().zip(&self.shoup).zip(ctx.tables());
        for (limb, ((s, ws), table)) in a.limbs_mut().iter_mut().zip(per_limb) {
            let (backend, q) = (table.backend(), table.modulus());
            simd::mul_shoup_lazy_slice(limb.coeffs_mut(), s.coeffs(), ws, q);
            simd::reduce_from_lazy_slice(backend, limb.coeffs_mut(), q);
        }
    }
}

impl SecretKey {
    /// Samples a fresh ternary secret key.
    pub fn generate<R: Rng + ?Sized>(params: &ChamParams, rng: &mut R) -> Self {
        let (_, coeffs) = ternary_rns_poly(params.ciphertext_context(), rng);
        Self::from_coeffs(params, coeffs).expect("sampled coefficients have the right length")
    }

    /// Rebuilds a secret key from stored ternary coefficients.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when the length differs from the degree;
    /// [`HeError::InvalidParams`] when any coefficient is outside
    /// `{−1, 0, 1}`.
    pub fn from_coeffs(params: &ChamParams, coeffs: Vec<i64>) -> Result<Self> {
        if coeffs.len() != params.degree() {
            return Err(HeError::ShapeMismatch {
                expected: params.degree(),
                got: coeffs.len(),
            });
        }
        if coeffs.iter().any(|&c| !(-1..=1).contains(&c)) {
            return Err(HeError::InvalidParams("secret key must be ternary"));
        }
        Ok(Self {
            s_ct_ntt: SecretNtt::new(params.ciphertext_context(), &coeffs)?,
            s_aug_ntt: SecretNtt::new(params.augmented_context(), &coeffs)?,
            params: params.clone(),
            coeffs,
        })
    }

    /// The parameter set the key belongs to.
    #[inline]
    pub fn params(&self) -> &ChamParams {
        &self.params
    }

    /// The ternary coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// NTT-form embedding over the augmented basis.
    #[inline]
    pub(crate) fn s_aug_ntt(&self) -> &RnsPoly {
        &self.s_aug_ntt.s
    }

    /// `s` prepared for `a·s` over `ctx`: cached for the two standard
    /// bases, built on demand for any other (the single-limb result of
    /// MODSWITCH).
    pub(crate) fn ntt_for(&self, ctx: &RnsContext) -> Cow<'_, SecretNtt> {
        if ctx == self.params.augmented_context() {
            Cow::Borrowed(&self.s_aug_ntt)
        } else if ctx == self.params.ciphertext_context() {
            Cow::Borrowed(&self.s_ct_ntt)
        } else {
            let s = SecretNtt::new(ctx, &self.coeffs)
                .expect("secret key length matches any same-degree context");
            Cow::Owned(s)
        }
    }

    /// The secret key after the Galois map `X → X^k` — the "old key" a
    /// Galois key switches away from.
    ///
    /// # Errors
    /// [`HeError::Math`] for even `k`.
    pub fn automorphed_coeffs(&self, k: usize) -> Result<Vec<i64>> {
        if k.is_multiple_of(2) {
            return Err(HeError::Math(cham_math::MathError::InvalidParameter(
                "automorphism index must be odd",
            )));
        }
        let n = self.params.degree();
        let mut out = vec![0i64; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            let ik = i * k;
            let pos = ik % n;
            out[pos] = if (ik / n).is_multiple_of(2) { c } else { -c };
        }
        Ok(out)
    }
}

/// A key-switch key from some "old" key to the owner's key: one RLWE pair
/// per RNS digit, stored over the augmented basis in NTT form.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    /// `b_i = −(a_i·s + e_i) + g_i·s_old`, NTT form, augmented basis.
    pub(crate) b: Vec<RnsPoly>,
    /// Uniform `a_i`, NTT form, augmented basis.
    pub(crate) a: Vec<RnsPoly>,
}

impl KeySwitchKey {
    /// Generates a key-switch key from `s_old` (given as signed
    /// coefficients) to `sk`.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when `s_old` has the wrong length.
    pub fn generate<R: Rng + ?Sized>(sk: &SecretKey, s_old: &[i64], rng: &mut R) -> Result<Self> {
        let params = sk.params();
        if s_old.len() != params.degree() {
            return Err(HeError::ShapeMismatch {
                expected: params.degree(),
                got: s_old.len(),
            });
        }
        let aug = params.augmented_context();
        let ct = params.ciphertext_context();
        let digits = ct.len();
        let mut s_old_aug = RnsPoly::from_signed(aug, s_old)?;
        s_old_aug.to_ntt();

        let mut bs = Vec::with_capacity(digits);
        let mut as_ = Vec::with_capacity(digits);
        for i in 0..digits {
            // Gadget g_i: residue vector (0,…, p mod q_i, …, 0 | 0).
            let p = params.special_prime();
            let mut g_residues = vec![0u64; aug.len()];
            g_residues[i] = aug.moduli()[i].reduce(p);
            // g_i·s_old in NTT form: scale limb i of s_old by p, zero others.
            let mut g_s = RnsPoly::zero(aug);
            g_s.to_ntt(); // zero is zero in either form; set the form flag
            {
                let limbs = g_s.limbs_mut();
                let m = aug.moduli()[i];
                let src = &s_old_aug.limbs()[i];
                limbs[i] = src.mul_scalar(g_residues[i], &m);
            }
            let mut a_i = uniform_rns_poly(aug, rng);
            a_i.to_ntt();
            let mut e_i = noise_rns_poly(aug, rng);
            e_i.to_ntt();
            // b_i = -(a_i*s) + e_i + g_i*s_old
            let a_s = a_i.mul_pointwise(sk.s_aug_ntt())?;
            let b_i = g_s.add(&e_i)?.sub(&a_s)?;
            bs.push(b_i);
            as_.push(a_i);
        }
        Ok(Self { b: bs, a: as_ })
    }

    /// Number of RNS digits.
    #[inline]
    pub fn digit_count(&self) -> usize {
        self.b.len()
    }
}

/// A set of key-switch keys for Galois automorphisms, keyed by the
/// automorphism index `k` (odd, in `[3, 2N)`).
///
/// `PACKLWES` over `2^h` ciphertexts needs the indices
/// `{2^j + 1 : 1 ≤ j ≤ h}`; [`GaloisKeys::generate_for_packing`] creates
/// exactly those.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: HashMap<usize, KeySwitchKey>,
}

impl GaloisKeys {
    /// An empty key set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates keys for the given automorphism indices.
    ///
    /// # Errors
    /// Propagates invalid (even) indices from the automorphism map.
    pub fn generate<R: Rng + ?Sized>(
        sk: &SecretKey,
        indices: &[usize],
        rng: &mut R,
    ) -> Result<Self> {
        let mut keys = HashMap::new();
        for &k in indices {
            let s_k = sk.automorphed_coeffs(k)?;
            keys.insert(k, KeySwitchKey::generate(sk, &s_k, rng)?);
        }
        Ok(Self { keys })
    }

    /// Generates the keys `σ_{2^j+1}` needed to pack up to `2^max_log` LWE
    /// ciphertexts (paper Alg. 3 recursion depth).
    ///
    /// # Errors
    /// Propagates generation failures.
    pub fn generate_for_packing<R: Rng + ?Sized>(
        sk: &SecretKey,
        max_log: u32,
        rng: &mut R,
    ) -> Result<Self> {
        let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();
        Self::generate(sk, &indices, rng)
    }

    /// Fetches the key for automorphism index `k`.
    ///
    /// # Errors
    /// [`HeError::MissingGaloisKey`] when absent.
    pub fn get(&self, k: usize) -> Result<&KeySwitchKey> {
        self.keys.get(&k).ok_or(HeError::MissingGaloisKey(k))
    }

    /// True when a key for index `k` is present.
    pub fn contains(&self, k: usize) -> bool {
        self.keys.contains_key(&k)
    }

    /// Inserts a key for index `k` (replacing any previous one).
    pub fn insert(&mut self, k: usize, key: KeySwitchKey) {
        self.keys.insert(k, key);
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (ChamParams, SecretKey, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        (params, sk, rng)
    }

    #[test]
    fn secret_key_is_ternary() {
        let (_, sk, _) = setup();
        assert!(sk.coeffs().iter().all(|&c| (-1..=1).contains(&c)));
        assert_eq!(sk.coeffs().len(), 256);
    }

    #[test]
    fn from_coeffs_validation() {
        let (params, _, _) = setup();
        assert!(SecretKey::from_coeffs(&params, vec![0; 8]).is_err());
        assert!(SecretKey::from_coeffs(&params, vec![2; 256]).is_err());
        assert!(SecretKey::from_coeffs(&params, vec![1; 256]).is_ok());
    }

    #[test]
    fn automorphed_key_matches_poly_automorph() {
        let (params, sk, _) = setup();
        let n = params.degree();
        for k in [3usize, 5, 2 * n - 1] {
            let sk_k = sk.automorphed_coeffs(k).unwrap();
            // Compare against the Poly automorphism on the first limb.
            let m = params.ciphertext_context().moduli()[0];
            let s_poly = cham_math::poly::Poly::from_signed(sk.coeffs(), &m);
            let expect = s_poly.automorph(k, &m).unwrap();
            let got = cham_math::poly::Poly::from_signed(&sk_k, &m);
            assert_eq!(got, expect, "k={k}");
        }
        assert!(sk.automorphed_coeffs(2).is_err());
    }

    #[test]
    fn galois_keys_lookup() {
        let (_, sk, mut rng) = setup();
        let keys = GaloisKeys::generate_for_packing(&sk, 3, &mut rng).unwrap();
        assert_eq!(keys.len(), 3);
        for k in [3usize, 5, 9] {
            assert!(keys.contains(k), "k={k}");
            assert!(keys.get(k).is_ok());
        }
        assert!(matches!(keys.get(17), Err(HeError::MissingGaloisKey(17))));
        assert_eq!(keys.get(3).unwrap().digit_count(), 2);
    }

    #[test]
    fn ksk_phase_encodes_gadget_times_old_key() {
        // b_i + a_i*s should equal g_i*s_old + e_i, with e_i small.
        let (params, sk, mut rng) = setup();
        let s_old: Vec<i64> = sk.automorphed_coeffs(3).unwrap();
        let ksk = KeySwitchKey::generate(&sk, &s_old, &mut rng).unwrap();
        let aug = params.augmented_context();
        for i in 0..ksk.digit_count() {
            let phase_ntt = ksk.b[i]
                .add(&ksk.a[i].mul_pointwise(sk.s_aug_ntt()).unwrap())
                .unwrap();
            let mut phase = phase_ntt;
            phase.to_coeff();
            // Subtract g_i*s_old: limb i gets p*s_old, other limbs 0.
            let p = params.special_prime();
            let mut g_s = RnsPoly::zero(aug);
            {
                let m = aug.moduli()[i];
                let s_old_p = cham_math::poly::Poly::from_signed(&s_old, &m);
                g_s.limbs_mut()[i] = s_old_p.mul_scalar(m.reduce(p), &m);
            }
            let e = phase.sub(&g_s).unwrap();
            // Residual must be a *small* CRT-consistent value (the noise).
            let norm = e.small_inf_norm();
            assert!(norm < 64, "digit {i}: noise norm {norm}");
            // And CRT-consistent smallness: every limb must agree.
            for j in 0..params.degree() {
                let c0 = aug.moduli()[0].center(e.limbs()[0].coeffs()[j]);
                for l in 1..aug.len() {
                    let cl = aug.moduli()[l].center(e.limbs()[l].coeffs()[j]);
                    assert_eq!(c0, cl, "digit {i} coeff {j} limb {l}");
                }
            }
        }
    }
}
