//! Encryption, decryption, and the noise meter.
//!
//! Fresh HMVP inputs are encrypted over the *augmented* basis `Q·p` with
//! scale `Δ_aug = ⌊Qp/t⌋`; the dot-product pipeline's rescale stage divides
//! by `p`, landing on a normal-basis ciphertext with scale `≈ ⌊Q/t⌋`
//! (paper §III-A stage-4, "reduce the noise introduced by polynomial
//! multiplication").
//!
//! Every encryption returns its ciphertext in NTT form, the form the
//! HMVP's dot product reads: the mask is sampled, then transformed, and
//! `b` is formed in the NTT domain, so no inverse transform runs. A
//! caller that needs coefficient form (a monomial shift, an automorphism)
//! converts explicitly with [`RlweCiphertext::to_coeff`].
//!
//! The noise meter computes the *exact* invariant noise via CRT lifting —
//! this is how the repository checks the paper's "30 bit before rescale,
//! 26 bit after" claim quantitatively (see `tests/` and EXPERIMENTS.md).

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::encoding::Plaintext;
use crate::keys::SecretKey;
use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::rns::{Form, RnsContext, RnsPoly};
use cham_math::sampling::{noise_rns_poly, ternary_rns_poly, uniform_rns_poly};
use rand::Rng;

/// An RLWE public key: a transparent encryption of zero over the augmented
/// basis.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = −(a·s) + e`, NTT form, augmented basis.
    b: RnsPoly,
    /// Uniform `a`, NTT form, augmented basis.
    a: RnsPoly,
}

impl PublicKey {
    /// Derives a public key from a secret key.
    pub fn generate<R: Rng + ?Sized>(sk: &SecretKey, rng: &mut R) -> Self {
        let aug = sk.params().augmented_context();
        let mut a = uniform_rns_poly(aug, rng);
        a.to_ntt();
        let mut e = noise_rns_poly(aug, rng);
        e.to_ntt();
        let b = e
            .sub(&a.mul_pointwise(sk.s_aug_ntt()).expect("matching contexts"))
            .expect("matching contexts");
        Self { b, a }
    }
}

/// Encrypts plaintexts under a secret (or public) key.
#[derive(Debug, Clone)]
pub struct Encryptor {
    params: ChamParams,
    sk: SecretKey,
}

impl Encryptor {
    /// Creates an encryptor bound to a secret key.
    pub fn new(params: &ChamParams, sk: &SecretKey) -> Self {
        Self {
            params: params.clone(),
            sk: sk.clone(),
        }
    }

    /// Embeds `Δ_basis · μ` into the given context.
    fn scaled_plaintext(&self, pt: &Plaintext, ctx: &RnsContext) -> Result<RnsPoly> {
        if pt.len() != self.params.degree() {
            return Err(HeError::ShapeMismatch {
                expected: self.params.degree(),
                got: pt.len(),
            });
        }
        let delta = ctx.modulus_product() / self.params.plain_modulus().value() as u128;
        let limbs = ctx
            .moduli()
            .iter()
            .map(|m| {
                let d = (delta % m.value() as u128) as u64;
                cham_math::poly::Poly::from_coeffs(
                    pt.values().iter().map(|&v| m.mul(d, m.reduce(v))).collect(),
                )
            })
            .collect();
        Ok(RnsPoly::from_limbs(ctx, limbs, Form::Coeff)?)
    }

    /// `(b, a)` with `b + a·s = Δμ + e`, in NTT form: `a` and `Δμ + e` are
    /// sampled in coefficient form (in that RNG order) and transformed
    /// forward, and `b = NTT(Δμ + e) − NTT(a)·s` needs no inverse.
    fn encrypt_in(
        &self,
        pt: &Plaintext,
        ctx: &RnsContext,
        rng: &mut (impl Rng + ?Sized),
    ) -> Result<RlweCiphertext> {
        let mut a = uniform_rns_poly(ctx, rng);
        let e = noise_rns_poly(ctx, rng);
        let s_ntt = if ctx == self.params.augmented_context() {
            self.sk.s_aug_ntt()
        } else {
            self.sk.s_ct_ntt()
        };
        a.to_ntt();
        let mut b = self.scaled_plaintext(pt, ctx)?;
        b.add_assign(&e)?;
        b.to_ntt();
        b.sub_assign(&a.mul_pointwise(s_ntt)?)?;
        RlweCiphertext::new(b, a)
    }

    /// Symmetric encryption over the **augmented** basis `Q·p`, in NTT
    /// form — the only form HMVP inputs take (paper: "The DOTPRODUCT
    /// module takes augmented plaintext and ciphertext as input"; the
    /// product reads the limbs in place, with no transform).
    pub fn encrypt_augmented<R: Rng + ?Sized>(
        &self,
        pt: &Plaintext,
        rng: &mut R,
    ) -> RlweCiphertext {
        self.encrypt_in(pt, self.params.augmented_context(), rng)
            .expect("contexts are internally consistent")
    }

    /// Symmetric encryption over the normal basis `Q`, in NTT form.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> RlweCiphertext {
        self.encrypt_in(pt, self.params.ciphertext_context(), rng)
            .expect("contexts are internally consistent")
    }

    /// Public-key encryption over the augmented basis, in NTT form:
    /// `(pk.b·u + NTT(e0 + Δμ), pk.a·u + NTT(e1))`, with `u`, `e0` and
    /// `e1` drawn in that order.
    pub fn encrypt_with_pk<R: Rng + ?Sized>(
        &self,
        pk: &PublicKey,
        pt: &Plaintext,
        rng: &mut R,
    ) -> Result<RlweCiphertext> {
        let ctx = self.params.augmented_context();
        let (mut u, _) = ternary_rns_poly(ctx, rng);
        u.to_ntt();
        let mut e0 = noise_rns_poly(ctx, rng);
        let mut e1 = noise_rns_poly(ctx, rng);
        e0.add_assign(&self.scaled_plaintext(pt, ctx)?)?;
        e0.to_ntt();
        e1.to_ntt();
        let mut b = pk.b.mul_pointwise(&u)?;
        let mut a = pk.a.mul_pointwise(&u)?;
        b.add_assign(&e0)?;
        a.add_assign(&e1)?;
        RlweCiphertext::new(b, a)
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &ChamParams {
        &self.params
    }
}

/// Decrypts ciphertexts and measures their noise.
#[derive(Debug, Clone)]
pub struct Decryptor {
    params: ChamParams,
    sk: SecretKey,
}

/// The outcome of decrypting with noise measurement: the plaintext plus the
/// exact invariant-noise statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseReport {
    /// Decoded plaintext.
    pub plaintext: Plaintext,
    /// `log2` of the max absolute noise (≈ the paper's "30 bit"/"26 bit"
    /// figures). Zero noise reports 0.0.
    pub noise_bits: f64,
    /// Remaining noise budget in bits: `log2(Q_basis / (2t)) − noise_bits`.
    /// Decryption is correct while this stays positive.
    pub budget_bits: f64,
}

impl Decryptor {
    /// Creates a decryptor bound to a secret key.
    pub fn new(params: &ChamParams, sk: &SecretKey) -> Self {
        Self {
            params: params.clone(),
            sk: sk.clone(),
        }
    }

    fn phase(&self, ct: &RlweCiphertext) -> RnsPoly {
        let ctx = ct.b().context();
        // Cached embeddings cover the two standard bases; other contexts
        // (e.g. the single-limb result of MODSWITCH) embed on demand.
        let s_owned;
        let s_ntt = if ctx == self.params.augmented_context() {
            self.sk.s_aug_ntt()
        } else if ctx == self.params.ciphertext_context() {
            self.sk.s_ct_ntt()
        } else {
            let mut s = RnsPoly::from_signed(ctx, self.sk.coeffs())
                .expect("secret key length matches any same-degree context");
            s.to_ntt();
            s_owned = s;
            &s_owned
        };
        let mut a = ct.a().clone();
        a.to_ntt();
        let mut a_s = a.mul_pointwise(s_ntt).expect("context consistency");
        a_s.to_coeff();
        let mut b = ct.b().clone();
        b.to_coeff();
        b.add(&a_s).expect("context consistency")
    }

    /// Decrypts a ciphertext in either basis.
    pub fn decrypt(&self, ct: &RlweCiphertext) -> Plaintext {
        self.decrypt_with_noise(ct).plaintext
    }

    /// Decrypts and reports the exact invariant noise.
    pub fn decrypt_with_noise(&self, ct: &RlweCiphertext) -> NoiseReport {
        let phase = self.phase(ct);
        let ctx = phase.context().clone();
        let q = ctx.modulus_product();
        let t = self.params.plain_modulus().value() as u128;
        let n = self.params.degree();
        let mut values = Vec::with_capacity(n);
        let mut max_noise: i128 = 0;
        for j in 0..n {
            let residues: Vec<u64> = (0..ctx.len())
                .map(|i| phase.limbs()[i].coeffs()[j])
                .collect();
            let v = ctx.crt_lift_centered(&residues);
            // m = round(v * t / q) mod t
            let num = v * t as i128;
            let half = (q / 2) as i128;
            let m = if num >= 0 {
                (num + half) / q as i128
            } else {
                (num - half) / q as i128
            };
            let m_mod = m.rem_euclid(t as i128) as u64;
            values.push(m_mod);
            // Scaled noise: v*t − m*q == e*t (exact integers).
            let e_scaled = (num - m * q as i128).abs();
            max_noise = max_noise.max(e_scaled);
        }
        // noise_bits = log2(max |e|) where |e| = e_scaled / t.
        let noise_bits = if max_noise == 0 {
            0.0
        } else {
            (max_noise as f64).log2() - (t as f64).log2()
        };
        let capacity_bits = (q as f64).log2() - 1.0 - (t as f64).log2();
        let budget_bits = capacity_bits - noise_bits.max(0.0);
        NoiseReport {
            plaintext: Plaintext::from_values(values),
            noise_bits,
            budget_bits,
        }
    }

    /// Decrypts a single LWE ciphertext: `phase = b + ⟨â, s⟩`, decoded to
    /// one value mod `t`.
    pub fn decrypt_lwe(&self, lwe: &LweCiphertext) -> u64 {
        let ctx = lwe.a().context().clone();
        let q = ctx.modulus_product();
        let t = self.params.plain_modulus().value() as u128;
        let residues: Vec<u64> = ctx
            .moduli()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut acc = lwe.b()[i];
                for (k, &ak) in lwe.a().limbs()[i].coeffs().iter().enumerate() {
                    let sk = m.from_signed(self.sk.coeffs()[k]);
                    acc = m.add(acc, m.mul(ak, sk));
                }
                acc
            })
            .collect();
        let v = ctx.crt_lift_centered(&residues);
        let num = v * t as i128;
        let half = (q / 2) as i128;
        let m = if num >= 0 {
            (num + half) / q as i128
        } else {
            (num - half) / q as i128
        };
        m.rem_euclid(t as i128) as u64
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &ChamParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use rand::SeedableRng;

    fn setup() -> (
        ChamParams,
        SecretKey,
        Encryptor,
        Decryptor,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        (params, sk, enc, dec, rng)
    }

    #[test]
    fn roundtrip_augmented() {
        let (params, _, enc, dec, mut rng) = setup();
        let coder = CoeffEncoder::new(&params);
        let t = params.plain_modulus().value();
        let v: Vec<u64> = (0..params.degree() as u64).map(|i| i % t).collect();
        let pt = coder.encode_vector(&v).unwrap();
        let ct = enc.encrypt_augmented(&pt, &mut rng);
        let report = dec.decrypt_with_noise(&ct);
        assert_eq!(report.plaintext.values(), pt.values());
        assert!(report.noise_bits < 8.0, "fresh noise {}", report.noise_bits);
        assert!(report.budget_bits > 80.0, "budget {}", report.budget_bits);
    }

    #[test]
    fn roundtrip_normal_basis() {
        let (params, _, enc, dec, mut rng) = setup();
        let coder = CoeffEncoder::new(&params);
        let pt = coder.encode_vector(&[65534, 7, 0, 12345]).unwrap();
        let ct = enc.encrypt(&pt, &mut rng);
        assert_eq!(dec.decrypt(&ct).values(), pt.values());
    }

    /// Both encryptions emit NTT form, and the value is the coefficient
    /// form formula of the same draws, transformed: `b = Δμ + e − a·s`
    /// and `(pk.b·u + e0 + Δμ, pk.a·u + e1)`.
    #[test]
    fn ntt_form_encryptions_are_the_coefficient_formula_transformed() {
        let (params, sk, enc, _, _) = setup();
        let pk = PublicKey::generate(&sk, &mut rand::rngs::StdRng::seed_from_u64(5));
        let pt = CoeffEncoder::new(&params)
            .encode_vector(&[3, 65536, 17])
            .unwrap();
        let ctx = params.augmented_context();
        let intt = |mut p: RnsPoly| {
            p.to_coeff();
            p
        };
        let want = |b: RnsPoly, a: RnsPoly| {
            let mut ct = RlweCiphertext::new(b, a).unwrap();
            ct.to_ntt();
            ct
        };
        let scaled = enc.scaled_plaintext(&pt, ctx).unwrap();
        let seed = |s| rand::rngs::StdRng::seed_from_u64(s);

        let got = enc.encrypt_augmented(&pt, &mut seed(7));
        let mut rng = seed(7);
        let a = uniform_rns_poly(ctx, &mut rng);
        let e = noise_rns_poly(ctx, &mut rng);
        let mut a_ntt = a.clone();
        a_ntt.to_ntt();
        let a_s = intt(a_ntt.mul_pointwise(sk.s_aug_ntt()).unwrap());
        let b = scaled.add(&e).unwrap().sub(&a_s).unwrap();
        assert_eq!(got.form(), Form::Ntt);
        assert_eq!(got, want(b, a), "symmetric");

        let got = enc.encrypt_with_pk(&pk, &pt, &mut seed(8)).unwrap();
        let mut rng = seed(8);
        let (mut u, _) = ternary_rns_poly(ctx, &mut rng);
        u.to_ntt();
        let e0 = noise_rns_poly(ctx, &mut rng);
        let e1 = noise_rns_poly(ctx, &mut rng);
        let b = intt(pk.b.mul_pointwise(&u).unwrap());
        let b = b.add(&e0).unwrap().add(&scaled).unwrap();
        let a = intt(pk.a.mul_pointwise(&u).unwrap()).add(&e1).unwrap();
        assert_eq!(got.form(), Form::Ntt);
        assert_eq!(got, want(b, a), "public key");
    }

    #[test]
    fn public_key_roundtrip() {
        let (params, sk, enc, dec, mut rng) = setup();
        let pk = PublicKey::generate(&sk, &mut rng);
        let coder = CoeffEncoder::new(&params);
        let pt = coder.encode_vector(&[9, 8, 7]).unwrap();
        let ct = enc.encrypt_with_pk(&pk, &pt, &mut rng).unwrap();
        let report = dec.decrypt_with_noise(&ct);
        assert_eq!(report.plaintext.values(), pt.values());
        // pk encryption is noisier than symmetric, but still tiny.
        assert!(report.noise_bits < 16.0);
    }

    #[test]
    fn homomorphic_addition() {
        let (params, _, enc, dec, mut rng) = setup();
        let coder = CoeffEncoder::new(&params);
        let t = params.plain_modulus();
        let a = coder.encode_vector(&[100, 200]).unwrap();
        let b = coder.encode_vector(&[65530, 9]).unwrap();
        let ca = enc.encrypt_augmented(&a, &mut rng);
        let cb = enc.encrypt_augmented(&b, &mut rng);
        let sum = dec.decrypt(&ca.add(&cb).unwrap());
        assert_eq!(sum.values()[0], t.add(100, 65530));
        assert_eq!(sum.values()[1], 209);
    }

    #[test]
    fn decrypting_garbage_fails_gracefully() {
        // A random "ciphertext" decrypts to noise-dominated junk with a
        // negative budget — the failure mode the meter must expose.
        let (params, _, _, dec, mut rng) = setup();
        let ctx = params.ciphertext_context();
        let b = uniform_rns_poly(ctx, &mut rng);
        let a = uniform_rns_poly(ctx, &mut rng);
        let ct = RlweCiphertext::new(b, a).unwrap();
        let report = dec.decrypt_with_noise(&ct);
        // A uniform phase has noise at the decoding boundary: essentially
        // zero budget (tiny positive values are possible by chance).
        assert!(report.budget_bits < 2.0, "budget {}", report.budget_bits);
        assert!(report.noise_bits > 30.0, "noise {}", report.noise_bits);
    }

    #[test]
    fn wrong_length_plaintext_rejected() {
        let (params, _, enc, _, _) = setup();
        let pt = Plaintext::from_values(vec![1; params.degree() / 2]);
        let ctx = params.ciphertext_context().clone();
        assert!(enc.scaled_plaintext(&pt, &ctx).is_err());
    }
}
