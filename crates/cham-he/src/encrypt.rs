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
//! Both directions form `a·s` with the key's cached NTT-form `s` and its
//! Shoup companions: one lazy Shoup multiply per word and one normalize
//! pass per limb, no Barrett reduction.
//!
//! Decryption forms the phase `b + a·s` on one owned copy of `a`. An
//! NTT-form ciphertext (every fresh encryption) costs `L` inverse
//! transforms: `a⊙s + b` is formed in the NTT domain. A coefficient-form
//! one (every HMVP reply) costs `L` forward and `L` inverse transforms,
//! with `b` added after the inverse. Each coefficient of the phase is then
//! decoded exactly, in one pass and with nothing allocated per
//! coefficient:
//!
//! * Garner's lift to `v ∈ [0, Q)` from the CRT table the context built
//!   once ([`RnsPoly::crt_lift_coeff`]);
//! * the unsigned scale-and-round `m = ⌊(v·t + ⌊Q/2⌋)/Q⌋ mod t`, by a
//!   reciprocal estimate and one correction.
//!
//! The unsigned rounding equals the centred, round-half-away-from-zero
//! rounding of `[v]_Q·t/Q`. `Q` is odd, so `2vt = (2k+1)Q` has no
//! solution: no value is a tie and every rounding rule agrees. The two
//! quotients differ by `t` exactly when `v` centres negative, which
//! vanishes mod `t`.
//!
//! The noise meter is the same pass: `e·t = v·t − m̃·Q`, centred (`m̃` the
//! unreduced quotient), is the remainder minus `⌊Q/2⌋`, and the meter
//! keeps its largest magnitude. This is how the repository checks the
//! paper's "30 bit before rescale, 26 bit after" claim quantitatively (see
//! `tests/` and EXPERIMENTS.md).

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
        a.to_ntt();
        let mut b = self.scaled_plaintext(pt, ctx)?;
        b.add_assign(&e)?;
        b.to_ntt();
        let mut a_s = a.clone();
        self.sk.ntt_for(ctx).mul_assign(&mut a_s);
        b.sub_assign(&a_s)?;
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

/// BFV's scale-and-round on a lift `v ∈ [0, Q)`, exact for an odd `Q`:
/// `m = ⌊(v·t + ⌊Q/2⌋)/Q⌋ mod t`, plus the scaled noise `|e·t|`.
///
/// The division is a reciprocal estimate and one correction. With
/// `x = v·t + ⌊Q/2⌋ < Q·(t + 1/2)`, `2^s < Q < 2^{s+1}` and
/// `R = ⌊2^{s+64}/Q⌋ < 2^64`, let `y = ⌊x/2^{s−1}⌋ < 4t + 2` and
/// `q̂ = ⌊y·R/2^65⌋`. Then `q̂ ≤ x/Q`, and `x/Q − y·R/2^65` is below
/// `2^{s−1}/Q + y/2^65 < 1/2 + 1/2`, so `q̂` is `⌊x/Q⌋` or one short:
/// `r = x − q̂·Q` lies in `[0, 2Q)` and one conditional subtraction ends
/// it. The quotient is exact. Why it equals the centred rounding is in
/// the module docs.
#[derive(Debug, Clone, Copy)]
struct ScaleRound {
    q: u128,
    half: u128,
    t: u64,
    shift: u32,
    recip: u64,
}

impl ScaleRound {
    /// # Panics
    /// Panics if `Q` is even (the rounding could tie) or if
    /// `(Q − 1)·t + ⌊Q/2⌋` does not fit in `u128`.
    fn new(ctx: &RnsContext, t: u64) -> Self {
        let (q, half) = (ctx.modulus_product(), ctx.half_modulus());
        assert!(q & 1 == 1, "decryption needs an odd modulus product");
        assert!(
            (q - 1)
                .checked_mul(t as u128)
                .and_then(|x| x.checked_add(half))
                .is_some(),
            "(Q − 1)·t + ⌊Q/2⌋ must fit in u128"
        );
        // `R = ⌊2^{s+64}/Q⌋` by long division from `2^s < Q`; `Q < 2^127`
        // (as `Q·t` fits and `t ≥ 3`), so `2·rem` never overflows.
        let s = 127 - q.leading_zeros();
        let (mut rem, mut recip) = (1u128 << s, 0u64);
        for _ in 0..64 {
            rem <<= 1;
            let bit = rem >= q;
            if bit {
                rem -= q;
            }
            recip = recip << 1 | bit as u64;
        }
        Self {
            q,
            half,
            t,
            shift: s - 1,
            recip,
        }
    }

    /// `(m, |e·t|)` for the lift `v`: the plaintext digit and the scaled
    /// noise `|v·t − m̃·Q|`, `m̃` the unreduced quotient.
    #[inline]
    fn apply(&self, v: u128) -> (u64, u128) {
        let x = v * self.t as u128 + self.half;
        let y = (x >> self.shift) as u64;
        let quot = ((y as u128 * self.recip as u128) >> 65) as u64;
        let r = x - quot as u128 * self.q;
        let (r, quot) = match r.checked_sub(self.q) {
            Some(r) => (r, quot + 1),
            None => (r, quot),
        };
        // `quot ≤ t`, and `t` is the centred quotient 0 of a lift just
        // below `Q`.
        let m = if quot == self.t { 0 } else { quot };
        (m, r.abs_diff(self.half))
    }
}

impl Decryptor {
    /// Creates a decryptor bound to a secret key.
    pub fn new(params: &ChamParams, sk: &SecretKey) -> Self {
        Self {
            params: params.clone(),
            sk: sk.clone(),
        }
    }

    /// `b + a·s` in coefficient form, formed on one owned copy of `a`:
    /// a coefficient-form ciphertext costs `L` forward and `L` inverse
    /// transforms (`b` is added after the inverse), an NTT-form one only
    /// the `L` inverse transforms (`b` is added before it).
    fn phase(&self, ct: &RlweCiphertext) -> RnsPoly {
        let form = ct.form();
        let mut phase = ct.a().clone();
        phase.to_ntt();
        self.sk.ntt_for(ct.b().context()).mul_assign(&mut phase);
        if form == Form::Ntt {
            phase.add_assign(ct.b()).expect("context consistency");
        }
        phase.to_coeff();
        if form == Form::Coeff {
            phase.add_assign(ct.b()).expect("context consistency");
        }
        phase
    }

    /// The decryption kernel: each coefficient of the phase is lifted by
    /// Garner from the context's CRT table and scale-and-rounded
    /// ([`ScaleRound`]); `noise` sees each coefficient's index and `|e·t|`.
    fn decode(&self, ct: &RlweCiphertext, mut noise: impl FnMut(usize, u128)) -> Plaintext {
        let phase = self.phase(ct);
        let round = ScaleRound::new(phase.context(), self.params.plain_modulus().value());
        let values = (0..phase.context().degree())
            .map(|j| {
                let (m, e_t) = round.apply(phase.crt_lift_coeff(j));
                noise(j, e_t);
                m
            })
            .collect();
        Plaintext::from_values(values)
    }

    /// Decrypts a ciphertext in either basis and either form.
    pub fn decrypt(&self, ct: &RlweCiphertext) -> Plaintext {
        self.decode(ct, |_, _| {})
    }

    /// Decrypts and reports the exact invariant noise, over every
    /// coefficient.
    pub fn decrypt_with_noise(&self, ct: &RlweCiphertext) -> NoiseReport {
        self.decrypt_with_noise_at(ct, |_| true)
    }

    /// [`Decryptor::decrypt_with_noise`] whose meter reads only the
    /// coefficients `j` with `slot(j)`: a partial pack's payload slots,
    /// whose neighbours hold the leaves' garbage.
    pub(crate) fn decrypt_with_noise_at(
        &self,
        ct: &RlweCiphertext,
        slot: impl Fn(usize) -> bool,
    ) -> NoiseReport {
        let mut max_noise = 0u128;
        let plaintext = self.decode(ct, |j, e_t| {
            if slot(j) {
                max_noise = max_noise.max(e_t);
            }
        });
        let q = ct.b().context().modulus_product();
        let t = self.params.plain_modulus().value();
        // noise_bits = log2(max |e|) where |e| = max_noise / t.
        let noise_bits = if max_noise == 0 {
            0.0
        } else {
            (max_noise as f64).log2() - (t as f64).log2()
        };
        let capacity_bits = (q as f64).log2() - 1.0 - (t as f64).log2();
        let budget_bits = capacity_bits - noise_bits.max(0.0);
        NoiseReport {
            plaintext,
            noise_bits,
            budget_bits,
        }
    }

    /// Decrypts a single LWE ciphertext: `phase = b + ⟨â, s⟩`, decoded to
    /// one value mod `t`.
    pub fn decrypt_lwe(&self, lwe: &LweCiphertext) -> u64 {
        let ctx = lwe.a().context();
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
        let round = ScaleRound::new(ctx, self.params.plain_modulus().value());
        round.apply(ctx.crt_lift(&residues)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use cham_math::modulus::Modulus;
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

    /// The kernel (`crt_lift_coeff` from the context's table, then
    /// `ScaleRound`) equals the oracle's per-call lift and centred `i128`
    /// rounding on every coefficient: uniform ciphertexts (phases that
    /// reach every residue), real encryptions, an HMVP reply, and lifts
    /// placed by hand at the ends of `[0, Q)` and around the rounding
    /// boundaries `(2k+1)Q/2t` — among them the largest `v` that still
    /// rounds down, `v·t ≡ ⌊Q/2⌋ (mod Q)`, where `⌈Q/2⌉` would round up.
    #[test]
    fn decrypt_kernel_is_bit_exact_against_the_oracle() {
        use crate::hmvp::{Hmvp, Matrix};
        use crate::keys::GaloisKeys;
        use crate::oracle;

        for params in [
            ChamParams::insecure_test_default().unwrap(),
            ChamParams::cham_default().unwrap(),
        ] {
            let n = params.degree();
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let sk = SecretKey::generate(&params, &mut rng);
            let (enc, dec) = (Encryptor::new(&params, &sk), Decryptor::new(&params, &sk));
            let t = params.plain_modulus().value();
            let coder = CoeffEncoder::new(&params);
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
            let pt = coder.encode_vector(&values).unwrap();

            let mut cts = Vec::new();
            for ctx in [params.ciphertext_context(), params.augmented_context()] {
                let uniform = RlweCiphertext::new(
                    uniform_rns_poly(ctx, &mut rng),
                    uniform_rns_poly(ctx, &mut rng),
                )
                .unwrap();
                let fresh = if ctx == params.augmented_context() {
                    enc.encrypt_augmented(&pt, &mut rng)
                } else {
                    enc.encrypt(&pt, &mut rng)
                };
                for mut ct in [uniform, fresh] {
                    cts.push(ct.clone());
                    if ct.form() == Form::Ntt {
                        ct.to_coeff();
                    } else {
                        ct.to_ntt();
                    }
                    cts.push(ct);
                }

                // Hand-built lifts: `b` holds them, `a = 0`, so the phase
                // is `b`.
                let q = ctx.modulus_product();
                let h = q / 2;
                let tq = t as u128;
                let mut lifts = vec![0, 1, h, h + 1, q - 1];
                // `k0` is the `k` with `(2k0+1)·Q ≡ 1 (mod 2t)`: there
                // `⌈(2k0+1)Q/2t⌉ − 1` is the `v` with `v·t ≡ ⌊Q/2⌋`.
                let two_t = Modulus::new(2 * t).unwrap();
                let q_inv = two_t.inv((q % (2 * tq)) as u64).unwrap();
                let k0 = u128::from((q_inv - 1) / 2);
                for k in [0, 1, 2, tq / 3, tq / 2, tq - 2, tq - 1, k0] {
                    let edge = ((2 * k + 1) * q).div_ceil(2 * tq);
                    lifts.extend([edge - 1, edge, edge + 1]);
                }
                assert!(lifts.iter().any(|&v| (v * tq) % q == h), "no v·t ≡ ⌊Q/2⌋");
                lifts.resize(n, 0);
                let limbs = ctx
                    .moduli()
                    .iter()
                    .map(|m| {
                        cham_math::poly::Poly::from_coeffs(
                            lifts
                                .iter()
                                .map(|&v| (v % m.value() as u128) as u64)
                                .collect(),
                        )
                    })
                    .collect();
                let b = RnsPoly::from_limbs(ctx, limbs, Form::Coeff).unwrap();
                cts.push(RlweCiphertext::new(b, RnsPoly::zero(ctx)).unwrap());
            }

            // An HMVP reply: two rows pack with one key-switch.
            let hmvp = Hmvp::new(&params);
            let gkeys = GaloisKeys::generate_for_packing(&sk, 1, &mut rng).unwrap();
            let a = Matrix::random(2, n, t, &mut rng);
            let em = hmvp.encode_matrix(&a).unwrap();
            let input = hmvp.encrypt_vector(&values, &enc, &mut rng).unwrap();
            let reply = hmvp.multiply(&em, &input, &gkeys).unwrap();
            cts.push(reply.packed[0].ciphertext.clone());

            for (i, ct) in cts.iter().enumerate() {
                let want = oracle::decrypt_with_noise(&params, &sk, ct);
                let case = format!(
                    "n={n} case {i} ({} limbs, {:?})",
                    ct.b().context().len(),
                    ct.form()
                );
                assert_eq!(dec.decrypt(ct).values(), want.plaintext.values(), "{case}");
                let got = dec.decrypt_with_noise(ct);
                assert_eq!(got.plaintext.values(), want.plaintext.values(), "{case}");
                assert_eq!(
                    got.noise_bits.to_bits(),
                    want.noise_bits.to_bits(),
                    "{case}"
                );
                assert_eq!(
                    got.budget_bits.to_bits(),
                    want.budget_bits.to_bits(),
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn wrong_length_plaintext_rejected() {
        let (params, _, enc, _, _) = setup();
        let pt = Plaintext::from_values(vec![1; params.degree() / 2]);
        let ctx = params.ciphertext_context().clone();
        assert!(enc.scaled_plaintext(&pt, &ctx).is_err());
    }
}
