//! Homomorphic operations: plaintext multiplication, rescale, key-switch,
//! and Galois automorphism.
//!
//! These are the per-stage computations of the CHAM pipeline:
//!
//! * stage 1–3 — [`mul_plain`]: NTT, coefficient-wise multiply, INTT,
//! * stage 4 — [`rescale`]: divide by the special modulus,
//! * stage 5–9 — monomial multiply / add / sub (on [`RlweCiphertext`]),
//!   [`apply_galois`] (AUTOMORPHISM + KEYSWITCH).

use crate::ciphertext::RlweCiphertext;
use crate::encoding::Plaintext;
use crate::keys::{GaloisKeys, KeySwitchKey};
use crate::params::ChamParams;
use crate::scratch::{DotScratch, ScratchPool};
use crate::{HeError, Result};
use cham_math::rns::{Form, RnsContext, RnsPoly};
use cham_math::simd::{digit_product, DIGIT_PRODUCT_MAX_DIGITS};
use cham_math::Modulus;
use std::borrow::Cow;

/// `p` in coefficient form: borrowed when it already is, one clone and
/// inverse transform otherwise.
pub(crate) fn in_coeff_form(p: &RnsPoly) -> Cow<'_, RnsPoly> {
    match p.form() {
        Form::Coeff => Cow::Borrowed(p),
        Form::Ntt => {
            let mut c = p.clone();
            c.to_coeff();
            Cow::Owned(c)
        }
    }
}

/// Lifts a plaintext into an RNS basis with **centred** coefficients (so
/// multiplication noise scales with `t/2`, not `t`), returning it in NTT
/// form ready for coefficient-wise multiplication.
///
/// # Errors
/// [`HeError::ShapeMismatch`] on length mismatch.
pub fn lift_plaintext_ntt(
    pt: &Plaintext,
    params: &ChamParams,
    ctx: &RnsContext,
) -> Result<RnsPoly> {
    if pt.len() != ctx.degree() {
        return Err(HeError::ShapeMismatch {
            expected: ctx.degree(),
            got: pt.len(),
        });
    }
    let t = params.plain_modulus();
    let signed: Vec<i64> = pt.values().iter().map(|&v| t.center(t.reduce(v))).collect();
    let mut p = RnsPoly::from_signed(ctx, &signed)?;
    p.to_ntt();
    Ok(p)
}

/// Plaintext–ciphertext multiplication: `ct' = pt ⊙ ct` (the DOTPRODUCT
/// stage when `pt` encodes a matrix row per Eq. 1).
///
/// Accepts the ciphertext in either form; returns it in coefficient form
/// (the pipeline's INTT stage output).
///
/// # Errors
/// Shape/context mismatches from the RNS layer.
pub fn mul_plain(
    ct: &RlweCiphertext,
    pt: &Plaintext,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.mul_plain", 1);
    let ctx = ct.b().context().clone();
    let pt_ntt = lift_plaintext_ntt(pt, params, &ctx)?;
    let mut b = ct.b().clone();
    let mut a = ct.a().clone();
    b.to_ntt();
    a.to_ntt();
    b.mul_pointwise_assign(&pt_ntt)?;
    a.mul_pointwise_assign(&pt_ntt)?;
    b.to_coeff();
    a.to_coeff();
    RlweCiphertext::new(b, a)
}

/// Same as [`mul_plain`] but with a pre-lifted NTT-form plaintext — the
/// production path where matrix rows are transformed once and reused
/// (CHAM streams matrix plaintexts from off-chip already in NTT form).
///
/// # Errors
/// Context mismatches from the RNS layer.
pub fn mul_plain_prepared(ct: &RlweCiphertext, pt_ntt: &RnsPoly) -> Result<RlweCiphertext> {
    if pt_ntt.form() != Form::Ntt {
        return Err(HeError::Incompatible(
            "prepared plaintext must be in NTT form",
        ));
    }
    let mut b = ct.b().clone();
    let mut a = ct.a().clone();
    b.to_ntt();
    a.to_ntt();
    b.mul_pointwise_assign(pt_ntt)?;
    a.mul_pointwise_assign(pt_ntt)?;
    b.to_coeff();
    a.to_coeff();
    RlweCiphertext::new(b, a)
}

/// Plaintext addition: `ct' = ct + Δ·pt` (noise unchanged). Used by the
/// HeteroLR protocol's `add_vec` step, where party B folds its own share
/// into A's encrypted activations.
///
/// # Errors
/// Shape mismatches from the RNS layer.
pub fn add_plain(
    ct: &RlweCiphertext,
    pt: &Plaintext,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    let ctx = ct.b().context().clone();
    if pt.len() != ctx.degree() {
        return Err(HeError::ShapeMismatch {
            expected: ctx.degree(),
            got: pt.len(),
        });
    }
    let t = params.plain_modulus();
    let delta = ctx.modulus_product() / t.value() as u128;
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
    let mut scaled = RnsPoly::from_limbs(&ctx, limbs, Form::Coeff)?;
    if ct.form() == Form::Ntt {
        scaled.to_ntt();
    }
    // Fold `b` into the freshly built Δ·pt in place — one allocation for
    // the sum instead of a second from `add`.
    scaled.add_assign(ct.b())?;
    RlweCiphertext::new(scaled, ct.a().clone())
}

/// Small-scalar multiplication: `ct' = c·ct`, multiplying the plaintext by
/// the *centred* representative of `c mod t` (noise scales with `|c|`, so
/// keep `c` small).
pub fn mul_plain_scalar(ct: &RlweCiphertext, c: u64, params: &ChamParams) -> RlweCiphertext {
    let t = params.plain_modulus();
    let centred = t.center(t.reduce(c));
    let ctx = ct.b().context();
    let apply = |p: &RnsPoly| {
        let limbs = p
            .limbs()
            .iter()
            .zip(ctx.moduli())
            .map(|(l, m)| l.mul_scalar(m.from_signed(centred), m))
            .collect();
        RnsPoly::from_limbs(ctx, limbs, p.form()).expect("limbs match context")
    };
    RlweCiphertext::new(apply(ct.b()), apply(ct.a())).expect("components consistent")
}

/// RESCALE (pipeline stage-4): divide an augmented-basis ciphertext by the
/// special modulus `p`, producing a normal-basis ciphertext and shrinking
/// the multiplication noise by `≈ log2 p` bits.
///
/// # Errors
/// [`HeError::Incompatible`] when the ciphertext is not in the augmented
/// basis of `params`.
pub fn rescale(ct: &RlweCiphertext, params: &ChamParams) -> Result<RlweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.rescale", 1);
    if ct.b().context() != params.augmented_context() {
        return Err(HeError::Incompatible(
            "rescale expects an augmented-basis ciphertext",
        ));
    }
    let target = params.ciphertext_context();
    let (b, a) = (in_coeff_form(ct.b()), in_coeff_form(ct.a()));
    RlweCiphertext::new(b.rescale_by_last(target)?, a.rescale_by_last(target)?)
}

/// MODSWITCH: drops the last remaining auxiliary prime of a *normal-basis*
/// ciphertext, producing a single-limb ciphertext over `q0` — the
/// communication optimisation for result ciphertexts (§IV-B lists
/// MODSWITCH among the PPU functions): the returned ciphertext is half the
/// size and still decrypts, with scale `≈ q0/t`.
///
/// # Errors
/// [`HeError::Incompatible`] unless the input is in the normal basis of
/// `params`.
pub fn mod_switch_to_single(ct: &RlweCiphertext, params: &ChamParams) -> Result<RlweCiphertext> {
    cham_telemetry::counter_add!("cham_he.ops.mod_switch", 1);
    if ct.b().context() != params.ciphertext_context() {
        return Err(HeError::Incompatible(
            "mod_switch expects a normal-basis ciphertext",
        ));
    }
    let target = params.ciphertext_context().drop_last()?;
    let (b, a) = (in_coeff_form(ct.b()), in_coeff_form(ct.a()));
    RlweCiphertext::new(b.rescale_by_last(&target)?, a.rescale_by_last(&target)?)
}

/// `dst[σ_k(j)] ← put(±src[i])` for every coefficient: the `AUTOMORPH`
/// pass `X → X^k` (odd `k`) as a scatter, with the sign of each wrap past
/// `X^N = −1` applied in `q`. `src` may be stored rotated — `src[i]` holds
/// logical coefficient `j = (i + rot) mod N` — which is how
/// [`monomial_butterfly`] leaves its difference.
fn automorph_scatter(
    src: &[u64],
    dst: &mut [u64],
    k: usize,
    rot: usize,
    q: &Modulus,
    put: impl Fn(&mut u64, u64),
) {
    let n = src.len();
    let mask = n - 1;
    for (i, &v) in src.iter().enumerate() {
        let jk = ((i + rot) & mask) * k;
        // (−1)^{⌊jk/N⌋}: bit log2(N) of jk.
        let v = if jk & n != 0 { q.neg(v) } else { v };
        put(&mut dst[jk & mask], v);
    }
}

/// Lines 1–3 of Alg. 2 in one in-place pass over a limb:
/// `even ← even + X^g·odd` and `odd[i] ← (even − X^g·odd)[(i + g) mod N]`.
/// The difference is left rotated by `g` so that no coefficient is read
/// after it has been overwritten; [`automorph_scatter`] undoes the
/// rotation for free.
pub(crate) fn monomial_butterfly(even: &mut [u64], odd: &mut [u64], g: usize, q: &Modulus) {
    let n = even.len();
    let (even_wrapped, even_shifted) = even.split_at_mut(g);
    let (odd_shifted, odd_wrapped) = odd.split_at_mut(n - g);
    for (e, o) in even_shifted.iter_mut().zip(odd_shifted) {
        (*e, *o) = (q.add(*e, *o), q.sub(*e, *o));
    }
    // Coefficients shifted past X^N come back negated: the term is −odd[i].
    for (e, o) in even_wrapped.iter_mut().zip(odd_wrapped) {
        (*e, *o) = (q.sub(*e, *o), q.add(*e, *o));
    }
}

/// `dst[j] ← src[j] mod to` for residues `src[j] < from` — re-embedding a
/// digit into another limb. The reduction is a per-pair decision made
/// outside the loop: a copy when `from ≤ to`, one compare-subtract when
/// `from < 2·to` (every pair of the CHAM chain), Barrett otherwise.
fn re_embed(src: &[u64], dst: &mut [u64], from: &Modulus, to: &Modulus) {
    let q = to.value();
    if from.value() <= q {
        dst.copy_from_slice(src);
    } else if from.value() < 2 * q {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = if v >= q { v - q } else { v };
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = to.reduce(v);
        }
    }
}

/// Writes the key-switch digits of `σ_k(a)` into `words` in coefficient
/// form: digit `d` is limb `d` of the automorphed polynomial — integers
/// below `q_d` — in every limb of `aug` (`len·N` words per digit,
/// limb-major). `k = 1, rot = 0` is the plain decomposition.
///
/// One scatter per digit, into the digit's own limb (`aug`'s limb `d` is
/// `q_d`, so it needs no reduction); the other limbs are sequential
/// re-embeddings of that one.
fn write_digits(a: &RnsPoly, k: usize, rot: usize, aug: &RnsContext, words: &mut [u64]) {
    let n = aug.degree();
    let lanes = aug.len() * n;
    let digits = a.limbs().iter().zip(a.context().moduli());
    for (d, (limb, from)) in digits.enumerate() {
        let (before, rest) = words[d * lanes..(d + 1) * lanes].split_at_mut(d * n);
        let (own, after) = rest.split_at_mut(n);
        automorph_scatter(limb.coeffs(), own, k, rot, from, |slot, v| *slot = v);
        let others = before.chunks_exact_mut(n).chain(after.chunks_exact_mut(n));
        let moduli = aug.moduli()[..d].iter().chain(&aug.moduli()[d + 1..]);
        for (dst, to) in others.zip(moduli) {
            re_embed(own, dst, from, to);
        }
    }
}

/// Limb `l` of each key polynomial, in digit order (unused slots empty).
fn key_limbs(polys: &[RnsPoly], l: usize) -> [&[u64]; DIGIT_PRODUCT_MAX_DIGITS] {
    let mut limbs: [&[u64]; DIGIT_PRODUCT_MAX_DIGITS] = Default::default();
    for (slot, poly) in limbs.iter_mut().zip(polys) {
        *slot = poly.limbs()[l].coeffs();
    }
    limbs
}

/// The KEYSWITCH functional unit on scratch: RNS digit decomposition of
/// `σ_k(a)`, forward transforms, the digit product against the KSK, inverse
/// transforms. On return `s.words[..lanes]` and `s.words[lanes..2·lanes]`
/// hold the `(b, a)` correction pair over the augmented basis in
/// coefficient form — one [`rescale_lanes_into`] / [`rescale_lanes_add`]
/// away from the normal basis.
///
/// The digit sums have no accumulator: a sum of `digits` products per
/// coefficient is formed and reduced in one pass per limb
/// ([`cham_math::simd::digit_product`], on the limb's table backend) and
/// written over the digits it consumed.
///
/// Everything runs on the calling thread: callers are already one task of
/// a parallel region (a pack subtree, a batch member), and a nested
/// dispatch of 2–3 limb transforms costs more than it buys.
fn keyswitch_to_scratch(
    a: &RnsPoly,
    k: usize,
    rot: usize,
    ksk: &KeySwitchKey,
    params: &ChamParams,
    s: &mut DotScratch,
) -> Result<()> {
    cham_telemetry::counter_add!("cham_he.ops.keyswitch", 1);
    cham_telemetry::time_scope!("cham_he.ops.keyswitch");
    let aug = params.augmented_context();
    let n = aug.degree();
    let lanes = aug.len() * n;
    let digits = a.context().len();
    if a.form() != Form::Coeff || a.context().degree() != n {
        return Err(HeError::Incompatible(
            "key-switch expects a coefficient-form mask of the ring degree",
        ));
    }
    if digits != ksk.digit_count()
        || digits + 1 != aug.len()
        || digits > DIGIT_PRODUCT_MAX_DIGITS
        || a.context().moduli() != &aug.moduli()[..digits]
    {
        return Err(HeError::Incompatible(
            "mask basis or digit count does not match the key-switch key",
        ));
    }
    let words = &mut s.words;
    write_digits(a, k, rot, aug, words);
    let transform = |words: &mut [u64], f: fn(&cham_math::NttTable, &mut [u64])| {
        for (limb, table) in words.chunks_exact_mut(n).zip(aug.tables().iter().cycle()) {
            f(table, limb);
        }
    };
    transform(&mut words[..digits * lanes], cham_math::NttTable::forward);
    for (l, table) in aug.tables().iter().enumerate() {
        let (kb, ka) = (key_limbs(&ksk.b, l), key_limbs(&ksk.a, l));
        digit_product(
            table.backend(),
            &mut words[l * n..],
            lanes,
            &kb[..digits],
            &ka[..digits],
            table.modulus(),
        );
    }
    transform(&mut words[..2 * lanes], cham_math::NttTable::inverse);
    Ok(())
}

/// RESCALE of the augmented-basis polynomial at `words[at..at + lanes]`
/// (coefficient form, limb-major) straight into the limbs of the
/// normal-basis `dst`.
pub(crate) fn rescale_lanes_into(aug: &RnsContext, words: &[u64], at: usize, dst: &mut RnsPoly) {
    let n = aug.degree();
    let src = &words[at..at + aug.len() * n];
    let last = &src[(aug.len() - 1) * n..];
    for (i, limb) in dst.limbs_mut().iter_mut().enumerate() {
        aug.rescale_limb_into(i, &src[i * n..(i + 1) * n], last, limb.coeffs_mut());
    }
}

/// [`rescale_lanes_into`] that adds the rescaled polynomial to what `dst`
/// already holds.
fn rescale_lanes_add(aug: &RnsContext, words: &[u64], at: usize, dst: &mut RnsPoly) {
    let n = aug.degree();
    let src = &words[at..at + aug.len() * n];
    let last = &src[(aug.len() - 1) * n..];
    for (i, limb) in dst.limbs_mut().iter_mut().enumerate() {
        aug.rescale_limb_add(i, &src[i * n..(i + 1) * n], last, limb.coeffs_mut());
    }
}

/// Key-switches the mask `a` (currently keyed to some `s_old`) to the
/// owner's key, returning the correction pair `(b_ks, a_ks)` over the
/// normal basis such that `b_ks + a_ks·s ≈ a·s_old`.
///
/// This is the KEYSWITCH functional unit: RNS digit decomposition, one
/// NTT-domain multiply-accumulate per digit against the KSK, then a rescale
/// by `p`.
///
/// # Errors
/// Context mismatches from the RNS layer.
pub fn keyswitch_mask(
    a: &RnsPoly,
    ksk: &KeySwitchKey,
    params: &ChamParams,
) -> Result<(RnsPoly, RnsPoly)> {
    let aug = params.augmented_context();
    let target = params.ciphertext_context();
    let lanes = aug.len() * aug.degree();
    let a = in_coeff_form(a);
    ScratchPool::global().with(aug, |s| {
        keyswitch_to_scratch(&a, 1, 0, ksk, params, s)?;
        let (mut ks_b, mut ks_a) = (RnsPoly::zero(target), RnsPoly::zero(target));
        rescale_lanes_into(aug, &s.words, 0, &mut ks_b);
        rescale_lanes_into(aug, &s.words, lanes, &mut ks_a);
        Ok((ks_b, ks_a))
    })
}

/// AUTOMORPHISM + KEYSWITCH folded into an accumulator (Alg. 2 lines
/// 4–6): `acc ← acc + KS_k(σ_k((b, a)))`, all in place. `(b, a)` may be
/// stored rotated by `rot` (see [`monomial_butterfly`]); everything is
/// normal-basis, coefficient form.
#[allow(clippy::too_many_arguments)]
pub(crate) fn add_galois_of(
    acc: &mut RlweCiphertext,
    b: &RnsPoly,
    a: &RnsPoly,
    rot: usize,
    k: usize,
    ksk: &KeySwitchKey,
    params: &ChamParams,
    s: &mut DotScratch,
) -> Result<()> {
    cham_telemetry::counter_add!("cham_he.ops.apply_galois", 1);
    let aug = params.augmented_context();
    let lanes = aug.len() * aug.degree();
    keyswitch_to_scratch(a, k, rot, ksk, params, s)?;
    let moduli = b.context().moduli();
    for ((dst, src), q) in acc.b.limbs_mut().iter_mut().zip(b.limbs()).zip(moduli) {
        automorph_scatter(src.coeffs(), dst.coeffs_mut(), k, rot, q, |slot, v| {
            *slot = q.add(*slot, v);
        });
    }
    rescale_lanes_add(aug, &s.words, 0, &mut acc.b);
    rescale_lanes_add(aug, &s.words, lanes, &mut acc.a);
    Ok(())
}

/// AUTOMORPHISM + KEYSWITCH (Alg. 2 lines 4–5): applies the Galois map
/// `X → X^k` to a normal-basis ciphertext and switches the result back to
/// the original key using the Galois key set.
///
/// # Errors
/// [`HeError::MissingGaloisKey`] when no key for `k` is stored;
/// [`HeError::Incompatible`] for an augmented-basis input.
pub fn apply_galois(
    ct: &RlweCiphertext,
    k: usize,
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    if ct.b().context() != params.ciphertext_context() {
        return Err(HeError::Incompatible(
            "apply_galois expects a normal-basis ciphertext",
        ));
    }
    let ksk = gkeys.get(k)?;
    if k.is_multiple_of(2) {
        return Err(
            cham_math::MathError::InvalidParameter("automorphism index must be odd").into(),
        );
    }
    let (b, a) = (in_coeff_form(ct.b()), in_coeff_form(ct.a()));
    let mut acc = ct.zero_like();
    ScratchPool::global().with(params.augmented_context(), |s| {
        add_galois_of(&mut acc, &b, &a, 0, k, ksk, params, s)
    })?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::SecretKey;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn setup() -> (
        ChamParams,
        SecretKey,
        Encryptor,
        Decryptor,
        CoeffEncoder,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        (params, sk, enc, dec, coder, rng)
    }

    #[test]
    fn mul_plain_dot_product_constant_coeff() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus();
        let n = params.degree();
        let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let ct_v = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
        let pt_row = coder.encode_row(&row).unwrap();
        let prod = mul_plain(&ct_v, &pt_row, &params).unwrap();
        let report = dec.decrypt_with_noise(&prod);
        let expect = row
            .iter()
            .zip(&v)
            .fold(0u64, |acc, (&x, &y)| t.add(acc, t.mul(x, y)));
        assert_eq!(report.plaintext.values()[0], expect);
        assert!(report.budget_bits > 0.0);
    }

    #[test]
    fn rescale_preserves_plaintext_and_shrinks_noise() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus();
        let n = params.degree();
        let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let ct_v = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
        let prod = mul_plain(&ct_v, &coder.encode_row(&row).unwrap(), &params).unwrap();
        let before = dec.decrypt_with_noise(&prod);
        let rescaled = rescale(&prod, &params).unwrap();
        let after = dec.decrypt_with_noise(&rescaled);
        assert_eq!(before.plaintext.values()[0], after.plaintext.values()[0]);
        assert!(
            after.noise_bits < before.noise_bits,
            "before {} after {}",
            before.noise_bits,
            after.noise_bits
        );
    }

    #[test]
    fn rescale_rejects_normal_basis() {
        let (params, _, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        assert!(rescale(&ct, &params).is_err());
    }

    #[test]
    fn keyswitch_identity_key_preserves_decryption() {
        // Switching from s to s itself must be (nearly) a no-op.
        let (params, sk, enc, dec, coder, mut rng) = setup();
        let pt = coder.encode_vector(&[42, 17, 65000]).unwrap();
        let ct = enc.encrypt(&pt, &mut rng);
        let ksk = KeySwitchKey::generate(&sk, sk.coeffs(), &mut rng).unwrap();
        let (ks_b, ks_a) = keyswitch_mask(ct.a(), &ksk, &params).unwrap();
        let new_ct = RlweCiphertext::new(ct.b().clone().add(&ks_b).unwrap(), ks_a).unwrap();
        let report = dec.decrypt_with_noise(&new_ct);
        assert_eq!(report.plaintext.values()[..3], [42, 17, 65000]);
        assert!(report.budget_bits > 20.0);
    }

    #[test]
    fn apply_galois_permutes_plaintext() {
        let (params, sk, enc, dec, coder, mut rng) = setup();
        let n = params.degree();
        let t = params.plain_modulus();
        let vals: Vec<u64> = (0..n as u64).map(|i| i % t.value()).collect();
        let pt = coder.encode_vector(&vals).unwrap();
        let ct = enc.encrypt(&pt, &mut rng);
        let k = 3usize;
        let gkeys = GaloisKeys::generate(&sk, &[k], &mut rng).unwrap();
        let rotated = apply_galois(&ct, k, &gkeys, &params).unwrap();
        let report = dec.decrypt_with_noise(&rotated);
        // Expected: σ_k applied to the plaintext polynomial over Z_t.
        let expect = cham_math::poly::Poly::from_coeffs(vals)
            .automorph(k, t)
            .unwrap();
        assert_eq!(report.plaintext.values(), expect.coeffs());
        assert!(report.budget_bits > 10.0, "budget {}", report.budget_bits);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn streaming_keyswitch_and_galois_match_the_oracle(seed in any::<u64>()) {
            let (params, sk, enc, _, coder, _) = setup();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let gkeys =
                GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
            let vals: Vec<u64> = (0..params.degree()).map(|_| rng.gen_range(0..65537)).collect();
            let ct = enc.encrypt(&coder.encode_vector(&vals).unwrap(), &mut rng);
            let mut ct_ntt = ct.clone();
            ct_ntt.to_ntt();
            for h in 1..=params.max_pack_log() {
                let k = (1usize << h) + 1;
                let ksk = gkeys.get(k).unwrap();
                let want = crate::oracle::keyswitch_mask(ct.a(), ksk, &params).unwrap();
                for a in [ct.a(), ct_ntt.a()] {
                    let got = keyswitch_mask(a, ksk, &params).unwrap();
                    prop_assert!(got == want, "keyswitch k={} form={:?}", k, a.form());
                }
                let want = crate::oracle::apply_galois(&ct, k, &gkeys, &params).unwrap();
                for c in [&ct, &ct_ntt] {
                    let got = apply_galois(c, k, &gkeys, &params).unwrap();
                    prop_assert!(got == want, "apply_galois k={} form={:?}", k, c.form());
                }
            }
        }
    }

    #[test]
    fn keyswitch_rejects_foreign_masks() {
        let (params, sk, enc, _, coder, mut rng) = setup();
        let ksk = KeySwitchKey::generate(&sk, sk.coeffs(), &mut rng).unwrap();
        // An augmented-basis mask has one digit too many for the key.
        let aug = enc.encrypt_augmented(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        assert!(matches!(
            keyswitch_mask(aug.a(), &ksk, &params),
            Err(HeError::Incompatible(_))
        ));
    }

    #[test]
    fn apply_galois_requires_key() {
        let (params, _, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        let gkeys = GaloisKeys::new();
        assert!(matches!(
            apply_galois(&ct, 3, &gkeys, &params),
            Err(HeError::MissingGaloisKey(3))
        ));
    }

    #[test]
    fn apply_galois_rejects_augmented() {
        let (params, sk, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt_augmented(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        let gkeys = GaloisKeys::generate(&sk, &[3], &mut rng).unwrap();
        assert!(apply_galois(&ct, 3, &gkeys, &params).is_err());
    }

    #[test]
    fn mod_switch_halves_size_and_preserves_plaintext() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let pt = coder.encode_vector(&[42, 65000, 7]).unwrap();
        let ct = enc.encrypt(&pt, &mut rng);
        let small = mod_switch_to_single(&ct, &params).unwrap();
        assert_eq!(small.b().context().len(), 1);
        let report = dec.decrypt_with_noise(&small);
        assert_eq!(&report.plaintext.values()[..3], &[42, 65000, 7]);
        assert!(report.budget_bits > 0.0, "budget {}", report.budget_bits);
        // Switching an augmented ciphertext is rejected.
        let aug = enc.encrypt_augmented(&pt, &mut rng);
        assert!(mod_switch_to_single(&aug, &params).is_err());
    }

    #[test]
    fn add_plain_and_scalar_mul() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus();
        let pt_a = coder.encode_vector(&[100, 65530]).unwrap();
        let pt_b = coder.encode_vector(&[7, 10]).unwrap();
        let ct = enc.encrypt_augmented(&pt_a, &mut rng);
        let sum = add_plain(&ct, &pt_b, &params).unwrap();
        let got = dec.decrypt(&sum);
        assert_eq!(got.values()[0], 107);
        assert_eq!(got.values()[1], t.add(65530, 10));
        // Scalar multiply by 3 and by t−1 (i.e. −1).
        let tripled = mul_plain_scalar(&ct, 3, &params);
        assert_eq!(dec.decrypt(&tripled).values()[0], 300);
        let negated = mul_plain_scalar(&ct, t.value() - 1, &params);
        assert_eq!(dec.decrypt(&negated).values()[0], t.value() - 100);
    }

    #[test]
    fn add_plain_works_in_ntt_form() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let mut ct = enc.encrypt_augmented(&coder.encode_vector(&[5]).unwrap(), &mut rng);
        ct.to_ntt();
        let sum = add_plain(&ct, &coder.encode_vector(&[6]).unwrap(), &params).unwrap();
        let mut sum = sum;
        sum.to_coeff();
        assert_eq!(dec.decrypt(&sum).values()[0], 11);
    }

    #[test]
    fn prepared_plaintext_matches_unprepared() {
        let (params, _, enc, dec, coder, mut rng) = setup();
        let t = params.plain_modulus().value();
        let n = params.degree();
        let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let ct = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
        let pt = coder.encode_row(&row).unwrap();
        let direct = mul_plain(&ct, &pt, &params).unwrap();
        let prepared = lift_plaintext_ntt(&pt, &params, params.augmented_context()).unwrap();
        let via_prepared = mul_plain_prepared(&ct, &prepared).unwrap();
        assert_eq!(
            dec.decrypt(&direct).values(),
            dec.decrypt(&via_prepared).values()
        );
    }
}
