//! Test oracles: the HMVP back half as it was first written — one
//! allocating `RnsPoly` operation per line of Alg. 2/3, a strict rescale,
//! a level-by-level pack — and decryption as it was first written (a
//! per-call Garner lift, centred `i128` rounding), kept only so the
//! streaming implementations in [`crate::ops`], [`crate::pack`],
//! [`crate::hmvp`] and [`crate::encrypt`] have something independent to
//! be bit-compared against. Nothing here shares a kernel with the code
//! under test beyond the NTT, Barrett arithmetic and the element-wise
//! `RnsPoly` operations.

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::encoding::Plaintext;
use crate::encrypt::NoiseReport;
use crate::extract::lwe_to_rlwe;
use crate::keys::{GaloisKeys, KeySwitchKey, SecretKey};
use crate::pack::PackedRlwe;
use crate::params::ChamParams;
use crate::Result;
use cham_math::rns::{RnsContext, RnsPoly};

/// KEYSWITCH by the book: `decompose_digits`, one strict pointwise
/// multiply and add per digit, inverse transform, strict rescale.
pub(crate) fn keyswitch_mask(
    a: &RnsPoly,
    ksk: &KeySwitchKey,
    params: &ChamParams,
) -> Result<(RnsPoly, RnsPoly)> {
    let aug = params.augmented_context();
    let target = params.ciphertext_context();
    let mut a = a.clone();
    a.to_coeff();
    let mut sum: Option<(RnsPoly, RnsPoly)> = None;
    for (i, mut digit) in a.decompose_digits(aug)?.into_iter().enumerate() {
        digit.to_ntt();
        let (tb, ta) = (
            digit.mul_pointwise(&ksk.b[i])?,
            digit.mul_pointwise(&ksk.a[i])?,
        );
        sum = Some(match sum {
            Some((b, a)) => (b.add(&tb)?, a.add(&ta)?),
            None => (tb, ta),
        });
    }
    let (mut b, mut a) = sum.expect("at least one digit");
    b.to_coeff();
    a.to_coeff();
    Ok((
        b.rescale_by_last_strict(target)?,
        a.rescale_by_last_strict(target)?,
    ))
}

/// AUTOMORPHISM + KEYSWITCH (Alg. 2 lines 4–5).
pub(crate) fn apply_galois(
    ct: &RlweCiphertext,
    k: usize,
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    let mut c = ct.clone();
    c.to_coeff();
    let (ks_b, ks_a) = keyswitch_mask(&c.a().automorph(k)?, gkeys.get(k)?, params)?;
    RlweCiphertext::new(c.b().automorph(k)?.add(&ks_b)?, ks_a)
}

/// `PACKTWOLWES`, one allocating ciphertext operation per line of Alg. 2.
pub(crate) fn pack_two(
    h: u32,
    even: &RlweCiphertext,
    odd: &RlweCiphertext,
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    let ct_mono = odd.mul_monomial(params.degree() >> h)?; // line 1
    let ct_plus = even.add(&ct_mono)?; // line 2
    let ct_minus = even.sub(&ct_mono)?; // line 3
    let ct_auto = apply_galois(&ct_minus, (1usize << h) + 1, gkeys, params)?; // lines 4–5
    ct_plus.add(&ct_auto)
}

/// `PACKLWES` level by level: every leaf materialised, bit-reversed into
/// place, then one whole tree level reduced at a time.
pub(crate) fn pack_lwes_level_order(
    lwes: &[LweCiphertext],
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<PackedRlwe> {
    let count = lwes.len();
    let padded = count.next_power_of_two();
    let log = padded.trailing_zeros();
    let zero = lwe_to_rlwe(&lwes[0]).zero_like();
    let mut level = vec![zero; padded];
    for (i, lwe) in lwes.iter().enumerate() {
        level[cham_math::bit_reverse(i, log)] = lwe_to_rlwe(lwe);
    }
    let mut h = 1u32;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| pack_two(h, &pair[0], &pair[1], gkeys, params))
            .collect::<Result<Vec<_>>>()?;
        h += 1;
    }
    Ok(PackedRlwe {
        ciphertext: level.pop().expect("one ciphertext remains"),
        log_count: log,
        count,
    })
}

/// Garner's lift with every constant derived per call: the running
/// product's inverse and each earlier digit's weight mod `q_i`.
fn crt_lift(ctx: &RnsContext, residues: &[u64]) -> u128 {
    let moduli = ctx.moduli();
    let mut result: u128 = 0;
    let mut radix: u128 = 1;
    let mut vs = Vec::with_capacity(moduli.len());
    for (i, m) in moduli.iter().enumerate() {
        let mut prod_mod = 1u64;
        let mut partial = 0u64;
        for (j, &vj) in vs.iter().enumerate() {
            partial = m.add(partial, m.mul(prod_mod, vj));
            prod_mod = m.mul(prod_mod, moduli[j].value() % m.value());
        }
        let t = m.sub(residues[i], partial);
        let inv = m.inv(prod_mod).expect("moduli are pairwise coprime");
        let v = m.mul(t, inv);
        vs.push(v);
        result += radix * v as u128;
        radix = radix.saturating_mul(m.value() as u128);
    }
    result
}

/// Decryption by the book: `b + a·s` from cloned operands, then per
/// coefficient a residue vector, the centred lift and round-half-away
/// `i128` division.
pub(crate) fn decrypt_with_noise(
    params: &ChamParams,
    sk: &SecretKey,
    ct: &RlweCiphertext,
) -> NoiseReport {
    let ctx = ct.b().context().clone();
    let mut s = RnsPoly::from_signed(&ctx, sk.coeffs()).expect("same degree");
    s.to_ntt();
    let mut a = ct.a().clone();
    a.to_ntt();
    let mut a_s = a.mul_pointwise(&s).expect("context consistency");
    a_s.to_coeff();
    let mut b = ct.b().clone();
    b.to_coeff();
    let phase = b.add(&a_s).expect("context consistency");

    let q = ctx.modulus_product();
    let t = params.plain_modulus().value() as u128;
    let mut values = Vec::with_capacity(ctx.degree());
    let mut max_noise: i128 = 0;
    for j in 0..ctx.degree() {
        let residues: Vec<u64> = (0..ctx.len())
            .map(|i| phase.limbs()[i].coeffs()[j])
            .collect();
        let v = crt_lift(&ctx, &residues);
        let v = if v > q / 2 {
            v as i128 - q as i128
        } else {
            v as i128
        };
        // m = round(v * t / q) mod t
        let num = v * t as i128;
        let half = (q / 2) as i128;
        let m = if num >= 0 {
            (num + half) / q as i128
        } else {
            (num - half) / q as i128
        };
        values.push(m.rem_euclid(t as i128) as u64);
        // Scaled noise: v*t − m*q == e*t (exact integers).
        max_noise = max_noise.max((num - m * q as i128).abs());
    }
    let noise_bits = if max_noise == 0 {
        0.0
    } else {
        (max_noise as f64).log2() - (t as f64).log2()
    };
    let capacity_bits = (q as f64).log2() - 1.0 - (t as f64).log2();
    NoiseReport {
        plaintext: Plaintext::from_values(values),
        noise_bits,
        budget_bits: capacity_bits - noise_bits.max(0.0),
    }
}
