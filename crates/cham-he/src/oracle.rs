//! Test oracles: the HMVP back half as it was first written — one
//! allocating `RnsPoly` operation per line of Alg. 2/3, a strict rescale,
//! a level-by-level pack — kept only so the streaming implementations in
//! [`crate::ops`], [`crate::pack`] and [`crate::hmvp`] have something
//! independent to be bit-compared against. Nothing here shares a kernel
//! with the code under test beyond the NTT, Barrett arithmetic and the
//! element-wise `RnsPoly` operations.

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::extract::lwe_to_rlwe;
use crate::keys::{GaloisKeys, KeySwitchKey};
use crate::pack::PackedRlwe;
use crate::params::ChamParams;
use crate::Result;
use cham_math::rns::RnsPoly;

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
