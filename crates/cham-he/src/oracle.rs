//! Test oracles: the HMVP back half as it was first written — one
//! allocating `RnsPoly` operation per line of Alg. 2/3, a strict rescale,
//! a level-by-level pack that carries `b` over `Q·p` in coefficient form
//! and rescales it once at the root — decryption as it was first written (a
//! per-call Garner lift, centred `i128` rounding), and the wire codec as
//! it was first written ([`wire`]: one word at a time), kept only so the
//! streaming implementations in [`crate::ops`], [`crate::pack`],
//! [`crate::hmvp`], [`crate::encrypt`] and [`crate::wire`] have something
//! independent to be bit-compared against. Nothing here shares a kernel
//! with the code under test beyond the NTT, Barrett arithmetic and the
//! element-wise `RnsPoly` operations.

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::encoding::Plaintext;
use crate::encrypt::NoiseReport;
use crate::extract::lwe_to_rlwe;
use crate::keys::{GaloisKeys, KeySwitchKey, SecretKey};
use crate::pack::PackedRlwe;
use crate::params::ChamParams;
use crate::Result;
use cham_math::rns::{RnsContext, RnsPoly};

/// KEYSWITCH by the book up to its rescale: `decompose_digits`, one
/// strict pointwise multiply and add per digit, inverse transform. The
/// `(b, a)` correction over the augmented basis, coefficient form.
fn keyswitch_product(
    a: &RnsPoly,
    ksk: &KeySwitchKey,
    params: &ChamParams,
) -> Result<(RnsPoly, RnsPoly)> {
    let aug = params.augmented_context();
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
    Ok((b, a))
}

/// KEYSWITCH by the book: [`keyswitch_product`], then a strict rescale of
/// both halves.
pub(crate) fn keyswitch_mask(
    a: &RnsPoly,
    ksk: &KeySwitchKey,
    params: &ChamParams,
) -> Result<(RnsPoly, RnsPoly)> {
    let target = params.ciphertext_context();
    let (b, a) = keyswitch_product(a, ksk, params)?;
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

/// A pack node as the level-order oracle carries it: `b` over `Q·p`,
/// `p` times the normal-basis `b`, and `a` over `Q`, both in coefficient
/// form.
type Lifted = (RnsPoly, RnsPoly);

/// `PACKTWOLWES` on lifted nodes, one allocating operation per line of
/// Alg. 2: signed monomial multiplies and automorphisms in coefficient
/// form on both halves, and the key-switch's `b` correction added
/// unscaled — only its `a` correction is rescaled.
fn pack_two_lifted(
    h: u32,
    even: &Lifted,
    odd: &Lifted,
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<Lifted> {
    let k = (1usize << h) + 1;
    let g = params.degree() >> h;
    let (mono_b, mono_a) = (odd.0.shift_neg(g)?, odd.1.shift_neg(g)?); // line 1
    let plus = (even.0.add(&mono_b)?, even.1.add(&mono_a)?); // line 2
    let minus = (even.0.sub(&mono_b)?, even.1.sub(&mono_a)?); // line 3
    let (ks_b, ks_a) = keyswitch_product(&minus.1.automorph(k)?, gkeys.get(k)?, params)?; // 4–5
    let auto_b = minus.0.automorph(k)?.add(&ks_b)?;
    let auto_a = ks_a.rescale_by_last_strict(params.ciphertext_context())?;
    Ok((plus.0.add(&auto_b)?, plus.1.add(&auto_a)?)) // line 6
}

/// `PACKLWES` level by level over leaves `(b₀, lwe)`: `b₀` the leaf's
/// constant `b` over `Q·p` — `p` times a normal-basis LWE's `b`, or an
/// HMVP row's unrescaled product coefficient — and the mask of `lwe`
/// (whose own `b` is not read). Every leaf materialised, bit-reversed into
/// place, one whole tree level reduced at a time, and one strict rescale
/// of `b` at the root.
pub(crate) fn pack_leaves_level_order(
    leaves: &[(Vec<u64>, LweCiphertext)],
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<PackedRlwe> {
    let (aug, ctx) = (params.augmented_context(), params.ciphertext_context());
    let count = leaves.len();
    let padded = count.next_power_of_two();
    let log = padded.trailing_zeros();
    let mut level = vec![(RnsPoly::zero(aug), RnsPoly::zero(ctx)); padded];
    for (i, (b0, lwe)) in leaves.iter().enumerate() {
        let mut b = RnsPoly::zero(aug);
        for (limb, &r) in b.limbs_mut().iter_mut().zip(b0) {
            limb.coeffs_mut()[0] = r;
        }
        level[cham_math::bit_reverse(i, log)] = (b, lwe_to_rlwe(lwe).a().clone());
    }
    let mut h = 1u32;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| pack_two_lifted(h, &pair[0], &pair[1], gkeys, params))
            .collect::<Result<Vec<_>>>()?;
        h += 1;
    }
    let (b, a) = level.pop().expect("one node remains");
    Ok(PackedRlwe {
        ciphertext: RlweCiphertext::new(b.rescale_by_last_strict(ctx)?, a)?,
        log_count: log,
        count,
    })
}

/// `PACKLWES` level by level ([`pack_leaves_level_order`]) over LWEs,
/// each leaf's `b` lifted to `p·b` over `Q·p` (zero mod `p`).
pub(crate) fn pack_lwes_level_order(
    lwes: &[LweCiphertext],
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<PackedRlwe> {
    let p = params.special_prime();
    let aug = params.augmented_context();
    let leaves: Vec<_> = lwes
        .iter()
        .map(|lwe| {
            let b0 = aug
                .moduli()
                .iter()
                .enumerate()
                .map(|(i, q)| lwe.b().get(i).map_or(0, |&b| q.mul(q.reduce(p), b)))
                .collect();
            (b0, lwe.clone())
        })
        .collect();
    pack_leaves_level_order(&leaves, gkeys, params)
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

/// The wire codec word by word: one `extend_from_slice` per word out; in,
/// one bounds-checked read and one range branch per word, behind a header
/// reader that collects the declared chain and both known chains into
/// vectors before comparing them. The layout constants are spelled out
/// here rather than shared with [`crate::wire`].
pub(crate) mod wire {
    use crate::ciphertext::RlweCiphertext;
    use crate::hmvp::EncodedMatrix;
    use crate::keys::{GaloisKeys, KeySwitchKey};
    use crate::params::ChamParams;
    use crate::{HeError, Result};
    use cham_math::poly::Poly;
    use cham_math::rns::{Form, RnsContext, RnsPoly};

    const MAGIC: u16 = 0xC4A7;
    const VERSION: u8 = 1;
    const RLWE: u8 = 1;
    const KSK: u8 = 4;
    const GALOIS_SET: u8 = 5;
    const ENCODED_MATRIX: u8 = 6;
    const RLWE_NTT: u8 = 7;

    fn write_header(out: &mut Vec<u8>, kind: u8, ctx: &RnsContext) {
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(kind);
        out.extend_from_slice(&(ctx.degree() as u32).to_le_bytes());
        out.push(ctx.len() as u8);
        for m in ctx.moduli() {
            out.extend_from_slice(&m.value().to_le_bytes());
        }
    }

    fn write_rns_poly(out: &mut Vec<u8>, p: &RnsPoly) {
        for limb in p.limbs() {
            for &c in limb.coeffs() {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
    }

    struct Reader<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8]> {
            if self.pos + n > self.data.len() {
                return Err(HeError::Incompatible("truncated wire payload"));
            }
            let s = &self.data[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        fn u8(&mut self) -> Result<u8> {
            Ok(self.take(1)?[0])
        }

        fn u16(&mut self) -> Result<u16> {
            Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
        }

        fn u32(&mut self) -> Result<u32> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
        }

        fn u64(&mut self) -> Result<u64> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
        }

        fn done(&self) -> bool {
            self.pos == self.data.len()
        }
    }

    fn read_header(r: &mut Reader<'_>, params: &ChamParams) -> Result<(u8, RnsContext)> {
        if r.u16()? != MAGIC {
            return Err(HeError::Incompatible("bad wire magic"));
        }
        if r.u8()? != VERSION {
            return Err(HeError::Incompatible("unsupported wire version"));
        }
        let kind = r.u8()?;
        if ![RLWE, KSK, GALOIS_SET, ENCODED_MATRIX, RLWE_NTT].contains(&kind) {
            return Err(HeError::Incompatible("unknown wire payload kind"));
        }
        let degree = r.u32()? as usize;
        if degree != params.degree() {
            return Err(HeError::ShapeMismatch {
                expected: params.degree(),
                got: degree,
            });
        }
        let limbs = r.u8()? as usize;
        if limbs == 0 {
            return Err(HeError::Incompatible("wire payload missing modulus chain"));
        }
        let mut primes = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            primes.push(r.u64()?);
        }
        let chain = |ctx: &RnsContext| ctx.moduli().iter().map(|m| m.value()).collect::<Vec<_>>();
        let ct_primes = chain(params.ciphertext_context());
        let ctx = if primes == ct_primes {
            params.ciphertext_context().clone()
        } else if primes == chain(params.augmented_context()) {
            params.augmented_context().clone()
        } else if primes.len() == 1 && primes[0] == ct_primes[0] {
            params.ciphertext_context().drop_last()?
        } else {
            return Err(HeError::Incompatible(
                "wire payload uses a foreign modulus chain",
            ));
        };
        Ok((kind, ctx))
    }

    fn read_rns_poly(r: &mut Reader<'_>, ctx: &RnsContext, form: Form) -> Result<RnsPoly> {
        let mut limbs = Vec::with_capacity(ctx.len());
        for m in ctx.moduli() {
            let mut coeffs = Vec::with_capacity(ctx.degree());
            for _ in 0..ctx.degree() {
                let v = r.u64()?;
                if v >= m.value() {
                    return Err(HeError::Incompatible(
                        "wire coefficient out of canonical range",
                    ));
                }
                coeffs.push(v);
            }
            limbs.push(Poly::from_coeffs(coeffs));
        }
        Ok(RnsPoly::from_limbs(ctx, limbs, form)?)
    }

    pub(crate) fn rlwe_to_bytes(ct: &RlweCiphertext) -> Vec<u8> {
        let kind = match ct.form() {
            Form::Coeff => RLWE,
            Form::Ntt => RLWE_NTT,
        };
        let mut out = Vec::new();
        write_header(&mut out, kind, ct.b().context());
        write_rns_poly(&mut out, ct.b());
        write_rns_poly(&mut out, ct.a());
        out
    }

    pub(crate) fn rlwe_from_bytes(data: &[u8], params: &ChamParams) -> Result<RlweCiphertext> {
        let mut r = Reader { data, pos: 0 };
        let (kind, ctx) = read_header(&mut r, params)?;
        let form = match kind {
            RLWE => Form::Coeff,
            RLWE_NTT => Form::Ntt,
            _ => return Err(HeError::Incompatible("expected an rlwe payload")),
        };
        let b = read_rns_poly(&mut r, &ctx, form)?;
        let a = read_rns_poly(&mut r, &ctx, form)?;
        if !r.done() {
            return Err(HeError::Incompatible("trailing bytes after rlwe payload"));
        }
        RlweCiphertext::new(b, a)
    }

    pub(crate) fn ksk_to_bytes(ksk: &KeySwitchKey) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&mut out, KSK, ksk.b[0].context());
        out.push(ksk.digit_count() as u8);
        for (b, a) in ksk.b.iter().zip(&ksk.a) {
            write_rns_poly(&mut out, b);
            write_rns_poly(&mut out, a);
        }
        out
    }

    pub(crate) fn ksk_from_bytes(data: &[u8], params: &ChamParams) -> Result<KeySwitchKey> {
        let mut r = Reader { data, pos: 0 };
        let (kind, ctx) = read_header(&mut r, params)?;
        if kind != KSK {
            return Err(HeError::Incompatible("expected a key-switch-key payload"));
        }
        if ctx != *params.augmented_context() {
            return Err(HeError::Incompatible(
                "ksk must live in the augmented basis",
            ));
        }
        let digits = r.u8()? as usize;
        if digits == 0 || digits > 8 {
            return Err(HeError::Incompatible("implausible ksk digit count"));
        }
        let (mut b, mut a) = (Vec::new(), Vec::new());
        for _ in 0..digits {
            b.push(read_rns_poly(&mut r, &ctx, Form::Ntt)?);
            a.push(read_rns_poly(&mut r, &ctx, Form::Ntt)?);
        }
        if !r.done() {
            return Err(HeError::Incompatible("trailing bytes after ksk payload"));
        }
        Ok(KeySwitchKey { b, a })
    }

    pub(crate) fn galois_keys_to_bytes(keys: &GaloisKeys, indices: &[usize]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(VERSION);
        out.push(GALOIS_SET);
        out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        for &k in &sorted {
            let body = ksk_to_bytes(keys.get(k)?);
            out.extend_from_slice(&(k as u64).to_le_bytes());
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(&body);
        }
        Ok(out)
    }

    pub(crate) fn galois_keys_from_bytes(data: &[u8], params: &ChamParams) -> Result<GaloisKeys> {
        let mut r = Reader { data, pos: 0 };
        if r.u16()? != MAGIC {
            return Err(HeError::Incompatible("bad wire magic"));
        }
        if r.u8()? != VERSION {
            return Err(HeError::Incompatible("unsupported wire version"));
        }
        if r.u8()? != GALOIS_SET {
            return Err(HeError::Incompatible("expected a galois-key-set payload"));
        }
        let count = r.u32()? as usize;
        if count > 64 {
            return Err(HeError::Incompatible("implausible galois key count"));
        }
        let mut keys = GaloisKeys::new();
        for _ in 0..count {
            let k = r.u64()? as usize;
            let len = r.u32()? as usize;
            keys.insert(k, ksk_from_bytes(r.take(len)?, params)?);
        }
        if !r.done() {
            return Err(HeError::Incompatible("trailing bytes after galois key set"));
        }
        Ok(keys)
    }

    pub(crate) fn encoded_matrix_to_bytes(m: &EncodedMatrix) -> Vec<u8> {
        let (rows, cols) = m.shape();
        let mut out = Vec::new();
        write_header(&mut out, ENCODED_MATRIX, m.tiles()[0][0].context());
        out.extend_from_slice(&(rows as u32).to_le_bytes());
        out.extend_from_slice(&(cols as u32).to_le_bytes());
        out.extend_from_slice(&(m.col_tiles() as u32).to_le_bytes());
        for tile in m.tiles().iter().flatten() {
            write_rns_poly(&mut out, tile);
        }
        out
    }
}
