//! Wire format: byte serialization for ciphertexts, keys and encoded
//! matrices.
//!
//! Every extracted LWE is packed back into an RLWE before a result leaves
//! the pipeline (§II-D), so what crosses a machine boundary is RLWE
//! ciphertexts, Galois key sets and pre-encoded matrices: `cham-serve`
//! frames and its store segments carry this layout and round-trip it
//! losslessly. The format is deliberately simple and versioned:
//!
//! ```text
//! [magic u16 = 0xC4A7] [version u8] [kind u8]
//! [degree u32 LE] [limb_count u8 > 0] [limb moduli u64 LE ...]
//! payload (kind-specific), all coefficients u64 LE
//! ```
//!
//! A Galois key set is the exception: after its kind byte it carries a
//! count and length-prefixed key-switch-key frames, each with a header of
//! its own.
//!
//! Deserialization validates the header against the receiver's parameter
//! set — a ciphertext for foreign parameters is rejected, not
//! misinterpreted.

use crate::ciphertext::RlweCiphertext;
use crate::hmvp::EncodedMatrix;
use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::poly::Poly;
use cham_math::rns::{Form, RnsContext, RnsPoly};

const MAGIC: u16 = 0xC4A7;
const VERSION: u8 = 1;

/// Payload discriminator. 2 and 3 are retired (an LWE ciphertext and a
/// bare plaintext, which nothing sent): they are rejected as unknown and
/// are not to be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Rlwe = 1,
    Ksk = 4,
    GaloisSet = 5,
    EncodedMatrix = 6,
}

impl Kind {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(Kind::Rlwe),
            4 => Ok(Kind::Ksk),
            5 => Ok(Kind::GaloisSet),
            6 => Ok(Kind::EncodedMatrix),
            _ => Err(HeError::Incompatible("unknown wire payload kind")),
        }
    }
}

fn write_header(out: &mut Vec<u8>, kind: Kind, ctx: &RnsContext) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&(ctx.degree() as u32).to_le_bytes());
    out.push(ctx.len() as u8);
    for m in ctx.moduli() {
        out.extend_from_slice(&m.value().to_le_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

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

fn read_header(r: &mut Reader<'_>, params: &ChamParams) -> Result<(Kind, RnsContext)> {
    if r.u16()? != MAGIC {
        return Err(HeError::Incompatible("bad wire magic"));
    }
    if r.u8()? != VERSION {
        return Err(HeError::Incompatible("unsupported wire version"));
    }
    let kind = Kind::from_u8(r.u8()?)?;
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
    // Only the receiver's known bases are acceptable.
    let ct_primes: Vec<u64> = params
        .ciphertext_context()
        .moduli()
        .iter()
        .map(|m| m.value())
        .collect();
    let aug_primes: Vec<u64> = params
        .augmented_context()
        .moduli()
        .iter()
        .map(|m| m.value())
        .collect();
    let ctx = if primes == ct_primes {
        params.ciphertext_context().clone()
    } else if primes == aug_primes {
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

fn write_rns_poly(out: &mut Vec<u8>, p: &RnsPoly) {
    for limb in p.limbs() {
        for &c in limb.coeffs() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
}

fn read_rns_poly(r: &mut Reader<'_>, ctx: &RnsContext) -> Result<RnsPoly> {
    let n = ctx.degree();
    let mut limbs = Vec::with_capacity(ctx.len());
    for m in ctx.moduli() {
        let mut coeffs = Vec::with_capacity(n);
        for _ in 0..n {
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
    Ok(RnsPoly::from_limbs(ctx, limbs, Form::Coeff)?)
}

/// Serializes an RLWE ciphertext (converted to coefficient form).
pub fn rlwe_to_bytes(ct: &RlweCiphertext) -> Vec<u8> {
    let mut c = ct.clone();
    c.to_coeff();
    let ctx = c.b().context().clone();
    let mut out = Vec::with_capacity(16 + 2 * ctx.len() * ctx.degree() * 8);
    write_header(&mut out, Kind::Rlwe, &ctx);
    write_rns_poly(&mut out, c.b());
    write_rns_poly(&mut out, c.a());
    out
}

/// Deserializes an RLWE ciphertext.
///
/// # Errors
/// [`HeError::Incompatible`] / [`HeError::ShapeMismatch`] for malformed,
/// truncated, foreign-parameter, or trailing-garbage payloads.
pub fn rlwe_from_bytes(data: &[u8], params: &ChamParams) -> Result<RlweCiphertext> {
    let mut r = Reader::new(data);
    let (kind, ctx) = read_header(&mut r, params)?;
    if kind != Kind::Rlwe {
        return Err(HeError::Incompatible("expected an rlwe payload"));
    }
    let b = read_rns_poly(&mut r, &ctx)?;
    let a = read_rns_poly(&mut r, &ctx)?;
    if !r.done() {
        return Err(HeError::Incompatible("trailing bytes after rlwe payload"));
    }
    RlweCiphertext::new(b, a)
}

/// Serializes a key-switch key (NTT-form digits over the augmented basis).
pub fn ksk_to_bytes(ksk: &crate::keys::KeySwitchKey) -> Vec<u8> {
    let ctx = ksk.b[0].context().clone();
    let mut out = Vec::new();
    write_header(&mut out, Kind::Ksk, &ctx);
    out.push(ksk.digit_count() as u8);
    for i in 0..ksk.digit_count() {
        write_rns_poly(&mut out, &ksk.b[i]);
        write_rns_poly(&mut out, &ksk.a[i]);
    }
    out
}

/// Deserializes a key-switch key.
///
/// # Errors
/// Same conditions as [`rlwe_from_bytes`].
pub fn ksk_from_bytes(data: &[u8], params: &ChamParams) -> Result<crate::keys::KeySwitchKey> {
    let mut r = Reader::new(data);
    let (kind, ctx) = read_header(&mut r, params)?;
    if kind != Kind::Ksk {
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
    let mut b = Vec::with_capacity(digits);
    let mut a = Vec::with_capacity(digits);
    for _ in 0..digits {
        let mut bp = read_rns_poly(&mut r, &ctx)?;
        let mut ap = read_rns_poly(&mut r, &ctx)?;
        // Stored coefficients are the NTT-domain words; restore the form
        // tag by converting coeff->ntt-tagged without touching data.
        bp = retag_ntt(bp);
        ap = retag_ntt(ap);
        b.push(bp);
        a.push(ap);
    }
    if !r.done() {
        return Err(HeError::Incompatible("trailing bytes after ksk payload"));
    }
    Ok(crate::keys::KeySwitchKey { b, a })
}

/// Re-tags a freshly-read polynomial as NTT-form without transforming
/// (the wire format for keys stores NTT-domain words verbatim).
fn retag_ntt(p: RnsPoly) -> RnsPoly {
    let ctx = p.context().clone();
    let limbs = p.limbs().to_vec();
    RnsPoly::from_limbs(&ctx, limbs, Form::Ntt).expect("limbs match context")
}

/// Serializes a Galois key set (sorted by automorphism index for a
/// canonical byte representation).
pub fn galois_keys_to_bytes(keys: &crate::keys::GaloisKeys, indices: &[usize]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(Kind::GaloisSet as u8);
    out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
    let mut sorted = indices.to_vec();
    sorted.sort_unstable();
    for &k in &sorted {
        let ksk = keys.get(k)?;
        let body = ksk_to_bytes(ksk);
        out.extend_from_slice(&(k as u64).to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }
    Ok(out)
}

/// Deserializes a Galois key set.
///
/// # Errors
/// Same conditions as [`rlwe_from_bytes`].
pub fn galois_keys_from_bytes(data: &[u8], params: &ChamParams) -> Result<crate::keys::GaloisKeys> {
    let mut r = Reader::new(data);
    if r.u16()? != MAGIC {
        return Err(HeError::Incompatible("bad wire magic"));
    }
    if r.u8()? != VERSION {
        return Err(HeError::Incompatible("unsupported wire version"));
    }
    if r.u8()? != Kind::GaloisSet as u8 {
        return Err(HeError::Incompatible("expected a galois-key-set payload"));
    }
    let count = r.u32()? as usize;
    if count > 64 {
        return Err(HeError::Incompatible("implausible galois key count"));
    }
    let mut keys = crate::keys::GaloisKeys::new();
    for _ in 0..count {
        let k = r.u64()? as usize;
        let len = r.u32()? as usize;
        let body = r.take(len)?;
        keys.insert(k, ksk_from_bytes(body, params)?);
    }
    if !r.done() {
        return Err(HeError::Incompatible("trailing bytes after galois key set"));
    }
    Ok(keys)
}

/// Serializes a pre-encoded matrix: the `rows × col_tiles` NTT-form
/// plaintexts over the augmented basis that [`crate::hmvp::Hmvp::encode_matrix`]
/// prepares. Persisting this form (rather than the raw matrix) lets a
/// restore skip the one-time encode entirely — the encode-once economics
/// the HMVP throughput case rests on survive a process restart.
///
/// # Errors
/// [`HeError::InvalidParams`] for an empty tile grid (cannot happen for a
/// matrix produced by `encode_matrix`).
pub fn encoded_matrix_to_bytes(m: &EncodedMatrix) -> Result<Vec<u8>> {
    let tiles = m.tiles();
    let first = tiles
        .first()
        .and_then(|row| row.first())
        .ok_or(HeError::InvalidParams("encoded matrix has no tiles"))?;
    let ctx = first.context().clone();
    let (rows, cols) = m.shape();
    let col_tiles = m.col_tiles();
    let mut out = Vec::with_capacity(28 + rows * col_tiles * ctx.len() * ctx.degree() * 8);
    write_header(&mut out, Kind::EncodedMatrix, &ctx);
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(cols as u32).to_le_bytes());
    out.extend_from_slice(&(col_tiles as u32).to_le_bytes());
    for row in tiles {
        for tile in row {
            write_rns_poly(&mut out, tile);
        }
    }
    Ok(out)
}

/// Deserializes a pre-encoded matrix.
///
/// Tile words are stored NTT-domain verbatim (same convention as key
/// material) and re-tagged on read; no transform runs.
///
/// # Errors
/// Same conditions as [`rlwe_from_bytes`], plus the payload must live in
/// the augmented basis and its byte length must match the declared shape
/// exactly (checked before any tile allocation).
pub fn encoded_matrix_from_bytes(data: &[u8], params: &ChamParams) -> Result<EncodedMatrix> {
    let mut r = Reader::new(data);
    let (kind, ctx) = read_header(&mut r, params)?;
    if kind != Kind::EncodedMatrix {
        return Err(HeError::Incompatible("expected an encoded-matrix payload"));
    }
    let degree = ctx.degree();
    if ctx != *params.augmented_context() {
        return Err(HeError::Incompatible(
            "encoded matrix must live in the augmented basis",
        ));
    }
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let col_tiles = r.u32()? as usize;
    if rows == 0 || cols == 0 || col_tiles != cols.div_ceil(degree) {
        return Err(HeError::Incompatible("implausible encoded-matrix shape"));
    }
    // Exact-length check before allocating anything tile-sized: the
    // declared shape fixes the payload size to the byte.
    let tile_bytes = ctx.len() * degree * 8;
    let expected = rows
        .checked_mul(col_tiles)
        .and_then(|t| t.checked_mul(tile_bytes))
        .ok_or(HeError::Incompatible("implausible encoded-matrix shape"))?;
    if data.len() - r.pos != expected {
        return Err(HeError::Incompatible(
            "encoded-matrix payload length does not match its shape",
        ));
    }
    let mut tiles = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut row = Vec::with_capacity(col_tiles);
        for _ in 0..col_tiles {
            row.push(retag_ntt(read_rns_poly(&mut r, &ctx)?));
        }
        tiles.push(row);
    }
    if !r.done() {
        return Err(HeError::Incompatible(
            "trailing bytes after encoded-matrix payload",
        ));
    }
    Ok(EncodedMatrix::from_tiles(rows, cols, tiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::SecretKey;
    use rand::SeedableRng;

    fn setup() -> (
        ChamParams,
        Encryptor,
        Decryptor,
        CoeffEncoder,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(88);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        (params, enc, dec, coder, rng)
    }

    #[test]
    fn rlwe_roundtrip_both_bases() {
        let (params, enc, dec, coder, mut rng) = setup();
        let pt = coder.encode_vector(&[11, 22, 33]).unwrap();
        for ct in [
            enc.encrypt(&pt, &mut rng),
            enc.encrypt_augmented(&pt, &mut rng),
        ] {
            let bytes = rlwe_to_bytes(&ct);
            let back = rlwe_from_bytes(&bytes, &params).unwrap();
            assert_eq!(dec.decrypt(&back).values()[..3], [11, 22, 33]);
        }
    }

    #[test]
    fn rlwe_roundtrip_after_modswitch() {
        let (params, enc, dec, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[9]).unwrap(), &mut rng);
        let small = crate::ops::mod_switch_to_single(&ct, &params).unwrap();
        let back = rlwe_from_bytes(&rlwe_to_bytes(&small), &params).unwrap();
        assert_eq!(dec.decrypt(&back).values()[0], 9);
        // Single-limb payloads are ~half the size.
        assert!(rlwe_to_bytes(&small).len() < rlwe_to_bytes(&ct).len());
    }

    #[test]
    fn ntt_form_ciphertext_serializes() {
        let (params, enc, dec, coder, mut rng) = setup();
        let mut ct = enc.encrypt(&coder.encode_vector(&[5]).unwrap(), &mut rng);
        ct.to_ntt();
        let back = rlwe_from_bytes(&rlwe_to_bytes(&ct), &params).unwrap();
        assert_eq!(dec.decrypt(&back).values()[0], 5);
    }

    #[test]
    fn malformed_payloads_rejected() {
        let (params, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        let good = rlwe_to_bytes(&ct);

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(rlwe_from_bytes(&bad, &params).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[2] = 99;
        assert!(rlwe_from_bytes(&bad, &params).is_err());
        // Wrong kind, including the retired LWE (2) and plaintext (3).
        for kind in [2, 3, Kind::Ksk as u8] {
            let mut bad = good.clone();
            bad[3] = kind;
            assert!(rlwe_from_bytes(&bad, &params).is_err());
        }
        // Zero limb count: every payload carries its modulus chain.
        let mut bad = good.clone();
        bad[8] = 0;
        assert!(matches!(
            rlwe_from_bytes(&bad, &params),
            Err(HeError::Incompatible(_))
        ));
        // Truncated.
        assert!(rlwe_from_bytes(&good[..good.len() - 1], &params).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(rlwe_from_bytes(&bad, &params).is_err());
        // Foreign modulus chain.
        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&65537u64.to_le_bytes());
        assert!(rlwe_from_bytes(&bad, &params).is_err());
        // Out-of-range coefficient.
        let mut bad = good;
        let coeff_start = 8 + 2 * 8; // header + 2 limb moduli
        bad[coeff_start..coeff_start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(rlwe_from_bytes(&bad, &params).is_err());
    }

    #[test]
    fn ksk_and_galois_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = crate::keys::SecretKey::generate(&params, &mut rng);
        let coder = CoeffEncoder::new(&params);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        // A KSK round-trips and still key-switches correctly.
        let ksk = crate::keys::KeySwitchKey::generate(&sk, sk.coeffs(), &mut rng).unwrap();
        let back = ksk_from_bytes(&ksk_to_bytes(&ksk), &params).unwrap();
        let ct = enc.encrypt(&coder.encode_vector(&[321]).unwrap(), &mut rng);
        let (ks_b, ks_a) = crate::ops::keyswitch_mask(ct.a(), &back, &params).unwrap();
        let switched =
            crate::ciphertext::RlweCiphertext::new(ct.b().clone().add(&ks_b).unwrap(), ks_a)
                .unwrap();
        assert_eq!(dec.decrypt(&switched).values()[0], 321);
        // A Galois set round-trips and still packs.
        let gkeys = crate::keys::GaloisKeys::generate_for_packing(&sk, 2, &mut rng).unwrap();
        let bytes = galois_keys_to_bytes(&gkeys, &[3, 5]).unwrap();
        let gback = galois_keys_from_bytes(&bytes, &params).unwrap();
        let lwes: Vec<_> = [7u64, 8, 9, 10]
            .iter()
            .map(|&v| {
                let c = enc.encrypt(&coder.encode_vector(&[v]).unwrap(), &mut rng);
                crate::extract::extract_lwe(&c, 0).unwrap()
            })
            .collect();
        let packed = crate::pack::pack_lwes(&lwes, &gback, &params).unwrap();
        let pt = dec.decrypt(&packed.ciphertext);
        assert_eq!(packed.decode(&pt, &params).unwrap(), vec![7, 8, 9, 10]);
        // Asking to serialize a missing index fails.
        assert!(galois_keys_to_bytes(&gkeys, &[99]).is_err());
        // Malformed set payloads are rejected.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(galois_keys_from_bytes(&bad, &params).is_err());
        assert!(galois_keys_from_bytes(&bytes[..10], &params).is_err());
    }

    #[test]
    fn encoded_matrix_roundtrip_bit_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let hmvp = crate::hmvp::Hmvp::new(&params);
        let t = params.plain_modulus().value();
        // A shape spanning multiple column tiles.
        let a = crate::hmvp::Matrix::random(3, params.degree() + 5, t, &mut rng);
        let encoded = hmvp.encode_matrix(&a).unwrap();
        let bytes = encoded_matrix_to_bytes(&encoded).unwrap();
        let back = encoded_matrix_from_bytes(&bytes, &params).unwrap();
        assert_eq!(back.shape(), encoded.shape());
        assert_eq!(back.col_tiles(), encoded.col_tiles());
        // The restored encoding is byte-identical on re-serialization...
        assert_eq!(encoded_matrix_to_bytes(&back).unwrap(), bytes);
        // ...and produces the exact same decrypted HMVP result.
        let v: Vec<u64> = (0..a.cols()).map(|i| (i as u64 * 7 + 1) % t).collect();
        let gkeys =
            crate::keys::GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng)
                .unwrap();
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let from_original = hmvp.multiply(&encoded, &cts, &gkeys).unwrap();
        let from_restored = hmvp.multiply(&back, &cts, &gkeys).unwrap();
        let got_a = hmvp.decrypt_result(&from_original, &dec).unwrap();
        let got_b = hmvp.decrypt_result(&from_restored, &dec).unwrap();
        assert_eq!(got_a, got_b);
        assert_eq!(got_a, a.mul_vector_mod(&v, params.plain_modulus()).unwrap());
    }

    #[test]
    fn encoded_matrix_malformed_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let params = ChamParams::insecure_test_default().unwrap();
        let hmvp = crate::hmvp::Hmvp::new(&params);
        let t = params.plain_modulus().value();
        let a = crate::hmvp::Matrix::random(2, 6, t, &mut rng);
        let good = encoded_matrix_to_bytes(&hmvp.encode_matrix(&a).unwrap()).unwrap();

        // Wrong kind byte.
        let mut bad = good.clone();
        bad[3] = Kind::Ksk as u8;
        assert!(encoded_matrix_from_bytes(&bad, &params).is_err());
        // Truncated.
        assert!(encoded_matrix_from_bytes(&good[..good.len() - 1], &params).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(encoded_matrix_from_bytes(&bad, &params).is_err());
        // Zero rows.
        let limbs = params.augmented_context().len();
        let shape_at = 8 + limbs * 8; // magic+ver+kind+degree + limb moduli
        let mut bad = good.clone();
        bad[shape_at..shape_at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(encoded_matrix_from_bytes(&bad, &params).is_err());
        // Inflated row count: shape no longer matches the byte length,
        // rejected before any tile is allocated.
        let mut bad = good.clone();
        bad[shape_at..shape_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(encoded_matrix_from_bytes(&bad, &params).is_err());
        // col_tiles inconsistent with cols.
        let mut bad = good.clone();
        bad[shape_at + 8..shape_at + 12].copy_from_slice(&7u32.to_le_bytes());
        assert!(encoded_matrix_from_bytes(&bad, &params).is_err());
        // Out-of-range tile word.
        let mut bad = good;
        let words_at = shape_at + 12;
        bad[words_at..words_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(encoded_matrix_from_bytes(&bad, &params).is_err());
    }

    #[test]
    fn wrong_degree_rejected() {
        let (_, enc, _, coder, mut rng) = setup();
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        let bytes = rlwe_to_bytes(&ct);
        let other = crate::params::ChamParamsBuilder::new()
            .degree(512)
            .build()
            .unwrap();
        assert!(matches!(
            rlwe_from_bytes(&bytes, &other),
            Err(HeError::ShapeMismatch { .. })
        ));
    }
}
