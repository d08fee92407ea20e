//! Wire format: byte serialization for ciphertexts, keys and encoded
//! matrices.
//!
//! Every extracted LWE is packed back into an RLWE before a result leaves
//! the pipeline (§II-D), so what crosses a machine boundary is RLWE
//! ciphertexts and Galois key sets: `cham-serve` frames carry this layout
//! and round-trip it losslessly. (A matrix crosses as its plaintext
//! upload body, not in this layout.) The format is deliberately simple
//! and versioned:
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
//! An RLWE ciphertext is written in the form it is in, and the kind byte
//! says which: `Rlwe` (1) for coefficient-form words, `RlweNtt` (7) for
//! NTT-domain words. An HMVP request's inputs therefore cross as they
//! were encrypted, in NTT form, and a packed reply in coefficient form;
//! the decoder restores the form tag and transforms nothing. Either way
//! every word must be canonical (`< qᵢ`).
//!
//! Deserialization validates the header against the receiver's parameter
//! set — a ciphertext for foreign parameters is rejected, not
//! misinterpreted. The declared modulus chain is compared with the
//! parameter set's moduli in place; nothing is allocated for it.
//!
//! Neither direction converts a word. A coefficient's wire bytes are its
//! little-endian `u64`, which is how a limb already sits in memory on the
//! little-endian targets this crate builds for
//! (`cham_math::bytes`), so the writer copies each limb's byte view
//! ([`write_rlwe`] into a buffer [`rlwe_encoded_len`] sizes up front) or
//! hands the views to a vectored write ([`write_rlwe_header`] and
//! [`rlwe_limbs`]); the reader ([`read_rlwe`], which [`rlwe_from_bytes`]
//! runs over a slice) reads the header into a stack buffer and each
//! limb's bytes straight into a fresh limb, then checks the limb
//! canonical (`< qᵢ`) in place with one branch-free fold
//! ([`words_below`]), not a branch per word. Every decoder reads its
//! fields in the order it checks them, so a refusal is the same however
//! the bytes arrive.

use crate::ciphertext::RlweCiphertext;
use crate::hmvp::EncodedMatrix;
use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::bytes::{as_le_bytes, as_le_bytes_mut};
use cham_math::poly::Poly;
use cham_math::rns::{Form, RnsContext, RnsPoly};
use std::io::{self, Read};

const MAGIC: u16 = 0xC4A7;
const VERSION: u8 = 1;

/// Payload discriminator. 2 and 3 are retired (an LWE ciphertext and a
/// bare plaintext, which nothing sent): they are rejected as unknown and
/// are not to be reused. An RLWE ciphertext travels in the form it is in:
/// `Rlwe` carries coefficient-form words, `RlweNtt` NTT-domain words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Rlwe = 1,
    Ksk = 4,
    GaloisSet = 5,
    EncodedMatrix = 6,
    RlweNtt = 7,
}

impl Kind {
    fn from_u8(v: u8) -> Result<Self> {
        match v {
            1 => Ok(Kind::Rlwe),
            4 => Ok(Kind::Ksk),
            5 => Ok(Kind::GaloisSet),
            6 => Ok(Kind::EncodedMatrix),
            7 => Ok(Kind::RlweNtt),
            _ => Err(HeError::Incompatible("unknown wire payload kind")),
        }
    }
}

/// Bytes of a header naming `limbs` moduli: magic, version, kind, degree,
/// limb count, moduli.
const fn header_len(limbs: usize) -> usize {
    2 + 1 + 1 + 4 + 1 + 8 * limbs
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

/// Appends `words` as `u64` LE: their byte view, in one copy.
pub fn put_words(out: &mut Vec<u8>, words: &[u64]) {
    out.extend_from_slice(as_le_bytes(words));
}

/// True when every word is `< bound`.
///
/// One branch-free fold over the words in place: for `bound ≤ 2^63`,
/// `w < bound` exactly when the top bit of `(w − bound) & !w` is set (the
/// difference wraps negative, and `w` itself is below `2^63`), so the AND
/// of those words keeps its top bit only if every word is in range. (The
/// fold vectorizes on its own; fused into a conversion loop it did not,
/// and a limb read 4× slower.)
///
/// # Panics
/// Panics if `bound > 2^63`.
#[must_use]
pub fn words_below(words: &[u64], bound: u64) -> bool {
    assert!(bound <= 1 << 63, "the range fold needs bound ≤ 2^63");
    let in_range = words
        .iter()
        .fold(!0u64, |acc, &w| acc & w.wrapping_sub(bound) & !w);
    in_range >> 63 == 1
}

const TRUNCATED: HeError = HeError::Incompatible("truncated wire payload");
const OUT_OF_RANGE: HeError = HeError::Incompatible("wire coefficient out of canonical range");

/// Little-endian cursor over a header held in a stack buffer.
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
            return Err(TRUNCATED);
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
    let chain = r.take(8 * limbs)?;
    let declared = || {
        chain
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("len 8")))
    };
    // Only the receiver's known bases are acceptable.
    let names = |ctx: &RnsContext| declared().eq(ctx.moduli().iter().map(|m| m.value()));
    let (ct, aug) = (params.ciphertext_context(), params.augmented_context());
    let ctx = if names(ct) {
        ct.clone()
    } else if names(aug) {
        aug.clone()
    } else if limbs == 1 && declared().eq([ct.moduli()[0].value()]) {
        ct.drop_last()?
    } else {
        return Err(HeError::Incompatible(
            "wire payload uses a foreign modulus chain",
        ));
    };
    Ok((kind, ctx))
}

/// Why a decode stopped: the transport failed, or the codec refused the
/// bytes it read.
enum Stop {
    Io(io::Error),
    Refused(HeError),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Stop::Io(e)
    }
}

impl From<HeError> for Stop {
    fn from(e: HeError) -> Self {
        Stop::Refused(e)
    }
}

type Decoded<T> = std::result::Result<T, Stop>;

/// The longest header a payload can declare: 255 moduli.
const MAX_HEADER_LEN: usize = header_len(u8::MAX as usize);

/// One payload of `left` more bytes, read from `r` field by field in the
/// order the codec checks them, so a refusal is the one the first bad
/// field earns however the bytes arrive. Nothing past the payload is
/// read.
struct Payload<'r, R> {
    r: &'r mut R,
    left: usize,
}

impl<R: Read> Payload<'_, R> {
    /// Reads `buf.len()` bytes, which the caller checked are left.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.r.read_exact(buf)?;
        self.left -= buf.len();
        Ok(())
    }

    fn array<const K: usize>(&mut self) -> Decoded<[u8; K]> {
        if self.left < K {
            return Err(TRUNCATED.into());
        }
        let mut bytes = [0u8; K];
        self.read(&mut bytes)?;
        Ok(bytes)
    }

    /// Reads the header into a stack buffer — as much of it as the
    /// payload holds: the fixed fields, then the chain their limb count
    /// names — and parses it.
    fn header(&mut self, params: &ChamParams) -> Decoded<(Kind, RnsContext)> {
        let mut buf = [0u8; MAX_HEADER_LEN];
        let mut got = self.left.min(header_len(0));
        self.read(&mut buf[..got])?;
        if got == header_len(0) {
            let whole = header_len(usize::from(buf[got - 1])).min(got + self.left);
            self.read(&mut buf[got..whole])?;
            got = whole;
        }
        Ok(read_header(&mut Reader::new(&buf[..got]), params)?)
    }

    /// Reads one polynomial's words a limb at a time, each straight into
    /// a fresh limb and checked canonical (`< qᵢ`) in place, and tags
    /// them with `form` without transforming them.
    fn rns_poly(&mut self, ctx: &RnsContext, form: Form) -> Decoded<RnsPoly> {
        let n = ctx.degree();
        let mut limbs = Vec::with_capacity(ctx.len());
        for m in ctx.moduli() {
            if self.left < 8 * n {
                return Err(TRUNCATED.into());
            }
            let mut limb = Poly::zero(n);
            self.read(as_le_bytes_mut(limb.coeffs_mut()))?;
            if !words_below(limb.coeffs(), m.value()) {
                return Err(OUT_OF_RANGE.into());
            }
            limbs.push(limb);
        }
        Ok(RnsPoly::from_limbs(ctx, limbs, form).map_err(HeError::from)?)
    }

    fn rlwe(&mut self, params: &ChamParams) -> Decoded<RlweCiphertext> {
        let (kind, ctx) = self.header(params)?;
        let form = match kind {
            Kind::Rlwe => Form::Coeff,
            Kind::RlweNtt => Form::Ntt,
            _ => return Err(HeError::Incompatible("expected an rlwe payload").into()),
        };
        let b = self.rns_poly(&ctx, form)?;
        let a = self.rns_poly(&ctx, form)?;
        if self.left != 0 {
            return Err(HeError::Incompatible("trailing bytes after rlwe payload").into());
        }
        Ok(RlweCiphertext::new(b, a)?)
    }

    fn ksk(&mut self, params: &ChamParams) -> Decoded<crate::keys::KeySwitchKey> {
        let (kind, ctx) = self.header(params)?;
        if kind != Kind::Ksk {
            return Err(HeError::Incompatible("expected a key-switch-key payload").into());
        }
        if ctx != *params.augmented_context() {
            return Err(HeError::Incompatible("ksk must live in the augmented basis").into());
        }
        let [digits] = self.array::<1>()?;
        let digits = usize::from(digits);
        if digits == 0 || digits > 8 {
            return Err(HeError::Incompatible("implausible ksk digit count").into());
        }
        let mut b = Vec::with_capacity(digits);
        let mut a = Vec::with_capacity(digits);
        for _ in 0..digits {
            b.push(self.rns_poly(&ctx, Form::Ntt)?);
            a.push(self.rns_poly(&ctx, Form::Ntt)?);
        }
        if self.left != 0 {
            return Err(HeError::Incompatible("trailing bytes after ksk payload").into());
        }
        Ok(crate::keys::KeySwitchKey { b, a })
    }

    fn galois_keys(&mut self, params: &ChamParams) -> Decoded<crate::keys::GaloisKeys> {
        if u16::from_le_bytes(self.array()?) != MAGIC {
            return Err(HeError::Incompatible("bad wire magic").into());
        }
        if self.array::<1>()? != [VERSION] {
            return Err(HeError::Incompatible("unsupported wire version").into());
        }
        if self.array::<1>()? != [Kind::GaloisSet as u8] {
            return Err(HeError::Incompatible("expected a galois-key-set payload").into());
        }
        let count = u32::from_le_bytes(self.array()?) as usize;
        if count > 64 {
            return Err(HeError::Incompatible("implausible galois key count").into());
        }
        let mut keys = crate::keys::GaloisKeys::new();
        for _ in 0..count {
            let k = u64::from_le_bytes(self.array()?) as usize;
            let len = u32::from_le_bytes(self.array()?) as usize;
            if len > self.left {
                return Err(TRUNCATED.into());
            }
            self.left -= len;
            let mut key = Payload {
                r: &mut *self.r,
                left: len,
            };
            keys.insert(k, key.ksk(params)?);
        }
        if self.left != 0 {
            return Err(HeError::Incompatible("trailing bytes after galois key set").into());
        }
        Ok(keys)
    }
}

/// Runs `decode` over the whole of `data`. A slice holds every byte its
/// length promises, so the transport cannot fail.
fn decode_slice<T>(
    data: &[u8],
    decode: impl FnOnce(&mut Payload<'_, &[u8]>) -> Decoded<T>,
) -> Result<T> {
    let mut r = data;
    let mut payload = Payload {
        r: &mut r,
        left: data.len(),
    };
    match decode(&mut payload) {
        Ok(v) => Ok(v),
        Err(Stop::Refused(e)) => Err(e),
        Err(Stop::Io(e)) => unreachable!("a slice read within its length failed: {e}"),
    }
}

fn write_rns_poly(out: &mut Vec<u8>, p: &RnsPoly) {
    for limb in p.limbs() {
        put_words(out, limb.coeffs());
    }
}

/// The exact length [`write_rlwe`] appends for `ct`: its header and both
/// polynomials.
#[must_use]
pub fn rlwe_encoded_len(ct: &RlweCiphertext) -> usize {
    let ctx = ct.b().context();
    header_len(ctx.len()) + 2 * 8 * ctx.len() * ctx.degree()
}

/// Appends an RLWE ciphertext's header — the bytes [`write_rlwe`] writes
/// before [`rlwe_limbs`]: the kind names its form (an NTT-form one, an
/// HMVP request's input, as `RlweNtt`; a coefficient-form one, a packed
/// reply, as `Rlwe`), then its degree and modulus chain.
pub fn write_rlwe_header(out: &mut Vec<u8>, ct: &RlweCiphertext) {
    let kind = match ct.form() {
        Form::Coeff => Kind::Rlwe,
        Form::Ntt => Kind::RlweNtt,
    };
    write_header(out, kind, ct.b().context());
}

/// The rest of an RLWE payload after its header, as borrowed views: every
/// limb of `b`, then every limb of `a`, each its words' LE bytes. A
/// writer can gather them into one vectored write without copying.
pub fn rlwe_limbs(ct: &RlweCiphertext) -> impl Iterator<Item = &[u8]> {
    let limbs = ct.b().limbs().iter().chain(ct.a().limbs());
    limbs.map(|limb| as_le_bytes(limb.coeffs()))
}

/// Appends an RLWE ciphertext in the form it is in: its header, then its
/// limbs. Nothing is cloned or transformed, and `out` grows at most once
/// when it was not sized for [`rlwe_encoded_len`] up front.
pub fn write_rlwe(out: &mut Vec<u8>, ct: &RlweCiphertext) {
    out.reserve(rlwe_encoded_len(ct));
    write_rlwe_header(out, ct);
    for limb in rlwe_limbs(ct) {
        out.extend_from_slice(limb);
    }
}

/// Serializes an RLWE ciphertext: [`write_rlwe`] into a buffer of exactly
/// [`rlwe_encoded_len`] bytes.
#[must_use]
pub fn rlwe_to_bytes(ct: &RlweCiphertext) -> Vec<u8> {
    let mut out = Vec::with_capacity(rlwe_encoded_len(ct));
    write_rlwe(&mut out, ct);
    out
}

/// Reads one RLWE payload of `len` bytes from `r`, in the form its kind
/// names: the header into a stack buffer, then each limb's bytes straight
/// into the limb, checked canonical in place. No buffer holds the
/// payload.
///
/// The outer result is the transport's: it is an error only when `r`
/// fails, and then the stream's position is unknown. Otherwise exactly
/// `len` bytes have been consumed — a payload the codec refuses is read
/// to its end and dropped — so a stream of framed payloads stays in step,
/// and the inner result is the codec's verdict, the one
/// [`rlwe_from_bytes`] reaches on the same bytes.
///
/// # Errors
/// The transport's errors; inside, the codec's as for [`rlwe_from_bytes`].
pub fn read_rlwe(
    r: &mut impl Read,
    len: usize,
    params: &ChamParams,
) -> io::Result<Result<RlweCiphertext>> {
    let mut payload = Payload { r, left: len };
    let verdict = match payload.rlwe(params) {
        Ok(ct) => Ok(ct),
        Err(Stop::Refused(e)) => Err(e),
        Err(Stop::Io(e)) => return Err(e),
    };
    let rest = payload.left as u64;
    if io::copy(&mut payload.r.by_ref().take(rest), &mut io::sink())? != rest {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(verdict)
}

/// Deserializes an RLWE ciphertext, in the form its kind names:
/// [`read_rlwe`] over the slice.
///
/// # Errors
/// [`HeError::Incompatible`] / [`HeError::ShapeMismatch`] for malformed,
/// truncated, foreign-parameter, or trailing-garbage payloads.
pub fn rlwe_from_bytes(data: &[u8], params: &ChamParams) -> Result<RlweCiphertext> {
    decode_slice(data, |p| p.rlwe(params))
}

/// Serializes a key-switch key (NTT-form digits over the augmented basis).
pub fn ksk_to_bytes(ksk: &crate::keys::KeySwitchKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(ksk_encoded_len(ksk));
    write_ksk(&mut out, ksk);
    out
}

/// The exact length [`write_ksk`] appends: a header, the digit count and
/// `2·d` polynomials.
fn ksk_encoded_len(ksk: &crate::keys::KeySwitchKey) -> usize {
    let ctx = ksk.b[0].context();
    header_len(ctx.len()) + 1 + 2 * ksk.digit_count() * 8 * ctx.len() * ctx.degree()
}

fn write_ksk(out: &mut Vec<u8>, ksk: &crate::keys::KeySwitchKey) {
    write_header(out, Kind::Ksk, ksk.b[0].context());
    out.push(ksk.digit_count() as u8);
    for i in 0..ksk.digit_count() {
        write_rns_poly(out, &ksk.b[i]);
        write_rns_poly(out, &ksk.a[i]);
    }
}

/// Deserializes a key-switch key.
///
/// # Errors
/// Same conditions as [`rlwe_from_bytes`].
pub fn ksk_from_bytes(data: &[u8], params: &ChamParams) -> Result<crate::keys::KeySwitchKey> {
    decode_slice(data, |p| p.ksk(params))
}

/// Serializes a Galois key set (sorted by automorphism index for a
/// canonical byte representation).
pub fn galois_keys_to_bytes(keys: &crate::keys::GaloisKeys, indices: &[usize]) -> Result<Vec<u8>> {
    let mut sorted = indices.to_vec();
    sorted.sort_unstable();
    let ksks = sorted
        .iter()
        .map(|&k| keys.get(k))
        .collect::<Result<Vec<_>>>()?;
    let len = 8 + ksks
        .iter()
        .map(|ksk| 12 + ksk_encoded_len(ksk))
        .sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(Kind::GaloisSet as u8);
    out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
    for (&k, ksk) in sorted.iter().zip(ksks) {
        out.extend_from_slice(&(k as u64).to_le_bytes());
        out.extend_from_slice(&(ksk_encoded_len(ksk) as u32).to_le_bytes());
        write_ksk(&mut out, ksk);
    }
    Ok(out)
}

/// Deserializes a Galois key set.
///
/// # Errors
/// Same conditions as [`rlwe_from_bytes`].
pub fn galois_keys_from_bytes(data: &[u8], params: &ChamParams) -> Result<crate::keys::GaloisKeys> {
    decode_slice(data, |p| p.galois_keys(params))
}

/// Serializes a pre-encoded matrix: the `rows × col_tiles` NTT-form
/// plaintexts over the augmented basis that [`crate::hmvp::Hmvp::encode_matrix`]
/// prepares, three times the size of the plaintext matrix.
///
/// Nothing decodes this layout and nothing persists or sends it: the
/// service stores and moves the plaintext upload body, whose content
/// hash is its id. Its one reader is the benchmark's store probe, which
/// uses it as a payload of known size.
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
    let ctx = first.context();
    let (rows, cols) = m.shape();
    let col_tiles = m.col_tiles();
    let len = header_len(ctx.len()) + 12 + rows * col_tiles * 8 * ctx.len() * ctx.degree();
    let mut out = Vec::with_capacity(len);
    write_header(&mut out, Kind::EncodedMatrix, ctx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::SecretKey;
    use rand::{Rng, SeedableRng};

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
            assert_eq!(back, ct);
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

    /// A ciphertext crosses in the form it is in — NTT as `RlweNtt`,
    /// coefficient as `Rlwe` — with the same words, and comes back with
    /// that form and re-encodes to the same bytes. An NTT-domain word at
    /// or above its prime is refused like a coefficient.
    #[test]
    fn ntt_form_ciphertext_serializes() {
        let (params, enc, dec, coder, mut rng) = setup();
        let ntt = enc.encrypt_augmented(&coder.encode_vector(&[5]).unwrap(), &mut rng);
        let mut coeff = ntt.clone();
        coeff.to_coeff();
        for (ct, form, kind) in [
            (&ntt, Form::Ntt, Kind::RlweNtt),
            (&coeff, Form::Coeff, Kind::Rlwe),
        ] {
            let bytes = rlwe_to_bytes(ct);
            assert_eq!(bytes[3], kind as u8);
            let payload: Vec<u64> = bytes[header_len(ct.b().context().len())..]
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                .collect();
            let halves = [ct.b(), ct.a()];
            let limbs = halves.iter().flat_map(|p| p.limbs());
            let words: Vec<u64> = limbs.flat_map(|l| l.coeffs()).copied().collect();
            assert_eq!(payload, words);
            let back = rlwe_from_bytes(&bytes, &params).unwrap();
            assert_eq!(back.form(), form);
            assert_eq!(&back, ct);
            assert_eq!(rlwe_to_bytes(&back), bytes);
            assert_eq!(dec.decrypt(&back).values()[0], 5);
        }

        let bytes = rlwe_to_bytes(&ntt);
        let limbs = params.augmented_context().moduli();
        for (limb, q) in limbs.iter().enumerate() {
            let at = header_len(limbs.len()) + 8 * limb * params.degree();
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&q.value().to_le_bytes());
            assert!(matches!(
                rlwe_from_bytes(&bad, &params),
                Err(HeError::Incompatible(
                    "wire coefficient out of canonical range"
                ))
            ));
        }
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
        // Wrong kind, including the retired LWE (2) and plaintext (3)
        // and the unassigned 8.
        for kind in [2, 3, 8, Kind::Ksk as u8] {
            let mut bad = good.clone();
            bad[3] = kind;
            assert!(matches!(
                rlwe_from_bytes(&bad, &params),
                Err(HeError::Incompatible(_))
            ));
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
        let at = header_len(2);
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            rlwe_from_bytes(&bad, &params),
            Err(HeError::Incompatible(
                "wire coefficient out of canonical range"
            ))
        ));
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
        let mut ct = enc.encrypt(&coder.encode_vector(&[321]).unwrap(), &mut rng);
        ct.to_coeff();
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

    /// The first byte and modulus of every limb of `polys` polynomials
    /// over `moduli` laid out back to back from byte `first`.
    fn limbs_from(first: usize, n: usize, moduli: &[u64], polys: usize) -> Vec<(usize, u64)> {
        let limbs = moduli.iter().cycle().take(polys * moduli.len());
        limbs
            .enumerate()
            .map(|(i, &q)| (first + 8 * n * i, q))
            .collect()
    }

    /// `new` against `old` on `good` and on its edits: the words `qᵢ − 1`,
    /// `qᵢ` and `u64::MAX` at the first and last word of every limb in
    /// `limbs`, and a cut one byte before, at and after every limb's start
    /// and the end. Each side re-encodes what it accepts, so they agree on
    /// the value as well as on the error.
    fn assert_same_verdicts(
        good: &[u8],
        limbs: &[(usize, u64)],
        n: usize,
        new: impl Fn(&[u8]) -> Result<Vec<u8>>,
        old: impl Fn(&[u8]) -> Result<Vec<u8>>,
    ) {
        assert_eq!(new(good).as_deref(), Ok(good));
        assert_eq!(old(good).as_deref(), Ok(good));
        for &(start, q) in limbs {
            for at in [start, start + 8 * (n - 1)] {
                for w in [q - 1, q, u64::MAX] {
                    let mut bad = good.to_vec();
                    bad[at..at + 8].copy_from_slice(&w.to_le_bytes());
                    let got = new(&bad);
                    assert_eq!(got.is_ok(), w < q, "word {w} at byte {at}");
                    assert_eq!(got, old(&bad), "word {w} at byte {at}");
                }
            }
        }
        let ends = limbs.iter().map(|&(start, _)| start).chain([good.len()]);
        for cut in ends.flat_map(|end| [end - 1, end, end + 1]) {
            let mut bad = good[..cut.min(good.len())].to_vec();
            bad.resize(cut, 0);
            let got = new(&bad);
            assert_eq!(got.is_ok(), cut == good.len(), "cut at byte {cut}");
            assert_eq!(got, old(&bad), "cut at byte {cut}");
        }
    }

    /// The one-pass codec writes the bytes the per-word codec it replaced
    /// (`oracle::wire`) writes, and reaches the same verdict on every
    /// boundary word and every limb-boundary cut: RLWE in both forms,
    /// both bases and the 1-limb modswitched chain, a key-switch key, a
    /// Galois set and an encoded matrix.
    #[test]
    fn codec_matches_the_per_word_oracle() {
        use crate::oracle::wire as oracle;
        let (params, enc, _, coder, mut rng) = setup();
        let n = params.degree();
        let pt = coder.encode_vector(&[1, 2, 3]).unwrap();
        let (normal, augmented) = (
            enc.encrypt(&pt, &mut rng),
            enc.encrypt_augmented(&pt, &mut rng),
        );
        let small = crate::ops::mod_switch_to_single(&normal, &params).unwrap();
        let mut cts = vec![normal, augmented, small];
        for i in 0..cts.len() {
            let mut other = cts[i].clone();
            if other.form() == Form::Ntt {
                other.to_coeff();
            } else {
                other.to_ntt();
            }
            cts.push(other);
        }
        for ct in &cts {
            let bytes = rlwe_to_bytes(ct);
            assert_eq!(bytes, oracle::rlwe_to_bytes(ct));
            assert_eq!(bytes.len(), rlwe_encoded_len(ct));
            let moduli: Vec<u64> = ct
                .b()
                .context()
                .moduli()
                .iter()
                .map(|m| m.value())
                .collect();
            assert_same_verdicts(
                &bytes,
                &limbs_from(header_len(moduli.len()), n, &moduli, 2),
                n,
                |b| rlwe_from_bytes(b, &params).map(|c| rlwe_to_bytes(&c)),
                |b| oracle::rlwe_from_bytes(b, &params).map(|c| oracle::rlwe_to_bytes(&c)),
            );
        }

        let sk = SecretKey::generate(&params, &mut rng);
        let aug: Vec<u64> = params
            .augmented_context()
            .moduli()
            .iter()
            .map(|m| m.value())
            .collect();
        let ksk = crate::keys::KeySwitchKey::generate(&sk, sk.coeffs(), &mut rng).unwrap();
        let bytes = ksk_to_bytes(&ksk);
        assert_eq!(bytes, oracle::ksk_to_bytes(&ksk));
        let ksk_limbs = limbs_from(header_len(aug.len()) + 1, n, &aug, 2 * ksk.digit_count());
        assert_same_verdicts(
            &bytes,
            &ksk_limbs,
            n,
            |b| ksk_from_bytes(b, &params).map(|k| ksk_to_bytes(&k)),
            |b| oracle::ksk_from_bytes(b, &params).map(|k| oracle::ksk_to_bytes(&k)),
        );

        let gkeys = crate::keys::GaloisKeys::generate_for_packing(&sk, 2, &mut rng).unwrap();
        let bytes = galois_keys_to_bytes(&gkeys, &[5, 3]).unwrap();
        assert_eq!(
            bytes,
            oracle::galois_keys_to_bytes(&gkeys, &[5, 3]).unwrap()
        );
        let key_len = ksk_encoded_len(gkeys.get(3).unwrap());
        let set_limbs: Vec<_> = (0..2)
            .flat_map(|j| {
                ksk_limbs
                    .iter()
                    .map(move |&(at, q)| (8 + 12 * (j + 1) + key_len * j + at, q))
            })
            .collect();
        assert_same_verdicts(
            &bytes,
            &set_limbs,
            n,
            |b| galois_keys_from_bytes(b, &params).and_then(|k| galois_keys_to_bytes(&k, &[3, 5])),
            |b| {
                oracle::galois_keys_from_bytes(b, &params)
                    .and_then(|k| oracle::galois_keys_to_bytes(&k, &[3, 5]))
            },
        );

        let hmvp = crate::hmvp::Hmvp::new(&params);
        let t = params.plain_modulus().value();
        let a = crate::hmvp::Matrix::random(3, 2 * n + 1, t, &mut rng);
        let em = hmvp.encode_matrix(&a).unwrap();
        assert_eq!(
            encoded_matrix_to_bytes(&em).unwrap(),
            oracle::encoded_matrix_to_bytes(&em)
        );
    }

    /// The branch-free range fold agrees with `w < bound` word by word,
    /// at the edges of the word range and of the allowed bounds.
    #[test]
    fn words_below_is_exact_at_the_edges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut bounds = vec![1, 2, 65537, (1 << 62) - 57, 1 << 63];
        bounds.extend((0..200).map(|_| rng.gen_range(1..=1 << 63)));
        for bound in bounds {
            let words = [
                0,
                1,
                bound - 1,
                bound,
                bound + 1,
                (1 << 63) - 1,
                1 << 63,
                u64::MAX,
            ];
            for w in words.into_iter().chain((0..20).map(|_| rng.gen::<u64>())) {
                let want = w < bound && 5 < bound;
                assert_eq!(words_below(&[5, w], bound), want, "{w} against {bound}");
            }
        }
        assert!(words_below(&[], 1));
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
