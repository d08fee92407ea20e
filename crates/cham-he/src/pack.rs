//! `PACKTWOLWES` (Alg. 2) and `PACKLWES` (Alg. 3).
//!
//! Packing folds `2^h` LWE ciphertexts (each carrying one scalar in its
//! constant coefficient, plus garbage elsewhere) into a single RLWE
//! ciphertext. The recursion combines an "even" and an "odd" packed
//! ciphertext at each level `h`:
//!
//! ```text
//! ct = (ct_even + X^{N/2^h}·ct_odd) + σ_{2^h+1}(ct_even − X^{N/2^h}·ct_odd)
//! ```
//!
//! `σ_{2^h+1}` fixes every coefficient position that is a multiple of
//! `N/2^{h−1}` (the payload positions of both halves) and negates the
//! odd-multiples of `N/2^h`, so payloads double and line up at stride
//! `N/2^h` while the final key-switch (inside [`crate::ops::apply_galois`])
//! returns the ciphertext to the original key. Packing `2^h` inputs needs
//! `2^h − 1` reductions (paper: "4095 reductions … to pack 4096").
//!
//! Each level doubles the payload, so the packed plaintext holds
//! `2^h·μ_j` at coefficient `j·N/2^h`; [`PackedRlwe::decode_factor`]
//! exposes the `2^{−h} mod t` correction the decoder applies (exact because
//! the plaintext modulus is odd).
//!
//! ## The reduce buffer
//!
//! The paper's stages 5–9 never hold a tree level: LWEs stream out of
//! stage 4 and are folded into a *reduce buffer* as they arrive. The
//! software does the same. Leaves are produced in tree order, a block of
//! `ROW_BLOCK` tree positions at a time (so the HMVP reads its NTT-form
//! input once per block, not once per row), and reduced depth-first with a
//! binary-counter carry stack — after leaf `j` the stack holds one partial
//! result per set bit of `j + 1` — so at most `log2(count) + 1 +
//! ROW_BLOCK`, i.e. `O(log count + R)`, ciphertexts are live and both
//! operands of every `PACKTWOLWES` are still in cache. Consumed operands
//! are recycled as the next leaves' storage and kept in the subtree's
//! pooled scratch across calls, so a pack in the steady state allocates
//! only its result. The tree, and the operand order inside it, are exactly
//! those of the level-by-level formulation, so the output bytes are too.

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::extract::lwe_to_rlwe_into;
use crate::hmvp::ROW_BLOCK;
use crate::keys::GaloisKeys;
use crate::ops::{add_galois_of, in_coeff_form, monomial_butterfly};
use crate::params::ChamParams;
use crate::scratch::{DotScratch, ScratchPool};
use crate::{HeError, Result};
use cham_math::rns::RnsPoly;
use cham_telemetry::span::{phase, Span};
use std::ops::Range;

/// The result of `PACKLWES`: the packed ciphertext plus the bookkeeping a
/// decoder needs (stride and scale).
#[derive(Debug, Clone)]
pub struct PackedRlwe {
    /// The packed RLWE ciphertext (normal basis).
    pub ciphertext: RlweCiphertext,
    /// `log2` of the packed count (recursion depth `h`).
    pub log_count: u32,
    /// Number of payload slots actually filled (≤ `2^log_count`).
    pub count: usize,
}

impl PackedRlwe {
    /// Coefficient stride between consecutive payloads: `N / 2^h`.
    pub fn stride(&self, params: &ChamParams) -> usize {
        params.degree() >> self.log_count
    }

    /// The factor `(2^h)^{−1} mod t` the decoder multiplies payloads by.
    pub fn decode_factor(&self, params: &ChamParams) -> u64 {
        let t = params.plain_modulus();
        t.inv(t.pow(2, self.log_count as u64))
            .expect("t is odd, so powers of two are invertible")
    }

    /// Reads the payload values out of a decrypted plaintext.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when the plaintext length differs from
    /// the ring degree; [`HeError::InvalidParams`] when `log_count`
    /// exceeds `log2 N` or `count` exceeds `2^log_count` (the fields are
    /// public and may have come off the wire).
    pub fn decode(&self, pt: &crate::encoding::Plaintext, params: &ChamParams) -> Result<Vec<u64>> {
        if pt.len() != params.degree() {
            return Err(HeError::ShapeMismatch {
                expected: params.degree(),
                got: pt.len(),
            });
        }
        if self.log_count > params.max_pack_log() {
            return Err(HeError::InvalidParams("packed log_count exceeds log2 N"));
        }
        if self.count > 1 << self.log_count {
            return Err(HeError::InvalidParams("packed count exceeds 2^log_count"));
        }
        let stride = self.stride(params);
        let f = self.decode_factor(params);
        let t = params.plain_modulus();
        Ok((0..self.count)
            .map(|j| t.mul(pt.values()[j * stride], f))
            .collect())
    }
}

/// `PACKTWOLWES` (Alg. 2): one reduction step at recursion level `h ≥ 1`,
/// combining two ciphertexts whose payloads sit at stride `N/2^{h−1}`.
/// Lines 1–3 are one monomial butterfly per limb, and lines 4–6 one
/// key-switch whose digits and whose `σ_k(b)` are destination-order
/// automorphisms: the `cham_math::simd` element-wise kernels around the
/// key-switch's limb transforms (twelve at the CHAM chain).
///
/// # Errors
/// * [`HeError::MissingGaloisKey`] when `σ_{2^h+1}` has no key,
/// * [`HeError::InvalidParams`] when `h` exceeds `log2 N`,
/// * [`HeError::Incompatible`] unless both inputs are normal-basis.
pub fn pack_two(
    h: u32,
    even: &RlweCiphertext,
    odd: &RlweCiphertext,
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<RlweCiphertext> {
    let owned = |ct: &RlweCiphertext| RlweCiphertext {
        b: in_coeff_form(ct.b()).into_owned(),
        a: in_coeff_form(ct.a()).into_owned(),
    };
    let (mut even, mut odd) = (owned(even), owned(odd));
    ScratchPool::global().with(params.augmented_context(), |s| {
        pack_two_in_place(h, &mut even, &mut odd, gkeys, params, s)
    })?;
    Ok(even)
}

/// [`pack_two`] on coefficient-form operands it may consume: the result
/// replaces `even`, and `odd` is left holding garbage for the caller to
/// recycle.
fn pack_two_in_place(
    h: u32,
    even: &mut RlweCiphertext,
    odd: &mut RlweCiphertext,
    gkeys: &GaloisKeys,
    params: &ChamParams,
    s: &mut DotScratch,
) -> Result<()> {
    cham_telemetry::counter_add!("cham_he.pack.pack_two", 1);
    let _span = Span::enter(phase::KEYSWITCH);
    if h == 0 || h > params.max_pack_log() {
        return Err(HeError::InvalidParams("pack level out of range"));
    }
    let ctx = params.ciphertext_context();
    if even.b.context() != ctx || odd.b.context() != ctx {
        return Err(HeError::Incompatible(
            "pack_two expects normal-basis ciphertexts",
        ));
    }
    let g = params.degree() >> h; // monomial exponent N/2^h
    let k = (1usize << h) + 1; // automorphism index 2^h + 1
    let ksk = gkeys.get(k)?;
    // Lines 1–3: even ← even + X^g·odd, odd ← even − X^g·odd (rotated).
    monomial_butterfly(ctx, &mut even.b, &mut odd.b, g);
    monomial_butterfly(ctx, &mut even.a, &mut odd.a, g);
    // Lines 4–6: even ← even + KS(σ_k(odd)).
    add_galois_of(even, &odd.b, &odd.a, g, k, ksk, params, s)
}

/// The carry stack of a depth-first `PACKLWES` reduction over one
/// contiguous power-of-two run of leaves.
struct ReduceBuffer<'a> {
    /// `(level, partial result)`, levels strictly decreasing towards the
    /// top — the set bits of the number of leaves pushed so far.
    stack: Vec<(u32, RlweCiphertext)>,
    /// Consumed operands, reused as storage for later leaves.
    spare: Vec<RlweCiphertext>,
    gkeys: &'a GaloisKeys,
    params: &'a ChamParams,
}

impl<'a> ReduceBuffer<'a> {
    /// A buffer recycling `spare`, a pooled scratch's kept ciphertexts; any
    /// over another chain of the scratch's shape are dropped.
    fn new(mut spare: Vec<RlweCiphertext>, gkeys: &'a GaloisKeys, params: &'a ChamParams) -> Self {
        spare.retain(|ct| ct.b.context() == params.ciphertext_context());
        Self {
            stack: Vec::new(),
            spare,
            gkeys,
            params,
        }
    }

    /// Storage for the next leaf: a recycled operand, or a fresh zero
    /// ciphertext.
    fn take(&mut self) -> RlweCiphertext {
        self.spare.pop().unwrap_or_else(|| {
            let ctx = self.params.ciphertext_context();
            RlweCiphertext {
                b: RnsPoly::zero(ctx),
                a: RnsPoly::zero(ctx),
            }
        })
    }

    /// A transparent zero leaf (padding).
    fn zero(&mut self) -> RlweCiphertext {
        let mut ct = self.take();
        for poly in [&mut ct.b, &mut ct.a] {
            for limb in poly.limbs_mut() {
                limb.coeffs_mut().fill(0);
            }
        }
        ct
    }

    /// Pushes the next leaf and carries: while the two topmost partial
    /// results sit at the same level they are the even and odd halves of
    /// one `PACKTWOLWES`.
    fn push(&mut self, mut ct: RlweCiphertext, s: &mut DotScratch) -> Result<()> {
        let mut level = 0;
        while self.stack.last().is_some_and(|(l, _)| *l == level) {
            let (_, mut even) = self.stack.pop().expect("checked non-empty");
            level += 1;
            pack_two_in_place(level, &mut even, &mut ct, self.gkeys, self.params, s)?;
            self.spare.push(std::mem::replace(&mut ct, even));
        }
        self.stack.push((level, ct));
        Ok(())
    }

    /// Reduces the leaves at the power-of-two run of tree positions
    /// `positions` to their subtree root. Position `pos` holds payload
    /// `i = bit_reverse(pos, log)`, a zero leaf when `i ≥ count`. The
    /// payload leaves of each block of [`ROW_BLOCK`] positions come from one
    /// `leaves` call, then every leaf of the block is pushed in tree order.
    fn reduce<F>(
        &mut self,
        positions: Range<usize>,
        log: u32,
        count: usize,
        leaves: &F,
        s: &mut DotScratch,
    ) -> Result<RlweCiphertext>
    where
        F: Fn(&[usize], &mut [RlweCiphertext], &mut DotScratch) -> Result<()>,
    {
        let mut block = Vec::with_capacity(ROW_BLOCK);
        for start in positions.clone().step_by(ROW_BLOCK) {
            let tree = start..positions.end.min(start + ROW_BLOCK);
            let payload = |pos| Some(cham_math::bit_reverse(pos, log)).filter(|&i| i < count);
            let mut rows = [0; ROW_BLOCK];
            let mut real = 0;
            for i in tree.clone().filter_map(payload) {
                rows[real] = i;
                real += 1;
            }
            block.extend(std::iter::repeat_with(|| self.take()).take(real));
            leaves(&rows[..real], &mut block, s)?;
            let mut computed = block.drain(..);
            for pos in tree {
                let ct = match payload(pos) {
                    Some(_) => computed.next().expect("one leaf per payload position"),
                    None => self.zero(),
                };
                self.push(ct, s)?;
            }
        }
        debug_assert_eq!(self.stack.len(), 1, "leaf count must be a power of two");
        Ok(self.stack.pop().expect("at least one leaf was pushed").1)
    }
}

/// `PACKLWES` (Alg. 3) over `count ≤ N` leaves produced on demand:
/// `leaves(rows, dst, scratch)` writes the RLWE form of payload `rows[k]`
/// (constant coefficient = payload) over every coefficient of `dst[k]`, for
/// up to [`ROW_BLOCK`] payloads a call. Payloads beyond a power of two are
/// padded with transparent zero ciphertexts.
///
/// The even/odd recursion consumes index bits LSB-first, which would
/// deliver payloads in bit-reversed coefficient order; visiting the leaves
/// bit-reversed (payload `bit_reverse(pos)` at tree position `pos`) makes
/// the output natural-ordered. The payloads of a call are those of
/// [`ROW_BLOCK`] consecutive tree positions.
///
/// Parallelism is one contiguous power-of-two subtree per thread, with
/// `cap` threads (`cham_pool::map_capped`): subtrees are independent until
/// the top `log2(subtrees)` levels, which are joined pair-by-pair. The
/// tree is the same at every cap, so the result is bit-identical.
pub(crate) fn pack_with<F>(
    count: usize,
    cap: usize,
    leaves: F,
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<PackedRlwe>
where
    F: Fn(&[usize], &mut [RlweCiphertext], &mut DotScratch) -> Result<()> + Sync,
{
    if count == 0 {
        return Err(HeError::InvalidParams("cannot pack zero ciphertexts"));
    }
    if count > params.degree() {
        return Err(HeError::InvalidParams(
            "cannot pack more ciphertexts than the ring degree",
        ));
    }
    let padded = count.next_power_of_two();
    let log = padded.trailing_zeros();
    let subtrees = cap.clamp(1, padded).next_power_of_two();
    let span = padded / subtrees;
    let reduce_subtree = |first: usize| -> Result<RlweCiphertext> {
        ScratchPool::global().with(params.augmented_context(), |s| {
            let mut buffer = ReduceBuffer::new(std::mem::take(&mut s.spare), gkeys, params);
            let root = buffer.reduce(first..first + span, log, count, &leaves, s);
            s.spare = buffer.spare;
            root
        })
    };
    let firsts: Vec<usize> = (0..subtrees).map(|t| t * span).collect();
    let mut level = cham_pool::map_capped(&firsts, cap, |_, &first| reduce_subtree(first))
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    // Join the subtree roots: within one level every pair is independent
    // (the dependency chain runs *between* levels).
    let mut h = span.trailing_zeros();
    while level.len() > 1 {
        h += 1;
        let pairs: Vec<&[RlweCiphertext]> = level.chunks(2).collect();
        level = cham_pool::map_capped(&pairs, cap, |_, pair| {
            pack_two(h, &pair[0], &pair[1], gkeys, params)
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    }
    Ok(PackedRlwe {
        ciphertext: level.pop().expect("one ciphertext remains"),
        log_count: log,
        count,
    })
}

/// `PACKLWES` (Alg. 3): packs up to `N` LWE ciphertexts into one RLWE
/// ciphertext, fanned out over the process thread budget
/// (`cham_pool::current_threads`). Inputs beyond a power of two are padded
/// with transparent zero ciphertexts.
///
/// # Errors
/// * [`HeError::InvalidParams`] for an empty input or more than `N` inputs,
/// * [`HeError::Incompatible`] for LWEs outside the normal basis,
/// * missing Galois keys from the reduction steps.
pub fn pack_lwes(
    lwes: &[LweCiphertext],
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Result<PackedRlwe> {
    let ctx = params.ciphertext_context();
    if lwes.iter().any(|lwe| lwe.a().context() != ctx) {
        return Err(HeError::Incompatible(
            "pack_lwes expects normal-basis LWE ciphertexts",
        ));
    }
    pack_with(
        lwes.len(),
        cham_pool::current_threads(),
        lwe_leaves(lwes),
        gkeys,
        params,
    )
}

/// The [`pack_with`] leaves of `PACKLWES`: leaf `i` is `LWE-TO-RLWE` of
/// `lwes[i]`.
fn lwe_leaves(
    lwes: &[LweCiphertext],
) -> impl Fn(&[usize], &mut [RlweCiphertext], &mut DotScratch) -> Result<()> + Sync + '_ {
    move |rows, dst, _| {
        for (&i, dst) in rows.iter().zip(dst) {
            lwe_to_rlwe_into(&lwes[i], dst);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::extract::{extract_lwe, lwe_to_rlwe};
    use crate::keys::SecretKey;
    use cham_math::Backend;
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(1001);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        (params, sk, enc, dec, coder, rng)
    }

    /// Encrypt scalars, extract their LWEs, pack, decrypt, decode.
    fn pack_roundtrip(values: &[u64]) -> Vec<u64> {
        let (params, sk, enc, dec, coder, mut rng) = setup();
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        let lwes: Vec<LweCiphertext> = values
            .iter()
            .map(|&v| {
                let ct = enc.encrypt(&coder.encode_vector(&[v]).unwrap(), &mut rng);
                extract_lwe(&ct, 0).unwrap()
            })
            .collect();
        let packed = pack_lwes(&lwes, &gkeys, &params).unwrap();
        let pt = dec.decrypt(&packed.ciphertext);
        packed.decode(&pt, &params).unwrap()
    }

    #[test]
    fn pack_two_values() {
        assert_eq!(pack_roundtrip(&[123, 456]), vec![123, 456]);
    }

    #[test]
    fn pack_eight_values() {
        let vals = [5u64, 0, 65535, 1, 40000, 7, 12345, 999];
        assert_eq!(pack_roundtrip(&vals), vals.to_vec());
    }

    #[test]
    fn pack_single_value() {
        assert_eq!(pack_roundtrip(&[77]), vec![77]);
    }

    #[test]
    fn pack_non_power_of_two_pads() {
        let vals = [1u64, 2, 3, 4, 5];
        assert_eq!(pack_roundtrip(&vals), vals.to_vec());
    }

    #[test]
    fn pack_full_ring() {
        // Pack N ciphertexts — every coefficient becomes a payload.
        let (params, sk, enc, dec, coder, mut rng) = setup();
        let n = params.degree();
        let t = params.plain_modulus().value();
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let lwes: Vec<LweCiphertext> = vals
            .iter()
            .map(|&v| {
                let ct = enc.encrypt(&coder.encode_vector(&[v]).unwrap(), &mut rng);
                extract_lwe(&ct, 0).unwrap()
            })
            .collect();
        let packed = pack_lwes(&lwes, &gkeys, &params).unwrap();
        assert_eq!(packed.stride(&params), 1);
        let report = dec.decrypt_with_noise(&packed.ciphertext);
        assert!(report.budget_bits > 0.0, "budget {}", report.budget_bits);
        let decoded = packed.decode(&report.plaintext, &params).unwrap();
        assert_eq!(decoded, vals);
    }

    #[test]
    fn pack_validation() {
        let (params, sk, enc, _, coder, mut rng) = setup();
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        assert!(pack_lwes(&[], &gkeys, &params).is_err());
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, 0).unwrap();
        let too_many = vec![lwe; params.degree() + 1];
        assert!(pack_lwes(&too_many, &gkeys, &params).is_err());
    }

    #[test]
    fn pack_missing_galois_key() {
        let (params, sk, enc, _, coder, mut rng) = setup();
        // Keys only up to level 1 — packing 4 values needs level 2.
        let gkeys = GaloisKeys::generate_for_packing(&sk, 1, &mut rng).unwrap();
        let lwes: Vec<LweCiphertext> = (0..4u64)
            .map(|v| {
                let ct = enc.encrypt(&coder.encode_vector(&[v]).unwrap(), &mut rng);
                extract_lwe(&ct, 0).unwrap()
            })
            .collect();
        assert!(matches!(
            pack_lwes(&lwes, &gkeys, &params),
            Err(HeError::MissingGaloisKey(5))
        ));
    }

    /// `count` LWEs of fresh encryptions under a seeded key.
    fn random_lwes(seed: u64, count: usize) -> (ChamParams, GaloisKeys, Vec<LweCiphertext>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let coder = CoeffEncoder::new(&params);
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        let lwes = (0..count)
            .map(|_| {
                let v = rng.gen_range(0..65537);
                let ct = enc.encrypt(&coder.encode_vector(&[v]).unwrap(), &mut rng);
                extract_lwe(&ct, 0).unwrap()
            })
            .collect();
        (params, gkeys, lwes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn reduce_buffer_pack_matches_level_order(seed in any::<u64>()) {
            let (params, gkeys, lwes) = random_lwes(seed, 256);
            for count in [1usize, 2, 3, 5, 128, 255, 256] {
                let want =
                    crate::oracle::pack_lwes_level_order(&lwes[..count], &gkeys, &params).unwrap();
                for cap in [1usize, 2, 3, 8] {
                    let got =
                        pack_with(count, cap, lwe_leaves(&lwes[..count]), &gkeys, &params)
                            .unwrap();
                    prop_assert!(
                        got.ciphertext == want.ciphertext,
                        "count={} cap={}",
                        count,
                        cap
                    );
                    prop_assert_eq!((got.log_count, got.count), (want.log_count, want.count));
                }
            }
        }

        #[test]
        fn pack_two_matches_the_oracle_at_every_level(seed in any::<u64>()) {
            let (params, gkeys, lwes) = random_lwes(seed, 2);
            let (even, odd) = (lwe_to_rlwe(&lwes[0]), lwe_to_rlwe(&lwes[1]));
            let mut odd_ntt = odd.clone();
            odd_ntt.to_ntt();
            for h in 1..=params.max_pack_log() {
                let want = crate::oracle::pack_two(h, &even, &odd, &gkeys, &params).unwrap();
                for o in [&odd, &odd_ntt] {
                    let got = pack_two(h, &even, o, &gkeys, &params).unwrap();
                    prop_assert!(got == want, "h={} odd form={:?}", h, o.form());
                }
            }
        }
    }

    /// The largest prime below `limit` that hosts a negacyclic transform
    /// of size `n` (`≡ 1 mod 2n`).
    fn ntt_prime_below(limit: u64, n: usize) -> u64 {
        let step = 2 * n as u64;
        let mut q = (limit - 2) / step * step + 1;
        while !cham_math::primality::is_prime(q) {
            q -= step;
        }
        q
    }

    /// The key-switch's backend branches, on every backend the host runs:
    /// - the CHAM chain: copies, and a compare-subtract from `q0` into `q1`;
    /// - a chain whose second ciphertext prime is at least twice the first,
    ///   so its digit re-embeds into `q0` by Barrett under the vector arm,
    ///   with a special prime of 2^50 or more, whose digit product and
    ///   rescale run the scalar arm;
    /// - a chain whose second ciphertext prime is itself of 2^50 or more:
    ///   its butterflies, automorphism and digit run the scalar arm beside
    ///   the first prime's vector ones (which is small enough for the
    ///   chain's product to fit `u128`).
    ///
    /// `keyswitch_mask`, `apply_galois` and `pack_two` at every level must
    /// equal the oracle's bytes.
    #[test]
    fn keyswitch_and_pack_match_the_oracle_on_every_chain() {
        let n = 256;
        let (q0, q1, p) = (
            cham_math::modulus::Q0,
            cham_math::modulus::Q1,
            cham_math::modulus::SPECIAL_P,
        );
        let wide = ntt_prime_below(1 << 51, n);
        let chains = [
            (vec![q0, q1], p),
            (vec![q0, ntt_prime_below(1 << 37, n)], wide),
            (
                vec![ntt_prime_below(1 << 20, n), ntt_prime_below(wide, n)],
                wide,
            ),
        ];
        let restore = Backend::active();
        for backend in Backend::all_available() {
            Backend::force(backend);
            for (primes, p) in &chains {
                let params = crate::params::ChamParamsBuilder::new()
                    .degree(n)
                    .ciphertext_primes(primes)
                    .special_prime(*p)
                    .build()
                    .unwrap();
                // Each table runs what `backend` resolves to for its prime.
                for (table, &q) in params
                    .augmented_context()
                    .tables()
                    .iter()
                    .zip(primes.iter().chain([p]))
                {
                    let wide = q >= 1 << 50;
                    let expect = if backend == Backend::Avx512Ifma && wide {
                        Backend::Avx2
                    } else {
                        backend
                    };
                    assert_eq!(table.backend(), expect, "q={q}");
                }
                let mut rng = rand::rngs::StdRng::seed_from_u64(*p);
                let sk = SecretKey::generate(&params, &mut rng);
                let enc = Encryptor::new(&params, &sk);
                let coder = CoeffEncoder::new(&params);
                let gkeys =
                    GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
                let ct = |rng: &mut rand::rngs::StdRng| {
                    let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..65537)).collect();
                    let mut ct = enc.encrypt(&coder.encode_vector(&vals).unwrap(), rng);
                    ct.to_coeff();
                    ct
                };
                let (even, odd) = (ct(&mut rng), ct(&mut rng));
                let case = format!("backend={backend} chain={primes:?}+{p}");
                for h in 1..=params.max_pack_log() {
                    let k = (1usize << h) + 1;
                    let ksk = gkeys.get(k).unwrap();
                    assert_eq!(
                        crate::ops::keyswitch_mask(odd.a(), ksk, &params).unwrap(),
                        crate::oracle::keyswitch_mask(odd.a(), ksk, &params).unwrap(),
                        "keyswitch k={k} {case}"
                    );
                    assert_eq!(
                        crate::ops::apply_galois(&odd, k, &gkeys, &params).unwrap(),
                        crate::oracle::apply_galois(&odd, k, &gkeys, &params).unwrap(),
                        "apply_galois k={k} {case}"
                    );
                    assert_eq!(
                        pack_two(h, &even, &odd, &gkeys, &params).unwrap(),
                        crate::oracle::pack_two(h, &even, &odd, &gkeys, &params).unwrap(),
                        "pack_two h={h} {case}"
                    );
                }
            }
        }
        Backend::force(restore);
    }

    #[test]
    fn pack_rejects_augmented_basis_inputs() {
        let (params, sk, enc, _, coder, mut rng) = setup();
        let gkeys = GaloisKeys::generate_for_packing(&sk, 1, &mut rng).unwrap();
        let aug = enc.encrypt_augmented(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        assert!(matches!(
            pack_lwes(&[extract_lwe(&aug, 0).unwrap()], &gkeys, &params),
            Err(HeError::Incompatible(_))
        ));
        assert!(matches!(
            pack_two(1, &aug, &aug, &gkeys, &params),
            Err(HeError::Incompatible(_))
        ));
    }

    #[test]
    fn pack_two_out_of_range_level() {
        let (params, sk, enc, _, coder, mut rng) = setup();
        let gkeys = GaloisKeys::generate_for_packing(&sk, 1, &mut rng).unwrap();
        let ct = enc.encrypt(&coder.encode_vector(&[1]).unwrap(), &mut rng);
        assert!(pack_two(0, &ct, &ct, &gkeys, &params).is_err());
        assert!(pack_two(params.max_pack_log() + 1, &ct, &ct, &gkeys, &params).is_err());
    }
}
