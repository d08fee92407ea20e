//! Homomorphic matrix-vector product (paper Alg. 1), with tiling.
//!
//! For an `m × n` matrix `A` and encrypted vector `v`:
//!
//! 1. `v` is coefficient-encoded and encrypted (augmented basis), one
//!    ciphertext per `N`-column tile,
//! 2. every row tile is encoded per Eq. 1 and lifted to NTT form
//!    (precomputable — the matrix is plaintext),
//! 3. **dot product**: NTT-domain multiply-accumulate across column tiles
//!    (pipeline stages 1–3),
//! 4. **rescale** by the special modulus (stage 4),
//! 5. **extract** the constant coefficient as an LWE ciphertext (stage 4),
//! 6. **pack** the `m` LWEs into `⌈m/N⌉` RLWE ciphertexts (stages 5–9).
//!
//! Steps 4–6 are one streaming pipeline, as on the accelerator: a row's
//! accumulators are rescaled and extracted in pooled scratch without
//! ever becoming a ciphertext, and [`Hmvp::multiply`] hands each result
//! straight to the pack's reduce buffer, computing rows in the order the
//! pack tree consumes them (DESIGN.md, "HMVP back half").
//!
//! Complexity is `O(m)` ciphertext operations — the paper's headline
//! advantage over batch-encoded HMVP's `O(m log N)` (§II-E). Together with
//! mini-batching this supports "data of any scale" (§V-B.3).

use crate::ciphertext::{LweCiphertext, RlweCiphertext};
use crate::encoding::CoeffEncoder;
use crate::encrypt::{Decryptor, Encryptor};
use crate::extract::{extract_lwe, rearrange_in_place, write_constant};
use crate::keys::GaloisKeys;
use crate::ops::{lift_plaintext_ntt, rescale, rescale_lanes_into};
use crate::pack::{pack_with, PackedRlwe};
use crate::params::ChamParams;
use crate::scratch::{DotScratch, ScratchPool};
use crate::{HeError, Result};
use cham_math::rns::{Form, RnsPoly};
use cham_math::simd::{row_product, row_product_add, DIGIT_PRODUCT_MAX_DIGITS};
use cham_telemetry::span::{phase, Span};
use rand::Rng;
use std::sync::Arc;

/// A dense row-major matrix over `Z_t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl Matrix {
    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<u64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(HeError::ShapeMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// A random matrix with entries below `t`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, t: u64, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(0..t)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    /// Panics when `i >= rows`.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Plain (reference) matrix-vector product mod `t`.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when `v.len() != cols`.
    pub fn mul_vector_mod(&self, v: &[u64], t: &cham_math::Modulus) -> Result<Vec<u64>> {
        if v.len() != self.cols {
            return Err(HeError::ShapeMismatch {
                expected: self.cols,
                got: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .fold(0u64, |acc, (&a, &x)| t.add(acc, t.mul(a, t.reduce(x))))
            })
            .collect())
    }
}

/// A matrix pre-encoded for HMVP: per row, per column tile, the Eq. 1
/// plaintext lifted to NTT form over the augmented basis.
///
/// The prepared tiles live behind an `Arc`, so `clone()` is a cheap handle
/// copy — a cache can hand the same NTT-form encoding to many workers
/// without duplicating `rows × col_tiles` polynomials.
#[derive(Debug, Clone)]
pub struct EncodedMatrix {
    rows: usize,
    cols: usize,
    /// `rows × col_tiles` prepared plaintexts (shared, immutable).
    tiles: Arc<Vec<Vec<RnsPoly>>>,
}

impl EncodedMatrix {
    /// Number of column tiles (`⌈cols/N⌉`).
    pub fn col_tiles(&self) -> usize {
        self.tiles.first().map_or(0, Vec::len)
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The prepared tiles, row-major.
    pub(crate) fn tiles(&self) -> &[Vec<RnsPoly>] {
        &self.tiles
    }
}

/// The packed result of an HMVP: `⌈m/N⌉` packed ciphertexts covering the
/// `m` output entries in order.
#[derive(Debug, Clone)]
pub struct HmvpResult {
    /// Packed outputs, each covering up to `N` entries.
    pub packed: Vec<PackedRlwe>,
    /// Total number of output entries (`m`).
    pub len: usize,
}

/// The HMVP engine: encodes, multiplies, and decodes.
///
/// The parameter set is held behind an `Arc`: [`Hmvp::new`] clones the
/// parameters once, while [`Hmvp::from_arc`] shares an existing handle —
/// so a session cache can mint one engine per worker at pointer cost.
#[derive(Debug, Clone)]
pub struct Hmvp {
    params: Arc<ChamParams>,
    coder: CoeffEncoder,
}

impl Hmvp {
    /// Creates an HMVP engine for the parameter set.
    pub fn new(params: &ChamParams) -> Self {
        Self::from_arc(Arc::new(params.clone()))
    }

    /// Creates an HMVP engine sharing an existing parameter handle
    /// without cloning the parameter set.
    pub fn from_arc(params: Arc<ChamParams>) -> Self {
        let coder = CoeffEncoder::from_arc(Arc::clone(&params));
        Self { params, coder }
    }

    /// The parameter set the engine operates over.
    #[inline]
    pub fn params(&self) -> &ChamParams {
        &self.params
    }

    /// The coefficient encoder in use.
    #[inline]
    pub fn encoder(&self) -> &CoeffEncoder {
        &self.coder
    }

    /// Encrypts a vector as `⌈len/N⌉` augmented-basis ciphertexts.
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] for an empty vector.
    pub fn encrypt_vector<R: Rng + ?Sized>(
        &self,
        v: &[u64],
        enc: &Encryptor,
        rng: &mut R,
    ) -> Result<Vec<RlweCiphertext>> {
        if v.is_empty() {
            return Err(HeError::InvalidParams("vector must be non-empty"));
        }
        let n = self.params.degree();
        v.chunks(n)
            .map(|chunk| {
                let pt = self.coder.encode_vector(chunk)?;
                Ok(enc.encrypt_augmented(&pt, rng))
            })
            .collect()
    }

    /// Pre-encodes a matrix: every row tile becomes an NTT-form plaintext
    /// (done once; reusable across many vectors).
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] for an empty matrix.
    pub fn encode_matrix(&self, a: &Matrix) -> Result<EncodedMatrix> {
        if a.rows() == 0 || a.cols() == 0 {
            return Err(HeError::InvalidParams("matrix must be non-empty"));
        }
        let n = self.params.degree();
        let aug = self.params.augmented_context();
        let tiles = (0..a.rows())
            .map(|i| {
                a.row(i)
                    .chunks(n)
                    .map(|chunk| {
                        let pt = self.coder.encode_row(chunk)?;
                        lift_plaintext_ntt(&pt, &self.params, aug)
                    })
                    .collect::<Result<Vec<_>>>()
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(EncodedMatrix {
            rows: a.rows(),
            cols: a.cols(),
            tiles: Arc::new(tiles),
        })
    }

    fn check_tiling(matrix: &EncodedMatrix, cts: &[RlweCiphertext]) -> Result<()> {
        if cts.len() != matrix.col_tiles() {
            return Err(HeError::ShapeMismatch {
                expected: matrix.col_tiles(),
                got: cts.len(),
            });
        }
        Ok(())
    }

    /// Computes the dot-product/extract phase on the calling thread: one
    /// LWE ciphertext per row (Alg. 1 lines 1–4). This is
    /// [`Hmvp::dot_products_parallel`] at a cap of 1.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when the ciphertext count differs from
    /// the matrix's column tiling.
    pub fn dot_products(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
    ) -> Result<Vec<LweCiphertext>> {
        self.dot_products_parallel(matrix, cts, 1)
    }

    /// Transforms the input ciphertexts to NTT form once; every matrix row
    /// reuses them (the pipeline keeps the vector resident in the NTT
    /// domain across the whole DOTPRODUCT stage, §V-B.1). A column tile
    /// (one ciphertext, six limb transforms) is the smallest unit that
    /// crosses threads, and only under the caller's `threads` cap.
    fn lift_inputs_ntt(cts: &[RlweCiphertext], threads: usize) -> Vec<RlweCiphertext> {
        // Request-scoped phase span: free when no recorder is installed
        // (see cham_telemetry::span), so the kernel stays uninstrumented
        // outside the serving stack's traced requests.
        let _span = Span::enter(phase::ENCODE);
        cham_pool::map_capped(cts, threads, |_, ct| {
            let mut c = ct.clone();
            c.to_ntt();
            c
        })
    }

    /// One row through pipeline stages 1–4 in `s`, nothing allocated:
    ///
    /// * **MAC** — per limb, one [`row_product`] per block of up to
    ///   [`DIGIT_PRODUCT_MAX_DIGITS`] column tiles ("a row residing in
    ///   multiple ciphertexts needs to be aggregated", §V-B.2): the first
    ///   block writes the canonical `a` sums into scratch and every later
    ///   one adds into them mod `q`, sums held in registers and no
    ///   accumulator plane,
    /// * **`a`** — inverse-transformed in scratch and rescaled straight
    ///   into `a_out` (normal basis, coefficient form),
    /// * **`b`** — only its constant coefficient survives extraction, and
    ///   coefficient 0 of a negacyclic INTT is `n⁻¹·Σ lanes`: the kernel
    ///   returns the lane sum as an inner product, and a scalar rescale per
    ///   limb replaces three transforms.
    ///
    /// Returns the rescaled `b₀` residues (one per normal-basis limb),
    /// borrowed from `s`. Bit-identical to `extract_lwe(&rescale(ct)?, 0)`
    /// up to the Eq. 3 rearrangement of `a`, which the caller applies (or
    /// cancels against the pack's own).
    ///
    /// # Errors
    /// [`cham_math::MathError::ContextMismatch`] unless every plaintext
    /// tile and ciphertext half is in NTT form over the augmented basis.
    fn dot_row_fused<'s>(
        &self,
        row_tiles: &[RnsPoly],
        cts_ntt: &[RlweCiphertext],
        s: &'s mut DotScratch,
        a_out: &mut RnsPoly,
    ) -> Result<&'s [u64]> {
        let aug = self.params.augmented_context();
        let (n, limbs) = (aug.degree(), aug.len());
        debug_assert_eq!(a_out.context(), self.params.ciphertext_context());
        let halves = cts_ntt.iter().flat_map(|ct| [ct.b(), ct.a()]);
        if row_tiles
            .iter()
            .chain(halves)
            .any(|x| x.context() != aug || x.form() != Form::Ntt)
        {
            return Err(cham_math::MathError::ContextMismatch.into());
        }
        let dot_span = Span::enter(phase::DOT);
        let (words, staged) = s.words[..limbs * (n + 2)].split_at_mut(limbs * n);
        // b₀ over the augmented basis, then over the normal basis, staged
        // just past the `a` lanes.
        let (b0_aug, b0) = staged.split_at_mut(limbs);
        let blocks = row_tiles
            .chunks(DIGIT_PRODUCT_MAX_DIGITS)
            .zip(cts_ntt.chunks(DIGIT_PRODUCT_MAX_DIGITS));
        for (l, (limb, table)) in words.chunks_exact_mut(n).zip(aug.tables()).enumerate() {
            let q = table.modulus();
            let mut sum = 0;
            for (k, (pts, cts)) in blocks.clone().enumerate() {
                let mut ops = [[&[][..]; DIGIT_PRODUCT_MAX_DIGITS]; 3];
                for (t, (pt, ct)) in pts.iter().zip(cts).enumerate() {
                    ops[0][t] = pt.limbs()[l].coeffs();
                    ops[1][t] = ct.a().limbs()[l].coeffs();
                    ops[2][t] = ct.b().limbs()[l].coeffs();
                }
                let [pt, ct_a, ct_b] = ops.each_ref().map(|o| &o[..pts.len()]);
                let kernel = if k == 0 { row_product } else { row_product_add };
                sum = q.add(sum, kernel(table.backend(), limb, pt, ct_a, ct_b, q));
            }
            b0_aug[l] = table.scale_by_n_inv(sum);
        }
        drop(dot_span);
        let _span = Span::enter(phase::RESCALE);
        cham_telemetry::counter_add!("cham_he.ops.rescale", 1);
        cham_telemetry::counter_add!("cham_he.extract.extract_lwe", 1);
        for (limb, table) in words.chunks_exact_mut(n).zip(aug.tables()) {
            table.inverse(limb);
        }
        rescale_lanes_into(aug, words, 0, a_out);
        for i in 0..limbs - 1 {
            aug.rescale_limb_into(i, &b0_aug[i..=i], &b0_aug[limbs - 1..], &mut b0[i..=i]);
        }
        Ok(&b0[..limbs - 1])
    }

    /// One row's LWE ciphertext: [`Hmvp::dot_row_fused`] plus the Eq. 3
    /// rearrangement, applied once in place.
    fn dot_row(&self, row_tiles: &[RnsPoly], cts_ntt: &[RlweCiphertext]) -> Result<LweCiphertext> {
        let mut a = RnsPoly::zero(self.params.ciphertext_context());
        let b = ScratchPool::global().with(self.params.augmented_context(), |s| {
            self.dot_row_fused(row_tiles, cts_ntt, s, &mut a)
                .map(<[u64]>::to_vec)
        })?;
        rearrange_in_place(&mut a);
        LweCiphertext::new(b, a)
    }

    /// The row as a pack leaf `(b₀·X⁰, a)`: `EXTRACTLWES` followed by
    /// `LWE-TO-RLWE` applies the Eq. 3 involution twice, so the fused path
    /// applies it not at all.
    fn dot_row_leaf(
        &self,
        row_tiles: &[RnsPoly],
        cts_ntt: &[RlweCiphertext],
        s: &mut DotScratch,
        leaf: &mut RlweCiphertext,
    ) -> Result<()> {
        let b0 = self.dot_row_fused(row_tiles, cts_ntt, s, &mut leaf.a)?;
        write_constant(&mut leaf.b, b0);
        Ok(())
    }

    /// The oracle for [`Hmvp::dot_row`]: strict per-tile multiply/add, then
    /// the public `rescale` + `extract_lwe(_, 0)` composition on a
    /// materialised ciphertext.
    fn dot_row_unfused(
        &self,
        row_tiles: &[RnsPoly],
        cts_ntt: &[RlweCiphertext],
    ) -> Result<LweCiphertext> {
        let mut acc: Option<(RnsPoly, RnsPoly)> = None;
        for (pt_ntt, ct) in row_tiles.iter().zip(cts_ntt) {
            let b = ct.b().mul_pointwise(pt_ntt)?;
            let a = ct.a().mul_pointwise(pt_ntt)?;
            acc = Some(match acc {
                Some((xb, xa)) => (xb.add(&b)?, xa.add(&a)?),
                None => (b, a),
            });
        }
        let (b, a) = acc.expect("at least one column tile");
        let rescaled = rescale(&RlweCiphertext::new(b, a)?, &self.params)?;
        extract_lwe(&rescaled, 0)
    }

    /// Dot-product phase through the oracle path: strict per-tile
    /// multiply/add (no deferred reduction, two allocations per row×tile),
    /// a materialised product ciphertext, six inverse transforms and the
    /// public `rescale` + `extract_lwe` per row. Kept for the equivalence
    /// tests and the `fig8_hmvp` ablation column; results are bit-identical
    /// to [`Hmvp::dot_products`].
    ///
    /// # Errors
    /// Same conditions as [`Hmvp::dot_products`].
    #[doc(hidden)]
    pub fn dot_products_unfused(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
    ) -> Result<Vec<LweCiphertext>> {
        Self::check_tiling(matrix, cts)?;
        let cts_ntt = Self::lift_inputs_ntt(cts, 1);
        matrix
            .tiles
            .iter()
            .map(|row_tiles| self.dot_row_unfused(row_tiles, &cts_ntt))
            .collect()
    }

    /// Multi-threaded dot-product phase: the input lift fans out over
    /// column tiles and the rows over `threads` scoped threads, the caller
    /// among them (`cham_pool::map_capped`; the multi-thread host side of
    /// Fig. 1b, and the honest way to measure a parallel CPU baseline).
    /// Results are bit-identical at every thread count — every row's
    /// reduction runs whole on one thread — and `threads ≤ 1` spawns none.
    ///
    /// # Errors
    /// Same conditions as [`Hmvp::dot_products`].
    pub fn dot_products_parallel(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        threads: usize,
    ) -> Result<Vec<LweCiphertext>> {
        Self::check_tiling(matrix, cts)?;
        let cts_ntt = Self::lift_inputs_ntt(cts, threads);
        cham_pool::map_capped(&matrix.tiles, threads, |_, row_tiles| {
            self.dot_row(row_tiles, &cts_ntt)
        })
        .into_iter()
        .collect()
    }

    /// Full HMVP (Alg. 1): dot products, extraction, and packing, fanned
    /// out over the process thread budget (`cham_pool::current_threads`).
    ///
    /// # Errors
    /// Propagates shape mismatches and missing Galois keys.
    pub fn multiply(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        gkeys: &GaloisKeys,
    ) -> Result<HmvpResult> {
        self.multiply_parallel(matrix, cts, gkeys, cham_pool::current_threads())
    }

    /// Full HMVP on at most `threads` threads, the caller among them — the
    /// cap governs every fan-out inside the call (the lift's column tiles,
    /// then rows / pack subtrees), and `threads = 1` spawns no thread.
    /// Each `N`-row block is one `PACKLWES`; its leaves are the block's
    /// rows, computed on demand in the order the pack tree consumes them,
    /// so a thread owns one contiguous subtree end to end —
    /// MAC, rescale, extract and every reduction beneath the subtree root
    /// (see [`pack_with`]). No LWE is ever stored.
    ///
    /// # Errors
    /// Propagates shape mismatches and missing Galois keys.
    pub fn multiply_parallel(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        gkeys: &GaloisKeys,
        threads: usize,
    ) -> Result<HmvpResult> {
        cham_telemetry::counter_add!("cham_he.hmvp.multiply", 1);
        Self::check_tiling(matrix, cts)?;
        let cts_ntt = Self::lift_inputs_ntt(cts, threads);
        let packed = matrix
            .tiles
            .chunks(self.params.degree())
            .map(|rows| {
                pack_with(
                    rows.len(),
                    threads,
                    |i, leaf, s| self.dot_row_leaf(&rows[i], &cts_ntt, s, leaf),
                    gkeys,
                    &self.params,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(HmvpResult {
            packed,
            len: matrix.rows,
        })
    }

    /// Decrypts and decodes an HMVP result into the `m` output values.
    ///
    /// # Errors
    /// Decode-shape errors from the packing layer, and
    /// [`HeError::ShapeMismatch`] when the packed ciphertexts hold fewer
    /// than `result.len` values.
    pub fn decrypt_result(&self, result: &HmvpResult, dec: &Decryptor) -> Result<Vec<u64>> {
        // Sized by what the ciphertexts hold, not by `len`: both may have
        // come off the wire, and only the former is bounded by `N` each.
        let mut out = Vec::new();
        for packed in &result.packed {
            let pt = dec.decrypt(&packed.ciphertext);
            out.extend(packed.decode(&pt, &self.params)?);
        }
        if out.len() < result.len {
            return Err(HeError::ShapeMismatch {
                expected: result.len,
                got: out.len(),
            });
        }
        out.truncate(result.len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn setup() -> (
        ChamParams,
        SecretKey,
        Encryptor,
        Decryptor,
        GaloisKeys,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2002);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        (params, sk, enc, dec, gkeys, rng)
    }

    fn run_hmvp(m: usize, n_cols: usize) {
        let (params, _, enc, dec, gkeys, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(m, n_cols, t.value(), &mut rng);
        let v: Vec<u64> = (0..n_cols).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let result = hmvp.multiply(&em, &cts, &gkeys).unwrap();
        let got = hmvp.decrypt_result(&result, &dec).unwrap();
        let expect = a.mul_vector_mod(&v, t).unwrap();
        assert_eq!(got, expect, "m={m} n={n_cols}");
    }

    #[test]
    fn square_small() {
        run_hmvp(8, 8);
    }

    #[test]
    fn tall_matrix() {
        run_hmvp(64, 16);
    }

    #[test]
    fn wide_matrix_multiple_column_tiles() {
        // cols > N (=256 in test params): vector spans 3 ciphertexts.
        run_hmvp(8, 700);
    }

    #[test]
    fn rows_exceed_degree_multiple_packs() {
        // m > N: two packed outputs.
        run_hmvp(300, 16);
    }

    #[test]
    fn single_row_and_column() {
        run_hmvp(1, 1);
    }

    #[test]
    fn full_degree_square() {
        run_hmvp(256, 256);
    }

    #[test]
    fn matrix_validation() {
        let t = cham_math::Modulus::new(65537).unwrap();
        assert!(Matrix::from_data(2, 3, vec![0; 5]).is_err());
        let m = Matrix::from_data(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(m.row(1), &[3, 4]);
        assert!(m.mul_vector_mod(&[1], &t).is_err());
        assert_eq!(m.mul_vector_mod(&[1, 1], &t).unwrap(), vec![3, 7]);
    }

    #[test]
    fn shape_mismatch_between_matrix_and_ciphertexts() {
        let (params, _, enc, _, gkeys, mut rng) = setup();
        let a = Matrix::random(4, 300, 65537, &mut rng); // 2 column tiles
        let hmvp = Hmvp::new(&params);
        let em = hmvp.encode_matrix(&a).unwrap();
        let v = vec![1u64; 256]; // only 1 ciphertext
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        assert!(hmvp.multiply(&em, &cts, &gkeys).is_err());
    }

    #[test]
    fn empty_inputs_rejected() {
        let (params, _, enc, _, _, mut rng) = setup();
        let hmvp = Hmvp::new(&params);
        assert!(hmvp.encrypt_vector(&[], &enc, &mut rng).is_err());
        let empty = Matrix::from_data(0, 0, vec![]).unwrap();
        assert!(hmvp.encode_matrix(&empty).is_err());
    }

    #[test]
    fn multiply_parallel_matches_serial() {
        let (params, _, enc, dec, gkeys, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(24, 32, t.value(), &mut rng);
        let v: Vec<u64> = (0..32).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let par = hmvp.multiply_parallel(&em, &cts, &gkeys, 3).unwrap();
        let got = hmvp.decrypt_result(&par, &dec).unwrap();
        assert_eq!(got, a.mul_vector_mod(&v, t).unwrap());
    }

    #[test]
    fn parallel_dot_products_match_serial() {
        let (params, _, enc, _, _, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(37, 300, t.value(), &mut rng); // odd row count, 2 tiles
        let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let serial = hmvp.dot_products(&em, &cts).unwrap();
        for threads in [1usize, 2, 4, 64] {
            let par = hmvp.dot_products_parallel(&em, &cts, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
        // Shape mismatch propagates from workers too.
        assert!(hmvp.dot_products_parallel(&em, &cts[..1], 2).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The fused row tail against the oracle path — strict MAC, a
        /// materialised product, `rescale` + `extract_lwe(_, 0)` — lane
        /// for lane, and the pack leaf against `lwe_to_rlwe` of the
        /// oracle's LWE (the rearrange-involution cancellation).
        #[test]
        fn fused_row_tail_matches_rescale_then_extract(
            rows in 1usize..10,
            cols in proptest::sample::select(vec![1usize, 255, 256, 257, 700, 4096, 4353]),
            seed in any::<u64>(),
        ) {
            let (params, _, enc, _, _, _) = setup();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = params.plain_modulus();
            let a = Matrix::random(rows, cols, t.value(), &mut rng);
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
            let hmvp = Hmvp::new(&params);
            let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
            let em = hmvp.encode_matrix(&a).unwrap();
            let oracle = hmvp.dot_products_unfused(&em, &cts).unwrap();
            prop_assert!(hmvp.dot_products(&em, &cts).unwrap() == oracle, "lwe path");
            let cts_ntt = Hmvp::lift_inputs_ntt(&cts, 1);
            // One dirty leaf reused for every row: the tail must overwrite
            // every coefficient.
            let mut leaf = crate::extract::lwe_to_rlwe(&oracle[0]);
            leaf.b = leaf.a.clone();
            for (row_tiles, lwe) in em.tiles().iter().zip(&oracle) {
                ScratchPool::global()
                    .with(params.augmented_context(), |s| {
                        hmvp.dot_row_leaf(row_tiles, &cts_ntt, s, &mut leaf)
                    })
                    .unwrap();
                prop_assert!(leaf == crate::extract::lwe_to_rlwe(lwe), "leaf path");
            }
        }
    }

    #[test]
    fn noise_budget_survives_full_pipeline() {
        let (params, _, enc, dec, gkeys, mut rng) = setup();
        let t = params.plain_modulus();
        let n = params.degree();
        let a = Matrix::random(n, n, t.value(), &mut rng);
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let result = hmvp.multiply(&em, &cts, &gkeys).unwrap();
        let report = dec.decrypt_with_noise(&result.packed[0].ciphertext);
        assert!(report.budget_bits > 0.0, "budget {}", report.budget_bits);
    }
}
