//! Homomorphic matrix-vector product (paper Alg. 1), with tiling.
//!
//! For an `m × n` matrix `A` and encrypted vector `v`:
//!
//! 1. `v` is coefficient-encoded and encrypted (augmented basis, NTT
//!    form), one ciphertext per `N`-column tile,
//! 2. every row tile is encoded per Eq. 1 and lifted to NTT form
//!    (precomputable — the matrix is plaintext),
//! 3. **dot product**: NTT-domain multiply-accumulate across column tiles
//!    (pipeline stages 1–3), reading the input ciphertexts' limbs in
//!    place,
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
use crate::extract::{extract_lwe, rearrange_in_place};
use crate::keys::GaloisKeys;
use crate::ops::{rescale, rescale_lanes_into};
use crate::pack::{pack_with, PackOperand, PackedRlwe};
use crate::params::ChamParams;
use crate::scratch::{DotScratch, ScratchPool};
use crate::{HeError, Result};
use cham_math::rns::{Form, RnsPoly};
use cham_math::simd::{row_product, row_product_add, DIGIT_PRODUCT_MAX_DIGITS};
use cham_math::Poly;
use cham_telemetry::span::{phase, Span};
use rand::Rng;
use std::sync::Arc;

/// Rows per MAC block: each tile of the input is read from memory
/// once per `ROW_BLOCK` rows instead of once per row. Sized on `hmvp_wide`'s
/// row-product loop (8 rows × 64 tiles at N = 4096) on a 2-core AVX-512 VM
/// with 2 MiB of L2 per core: blocks of 1, 2, 4 and 8 rows took 9.1,
/// 7.1–7.9, 6.5–6.8 and 5.6–5.8 ms. Eight rows' `a` limbs (256 KB) and one
/// tile block's input limb (up to 1 MB) stay in L2 across the block.
pub(crate) const ROW_BLOCK: usize = 8;

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

    /// Encrypts a vector as `⌈len/N⌉` augmented-basis ciphertexts in NTT
    /// form, the form [`Hmvp::multiply`] reads.
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
        let tiles = (0..a.rows())
            .map(|i| {
                a.row(i)
                    .chunks(n)
                    .map(|chunk| self.encode_tile(chunk))
                    .collect()
            })
            .collect();
        Ok(EncodedMatrix {
            rows: a.rows(),
            cols: a.cols(),
            tiles: Arc::new(tiles),
        })
    }

    /// One row tile of [`Hmvp::encode_matrix`], each limb written in one
    /// pass straight from the row chunk and transformed in place: the
    /// Eq. 1 plaintext (`a_0` at `X^0`, `−a_j mod t` at `X^{N−j}`),
    /// centred into `(−t/2, t/2]` and lifted into `[0, q_i)`. This is
    /// [`CoeffEncoder::encode_row`] followed by
    /// [`crate::ops::lift_plaintext_ntt`], bit for bit, without their
    /// per-tile temporaries. `t` is below every prime of the basis (a
    /// [`ChamParams`] invariant), so the lift of a negative value `v − t`
    /// is `q_i − (t − v)`.
    fn encode_tile(&self, chunk: &[u64]) -> RnsPoly {
        let aug = self.params.augmented_context();
        let t = self.params.plain_modulus();
        let half = t.value() / 2;
        let n = aug.degree();
        debug_assert!(!chunk.is_empty() && chunk.len() <= n);
        let reduced = |x: u64| if x < t.value() { x } else { t.reduce(x) };
        let limbs = aug
            .moduli()
            .iter()
            .zip(aug.tables())
            .map(|(q, table)| {
                let lift = |v: u64| {
                    if v > half {
                        q.value() - (t.value() - v)
                    } else {
                        v
                    }
                };
                let mut limb = vec![0u64; n];
                limb[0] = lift(reduced(chunk[0]));
                // Entry j ≥ 1 lands at N − j: the tail of the limb,
                // walked backwards.
                for (c, &x) in limb[n + 1 - chunk.len()..]
                    .iter_mut()
                    .rev()
                    .zip(&chunk[1..])
                {
                    *c = lift(t.neg(reduced(x)));
                }
                table.forward(&mut limb);
                Poly::from_coeffs(limb)
            })
            .collect();
        RnsPoly::from_limbs(aug, limbs, Form::Ntt).expect("one degree-N limb per prime")
    }

    /// Everything a product needs of its operands, checked before any
    /// work: one ciphertext per column tile, every ciphertext over this
    /// engine's augmented basis and in NTT form (the MAC reads its limbs
    /// in place), and every matrix tile in NTT form over that basis.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] for a ciphertext count other than the
    /// matrix's column tiling, [`cham_math::MathError::ContextMismatch`]
    /// for an operand over another basis or ring degree, and
    /// [`HeError::Incompatible`] for a coefficient-form ciphertext.
    fn check_inputs(&self, matrix: &EncodedMatrix, cts: &[RlweCiphertext]) -> Result<()> {
        if cts.len() != matrix.col_tiles() {
            return Err(HeError::ShapeMismatch {
                expected: matrix.col_tiles(),
                got: cts.len(),
            });
        }
        let aug = self.params.augmented_context();
        let halves = || cts.iter().flat_map(|ct| [ct.b(), ct.a()]);
        let mut tiles = matrix.tiles.iter().flatten();
        if halves().any(|x| x.context() != aug)
            || tiles.any(|pt| pt.context() != aug || pt.form() != Form::Ntt)
        {
            return Err(cham_math::MathError::ContextMismatch.into());
        }
        if halves().any(|x| x.form() != Form::Ntt) {
            return Err(HeError::Incompatible(
                "hmvp input ciphertexts must be in NTT form",
            ));
        }
        Ok(())
    }

    /// Computes the dot-product/extract phase on the calling thread: one
    /// LWE ciphertext per row (Alg. 1 lines 1–4), blocks of `ROW_BLOCK`
    /// rows over the input ciphertexts, in a plain loop: nothing is
    /// spawned.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when the ciphertext count differs from
    /// the matrix's column tiling,
    /// [`cham_math::MathError::ContextMismatch`] for an operand over
    /// another basis or ring degree, and [`HeError::Incompatible`] for a
    /// coefficient-form ciphertext — all before any work is done.
    pub fn dot_products(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
    ) -> Result<Vec<LweCiphertext>> {
        self.check_inputs(matrix, cts)?;
        let mut lwes = Vec::with_capacity(matrix.tiles.len());
        for rows in matrix.tiles.chunks(ROW_BLOCK) {
            lwes.extend(self.dot_rows_lwe(rows, cts)?);
        }
        Ok(lwes)
    }

    /// One block of up to [`ROW_BLOCK`] rows through pipeline stages 1–4
    /// in `s`, nothing allocated:
    ///
    /// * **MAC** — per limb and per block of up to
    ///   [`DIGIT_PRODUCT_MAX_DIGITS`] column tiles, one [`row_product`] per
    ///   row ("a row residing in multiple ciphertexts needs to be
    ///   aggregated", §V-B.2): the tile block's input limbs, read in place
    ///   from the NTT-form ciphertexts, come from memory for the first row
    ///   and from cache for the others. The first tile block writes each
    ///   row's canonical `a` sums into its plane and every later one adds
    ///   into them mod `q`, sums held in registers and no accumulator
    ///   plane,
    /// * **`a`** — inverse-transformed in scratch and rescaled straight
    ///   into the row's item of `a_out` (normal basis, coefficient form),
    /// * **`b`** — only its constant coefficient survives extraction, and
    ///   coefficient 0 of a negacyclic INTT is `n⁻¹·Σ lanes`: the kernel
    ///   returns the lane sum as an inner product, and no transform runs.
    ///
    /// Returns the unrescaled `b₀` residues over the augmented basis,
    /// `limbs` per row, borrowed from `s`: a pack leaf keeps them as they
    /// are ([`Hmvp::dot_rows_leaves`]), and the LWE path rescales them
    /// with one scalar rescale per limb. With that rescale, bit-identical,
    /// row by row, to `extract_lwe(&rescale(ct)?, 0)` up to the Eq. 3
    /// rearrangement of `a`, which the caller applies (or cancels against
    /// the pack's own). The caller has run [`Hmvp::check_inputs`].
    fn dot_rows_fused<'s, 'o, R: AsRef<[RnsPoly]>>(
        &self,
        rows: &[R],
        cts: &[RlweCiphertext],
        s: &'s mut DotScratch,
        a_out: impl IntoIterator<Item = &'o mut RnsPoly>,
    ) -> &'s [u64] {
        let aug = self.params.augmented_context();
        let (n, limbs) = (aug.degree(), aug.len());
        let count = rows.len();
        debug_assert!(count <= ROW_BLOCK);
        let dot_span = Span::enter(phase::DOT);
        // b₀ over the augmented basis, staged just past the `a` planes.
        let (planes, b0_aug) = s.words[..count * limbs * (n + 1)].split_at_mut(count * limbs * n);
        let tiles = cts.len();
        for (l, table) in aug.tables().iter().enumerate() {
            let q = table.modulus();
            let mut sums = [0; ROW_BLOCK];
            for (k, first) in (0..tiles).step_by(DIGIT_PRODUCT_MAX_DIGITS).enumerate() {
                let block = first..tiles.min(first + DIGIT_PRODUCT_MAX_DIGITS);
                let width = block.len();
                let mut ops = [[&[][..]; DIGIT_PRODUCT_MAX_DIGITS]; 3];
                for (t, ct) in cts[block.clone()].iter().enumerate() {
                    ops[1][t] = ct.a().limbs()[l].coeffs();
                    ops[2][t] = ct.b().limbs()[l].coeffs();
                }
                let kernel = if k == 0 { row_product } else { row_product_add };
                let row_planes = rows.iter().zip(planes.chunks_exact_mut(limbs * n));
                for ((row, plane), sum) in row_planes.zip(&mut sums) {
                    for (t, pt) in row.as_ref()[block.clone()].iter().enumerate() {
                        ops[0][t] = pt.limbs()[l].coeffs();
                    }
                    let [pt, ct_a, ct_b] = ops.each_ref().map(|o| &o[..width]);
                    let limb = &mut plane[l * n..(l + 1) * n];
                    *sum = q.add(*sum, kernel(table.backend(), limb, pt, ct_a, ct_b, q));
                }
            }
            for (b0_row, &sum) in b0_aug.chunks_exact_mut(limbs).zip(&sums) {
                b0_row[l] = table.scale_by_n_inv(sum);
            }
        }
        drop(dot_span);
        let _span = Span::enter(phase::RESCALE);
        cham_telemetry::counter_add!("cham_he.ops.rescale", count as u64);
        cham_telemetry::counter_add!("cham_he.extract.extract_lwe", count as u64);
        for (plane, a_out) in planes.chunks_exact_mut(limbs * n).zip(a_out) {
            debug_assert_eq!(a_out.context(), self.params.ciphertext_context());
            for (limb, table) in plane.chunks_exact_mut(n).zip(aug.tables()) {
                table.inverse(limb);
            }
            rescale_lanes_into(aug, plane, 0, a_out);
        }
        b0_aug
    }

    /// A block of rows' LWE ciphertexts: [`Hmvp::dot_rows_fused`] plus the
    /// Eq. 3 rearrangement of each mask, applied once in place.
    fn dot_rows_lwe(
        &self,
        rows: &[Vec<RnsPoly>],
        cts: &[RlweCiphertext],
    ) -> Result<Vec<LweCiphertext>> {
        let ctx = self.params.ciphertext_context();
        let aug = self.params.augmented_context();
        let mut masks: Vec<RnsPoly> = rows.iter().map(|_| RnsPoly::zero(ctx)).collect();
        ScratchPool::global().with(aug, |s| {
            let b0 = self.dot_rows_fused(rows, cts, s, &mut masks);
            masks
                .into_iter()
                .zip(b0.chunks_exact(aug.len()))
                .map(|(mut a, b0_aug)| {
                    rearrange_in_place(&mut a);
                    let (&last, b0_q) = b0_aug.split_last().expect("an augmented basis");
                    let b = b0_q
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| {
                            let mut b = 0;
                            aug.rescale_limb_into(i, &[x], &[last], std::slice::from_mut(&mut b));
                            b
                        })
                        .collect();
                    LweCiphertext::new(b, a)
                })
                .collect()
        })
    }

    /// Rows `rows[idx[k]]` as pack leaves in `leaves[k]`: `a` rescaled
    /// into the normal basis over every word, and `b` the row's
    /// unrescaled `b₀` over `Q·p` — already `p` times the `b₀` a rescale
    /// would give, up to that rescale's rounding, which the pack's one
    /// mod-down does instead. `b₀·X⁰` in NTT form is `b₀` in every slot,
    /// and a leaf holds it in slot 0 of each limb. `EXTRACTLWES`
    /// followed by `LWE-TO-RLWE` applies the Eq. 3 involution twice, so
    /// the fused path applies it not at all.
    fn dot_rows_leaves(
        &self,
        rows: &[Vec<RnsPoly>],
        idx: &[usize],
        cts: &[RlweCiphertext],
        s: &mut DotScratch,
        leaves: &mut [PackOperand],
    ) {
        let mut block: [&[RnsPoly]; ROW_BLOCK] = [&[]; ROW_BLOCK];
        for (tiles, &i) in block.iter_mut().zip(idx) {
            *tiles = &rows[i];
        }
        let masks = leaves.iter_mut().map(|leaf| &mut leaf.a);
        let b0 = self.dot_rows_fused(&block[..idx.len()], cts, s, masks);
        let b0 = b0.chunks_exact(self.params.augmented_context().len());
        for (leaf, b0) in leaves.iter_mut().zip(b0) {
            for (limb, &r) in leaf.b.limbs_mut().iter_mut().zip(b0) {
                limb.coeffs_mut()[0] = r;
            }
        }
    }

    /// One row's product ciphertext by the book: strict per-tile
    /// multiply/add over the augmented basis, NTT form.
    fn dot_row_product(
        &self,
        row_tiles: &[RnsPoly],
        cts: &[RlweCiphertext],
    ) -> Result<RlweCiphertext> {
        let mut acc: Option<(RnsPoly, RnsPoly)> = None;
        for (pt_ntt, ct) in row_tiles.iter().zip(cts) {
            let b = ct.b().mul_pointwise(pt_ntt)?;
            let a = ct.a().mul_pointwise(pt_ntt)?;
            acc = Some(match acc {
                Some((xb, xa)) => (xb.add(&b)?, xa.add(&a)?),
                None => (b, a),
            });
        }
        let (b, a) = acc.expect("at least one column tile");
        RlweCiphertext::new(b, a)
    }

    /// The oracle for one row of [`Hmvp::dot_rows_fused`]: the row's
    /// product ciphertext, then the public `rescale` + `extract_lwe(_, 0)`
    /// composition on it.
    fn dot_row_unfused(
        &self,
        row_tiles: &[RnsPoly],
        cts: &[RlweCiphertext],
    ) -> Result<LweCiphertext> {
        let product = self.dot_row_product(row_tiles, cts)?;
        extract_lwe(&rescale(&product, &self.params)?, 0)
    }

    /// Dot-product phase through the oracle path: strict per-tile
    /// multiply/add (no deferred reduction, two allocations per row×tile),
    /// a materialised product ciphertext, six inverse transforms and the
    /// public `rescale` + `extract_lwe` per row.
    /// Kept for the equivalence tests and the `fig8_hmvp` ablation column;
    /// results are bit-identical to [`Hmvp::dot_products`].
    ///
    /// # Errors
    /// Same conditions as [`Hmvp::dot_products`].
    #[doc(hidden)]
    pub fn dot_products_unfused(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
    ) -> Result<Vec<LweCiphertext>> {
        self.check_inputs(matrix, cts)?;
        matrix
            .tiles
            .iter()
            .map(|row_tiles| self.dot_row_unfused(row_tiles, cts))
            .collect()
    }

    /// Full HMVP (Alg. 1): dot products, extraction, and packing, fanned
    /// out over the process thread budget (`cham_pool::current_threads`).
    ///
    /// # Errors
    /// Same conditions as [`Hmvp::multiply_parallel`].
    pub fn multiply(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        gkeys: &GaloisKeys,
    ) -> Result<HmvpResult> {
        self.multiply_parallel(matrix, cts, gkeys, cham_pool::current_threads())
    }

    /// Full HMVP on at most `threads` threads, the caller among them — the
    /// cap governs every fan-out inside the call (the pack subtrees), and
    /// `threads = 1` spawns no thread.
    ///
    /// The MAC reads the NTT-form input ciphertexts in place: no
    /// transform, no copy. Each `N`-row block is one `PACKLWES` whose
    /// leaves are the block's rows, computed on demand in the order the
    /// pack tree consumes them, `ROW_BLOCK` tree positions at a time so
    /// that each tile of the input is read once per `ROW_BLOCK` rows.
    /// A thread owns one contiguous subtree
    /// end to end — MAC, rescale, extract and every reduction beneath the
    /// subtree root (see `pack_with`). No LWE is ever stored, and after
    /// a warm-up a call draws all its working memory from the scratch
    /// pool.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`],
    /// [`cham_math::MathError::ContextMismatch`] and
    /// [`HeError::Incompatible`] as for [`Hmvp::dot_products`], before
    /// any work is done; missing Galois keys from the pack.
    pub fn multiply_parallel(
        &self,
        matrix: &EncodedMatrix,
        cts: &[RlweCiphertext],
        gkeys: &GaloisKeys,
        threads: usize,
    ) -> Result<HmvpResult> {
        cham_telemetry::counter_add!("cham_he.hmvp.multiply", 1);
        self.check_inputs(matrix, cts)?;
        let packed = matrix
            .tiles
            .chunks(self.params.degree())
            .map(|rows| {
                let leaves = |idx: &[usize], leaves: &mut [PackOperand], s: &mut DotScratch| {
                    self.dot_rows_leaves(rows, idx, cts, s, leaves);
                    Ok(())
                };
                pack_with(rows.len(), threads, leaves, gkeys, &self.params)
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
    fn dot_products_reject_a_tile_count_mismatch() {
        let (params, _, enc, _, _, mut rng) = setup();
        let t = params.plain_modulus();
        let a = Matrix::random(37, 300, t.value(), &mut rng); // 2 tiles
        let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        assert!(matches!(
            hmvp.dot_products(&em, &cts[..1]),
            Err(HeError::ShapeMismatch { .. })
        ));
    }

    /// Row `i`'s unrescaled `b₀` over the augmented basis, from the
    /// oracle's product ciphertext.
    fn product_b0(hmvp: &Hmvp, em: &EncodedMatrix, cts: &[RlweCiphertext], i: usize) -> Vec<u64> {
        let mut b = hmvp.dot_row_product(&em.tiles()[i], cts).unwrap().b;
        b.to_coeff();
        b.limbs().iter().map(|limb| limb.coeffs()[0]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The fused row tail against the oracle path — strict MAC, a
        /// materialised product, `rescale` + `extract_lwe(_, 0)` — lane
        /// for lane, and the pack leaf against the oracle: its mask is
        /// `lwe_to_rlwe` of the oracle's LWE (the rearrange-involution
        /// cancellation), its `b` the product's unrescaled `b₀` in slot 0
        /// of each limb (a leaf's constant `b`, see `pack::PackOperand`).
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
            // Dirty leaves reused for every block, rows taken in reverse (a
            // block's rows need not be adjacent): the tail must overwrite
            // every word.
            let dirty = PackOperand {
                b: hmvp.dot_row_product(&em.tiles()[0], &cts).unwrap().b,
                a: crate::extract::lwe_to_rlwe(&oracle[0]).b,
            };
            let mut leaves = vec![dirty; ROW_BLOCK];
            let order: Vec<usize> = (0..rows).rev().collect();
            for idx in order.chunks(ROW_BLOCK) {
                let leaves = &mut leaves[..idx.len()];
                ScratchPool::global().with(params.augmented_context(), |s| {
                    hmvp.dot_rows_leaves(em.tiles(), idx, &cts, s, leaves);
                });
                for (leaf, &i) in leaves.iter().zip(idx) {
                    prop_assert!(leaf.a == crate::extract::lwe_to_rlwe(&oracle[i]).a, "leaf mask");
                    let b0 = product_b0(&hmvp, &em, &cts, i);
                    let slot0 = |(limb, &r): (&Poly, &u64)| limb.coeffs()[0] == r;
                    prop_assert!(leaf.b.form() == Form::Ntt, "leaf b form");
                    prop_assert!(leaf.b.limbs().iter().zip(&b0).all(slot0), "leaf b");
                }
            }
        }
    }

    /// The one-pass tile encode is `encode_row` then `lift_plaintext_ntt`,
    /// bit for bit, on every backend: widths around the ring degree and
    /// entries at the centring edges (and past `t`, which the encode
    /// reduces), each entry at every position of some row.
    #[test]
    fn fused_encode_matches_encode_row_then_lift() {
        let restore = cham_math::Backend::active();
        for backend in cham_math::Backend::all_available() {
            // Tables capture the backend at construction.
            cham_math::Backend::force(backend);
            let params = ChamParams::insecure_test_default().unwrap();
            let (n, t) = (params.degree(), params.plain_modulus().value());
            let hmvp = Hmvp::new(&params);
            let entries = [0, 1, t / 2, t.div_ceil(2), t - 1, t, u64::MAX];
            for cols in [1, n - 1, n, n + 1, 3 * n + 5] {
                let rows = entries.len();
                let data = (0..rows * cols)
                    .map(|k| entries[(k / cols + k % cols) % rows])
                    .collect();
                let a = Matrix::from_data(rows, cols, data).unwrap();
                let em = hmvp.encode_matrix(&a).unwrap();
                for (i, tiles) in em.tiles().iter().enumerate() {
                    let chunks: Vec<_> = a.row(i).chunks(n).collect();
                    assert_eq!(tiles.len(), chunks.len());
                    for (tile, chunk) in tiles.iter().zip(chunks) {
                        let pt = hmvp.coder.encode_row(chunk).unwrap();
                        let want = crate::ops::lift_plaintext_ntt(
                            &pt,
                            &params,
                            params.augmented_context(),
                        )
                        .unwrap();
                        assert!(*tile == want, "backend={backend} cols={cols} row={i}");
                    }
                }
            }
        }
        cham_math::Backend::force(restore);
    }

    /// Row blocks that are partial, exact and spilling, a tile count that
    /// spills past one row-product call, and pack caps whose subtree spans
    /// (cap 3 → span 4 of 8, 8 of 32) are not multiples of [`ROW_BLOCK`]:
    /// every LWE matches the oracle path and every packed ciphertext the
    /// level-by-level pack of leaves made of those LWEs' masks and the
    /// products' unrescaled `b₀`.
    #[test]
    fn row_block_edges_match_unfused_and_level_order() {
        let (params, _, enc, _, gkeys, mut rng) = setup();
        let (n, t) = (params.degree(), params.plain_modulus().value());
        let hmvp = Hmvp::new(&params);
        for tiles in [1usize, 17] {
            let cols = (tiles - 1) * n + 1;
            let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t)).collect();
            let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
            for rows in [
                1,
                ROW_BLOCK - 1,
                ROW_BLOCK,
                ROW_BLOCK + 1,
                2 * ROW_BLOCK + 3,
            ] {
                let em = hmvp
                    .encode_matrix(&Matrix::random(rows, cols, t, &mut rng))
                    .unwrap();
                let oracle = hmvp.dot_products_unfused(&em, &cts).unwrap();
                let lwes = hmvp.dot_products(&em, &cts).unwrap();
                assert!(lwes == oracle, "rows={rows} tiles={tiles}: LWEs");
                let leaves: Vec<_> = (0..rows)
                    .map(|i| (product_b0(&hmvp, &em, &cts, i), oracle[i].clone()))
                    .collect();
                let want =
                    crate::oracle::pack_leaves_level_order(&leaves, &gkeys, &params).unwrap();
                for cap in 1..=4 {
                    let case = format!("rows={rows} tiles={tiles} cap={cap}");
                    let got = hmvp.multiply_parallel(&em, &cts, &gkeys, cap).unwrap();
                    assert_eq!(got.packed.len(), 1, "{case}");
                    let got = &got.packed[0];
                    assert!(got.ciphertext == want.ciphertext, "{case}: packed");
                    assert_eq!((got.log_count, got.count), (want.log_count, want.count));
                }
            }
        }
    }

    /// Operands over the wrong basis or ring degree, and coefficient-form
    /// inputs, are typed errors on every entry point, raised before any
    /// work — also when only the last tile is wrong — and they leave the
    /// pool serving the next well-formed call the bytes a fresh engine
    /// computed.
    #[test]
    fn malformed_operands_fail_typed_before_the_lift() {
        use crate::params::ChamParamsBuilder;
        let (params, _, enc, _, gkeys, mut rng) = setup();
        let t = params.plain_modulus().value();
        let cols = 2 * params.degree() + 5; // 3 column tiles
        let a = Matrix::random(5, cols, t, &mut rng);
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t)).collect();
        let fresh = Hmvp::new(&params);
        let em = fresh.encode_matrix(&a).unwrap();
        let good = fresh.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let want = fresh.multiply_parallel(&em, &good, &gkeys, 1).unwrap();

        // A ciphertext outside the augmented basis …
        let normal = enc.encrypt(&fresh.coder.encode_vector(&v[..1]).unwrap(), &mut rng);
        // … one from another ring degree …
        let other = ChamParamsBuilder::new().degree(512).build().unwrap();
        let other_sk = SecretKey::generate(&other, &mut rng);
        let other_hmvp = Hmvp::new(&other);
        let other_enc = Encryptor::new(&other, &other_sk);
        let wide = other_hmvp
            .encrypt_vector(&[1], &other_enc, &mut rng)
            .unwrap()
            .remove(0);
        // … and the right ones in coefficient form.
        let mut coeff = good.clone();
        coeff.iter_mut().for_each(RlweCiphertext::to_coeff);
        let with_last = |bad: &RlweCiphertext| {
            let mut cts = good.clone();
            *cts.last_mut().unwrap() = bad.clone();
            cts
        };
        // A matrix encoded at N = 512 (2 tiles of 600 columns), too.
        let other_em = other_hmvp
            .encode_matrix(&Matrix::random(3, 600, t, &mut rng))
            .unwrap();
        type Typed = fn(&Result<()>) -> bool;
        let mismatch: Typed =
            |r| matches!(r, Err(HeError::Math(cham_math::MathError::ContextMismatch)));
        let incompatible: Typed = |r| matches!(r, Err(HeError::Incompatible(_)));
        let cases = [
            (
                "every tile normal-basis",
                &em,
                vec![normal.clone(); 3],
                mismatch,
            ),
            ("last tile normal-basis", &em, with_last(&normal), mismatch),
            ("last tile at N = 512", &em, with_last(&wide), mismatch),
            ("matrix at N = 512", &other_em, good[..2].to_vec(), mismatch),
            (
                "every tile coefficient-form",
                &em,
                coeff.clone(),
                incompatible,
            ),
            (
                "last tile coefficient-form",
                &em,
                with_last(&coeff[2]),
                incompatible,
            ),
        ];

        let hmvp = Hmvp::new(&params);
        for (name, em, cts, typed) in &cases {
            assert!(
                typed(&hmvp.multiply(em, cts, &gkeys).map(drop)),
                "{name}: multiply"
            );
            assert!(
                typed(&hmvp.dot_products(em, cts).map(drop)),
                "{name}: dot_products"
            );
            let unfused = hmvp.dot_products_unfused(em, cts).map(drop);
            assert!(typed(&unfused), "{name}: dot_products_unfused");
            for cap in [1, 2] {
                let packed = hmvp.multiply_parallel(em, cts, &gkeys, cap).map(drop);
                assert!(typed(&packed), "{name}: multiply_parallel cap {cap}");
            }
        }

        let got = hmvp.multiply_parallel(&em, &good, &gkeys, 1).unwrap();
        assert_eq!(got.packed[0].ciphertext, want.packed[0].ciphertext);
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
