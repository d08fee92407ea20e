//! Residue-number-system (RNS) machinery.
//!
//! CHAM ciphertexts live in `Z_Q[X]/(X^N+1)` with `Q = q0·q1`, *augmented*
//! with a special modulus `p` during dot product and key-switch (§II-F). In
//! RNS form each polynomial is a tuple of limbs, one per prime, and all the
//! heavy arithmetic stays word-sized — this is what lets each FPGA functional
//! unit operate on an independent polynomial (§III-A: "all the polynomials
//! within a plaintext and a ciphertext are processed in parallel").
//!
//! Provided here:
//! * [`RnsContext`] — a prime chain with per-limb NTT tables and CRT
//!   constants,
//! * [`RnsPoly`] — a multi-limb polynomial tracked as coefficient- or
//!   NTT-domain,
//! * CRT reconstruction (decryption needs the integer value of each
//!   coefficient),
//! * **rescale** — divide-and-round by the last prime, pipeline stage-4 of
//!   the paper,
//! * digit decomposition for the RNS key-switch used by `cham-he`.

use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::poly::Poly;
use crate::simd::{self, RescaleLimb};
use crate::{MathError, Result};
use std::sync::Arc;

/// Which domain an [`RnsPoly`]'s limbs are currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// Plain coefficient representation.
    Coeff,
    /// NTT (evaluation) representation, bit-reversed index order.
    Ntt,
}

/// A chain of NTT-friendly primes with shared degree and precomputed tables.
///
/// Contexts are cheap to clone (`Arc` internals) and compared by their prime
/// chain + degree.
///
/// # Example
/// ```
/// use cham_math::rns::RnsContext;
/// use cham_math::modulus::{Q0, Q1, SPECIAL_P};
/// let ctx = RnsContext::new(1 << 12, &[Q0, Q1, SPECIAL_P])?;
/// assert_eq!(ctx.len(), 3);
/// assert_eq!(ctx.degree(), 4096);
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RnsContext {
    degree: usize,
    moduli: Arc<Vec<Modulus>>,
    tables: Arc<Vec<NttTable>>,
    /// Divide-and-round constants for each limb i < len-1.
    rescale: Arc<Vec<RescaleLimb>>,
}

impl PartialEq for RnsContext {
    fn eq(&self, other: &Self) -> bool {
        self.degree == other.degree
            && self
                .moduli
                .iter()
                .map(Modulus::value)
                .eq(other.moduli.iter().map(Modulus::value))
    }
}
impl Eq for RnsContext {}

impl RnsContext {
    /// Builds a context over `primes` for ring degree `degree`.
    ///
    /// # Errors
    /// * [`MathError::InvalidParameter`] when `primes` is empty or contains
    ///   duplicates,
    /// * errors from [`Modulus::new`] / [`NttTable::new`] for unusable
    ///   primes.
    pub fn new(degree: usize, primes: &[u64]) -> Result<Self> {
        if primes.is_empty() {
            return Err(MathError::InvalidParameter("prime chain must be non-empty"));
        }
        let mut seen = std::collections::HashSet::new();
        for &p in primes {
            if !seen.insert(p) {
                return Err(MathError::InvalidParameter(
                    "prime chain contains duplicates",
                ));
            }
        }
        let moduli: Vec<Modulus> = primes
            .iter()
            .map(|&p| Modulus::new(p))
            .collect::<Result<_>>()?;
        let tables: Vec<NttTable> = moduli
            .iter()
            .map(|&m| NttTable::new(degree, m))
            .collect::<Result<_>>()?;
        let (last, surviving) = moduli.split_last().expect("non-empty");
        let rescale = surviving
            .iter()
            .map(|&m| RescaleLimb::new(m, *last))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            degree,
            moduli: Arc::new(moduli),
            tables: Arc::new(tables),
            rescale: Arc::new(rescale),
        })
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of limbs.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True when the chain is empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The limb moduli.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The per-limb NTT tables.
    #[inline]
    pub fn tables(&self) -> &[NttTable] {
        &self.tables
    }

    /// Product of all limb moduli as a `u128`.
    ///
    /// # Panics
    /// Panics if the product overflows `u128` (cannot happen for the CHAM
    /// chain: 34 + 34 + 38 bits).
    pub fn modulus_product(&self) -> u128 {
        self.moduli.iter().fold(1u128, |acc, m| {
            acc.checked_mul(m.value() as u128)
                .expect("modulus product overflows u128")
        })
    }

    /// A context over all limbs except the last — the target of
    /// [`RnsPoly::rescale_by_last`].
    ///
    /// # Errors
    /// Returns [`MathError::InvalidParameter`] for a single-limb context.
    pub fn drop_last(&self) -> Result<Self> {
        if self.len() < 2 {
            return Err(MathError::InvalidParameter(
                "cannot drop the last limb of a single-limb context",
            ));
        }
        let primes: Vec<u64> = self.moduli[..self.len() - 1]
            .iter()
            .map(Modulus::value)
            .collect();
        Self::new(self.degree, &primes)
    }

    /// The rescale kernel on raw limb slices: for surviving limb `i`,
    /// `out[j] = (x[j] − [last[j]]) · p^{−1} mod q_i`, where `[·]` is the
    /// centred lift of the dropped residue (`r > p/2 ? r − p : r`) — the
    /// divide-and-round by the last prime `p` of this chain. `x` holds
    /// limb-`i` residues and `last` the matching last-limb residues, all
    /// canonical and in coefficient form; any common length works, so a
    /// single coefficient is rescaled the same way as a whole limb.
    ///
    /// The centred lift never materialises: `x + offset (+ p) − r` is a
    /// non-negative representative of the difference (`offset` is a
    /// multiple of `q_i` no smaller than `p`), and a Shoup multiply by the
    /// precomputed `p^{−1}` accepts it ([`simd::rescale_into`]). The kernel
    /// runs on limb `i`'s table backend ([`NttTable::backend`]).
    ///
    /// # Panics
    /// Panics if `i` is not a surviving limb or the slice lengths differ.
    pub fn rescale_limb_into(&self, i: usize, x: &[u64], last: &[u64], out: &mut [u64]) {
        assert!(i + 1 < self.len(), "limb {i} does not survive the rescale");
        simd::rescale_into(self.tables[i].backend(), &self.rescale[i], x, last, out);
    }

    /// [`Self::rescale_limb_into`] that adds the rescaled residues to the
    /// canonical ones `out` already holds, mod `q_i`.
    ///
    /// # Panics
    /// Panics if `i` is not a surviving limb or the slice lengths differ.
    pub fn rescale_limb_add(&self, i: usize, x: &[u64], last: &[u64], out: &mut [u64]) {
        assert!(i + 1 < self.len(), "limb {i} does not survive the rescale");
        simd::rescale_add(self.tables[i].backend(), &self.rescale[i], x, last, out);
    }

    /// True when `target` is this chain with the last prime dropped (same
    /// degree, same prime prefix). Structural on purpose: building the
    /// dropped context would derive NTT tables, far too expensive for a
    /// per-rescale check.
    fn drops_to(&self, target: &RnsContext) -> bool {
        target.degree == self.degree
            && target.len() + 1 == self.len()
            && target
                .moduli
                .iter()
                .zip(self.moduli.iter())
                .all(|(a, b)| a.value() == b.value())
    }

    /// Reconstructs the integer value of a single coefficient from its limb
    /// residues via CRT. Result is in `[0, Q)` with `Q` the modulus product.
    ///
    /// # Panics
    /// Panics if `residues.len() != self.len()`.
    pub fn crt_lift(&self, residues: &[u64]) -> u128 {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        // Garner's algorithm in mixed radix, exact in u128 for <= 90-bit Q.
        let q = self.modulus_product();
        let mut result: u128 = 0;
        let mut radix: u128 = 1;
        // x = v0 + q0*(v1 + q1*(v2 ...)) with vi computed mod qi.
        let mut vs = Vec::with_capacity(self.len());
        for (i, m) in self.moduli.iter().enumerate() {
            // t = (residues[i] - partial) / (prod of earlier moduli), mod q_i
            let mut t = residues[i];
            // subtract the already-fixed mixed-radix digits
            let mut prod_mod = 1u64;
            let mut partial = 0u64;
            for (j, &vj) in vs.iter().enumerate() {
                partial = m.add(partial, m.mul(prod_mod, vj));
                prod_mod = m.mul(prod_mod, self.moduli[j].value() % m.value());
            }
            t = m.sub(t, partial);
            let inv = m.inv(prod_mod).expect("moduli are pairwise coprime");
            let v = m.mul(t, inv);
            vs.push(v);
            result += radix * v as u128;
            radix = radix.saturating_mul(m.value() as u128);
        }
        debug_assert!(result < q);
        result
    }

    /// Reconstructs the *centred* integer value of a coefficient, in
    /// `(−Q/2, Q/2]`.
    ///
    /// # Panics
    /// Panics if `residues.len() != self.len()`.
    pub fn crt_lift_centered(&self, residues: &[u64]) -> i128 {
        let q = self.modulus_product();
        let v = self.crt_lift(residues);
        if v > q / 2 {
            v as i128 - q as i128
        } else {
            v as i128
        }
    }

    /// Embeds an integer (given as `u128`, reduced mod `Q`) into residues.
    pub fn residues_of(&self, x: u128) -> Vec<u64> {
        self.moduli
            .iter()
            .map(|m| (x % m.value() as u128) as u64)
            .collect()
    }
}

/// A polynomial in RNS form: one [`Poly`] limb per context prime.
///
/// Operations validate that operands share a context and domain
/// ([`Form`]); domain conversions are explicit ([`RnsPoly::to_ntt`],
/// [`RnsPoly::to_coeff`]), mirroring the explicit NTT/INTT pipeline stages
/// of the accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    ctx: RnsContext,
    limbs: Vec<Poly>,
    form: Form,
}

impl RnsPoly {
    /// The zero polynomial in coefficient form.
    pub fn zero(ctx: &RnsContext) -> Self {
        Self {
            limbs: vec![Poly::zero(ctx.degree()); ctx.len()],
            ctx: ctx.clone(),
            form: Form::Coeff,
        }
    }

    /// Builds an RNS polynomial from per-limb polys.
    ///
    /// # Errors
    /// Returns [`MathError::ContextMismatch`] if the limb count or any limb
    /// length disagrees with the context.
    pub fn from_limbs(ctx: &RnsContext, limbs: Vec<Poly>, form: Form) -> Result<Self> {
        if limbs.len() != ctx.len() || limbs.iter().any(|l| l.len() != ctx.degree()) {
            return Err(MathError::ContextMismatch);
        }
        Ok(Self {
            ctx: ctx.clone(),
            limbs,
            form,
        })
    }

    /// Lifts small signed coefficients (e.g. plaintext or noise) into every
    /// limb.
    pub fn from_signed(ctx: &RnsContext, coeffs: &[i64]) -> Result<Self> {
        if coeffs.len() != ctx.degree() {
            return Err(MathError::ContextMismatch);
        }
        let limbs = ctx
            .moduli()
            .iter()
            .map(|m| Poly::from_signed(coeffs, m))
            .collect();
        Ok(Self {
            ctx: ctx.clone(),
            limbs,
            form: Form::Coeff,
        })
    }

    /// Lifts unsigned values `< min(q_i)` identically into every limb.
    pub fn from_unsigned(ctx: &RnsContext, coeffs: &[u64]) -> Result<Self> {
        if coeffs.len() != ctx.degree() {
            return Err(MathError::ContextMismatch);
        }
        let limbs = ctx
            .moduli()
            .iter()
            .map(|m| Poly::from_coeffs(coeffs.iter().map(|&c| m.reduce(c)).collect()))
            .collect();
        Ok(Self {
            ctx: ctx.clone(),
            limbs,
            form: Form::Coeff,
        })
    }

    /// The owning context.
    #[inline]
    pub fn context(&self) -> &RnsContext {
        &self.ctx
    }

    /// Current representation domain.
    #[inline]
    pub fn form(&self) -> Form {
        self.form
    }

    /// Borrow the limbs.
    #[inline]
    pub fn limbs(&self) -> &[Poly] {
        &self.limbs
    }

    /// Mutably borrow the limbs (callers must preserve canonical form).
    #[inline]
    pub fn limbs_mut(&mut self) -> &mut [Poly] {
        &mut self.limbs
    }

    fn check_compat(&self, rhs: &Self) -> Result<()> {
        if self.ctx != rhs.ctx || self.form != rhs.form {
            return Err(MathError::ContextMismatch);
        }
        Ok(())
    }

    /// Converts to NTT form in place (no-op when already there).
    ///
    /// One limb transform after another on the calling thread: a transform
    /// is microseconds, below any dispatch grain, so threading is the
    /// caller's (it fans out over ciphertexts or rows, never over limbs).
    pub fn to_ntt(&mut self) {
        if self.form == Form::Ntt {
            return;
        }
        for (table, limb) in self.ctx.tables.iter().zip(&mut self.limbs) {
            table.forward(limb.coeffs_mut());
        }
        self.form = Form::Ntt;
    }

    /// Converts to coefficient form in place (no-op when already there).
    pub fn to_coeff(&mut self) {
        if self.form == Form::Coeff {
            return;
        }
        for (table, limb) in self.ctx.tables.iter().zip(&mut self.limbs) {
            table.inverse(limb.coeffs_mut());
        }
        self.form = Form::Coeff;
    }

    /// Out-of-place batch domain conversion: fills `dst`'s existing limb
    /// buffers with `NTT(self)` via [`NttTable::forward_into`], so repeated
    /// conversions (e.g. lifting rows into scratch) allocate nothing.
    /// `self` stays in coefficient form; `dst` ends in NTT form.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] unless `self` is in coefficient form
    /// and `dst` shares this context.
    pub fn to_ntt_into(&self, dst: &mut Self) -> Result<()> {
        if self.form != Form::Coeff || self.ctx != dst.ctx {
            return Err(MathError::ContextMismatch);
        }
        for ((table, src), limb) in self.ctx.tables.iter().zip(&self.limbs).zip(&mut dst.limbs) {
            table.forward_into(src.coeffs(), limb.coeffs_mut());
        }
        dst.form = Form::Ntt;
        Ok(())
    }

    /// Limb-wise addition.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn add(&self, rhs: &Self) -> Result<Self> {
        self.check_compat(rhs)?;
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli())
            .map(|((a, b), m)| a.add(b, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// In-place limb-wise addition — the allocation-free twin of
    /// [`RnsPoly::add`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn add_assign(&mut self, rhs: &Self) -> Result<()> {
        self.check_compat(rhs)?;
        for ((a, b), m) in self
            .limbs
            .iter_mut()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli.iter())
        {
            a.add_assign(b, m);
        }
        Ok(())
    }

    /// In-place limb-wise subtraction — the allocation-free twin of
    /// [`RnsPoly::sub`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn sub_assign(&mut self, rhs: &Self) -> Result<()> {
        self.check_compat(rhs)?;
        for ((a, b), m) in self
            .limbs
            .iter_mut()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli.iter())
        {
            a.sub_assign(b, m);
        }
        Ok(())
    }

    /// Limb-wise subtraction.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts or forms differ.
    pub fn sub(&self, rhs: &Self) -> Result<Self> {
        self.check_compat(rhs)?;
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli())
            .map(|((a, b), m)| a.sub(b, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// Limb-wise negation.
    pub fn neg(&self) -> Self {
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.neg(m))
            .collect();
        Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        }
    }

    /// Coefficient-wise product — both operands must be in NTT form (a
    /// coefficient-form product would be a convolution, which callers should
    /// express explicitly via `to_ntt`).
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts differ or either operand
    /// is in coefficient form.
    pub fn mul_pointwise(&self, rhs: &Self) -> Result<Self> {
        self.check_compat(rhs)?;
        if self.form != Form::Ntt {
            return Err(MathError::ContextMismatch);
        }
        let limbs = self
            .limbs
            .iter()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli())
            .map(|((a, b), m)| a.mul_pointwise(b, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// In-place coefficient-wise product — the allocation-free twin of
    /// [`RnsPoly::mul_pointwise`].
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if contexts differ or either operand
    /// is in coefficient form.
    pub fn mul_pointwise_assign(&mut self, rhs: &Self) -> Result<()> {
        self.check_compat(rhs)?;
        if self.form != Form::Ntt {
            return Err(MathError::ContextMismatch);
        }
        for ((a, b), m) in self
            .limbs
            .iter_mut()
            .zip(&rhs.limbs)
            .zip(self.ctx.moduli.iter())
        {
            a.mul_pointwise_assign(b, m);
        }
        Ok(())
    }

    /// Multiplies by a small scalar in either form.
    pub fn mul_scalar(&self, s: u64) -> Self {
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.mul_scalar(s, m))
            .collect();
        Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        }
    }

    /// `SHIFTNEG` across limbs — multiplication by `X^s` (coefficient form
    /// only).
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form.
    pub fn shift_neg(&self, s: usize) -> Result<Self> {
        if self.form != Form::Coeff {
            return Err(MathError::ContextMismatch);
        }
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.shift_neg(s, m))
            .collect();
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// `AUTOMORPH` across limbs (coefficient form only).
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form;
    /// [`MathError::InvalidParameter`] for even `k`.
    pub fn automorph(&self, k: usize) -> Result<Self> {
        if self.form != Form::Coeff {
            return Err(MathError::ContextMismatch);
        }
        let limbs = self
            .limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(a, m)| a.automorph(k, m))
            .collect::<Result<_>>()?;
        Ok(Self {
            ctx: self.ctx.clone(),
            limbs,
            form: self.form,
        })
    }

    /// **Rescale** (pipeline stage-4): divide-and-round by the last prime,
    /// dropping it from the basis. For a coefficient `c` over `Q·p`, the
    /// result over `Q` is `round(c / p)`, computed limb-locally as
    /// `(c_i − [c_p]) · p^{−1} mod q_i` with a centred lift of `c_p`
    /// ([`RnsContext::rescale_limb_into`] is the per-limb kernel).
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form or when `target` is
    /// not this context minus its last prime;
    /// [`MathError::InvalidParameter`] for single-limb operands.
    pub fn rescale_by_last(&self, target: &RnsContext) -> Result<Self> {
        self.check_rescale(target)?;
        let k = self.ctx.len();
        let last = self.limbs[k - 1].coeffs();
        let limbs = self.limbs[..k - 1]
            .iter()
            .enumerate()
            .map(|(i, limb)| {
                let mut out = vec![0u64; last.len()];
                self.ctx.rescale_limb_into(i, limb.coeffs(), last, &mut out);
                Poly::from_coeffs(out)
            })
            .collect();
        Ok(Self {
            ctx: target.clone(),
            limbs,
            form: Form::Coeff,
        })
    }

    fn check_rescale(&self, target: &RnsContext) -> Result<()> {
        if self.form != Form::Coeff {
            return Err(MathError::ContextMismatch);
        }
        if self.ctx.len() < 2 {
            return Err(MathError::InvalidParameter(
                "rescale requires at least two limbs",
            ));
        }
        if !self.ctx.drops_to(target) {
            return Err(MathError::ContextMismatch);
        }
        Ok(())
    }

    /// The textbook rescale — centre the dropped residue, map it into
    /// `q_i` with two signed remainders, subtract, Barrett-multiply by
    /// `p^{−1}` — kept as the oracle the property tests compare
    /// [`RnsPoly::rescale_by_last`] against. Not for production use.
    ///
    /// # Errors
    /// Same conditions as [`RnsPoly::rescale_by_last`].
    #[doc(hidden)]
    pub fn rescale_by_last_strict(&self, target: &RnsContext) -> Result<Self> {
        self.check_rescale(target)?;
        let k = self.ctx.len();
        let p = self.ctx.moduli[k - 1].value();
        let last = self.limbs[k - 1].coeffs();
        let limbs = self.limbs[..k - 1]
            .iter()
            .zip(self.ctx.moduli.iter())
            .map(|(limb, m)| {
                let q = m.value() as i128;
                let inv_p = m.inv(p % m.value()).expect("chain primes are coprime");
                limb.coeffs()
                    .iter()
                    .zip(last)
                    .map(|(&c, &r)| {
                        let centred = if r > p / 2 {
                            r as i128 - p as i128
                        } else {
                            r as i128
                        };
                        let lifted = ((centred % q + q) % q) as u64;
                        m.mul(m.sub(c, lifted), inv_p)
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            ctx: target.clone(),
            limbs,
            form: Form::Coeff,
        })
    }

    /// RNS digit decomposition for key-switching: digit `i` is the limb-`i`
    /// residue polynomial re-embedded into the *full* `target` basis (its
    /// coefficients are integers `< q_i`, so re-embedding is a per-modulus
    /// reduction). Coefficient form required.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] when in NTT form.
    pub fn decompose_digits(&self, target: &RnsContext) -> Result<Vec<RnsPoly>> {
        if self.form != Form::Coeff {
            return Err(MathError::ContextMismatch);
        }
        self.limbs
            .iter()
            .map(|limb| RnsPoly::from_unsigned(target, limb.coeffs()))
            .collect()
    }

    /// Max centred infinity norm across limbs — only meaningful when the
    /// value is *small* (identical residues), e.g. for noise polynomials.
    pub fn small_inf_norm(&self) -> u64 {
        self.limbs
            .iter()
            .zip(self.ctx.moduli())
            .map(|(l, m)| l.centered_inf_norm(m))
            .max()
            .unwrap_or(0)
    }
}

/// Deferred-reduction multiply-accumulate over RNS polynomials in NTT form —
/// the fused kernel behind the HMVP row MAC, where one row sums a product
/// per column tile. (A key-switch sums only one product per digit and runs
/// the register-resident [`crate::simd::digit_product`] instead.)
///
/// Products are accumulated into a caller-owned `u128` scratch slice
/// (flattened `limbs × degree`, typically borrowed from a per-worker scratch
/// pool so the steady state allocates nothing). Reduction is deferred until
/// [`crate::poly::LAZY_ACC_BOUND`] terms have been accumulated, then a flush
/// pass collapses each lane to its canonical residue
/// (`cham_math.modulus.reduce.lazy_flush` counts these).
///
/// # Example
/// ```
/// use cham_math::rns::{FusedAccumulator, RnsContext, RnsPoly};
/// use cham_math::modulus::{Q0, Q1};
/// let ctx = RnsContext::new(16, &[Q0, Q1])?;
/// let mut a = RnsPoly::from_signed(&ctx, &[1i64; 16])?;
/// a.to_ntt();
/// let mut scratch = vec![0u128; ctx.len() * ctx.degree()];
/// let mut acc = FusedAccumulator::new(&ctx, &mut scratch)?;
/// acc.accumulate(&a, &a)?;
/// acc.accumulate(&a, &a)?;
/// let sum = acc.finish(); // == a·a + a·a, in NTT form
/// # assert_eq!(sum, a.mul_pointwise(&a)?.add(&a.mul_pointwise(&a)?)?);
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug)]
pub struct FusedAccumulator<'a> {
    ctx: RnsContext,
    acc: &'a mut [u128],
    pending: usize,
    /// No term has been written yet: the scratch still holds whatever the
    /// previous user left there, and the next term must *store*, not add.
    fresh: bool,
}

impl<'a> FusedAccumulator<'a> {
    /// Starts an accumulation over `ctx` using `scratch` as backing store.
    /// The scratch is *not* zeroed: the first [`Self::accumulate`] overwrites
    /// every lane, so a pooled buffer can be reused dirty without paying a
    /// separate clearing pass.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if `scratch.len() != len · degree`.
    pub fn new(ctx: &RnsContext, scratch: &'a mut [u128]) -> Result<Self> {
        if scratch.len() != ctx.len() * ctx.degree() {
            return Err(MathError::ContextMismatch);
        }
        Ok(Self {
            ctx: ctx.clone(),
            acc: scratch,
            pending: 0,
            fresh: true,
        })
    }

    /// Adds `a ⊙ b` (pointwise NTT-domain product) into the accumulator,
    /// with reduction deferred. Auto-flushes when the
    /// [`crate::poly::LAZY_ACC_BOUND`] headroom bound is reached.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] unless both operands are in NTT form
    /// over this accumulator's context.
    pub fn accumulate(&mut self, a: &RnsPoly, b: &RnsPoly) -> Result<()> {
        for x in [a, b] {
            if x.ctx != self.ctx || x.form != Form::Ntt {
                return Err(MathError::ContextMismatch);
            }
        }
        if self.pending == crate::poly::LAZY_ACC_BOUND {
            self.flush();
        }
        let n = self.ctx.degree();
        let write = if self.fresh {
            crate::poly::mul_pointwise_write
        } else {
            crate::poly::mul_pointwise_accumulate
        };
        let limbs = self
            .acc
            .chunks_exact_mut(n)
            .zip(a.limbs.iter().zip(&b.limbs));
        for (acc, (la, lb)) in limbs {
            write(acc, la.coeffs(), lb.coeffs());
        }
        self.fresh = false;
        self.pending += 1;
        Ok(())
    }

    /// Collapses every lane to its canonical residue, restoring full
    /// headroom. Called automatically; public for callers that want
    /// deterministic flush points.
    pub fn flush(&mut self) {
        if self.fresh {
            return; // nothing accumulated; the scratch holds stale data
        }
        let n = self.ctx.degree();
        for (i, m) in self.ctx.moduli().iter().enumerate() {
            crate::poly::flush_accumulator(&mut self.acc[i * n..(i + 1) * n], m);
        }
        self.pending = 0;
    }

    /// Final reduction into `out`'s existing limb buffers (no allocation).
    /// `out` ends in NTT form; the scratch is released for reuse.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if `out`'s context differs.
    pub fn finish_into(self, out: &mut RnsPoly) -> Result<()> {
        if out.ctx != self.ctx {
            return Err(MathError::ContextMismatch);
        }
        for (i, limb) in out.limbs.iter_mut().enumerate() {
            self.finish_limb(i, limb.coeffs_mut());
        }
        out.form = Form::Ntt;
        Ok(())
    }

    /// [`Self::finish_into`] for flat scratch: `out` receives the
    /// `len · degree` canonical NTT-domain residues, limb-major.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if `out.len() != len · degree`.
    pub fn finish_lanes_into(self, out: &mut [u64]) -> Result<()> {
        if out.len() != self.acc.len() {
            return Err(MathError::ContextMismatch);
        }
        for (i, limb) in out.chunks_exact_mut(self.ctx.degree()).enumerate() {
            self.finish_limb(i, limb);
        }
        Ok(())
    }

    fn finish_limb(&self, i: usize, limb: &mut [u64]) {
        let n = self.ctx.degree();
        if self.fresh {
            // No term was ever accumulated: the sum is zero and the
            // scratch contents are stale — do not reduce them.
            limb.fill(0);
        } else {
            let m = &self.ctx.moduli()[i];
            crate::poly::finish_accumulator(&self.acc[i * n..(i + 1) * n], m, limb);
        }
    }

    /// The constant coefficient of the accumulated sum, per limb, without
    /// an inverse transform: coefficient 0 of a negacyclic INTT is
    /// `n^{−1} · Σ lanes`, because every twiddle `ψ^{−(2k+1)·0}` it weighs
    /// the lanes with is 1. `out[i]` is exactly what
    /// `finish()` → `to_coeff()` would leave at index 0 of limb `i`.
    ///
    /// # Errors
    /// [`MathError::ContextMismatch`] if `out.len() != len`.
    pub fn finish_constant_coeffs(self, out: &mut [u64]) -> Result<()> {
        if out.len() != self.ctx.len() {
            return Err(MathError::ContextMismatch);
        }
        if self.fresh {
            out.fill(0);
            return Ok(());
        }
        let n = self.ctx.degree();
        for (i, (o, m)) in out.iter_mut().zip(self.ctx.moduli()).enumerate() {
            // Lanes are unreduced and may each be close to 2^128, so sum
            // their 64-bit halves separately (n ≤ 2^20 of them fit a u128
            // with room to spare) and reduce once:
            // Σ lanes = Σ hi · 2^64 + Σ lo.
            let (hi, lo) = self.acc[i * n..(i + 1) * n]
                .iter()
                .fold((0u128, 0u128), |(hi, lo), &lane| {
                    (hi + (lane >> 64), lo + (lane as u64) as u128)
                });
            let sum = m.add(
                m.mul(m.reduce_u128(hi), m.reduce_u128(1 << 64)),
                m.reduce_u128(lo),
            );
            *o = self.ctx.tables[i].scale_by_n_inv(sum);
        }
        Ok(())
    }

    /// Final reduction into a freshly allocated [`RnsPoly`] (NTT form).
    pub fn finish(self) -> RnsPoly {
        let mut out = RnsPoly::zero(&self.ctx);
        let ctx = self.ctx.clone();
        self.finish_into(&mut out).expect("context matches");
        debug_assert_eq!(out.ctx, ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{Q0, Q1, SPECIAL_P};
    use rand::{Rng, SeedableRng};

    fn ctx3(n: usize) -> RnsContext {
        RnsContext::new(n, &[Q0, Q1, SPECIAL_P]).unwrap()
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn context_validation() {
        assert!(RnsContext::new(16, &[]).is_err());
        assert!(RnsContext::new(16, &[Q0, Q0]).is_err());
        assert!(RnsContext::new(64, &[Q0, 97]).is_err()); // 97: 128 ∤ 96
        assert!(RnsContext::new(16, &[Q0, Q1]).is_ok());
    }

    #[test]
    fn drop_last_and_eq() {
        let c = ctx3(16);
        let d = c.drop_last().unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d, RnsContext::new(16, &[Q0, Q1]).unwrap());
        let single = RnsContext::new(16, &[Q0]).unwrap();
        assert!(single.drop_last().is_err());
    }

    #[test]
    fn crt_roundtrip() {
        let c = ctx3(16);
        let mut rng = rng();
        let q = c.modulus_product();
        for _ in 0..500 {
            let x: u128 = rng.gen::<u128>() % q;
            let residues = c.residues_of(x);
            assert_eq!(c.crt_lift(&residues), x);
        }
        assert_eq!(c.crt_lift(&c.residues_of(0)), 0);
        assert_eq!(c.crt_lift(&c.residues_of(q - 1)), q - 1);
    }

    #[test]
    fn crt_centered() {
        let c = RnsContext::new(16, &[Q0, Q1]).unwrap();
        let q = c.modulus_product();
        assert_eq!(c.crt_lift_centered(&c.residues_of(1)), 1);
        assert_eq!(c.crt_lift_centered(&c.residues_of(q - 1)), -1);
        assert_eq!(c.crt_lift_centered(&c.residues_of(q / 2)), (q / 2) as i128);
    }

    #[test]
    fn ntt_roundtrip_multi_limb() {
        let c = ctx3(64);
        let mut rng = rng();
        let coeffs: Vec<i64> = (0..64).map(|_| rng.gen_range(-100..100)).collect();
        let a = RnsPoly::from_signed(&c, &coeffs).unwrap();
        let mut b = a.clone();
        b.to_ntt();
        assert_eq!(b.form(), Form::Ntt);
        b.to_coeff();
        assert_eq!(b, a);
    }

    #[test]
    fn pointwise_mul_requires_ntt_form() {
        let c = ctx3(16);
        let a = RnsPoly::from_signed(&c, &[1i64; 16]).unwrap();
        assert!(a.mul_pointwise(&a).is_err());
        let mut an = a.clone();
        an.to_ntt();
        assert!(an.mul_pointwise(&an).is_ok());
    }

    #[test]
    fn ntt_mul_matches_schoolbook_per_limb() {
        let c = RnsContext::new(32, &[Q0, Q1]).unwrap();
        let mut rng = rng();
        let av: Vec<i64> = (0..32).map(|_| rng.gen_range(-50..50)).collect();
        let bv: Vec<i64> = (0..32).map(|_| rng.gen_range(-50..50)).collect();
        let a = RnsPoly::from_signed(&c, &av).unwrap();
        let b = RnsPoly::from_signed(&c, &bv).unwrap();
        let (mut an, mut bn) = (a.clone(), b.clone());
        an.to_ntt();
        bn.to_ntt();
        let mut prod = an.mul_pointwise(&bn).unwrap();
        prod.to_coeff();
        for (i, m) in c.moduli().iter().enumerate() {
            let expect = a.limbs()[i].mul_negacyclic_schoolbook(&b.limbs()[i], m);
            assert_eq!(prod.limbs()[i], expect, "limb {i}");
        }
    }

    #[test]
    fn rescale_rounds_correctly() {
        // Construct values over {Q0,Q1,P}, rescale by P, compare to exact
        // integer round(v / P) via CRT.
        let full = ctx3(8);
        let reduced = full.drop_last().unwrap();
        let mut rng = rng();
        let qfull = full.modulus_product();
        let p = SPECIAL_P as u128;
        for _ in 0..50 {
            let vals: Vec<u128> = (0..8).map(|_| rng.gen::<u128>() % qfull).collect();
            let limbs: Vec<Poly> = full
                .moduli()
                .iter()
                .map(|m| {
                    Poly::from_coeffs(
                        vals.iter()
                            .map(|&v| (v % m.value() as u128) as u64)
                            .collect(),
                    )
                })
                .collect();
            let a = RnsPoly::from_limbs(&full, limbs, Form::Coeff).unwrap();
            let r = a.rescale_by_last(&reduced).unwrap();
            for (j, &v) in vals.iter().enumerate() {
                // Expected: round(centered(v)/p) mod Qreduced
                let qq = reduced.modulus_product();
                let centered: i128 = if v > qfull / 2 {
                    v as i128 - qfull as i128
                } else {
                    v as i128
                };
                // Exact integer rounding oracle; rescale may differ by at
                // most one unit from round(v/p).
                let exact = {
                    let half = (p / 2) as i128;
                    let num = if centered >= 0 {
                        centered + half
                    } else {
                        centered - half
                    };
                    num / p as i128
                };
                let got = {
                    let res: Vec<u64> = (0..reduced.len())
                        .map(|i| r.limbs()[i].coeffs()[j])
                        .collect();
                    reduced.crt_lift_centered(&res)
                };
                let err = (got - exact).abs();
                assert!(
                    err <= 1,
                    "coeff {j}: got {got}, want {exact}, err {err}, qq={qq}"
                );
            }
        }
    }

    #[test]
    fn decompose_digits_recombines() {
        // sum_i digit_i * (Q/q_i * [(Q/q_i)^-1]_{q_i}) == value (mod Q)
        let two = RnsContext::new(8, &[Q0, Q1]).unwrap();
        let full = ctx3(8);
        let mut rng = rng();
        let q = two.modulus_product();
        let vals: Vec<u128> = (0..8).map(|_| rng.gen::<u128>() % q).collect();
        let limbs: Vec<Poly> = two
            .moduli()
            .iter()
            .map(|m| {
                Poly::from_coeffs(
                    vals.iter()
                        .map(|&v| (v % m.value() as u128) as u64)
                        .collect(),
                )
            })
            .collect();
        let a = RnsPoly::from_limbs(&two, limbs, Form::Coeff).unwrap();
        let digits = a.decompose_digits(&full).unwrap();
        assert_eq!(digits.len(), 2);
        // Recombination constants
        let q0 = Q0 as u128;
        let q1 = Q1 as u128;
        let m0 = Modulus::new(Q0).unwrap();
        let m1 = Modulus::new(Q1).unwrap();
        let g0 = q1 * m0.inv(Q1 % Q0).unwrap() as u128 % q;
        let g1 = q0 * m1.inv(Q0 % Q1).unwrap() as u128 % q;
        for j in 0..8 {
            let d0 = digits[0].limbs()[0].coeffs()[j] as u128; // value < q0
            let d1 = digits[1].limbs()[1].coeffs()[j] as u128; // value < q1
            let rec = (d0 * g0 % q + d1 * g1 % q) % q;
            assert_eq!(rec, vals[j], "coeff {j}");
        }
    }

    #[test]
    fn automorph_and_shift_require_coeff_form() {
        let c = ctx3(16);
        let mut a = RnsPoly::from_signed(&c, &[2i64; 16]).unwrap();
        a.to_ntt();
        assert!(a.automorph(3).is_err());
        assert!(a.shift_neg(1).is_err());
        a.to_coeff();
        assert!(a.automorph(3).is_ok());
        assert!(a.shift_neg(1).is_ok());
    }

    #[test]
    fn assign_ops_match_allocating_twins() {
        let c = ctx3(32);
        let mut rng = rng();
        let av: Vec<i64> = (0..32).map(|_| rng.gen_range(-100..100)).collect();
        let bv: Vec<i64> = (0..32).map(|_| rng.gen_range(-100..100)).collect();
        let a = RnsPoly::from_signed(&c, &av).unwrap();
        let b = RnsPoly::from_signed(&c, &bv).unwrap();
        let mut x = a.clone();
        x.add_assign(&b).unwrap();
        assert_eq!(x, a.add(&b).unwrap());
        x.sub_assign(&b).unwrap();
        assert_eq!(x, a);
        // Mismatched forms are rejected like the allocating ops.
        let mut bn = b.clone();
        bn.to_ntt();
        assert!(x.add_assign(&bn).is_err());
        assert!(x.sub_assign(&bn).is_err());
    }

    #[test]
    fn to_ntt_into_matches_in_place() {
        let c = ctx3(64);
        let mut rng = rng();
        let coeffs: Vec<i64> = (0..64).map(|_| rng.gen_range(-100..100)).collect();
        let a = RnsPoly::from_signed(&c, &coeffs).unwrap();
        // dst starts as arbitrary garbage (a stale NTT-form value).
        let mut dst = RnsPoly::from_signed(&c, &vec![7i64; 64]).unwrap();
        dst.to_ntt();
        a.to_ntt_into(&mut dst).unwrap();
        let mut expect = a.clone();
        expect.to_ntt();
        assert_eq!(dst, expect);
        assert_eq!(a.form(), Form::Coeff, "source untouched");
        // NTT-form source is rejected.
        assert!(expect.to_ntt_into(&mut dst).is_err());
    }

    #[test]
    fn fused_accumulator_matches_mul_add() {
        let c = ctx3(16);
        let mut rng = rng();
        let terms = 2 * crate::poly::LAZY_ACC_BOUND + 3; // forces auto-flushes
        let pairs: Vec<(RnsPoly, RnsPoly)> = (0..terms)
            .map(|_| {
                let av: Vec<i64> = (0..16).map(|_| rng.gen_range(-1000..1000)).collect();
                let bv: Vec<i64> = (0..16).map(|_| rng.gen_range(-1000..1000)).collect();
                let mut a = RnsPoly::from_signed(&c, &av).unwrap();
                let mut b = RnsPoly::from_signed(&c, &bv).unwrap();
                a.to_ntt();
                b.to_ntt();
                (a, b)
            })
            .collect();
        let mut strict: Option<RnsPoly> = None;
        for (a, b) in &pairs {
            let t = a.mul_pointwise(b).unwrap();
            strict = Some(match strict {
                Some(s) => s.add(&t).unwrap(),
                None => t,
            });
        }
        let mut scratch = vec![0u128; c.len() * c.degree()];
        let mut acc = FusedAccumulator::new(&c, &mut scratch).unwrap();
        for (a, b) in &pairs {
            acc.accumulate(a, b).unwrap();
        }
        let fused = acc.finish();
        assert_eq!(fused, strict.unwrap());
        assert_eq!(fused.form(), Form::Ntt);
    }

    #[test]
    fn fused_accumulator_lane_forms_match_the_poly_forms() {
        let c = ctx3(64);
        let n = c.degree();
        let mut rng = rng();
        // Uniform NTT-form operands, plus an all-(q−1) pair: sixteen such
        // products put every lane at the top of the u128 headroom.
        let uniform = |rng: &mut rand::rngs::StdRng| {
            let limbs = c
                .moduli()
                .iter()
                .map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect())
                .collect();
            RnsPoly::from_limbs(&c, limbs, Form::Ntt).unwrap()
        };
        let top = RnsPoly::from_limbs(
            &c,
            c.moduli()
                .iter()
                .map(|m| Poly::from_coeffs(vec![m.value() - 1; n]))
                .collect(),
            Form::Ntt,
        )
        .unwrap();
        for terms in [
            1usize,
            2,
            crate::poly::LAZY_ACC_BOUND,
            crate::poly::LAZY_ACC_BOUND + 1,
        ] {
            let pairs: Vec<(RnsPoly, RnsPoly)> = (0..terms)
                .map(|t| {
                    if t % 2 == 0 {
                        (top.clone(), top.clone())
                    } else {
                        (uniform(&mut rng), uniform(&mut rng))
                    }
                })
                .collect();
            fn run<'s>(
                c: &RnsContext,
                pairs: &[(RnsPoly, RnsPoly)],
                scratch: &'s mut [u128],
            ) -> FusedAccumulator<'s> {
                let mut acc = FusedAccumulator::new(c, scratch).unwrap();
                for (a, b) in pairs {
                    acc.accumulate(a, b).unwrap();
                }
                acc
            }
            let mut scratch = vec![u128::MAX; c.len() * n];
            let want = run(&c, &pairs, &mut scratch).finish();
            let mut flat = vec![0u64; c.len() * n];
            run(&c, &pairs, &mut scratch)
                .finish_lanes_into(&mut flat)
                .unwrap();
            let want_flat: Vec<u64> = want
                .limbs()
                .iter()
                .flat_map(|l| l.coeffs().to_vec())
                .collect();
            assert_eq!(flat, want_flat, "terms={terms}");
            // Constant coefficients without the inverse transform.
            let mut constant = vec![0u64; c.len()];
            run(&c, &pairs, &mut scratch)
                .finish_constant_coeffs(&mut constant)
                .unwrap();
            let mut coeff = want.clone();
            coeff.to_coeff();
            let want_constant: Vec<u64> = coeff.limbs().iter().map(|l| l.coeffs()[0]).collect();
            assert_eq!(constant, want_constant, "terms={terms}");
        }
        // Nothing accumulated: zero, not the stale scratch.
        let mut scratch = vec![u128::MAX; c.len() * n];
        let mut constant = vec![7u64; c.len()];
        FusedAccumulator::new(&c, &mut scratch)
            .unwrap()
            .finish_constant_coeffs(&mut constant)
            .unwrap();
        assert_eq!(constant, vec![0; c.len()]);
        let mut flat = vec![7u64; c.len() * n];
        FusedAccumulator::new(&c, &mut scratch)
            .unwrap()
            .finish_lanes_into(&mut flat)
            .unwrap();
        assert!(flat.iter().all(|&x| x == 0));
        // Shape checks.
        let acc = FusedAccumulator::new(&c, &mut scratch).unwrap();
        assert!(acc.finish_lanes_into(&mut flat[1..]).is_err());
        let acc = FusedAccumulator::new(&c, &mut scratch).unwrap();
        assert!(acc.finish_constant_coeffs(&mut constant[1..]).is_err());
    }

    #[test]
    fn fused_accumulator_validates() {
        let c = ctx3(16);
        let mut short = vec![0u128; 5];
        assert!(FusedAccumulator::new(&c, &mut short).is_err());
        let mut scratch = vec![0u128; c.len() * c.degree()];
        let mut acc = FusedAccumulator::new(&c, &mut scratch).unwrap();
        let coeff_form = RnsPoly::from_signed(&c, &[1i64; 16]).unwrap();
        assert!(acc.accumulate(&coeff_form, &coeff_form).is_err());
        let other = RnsContext::new(16, &[Q0, Q1]).unwrap();
        let mut foreign = RnsPoly::from_signed(&other, &[1i64; 16]).unwrap();
        foreign.to_ntt();
        assert!(acc.accumulate(&foreign, &foreign).is_err());
    }

    #[test]
    fn small_norm() {
        let c = ctx3(4);
        let a = RnsPoly::from_signed(&c, &[3, -7, 0, 5]).unwrap();
        assert_eq!(a.small_inf_norm(), 7);
    }

    #[test]
    fn add_sub_context_mismatch() {
        let c2 = RnsContext::new(16, &[Q0, Q1]).unwrap();
        let c3 = ctx3(16);
        let a = RnsPoly::zero(&c2);
        let b = RnsPoly::zero(&c3);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        let mut a_ntt = a.clone();
        a_ntt.to_ntt();
        assert!(a.add(&a_ntt).is_err()); // form mismatch
    }
}
