//! Iterative negacyclic NTT (Cooley–Tukey forward, Gentleman–Sande inverse).
//!
//! This is the *software baseline* transform — the memory-access pattern is
//! stage-variant, which is exactly the property the paper's constant-geometry
//! design ([`crate::ntt_cg`]) avoids in hardware. Functionally the two agree
//! bit-for-bit (see the cross-validation tests in `ntt_cg`).
//!
//! The transform is negacyclic: for `a, b ∈ Z_q[X]/(X^N + 1)`,
//! `INTT(NTT(a) ∘ NTT(b)) = a · b` where `∘` is coefficient-wise
//! multiplication. Twiddles fold the `ψ^i` pre/post-twist into the butterfly
//! constants (Harvey/SEAL layout), and every constant carries a Shoup
//! companion word so butterflies cost one high-half and one low multiply.
//!
//! ## Lazy-reduction datapath
//!
//! The default [`NttTable::forward`]/[`NttTable::inverse`] run Harvey-style
//! *lazy* butterflies: operands travel in `[0, 4q)` (forward) / `[0, 2q)`
//! (inverse), each butterfly pays **one** conditional `−2q` correction
//! instead of two full modular corrections, and canonical form is restored
//! by a single normalization pass at the end (forward) or by folding the
//! `n^{-1}` scaling into the last butterfly stage (inverse — the separate
//! full-array scaling loop is gone). This is safe because every workspace
//! modulus satisfies `q < 2^62` ([`Modulus::new`]), so `4q` sums fit `u64`
//! and Shoup products of lazy operands stay below `2q`
//! ([`Modulus::mul_shoup_lazy`]).
//!
//! The strict-reduction twins ([`NttTable::forward_strict`],
//! [`NttTable::inverse_strict`]) are kept callable in every build so the
//! equivalence property tests, golden KATs, and the `table3_ntt` ablation
//! can compare the two datapaths bit for bit; production code should not
//! call them.

use crate::modulus::Modulus;
use crate::primality::min_primitive_root_of_unity;
use crate::simd::{Backend, Kernel};
use crate::{bit_reverse, log2_exact, MathError, Result};

/// Precomputed tables for a negacyclic NTT of size `n` modulo `q`.
///
/// # Example
/// ```
/// use cham_math::{Modulus, NttTable};
/// let q = Modulus::new(cham_math::modulus::Q0)?;
/// let t = NttTable::new(8, q)?;
/// let mut a = vec![3, 1, 4, 1, 5, 9, 2, 6];
/// let orig = a.clone();
/// t.forward(&mut a);
/// t.inverse(&mut a);
/// assert_eq!(a, orig);
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    log_n: u32,
    q: Modulus,
    /// ψ^bitrev(i) for the forward transform, Harvey layout.
    root_powers: Vec<u64>,
    root_powers_shoup: Vec<u64>,
    /// ψ^{-bitrev(i)} layout for the inverse transform.
    inv_root_powers: Vec<u64>,
    inv_root_powers_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
    /// `inv_root_powers[1] · n^{-1}` — the last GS stage's single twiddle
    /// with the transform scaling folded in, so the lazy inverse needs no
    /// final full-array scaling loop.
    inv_last_scaled: u64,
    inv_last_scaled_shoup: u64,
    psi: u64,
    /// SIMD backend captured at construction ([`Backend::active`] unless
    /// pinned via [`NttTable::with_backend`]). Strict twins ignore it.
    backend: Backend,
}

impl NttTable {
    /// Builds the twiddle tables for degree `n` (power of two, ≥ 4) and
    /// modulus `q` with `q ≡ 1 (mod 2n)`.
    ///
    /// # Errors
    /// * [`MathError::InvalidDegree`] if `n` is not a power of two in
    ///   `[4, 2^20]`.
    /// * [`MathError::NoNttSupport`] if the modulus cannot host a `2n`-th
    ///   root of unity.
    pub fn new(n: usize, q: Modulus) -> Result<Self> {
        Self::with_backend(n, q, Backend::active())
    }

    /// Like [`NttTable::new`] but pins the table to a specific SIMD
    /// [`Backend`] instead of the process-wide [`Backend::active`] choice —
    /// the hook the `table3_ntt` ablation and the per-backend equivalence
    /// suites use for in-process A/B comparisons.
    ///
    /// # Errors
    /// In addition to the [`NttTable::new`] errors, returns
    /// [`MathError::InvalidParameter`] when the backend cannot run on this
    /// host (e.g. `avx2` without the CPU feature) — silently degrading a
    /// pinned ablation arm would corrupt the measurement. An available
    /// `avx512ifma` request is different: it resolves to `avx2` for a
    /// modulus of 2^50 or more (or `n < 16`), which the 52-bit kernels
    /// cannot hold — see [`NttTable::backend`] for what a table runs.
    pub fn with_backend(n: usize, q: Modulus, backend: Backend) -> Result<Self> {
        if !backend.available() {
            return Err(MathError::InvalidParameter(
                "requested SIMD backend is not available on this host",
            ));
        }
        if !n.is_power_of_two() || !(4..=(1 << 20)).contains(&n) {
            return Err(MathError::InvalidDegree(n));
        }
        let log_n = log2_exact(n);
        let psi = min_primitive_root_of_unity(&q, 2 * n as u64)?;
        let psi_inv = q.inv(psi)?;

        let mut root_powers = vec![0u64; n];
        let mut inv_root_powers = vec![0u64; n];
        let mut pow_f = 1u64;
        // powers[i] holds ψ^i temporarily; scatter into bit-reversed slots.
        for i in 0..n {
            root_powers[bit_reverse(i, log_n)] = pow_f;
            pow_f = q.mul(pow_f, psi);
        }
        let mut pow_i = 1u64;
        for i in 0..n {
            inv_root_powers[bit_reverse(i, log_n)] = pow_i;
            pow_i = q.mul(pow_i, psi_inv);
        }
        // Inverse layout: the GS inverse consumes ψ^{-(bitrev(h+i))} at
        // round h; reuse the same bit-reversed table shifted by one index as
        // in SEAL: inv table entry j corresponds to ψ^{-bitrev(j)}.
        let root_powers_shoup = root_powers.iter().map(|&w| q.shoup(w)).collect();
        let inv_root_powers_shoup = inv_root_powers.iter().map(|&w| q.shoup(w)).collect();
        let n_inv = q.inv(n as u64)?;
        let inv_last_scaled = q.mul(inv_root_powers[1], n_inv);
        Ok(Self {
            n,
            log_n,
            q,
            root_powers,
            root_powers_shoup,
            inv_root_powers,
            inv_root_powers_shoup,
            n_inv,
            n_inv_shoup: q.shoup(n_inv),
            inv_last_scaled,
            inv_last_scaled_shoup: q.shoup(inv_last_scaled),
            psi,
            backend: backend.for_table(n, &q),
        })
    }

    /// The SIMD backend this table dispatches its lazy transforms to —
    /// the one it was built for, except that `avx512ifma` becomes `avx2`
    /// when the modulus or size is outside what the 52-bit kernels take.
    #[inline]
    pub const fn backend(&self) -> Backend {
        self.backend
    }

    /// Transform size.
    #[inline]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// `log2` of the transform size.
    #[inline]
    pub const fn log_n(&self) -> u32 {
        self.log_n
    }

    /// The modulus.
    #[inline]
    pub const fn modulus(&self) -> &Modulus {
        &self.q
    }

    /// The primitive `2n`-th root of unity ψ underlying the tables.
    #[inline]
    pub const fn psi(&self) -> u64 {
        self.psi
    }

    /// Books one forward transform and its `N/2 · log₂N` butterflies.
    #[inline]
    fn book_forward(&self) {
        cham_telemetry::counter_add!("cham_math.ntt.forward", 1);
        cham_telemetry::counter_add!("cham_math.ntt.butterflies", self.butterflies());
    }

    /// Books one inverse transform and its `N/2 · log₂N` butterflies.
    #[inline]
    fn book_inverse(&self) {
        cham_telemetry::counter_add!("cham_math.ntt.inverse", 1);
        cham_telemetry::counter_add!("cham_math.ntt.butterflies", self.butterflies());
    }

    #[inline]
    fn butterflies(&self) -> u64 {
        (self.n as u64 / 2) * u64::from(self.log_n)
    }

    /// In-place forward negacyclic NTT. Input in normal order, output in
    /// bit-reversed order. Runs the lazy Harvey datapath (see the module
    /// docs); output is canonical, bit-identical to
    /// [`NttTable::forward_strict`].
    ///
    /// # Panics
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length mismatch");
        self.book_forward();
        let q = &self.q;
        let backend = self.backend;
        let half = (self.n / 2) as u64;
        if backend == Backend::Avx512Ifma {
            // Every stage in vector registers, normalization fused into
            // the last one.
            crate::simd::ifma_forward(a, &self.root_powers, &self.root_powers_shoup, q);
            crate::simd::record_kernel(Kernel::FwdButterfly, half * u64::from(self.log_n), 0);
            crate::simd::record_kernel(Kernel::Normalize, self.n as u64, 0);
            return;
        }
        let (mut vec_bf, mut tail_bf) = (0u64, 0u64);
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            // Whole-stage dispatch: one branch per stage, lane-width blocks
            // inside. Stages with stride below the lane width run scalar.
            crate::simd::fwd_ntt_stage(
                backend,
                a,
                m,
                t,
                &self.root_powers,
                &self.root_powers_shoup,
                q,
            );
            if backend.vectorises_stage(t) {
                vec_bf += half;
            } else {
                tail_bf += half;
            }
            m <<= 1;
        }
        crate::simd::record_kernel(Kernel::FwdButterfly, vec_bf, tail_bf);
        // Single normalization pass: [0, 4q) → [0, q).
        crate::simd::reduce_from_lazy_slice(backend, a, q);
    }

    /// `x · n^{−1} mod q` for canonical `x` — the transform scaling on its
    /// own, for callers that need a single output coefficient of the
    /// inverse transform rather than all `n`.
    #[inline]
    #[must_use]
    pub fn scale_by_n_inv(&self, x: u64) -> u64 {
        self.q.mul_shoup(x, self.n_inv, self.n_inv_shoup)
    }

    /// In-place inverse negacyclic NTT. Input in bit-reversed order, output
    /// in normal order, scaled by `n^{-1}`. Lazy Gentleman–Sande datapath:
    /// values stay in `[0, 2q)` between stages, and the `n^{-1}` scaling is
    /// folded into the last stage's twiddle so no final scaling loop runs.
    /// Bit-identical to [`NttTable::inverse_strict`].
    ///
    /// # Panics
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length mismatch");
        self.book_inverse();
        let q = &self.q;
        let two_q = q.two_q();
        let backend = self.backend;
        let half = (self.n / 2) as u64;
        if backend == Backend::Avx512Ifma {
            // Every stage in vector registers, the fused last one included.
            crate::simd::ifma_inverse(
                a,
                &self.inv_root_powers,
                &self.inv_root_powers_shoup,
                [
                    (self.n_inv, self.n_inv_shoup),
                    (self.inv_last_scaled, self.inv_last_scaled_shoup),
                ],
                q,
            );
            crate::simd::record_kernel(Kernel::InvButterfly, half * u64::from(self.log_n), 0);
            return;
        }
        let mut t = 1usize;
        let mut m = self.n;
        while m > 2 {
            let h = m >> 1;
            crate::simd::inv_ntt_stage(
                a,
                h,
                t,
                &self.inv_root_powers,
                &self.inv_root_powers_shoup,
                q,
            );
            t <<= 1;
            m = h;
        }
        // Outside the IFMA transform every inverse stage is scalar — the GS
        // stages (no backend has a per-stage arm) and the fused final one,
        // which runs strict Shoup multiplies with per-leg constants.
        crate::simd::record_kernel(Kernel::InvButterfly, 0, half * u64::from(self.log_n));
        // Last stage (m == 2): a single twiddle across n/2 butterflies;
        // scale both legs by n^{-1} via pre-scaled constants, producing
        // canonical output directly — the full-array scaling loop is gone.
        debug_assert_eq!(t, self.n / 2);
        for j in 0..t {
            let u = a[j];
            let v = a[j + t];
            a[j] = q.mul_shoup(u + v, self.n_inv, self.n_inv_shoup);
            a[j + t] = q.mul_shoup(
                u + two_q - v,
                self.inv_last_scaled,
                self.inv_last_scaled_shoup,
            );
        }
    }

    /// Strict-reduction forward transform — every butterfly fully reduces
    /// to `[0, q)`. Reference datapath for the lazy/strict equivalence
    /// tests and the `table3_ntt` ablation; production code uses
    /// [`NttTable::forward`].
    ///
    /// # Panics
    /// Panics if `a.len() != self.n()`.
    pub fn forward_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length mismatch");
        self.book_forward();
        let q = &self.q;
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let w = self.root_powers[m + i];
                let ws = self.root_powers_shoup[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = q.mul_shoup(a[j + t], w, ws);
                    a[j] = q.add(u, v);
                    a[j + t] = q.sub(u, v);
                }
            }
            m <<= 1;
        }
    }

    /// Strict-reduction inverse transform with the separate `n^{-1}`
    /// scaling loop — the reference twin of [`NttTable::inverse`].
    ///
    /// # Panics
    /// Panics if `a.len() != self.n()`.
    pub fn inverse_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length mismatch");
        self.book_inverse();
        let q = &self.q;
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = self.inv_root_powers[h + i];
                let ws = self.inv_root_powers_shoup[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = q.add(u, v);
                    a[j + t] = q.mul_shoup(q.sub(u, v), w, ws);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        for x in a.iter_mut() {
            *x = q.mul_shoup(*x, self.n_inv, self.n_inv_shoup);
        }
    }

    /// Out-of-place forward transform: `dst = NTT(src)` without touching
    /// `src` and without allocating — the batch-call-site replacement for
    /// [`NttTable::forward_to_vec`].
    ///
    /// # Panics
    /// Panics if either slice's length differs from `self.n()`.
    pub fn forward_into(&self, src: &[u64], dst: &mut [u64]) {
        assert_eq!(src.len(), self.n, "operand length mismatch");
        assert_eq!(dst.len(), self.n, "operand length mismatch");
        dst.copy_from_slice(src);
        self.forward(dst);
    }

    /// Out-of-place inverse transform: `dst = INTT(src)`, allocation-free.
    ///
    /// # Panics
    /// Panics if either slice's length differs from `self.n()`.
    pub fn inverse_into(&self, src: &[u64], dst: &mut [u64]) {
        assert_eq!(src.len(), self.n, "operand length mismatch");
        assert_eq!(dst.len(), self.n, "operand length mismatch");
        dst.copy_from_slice(src);
        self.inverse(dst);
    }

    /// Convenience: returns `NTT(a)` without mutating the input.
    pub fn forward_to_vec(&self, a: &[u64]) -> Vec<u64> {
        let mut v = vec![0u64; self.n];
        self.forward_into(a, &mut v);
        v
    }

    /// Convenience: returns `INTT(a)` without mutating the input.
    pub fn inverse_to_vec(&self, a: &[u64]) -> Vec<u64> {
        let mut v = a.to_vec();
        self.inverse(&mut v);
        v
    }
}

/// Schoolbook negacyclic multiplication — the `O(N^2)` oracle used to
/// validate both NTT implementations.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
pub fn negacyclic_mul_schoolbook(a: &[u64], b: &[u64], q: &Modulus) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "operand length mismatch");
    let n = a.len();
    let mut c = vec![0u64; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let prod = q.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                c[k] = q.add(c[k], prod);
            } else {
                c[k - n] = q.sub(c[k - n], prod);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{Q0, Q1, SPECIAL_P};
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn random_poly(n: usize, q: &Modulus, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q.value())).collect()
    }

    #[test]
    fn rejects_bad_degree() {
        let q = Modulus::new(Q0).unwrap();
        assert!(NttTable::new(0, q).is_err());
        assert!(NttTable::new(3, q).is_err());
        assert!(NttTable::new(6, q).is_err());
        assert!(NttTable::new(2, q).is_err());
    }

    #[test]
    fn rejects_non_ntt_modulus() {
        let q = Modulus::new(97).unwrap(); // 96 = 2^5 * 3: max NTT size 16
        assert!(NttTable::new(16, q).is_ok());
        assert!(NttTable::new(32, q).is_err());
    }

    #[test]
    fn roundtrip_all_moduli() {
        let mut rng = rng();
        for qv in [Q0, Q1, SPECIAL_P] {
            let q = Modulus::new(qv).unwrap();
            for log_n in [2u32, 5, 8, 12] {
                let n = 1 << log_n;
                let t = NttTable::new(n, q).unwrap();
                let a = random_poly(n, &q, &mut rng);
                let mut b = a.clone();
                t.forward(&mut b);
                t.inverse(&mut b);
                assert_eq!(a, b, "roundtrip failed q={qv} n={n}");
            }
        }
    }

    #[test]
    fn convolution_theorem() {
        let mut rng = rng();
        let q = Modulus::new(Q0).unwrap();
        for n in [8usize, 64, 256] {
            let t = NttTable::new(n, q).unwrap();
            let a = random_poly(n, &q, &mut rng);
            let b = random_poly(n, &q, &mut rng);
            let expect = negacyclic_mul_schoolbook(&a, &b, &q);
            let fa = t.forward_to_vec(&a);
            let fb = t.forward_to_vec(&b);
            let fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
            let c = t.inverse_to_vec(&fc);
            assert_eq!(c, expect, "n={n}");
        }
    }

    #[test]
    fn linearity() {
        let mut rng = rng();
        let q = Modulus::new(Q1).unwrap();
        let n = 128;
        let t = NttTable::new(n, q).unwrap();
        let a = random_poly(n, &q, &mut rng);
        let b = random_poly(n, &q, &mut rng);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
        let fa = t.forward_to_vec(&a);
        let fb = t.forward_to_vec(&b);
        let fsum = t.forward_to_vec(&sum);
        for i in 0..n {
            assert_eq!(fsum[i], q.add(fa[i], fb[i]));
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // X^(N-1) * X = X^N = -1 in the ring.
        let q = Modulus::new(Q0).unwrap();
        let n = 16;
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        a[n - 1] = 1;
        b[1] = 1;
        let c = negacyclic_mul_schoolbook(&a, &b, &q);
        assert_eq!(c[0], q.value() - 1);
        assert!(c[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn multiply_by_one_is_identity() {
        let mut rng = rng();
        let q = Modulus::new(Q0).unwrap();
        let n = 64;
        let t = NttTable::new(n, q).unwrap();
        let a = random_poly(n, &q, &mut rng);
        let mut one = vec![0u64; n];
        one[0] = 1;
        let fa = t.forward_to_vec(&a);
        let fone = t.forward_to_vec(&one);
        let fc: Vec<u64> = fa.iter().zip(&fone).map(|(&x, &y)| q.mul(x, y)).collect();
        assert_eq!(t.inverse_to_vec(&fc), a);
    }

    #[test]
    #[should_panic(expected = "operand length mismatch")]
    fn forward_rejects_wrong_length() {
        let q = Modulus::new(Q0).unwrap();
        let t = NttTable::new(8, q).unwrap();
        let mut a = vec![0u64; 4];
        t.forward(&mut a);
    }
}
