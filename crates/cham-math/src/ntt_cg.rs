//! Constant-geometry (Pease) NTT — the paper's Algorithm 4.
//!
//! CHAM's NTT units implement a *constant-geometry* dataflow: every stage
//! reads butterfly inputs from positions `(j, j + N/2)` and writes outputs to
//! `(2j, 2j + 1)`, so the wiring between RAM banks and butterfly units (BFUs)
//! never changes across the `log2 N` stages. Execution is out-of-place in a
//! ping-pong fashion between two RAM sets (paper §IV-A.1).
//!
//! Twiddle arrangement (paper Fig. 4): stage `i` uses `2^i` distinct factors
//! `ω^(bitrev(j mod 2^i, i) · 2^(L−1−i))`, for a total of `N − 1` — each BFU
//! is assigned its own ROM column.
//!
//! The transform here is the **cyclic** CG-NTT plus the ψ pre/post twist that
//! turns it negacyclic, exactly as a hardware pipeline would fuse the twist
//! into the load stage. Output order is bit-reversed, matching the iterative
//! transform in [`crate::ntt`] so the two are interchangeable (and tested to
//! be equal).
//!
//! This table is the golden model of the hardware dataflow (`cham-sim`
//! drives it); no HE path reaches it, so its stages are the scalar lazy
//! kernels under every `CHAM_SIMD` setting.

use crate::modulus::Modulus;
use crate::primality::min_primitive_root_of_unity;
use crate::simd::{Backend, Kernel};
use crate::{bit_reverse, log2_exact, MathError, Result};

/// Precomputed twiddle ROMs for the constant-geometry NTT.
///
/// # Example
/// ```
/// use cham_math::{CgNttTable, Modulus, NttTable};
/// let q = Modulus::new(cham_math::modulus::Q0)?;
/// let cg = CgNttTable::new(16, q)?;
/// let it = NttTable::new(16, q)?;
/// let a: Vec<u64> = (0..16).collect();
/// // The two dataflows compute the identical transform.
/// assert_eq!(cg.forward_to_vec(&a), it.forward_to_vec(&a));
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CgNttTable {
    n: usize,
    log_n: u32,
    q: Modulus,
    /// Flattened stage-major twiddle ROM: entry `i * N/2 + j` is the factor
    /// used by butterfly `j` in stage `i` (paper Alg. 4 line 3).
    twiddles: Vec<u64>,
    twiddles_shoup: Vec<u64>,
    /// Inverses of `twiddles`, for the reversed (gather) dataflow.
    inv_twiddles: Vec<u64>,
    inv_twiddles_shoup: Vec<u64>,
    /// ψ^j twist factors (negacyclic pre-multiply).
    twist: Vec<u64>,
    twist_shoup: Vec<u64>,
    /// ψ^{-j} · n^{-1} untwist factors (fused into the inverse epilogue).
    untwist: Vec<u64>,
    untwist_shoup: Vec<u64>,
}

impl CgNttTable {
    /// Builds the CG twiddle ROMs for degree `n` and modulus `q`.
    ///
    /// # Errors
    /// Same conditions as [`crate::ntt::NttTable::new`]: `n` must be a power
    /// of two in `[4, 2^20]` and `q ≡ 1 (mod 2n)`.
    pub fn new(n: usize, q: Modulus) -> Result<Self> {
        if !n.is_power_of_two() || !(4..=(1 << 20)).contains(&n) {
            return Err(MathError::InvalidDegree(n));
        }
        let log_n = log2_exact(n);
        let psi = min_primitive_root_of_unity(&q, 2 * n as u64)?;
        let omega = q.mul(psi, psi); // primitive n-th root
        let omega_inv = q.inv(omega)?;
        let psi_inv = q.inv(psi)?;
        let n_inv = q.inv(n as u64)?;

        let half = n / 2;
        let mut twiddles = vec![0u64; log_n as usize * half];
        let mut inv_twiddles = vec![0u64; log_n as usize * half];
        for i in 0..log_n {
            let shift = log_n - 1 - i;
            for j in 0..half {
                let exp = (bit_reverse(j % (1 << i), i) as u64) << shift;
                let w = q.pow(omega, exp);
                twiddles[i as usize * half + j] = w;
                inv_twiddles[i as usize * half + j] = q.pow(omega_inv, exp);
            }
        }
        let mut twist = vec![0u64; n];
        let mut untwist = vec![0u64; n];
        let mut tp = 1u64;
        let mut up = n_inv;
        for j in 0..n {
            twist[j] = tp;
            untwist[j] = up;
            tp = q.mul(tp, psi);
            up = q.mul(up, psi_inv);
        }
        let shoup = |v: &Vec<u64>| v.iter().map(|&w| q.shoup(w)).collect::<Vec<_>>();
        Ok(Self {
            twiddles_shoup: shoup(&twiddles),
            inv_twiddles_shoup: shoup(&inv_twiddles),
            twist_shoup: shoup(&twist),
            untwist_shoup: shoup(&untwist),
            twiddles,
            inv_twiddles,
            twist,
            untwist,
            n,
            log_n,
            q,
        })
    }

    /// Transform size.
    #[inline]
    pub const fn n(&self) -> usize {
        self.n
    }

    /// The modulus.
    #[inline]
    pub const fn modulus(&self) -> &Modulus {
        &self.q
    }

    /// Number of ROM entries needed when each stage stores only its
    /// distinct factors (paper §IV-A.2 / Fig. 4: stage `i` holds `2^i`
    /// values, `N − 1` in total). Note the stage sets are *nested*, so the
    /// globally-distinct count is only `N/2`; the hardware keeps per-stage
    /// columns so each BFU reads a private ROM, hence `N − 1` stored words.
    pub fn rom_twiddle_count(&self) -> usize {
        let half = self.n / 2;
        (0..self.log_n as usize)
            .map(|i| {
                let stage = &self.twiddles[i * half..(i + 1) * half];
                stage.iter().collect::<std::collections::HashSet<_>>().len()
            })
            .sum()
    }

    /// One forward CG stage (scatter dataflow) in Harvey lazy form: inputs
    /// in `[0, 4q)`, outputs in `[0, 4q)`, a single conditional `−2q` on the
    /// `u` leg per butterfly. Butterfly `j` reads `src[j], src[j + N/2]` and
    /// writes `dst[2j], dst[2j + 1]`.
    #[inline]
    fn forward_stage_lazy(&self, i: usize, src: &[u64], dst: &mut [u64]) {
        let half = self.n / 2;
        let base = i * half;
        // Stage twiddles stream contiguously from the flat ROM.
        let w = &self.twiddles[base..base + half];
        let ws = &self.twiddles_shoup[base..base + half];
        let two_q = self.q.two_q();
        for j in 0..half {
            let mut u = src[j];
            if u >= two_q {
                u -= two_q;
            }
            let v = self.q.mul_shoup_lazy(src[j + half], w[j], ws[j]);
            dst[2 * j] = u + v;
            dst[2 * j + 1] = u + two_q - v;
        }
    }

    /// Forward negacyclic CG-NTT. Input normal order, output bit-reversed —
    /// identical to [`crate::ntt::NttTable::forward`].
    ///
    /// Out-of-place ping-pong between `a` and one scratch buffer, mirroring
    /// the RAM-0/RAM-1 alternation of the hardware (§IV-A.1). Butterflies
    /// run lazily in `[0, 4q)`; the copy-back/store stage normalizes to
    /// canonical form, so the result is bit-identical to the strict datapath.
    ///
    /// # Panics
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length mismatch");
        let q = &self.q;
        // Twist: fold ψ^j into the load stage. Lazy product lands in
        // [0, 2q) ⊂ [0, 4q), the stage input invariant.
        crate::simd::mul_shoup_lazy_slice(a, &self.twist, &self.twist_shoup, q);
        let mut scratch = vec![0u64; self.n];
        let mut in_a = true;
        for i in 0..self.log_n as usize {
            if in_a {
                self.forward_stage_lazy(i, a, &mut scratch);
            } else {
                self.forward_stage_lazy(i, &scratch, a);
            }
            in_a = !in_a;
        }
        self.record_butterflies(Kernel::FwdButterfly);
        // Store stage: copy back from the scratch bank if the ping-pong
        // ended there, then normalize [0, 4q) → [0, q).
        if !in_a {
            a.copy_from_slice(&scratch);
        }
        crate::simd::reduce_from_lazy_slice(Backend::Scalar, a, q);
    }

    /// One inverse CG stage (gather dataflow) in lazy form: inputs and
    /// outputs both in `[0, 2q)`. Butterfly `j` reads `src[2j], src[2j + 1]`
    /// and writes `dst[j], dst[j + N/2]`.
    #[inline]
    fn inverse_stage_lazy(&self, i: usize, src: &[u64], dst: &mut [u64]) {
        let half = self.n / 2;
        let base = i * half;
        let w = &self.inv_twiddles[base..base + half];
        let ws = &self.inv_twiddles_shoup[base..base + half];
        let two_q = self.q.two_q();
        for j in 0..half {
            let (x, y) = (src[2 * j], src[2 * j + 1]);
            let mut s = x + y;
            if s >= two_q {
                s -= two_q;
            }
            dst[j] = s;
            dst[j + half] = self.q.mul_shoup_lazy(x + two_q - y, w[j], ws[j]);
        }
    }

    /// Books one transform's butterfly counts into the dispatch stats:
    /// every CG stage has `n/2` butterflies, all on the scalar kernel.
    fn record_butterflies(&self, kernel: Kernel) {
        let total = (self.n / 2) as u64 * u64::from(self.log_n);
        crate::simd::record_kernel(kernel, 0, total);
    }

    /// Inverse negacyclic CG-NTT. Input bit-reversed, output normal order.
    ///
    /// Runs the reversed (gather) dataflow: stage `i` of the forward network
    /// is undone by reading pairs `(2j, 2j+1)` and writing `(j, j + N/2)` —
    /// still constant geometry, with its own twiddle ROM (`inv_twiddles`).
    /// The `1/N` scale and ψ^{-j} untwist are fused into the store stage,
    /// whose strict Shoup multiply also collapses the `[0, 2q)` lazy values
    /// back to canonical form.
    ///
    /// # Panics
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "operand length mismatch");
        let q = &self.q;
        let mut scratch = vec![0u64; self.n];
        let mut in_a = true;
        for i in (0..self.log_n as usize).rev() {
            if in_a {
                self.inverse_stage_lazy(i, a, &mut scratch);
            } else {
                self.inverse_stage_lazy(i, &scratch, a);
            }
            in_a = !in_a;
        }
        self.record_butterflies(Kernel::InvButterfly);
        // Untwist and scale (the deferred /2 per stage == 1/N overall).
        // `mul_shoup` fully reduces, so this also finishes the lazy values.
        if in_a {
            for j in 0..self.n {
                a[j] = q.mul_shoup(a[j], self.untwist[j], self.untwist_shoup[j]);
            }
        } else {
            for j in 0..self.n {
                a[j] = q.mul_shoup(scratch[j], self.untwist[j], self.untwist_shoup[j]);
            }
        }
    }

    /// Convenience: returns the forward transform of `a`.
    pub fn forward_to_vec(&self, a: &[u64]) -> Vec<u64> {
        let mut v = a.to_vec();
        self.forward(&mut v);
        v
    }

    /// Convenience: returns the inverse transform of `a`.
    pub fn inverse_to_vec(&self, a: &[u64]) -> Vec<u64> {
        let mut v = a.to_vec();
        self.inverse(&mut v);
        v
    }

    /// Clock cycles one hardware NTT execution takes with `n_bf` butterfly
    /// units: `(N/2 · log2 N) / n_bf` (paper §IV-A.1).
    ///
    /// With `N = 4096` and `n_bf = 4` this is the Table III figure of
    /// 6144 cycles.
    pub const fn hardware_cycles(&self, n_bf: usize) -> u64 {
        ((self.n / 2) as u64 * self.log_n as u64) / n_bf as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{Q0, Q1, SPECIAL_P};
    use crate::ntt::{negacyclic_mul_schoolbook, NttTable};
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn random_poly(n: usize, q: &Modulus, rng: &mut impl Rng) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q.value())).collect()
    }

    #[test]
    fn roundtrip() {
        let mut rng = rng();
        for qv in [Q0, Q1, SPECIAL_P] {
            let q = Modulus::new(qv).unwrap();
            for n in [4usize, 16, 128, 1024] {
                let t = CgNttTable::new(n, q).unwrap();
                let a = random_poly(n, &q, &mut rng);
                let mut b = a.clone();
                t.forward(&mut b);
                t.inverse(&mut b);
                assert_eq!(a, b, "q={qv} n={n}");
            }
        }
    }

    #[test]
    fn matches_iterative_ntt_exactly() {
        let mut rng = rng();
        let q = Modulus::new(Q0).unwrap();
        for n in [8usize, 64, 512, 4096] {
            let cg = CgNttTable::new(n, q).unwrap();
            let it = NttTable::new(n, q).unwrap();
            let a = random_poly(n, &q, &mut rng);
            assert_eq!(cg.forward_to_vec(&a), it.forward_to_vec(&a), "fwd n={n}");
            let f = it.forward_to_vec(&a);
            assert_eq!(cg.inverse_to_vec(&f), it.inverse_to_vec(&f), "inv n={n}");
        }
    }

    #[test]
    fn convolution_theorem() {
        let mut rng = rng();
        let q = Modulus::new(Q1).unwrap();
        let n = 128;
        let t = CgNttTable::new(n, q).unwrap();
        let a = random_poly(n, &q, &mut rng);
        let b = random_poly(n, &q, &mut rng);
        let fa = t.forward_to_vec(&a);
        let fb = t.forward_to_vec(&b);
        let fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        assert_eq!(t.inverse_to_vec(&fc), negacyclic_mul_schoolbook(&a, &b, &q));
    }

    #[test]
    fn twiddle_rom_count_is_n_minus_one() {
        // Paper §IV-A.2: "the NTT operation involves a total number of N−1
        // twiddle factors" — stage i stores 2^i distinct values.
        let q = Modulus::new(Q0).unwrap();
        for n in [8usize, 32, 256] {
            let t = CgNttTable::new(n, q).unwrap();
            assert_eq!(t.rom_twiddle_count(), n - 1, "n={n}");
        }
    }

    #[test]
    fn hardware_cycle_formula_matches_table3() {
        let q = Modulus::new(Q0).unwrap();
        let t = CgNttTable::new(4096, q).unwrap();
        assert_eq!(t.hardware_cycles(4), 6144); // Table III: CHAM latency
        assert_eq!(t.hardware_cycles(8), 3072);
    }

    #[test]
    fn stage_twiddles_follow_fig4_pattern() {
        // Stage 0 uses only ω^0 = 1; stage 1 uses {ω^0, ω^{N/4}}, split in
        // contiguous blocks — the column arrangement of Fig. 4.
        let q = Modulus::new(Q0).unwrap();
        let n = 32usize;
        let t = CgNttTable::new(n, q).unwrap();
        let half = n / 2;
        assert!(t.twiddles[..half].iter().all(|&w| w == 1));
        let stage1 = &t.twiddles[half..2 * half];
        assert!(stage1.windows(2).filter(|w| w[0] != w[1]).count() < half);
        assert_eq!(
            stage1
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "operand length mismatch")]
    fn rejects_wrong_length() {
        let q = Modulus::new(Q0).unwrap();
        let t = CgNttTable::new(8, q).unwrap();
        let mut a = vec![0u64; 16];
        t.forward(&mut a);
    }
}
