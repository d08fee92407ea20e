//! Vector/tail accounting of the dispatch counters, per backend.
//!
//! The counters are process-wide, so this file holds exactly one test:
//! nothing else runs in its process and the deltas are exact. A stage (or
//! slice) is booked as vector when the arm that ran it used vector lanes —
//! not when the backend's nominal lane count would have allowed it.

use cham_math::modulus::{Q0, Q1, SPECIAL_P};
use cham_math::simd::{self, Kernel};
use cham_math::{Backend, Modulus, NttTable};

/// `(vector, tail)` elements booked for `kernel` while `f` ran.
fn booked(kernel: Kernel, f: impl FnOnce()) -> (u64, u64) {
    let before = simd::simd_stats().kernels[kernel as usize];
    f();
    let after = simd::simd_stats().kernels[kernel as usize];
    (
        after.vector_elems - before.vector_elems,
        after.tail_elems - before.tail_elems,
    )
}

#[test]
fn counters_follow_the_arm_that_ran() {
    let q = Modulus::new(Q0).unwrap();
    let n = 2048usize;
    let (stages, half) = (11u64, n as u64 / 2);
    for backend in Backend::all_available() {
        // Vectorised stages of the forward transform and of the inverse
        // one (whose last stage is the fused n⁻¹ one): every stage under
        // IFMA; forward strides of at least the arm's lane width and no
        // inverse stage under AVX2 (its inverse arm was deleted). Then the
        // normalization pass's `(vector, tail)`: `n` is a multiple of
        // every lane width, so it is all one or all the other.
        let (fwd, inv, normalize) = match backend {
            Backend::Scalar => (0, 0, (0, n as u64)),
            Backend::Avx2 => (9, 0, (n as u64, 0)),
            Backend::Avx512Ifma => (11, 11, (n as u64, 0)),
        };
        let table = NttTable::with_backend(n, q, backend).unwrap();
        let mut a = vec![1u64; n];
        assert_eq!(
            booked(Kernel::FwdButterfly, || table.forward(&mut a)),
            (fwd * half, (stages - fwd) * half),
            "fwd backend={backend}"
        );
        assert_eq!(
            booked(Kernel::InvButterfly, || table.inverse(&mut a)),
            (inv * half, (stages - inv) * half),
            "inv backend={backend}"
        );
        assert_eq!(
            booked(Kernel::Normalize, || table.forward(&mut a)),
            normalize,
            "normalize backend={backend}"
        );
        // One key-switch's digit products over the CHAM chain: two digits,
        // three limbs, one call per limb on that limb's table backend —
        // `2 · digits · lanes` products, all in vector lanes where the
        // table resolved to IFMA and all tail everywhere else.
        let (digits, limbs) = (2usize, 3usize);
        let lanes = limbs * n;
        let products = (2 * digits * lanes) as u64;
        let tables: Vec<NttTable> = [Q0, Q1, SPECIAL_P]
            .map(|q| NttTable::with_backend(n, Modulus::new(q).unwrap(), backend).unwrap())
            .into();
        let key = vec![vec![1u64; n]; digits];
        let key: Vec<&[u64]> = key.iter().map(Vec::as_slice).collect();
        let mut words = vec![1u64; digits * lanes];
        let keyswitch = if backend == Backend::Avx512Ifma {
            (products, 0)
        } else {
            (0, products)
        };
        assert_eq!(
            booked(Kernel::Mac, || {
                for (l, table) in tables.iter().enumerate() {
                    let x = &mut words[l * n..];
                    simd::digit_product(table.backend(), x, lanes, &key, &key, table.modulus());
                }
            }),
            keyswitch,
            "key-switch digit products backend={backend}"
        );
        // The u128 row MAC has no vector arm (the AVX2 one lost to scalar
        // and was deleted), and neither does the element-wise multiply:
        // every backend books them as tail. A digit product over a slice
        // that is not whole registers books its tail as tail.
        let len = 37;
        let (w, mut x, mut acc) = (vec![1u64; len], vec![2u64; len], vec![0u128; len]);
        assert_eq!(
            booked(Kernel::Mac, || simd::mac_write(backend, &mut acc, &w, &w)),
            (0, len as u64),
            "mac backend={backend}"
        );
        let mut pair = vec![1u64; 2 * len];
        let ifma = u64::from(backend == Backend::Avx512Ifma);
        assert_eq!(
            booked(Kernel::Mac, || {
                simd::digit_product(backend, &mut pair, len, &[&w[..]], &[&w[..]], &q);
            }),
            (2 * 32 * ifma, 2 * (len as u64 - 32 * ifma)),
            "digit product tail backend={backend}"
        );
        let ws: Vec<u64> = w.iter().map(|&v| q.shoup(v)).collect();
        assert_eq!(
            booked(Kernel::MulShoupLazy, || {
                simd::mul_shoup_lazy_slice(backend, &mut x, &w, &ws, &q);
            }),
            (0, len as u64),
            "mul_shoup_lazy backend={backend}"
        );
    }
}
