//! Vector/tail accounting of the lane counters, per backend.
//!
//! The counters are process-wide, so this file holds exactly one test:
//! nothing else runs in its process and the deltas are exact. A stage (or
//! slice) is booked as vector when the arm that ran it used vector lanes —
//! not when the backend's nominal lane count would have allowed it.

use cham_math::modulus::{lazy_flush_count, Q0, Q1, SPECIAL_P};
use cham_math::rns::{Form, FusedAccumulator};
use cham_math::simd::{self, Kernel};
use cham_math::{Backend, Modulus, NttTable, Poly, RnsContext, RnsPoly};

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
        // A normalization pass that is not whole registers: 11 elements
        // run on the stage arm (AVX2's four lanes under IFMA too), two
        // registers and a 3-element tail; all tail under scalar.
        let mut odd = vec![1u64; 11];
        assert_eq!(
            booked(Kernel::Normalize, || {
                simd::reduce_from_lazy_slice(backend, &mut odd, &q);
            }),
            if backend == Backend::Scalar {
                (0, 11)
            } else {
                (8, 3)
            },
            "normalize tail backend={backend}"
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
        // One row's products over the same limbs, three column tiles in
        // one call per limb: `2 · tiles · lanes`, booked like the digit
        // product.
        let tiles = 3usize;
        let rows = (2 * tiles * lanes) as u64;
        let tile = vec![vec![1u64; n]; tiles];
        let tile: Vec<&[u64]> = tile.iter().map(Vec::as_slice).collect();
        assert_eq!(
            booked(Kernel::Mac, || {
                for (l, table) in tables.iter().enumerate() {
                    let out = &mut words[l * n..(l + 1) * n];
                    simd::row_product(table.backend(), out, &tile, &tile, &tile, table.modulus());
                }
            }),
            if backend == Backend::Avx512Ifma {
                (rows, 0)
            } else {
                (0, rows)
            },
            "row products backend={backend}"
        );
        // A digit or row product over a slice that is not whole registers
        // books its tail as tail.
        let len = 37;
        let w = vec![1u64; len];
        let mut pair = vec![1u64; 2 * len];
        let ifma = u64::from(backend == Backend::Avx512Ifma);
        assert_eq!(
            booked(Kernel::Mac, || {
                simd::digit_product(backend, &mut pair, len, &[&w[..]], &[&w[..]], &q);
            }),
            (2 * 32 * ifma, 2 * (len as u64 - 32 * ifma)),
            "digit product tail backend={backend}"
        );
        let (mut out, two) = (vec![0u64; len], [&w[..], &w[..]]);
        assert_eq!(
            booked(Kernel::Mac, || {
                simd::row_product_add(backend, &mut out, &two, &two, &two, &q);
            }),
            (2 * 2 * 32 * ifma, 2 * 2 * (len as u64 - 32 * ifma)),
            "row product tail backend={backend}"
        );
        // The pack's element-wise passes: one coefficient per limb written
        // (a butterfly pair is one), in vector lanes under IFMA for every
        // whole register and on the scalar arm everywhere else.
        let on_lanes = |elems: u64| {
            if backend == Backend::Avx512Ifma {
                (elems, 0)
            } else {
                (0, elems)
            }
        };
        let (mut even, mut odd) = (vec![1u64; n], vec![2u64; n]);
        assert_eq!(
            booked(Kernel::Eltwise, || {
                simd::monomial_butterfly(backend, &mut even, &mut odd, n / 2, &q);
            }),
            on_lanes(n as u64),
            "butterfly backend={backend}"
        );
        // At `g = 4` the wrapped segment is shorter than a register and
        // the shifted one (`n − 4` pairs) ends in a four-pair tail.
        assert_eq!(
            booked(Kernel::Eltwise, || {
                simd::monomial_butterfly(backend, &mut even, &mut odd, 4, &q);
            }),
            if backend == Backend::Avx512Ifma {
                (n as u64 - 8, 8)
            } else {
                (0, n as u64)
            },
            "butterfly tail backend={backend}"
        );
        assert_eq!(
            booked(Kernel::Eltwise, || {
                simd::automorph_add(backend, &even, &mut odd, 5, &q);
            }),
            on_lanes(n as u64),
            "automorph backend={backend}"
        );
        // Four coefficients are less than a register: the scalar arm.
        assert_eq!(
            booked(Kernel::Eltwise, || {
                simd::automorph_add(backend, &even[..4], &mut odd[..4], 5, &q);
            }),
            (0, 4),
            "automorph tail backend={backend}"
        );
        // The NTT-form butterfly runs in lanes at every block length, a
        // block shorter than a register (`g = 1`) too; a limb shorter
        // than a register runs the scalar arm.
        let ntt = NttTable::new(n, q).unwrap();
        for g in [n / 2, 8, 1] {
            let (roots, shoups) = ntt.monomial_roots(g);
            assert_eq!(
                booked(Kernel::Eltwise, || {
                    simd::ntt_monomial_butterfly(backend, &mut even, &mut odd, roots, shoups, &q);
                }),
                on_lanes(n as u64),
                "NTT-form butterfly g={g} backend={backend}"
            );
        }
        let ntt = NttTable::new(4, q).unwrap();
        let (roots, shoups) = ntt.monomial_roots(1);
        assert_eq!(
            booked(Kernel::Eltwise, || {
                let (even, odd) = (&mut even[..4], &mut odd[..4]);
                simd::ntt_monomial_butterfly(backend, even, odd, roots, shoups, &q);
            }),
            (0, 4),
            "NTT-form butterfly tail backend={backend}"
        );
        // One digit over `q0` into the CHAM chain's three limbs (a
        // compare-subtract into `q1 < q0`, a copy into `p`); then a digit
        // over `p` into `[q0, p]`, where `p ≥ 2·q0` re-embeds by Barrett on
        // the scalar arm, booked as tail.
        let chain = [Q0, Q1, SPECIAL_P].map(|q| Modulus::new(q).unwrap());
        let mut digits = vec![0u64; 3 * n];
        assert_eq!(
            booked(Kernel::Eltwise, || {
                simd::write_digit(backend, &even, 3, 0, &mut digits, &chain, 0);
            }),
            on_lanes(3 * n as u64),
            "digits backend={backend}"
        );
        let barrett = [chain[0], chain[2]];
        assert_eq!(
            booked(Kernel::Eltwise, || {
                simd::write_digit(backend, &even, 3, 0, &mut digits[..2 * n], &barrett, 1);
            }),
            if backend == Backend::Avx512Ifma {
                (n as u64, n as u64)
            } else {
                (0, 2 * n as u64)
            },
            "digits Barrett backend={backend}"
        );
    }
    // The element-wise multiply has no vector arm and takes no backend:
    // every element is booked as tail.
    let len = 37;
    let (w, mut x) = (vec![1u64; len], vec![2u64; len]);
    let ws: Vec<u64> = w.iter().map(|&v| q.shoup(v)).collect();
    assert_eq!(
        booked(Kernel::MulShoupLazy, || {
            simd::mul_shoup_lazy_slice(&mut x, &w, &ws, &q);
        }),
        (0, len as u64),
        "mul_shoup_lazy"
    );
    // Neither has the u128 MAC inside `FusedAccumulator`: one accumulate
    // books every lane of every limb as tail, and a flush counts one pass
    // per limb — two flushes for `2·LAZY_ACC_BOUND + 3` terms (the last
    // three reach `finish` unflushed).
    let ones = |ctx: &RnsContext| {
        let limbs = vec![Poly::from_coeffs(vec![1; n]); ctx.len()];
        RnsPoly::from_limbs(ctx, limbs, Form::Ntt).unwrap()
    };
    let chain = RnsContext::new(n, &[Q0, Q1, SPECIAL_P]).unwrap();
    let (x, mut scratch) = (ones(&chain), vec![0u128; chain.len() * n]);
    let mut acc = FusedAccumulator::new(&chain, &mut scratch).unwrap();
    assert_eq!(
        booked(Kernel::Mac, || acc.accumulate(&x, &x).unwrap()),
        (0, (chain.len() * n) as u64),
        "FusedAccumulator::accumulate"
    );
    let flushes = |ctx: &RnsContext| {
        let (x, mut scratch) = (ones(ctx), vec![0u128; ctx.len() * n]);
        let before = lazy_flush_count();
        let mut acc = FusedAccumulator::new(ctx, &mut scratch).unwrap();
        for _ in 0..2 * FusedAccumulator::LAZY_ACC_BOUND + 3 {
            acc.accumulate(&x, &x).unwrap();
        }
        acc.finish();
        lazy_flush_count() - before
    };
    assert_eq!(flushes(&RnsContext::new(n, &[Q0]).unwrap()), 2);
    assert_eq!(flushes(&chain), 2 * chain.len() as u64);
}
