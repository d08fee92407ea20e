//! SIMD backend equivalence suite.
//!
//! The scalar lazy datapath (and, transitively, the strict twins from the
//! PR 4 equivalence suites) is the correctness oracle: for every backend the
//! host can execute, every vector kernel must produce **bit-identical**
//! output — lane for lane, including the lazy representative ranges — on
//! random inputs, the `q − 1` worst case, and all workspace moduli, at
//! N = 16 / 32 / 256 / 1024 / 4096. (N = 16 is one 8-lane register per
//! butterfly leg and no wide stage at all; N = 32 is the first size with
//! one.) "Bit-identical" is about what a kernel hands back: inside a
//! transform the `avx512ifma` tier's lazy intermediates may sit a multiple
//! of `q` from the scalar ones — its own per-stage test in `simd.rs` pins
//! residue and range — but every public output is canonical and equal.
//!
//! Backends the host cannot run are absent from `Backend::all_available`,
//! so their arms skip rather than fail.

use cham_math::modulus::{Q0, Q1, SPECIAL_P};
use cham_math::ntt_cg::CgNttTable;
use cham_math::primality::is_prime;
use cham_math::{simd, Backend, Modulus, NttTable};
use rand::{Rng, SeedableRng};

const SIZES: [usize; 5] = [16, 32, 256, 1024, 4096];

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0x0051_D0E9)
}

fn moduli() -> Vec<Modulus> {
    [Q0, Q1, SPECIAL_P]
        .iter()
        .map(|&q| Modulus::new(q).unwrap())
        .collect()
}

fn vector_backends() -> Vec<Backend> {
    Backend::all_available()
        .into_iter()
        .filter(|b| *b != Backend::Scalar)
        .collect()
}

/// Random canonical poly plus the all-(q−1) worst case.
fn test_inputs(n: usize, q: &Modulus, rng: &mut impl Rng) -> Vec<Vec<u64>> {
    let mut random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
    // Pin boundary coefficients into the random vector too.
    random[0] = 0;
    random[1] = q.value() - 1;
    vec![random, vec![q.value() - 1; n], vec![0u64; n]]
}

#[test]
fn forward_and_inverse_match_scalar_bit_for_bit() {
    let mut rng = rng();
    for q in moduli() {
        for n in SIZES {
            let scalar = NttTable::with_backend(n, q, Backend::Scalar).unwrap();
            for backend in vector_backends() {
                let table = NttTable::with_backend(n, q, backend).unwrap();
                assert_eq!(table.backend(), backend);
                for input in test_inputs(n, &q, &mut rng) {
                    let mut expect = input.clone();
                    scalar.forward(&mut expect);
                    let mut got = input.clone();
                    table.forward(&mut got);
                    assert_eq!(got, expect, "fwd n={n} q={q} backend={backend}");
                    scalar.inverse(&mut expect);
                    table.inverse(&mut got);
                    assert_eq!(got, expect, "inv n={n} q={q} backend={backend}");
                    assert_eq!(got, input, "roundtrip n={n} q={q} backend={backend}");
                }
            }
        }
    }
}

/// The largest prime below `2^bits` that hosts a negacyclic NTT of size `n`.
fn largest_ntt_prime(bits: u32, n: usize) -> Modulus {
    let step = 2 * n as u64;
    let mut q = ((1u64 << bits) - 1) / step * step + 1;
    while !is_prime(q) {
        q -= step;
    }
    Modulus::new(q).unwrap()
}

#[test]
fn ifma_takes_moduli_below_2_pow_50_and_hands_wider_ones_to_avx2() {
    if !Backend::Avx512Ifma.available() {
        return;
    }
    let mut rng = rng();
    for n in [16usize, 1024] {
        // 50 bits is the widest modulus whose lazy values (< 4q) fit the
        // 52-bit multiplier; 51 and 60 bits are properties of the input
        // that resolve the table to the AVX2 kernels, not errors.
        for (bits, expect) in [
            (50, Backend::Avx512Ifma),
            (51, Backend::Avx2),
            (60, Backend::Avx2),
        ] {
            let q = largest_ntt_prime(bits, n);
            assert_eq!(q.bits(), bits);
            let scalar = NttTable::with_backend(n, q, Backend::Scalar).unwrap();
            let table = NttTable::with_backend(n, q, Backend::Avx512Ifma).unwrap();
            assert_eq!(table.backend(), expect, "n={n} bits={bits}");
            for input in test_inputs(n, &q, &mut rng) {
                let (mut want, mut got) = (input.clone(), input.clone());
                scalar.forward(&mut want);
                table.forward(&mut got);
                assert_eq!(got, want, "fwd n={n} bits={bits}");
                scalar.inverse(&mut want);
                table.inverse(&mut got);
                assert_eq!(got, want, "inv n={n} bits={bits}");
                assert_eq!(got, input, "roundtrip n={n} bits={bits}");
            }
        }
    }
    // Below one 16-element block the request resolves the same way.
    let tiny = NttTable::with_backend(8, moduli()[0], Backend::Avx512Ifma).unwrap();
    assert_eq!(tiny.backend(), Backend::Avx2);
}

#[test]
fn constant_geometry_matches_scalar_bit_for_bit() {
    // The CG table has no vector arm: under whatever `CHAM_SIMD` this
    // process runs, it lands every lane where the scalar iterative
    // transform does.
    let mut rng = rng();
    for q in moduli() {
        for n in SIZES {
            let scalar = NttTable::with_backend(n, q, Backend::Scalar).unwrap();
            let table = CgNttTable::new(n, q).unwrap();
            for input in test_inputs(n, &q, &mut rng) {
                let mut expect = input.clone();
                scalar.forward(&mut expect);
                let mut got = input.clone();
                table.forward(&mut got);
                assert_eq!(got, expect, "cg fwd n={n} q={q}");
                scalar.inverse(&mut expect);
                table.inverse(&mut got);
                assert_eq!(got, expect, "cg inv n={n} q={q}");
            }
        }
    }
}

#[test]
fn vector_lazy_path_matches_strict_twins() {
    // Transitivity check straight against the PR 4 strict datapath — not
    // just scalar-lazy — so a correlated bug in both lazy paths would
    // still be caught.
    let mut rng = rng();
    for q in moduli() {
        for n in SIZES {
            for backend in Backend::all_available() {
                let table = NttTable::with_backend(n, q, backend).unwrap();
                for input in test_inputs(n, &q, &mut rng) {
                    let mut lazy = input.clone();
                    table.forward(&mut lazy);
                    let mut strict = input.clone();
                    table.forward_strict(&mut strict);
                    assert_eq!(lazy, strict, "fwd n={n} q={q} backend={backend}");
                    table.inverse(&mut lazy);
                    table.inverse_strict(&mut strict);
                    assert_eq!(lazy, strict, "inv n={n} q={q} backend={backend}");
                }
            }
        }
    }
}

#[test]
fn mul_shoup_lazy_slice_matches_scalar_over_full_lazy_domain() {
    let mut rng = rng();
    for q in moduli() {
        for n in [16usize, 1024, 4096, 17, 63] {
            // Operands span the whole documented domain: any u64 `a` works,
            // so include values far above 4q alongside lazy-range ones.
            let a0: Vec<u64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range(0..4 * q.value())
                    } else {
                        rng.gen()
                    }
                })
                .collect();
            let w: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
            let ws: Vec<u64> = w.iter().map(|&x| q.shoup(x)).collect();
            let mut expect = a0.clone();
            simd::mul_shoup_lazy_slice(Backend::Scalar, &mut expect, &w, &ws, &q);
            for backend in vector_backends() {
                let mut got = a0.clone();
                simd::mul_shoup_lazy_slice(backend, &mut got, &w, &ws, &q);
                assert_eq!(got, expect, "n={n} q={q} backend={backend}");
            }
        }
    }
}

#[test]
fn mac_matches_scalar_at_the_accumulation_bound() {
    // LAZY_ACC_BOUND worst-case products on a dirty accumulator — the
    // exact headroom limit FusedAccumulator runs at.
    for q in moduli() {
        for n in [16usize, 1024, 37] {
            let worst = vec![q.value() - 1; n];
            let mut expect = vec![0xDEAD_BEEFu128; n];
            simd::mac_write(Backend::Scalar, &mut expect, &worst, &worst);
            for _ in 1..cham_math::poly::LAZY_ACC_BOUND {
                simd::mac_accumulate(Backend::Scalar, &mut expect, &worst, &worst);
            }
            for backend in vector_backends() {
                let mut got = vec![0xDEAD_BEEFu128; n];
                simd::mac_write(backend, &mut got, &worst, &worst);
                for _ in 1..cham_math::poly::LAZY_ACC_BOUND {
                    simd::mac_accumulate(backend, &mut got, &worst, &worst);
                }
                assert_eq!(got, expect, "n={n} q={q} backend={backend}");
            }
        }
    }
}

#[test]
fn dispatch_counters_advance_for_vector_backends() {
    let q = Modulus::new(Q0).unwrap();
    let before = simd::simd_stats();
    for backend in vector_backends() {
        let table = NttTable::with_backend(1024, q, backend).unwrap();
        let mut a = vec![1u64; 1024];
        table.forward(&mut a);
    }
    let after = simd::simd_stats();
    if vector_backends().is_empty() {
        return;
    }
    let fwd = simd::Kernel::FwdButterfly as usize;
    assert!(
        after.kernels[fwd].vector_elems > before.kernels[fwd].vector_elems,
        "vector butterflies should be booked for vector backends"
    );
}
