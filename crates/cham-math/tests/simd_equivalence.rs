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
//! The element-wise kernels with an IFMA arm — the key-switch digit
//! product and the rescale — are held to the same contract: bit-identical
//! to their scalar arm at every digit count up to the stated headroom, on
//! every workspace modulus and one just under 2^50, for whole registers and
//! tails alike; and the scalar arm to the textbook formula.
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

/// Every workspace modulus plus one just under 2^50 — the widest the IFMA
/// arms take, where their headroom bounds are tightest.
fn moduli_to_2_pow_50() -> Vec<Modulus> {
    let mut all = moduli();
    all.push(largest_ntt_prime(50, 4096));
    all
}

/// `Σ_d x_d·k_d mod q` coefficient by coefficient — the textbook sum the
/// scalar arm must equal.
fn textbook_digit_sum(digits: &[Vec<u64>], key: &[Vec<u64>], q: &Modulus) -> Vec<u64> {
    (0..key[0].len())
        .map(|j| {
            digits
                .iter()
                .zip(key)
                .fold(0, |acc, (x, k)| q.add(acc, q.mul(x[j], k[j])))
        })
        .collect()
}

#[test]
fn digit_product_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    let max = simd::DIGIT_PRODUCT_MAX_DIGITS;
    for q in moduli_to_2_pow_50() {
        for n in [16usize, 256, 4096] {
            for digits in [1usize, 2, 3, max] {
                // A stride past `n` as well as the packed one: the digits of
                // a key-switch limb sit one augmented polynomial apart.
                for stride in [n, n + 5] {
                    let slots = digits.max(2);
                    let random = |rng: &mut rand::rngs::StdRng| {
                        (0..n)
                            .map(|_| rng.gen_range(0..q.value()))
                            .collect::<Vec<_>>()
                    };
                    let top = vec![q.value() - 1; n];
                    for worst in [false, true] {
                        let draw = |rng: &mut rand::rngs::StdRng| {
                            (0..digits)
                                .map(|_| if worst { top.clone() } else { random(rng) })
                                .collect::<Vec<_>>()
                        };
                        let (xs, kb, ka) = (draw(&mut rng), draw(&mut rng), draw(&mut rng));
                        let mut x = vec![7u64; (slots - 1) * stride + n];
                        for (d, digit) in xs.iter().enumerate() {
                            x[d * stride..d * stride + n].copy_from_slice(digit);
                        }
                        let kb_refs: Vec<&[u64]> = kb.iter().map(Vec::as_slice).collect();
                        let ka_refs: Vec<&[u64]> = ka.iter().map(Vec::as_slice).collect();
                        let run = |backend: Backend| {
                            let mut out = x.clone();
                            simd::digit_product(backend, &mut out, stride, &kb_refs, &ka_refs, &q);
                            out
                        };
                        let want = run(Backend::Scalar);
                        let case = format!("q={q} n={n} digits={digits} stride={stride}");
                        assert_eq!(&want[..n], textbook_digit_sum(&xs, &kb, &q), "b {case}");
                        assert_eq!(
                            &want[stride..stride + n],
                            textbook_digit_sum(&xs, &ka, &q),
                            "a {case}"
                        );
                        for backend in vector_backends() {
                            assert_eq!(run(backend), want, "{case} worst={worst} {backend}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "outside 1..=16")]
fn digit_product_refuses_digits_past_its_headroom() {
    // Seventeen all-(q−1) digits under a modulus just below 2^50 would
    // carry the IFMA arm's high sum past 52 bits (and, at 62 bits, wrap
    // the scalar arm's u128): the call is refused, never summed.
    let q = largest_ntt_prime(50, 16);
    let digits = simd::DIGIT_PRODUCT_MAX_DIGITS + 1;
    let key = vec![q.value() - 1; 16];
    let keys = vec![key.as_slice(); digits];
    let mut x = vec![q.value() - 1; digits * 16];
    simd::digit_product(Backend::detect_auto(), &mut x, 16, &keys, &keys, &q);
}

/// The chains of `properties.rs`'s rescale suite — every workspace modulus
/// as dropped prime and as survivor — plus two primes just under 2^50,
/// where the IFMA arm's lifted values come closest to 2^52.
fn rescale_chains() -> Vec<Vec<Modulus>> {
    let wide = [largest_ntt_prime(50, 16), largest_ntt_prime(49, 16)];
    [
        vec![Q0, Q1, SPECIAL_P],
        vec![Q0, Q1],
        vec![Q1, SPECIAL_P, Q0],
        vec![SPECIAL_P, Q0, Q1],
    ]
    .into_iter()
    .map(|chain| {
        chain
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect()
    })
    .chain([wide.to_vec(), vec![wide[1], wide[0]]])
    .collect()
}

#[test]
fn rescale_into_and_add_match_scalar_bit_for_bit() {
    let mut rng = rng();
    for chain in rescale_chains() {
        let (p, surviving) = chain.split_last().unwrap();
        let pv = p.value();
        for &q in surviving {
            let limb = simd::RescaleLimb::new(q, *p).unwrap();
            let inv_p = q.inv(pv % q.value()).unwrap();
            for len in [1usize, 7, 8, 9, 4096] {
                for r in [0, pv / 2, pv / 2 + 1, pv - 1] {
                    // Dropped residues at every rounding boundary (and
                    // random ones), surviving residues random and q − 1.
                    let last: Vec<u64> = (0..len)
                        .map(|j| if j % 3 == 2 { rng.gen_range(0..pv) } else { r })
                        .collect();
                    for top in [false, true] {
                        let x: Vec<u64> = (0..len)
                            .map(|_| {
                                if top {
                                    q.value() - 1
                                } else {
                                    rng.gen_range(0..q.value())
                                }
                            })
                            .collect();
                        let held: Vec<u64> =
                            (0..len).map(|_| rng.gen_range(0..q.value())).collect();
                        let run = |backend: Backend| {
                            let mut into = vec![u64::MAX; len];
                            simd::rescale_into(backend, &limb, &x, &last, &mut into);
                            let mut add = held.clone();
                            simd::rescale_add(backend, &limb, &x, &last, &mut add);
                            (into, add)
                        };
                        let want = run(Backend::Scalar);
                        // The scalar arm against the textbook formula.
                        let textbook: Vec<u64> = x
                            .iter()
                            .zip(&last)
                            .map(|(&xi, &ri)| {
                                let centred = if ri > pv / 2 {
                                    q.neg(q.reduce(pv - ri))
                                } else {
                                    q.reduce(ri)
                                };
                                q.mul(q.sub(xi, centred), inv_p)
                            })
                            .collect();
                        let case = format!("q={q} p={p} len={len} r={r} top={top}");
                        assert_eq!(want.0, textbook, "into {case}");
                        let summed: Vec<u64> = held
                            .iter()
                            .zip(&textbook)
                            .map(|(&h, &t)| q.add(h, t))
                            .collect();
                        assert_eq!(want.1, summed, "add {case}");
                        for backend in vector_backends() {
                            assert_eq!(run(backend), want, "{case} backend={backend}");
                        }
                    }
                }
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
