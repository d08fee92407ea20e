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
//! product, the HMVP row product and the rescale — are held to the same
//! contract: bit-identical to their scalar arm at every digit or tile
//! count up to the stated headroom, on every workspace modulus and one
//! just under 2^50, for whole registers and tails alike; and the scalar
//! arm to the textbook formula. So are the pack's element-wise passes —
//! the monomial butterfly, the automorphism added into a limb and the
//! digit written into every limb — at every pack level, with the
//! difference stored plain and rotated, on random, all-(q−1) and all-zero
//! inputs; and so are their NTT-domain twins on the pack's `b` half — the
//! butterfly against a short root table and the slot gather-add — at
//! every level `h` and every `k = 2^h + 1`, and the constant add of the
//! first level's leaf pair, on a modulus of 2^50 or more (the scalar arm
//! under every backend) as well.
//!
//! Backends the host cannot run are absent from `Backend::all_available`,
//! so their arms skip rather than fail.

use cham_math::modulus::{Q0, Q1, SPECIAL_P};
use cham_math::ntt::GaloisSlots;
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

/// The element-wise multiply has no vector arm and takes no backend, so
/// its one check is against [`Modulus::mul_shoup_lazy`], element by
/// element, per modulus — the workspace ones and a 62-bit one, the widest
/// `Modulus::new` takes.
#[test]
fn mul_shoup_lazy_slice_matches_scalar_over_full_lazy_domain() {
    let mut rng = rng();
    let widest = Modulus::new((1 << 62) - 57).unwrap();
    for q in moduli().into_iter().chain([widest]) {
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
            let mut got = a0.clone();
            simd::mul_shoup_lazy_slice(&mut got, &w, &ws, &q);
            for i in 0..n {
                let want = q.mul_shoup_lazy(a0[i], w[i], ws[i]);
                assert_eq!(got[i], want, "n={n} q={q} i={i}");
                assert!(got[i] < q.two_q(), "n={n} q={q} i={i}");
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

/// The row product the textbook way: per coefficient
/// `Σ_t pt_t[j]·ct_a,t[j] mod q` added to `prior`, and the inner product
/// `Σ_t Σ_j pt_t[j]·ct_b,t[j] mod q`.
fn textbook_row(
    prior: &[u64],
    pt: &[Vec<u64>],
    ct_a: &[Vec<u64>],
    ct_b: &[Vec<u64>],
    q: &Modulus,
) -> (Vec<u64>, u64) {
    let a = (0..prior.len())
        .map(|j| {
            pt.iter()
                .zip(ct_a)
                .fold(prior[j], |acc, (p, x)| q.add(acc, q.mul(p[j], x[j])))
        })
        .collect();
    let b = pt.iter().zip(ct_b).fold(0, |acc, (p, y)| {
        p.iter()
            .zip(y)
            .fold(acc, |acc, (&p, &y)| q.add(acc, q.mul(p, y)))
    });
    (a, b)
}

#[test]
fn row_product_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    let max = simd::DIGIT_PRODUCT_MAX_DIGITS;
    // Every tile count on whole registers and odd tails; the long slices
    // at the edges of the tile range, and one past the IFMA arm's 2^14
    // coefficient span at the full sixteen.
    let mut cases: Vec<(usize, usize)> = [8usize, 13, 16]
        .into_iter()
        .flat_map(|n| (1..=max).map(move |tiles| (n, tiles)))
        .collect();
    for n in [4096usize, 4099] {
        cases.extend([1, 2, max].map(|tiles| (n, tiles)));
    }
    cases.push(((1 << 14) + 13, max));
    for q in moduli_to_2_pow_50() {
        for &(n, tiles) in &cases {
            for worst in [false, true] {
                let draw = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
                    if worst {
                        vec![q.value() - 1; n]
                    } else {
                        (0..n).map(|_| rng.gen_range(0..q.value())).collect()
                    }
                };
                let tiles_of = |rng: &mut rand::rngs::StdRng| -> Vec<Vec<u64>> {
                    (0..tiles).map(|_| draw(rng)).collect()
                };
                let (pt, ct_a, ct_b) = (tiles_of(&mut rng), tiles_of(&mut rng), tiles_of(&mut rng));
                let prior = draw(&mut rng);
                let [p, x, y] =
                    [&pt, &ct_a, &ct_b].map(|v| v.iter().map(Vec::as_slice).collect::<Vec<_>>());
                for add in [false, true] {
                    let run = |backend: Backend| {
                        let mut out = prior.clone();
                        let sum = if add {
                            simd::row_product_add(backend, &mut out, &p, &x, &y, &q)
                        } else {
                            simd::row_product(backend, &mut out, &p, &x, &y, &q)
                        };
                        (out, sum)
                    };
                    let want = run(Backend::Scalar);
                    let zeros = vec![0; n];
                    let base = if add { &prior } else { &zeros };
                    let case = format!("q={q} n={n} tiles={tiles} worst={worst} add={add}");
                    assert_eq!(want, textbook_row(base, &pt, &ct_a, &ct_b, &q), "{case}");
                    for backend in vector_backends() {
                        assert_eq!(run(backend), want, "{case} {backend}");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "outside 1..=16")]
fn row_product_refuses_tiles_past_its_headroom() {
    // Seventeen all-(q−1) tiles under a modulus just below 2^50 would
    // carry the IFMA arm's high sum past 52 bits (and, at 62 bits, wrap
    // the scalar arm's u128): the call is refused, never summed.
    let q = largest_ntt_prime(50, 16);
    let tile = vec![q.value() - 1; 16];
    let tiles = vec![tile.as_slice(); simd::DIGIT_PRODUCT_MAX_DIGITS + 1];
    let mut out = vec![0; 16];
    simd::row_product(Backend::detect_auto(), &mut out, &tiles, &tiles, &tiles, &q);
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

/// The pack's levels at `n`: `(k, rot)` for `k = 2^h + 1` at every level
/// `h` with the difference stored plain and rotated by `N >> h` (as
/// `monomial_butterfly` leaves it), plus the plain decomposition
/// `k = 1, rot = 0`.
fn pack_levels(n: usize) -> Vec<(usize, usize)> {
    let levels = (1..=n.trailing_zeros()).flat_map(|h| [((1 << h) + 1, 0), ((1 << h) + 1, n >> h)]);
    std::iter::once((1, 0)).chain(levels).collect()
}

/// Random residues below `q` (with 0 and `q − 1` pinned at the front),
/// all-(q−1) and all-zero: negation must map the zeros to 0, not `q`.
fn pack_inputs(n: usize, q: &Modulus, rng: &mut impl Rng) -> Vec<Vec<u64>> {
    let mut random: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
    random[0] = 0;
    if n > 1 {
        random[1] = q.value() - 1;
    }
    vec![random, vec![q.value() - 1; n], vec![0u64; n]]
}

/// `σ_k` of the polynomial stored in `src` rotated by `rot`, the textbook
/// way (`Poly::automorph` on the logical coefficients).
fn textbook_automorph(src: &[u64], k: usize, rot: usize, q: &Modulus) -> Vec<u64> {
    let n = src.len();
    let logical: Vec<u64> = (0..n).map(|j| src[(j + n - rot) % n]).collect();
    cham_math::poly::Poly::from_coeffs(logical)
        .automorph(k, q)
        .unwrap()
        .coeffs()
        .to_vec()
}

/// The pack's sizes: the equivalence suite's, plus `N = 4` and `8`, whose
/// automorphisms are shorter than or exactly one register.
const PACK_SIZES: [usize; 7] = [4, 8, 16, 32, 256, 1024, 4096];

#[test]
fn monomial_butterfly_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    for q in moduli_to_2_pow_50() {
        for n in PACK_SIZES {
            // Every pack level's `g = N >> h`: whole registers in both
            // segments, and segments shorter than one at the top levels.
            for g in (0..=n.trailing_zeros()).map(|h| n >> h) {
                for (even, odd) in pack_inputs(n, &q, &mut rng)
                    .into_iter()
                    .zip(pack_inputs(n, &q, &mut rng).into_iter().rev())
                {
                    let run = |backend: Backend| {
                        let (mut e, mut o) = (even.clone(), odd.clone());
                        simd::monomial_butterfly(backend, &mut e, &mut o, g, &q);
                        (e, o)
                    };
                    let want = run(Backend::Scalar);
                    // The scalar arm against `even ± X^g·odd`, the
                    // difference rotated left by `g`.
                    let shifted = cham_math::poly::Poly::from_coeffs(odd.clone()).shift_neg(g, &q);
                    let sum: Vec<u64> = even
                        .iter()
                        .zip(shifted.coeffs())
                        .map(|(&e, &o)| q.add(e, o))
                        .collect();
                    let diff: Vec<u64> = (0..n)
                        .map(|i| {
                            let j = (i + g) % n;
                            q.sub(even[j], shifted.coeffs()[j])
                        })
                        .collect();
                    let case = format!("q={q} n={n} g={g}");
                    assert_eq!(want, (sum, diff), "{case}");
                    for backend in vector_backends() {
                        assert_eq!(run(backend), want, "{case} {backend}");
                    }
                }
            }
        }
    }
}

#[test]
fn automorph_add_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    for q in moduli_to_2_pow_50() {
        for n in PACK_SIZES {
            // The rotated cases run through `write_digit`, the one caller
            // of a rotated source.
            for (k, _) in pack_levels(n).into_iter().filter(|&(_, rot)| rot == 0) {
                for src in pack_inputs(n, &q, &mut rng) {
                    for held in pack_inputs(n, &q, &mut rng) {
                        let run = |backend: Backend| {
                            let mut dst = held.clone();
                            simd::automorph_add(backend, &src, &mut dst, k, &q);
                            dst
                        };
                        let want = run(Backend::Scalar);
                        let sum: Vec<u64> = held
                            .iter()
                            .zip(textbook_automorph(&src, k, 0, &q))
                            .map(|(&h, a)| q.add(h, a))
                            .collect();
                        let case = format!("q={q} n={n} k={k}");
                        assert_eq!(want, sum, "{case}");
                        for backend in vector_backends() {
                            assert_eq!(run(backend), want, "{case} {backend}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn write_digit_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    let wide = largest_ntt_prime(50, 4096);
    let [q0, q1, p] = [Q0, Q1, SPECIAL_P].map(|q| Modulus::new(q).unwrap());
    // The CHAM chain (copies, and one compare-subtract from q0 into q1),
    // one limb alone (the automorphism with nothing to re-embed), and a
    // chain with a prime just under 2^50, which re-embeds into q0 and p by
    // Barrett.
    let bases = [vec![q0, q1, p], vec![wide], vec![q0, wide, p]];
    for to in &bases {
        for own in 0..to.len() {
            let from = &to[own];
            for n in PACK_SIZES {
                for (k, rot) in pack_levels(n) {
                    for src in pack_inputs(n, from, &mut rng) {
                        let run = |backend: Backend| {
                            // Dirty output: every word must be written.
                            let mut out = vec![u64::MAX; to.len() * n];
                            simd::write_digit(backend, &src, k, rot, &mut out, to, own);
                            out
                        };
                        let want = run(Backend::Scalar);
                        let digit = textbook_automorph(&src, k, rot, from);
                        let textbook: Vec<u64> = to
                            .iter()
                            .flat_map(|m| digit.iter().map(|&v| m.reduce(v)))
                            .collect();
                        let case = format!("to={to:?} own={own} n={n} k={k} rot={rot}");
                        assert_eq!(want, textbook, "{case}");
                        for backend in vector_backends() {
                            assert_eq!(run(backend), want, "{case} {backend}");
                        }
                    }
                }
            }
        }
    }
}

/// The moduli below 2^50 plus one of 2^50 or more, on which an
/// `avx512ifma` backend runs the element-wise kernels' scalar arm.
fn moduli_past_2_pow_50() -> Vec<Modulus> {
    let mut all = moduli_to_2_pow_50();
    all.push(largest_ntt_prime(51, 4096));
    all
}

#[test]
fn ntt_monomial_butterfly_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    for q in moduli_past_2_pow_50() {
        for n in PACK_SIZES {
            let table = NttTable::new(n, q).unwrap();
            // Every pack level `h`, `g = N >> h`: blocks of whole
            // registers, and blocks shorter than one at the top levels.
            for g in (1..=n.trailing_zeros()).map(|h| n >> h) {
                let (roots, shoups) = table.monomial_roots(g);
                for (even, odd) in pack_inputs(n, &q, &mut rng)
                    .into_iter()
                    .zip(pack_inputs(n, &q, &mut rng).into_iter().rev())
                {
                    let run = |backend: Backend| {
                        let (mut e, mut o) = (even.clone(), odd.clone());
                        simd::ntt_monomial_butterfly(backend, &mut e, &mut o, roots, shoups, &q);
                        (e, o)
                    };
                    let want = run(Backend::Scalar);
                    // The scalar arm against `even ± W·odd`, `W` the
                    // signed root of each slot's block.
                    let w = |i: usize| {
                        let w = roots[i / (2 * g)];
                        if (i / g).is_multiple_of(2) {
                            w
                        } else {
                            q.neg(w)
                        }
                    };
                    let t: Vec<u64> = (0..n).map(|i| q.mul(w(i), odd[i])).collect();
                    let sum = (0..n).map(|i| q.add(even[i], t[i])).collect();
                    let diff = (0..n).map(|i| q.sub(even[i], t[i])).collect();
                    let case = format!("q={q} n={n} g={g}");
                    assert_eq!(want, (sum, diff), "{case}");
                    for backend in vector_backends() {
                        assert_eq!(run(backend), want, "{case} {backend}");
                    }
                }
            }
        }
    }
}

#[test]
fn slot_gather_add_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    for q in moduli_past_2_pow_50() {
        for n in PACK_SIZES {
            // Every pack level's `k = 2^h + 1`, and the identity.
            for k in std::iter::once(1).chain((1..=n.trailing_zeros()).map(|h| (1 << h) + 1)) {
                let slots = GaloisSlots::new(n, k);
                for src in pack_inputs(n, &q, &mut rng) {
                    for (held, extra) in pack_inputs(n, &q, &mut rng)
                        .into_iter()
                        .zip(pack_inputs(n, &q, &mut rng).into_iter().rev())
                    {
                        let run = |backend: Backend| {
                            let mut dst = held.clone();
                            simd::slot_gather_add(backend, &mut dst, &src, &slots, &extra, &q);
                            dst
                        };
                        let want = run(Backend::Scalar);
                        let sum: Vec<u64> = (0..n)
                            .map(|i| {
                                let gathered = src[slots.slots()[i] as usize];
                                q.add(q.add(held[i], gathered), extra[i])
                            })
                            .collect();
                        let case = format!("q={q} n={n} k={k}");
                        assert_eq!(want, sum, "{case}");
                        for backend in vector_backends() {
                            assert_eq!(run(backend), want, "{case} {backend}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn add_constant_matches_scalar_bit_for_bit() {
    let mut rng = rng();
    for q in moduli_past_2_pow_50() {
        // Every pack size, and lengths with a tail shorter than a register.
        for n in PACK_SIZES.into_iter().chain([1, 7, 9, 4099]) {
            for src in pack_inputs(n, &q, &mut rng) {
                for c in [0, 1, q.value() - 1, rng.gen_range(0..q.value())] {
                    let run = |backend: Backend| {
                        let mut dst = vec![u64::MAX; n];
                        simd::add_constant(backend, &mut dst, &src, c, &q);
                        dst
                    };
                    let want = run(Backend::Scalar);
                    let sum: Vec<u64> = src.iter().map(|&x| q.add(x, c)).collect();
                    let case = format!("q={q} n={n} c={c}");
                    assert_eq!(want, sum, "{case}");
                    for backend in vector_backends() {
                        assert_eq!(run(backend), want, "{case} {backend}");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "automorphism index 4 is even")]
fn automorphisms_refuse_an_even_index() {
    // An even `k` has no inverse mod 2N; the call is refused before the
    // destination-order arm would take one.
    let q = Modulus::new(Q0).unwrap();
    let (src, mut dst) = (vec![1u64; 16], vec![0u64; 16]);
    simd::automorph_add(Backend::detect_auto(), &src, &mut dst, 4, &q);
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
