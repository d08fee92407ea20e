//! Property-based tests (proptest) for the arithmetic substrate: ring
//! axioms, transform laws, and RNS invariants over randomized inputs.

use cham_math::modulus::{Modulus, Q0, Q1, SPECIAL_P};
use cham_math::montgomery::MontgomeryContext;
use cham_math::ntt::{negacyclic_mul_schoolbook, NttTable};
use cham_math::ntt_cg::CgNttTable;
use cham_math::poly::Poly;
use cham_math::rns::{Form, FusedAccumulator, RnsContext, RnsPoly};
use proptest::collection::vec;
use proptest::prelude::*;

fn q0() -> Modulus {
    Modulus::new(Q0).unwrap()
}

fn coeff() -> impl Strategy<Value = u64> {
    0..Q0
}

const WORKSPACE_MODULI: [u64; 3] = [Q0, Q1, SPECIAL_P];

/// Checks that the lazy datapath (the default `forward`/`inverse`) is
/// bit-identical to the strict twins on `input` (canonicalised per
/// modulus), for every workspace modulus.
fn assert_lazy_equals_strict(n: usize, input: &[u64]) {
    for qv in WORKSPACE_MODULI {
        let q = Modulus::new(qv).unwrap();
        let t = NttTable::new(n, q).unwrap();
        let a: Vec<u64> = input.iter().map(|&x| q.reduce(x)).collect();

        let mut lazy = a.clone();
        t.forward(&mut lazy);
        let mut strict = a.clone();
        t.forward_strict(&mut strict);
        assert_eq!(lazy, strict, "forward q={qv} n={n}");

        let mut lazy_inv = lazy;
        t.inverse(&mut lazy_inv);
        let mut strict_inv = strict;
        t.inverse_strict(&mut strict_inv);
        assert_eq!(lazy_inv, strict_inv, "inverse q={qv} n={n}");
        assert_eq!(lazy_inv, a, "roundtrip q={qv} n={n}");
    }
}

#[test]
fn lazy_ntt_worst_case_all_moduli_all_sizes() {
    // q−1 everywhere is the maximal-operand stress for the [0, 4q)
    // headroom: every butterfly input sits at the top of its range.
    for n in [16usize, 1024, 4096] {
        let worst = vec![u64::MAX; n]; // reduces to q−1-ish extremes per q
        assert_lazy_equals_strict(n, &worst);
        for qv in WORKSPACE_MODULI {
            let exact = vec![qv - 1; n];
            assert_lazy_equals_strict(n, &exact);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- modular arithmetic ---

    #[test]
    fn reduction_strategies_agree(x in any::<u128>()) {
        let q = q0();
        let barrett = q.reduce_u128(x);
        let shift_add = q.reduce_u128_shift_add(x);
        prop_assert_eq!(barrett, shift_add);
        prop_assert_eq!(barrett as u128, x % Q0 as u128);
    }

    #[test]
    fn montgomery_agrees_with_barrett(a in coeff(), b in coeff()) {
        let q = q0();
        let ctx = MontgomeryContext::new(&q).unwrap();
        prop_assert_eq!(ctx.mul_canonical(a, b), q.mul(a, b));
    }

    #[test]
    fn field_axioms(a in coeff(), b in coeff(), c in coeff()) {
        let q = q0();
        // Commutativity and associativity.
        prop_assert_eq!(q.add(a, b), q.add(b, a));
        prop_assert_eq!(q.mul(a, b), q.mul(b, a));
        prop_assert_eq!(q.add(q.add(a, b), c), q.add(a, q.add(b, c)));
        prop_assert_eq!(q.mul(q.mul(a, b), c), q.mul(a, q.mul(b, c)));
        // Distributivity.
        prop_assert_eq!(q.mul(a, q.add(b, c)), q.add(q.mul(a, b), q.mul(a, c)));
        // Inverses (prime field).
        if a != 0 {
            prop_assert_eq!(q.mul(a, q.inv(a).unwrap()), 1);
        }
    }

    #[test]
    fn center_roundtrips(a in coeff()) {
        let q = q0();
        prop_assert_eq!(q.from_signed(q.center(a)), a);
    }

    // --- transforms ---

    #[test]
    fn ntt_roundtrip(a in vec(coeff(), 64)) {
        let t = NttTable::new(64, q0()).unwrap();
        let mut x = a.clone();
        t.forward(&mut x);
        t.inverse(&mut x);
        prop_assert_eq!(x, a);
    }

    #[test]
    fn cg_equals_iterative(a in vec(coeff(), 64)) {
        let it = NttTable::new(64, q0()).unwrap();
        let cg = CgNttTable::new(64, q0()).unwrap();
        prop_assert_eq!(cg.forward_to_vec(&a), it.forward_to_vec(&a));
    }

    #[test]
    fn convolution_theorem(a in vec(coeff(), 32), b in vec(coeff(), 32)) {
        let q = q0();
        let t = NttTable::new(32, q).unwrap();
        let fa = t.forward_to_vec(&a);
        let fb = t.forward_to_vec(&b);
        let fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        prop_assert_eq!(t.inverse_to_vec(&fc), negacyclic_mul_schoolbook(&a, &b, &q));
    }

    #[test]
    fn ntt_is_linear(a in vec(coeff(), 32), b in vec(coeff(), 32), s in coeff()) {
        let q = q0();
        let t = NttTable::new(32, q).unwrap();
        let combo: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(q.mul(s, x), y)).collect();
        let f_combo = t.forward_to_vec(&combo);
        let fa = t.forward_to_vec(&a);
        let fb = t.forward_to_vec(&b);
        for i in 0..32 {
            prop_assert_eq!(f_combo[i], q.add(q.mul(s, fa[i]), fb[i]));
        }
    }

    // --- polynomial ring ops ---

    #[test]
    fn shift_neg_composes(a in vec(coeff(), 32), s1 in 0usize..64, s2 in 0usize..64) {
        let q = q0();
        let p = Poly::from_coeffs(a);
        let lhs = p.shift_neg(s1, &q).shift_neg(s2, &q);
        let rhs = p.shift_neg(s1 + s2, &q);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn automorph_is_additive_homomorphism(
        a in vec(coeff(), 32),
        b in vec(coeff(), 32),
        k_half in 0usize..32,
    ) {
        let q = q0();
        let k = 2 * k_half + 1;
        let pa = Poly::from_coeffs(a);
        let pb = Poly::from_coeffs(b);
        let lhs = pa.add(&pb, &q).automorph(k, &q).unwrap();
        let rhs = pa.automorph(k, &q).unwrap().add(&pb.automorph(k, &q).unwrap(), &q);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn negacyclic_mul_is_commutative(a in vec(coeff(), 16), b in vec(coeff(), 16)) {
        let q = q0();
        let pa = Poly::from_coeffs(a);
        let pb = Poly::from_coeffs(b);
        prop_assert_eq!(
            pa.mul_negacyclic_schoolbook(&pb, &q),
            pb.mul_negacyclic_schoolbook(&pa, &q)
        );
    }

    // --- RNS ---

    #[test]
    fn crt_lift_roundtrip(lo in any::<u64>(), hi in any::<u64>()) {
        let ctx = RnsContext::new(16, &[Q0, Q1, SPECIAL_P]).unwrap();
        let q = ctx.modulus_product();
        let x = ((hi as u128) << 64 | lo as u128) % q;
        prop_assert_eq!(ctx.crt_lift(&ctx.residues_of(x)), x);
    }

    // --- lazy datapath equivalence ---

    #[test]
    fn lazy_ntt_matches_strict_n16(a in vec(any::<u64>(), 16)) {
        assert_lazy_equals_strict(16, &a);
    }

    #[test]
    fn fused_accumulate_matches_strict_twin(
        seeds in vec(any::<u64>(), 8),
        terms in 1usize..(2 * FusedAccumulator::LAZY_ACC_BOUND + 2),
    ) {
        for qv in WORKSPACE_MODULI {
            let q = Modulus::new(qv).unwrap();
            // Derive `terms` operand pairs deterministically from the seeds.
            let n = seeds.len();
            let gen_poly = |salt: u64| -> Poly {
                seeds
                    .iter()
                    .map(|&s| q.reduce(s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt)))
                    .collect()
            };
            let pairs: Vec<(Poly, Poly)> = (0..terms as u64)
                .map(|i| (gen_poly(2 * i), gen_poly(2 * i + 1)))
                .collect();

            let mut strict = Poly::zero(n);
            for (a, b) in &pairs {
                strict.add_assign(&a.mul_pointwise(b, &q), &q);
            }

            // One limb: the accumulator's lanes are exactly the slices above.
            let ctx = RnsContext::new(n, &[qv]).unwrap();
            let limb = |p: &Poly| RnsPoly::from_limbs(&ctx, vec![p.clone()], Form::Ntt).unwrap();
            let mut scratch = vec![u128::MAX; n];
            let mut acc = FusedAccumulator::new(&ctx, &mut scratch).unwrap();
            for (a, b) in &pairs {
                acc.accumulate(&limb(a), &limb(b)).unwrap();
            }
            let fused = acc.finish();
            prop_assert_eq!(fused.limbs()[0].coeffs(), strict.coeffs(), "q={}", qv);
        }
    }

    #[test]
    fn rescale_error_is_bounded(vals in vec(any::<u64>(), 8)) {
        let full = RnsContext::new(8, &[Q0, Q1, SPECIAL_P]).unwrap();
        let reduced = full.drop_last().unwrap();
        let q = full.modulus_product();
        let xs: Vec<u128> = vals.iter().map(|&v| (v as u128 * 0x9E3779B97F4A7C15) % q).collect();
        let limbs: Vec<cham_math::Poly> = full
            .moduli()
            .iter()
            .map(|m| cham_math::Poly::from_coeffs(
                xs.iter().map(|&x| (x % m.value() as u128) as u64).collect(),
            ))
            .collect();
        let a = cham_math::RnsPoly::from_limbs(&full, limbs, cham_math::rns::Form::Coeff).unwrap();
        let r = a.rescale_by_last(&reduced).unwrap();
        for (j, &x) in xs.iter().enumerate() {
            let centered: i128 = if x > q / 2 { x as i128 - q as i128 } else { x as i128 };
            // Centred by hand: the lift is in [0, Q'), Q' the reduced product.
            let got = {
                let v = r.crt_lift_coeff(j);
                let q_red = reduced.modulus_product();
                if v > q_red / 2 { v as i128 - q_red as i128 } else { v as i128 }
            };
            let p = SPECIAL_P as i128;
            let exact = {
                let half = p / 2;
                (if centered >= 0 { centered + half } else { centered - half }) / p
            };
            prop_assert!((got - exact).abs() <= 1);
        }
    }
}

// Production transform sizes: fewer cases, same bit-exactness bar.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn lazy_ntt_matches_strict_production_sizes(a in vec(any::<u64>(), 4096)) {
        assert_lazy_equals_strict(1024, &a[..1024]);
        assert_lazy_equals_strict(4096, &a);
    }
}

// ---- rescale: the Shoup/offset kernel against the textbook formula ----

/// Chains that put every workspace modulus in both roles: dropped last
/// prime and surviving limb (the production chain first, then the
/// mod-switch chain, then two rotations).
const RESCALE_CHAINS: [&[u64]; 4] = [
    &[Q0, Q1, SPECIAL_P],
    &[Q0, Q1],
    &[Q1, SPECIAL_P, Q0],
    &[SPECIAL_P, Q0, Q1],
];

/// One context per (chain, degree); NTT tables at N = 4096 are too
/// expensive to rebuild per proptest case.
fn rescale_contexts() -> &'static [RnsContext] {
    static CTX: std::sync::OnceLock<Vec<RnsContext>> = std::sync::OnceLock::new();
    CTX.get_or_init(|| {
        RESCALE_CHAINS
            .iter()
            .flat_map(|chain| [16usize, 256, 4096].map(|n| RnsContext::new(n, chain).unwrap()))
            .collect()
    })
}

/// Builds the polynomial whose limb `i` is `lane(i, j)` at coefficient
/// `j` (reduced into the limb's modulus) and checks fast == strict.
fn assert_rescale_matches_strict(ctx: &RnsContext, lane: impl Fn(usize, usize) -> u64) {
    let limbs = ctx
        .moduli()
        .iter()
        .enumerate()
        .map(|(i, m)| (0..ctx.degree()).map(|j| m.reduce(lane(i, j))).collect())
        .collect();
    let a = cham_math::RnsPoly::from_limbs(ctx, limbs, cham_math::rns::Form::Coeff).unwrap();
    let target = ctx.drop_last().unwrap();
    let fast = a.rescale_by_last(&target).unwrap();
    let strict = a.rescale_by_last_strict(&target).unwrap();
    assert_eq!(
        fast,
        strict,
        "chain {:?} n={}",
        ctx.moduli().iter().map(Modulus::value).collect::<Vec<_>>(),
        ctx.degree()
    );
}

#[test]
fn rescale_kernel_matches_strict_on_boundary_residues() {
    for ctx in rescale_contexts() {
        let k = ctx.len();
        let p = ctx.moduli()[k - 1].value();
        // Every lane at q−1 (the largest operand of the offset sum), and
        // every rounding boundary of the dropped residue against surviving
        // residues 0, 1, q−2, q−1.
        assert_rescale_matches_strict(ctx, |i, _| ctx.moduli()[i].value() - 1);
        for r in [0, 1, p / 2 - 1, p / 2, p / 2 + 1, p - 2, p - 1] {
            assert_rescale_matches_strict(ctx, |i, j| {
                if i == k - 1 {
                    r
                } else {
                    let q = ctx.moduli()[i].value();
                    [0, 1, q - 2, q - 1][j % 4]
                }
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rescale_kernel_matches_strict_on_random_lanes(seed in any::<u64>()) {
        for ctx in rescale_contexts() {
            // SplitMix64 per (limb, coefficient): full-width values that
            // `assert_rescale_matches_strict` reduces per modulus.
            assert_rescale_matches_strict(ctx, |i, j| {
                let mut z = seed
                    .wrapping_add(((i as u64) << 32 | j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            });
        }
    }

    #[test]
    fn rescale_limb_kernel_handles_any_length(
        xs in vec(any::<u64>(), 1..40),
        r in any::<u64>(),
    ) {
        // A single coefficient rescales exactly like a full limb — the
        // fused row tail relies on this for b₀.
        let ctx = &rescale_contexts()[0];
        let k = ctx.len();
        let last: Vec<u64> = xs.iter().map(|&x| ctx.moduli()[k - 1].reduce(x ^ r)).collect();
        for i in 0..k - 1 {
            let x: Vec<u64> = xs.iter().map(|&v| ctx.moduli()[i].reduce(v)).collect();
            let mut whole = vec![0u64; x.len()];
            ctx.rescale_limb_into(i, &x, &last, &mut whole);
            for j in 0..x.len() {
                let mut one = [0u64];
                ctx.rescale_limb_into(i, &x[j..=j], &last[j..=j], &mut one);
                prop_assert_eq!(one[0], whole[j]);
            }
        }
    }
}
