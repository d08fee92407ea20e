//! Random distributions for RLWE key generation and encryption.
//!
//! * uniform polynomials over `Z_q` (the `a` component of ciphertexts and
//!   key-switch keys),
//! * ternary secrets with coefficients in `{−1, 0, 1}`,
//! * centred-binomial noise approximating a discrete Gaussian with
//!   `σ ≈ 3.2` (the standard RLWE error distribution; CB(21) has
//!   `σ = √(21/2) ≈ 3.24`).

use crate::poly::Poly;
use crate::rns::{RnsContext, RnsPoly};
use rand::Rng;

/// Default centred-binomial parameter: `CB(21)` gives `σ ≈ 3.24`, matching
/// the `σ ≈ 3.2` convention of mainstream RLWE parameter sets.
pub const DEFAULT_CBD_K: u32 = 21;

/// Samples a uniform RNS polynomial (independent uniform limbs, which is a
/// uniform element of `Z_Q` by CRT).
pub fn uniform_rns_poly<R: Rng + ?Sized>(ctx: &RnsContext, rng: &mut R) -> RnsPoly {
    // Sample one uniform integer below the product and reduce per limb, so
    // the limbs are CRT-consistent.
    let q = ctx.modulus_product();
    let coeffs: Vec<u128> = (0..ctx.degree()).map(|_| rng.gen::<u128>() % q).collect();
    let limbs = ctx
        .moduli()
        .iter()
        .map(|m| {
            Poly::from_coeffs(
                coeffs
                    .iter()
                    .map(|&c| (c % m.value() as u128) as u64)
                    .collect(),
            )
        })
        .collect();
    RnsPoly::from_limbs(ctx, limbs, crate::rns::Form::Coeff).expect("limbs match context")
}

/// Samples signed ternary coefficients in `{−1, 0, 1}`, each value with
/// probability 1/3 — the RLWE secret distribution.
pub fn ternary_coeffs<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-1i64..=1)).collect()
}

/// Samples centred-binomial coefficients `CB(k)`: the difference of two
/// `k`-bit popcounts, giving variance `k/2`.
pub fn cbd_coeffs<R: Rng + ?Sized>(n: usize, k: u32, rng: &mut R) -> Vec<i64> {
    assert!((1..=64).contains(&k), "cbd parameter out of range");
    let mask = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    (0..n)
        .map(|_| {
            let a = (rng.gen::<u64>() & mask).count_ones() as i64;
            let b = (rng.gen::<u64>() & mask).count_ones() as i64;
            a - b
        })
        .collect()
}

/// Samples an RLWE noise polynomial (CBD with [`DEFAULT_CBD_K`]) embedded
/// into the given RNS basis.
pub fn noise_rns_poly<R: Rng + ?Sized>(ctx: &RnsContext, rng: &mut R) -> RnsPoly {
    let coeffs = cbd_coeffs(ctx.degree(), DEFAULT_CBD_K, rng);
    RnsPoly::from_signed(ctx, &coeffs).expect("length matches context")
}

/// Samples a ternary secret embedded into the given RNS basis.
pub fn ternary_rns_poly<R: Rng + ?Sized>(ctx: &RnsContext, rng: &mut R) -> (RnsPoly, Vec<i64>) {
    let coeffs = ternary_coeffs(ctx.degree(), rng);
    let poly = RnsPoly::from_signed(ctx, &coeffs).expect("length matches context");
    (poly, coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{Q0, Q1, SPECIAL_P};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(2024)
    }

    #[test]
    fn uniform_in_range() {
        let ctx = RnsContext::new(1024, &[Q0, Q1, SPECIAL_P]).unwrap();
        let mut rng = rng();
        let p = uniform_rns_poly(&ctx, &mut rng);
        for (limb, m) in p.limbs().iter().zip(ctx.moduli()) {
            let q = m.value();
            assert!(limb.coeffs().iter().all(|&c| c < q));
            // Should use the full range (probability of failure ~ 2^-1000).
            assert!(limb.coeffs().iter().any(|&c| c > q / 2));
            assert!(limb.coeffs().iter().any(|&c| c < q / 2));
        }
    }

    #[test]
    fn uniform_rns_is_crt_consistent() {
        let ctx = RnsContext::new(16, &[Q0, Q1, SPECIAL_P]).unwrap();
        let mut rng = rng();
        let p = uniform_rns_poly(&ctx, &mut rng);
        // Lifting and re-reducing must reproduce the limbs.
        for j in 0..16 {
            let residues: Vec<u64> = (0..3).map(|i| p.limbs()[i].coeffs()[j]).collect();
            let v = ctx.crt_lift(&residues);
            assert_eq!(ctx.residues_of(v), residues);
        }
    }

    #[test]
    fn ternary_values() {
        let mut rng = rng();
        let t = ternary_coeffs(3000, &mut rng);
        assert!(t.iter().all(|&c| (-1..=1).contains(&c)));
        // All three values should appear.
        for v in [-1i64, 0, 1] {
            assert!(t.contains(&v));
        }
    }

    #[test]
    fn cbd_statistics() {
        let mut rng = rng();
        let k = DEFAULT_CBD_K;
        let xs = cbd_coeffs(200_000, k, &mut rng);
        let mean: f64 = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        let expect = k as f64 / 2.0;
        assert!(
            (var - expect).abs() / expect < 0.05,
            "var {var} expect {expect}"
        );
        assert!(xs.iter().all(|&x| x.unsigned_abs() <= k as u64));
    }

    #[test]
    #[should_panic(expected = "cbd parameter out of range")]
    fn cbd_rejects_zero_k() {
        let mut rng = rng();
        cbd_coeffs(8, 0, &mut rng);
    }

    #[test]
    fn noise_poly_is_small() {
        let ctx = RnsContext::new(64, &[Q0, Q1]).unwrap();
        let mut rng = rng();
        let e = noise_rns_poly(&ctx, &mut rng);
        assert!(e.small_inf_norm() <= DEFAULT_CBD_K as u64);
    }
}
