//! The probe behind this record's prototype sizing. `probe <rounds> <reps>`
//! times `Hmvp::multiply_parallel(.., 1)` at the `hmvp_tall` shape
//! (128 × 4096, N = 4096): `rounds` rounds of `reps` calls, the median and
//! min–max per call in ms, after one warm-up call checked against the
//! plain product.
//!
//! `probe 1 <reps> 1` instead times, on one `q0` limb at N = 4096 and at
//! levels h = 1, 6 and 12 (best of 7 rounds of `reps` calls, µs per call),
//! the pack's NTT-form butterfly and slot gather-add beside the
//! coefficient-form butterfly and automorphism-add they replace on `b`,
//! and one inverse and one forward limb transform. That mode needs a tree
//! with `cham_math::simd::{ntt_monomial_butterfly, slot_gather_add}`.
//!
//! Build it as the `main.rs` of a package of its own, outside the
//! workspace (an empty `[workspace]` table), with path dependencies on
//! the checkout's `crates/cham-he`, `crates/cham-math` and `vendor/rand`,
//! once per side, and run the two binaries alternately.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let args: Vec<usize> = std::env::args().skip(1).map(|a| a.parse().unwrap()).collect();
    let (rounds, reps) = (args[0], args[1]);
    if args.len() > 2 {
        return kernels(reps);
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let params = ChamParams::cham_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    let t = params.plain_modulus();
    let (m, n) = (128, 4096);
    let a = Matrix::random(m, n, t.value(), &mut rng);
    let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
    let hmvp = Hmvp::new(&params);
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();
    let out = hmvp.multiply_parallel(&em, &cts, &gkeys, 1).unwrap();
    assert_eq!(hmvp.decrypt_result(&out, &dec).unwrap(), a.mul_vector_mod(&v, t).unwrap());
    let mut ms: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(hmvp.multiply_parallel(&em, &cts, &gkeys, 1).unwrap());
            }
            t0.elapsed().as_secs_f64() * 1e3 / reps as f64
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    println!("multiply {:.3} ms ({:.3}–{:.3})", ms[rounds / 2], ms[0], ms[rounds - 1]);
}

fn best(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..7)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn kernels(reps: usize) {
    use cham_math::simd;
    let params = ChamParams::cham_default().unwrap();
    let aug = params.augmented_context();
    let n = aug.degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let table = &aug.tables()[0];
    let q = table.modulus();
    let mut a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
    let mut b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
    let c: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
    let be = table.backend();
    for h in [1u32, 6, 12] {
        let g = n >> h;
        let (r, rs) = table.monomial_roots(g);
        let k = (1usize << h) + 1;
        let slots = cham_math::ntt::GaloisSlots::new(n, k);
        println!("h={h}: ntt_bf {:.2}  coeff_bf {:.2}  gather_add {:.2}  automorph_add {:.2}",
            best(reps, || simd::ntt_monomial_butterfly(be, &mut a, &mut b, r, rs, q)),
            best(reps, || simd::monomial_butterfly(be, &mut a, &mut b, g, q)),
            best(reps, || simd::slot_gather_add(be, &mut a, &b, &slots, &c, q)),
            best(reps, || simd::automorph_add(be, &b, &mut a, k, q)));
    }
    println!("inverse {:.2} forward {:.2}", best(reps, || table.inverse(&mut a)), best(reps, || table.forward(&mut a)));
}
