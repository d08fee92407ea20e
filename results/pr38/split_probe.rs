//! The probe behind this record's `pack_two` split: one `PACKTWOLWES` at
//! the paper's parameters (N = 4096, two ciphertext limbs, three augmented
//! ones) at level `h`, timed whole through the live `cham_he::pack::pack_two`
//! and then phase by phase on buffers of the same shapes:
//!
//! - `butterfly`: the monomial butterfly over both halves (4 limbs);
//! - `digits`: the key-switch digits of `σ_k(a)` written into every
//!   augmented limb (2 digits × 3 limbs);
//! - `forward`: the digits' 6 forward limb transforms;
//! - `digit product`: one digit product per augmented limb;
//! - `inverse`: the correction pair's 6 inverse limb transforms;
//! - `scatter-add`: `σ_k(b)` added into the accumulator (2 limbs);
//! - `rescale`: both halves of the correction rescaled and added (4 limbs).
//!
//! Each row is the best of five rounds of `reps` calls, in µs per call.
//!
//! Build it as the `main.rs` of a package of its own, outside the
//! workspace (an empty `[workspace]` table), with path dependencies on the
//! checkout's `crates/cham-he`, `crates/cham-math` and `vendor/rand`, once
//! per side. On a tree that has `cham_math::simd::{monomial_butterfly,
//! write_digit, automorph_add}`, build it with `--features kernels` (a
//! feature the package declares empty): the three element-wise rows then
//! call those kernels on each limb's table backend, and a second set of
//! rows calls their scalar arm. Without the feature the three rows run the
//! loops `cham-he/src/ops.rs` held before the kernels existed, copied
//! below.
//!
//! ```text
//! probe <h> <reps>     # e.g. probe 3 2000
//! ```

use cham_he::encoding::CoeffEncoder;
use cham_he::encrypt::Encryptor;
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_math::{simd, Modulus, NttTable};
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Best of five rounds of `reps` calls of `f`, in µs per call.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The loops `ops.rs` ran before the kernels, as they were.
#[cfg(not(feature = "kernels"))]
mod before {
    use cham_math::Modulus;

    pub fn automorph_scatter(
        src: &[u64],
        dst: &mut [u64],
        k: usize,
        rot: usize,
        q: &Modulus,
        put: impl Fn(&mut u64, u64),
    ) {
        let n = src.len();
        let mask = n - 1;
        for (i, &v) in src.iter().enumerate() {
            let jk = ((i + rot) & mask) * k;
            let v = if jk & n != 0 { q.neg(v) } else { v };
            put(&mut dst[jk & mask], v);
        }
    }

    pub fn monomial_butterfly(even: &mut [u64], odd: &mut [u64], g: usize, q: &Modulus) {
        let n = even.len();
        let (even_wrapped, even_shifted) = even.split_at_mut(g);
        let (odd_shifted, odd_wrapped) = odd.split_at_mut(n - g);
        for (e, o) in even_shifted.iter_mut().zip(odd_shifted) {
            (*e, *o) = (q.add(*e, *o), q.sub(*e, *o));
        }
        for (e, o) in even_wrapped.iter_mut().zip(odd_wrapped) {
            (*e, *o) = (q.sub(*e, *o), q.add(*e, *o));
        }
    }

    fn re_embed(src: &[u64], dst: &mut [u64], from: &Modulus, to: &Modulus) {
        let q = to.value();
        if from.value() <= q {
            dst.copy_from_slice(src);
        } else if from.value() < 2 * q {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = if v >= q { v - q } else { v };
            }
        } else {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = to.reduce(v);
            }
        }
    }

    pub fn write_digit(
        src: &[u64],
        k: usize,
        rot: usize,
        out: &mut [u64],
        to: &[Modulus],
        d: usize,
    ) {
        let n = src.len();
        let (before, rest) = out.split_at_mut(d * n);
        let (own, after) = rest.split_at_mut(n);
        automorph_scatter(src, own, k, rot, &to[d], |slot, v| *slot = v);
        let others = before.chunks_exact_mut(n).chain(after.chunks_exact_mut(n));
        let moduli = to[..d].iter().chain(&to[d + 1..]);
        for (dst, m) in others.zip(moduli) {
            re_embed(own, dst, &to[d], m);
        }
    }
}

/// `Some(backend)` pins the kernels' arm; `None` runs the limb table's.
type Arm = Option<cham_math::Backend>;

fn butterfly(arm: Arm, table: &NttTable, e: &mut [u64], o: &mut [u64], g: usize) {
    #[cfg(feature = "kernels")]
    simd::monomial_butterfly(arm.unwrap_or(table.backend()), e, o, g, table.modulus());
    #[cfg(not(feature = "kernels"))]
    {
        let _ = arm;
        before::monomial_butterfly(e, o, g, table.modulus());
    }
}

#[allow(clippy::too_many_arguments)]
fn digit(
    arm: Arm,
    table: &NttTable,
    src: &[u64],
    k: usize,
    rot: usize,
    out: &mut [u64],
    to: &[Modulus],
    d: usize,
) {
    #[cfg(feature = "kernels")]
    simd::write_digit(arm.unwrap_or(table.backend()), src, k, rot, out, to, d);
    #[cfg(not(feature = "kernels"))]
    {
        let _ = (arm, table);
        before::write_digit(src, k, rot, out, to, d);
    }
}

fn scatter_add(arm: Arm, table: &NttTable, src: &[u64], dst: &mut [u64], k: usize, rot: usize) {
    let q = table.modulus();
    #[cfg(feature = "kernels")]
    simd::automorph_add(arm.unwrap_or(table.backend()), src, dst, k, rot, q);
    #[cfg(not(feature = "kernels"))]
    {
        let _ = arm;
        before::automorph_scatter(src, dst, k, rot, q, |slot, v| *slot = q.add(*slot, v));
    }
}

fn main() {
    let a: Vec<usize> = std::env::args()
        .skip(1)
        .map(|x| x.parse().expect("h reps"))
        .collect();
    let (h, reps) = (a[0] as u32, a[1]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let params = ChamParams::cham_default().unwrap();
    let n = params.degree();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let coder = CoeffEncoder::new(&params);
    let gkeys = GaloisKeys::generate_for_packing(&sk, h, &mut rng).unwrap();
    let t = params.plain_modulus().value();
    let mut ct = || {
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        enc.encrypt(&coder.encode_vector(&v).unwrap(), &mut rng)
    };
    let (even, odd) = (ct(), ct());
    let (g, k) = (n >> h, (1usize << h) + 1);
    let ctx = params.ciphertext_context();
    let aug = params.augmented_context();
    let (digits, limbs) = (ctx.len(), aug.len());
    let lanes = limbs * n;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let mut residues =
        |m: &Modulus| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..m.value())).collect() };
    // Two normal-basis polynomials per half, limb by limb.
    let halves: Vec<Vec<u64>> = (0..4)
        .map(|i| residues(&ctx.moduli()[i % digits]))
        .collect();
    let keys: Vec<Vec<Vec<u64>>> = aug
        .moduli()
        .iter()
        .map(|m| (0..2 * digits).map(|_| residues(m)).collect())
        .collect();
    let mut words = vec![0u64; digits * lanes];
    let mut acc = halves.clone();

    println!("pack_two split, N = {n}, h = {h}, {reps} reps, best of 5 (µs per call)");
    let whole = best_of(reps, || {
        std::hint::black_box(cham_he::pack::pack_two(h, &even, &odd, &gkeys, &params).unwrap());
    });
    println!("pack_two (live)      {whole:9.2}");

    // The three element-wise rows, on each limb's table backend (or the
    // loops above), then — where the kernels exist — on their scalar arm.
    let mut split = |label: &str, arm: Arm| {
        let mut pair = halves.clone();
        let butterfly_us = best_of(reps, || {
            let (ev, od) = pair.split_at_mut(2);
            for ((e, o), table) in ev.iter_mut().zip(od.iter_mut()).zip(ctx.tables()) {
                butterfly(arm, table, e, o, g);
            }
        }) * 2.0;
        let digits_us = best_of(reps, || {
            for (d, out) in words.chunks_exact_mut(lanes).enumerate() {
                digit(
                    arm,
                    &aug.tables()[d],
                    &halves[2 + d],
                    k,
                    g,
                    out,
                    aug.moduli(),
                    d,
                );
            }
        });
        let scatter_us = best_of(reps, || {
            for ((dst, src), table) in acc.iter_mut().zip(&halves[2..]).zip(ctx.tables()) {
                scatter_add(arm, table, src, dst, k, g);
            }
        });
        println!("butterfly{label:12} {butterfly_us:9.2}");
        println!("digits{label:15} {digits_us:9.2}");
        println!("scatter-add{label:10} {scatter_us:9.2}");
        butterfly_us + digits_us + scatter_us
    };
    let eltwise = split("", None);
    #[cfg(feature = "kernels")]
    split(" (scalar)", Some(cham_math::Backend::Scalar));

    let forward = best_of(reps, || {
        for (limb, table) in words.chunks_exact_mut(n).zip(aug.tables().iter().cycle()) {
            table.forward(limb);
        }
    });
    let product = best_of(reps, || {
        for (l, table) in aug.tables().iter().enumerate() {
            let kb: Vec<&[u64]> = keys[l][..digits].iter().map(Vec::as_slice).collect();
            let ka: Vec<&[u64]> = keys[l][digits..].iter().map(Vec::as_slice).collect();
            simd::digit_product(
                table.backend(),
                &mut words[l * n..],
                lanes,
                &kb,
                &ka,
                table.modulus(),
            );
        }
    });
    // The correction pair is canonical after the digit product.
    let inverse = best_of(reps, || {
        for (limb, table) in words[..2 * lanes]
            .chunks_exact_mut(n)
            .zip(aug.tables().iter().cycle())
        {
            table.inverse(limb);
        }
    });
    let rescale = best_of(reps, || {
        for (half, at) in [0, lanes].into_iter().enumerate() {
            let src = &words[at..at + lanes];
            let last = &src[(limbs - 1) * n..];
            for (i, dst) in acc[2 * half..2 * half + 2].iter_mut().enumerate() {
                aug.rescale_limb_add(i, &src[i * n..(i + 1) * n], last, dst);
            }
        }
    });
    println!("forward              {forward:9.2}");
    println!("digit product        {product:9.2}");
    println!("inverse              {inverse:9.2}");
    println!("rescale              {rescale:9.2}");
    let parts = eltwise + forward + product + inverse + rescale;
    println!("sum of parts         {parts:9.2}");
    println!("element-wise share   {:9.3}", eltwise / parts);
    std::hint::black_box((&acc, &words));
}
