//! The probe behind this record's decryption timings: at the paper's
//! parameters (N = 4096, two ciphertext limbs, three augmented ones) it
//! times `Decryptor::decrypt` and `Decryptor::decrypt_with_noise` of
//!
//! - `reply`: the packed reply of a 4 × 16384 HMVP (normal basis,
//!   coefficient form), the ciphertext every `serve_*` client decrypts;
//! - `fresh`: an `encrypt_augmented` ciphertext (augmented basis, NTT
//!   form).
//!
//! Each row is the median (and min–max) of `rounds` rounds of `reps`
//! calls, in µs per call. The reply is first checked against the plain
//! product `A·v mod t`.
//!
//! Build it as the `main.rs` of a package of its own, outside the
//! workspace (an empty `[workspace]` table), with path dependencies on the
//! checkout's `crates/cham-he`, `crates/cham-math` and `vendor/rand`, once
//! per side, and run the two binaries alternately:
//!
//! ```text
//! probe <rounds> <reps>     # e.g. probe 7 200
//! ```

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn row(name: &str, rounds: usize, reps: usize, mut op: impl FnMut()) {
    op();
    let mut us: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    println!(
        "{name:<24} {:>9.1} us  ({:.1}–{:.1})",
        us[rounds / 2],
        us[0],
        us[rounds - 1]
    );
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("usage: probe <rounds> <reps>"))
        .collect();
    let (rounds, reps) = (args[0], args[1]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(46);
    let params = ChamParams::cham_default().unwrap();
    let t = params.plain_modulus();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, 2, &mut rng).unwrap();
    let hmvp = Hmvp::new(&params);
    let (rows, cols) = (4, 16384);
    let a = Matrix::random(rows, cols, t.value(), &mut rng);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();
    let out = hmvp.multiply(&em, &cts, &gkeys).unwrap();
    assert_eq!(
        hmvp.decrypt_result(&out, &dec).unwrap(),
        a.mul_vector_mod(&v, t).unwrap(),
        "the reply decrypts to A·v"
    );
    let reply = &out.packed[0].ciphertext;
    let fresh = &cts[0];
    println!("decrypt at N = {}, {rounds} rounds of {reps} calls", params.degree());
    row("decrypt reply", rounds, reps, || {
        std::hint::black_box(dec.decrypt(reply));
    });
    row("decrypt fresh", rounds, reps, || {
        std::hint::black_box(dec.decrypt(fresh));
    });
    row("decrypt_with_noise reply", rounds, reps, || {
        std::hint::black_box(dec.decrypt_with_noise(reply));
    });
    let report = dec.decrypt_with_noise(reply);
    println!(
        "reply noise {:.6} bits, budget {:.6} bits",
        report.noise_bits, report.budget_bits
    );
}
