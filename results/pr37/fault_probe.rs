//! The probe behind this record's page-fault and digest table: one
//! `Hmvp::multiply_parallel(.., threads)` at a given shape over the paper's
//! parameter set, three warm-up calls, then `reps` timed calls with the
//! process's minor page faults (`/proc/self/stat`, field 10) read around
//! them. It prints the p50 wall time, the faults per call and an FNV-1a
//! digest of the packed result bytes.
//!
//! Build it as the `main.rs` of a package of its own, outside the
//! workspace (an empty `[workspace]` table), with path dependencies on the
//! checkout's `crates/cham-he` and `vendor/rand`, once per side:
//!
//! ```text
//! probe <rows> <cols> <reps> <threads>     # e.g. probe 8 262144 20 1
//! ```

use cham_he::encrypt::Encryptor;
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn minflt() -> u64 {
    let s = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    let rest = &s[s.rfind(')').expect("comm field") + 2..];
    rest.split(' ').nth(7).expect("minflt field").parse().expect("a count")
}

fn main() {
    let a: Vec<usize> = std::env::args()
        .skip(1)
        .map(|x| x.parse().expect("rows cols reps threads"))
        .collect();
    let (rows, cols, reps, threads) = (a[0], a[1], a[2], a[3]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let params = ChamParams::cham_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let levels = rows.min(params.degree()).next_power_of_two().trailing_zeros();
    let gkeys = GaloisKeys::generate_for_packing(&sk, levels, &mut rng).unwrap();
    let t = params.plain_modulus().value();
    let m = Matrix::random(rows, cols, t, &mut rng);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t)).collect();
    let h = Hmvp::new(&params);
    let cts = h.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let em = h.encode_matrix(&m).unwrap();
    let mut digest = 0;
    for _ in 0..3 {
        let r = h.multiply_parallel(&em, &cts, &gkeys, threads).unwrap();
        digest = 0xcbf2_9ce4_8422_2325_u64;
        for p in &r.packed {
            for b in cham_he::wire::rlwe_to_bytes(&p.ciphertext) {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    let mut ms = Vec::new();
    let f0 = minflt();
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = h.multiply_parallel(&em, &cts, &gkeys, threads).unwrap();
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(r);
    }
    let faults = (minflt() - f0) as f64 / reps as f64;
    ms.sort_by(f64::total_cmp);
    println!(
        "{rows}x{cols} threads={threads}: p50 {:.2} ms (min {:.2}, max {:.2}), \
         minor faults/call {faults:.1}, digest {digest:016x}",
        ms[ms.len() / 2],
        ms[0],
        ms[ms.len() - 1],
    );
}
