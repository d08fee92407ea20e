//! Parallel-equivalence suite for the cham-he entry points that ride the
//! `cham-pool` thread pool: the HMVP dot-product phase, the full
//! multiply, and the LWE→RLWE pack tree.
//!
//! Each test computes a *sequential twin* on a single-thread pool (the
//! pool's inline fast path — identical code, no tasks queued) and asserts
//! **bit-exact** equality at pool sizes {1, 2, 3, 7, 8}. HE ciphertexts
//! make good witnesses here: a single flipped bit anywhere in a limb
//! shows up directly in the comparison, long before decryption. The last
//! test pins the grain rule itself with the pool's task counter: the
//! `threads` cap a caller passes governs every fan-out inside the call.

use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::Encryptor;
use cham_he::hmvp::{Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::pack::pack_lwes;
use cham_he::params::ChamParams;
use cham_pool::ThreadPool;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 7, 8];

struct Fixture {
    params: ChamParams,
    enc: Encryptor,
    gkeys: GaloisKeys,
    rng: rand::rngs::StdRng,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let params = ChamParams::insecure_test_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    Fixture {
        params,
        enc,
        gkeys,
        rng,
    }
}

fn sequential<R>(f: impl FnOnce() -> R) -> R {
    ThreadPool::new(1).install(f)
}

#[test]
fn dot_products_bit_exact_across_pool_sizes() {
    let mut f = fixture(0x5EED_0001);
    let t = f.params.plain_modulus();
    // 37 rows (odd, larger than any tested pool) over 2 column tiles.
    let a = Matrix::random(37, 300, t.value(), &mut f.rng);
    let v: Vec<u64> = (0..300).map(|_| f.rng.gen_range(0..t.value())).collect();
    let hmvp = Hmvp::new(&f.params);
    let cts = hmvp.encrypt_vector(&v, &f.enc, &mut f.rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();
    let expect = sequential(|| hmvp.dot_products(&em, &cts).unwrap());
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        // Cap = pool size, and an uncapped variant: both must agree with
        // the serial twin bit for bit.
        let capped = pool.install(|| hmvp.dot_products_parallel(&em, &cts, threads).unwrap());
        let uncapped = pool.install(|| hmvp.dot_products_parallel(&em, &cts, usize::MAX).unwrap());
        assert_eq!(capped, expect, "capped threads={threads}");
        assert_eq!(uncapped, expect, "uncapped threads={threads}");
    }
}

fn assert_same_packed(got: &HmvpResult, expect: &HmvpResult, ctx: &str) {
    assert_eq!(got.len, expect.len, "{ctx}");
    assert_eq!(got.packed.len(), expect.packed.len(), "{ctx}");
    for (gp, ep) in got.packed.iter().zip(&expect.packed) {
        assert_eq!(gp.ciphertext, ep.ciphertext, "{ctx}");
        assert_eq!(gp.log_count, ep.log_count, "{ctx}");
        assert_eq!(gp.count, ep.count, "{ctx}");
    }
}

#[test]
fn multiply_parallel_bit_exact_across_pool_sizes() {
    let mut f = fixture(0x5EED_0002);
    let t = f.params.plain_modulus();
    let a = Matrix::random(12, 300, t.value(), &mut f.rng);
    let hmvp = Hmvp::from_arc(Arc::new(f.params.clone()));
    let em = hmvp.encode_matrix(&a).unwrap();
    let inputs: Vec<Vec<RlweCiphertext>> = (0..5)
        .map(|_| {
            let v: Vec<u64> = (0..300).map(|_| f.rng.gen_range(0..t.value())).collect();
            hmvp.encrypt_vector(&v, &f.enc, &mut f.rng).unwrap()
        })
        .collect();
    let expect = sequential(|| {
        inputs
            .iter()
            .map(|cts| hmvp.multiply(&em, cts, &f.gkeys).unwrap())
            .collect::<Vec<_>>()
    });
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        for (cts, e) in inputs.iter().zip(&expect) {
            let got = pool.install(|| hmvp.multiply_parallel(&em, cts, &f.gkeys, threads).unwrap());
            assert_same_packed(&got, e, &format!("threads={threads}"));
        }
    }
}

/// The grain rule as a count: a cap of 1 means *no* pool task — not for
/// the lift's column tiles, not for a limb under them, not for a row or a
/// pack subtree — and the serial `dot_products` never dispatches either.
#[test]
fn threads_cap_governs_every_fan_out_inside_the_call() {
    let mut f = fixture(0x5EED_0003);
    let t = f.params.plain_modulus();
    // 12 rows (≥ 8) over 2 column tiles.
    let a = Matrix::random(12, 300, t.value(), &mut f.rng);
    let v: Vec<u64> = (0..300).map(|_| f.rng.gen_range(0..t.value())).collect();
    let hmvp = Hmvp::new(&f.params);
    let cts = hmvp.encrypt_vector(&v, &f.enc, &mut f.rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();
    assert!(em.col_tiles() >= 2);
    let pool = ThreadPool::new(4);

    let before = pool.stats().tasks;
    let serial = pool.install(|| hmvp.multiply_parallel(&em, &cts, &f.gkeys, 1).unwrap());
    assert_eq!(pool.stats().tasks, before, "threads=1 queued pool tasks");

    let fanned = pool.install(|| hmvp.multiply_parallel(&em, &cts, &f.gkeys, 4).unwrap());
    assert!(
        pool.stats().tasks > before,
        "threads=4 never reached the pool"
    );
    assert_same_packed(&fanned, &serial, "threads=4 vs threads=1");

    let before = pool.stats().tasks;
    pool.install(|| hmvp.dot_products(&em, &cts).unwrap());
    assert_eq!(pool.stats().tasks, before, "dot_products queued pool tasks");
}

#[test]
fn pack_tree_bit_exact_across_pool_sizes() {
    let mut f = fixture(0x5EED_0004);
    let t = f.params.plain_modulus();
    let coder = cham_he::encoding::CoeffEncoder::new(&f.params);
    // 11 inputs: padded to 16, a 4-level tree with odd leftovers.
    let lwes: Vec<_> = (0..11)
        .map(|_| {
            let v = f.rng.gen_range(0..t.value());
            let ct = f
                .enc
                .encrypt(&coder.encode_vector(&[v]).unwrap(), &mut f.rng);
            cham_he::extract::extract_lwe(&ct, 0).unwrap()
        })
        .collect();
    let expect = sequential(|| pack_lwes(&lwes, &f.gkeys, &f.params).unwrap());
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let got = pool.install(|| pack_lwes(&lwes, &f.gkeys, &f.params).unwrap());
        assert_eq!(got.ciphertext, expect.ciphertext, "threads={threads}");
        assert_eq!(got.log_count, expect.log_count, "threads={threads}");
        assert_eq!(got.count, expect.count, "threads={threads}");
    }
}
