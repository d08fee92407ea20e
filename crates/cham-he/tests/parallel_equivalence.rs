//! Parallel-equivalence suite for the cham-he entry points that fan out
//! through `cham_pool::map_capped`: the full HMVP multiply and the
//! LWE→RLWE pack tree.
//!
//! The multiply test computes a *sequential twin* at a cap of 1 (the
//! inline path — identical code on the calling thread, nothing spawned)
//! and asserts **bit-exact** equality at caps {1, 2, 3, 7, 8}. The
//! pack test runs `pack_lwes` at the process thread budget (CI runs this
//! file under several `CHAM_POOL_THREADS` values) and holds repeated calls
//! to one set of bytes that decrypts to its payloads; the pack's subtree
//! split at every cap is held bit for bit to the level-order oracle by the
//! crate's own pack proptest. (A level-order twin built from the public
//! `pack_two` is no twin: `pack_two` rounds `b` at every merge, the pack
//! once at its root.) HE ciphertexts make good witnesses here: a single flipped bit anywhere in a limb shows up
//! directly in the comparison, long before decryption. That the cap
//! governs every fan-out inside a call is pinned, with the process-wide
//! task count, in `scratch_steady_state.rs`, where no sibling test can
//! move that count.

use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::pack::pack_lwes;
use cham_he::params::ChamParams;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CAPS: [usize; 5] = [1, 2, 3, 7, 8];

struct Fixture {
    params: ChamParams,
    enc: Encryptor,
    dec: Decryptor,
    gkeys: GaloisKeys,
    rng: rand::rngs::StdRng,
}

fn fixture(seed: u64) -> Fixture {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let params = ChamParams::insecure_test_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    Fixture {
        params,
        enc,
        dec,
        gkeys,
        rng,
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
    for cts in &inputs {
        let expect = hmvp.multiply_parallel(&em, cts, &f.gkeys, 1).unwrap();
        for cap in CAPS {
            let got = hmvp.multiply_parallel(&em, cts, &f.gkeys, cap).unwrap();
            assert_same_packed(&got, &expect, &format!("cap={cap}"));
        }
        // `multiply` fans out over the process budget (CI runs this file
        // under several `CHAM_POOL_THREADS` values).
        let got = hmvp.multiply(&em, cts, &f.gkeys).unwrap();
        assert_same_packed(&got, &expect, "multiply");
    }
}

#[test]
fn pack_tree_bit_exact_across_pool_sizes() {
    let mut f = fixture(0x5EED_0004);
    let t = f.params.plain_modulus();
    let coder = cham_he::encoding::CoeffEncoder::new(&f.params);
    // 11 inputs: padded to 16, a 4-level tree with odd leftovers.
    let values: Vec<u64> = (0..11).map(|_| f.rng.gen_range(0..t.value())).collect();
    let lwes: Vec<_> = values
        .iter()
        .map(|&v| {
            let ct = f
                .enc
                .encrypt(&coder.encode_vector(&[v]).unwrap(), &mut f.rng);
            cham_he::extract::extract_lwe(&ct, 0).unwrap()
        })
        .collect();
    let log = lwes.len().next_power_of_two().trailing_zeros();
    let expect = pack_lwes(&lwes, &f.gkeys, &f.params).unwrap();
    assert_eq!((expect.log_count, expect.count), (log, lwes.len()));
    let pt = f.dec.decrypt(&expect.ciphertext);
    assert_eq!(expect.decode(&pt, &f.params).unwrap(), values);
    for call in 0..3 {
        let got = pack_lwes(&lwes, &f.gkeys, &f.params).unwrap();
        assert_eq!(got.ciphertext, expect.ciphertext, "call {call}");
    }
}
