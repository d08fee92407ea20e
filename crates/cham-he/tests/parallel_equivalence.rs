//! Parallel-equivalence suite for the cham-he entry points that fan out
//! through `cham_pool::map_capped`: the full HMVP multiply and the
//! LWE→RLWE pack tree.
//!
//! The multiply test computes a *sequential twin* at a cap of 1 (the
//! inline path — identical code on the calling thread, nothing spawned)
//! and asserts **bit-exact** equality at caps {1, 2, 3, 7, 8}; the
//! pack test holds `pack_lwes`, at the process thread budget, to a
//! level-order twin built from the public `pack_two`. HE ciphertexts make
//! good witnesses here: a single flipped bit anywhere in a limb shows up
//! directly in the comparison, long before decryption. That the cap
//! governs every fan-out inside a call is pinned, with the process-wide
//! task count, in `scratch_steady_state.rs`, where no sibling test can
//! move that count.

use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::Encryptor;
use cham_he::extract::lwe_to_rlwe;
use cham_he::hmvp::{Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::pack::{pack_lwes, pack_two};
use cham_he::params::ChamParams;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CAPS: [usize; 5] = [1, 2, 3, 7, 8];

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
    let lwes: Vec<_> = (0..11)
        .map(|_| {
            let v = f.rng.gen_range(0..t.value());
            let ct = f
                .enc
                .encrypt(&coder.encode_vector(&[v]).unwrap(), &mut f.rng);
            cham_he::extract::extract_lwe(&ct, 0).unwrap()
        })
        .collect();
    // The sequential twin through the public `pack_two`: leaves placed
    // bit-reversed, then the tree reduced one level at a time.
    let log = lwes.len().next_power_of_two().trailing_zeros();
    let mut level = vec![lwe_to_rlwe(&lwes[0]).zero_like(); 1 << log];
    for (i, lwe) in lwes.iter().enumerate() {
        level[cham_math::bit_reverse(i, log)] = lwe_to_rlwe(lwe);
    }
    for h in 1..=log {
        level = level
            .chunks(2)
            .map(|pair| pack_two(h, &pair[0], &pair[1], &f.gkeys, &f.params).unwrap())
            .collect();
    }
    // `pack_lwes` fans out over the process budget; its subtree split at
    // each cap is pinned by the crate's own pack proptest.
    let got = pack_lwes(&lwes, &f.gkeys, &f.params).unwrap();
    assert_eq!(got.ciphertext, level[0]);
    assert_eq!((got.log_count, got.count), (log, lwes.len()));
}
