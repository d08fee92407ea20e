//! Cross-crate integration: serialized two-party protocol flow (keys and
//! ciphertexts crossing a byte boundary) and wire-parser robustness against
//! corruption.

use cham::he::hmvp::{Hmvp, Matrix};
use cham::he::prelude::*;
use cham::he::wire;
use rand::{Rng, SeedableRng};

#[test]
fn serialized_two_party_hmvp() {
    // Party A's artifacts cross to party B as bytes and back; the result
    // returns as bytes too — the full Fig. 1 dataflow at wire fidelity.
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let params = ChamParams::insecure_test_default().unwrap();
    let t = params.plain_modulus();

    // --- Party A: keys, encrypted vector, serialized. ---
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    let hmvp = Hmvp::new(&params);
    let n = 48;
    let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
    let ct = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap().remove(0);
    let indices: Vec<usize> = (1..=params.max_pack_log())
        .map(|j| (1usize << j) + 1)
        .collect();
    let wire_ct = wire::rlwe_to_bytes(&ct);
    let wire_keys = wire::galois_keys_to_bytes(&gkeys, &indices).unwrap();

    // --- Party B: deserialize, compute, serialize the result. ---
    let ct_b = wire::rlwe_from_bytes(&wire_ct, &params).unwrap();
    let gkeys_b = wire::galois_keys_from_bytes(&wire_keys, &params).unwrap();
    let a = Matrix::random(16, n, t.value(), &mut rng);
    let em = hmvp.encode_matrix(&a).unwrap();
    let result = hmvp.multiply(&em, &[ct_b], &gkeys_b).unwrap();
    let wire_out = wire::rlwe_to_bytes(&result.packed[0].ciphertext);

    // --- Party A: deserialize and decrypt. ---
    let out_ct = wire::rlwe_from_bytes(&wire_out, &params).unwrap();
    let pt = dec.decrypt(&out_ct);
    let got = result.packed[0].decode(&pt, &params).unwrap();
    assert_eq!(got, a.mul_vector_mod(&v, t).unwrap());
}

#[test]
fn wire_parser_never_panics_on_corruption() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(22);
    let params = ChamParams::insecure_test_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let coder = CoeffEncoder::new(&params);
    let ct = enc.encrypt(&coder.encode_vector(&[1, 2, 3]).unwrap(), &mut rng);
    let good = wire::rlwe_to_bytes(&ct);

    // Random single-byte corruptions: must return Ok or Err, never panic,
    // and a corrupted header must never be accepted as a different kind.
    // Every decoder that the network or the store reaches gets the bytes.
    for _ in 0..300 {
        let mut bad = good.clone();
        let pos = rng.gen_range(0..bad.len());
        bad[pos] ^= 1 << rng.gen_range(0..8);
        let _ = wire::rlwe_from_bytes(&bad, &params);
        let _ = wire::ksk_from_bytes(&bad, &params);
        let _ = wire::galois_keys_from_bytes(&bad, &params);
        let _ = wire::encoded_matrix_from_bytes(&bad, &params);
    }
    // Random truncations.
    for _ in 0..100 {
        let cut = rng.gen_range(0..good.len());
        let _ = wire::rlwe_from_bytes(&good[..cut], &params);
    }
    // Pure noise.
    for _ in 0..100 {
        let len = rng.gen_range(0..256);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert!(wire::rlwe_from_bytes(&noise, &params).is_err());
    }
}
