//! Property-based tests for the HE layer: scheme correctness and the
//! conversion algebra under randomized inputs.

use cham_he::encoding::{BatchEncoder, CoeffEncoder};
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::extract::{extract_lwe, lwe_to_rlwe};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::ops::{add_plain, mul_plain, rescale};
use cham_he::params::ChamParams;
use cham_he::wire;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

struct Fixture {
    params: ChamParams,
    enc: Encryptor,
    dec: Decryptor,
    gkeys: GaloisKeys,
    coder: CoeffEncoder,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        let coder = CoeffEncoder::new(&params);
        Fixture {
            params,
            enc,
            dec,
            gkeys,
            coder,
        }
    })
}

fn tval() -> u64 {
    65537
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encrypt_decrypt_roundtrip(vals in vec(0..tval(), 1..64), seed in any::<u64>()) {
        let fix = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pt = fix.coder.encode_vector(&vals).unwrap();
        for ct in [fix.enc.encrypt(&pt, &mut rng), fix.enc.encrypt_augmented(&pt, &mut rng)] {
            let out = fix.dec.decrypt(&ct);
            prop_assert_eq!(&out.values()[..vals.len()], &vals[..]);
        }
    }

    #[test]
    fn ciphertext_algebra_is_homomorphic(
        xs in vec(0..tval(), 8),
        ys in vec(0..tval(), 8),
        s in 0u64..256,
        seed in any::<u64>(),
    ) {
        let fix = fixture();
        let t = fix.params.plain_modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cx = fix.enc.encrypt_augmented(&fix.coder.encode_vector(&xs).unwrap(), &mut rng);
        let cy = fix.enc.encrypt_augmented(&fix.coder.encode_vector(&ys).unwrap(), &mut rng);
        // ct + ct
        let sum = fix.dec.decrypt(&cx.add(&cy).unwrap());
        // ct + pt
        let psum = fix.dec.decrypt(&add_plain(&cx, &fix.coder.encode_vector(&ys).unwrap(), &fix.params).unwrap());
        // s * ct: a constant plaintext, then rescale
        let s_pt = fix.coder.encode_vector(&[s]).unwrap();
        let s_ct = mul_plain(&cx, &s_pt, &fix.params).unwrap();
        let scaled = fix.dec.decrypt(&rescale(&s_ct, &fix.params).unwrap());
        for i in 0..8 {
            prop_assert_eq!(sum.values()[i], t.add(xs[i], ys[i]));
            prop_assert_eq!(psum.values()[i], t.add(xs[i], ys[i]));
            prop_assert_eq!(scaled.values()[i], t.mul(s, xs[i]));
        }
    }

    #[test]
    fn dot_product_and_rescale(row in vec(0..tval(), 16), v in vec(0..tval(), 16), seed in any::<u64>()) {
        let fix = fixture();
        let t = fix.params.plain_modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ct = fix.enc.encrypt_augmented(&fix.coder.encode_vector(&v).unwrap(), &mut rng);
        let prod = mul_plain(&ct, &fix.coder.encode_row(&row).unwrap(), &fix.params).unwrap();
        let rescaled = rescale(&prod, &fix.params).unwrap();
        let expect = row.iter().zip(&v).fold(0u64, |acc, (&a, &b)| t.add(acc, t.mul(a, b)));
        prop_assert_eq!(fix.dec.decrypt(&rescaled).values()[0], expect);
    }

    #[test]
    fn extract_any_coefficient(vals in vec(0..tval(), 32), idx in 0usize..32, seed in any::<u64>()) {
        let fix = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ct = fix.enc.encrypt(&fix.coder.encode_vector(&vals).unwrap(), &mut rng);
        let lwe = extract_lwe(&ct, idx).unwrap();
        prop_assert_eq!(fix.dec.decrypt_lwe(&lwe), vals[idx]);
        // Re-importing keeps the payload.
        let back = lwe_to_rlwe(&lwe);
        prop_assert_eq!(fix.dec.decrypt(&back).values()[0], vals[idx]);
        // And a singleton pack (using the fixture's galois keys) is a
        // well-formed RLWE ciphertext of the same value.
        let packed = cham_he::pack::pack_lwes(std::slice::from_ref(&lwe), &fix.gkeys, &fix.params).unwrap();
        let pt = fix.dec.decrypt(&packed.ciphertext);
        prop_assert_eq!(packed.decode(&pt, &fix.params).unwrap(), vec![vals[idx]]);
    }

    #[test]
    fn galois_then_inverse_galois_is_identity(vals in vec(0..tval(), 16), seed in any::<u64>()) {
        let fix = fixture();
        let n = fix.params.degree();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // k = 2^j + 1 has inverse k' with k·k' ≡ 1 (mod 2N); generate both keys.
        let k = 5usize;
        let k_inv = {
            // invert 5 mod 2N by brute force (odd group is small).
            (1..2 * n).step_by(2).find(|&x| (x * k) % (2 * n) == 1).unwrap()
        };
        let sk_rng = &mut rand::rngs::StdRng::seed_from_u64(0xBEEF);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, sk_rng);
        let keys = GaloisKeys::generate(&sk, &[k, k_inv], &mut rng).unwrap();
        let ct = fix.enc.encrypt(&fix.coder.encode_vector(&vals).unwrap(), &mut rng);
        let rot = cham_he::ops::apply_galois(&ct, k, &keys, &fix.params).unwrap();
        let back = cham_he::ops::apply_galois(&rot, k_inv, &keys, &fix.params).unwrap();
        let out = fix.dec.decrypt(&back);
        prop_assert_eq!(&out.values()[..16], &vals[..]);
    }

    #[test]
    fn wire_roundtrip_random_ciphertexts(vals in vec(0..tval(), 8), seed in any::<u64>()) {
        let fix = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ct = fix.enc.encrypt(&fix.coder.encode_vector(&vals).unwrap(), &mut rng);
        let back = wire::rlwe_from_bytes(&wire::rlwe_to_bytes(&ct), &fix.params).unwrap();
        let out = fix.dec.decrypt(&back);
        prop_assert_eq!(&out.values()[..8], &vals[..]);
    }

    #[test]
    fn batch_encoder_is_ring_iso(xs in vec(0..tval(), 256), ys in vec(0..tval(), 256)) {
        let fix = fixture();
        let t = fix.params.plain_modulus();
        let enc = BatchEncoder::new(&fix.params).unwrap();
        let px = enc.encode(&xs).unwrap();
        let py = enc.encode(&ys).unwrap();
        // Slot-wise addition == coefficient-wise addition of encodings.
        let sum_pt: Vec<u64> = px.values().iter().zip(py.values()).map(|(&a, &b)| t.add(a, b)).collect();
        let sums = enc.decode(&cham_he::encoding::Plaintext::from_values(sum_pt)).unwrap();
        for i in 0..256 {
            prop_assert_eq!(sums[i], t.add(xs[i], ys[i]));
        }
    }
}

#[test]
fn galois_keys_are_independent_of_fixture() {
    // The fixture secret is reconstructible from its seed — sanity-check
    // that generate() is deterministic given the rng.
    let params = ChamParams::insecure_test_default().unwrap();
    let a = SecretKey::generate(&params, &mut rand::rngs::StdRng::seed_from_u64(0xBEEF));
    let b = SecretKey::generate(&params, &mut rand::rngs::StdRng::seed_from_u64(0xBEEF));
    assert_eq!(a.coeffs(), b.coeffs());
}
