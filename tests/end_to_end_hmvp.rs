//! Cross-crate integration: the full HMVP pipeline verified against plain
//! arithmetic, the golden KAT over its packed ciphertext bytes, and
//! cycle-model consistency checks.

use cham::he::hmvp::{Hmvp, Matrix};
use cham::he::prelude::*;
use cham::sim::config::ChamConfig;
use cham::sim::pipeline::{HmvpCycleModel, RingShape};
use rand::{Rng, SeedableRng};

fn setup(
    seed: u64,
) -> (
    ChamParams,
    SecretKey,
    Encryptor,
    Decryptor,
    GaloisKeys,
    rand::rngs::StdRng,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let params = ChamParams::insecure_test_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    (params, sk, enc, dec, gkeys, rng)
}

#[test]
fn two_party_share_semantics() {
    // A holds one share, B the other (paper §II-F): B combines shares
    // homomorphically before the product; reconstruction matches plain.
    let (params, _, enc, dec, gkeys, mut rng) = setup(2);
    let t = *params.plain_modulus();
    let n = 32;
    let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
    let (share_a, share_b) = cham::apps::secretshare::share_vector(&v, &t, &mut rng);

    let hmvp = Hmvp::new(&params);
    // A encrypts her share and sends it to B.
    let ct_a = hmvp.encrypt_vector(&share_a, &enc, &mut rng).unwrap();
    // B adds his share into the ciphertext (add_plain) then multiplies.
    let coder = hmvp.encoder();
    let pt_b = coder.encode_vector(&share_b).unwrap();
    let combined: Vec<RlweCiphertext> = ct_a
        .iter()
        .map(|ct| cham::he::ops::add_plain(ct, &pt_b, &params).unwrap())
        .collect();
    let a = Matrix::random(16, n, t.value(), &mut rng);
    let em = hmvp.encode_matrix(&a).unwrap();
    let result = hmvp.multiply(&em, &combined, &gkeys).unwrap();
    let got = hmvp.decrypt_result(&result, &dec).unwrap();
    assert_eq!(got, a.mul_vector_mod(&v, &t).unwrap());
}

#[test]
fn cycle_model_monotonicity() {
    let model = HmvpCycleModel::new(ChamConfig::cham(), RingShape::cham()).unwrap();
    // More rows, more columns, fewer engines — all increase time.
    let base = model.hmvp_seconds(1024, 4096);
    assert!(model.hmvp_seconds(2048, 4096) > base);
    assert!(model.hmvp_seconds(1024, 8192) > base);
    let single = HmvpCycleModel::new(
        ChamConfig {
            engines: 1,
            ..ChamConfig::cham()
        },
        RingShape::cham(),
    )
    .unwrap();
    assert!(single.hmvp_seconds(1024, 4096) > base);
}

#[test]
fn noise_survives_paper_scale_dot_product() {
    // At the paper's full N = 4096 parameters: encrypt, one dot product,
    // rescale, extract, small pack — checking the noise trajectory the
    // paper quotes (≈30 bit after multiply, smaller after rescale).
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let params = ChamParams::cham_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let coder = CoeffEncoder::new(&params);
    let t = params.plain_modulus().value();
    let n = params.degree();
    let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
    let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
    let ct = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
    let prod = cham::he::ops::mul_plain(&ct, &coder.encode_row(&row).unwrap(), &params).unwrap();
    let before = dec.decrypt_with_noise(&prod);
    // Paper: ~30-bit noise after the multiply.
    assert!(
        before.noise_bits > 20.0 && before.noise_bits < 36.0,
        "post-multiply noise {} bits",
        before.noise_bits
    );
    let rescaled = cham::he::ops::rescale(&prod, &params).unwrap();
    let after = dec.decrypt_with_noise(&rescaled);
    assert!(
        after.noise_bits < before.noise_bits - 10.0,
        "rescale should remove ~log2(p) bits: {} -> {}",
        before.noise_bits,
        after.noise_bits
    );
    // The dot product decodes correctly.
    let tm = params.plain_modulus();
    let expect = row
        .iter()
        .zip(&v)
        .fold(0u64, |acc, (&a, &b)| tm.add(acc, tm.mul(a, b)));
    assert_eq!(after.plaintext.values()[0], expect);

    // Pack 16 such results at full parameters.
    let gkeys = GaloisKeys::generate_for_packing(&sk, 4, &mut rng).unwrap();
    let lwes: Vec<_> = (0..16)
        .map(|_| cham::he::extract::extract_lwe(&rescaled, 0).unwrap())
        .collect();
    let packed = cham::he::pack::pack_lwes(&lwes, &gkeys, &params).unwrap();
    let report = dec.decrypt_with_noise(&packed.ciphertext);
    assert!(
        report.budget_bits > 0.0,
        "packed budget {}",
        report.budget_bits
    );
    let decoded = packed.decode(&report.plaintext, &params).unwrap();
    assert!(decoded.iter().all(|&x| x == expect));
}

/// FNV-1a 64 over a byte string — the digest the golden KAT pins.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Shapes of the whole-HMVP golden KAT: two packs with a padded second
/// one, three column tiles, a full-degree square, and a row of 18 column
/// tiles — past the 16 one row-product call sums, so the row MAC folds a
/// second block into the first.
const KAT_SHAPES: [(usize, usize); 4] = [(300, 16), (8, 700), (256, 256), (3, 17 * 256 + 1)];

/// Digests of the `cham_he::wire` bytes of every packed ciphertext, one
/// slice per `KAT_SHAPES` entry, from seed `0xC4A3_0012`. The first three
/// were generated at commit e25d67e — before the streaming row tail and
/// reduce-buffer pack; the fourth at commit ab9248f — before the row MAC
/// moved onto the row-product kernel. Appending a shape keeps the earlier
/// digests, because the fixture draws its rng in shape order.
/// They must never change: a refactor of the back half is a re-ordering
/// of exact modular arithmetic, not a new function.
const KAT_DIGESTS: [&[u64]; 4] = [
    &[0xd7633eaa27c3e3e5, 0xec40040ae28b97b9],
    &[0xdcb4677655b68872],
    &[0x2a48d6b8996e0217],
    &[0x1c44e7aecfc2b1f0],
];

/// Which `Hmvp` entry point a KAT arm drives.
#[derive(Debug, Clone, Copy)]
enum KatEntry {
    /// `multiply`, at the process thread budget.
    Multiply,
    /// `multiply_parallel` at this cap.
    Parallel(usize),
}

#[test]
fn golden_kat_pins_packed_ciphertext_bytes() {
    use cham::math::Backend;
    for backend in Backend::all_available() {
        // Tables capture the SIMD backend at construction, so the whole
        // fixture is rebuilt from the fixed seed under each one.
        Backend::force(backend);
        let (params, _, enc, dec, gkeys, mut rng) = setup(0xC4A3_0012);
        let tm = params.plain_modulus();
        let t = tm.value();
        let hmvp = Hmvp::new(&params);
        let cases: Vec<_> = KAT_SHAPES
            .iter()
            .map(|&(m, n)| {
                let a = Matrix::random(m, n, t, &mut rng);
                let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
                let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
                let want = a.mul_vector_mod(&v, tm).unwrap();
                (hmvp.encode_matrix(&a).unwrap(), cts, want)
            })
            .collect();
        let entries = [
            KatEntry::Multiply,
            KatEntry::Parallel(1),
            KatEntry::Parallel(2),
            KatEntry::Parallel(4),
        ];
        for entry in entries {
            let results: Vec<_> = cases
                .iter()
                .map(|(em, cts, _)| match entry {
                    KatEntry::Multiply => hmvp.multiply(em, cts, &gkeys).unwrap(),
                    KatEntry::Parallel(cap) => {
                        hmvp.multiply_parallel(em, cts, &gkeys, cap).unwrap()
                    }
                })
                .collect();
            let want = KAT_DIGESTS.concat();
            let got: Vec<u64> = results
                .iter()
                .flat_map(|r| &r.packed)
                .map(|p| fnv1a64(&cham::he::wire::rlwe_to_bytes(&p.ciphertext)))
                .collect();
            assert_eq!(got, want, "backend={backend} entry={entry:?}: {got:#018x?}");
            // Decryption draws no rng, so checking the answer leaves the
            // digests above untouched.
            for ((result, (_, _, plain)), shape) in results.iter().zip(&cases).zip(KAT_SHAPES) {
                let got = hmvp.decrypt_result(result, &dec).unwrap();
                assert_eq!(
                    &got, plain,
                    "backend={backend} entry={entry:?} shape={shape:?}"
                );
            }
        }
    }
    Backend::force(Backend::detect_auto());
}
