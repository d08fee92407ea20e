//! Cross-crate integration: the full HMVP pipeline verified against plain
//! arithmetic, the golden KAT over its packed ciphertext bytes, and
//! cycle-model consistency checks.

use cham::he::hmvp::{Hmvp, Matrix};
use cham::he::pack::PackedRlwe;
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
    let coder = CoeffEncoder::new(&params);
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

/// Payload-slot noise budget (`PackedRlwe::noise_report`, in bits) that
/// a 4-row multiply at `ChamParams::cham_large` must keep. It read 44.2
/// bits at the test's seed when it was written; 40 leaves room for the
/// seed's spread and still fails on a noise growth of ≈ 18× (4.2 bits).
const LARGE_PAYLOAD_BUDGET_MARGIN_BITS: f64 = 40.0;

#[test]
fn large_params_multiply_decrypts_with_budget_to_spare() {
    // `ChamParams::cham_large` (N = 8192, `--params large`) end to end:
    // one row of column tiles per row, one four-leaf pack.
    let mut rng = rand::rngs::StdRng::seed_from_u64(8192);
    let params = ChamParams::cham_large().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let (rows, cols) = (4, params.degree());
    let gkeys = GaloisKeys::generate_for_packing(&sk, 2, &mut rng).unwrap();
    let t = params.plain_modulus();
    let a = Matrix::random(rows, cols, t.value(), &mut rng);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
    let hmvp = Hmvp::new(&params);
    let em = hmvp.encode_matrix(&a).unwrap();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let result = hmvp.multiply(&em, &cts, &gkeys).unwrap();
    assert_eq!(
        hmvp.decrypt_result(&result, &dec).unwrap(),
        a.mul_vector_mod(&v, t).unwrap()
    );
    assert_eq!(result.packed.len(), 1);
    let report = result.packed[0].noise_report(&dec, &params).unwrap();
    assert!(
        report.budget_bits > LARGE_PAYLOAD_BUDGET_MARGIN_BITS,
        "payload budget {} bits at N = {}",
        report.budget_bits,
        params.degree()
    );
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
/// slice per `KAT_SHAPES` entry, from seed `0xC4A3_0012`. Appending a
/// shape keeps the earlier digests, because the fixture draws its rng in
/// shape order.
///
/// They were regenerated once, on purpose, when the pack's `b` half
/// moved into NTT form over `Q·p` with one mod-down at the root: `b` is
/// now rounded once per pack instead of once per leaf and once per merge,
/// which is a different (and no noisier) function, not a re-ordering. The
/// digests they replaced — `[0xd7633eaa27c3e3e5, 0xec40040ae28b97b9]`,
/// `[0xdcb4677655b68872]`, `[0x2a48d6b8996e0217]`, `[0x1c44e7aecfc2b1f0]`
/// — dated from commit e25d67e (the first three, before the streaming
/// row tail and reduce-buffer pack) and ab9248f (the fourth, before the
/// row MAC moved onto the row-product kernel). Apart from such a
/// deliberate change of function, they must never change: a refactor of
/// the back half is a re-ordering of exact modular arithmetic.
const KAT_DIGESTS: [&[u64]; 4] = [
    &[0x1cc0205d0004a980, 0x8a557b574969f799],
    &[0x524b80deb6afc800],
    &[0x0c16588b626c4ae7],
    &[0x0515d2d5cc566b0e],
];

/// Which `Hmvp` entry point a KAT arm drives.
#[derive(Debug, Clone, Copy)]
enum KatEntry {
    /// `multiply`, at the process thread budget.
    Multiply,
    /// `multiply_parallel` at this cap.
    Parallel(usize),
}

/// One golden-KAT case: the encoded matrix, the encrypted vector and the
/// plain `A·v`.
type KatCase = (cham::he::hmvp::EncodedMatrix, Vec<RlweCiphertext>, Vec<u64>);

/// The golden KAT's fixture: keys, then one case per `KAT_SHAPES` entry,
/// drawn from the fixed seed in shape order.
fn kat_fixture() -> (ChamParams, Decryptor, GaloisKeys, Hmvp, Vec<KatCase>) {
    let (params, _, enc, dec, gkeys, mut rng) = setup(0xC4A3_0012);
    let tm = params.plain_modulus();
    let t = tm.value();
    let hmvp = Hmvp::new(&params);
    let cases = KAT_SHAPES
        .iter()
        .map(|&(m, n)| {
            let a = Matrix::random(m, n, t, &mut rng);
            let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
            let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
            let want = a.mul_vector_mod(&v, tm).unwrap();
            (hmvp.encode_matrix(&a).unwrap(), cts, want)
        })
        .collect();
    (params, dec, gkeys, hmvp, cases)
}

#[test]
fn golden_kat_pins_packed_ciphertext_bytes() {
    use cham::math::Backend;
    for backend in Backend::all_available() {
        // Tables capture the SIMD backend at construction, so the whole
        // fixture is rebuilt from the fixed seed under each one.
        Backend::force(backend);
        let (_, dec, gkeys, hmvp, cases) = kat_fixture();
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

/// Payload-slot noise (`PackedRlwe::noise_report`, in bits) of every
/// packed ciphertext of the golden KAT, one slice per `KAT_SHAPES` entry,
/// as the pack measured it when it rounded `b` at every leaf and merge
/// (commit 5cef027). `per_merge_rounding_pack` rebuilds that pack, and
/// the gate below checks it still reads these values.
const PER_MERGE_ROUNDING_NOISE_BITS: [&[f64]; 4] =
    [&[12.0345, 9.6062], &[5.6319], &[11.6164], &[5.0264]];

/// The digests of that pack, the ones `KAT_DIGESTS` replaced.
const PER_MERGE_ROUNDING_DIGESTS: [&[u64]; 4] = [
    &[0xd7633eaa27c3e3e5, 0xec40040ae28b97b9],
    &[0xdcb4677655b68872],
    &[0x2a48d6b8996e0217],
    &[0x1c44e7aecfc2b1f0],
];

/// The same noise with `b` rounded once, at the pack's root. The bytes
/// are pinned by `KAT_DIGESTS`, so these are too; they are spelled out
/// here so that the comparison below reads as numbers.
const ROOT_ROUNDING_NOISE_BITS: [&[f64]; 4] =
    [&[12.0172, 9.5725], &[5.5106], &[11.5697], &[5.0700]];

/// The one KAT shape whose payload noise reads higher with one rounding
/// at the root than with one per leaf and merge: 5.0264 → 5.0700 bits
/// (`|e|` 32.6 → 33.6) over its three payloads. Dropping the per-leaf
/// and per-merge `±½` roundings of `b` and adding one at the root shrinks
/// the bound and the variance of every payload's noise, but a single
/// payload may land on either side of where it was, and this one moved
/// up, so the gate below exempts it by name.
const NOISIER_THAN_PER_MERGE_ROUNDING: (usize, usize) = (3, 17 * 256 + 1);

/// The pack that rounded `b` at every leaf and merge, rebuilt from
/// public functions: each row's LWE from `dot_products` (its `b` rounded
/// at the leaf), placed bit-reversed, then the tree reduced level by
/// level through the public `pack_two`, which rounds `b` at every merge.
fn per_merge_rounding_pack(
    hmvp: &Hmvp,
    em: &cham::he::hmvp::EncodedMatrix,
    cts: &[RlweCiphertext],
    gkeys: &GaloisKeys,
    params: &ChamParams,
) -> Vec<PackedRlwe> {
    use cham::he::extract::lwe_to_rlwe;
    let lwes = hmvp.dot_products(em, cts).unwrap();
    lwes.chunks(params.degree())
        .map(|rows| {
            let log = rows.len().next_power_of_two().trailing_zeros();
            let mut level = vec![lwe_to_rlwe(&rows[0]).zero_like(); 1 << log];
            for (i, lwe) in rows.iter().enumerate() {
                level[cham::math::bit_reverse(i, log)] = lwe_to_rlwe(lwe);
            }
            for h in 1..=log {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        cham::he::pack::pack_two(h, &pair[0], &pair[1], gkeys, params).unwrap()
                    })
                    .collect();
            }
            PackedRlwe {
                ciphertext: level.pop().expect("one root"),
                log_count: log,
                count: rows.len(),
            }
        })
        .collect()
}

/// The noise gate of the one-mod-down pack, shape by shape: the payload
/// noise of every pack of every KAT shape is pinned as measured, and is
/// no higher than that of the pack which rounded `b` at every leaf and
/// merge — rebuilt here, and checked to be that pack by its digests and
/// its noise — except at `NOISIER_THAN_PER_MERGE_ROUNDING`, which is held
/// to its pinned value only.
#[test]
fn golden_kat_payload_noise_is_no_worse_than_a_rounding_per_merge() {
    let (params, dec, gkeys, hmvp, cases) = kat_fixture();
    let bits_of = |packs: &[PackedRlwe]| -> Vec<f64> {
        packs
            .iter()
            .map(|p| p.noise_report(&dec, &params).unwrap().noise_bits)
            .collect()
    };
    let pinned = ROOT_ROUNDING_NOISE_BITS
        .iter()
        .zip(PER_MERGE_ROUNDING_NOISE_BITS);
    let parent_digests = PER_MERGE_ROUNDING_DIGESTS.iter();
    for ((((em, cts, plain), shape), (root, per_merge)), digests) in
        cases.iter().zip(KAT_SHAPES).zip(pinned).zip(parent_digests)
    {
        let result = hmvp.multiply(em, cts, &gkeys).unwrap();
        assert_eq!(&hmvp.decrypt_result(&result, &dec).unwrap(), plain);
        let parent = per_merge_rounding_pack(&hmvp, em, cts, &gkeys, &params);
        let parent_bytes: Vec<u64> = parent
            .iter()
            .map(|p| fnv1a64(&cham::he::wire::rlwe_to_bytes(&p.ciphertext)))
            .collect();
        assert_eq!(
            &parent_bytes, digests,
            "shape={shape:?}: the per-merge pack"
        );
        let (got, was) = (bits_of(&result.packed), bits_of(&parent));
        assert_eq!((got.len(), was.len()), (root.len(), per_merge.len()));
        for (((&got, &was), &root), &per_merge) in got.iter().zip(&was).zip(*root).zip(per_merge) {
            assert!(
                (got - root).abs() < 1e-4 && (was - per_merge).abs() < 1e-4,
                "shape={shape:?}: {got} / {was} bits, pinned {root} / {per_merge}"
            );
            if shape != NOISIER_THAN_PER_MERGE_ROUNDING {
                assert!(got <= was, "shape={shape:?}: {got} bits > {was}");
            }
        }
    }
}
