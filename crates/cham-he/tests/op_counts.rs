//! What the named counters mean, checked against one `Hmvp::multiply`
//! whose operation counts are known in closed form.
//!
//! This file holds exactly one test on purpose: the counters are
//! process-wide, and a sibling test running in parallel in the same
//! binary would move them.

use cham_he::encrypt::Encryptor;
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_math::simd::{simd_stats, Kernel};
use cham_math::Backend;
use cham_telemetry::json::JsonValue;
use cham_telemetry::RunRecord;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn counters() -> BTreeMap<&'static str, u64> {
    let listed = cham_telemetry::counters::snapshot();
    let by_name: BTreeMap<_, _> = listed.iter().copied().collect();
    assert_eq!(by_name.len(), listed.len(), "a counter name listed twice");
    by_name
}

/// The keys of the object at `record[section]`, failing on a repeat.
fn unique_keys(record: &JsonValue, section: &str) -> BTreeSet<String> {
    let Some(JsonValue::Object(pairs)) = record.get(section) else {
        panic!("{section}: not an object");
    };
    let mut seen = BTreeSet::new();
    for (key, _) in pairs {
        assert!(seen.insert(key.clone()), "{section}: key {key} twice");
    }
    seen
}

#[test]
fn one_multiply_books_each_operation_once() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0C0_C0DE);
    let params = ChamParams::insecure_test_default().unwrap();
    let n = params.degree();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    let t = params.plain_modulus().value();
    // A power-of-two row count (no padding rows) over a single column tile.
    let (rows, cols) = (8usize, n);
    let a = Matrix::random(rows, cols, t, &mut rng);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t)).collect();
    let hmvp = Hmvp::new(&params);
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();

    let (before, simd_before) = (counters(), simd_stats());
    hmvp.multiply(&em, &cts, &gkeys).unwrap();
    let (after, simd_after) = (counters(), simd_stats());
    let delta =
        |name: &str| after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);

    let rows = rows as u64;
    assert_eq!(delta("cham_he.hmvp.multiply"), 1);
    // One fused rescale→extract tail per row …
    assert_eq!(delta("cham_he.ops.rescale"), rows);
    assert_eq!(delta("cham_he.extract.extract_lwe"), rows);
    // … and a binary pack tree over them: one key-switch per merge.
    assert_eq!(delta("cham_he.pack.pack_two"), rows - 1);
    assert_eq!(delta("cham_he.ops.keyswitch"), rows - 1);

    // Butterflies are booked by forward and inverse transforms alike.
    let transforms = delta("cham_math.ntt.forward") + delta("cham_math.ntt.inverse");
    assert!(delta("cham_math.ntt.forward") > 0 && delta("cham_math.ntt.inverse") > 0);
    assert_eq!(
        delta("cham_math.ntt.butterflies"),
        transforms * (n as u64 / 2) * u64::from(n.trailing_zeros())
    );

    // `simd_stats()` and the named lane counters are the same atomics.
    for k in Kernel::ALL {
        let (b, a) = (
            simd_before.kernels[k as usize],
            simd_after.kernels[k as usize],
        );
        let name = k.name();
        assert_eq!(
            delta(&format!("cham_math.simd.{name}.vector")),
            a.vector_elems - b.vector_elems,
            "{name} vector"
        );
        assert_eq!(
            delta(&format!("cham_math.simd.{name}.tail")),
            a.tail_elems - b.tail_elems,
            "{name} tail"
        );
    }
    let (vector, tail) = simd_after.totals();
    assert!(vector + tail > 0);

    // MAC lanes: the row MAC books `2 · lanes` products per row (one
    // column tile) with no vector arm; every key-switch books
    // `2 · digits · lanes` digit products, in vector lanes where the
    // augmented limbs' tables resolved to IFMA.
    let aug = params.augmented_context();
    let lanes = (aug.len() * n) as u64;
    let digits = params.ciphertext_context().len() as u64;
    let (row_mac, keyswitch) = (rows * 2 * lanes, (rows - 1) * 2 * digits * lanes);
    let ifma = aug
        .tables()
        .iter()
        .all(|t| t.backend() == Backend::Avx512Ifma);
    assert_eq!(
        (
            delta("cham_math.simd.mac.vector"),
            delta("cham_math.simd.mac.tail")
        ),
        if ifma {
            (keyswitch, row_mac)
        } else {
            (0, row_mac + keyswitch)
        }
    );

    // A run record written now carries all of it, one key per name.
    let text = RunRecord::start("op_counts").to_json().to_string();
    let record = JsonValue::parse(&text).unwrap();
    let keys = unique_keys(&record, "counters");
    assert!(keys.contains("cham_he.ops.rescale") && keys.contains("cham_math.ntt.butterflies"));
    assert!(unique_keys(&record, "timers").contains("cham_he.hmvp.multiply"));
    let rescales = record.get("counters").unwrap().get("cham_he.ops.rescale");
    assert_eq!(
        rescales.and_then(JsonValue::as_u64),
        Some(after["cham_he.ops.rescale"])
    );
}
