//! What the named counters mean, checked against one `Hmvp::multiply`
//! (and the decryptions of its input and reply) whose operation counts
//! are known in closed form.
//!
//! This file holds exactly one test on purpose: the counters are
//! process-wide, and a sibling test running in parallel in the same
//! binary would move them.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_he::scratch::scratch_stats;
use cham_math::modulus::lazy_flush_count;
use cham_math::rns::Form;
use cham_math::simd::{simd_stats, Kernel};
use cham_math::Backend;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn counters() -> BTreeMap<&'static str, u64> {
    let listed = cham_telemetry::counters::snapshot();
    let by_name: BTreeMap<_, _> = listed.iter().copied().collect();
    assert_eq!(by_name.len(), listed.len(), "a counter name listed twice");
    by_name
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
    let between = |before: &BTreeMap<_, u64>, after: &BTreeMap<_, u64>, name: &str| {
        after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
    };
    let aug_limbs = params.augmented_context().len() as u64;

    // Encryption emits the NTT form the product reads: per ciphertext it
    // transforms `a` and `Δμ + e` forward (`2·L`) and inverts nothing.
    let enc_before = counters();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let enc_after = counters();
    let encrypted = cts.len() as u64;
    assert_eq!(
        between(&enc_before, &enc_after, "cham_math.ntt.forward"),
        2 * aug_limbs * encrypted
    );
    assert_eq!(between(&enc_before, &enc_after, "cham_math.ntt.inverse"), 0);
    let em = hmvp.encode_matrix(&a).unwrap();

    let (before, simd_before) = (counters(), simd_stats());
    let reply = hmvp.multiply(&em, &cts, &gkeys).unwrap();
    let (after, simd_after) = (counters(), simd_stats());
    let delta = |name: &str| between(&before, &after, name);

    let rows = rows as u64;
    assert_eq!(delta("cham_he.hmvp.multiply"), 1);
    // One fused rescale→extract tail per row …
    assert_eq!(delta("cham_he.ops.rescale"), rows);
    assert_eq!(delta("cham_he.extract.extract_lwe"), rows);
    // … and a binary pack tree over them: one key-switch per merge.
    assert_eq!(delta("cham_he.pack.pack_two"), rows - 1);
    assert_eq!(delta("cham_he.ops.keyswitch"), rows - 1);

    // Limb transforms, with `L` augmented limbs and `d` key-switch digits:
    // the NTT-form input is read in place (no forward transform of it),
    // each row tail brings its `a` back to coefficient form (`L` inverse),
    // each key-switch transforms its `d` digits forward and only the `a`
    // half of its correction back (`d·L` forward, `L` inverse) — 9 per
    // merge at `L = 3`, `d = 2`, where a rescale of `b` at every merge
    // cost 12 — and the pack's `b` half, NTT-resident over `Q·p` from
    // leaf to root, comes back once at the root (`L` inverse).
    let digits = params.ciphertext_context().len() as u64;
    assert_eq!(
        delta("cham_math.ntt.forward"),
        digits * aug_limbs * (rows - 1)
    );
    assert_eq!(
        delta("cham_math.ntt.inverse"),
        aug_limbs * rows + aug_limbs * (rows - 1) + aug_limbs
    );
    // Butterflies are booked by forward and inverse transforms alike.
    let transforms = delta("cham_math.ntt.forward") + delta("cham_math.ntt.inverse");
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
    // column tile) and every key-switch `2 · digits · lanes` digit
    // products — all in vector lanes where the augmented limbs' tables
    // resolved to IFMA (`n` is whole registers), all tail everywhere else.
    let aug = params.augmented_context();
    let lanes = aug_limbs * n as u64;
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
            (row_mac + keyswitch, 0)
        } else {
            (0, row_mac + keyswitch)
        }
    );

    // The pack's element-wise passes, per key-switch merge over `d`
    // normal-basis limbs and `L` augmented ones: the monomial butterfly
    // over `a` (`d·N` pairs) and, against the level's root table, over
    // the NTT-form `b` (`L·N` pairs), the digits written into every
    // augmented limb (`d·L·N`) and `b`'s slot gather-add of `σ_k(b)` and
    // the key-switch's `b` correction into the accumulator (`L·N`) —
    // `14·N` at `L = 3`, `d = 2`. The `rows / 2` first-level merges join
    // two leaves, whose constant `b` halves need no butterfly: `b` is
    // the correction plus a constant per half (`L·N`), `11·N`. Every
    // pass is whole registers, so it is all vector where the tables
    // resolved to IFMA and all tail everywhere else.
    let merge = (digits + aug_limbs + digits * aug_limbs + aug_limbs) * n as u64;
    let first_level = (digits + digits * aug_limbs + aug_limbs) * n as u64;
    let eltwise = (rows - 1 - rows / 2) * merge + rows / 2 * first_level;
    assert_eq!(
        (
            delta("cham_math.simd.eltwise.vector"),
            delta("cham_math.simd.eltwise.tail")
        ),
        if ifma { (eltwise, 0) } else { (0, eltwise) }
    );

    // Every counter the process booked is one this file pins or an
    // accessor reads: `simd_stats()` (the lane counters),
    // `scratch_stats()` and `lazy_flush_count()`. The set is closed, so a
    // counter nobody reads cannot come back unnoticed.
    let mut pinned: BTreeSet<String> = [
        "cham_he.hmvp.multiply",
        "cham_he.ops.rescale",
        "cham_he.extract.extract_lwe",
        "cham_he.pack.pack_two",
        "cham_he.ops.keyswitch",
        "cham_he.hmvp.scratch.hit",
        "cham_he.hmvp.scratch.miss",
        "cham_math.ntt.forward",
        "cham_math.ntt.inverse",
        "cham_math.ntt.butterflies",
        "cham_math.modulus.reduce.lazy_flush",
    ]
    .map(String::from)
    .into();
    for k in Kernel::ALL {
        for lane in ["vector", "tail"] {
            pinned.insert(format!("cham_math.simd.{}.{lane}", k.name()));
        }
    }
    let unread: Vec<_> = after
        .keys()
        .filter(|&&name| !pinned.contains(name))
        .collect();
    assert!(unread.is_empty(), "counters with no reader: {unread:?}");
    let named = |name: &str| after.get(name).copied().unwrap_or(0);
    assert_eq!(
        scratch_stats(),
        (
            named("cham_he.hmvp.scratch.hit"),
            named("cham_he.hmvp.scratch.miss")
        )
    );
    assert_eq!(
        lazy_flush_count(),
        named("cham_math.modulus.reduce.lazy_flush")
    );

    // Decryption forms `b + a·s` on one copy of `a`: a coefficient-form
    // reply costs `L` forward and `L` inverse transforms over its normal
    // basis, an NTT-form fresh encryption only the `L` inverse ones.
    let dec = Decryptor::new(&params, &sk);
    let transforms_of = |ct| {
        let before = counters();
        dec.decrypt(ct);
        let after = counters();
        (
            between(&before, &after, "cham_math.ntt.forward"),
            between(&before, &after, "cham_math.ntt.inverse"),
        )
    };
    let reply = &reply.packed[0].ciphertext;
    assert_eq!(reply.form(), Form::Coeff);
    let ct_limbs = params.ciphertext_context().len() as u64;
    assert_eq!(transforms_of(reply), (ct_limbs, ct_limbs));
    assert_eq!(cts[0].form(), Form::Ntt);
    assert_eq!(transforms_of(&cts[0]), (0, aug_limbs));
}
