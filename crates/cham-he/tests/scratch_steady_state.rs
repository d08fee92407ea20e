//! Process-wide counters of the HMVP fan-out, read around whole calls:
//!
//! * after a warm-up, repeated `multiply` calls — the MAC over the
//!   NTT-form input read in place, the rescale→extract tail, every
//!   key-switch of the pack — draw all their
//!   working memory from the scratch free lists, so the process-wide miss
//!   count stops moving, also when widths and parameter sets alternate;
//! * the `threads` cap a caller passes governs every fan-out inside the
//!   call, counted by the threads `cham_pool::map_capped` spawned.
//!
//! The counters are process totals, so this binary holds nothing else and
//! its tests take turns ([`serial`]): a sibling running in parallel
//! would move them.

use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::Encryptor;
use cham_he::hmvp::{EncodedMatrix, Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_he::scratch::scratch_stats;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Held for the whole of each test, so no two overlap.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Threads spawned by fan-outs since process start.
fn spawned() -> u64 {
    // Reading the budget fixes it, and with it the stats.
    let _ = cham_pool::current_threads();
    cham_pool::global_stats().expect("budget fixed").tasks
}

/// A parameter set, its packing keys, an encoded matrix and an encrypted
/// vector.
type Fixture = (ChamParams, GaloisKeys, EncodedMatrix, Vec<RlweCiphertext>);

/// An `rows × 300` product (2 column tiles) under a fresh key.
fn setup(seed: u64, rows: usize) -> Fixture {
    let params = ChamParams::insecure_test_default().unwrap();
    setup_with(params, seed, rows, 300)
}

/// An `rows × cols` product over `params` under a fresh key.
fn setup_with(params: ChamParams, seed: u64, rows: usize, cols: usize) -> Fixture {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let levels = rows.next_power_of_two().trailing_zeros();
    let gkeys = GaloisKeys::generate_for_packing(&sk, levels, &mut rng).unwrap();
    let t = params.plain_modulus();
    let a = Matrix::random(rows, cols, t.value(), &mut rng);
    let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t.value())).collect();
    let hmvp = Hmvp::new(&params);
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();
    (params, gkeys, em, cts)
}

#[test]
fn repeated_multiplies_stop_missing_scratch() {
    let _turn = serial();
    // 21 rows (padded to 32).
    let (params, gkeys, em, cts) = setup(0x5C7A_7C11, 21);
    let hmvp = Hmvp::new(&params);

    // At a cap of 1 everything runs inline on this thread, so the schedule
    // — and with it the miss count — is exact: at most one miss to create
    // a scratch, none after.
    hmvp.multiply_parallel(&em, &cts, &gkeys, 1).unwrap();
    let (hits_before, misses_before) = scratch_stats();
    for _ in 0..5 {
        hmvp.multiply_parallel(&em, &cts, &gkeys, 1).unwrap();
        hmvp.dot_products(&em, &cts).unwrap();
    }
    let (hits_after, misses_after) = scratch_stats();
    assert_eq!(
        misses_after, misses_before,
        "steady state must not allocate"
    );
    // All hits: per multiply the one pack subtree; per `dot_products` one
    // per block of 8 rows (3 for 21). The input takes no scratch.
    assert_eq!(hits_after - hits_before, 5 * (1 + 3));

    // At a cap of 4, four subtrees hold a scratch at once. The free list
    // only grows when every fitting buffer is out, so misses are bounded
    // by that peak however many multiplies run — not by rows, packs or
    // calls.
    let (_, misses_before) = scratch_stats();
    for _ in 0..40 {
        hmvp.multiply_parallel(&em, &cts, &gkeys, 4).unwrap();
    }
    let (_, misses_after) = scratch_stats();
    assert!(
        misses_after - misses_before <= 4,
        "{} misses over 40 multiplies",
        misses_after - misses_before
    );
}

/// Widths and parameter sets taking turns through the one pool: after one
/// warm-up of each shape the kept buffers serve them all — a row scratch
/// is kept per ring degree, whatever the input width — and every result
/// equals the first one of its shape.
#[test]
fn alternating_widths_and_parameter_sets_stop_missing_after_one_warm_up() {
    let _turn = serial();
    let shapes = [
        (ChamParams::insecure_test_default().unwrap(), 2),
        (ChamParams::insecure_test_default().unwrap(), 18),
        (ChamParams::cham_default().unwrap(), 2),
        (ChamParams::cham_default().unwrap(), 18),
    ];
    let fixtures: Vec<_> = shapes
        .into_iter()
        .enumerate()
        .map(|(i, (params, tiles))| {
            let cols = (tiles - 1) * params.degree() + 1;
            setup_with(params, 0xA17E_0000 + i as u64, 3, cols)
        })
        .collect();
    let run = |(params, gkeys, em, cts): &Fixture| {
        Hmvp::new(params)
            .multiply_parallel(em, cts, gkeys, 1)
            .unwrap()
    };
    let firsts: Vec<_> = fixtures.iter().map(run).collect();
    let (_, misses_before) = scratch_stats();
    for round in 0..3 {
        for (i, (fixture, first)) in fixtures.iter().zip(&firsts).enumerate() {
            let got = run(fixture);
            assert_eq!(got.packed.len(), first.packed.len());
            for (g, f) in got.packed.iter().zip(&first.packed) {
                assert_eq!(g.ciphertext, f.ciphertext, "round {round}, shape {i}");
            }
        }
    }
    let (_, misses_after) = scratch_stats();
    assert_eq!(
        misses_after, misses_before,
        "alternating shapes must not allocate after their warm-up"
    );
}

/// The grain rule as a count: a cap of 1 means *no* spawned thread — not
/// for a row block, a limb or a pack subtree — and the serial
/// `dot_products` never spawns either.
#[test]
fn threads_cap_governs_every_fan_out_inside_the_call() {
    let _turn = serial();
    // 12 rows (≥ 8).
    let (params, gkeys, em, cts) = setup(0x5EED_0003, 12);
    let hmvp = Hmvp::new(&params);
    assert!(em.col_tiles() >= 2);

    let before = spawned();
    let inline = hmvp.multiply_parallel(&em, &cts, &gkeys, 1).unwrap();
    assert_eq!(spawned(), before, "threads=1 spawned a thread");

    let fanned = hmvp.multiply_parallel(&em, &cts, &gkeys, 4).unwrap();
    assert!(spawned() > before, "threads=4 never fanned out");
    assert_eq!(fanned.packed.len(), inline.packed.len());
    for (f, s) in fanned.packed.iter().zip(&inline.packed) {
        assert_eq!(f.ciphertext, s.ciphertext, "threads=4 vs threads=1");
    }

    let before = spawned();
    hmvp.dot_products(&em, &cts).unwrap();
    assert_eq!(spawned(), before, "dot_products spawned a thread");
}
