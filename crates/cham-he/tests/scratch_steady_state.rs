//! Steady-state allocation witness for the whole HMVP back half: after a
//! warm-up, repeated `multiply` calls — MAC, rescale→extract tail, every
//! key-switch of the pack — draw all their working memory from the
//! per-worker scratch pool, so the process-wide miss count stops moving.
//!
//! This file holds exactly one test on purpose: the counters it reads are
//! process totals, and a sibling test running in parallel in the same
//! binary would move them.

use cham_he::encrypt::Encryptor;
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_he::scratch::scratch_stats;
use cham_pool::ThreadPool;
use rand::{Rng, SeedableRng};

#[test]
fn repeated_multiplies_stop_missing_scratch() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5C7A_7C11);
    let params = ChamParams::insecure_test_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    let t = params.plain_modulus();
    // 21 rows (padded to 32) over 2 column tiles.
    let a = Matrix::random(21, 300, t.value(), &mut rng);
    let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
    let hmvp = Hmvp::new(&params);
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();

    // On a single-thread pool every task runs inline on this thread, so
    // the schedule — and with it the miss count — is exact: one miss to
    // create this thread's scratch, none after.
    ThreadPool::new(1).install(|| {
        hmvp.multiply(&em, &cts, &gkeys).unwrap();
        let (hits_before, misses_before) = scratch_stats();
        for _ in 0..5 {
            hmvp.multiply(&em, &cts, &gkeys).unwrap();
            hmvp.dot_products_parallel(&em, &cts, 4).unwrap();
        }
        let (hits_after, misses_after) = scratch_stats();
        assert_eq!(
            misses_after, misses_before,
            "steady state must not allocate"
        );
        // One checkout per pack subtree and per LWE row, all hits.
        assert_eq!(hits_after - hits_before, 5 * (1 + 21));
    });

    // On a 4-worker pool which worker runs which subtree is up to the
    // scheduler, but a scratch is returned to the slot it came from, so
    // misses are bounded by slots × nesting depth however many multiplies
    // run — not by rows, packs or calls.
    ThreadPool::new(4).install(|| {
        let (_, misses_before) = scratch_stats();
        for _ in 0..40 {
            hmvp.multiply(&em, &cts, &gkeys).unwrap();
        }
        let (_, misses_after) = scratch_stats();
        assert!(
            misses_after - misses_before <= 2 * 5,
            "{} misses over 40 multiplies",
            misses_after - misses_before
        );
    });
}
