//! End-to-end SIMD dispatch equivalence: the full HMVP pipeline (encrypt →
//! encode → dot phase → rescale → pack) must produce byte-identical
//! ciphertexts whether the process runs on the scalar backend or on any
//! other backend this host can run — whatever `CHAM_SIMD=auto` resolves to
//! among them.
//!
//! The backend is process-global and captured by every `NttTable` at
//! construction, so each arm pins the global with `Backend::force` and
//! rebuilds the entire fixture (params, keys, Hmvp) from the same seed —
//! exactly what two separate `CHAM_SIMD=scalar` / `=auto` processes would
//! compute.

use cham_he::encrypt::Encryptor;
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_math::Backend;
use rand::{Rng, SeedableRng};

/// Runs the whole HMVP pipeline under one pinned backend and returns the
/// packed result ciphertexts plus the decoded product for sanity.
fn run_pipeline(backend: Backend, seed: u64) -> Vec<Vec<u64>> {
    Backend::force(backend);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let params = ChamParams::insecure_test_default().unwrap();
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
    let t = params.plain_modulus();
    let a = Matrix::random(19, 300, t.value(), &mut rng);
    let v: Vec<u64> = (0..300).map(|_| rng.gen_range(0..t.value())).collect();
    let hmvp = Hmvp::new(&params);
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
    let em = hmvp.encode_matrix(&a).unwrap();
    let out = hmvp.multiply(&em, &cts, &gkeys).unwrap();
    // Serialize every packed ciphertext's limbs into flat words — the
    // "ciphertext bytes" the dispatch contract promises are identical.
    out.packed
        .iter()
        .flat_map(|p| {
            let ct = &p.ciphertext;
            [ct.a(), ct.b()].into_iter().map(|poly| {
                poly.limbs()
                    .iter()
                    .flat_map(|l| l.coeffs().iter().copied())
                    .collect::<Vec<u64>>()
            })
        })
        .collect()
}

#[test]
fn scalar_and_auto_produce_identical_ciphertext_bytes() {
    const SEED: u64 = 0x0051_D0D1;
    let scalar = run_pipeline(Backend::Scalar, SEED);
    assert!(!scalar.is_empty());
    // Whatever `CHAM_SIMD=auto` resolves to is one of these, and so are
    // the tiers below it; one the host cannot run is not listed, so its
    // arm skips.
    let auto = Backend::detect_auto();
    assert!(Backend::all_available().contains(&auto));
    for backend in Backend::all_available() {
        assert_eq!(
            scalar,
            run_pipeline(backend, SEED),
            "CHAM_SIMD=scalar and ={backend} diverged (auto={auto})"
        );
    }
    // Leave the process default restored for any tests that follow.
    Backend::force(auto);
}
