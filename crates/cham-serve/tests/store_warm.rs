//! Warm-restart integration test: a server restarted against the same
//! `--store-dir` serves its first HMVP from the persistent tier without
//! a re-upload of the matrix.
//!
//! The pins, per the persistent-data-plane contract:
//! * the restore is visible in `SessionCache::store_restores`,
//! * the restarted server's `matrix_encode` phase histogram counts
//!   exactly one encode per restore (the store holds the upload body,
//!   so a restore encodes it once) and no other,
//! * the streamed re-upload sends zero chunks — the `MatrixChunkStart`
//!   ack's full bitmap short-circuits straight to commit,
//! * the warm result decrypts bit-identical to the cold-path result and
//!   to the plain modular reference.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::server::{Server, ServerConfig};
use cham_serve::stats::PHASE_MATRIX_ENCODE;
use cham_serve::ServeClient;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cham-store-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn matrix_encode_count(server: &Server) -> u64 {
    server
        .introspect()
        .phase(PHASE_MATRIX_ENCODE)
        .map_or(0, |p| p.count)
}

#[test]
fn restarted_server_serves_first_hmvp_from_the_store_without_a_reupload() {
    let params = Arc::new(ChamParams::insecure_test_default().unwrap());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57A7);
    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let max_log = params.max_pack_log();
    let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).unwrap();
    let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();
    let hmvp = Hmvp::from_arc(Arc::clone(&params));
    let t = params.plain_modulus();
    let matrix = Matrix::random(8, 64, t.value(), &mut rng);
    let v: Vec<u64> = (0..matrix.cols())
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let reference = matrix.mul_vector_mod(&v, t).unwrap();
    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();

    let dir = temp_store_dir("roundtrip");
    let config = ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // --- Cold pass: upload, encode once, spill to the store. ---
    let cold_result = {
        let server = Server::start("127.0.0.1:0", Arc::clone(&params), &config).unwrap();
        let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&params)).unwrap();
        let key_id = client.load_keys(&gkeys, &indices).unwrap();
        let up = client
            .load_matrix_streamed(&matrix, cham_serve::protocol::DEFAULT_CHUNK_BYTES)
            .unwrap();
        assert!(up.chunks_sent > 0, "cold upload must actually stream");
        assert_eq!(up.chunks_skipped, 0);
        let result = client.hmvp(key_id, up.matrix_id, &cts, None).unwrap();
        let got = hmvp.decrypt_result(&result, &dec).unwrap();
        assert_eq!(got, reference);
        assert_eq!(matrix_encode_count(&server), 1);
        let store = server.cache().store().expect("store configured").clone();
        // The spill runs behind the reply: land it before looking.
        store.flush();
        assert_eq!(store.stats().segments, 1, "encode must spill one segment");
        server.shutdown();
        got
    };

    // --- Warm pass: same dir, fresh process state. ---
    let server = Server::start("127.0.0.1:0", Arc::clone(&params), &config).unwrap();
    let store = server.cache().store().expect("store configured").clone();
    assert_eq!(
        store.stats().recovered,
        1,
        "restart must recover the segment"
    );

    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&params)).unwrap();
    // Keys are session state, not persistent state: re-upload them.
    let key_id = client.load_keys(&gkeys, &indices).unwrap();
    let up = client
        .load_matrix_streamed(&matrix, cham_serve::protocol::DEFAULT_CHUNK_BYTES)
        .unwrap();
    // The Start ack's full bitmap steers the client straight to commit.
    assert_eq!(up.chunks_sent, 0, "warm re-upload must send no chunks");
    assert!(up.chunks_skipped > 0);

    let result = client.hmvp(key_id, up.matrix_id, &cts, None).unwrap();
    let got = hmvp.decrypt_result(&result, &dec).unwrap();
    assert_eq!(
        got, cold_result,
        "warm result must be bit-identical to cold"
    );
    assert_eq!(got, reference);

    // The restore is pinned three ways: the cache's restore counter, the
    // store's hit counter, and the encode histogram counting the
    // restore's one encode and nothing more.
    assert_eq!(server.cache().store_restores(), 1);
    assert!(store.stats().hits >= 1);
    assert_eq!(
        matrix_encode_count(&server),
        server.cache().store_restores(),
        "a warm restart encodes once per restored matrix"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
