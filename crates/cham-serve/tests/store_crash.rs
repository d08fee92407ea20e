//! Crash-safety suite for the persistent data plane: kill the server at
//! seeded fault points mid-snapshot and mid-upload, restart against the
//! same store directory, and prove recovery lands on a consistent
//! prefix — corrupt segments quarantined and counted, clean segments
//! serving HMVPs bit-identical to their pre-crash references with zero
//! re-encodes.
//!
//! "Kill" here is the [`cham_serve::Fault::TornSnapshot`] class: the
//! segment write is torn on disk exactly as a crash between `write` and
//! `fsync` would leave it (header promising more payload than follows,
//! under the *final* segment name), then the server is dropped. Restart
//! = a fresh [`Server`] over the same directory. The store's
//! write-temp → fsync → atomic-rename protocol means every other crash
//! window leaves either no file or a `.tmp` the recovery sweep deletes;
//! the torn-final-name case is the one that needs quarantine, so it is
//! the one the fault class manufactures.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::protocol::{self, FrameKind, Hello, MatrixChunkStart, Response};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::stats::PHASE_MATRIX_ENCODE;
use cham_serve::{cache::content_hash, Fault, FaultConfig, FaultInjector, ServeClient};
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

struct Fixture {
    params: Arc<ChamParams>,
    sk: SecretKey,
    gkeys: GaloisKeys,
    indices: Vec<usize>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let params = Arc::new(ChamParams::insecure_test_default().unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0A5);
        let sk = SecretKey::generate(&params, &mut rng);
        let max_log = params.max_pack_log();
        let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).unwrap();
        let indices = (1..=max_log).map(|j| (1usize << j) + 1).collect();
        Fixture {
            params,
            sk,
            gkeys,
            indices,
        }
    })
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cham-store-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(dir: &Path, faults: Option<Arc<FaultInjector>>) -> Server {
    let f = fixture();
    let config = ServerConfig {
        store_dir: Some(dir.to_path_buf()),
        faults,
        ..ServerConfig::default()
    };
    Server::start("127.0.0.1:0", Arc::clone(&f.params), &config).unwrap()
}

fn matrix_encode_count(server: &Server) -> u64 {
    server
        .phases()
        .snapshot()
        .iter()
        .find(|p| p.name == PHASE_MATRIX_ENCODE)
        .map_or(0, |p| p.count)
}

/// One verified HMVP over an already-uploaded matrix; returns the
/// decrypted vector so callers can pin pre/post-crash bit-identity.
fn run_hmvp(
    client: &mut ServeClient,
    key_id: u64,
    matrix_id: u64,
    cts: &[cham_he::ciphertext::RlweCiphertext],
) -> Vec<u64> {
    let f = fixture();
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let dec = Decryptor::new(&f.params, &f.sk);
    let result: HmvpResult = client.hmvp(key_id, matrix_id, cts, None).unwrap();
    hmvp.decrypt_result(&result, &dec).unwrap()
}

/// Every live `.chs` file in `dir` must be a complete, self-consistent
/// segment — the "no partially-visible segments" invariant, checked at
/// the byte level rather than through the store's own index.
fn assert_no_partial_segments(dir: &Path) {
    use cham_serve::store::{crc32, SEGMENT_HEADER_BYTES, SEGMENT_MAGIC};
    for item in std::fs::read_dir(dir).unwrap() {
        let path = item.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("chs") {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        assert!(
            bytes.len() >= SEGMENT_HEADER_BYTES,
            "{path:?}: shorter than a header"
        );
        assert_eq!(bytes[..4], SEGMENT_MAGIC, "{path:?}: bad magic");
        let declared =
            u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize + SEGMENT_HEADER_BYTES;
        assert_eq!(bytes.len(), declared, "{path:?}: length disagrees");
        let header_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        assert_eq!(crc32(&bytes[..24]), header_crc, "{path:?}: header CRC");
        let payload_crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        assert_eq!(
            crc32(&bytes[SEGMENT_HEADER_BYTES..]),
            payload_crc,
            "{path:?}: payload CRC"
        );
    }
}

/// The tentpole acceptance loop: for every kill point k, k matrices land
/// cleanly, the (k+1)-th snapshot is torn by the seeded fault, and the
/// restarted server recovers exactly the k-segment prefix — serving each
/// restored matrix bit-identical to its pre-crash reference without a
/// single re-encode, quarantining the torn segment, and accepting a
/// clean re-upload of the lost matrix.
#[test]
fn every_kill_point_recovers_a_consistent_prefix() {
    let f = fixture();
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1A5);
    const MATRICES: usize = 4;
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let matrices: Vec<Matrix> = (0..MATRICES)
        .map(|_| Matrix::random(4, 32, t.value(), &mut rng))
        .collect();
    let vectors: Vec<Vec<u64>> = matrices
        .iter()
        .map(|m| (0..m.cols()).map(|_| rng.gen_range(0..t.value())).collect())
        .collect();
    let inputs: Vec<_> = vectors
        .iter()
        .map(|v| hmvp.encrypt_vector(v, &enc, &mut rng).unwrap())
        .collect();

    for kill_point in 0..MATRICES {
        let dir = temp_store_dir(&format!("kill{kill_point}"));

        // --- Pre-crash epoch: k clean uploads, each HMVP-verified. ---
        let mut references = Vec::new();
        let mut ids = Vec::new();
        {
            let server = start_server(&dir, None);
            let mut client =
                ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();
            let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
            for i in 0..kill_point {
                let id = client.load_matrix(&matrices[i]).unwrap();
                let got = run_hmvp(&mut client, key_id, id, &inputs[i]);
                assert_eq!(got, matrices[i].mul_vector_mod(&vectors[i], t).unwrap());
                references.push(got);
                ids.push(id);
            }
            server.shutdown();
        }

        // --- The crash: the kill-point matrix's snapshot is torn on
        // disk mid-write (seeded fault), then the process "dies". The
        // RAM entry still served, so the client saw success — exactly
        // the durability-vs-correctness split the store promises. ---
        let faults = Arc::new(FaultInjector::new(FaultConfig {
            torn_snapshot: 1.0,
            seed: 0xDEAD_0000 + kill_point as u64,
            ..FaultConfig::default()
        }));
        {
            let server = start_server(&dir, Some(Arc::clone(&faults)));
            let mut client =
                ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();
            let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
            let id = client.load_matrix(&matrices[kill_point]).unwrap();
            let got = run_hmvp(&mut client, key_id, id, &inputs[kill_point]);
            assert_eq!(
                got,
                matrices[kill_point]
                    .mul_vector_mod(&vectors[kill_point], t)
                    .unwrap()
            );
            assert_eq!(faults.injected(Fault::TornSnapshot), 1);
            // The cache swallowed the failed spill; `Pong` is where an
            // operator can still see it.
            assert_eq!(client.ping().unwrap().spill_errors, 1);
            server.shutdown();
        }

        // --- Restart: recovery must land on the k-segment prefix. ---
        let server = start_server(&dir, None);
        let store = server.cache().store().expect("store configured").clone();
        assert_eq!(
            store.stats().recovered,
            kill_point as u64,
            "kill point {kill_point}: clean prefix"
        );
        assert_eq!(
            store.stats().quarantined,
            1,
            "kill point {kill_point}: torn segment quarantined"
        );
        assert_no_partial_segments(&dir);
        assert!(
            std::fs::read_dir(&dir).unwrap().any(|e| {
                let p = e.unwrap().path();
                p.to_string_lossy().ends_with(".corrupt")
            }),
            "kill point {kill_point}: quarantined bytes kept for forensics"
        );

        let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();
        let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
        for (i, id) in ids.iter().enumerate() {
            // Streamed re-upload short-circuits on the restored segment…
            let up = client
                .load_matrix_streamed(&matrices[i], protocol::DEFAULT_CHUNK_BYTES)
                .unwrap();
            assert_eq!(up.matrix_id, *id);
            assert_eq!(up.chunks_sent, 0, "restored matrix must not re-stream");
            // …and the HMVP answer is bit-identical to pre-crash.
            let got = run_hmvp(&mut client, key_id, *id, &inputs[i]);
            assert_eq!(got, references[i], "kill point {kill_point}, matrix {i}");
        }
        assert_eq!(
            matrix_encode_count(&server),
            0,
            "kill point {kill_point}: restored prefix must cost zero re-encodes"
        );
        assert_eq!(server.cache().store_restores(), kill_point as u64);

        // The lost matrix is simply gone — its clean re-upload encodes
        // once and persists durably this time.
        let id = client.load_matrix(&matrices[kill_point]).unwrap();
        let got = run_hmvp(&mut client, key_id, id, &inputs[kill_point]);
        assert_eq!(
            got,
            matrices[kill_point]
                .mul_vector_mod(&vectors[kill_point], t)
                .unwrap()
        );
        assert_eq!(matrix_encode_count(&server), 1);
        assert_eq!(store.stats().segments, kill_point + 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Seeded probabilistic schedule: with `torn_snapshot` armed at 0.5 over
/// many uploads, whichever snapshots the seed tears must be exactly the
/// segments missing after restart — and every survivor serves with zero
/// re-encodes. Replays deterministically by seed.
#[test]
fn seeded_fault_schedule_recovers_exactly_the_untorn_segments() {
    let f = fixture();
    let t = f.params.plain_modulus();
    for seed in [0x5EED_0001u64, 0x5EED_0002] {
        let dir = temp_store_dir(&format!("seed{seed:x}"));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        const MATRICES: usize = 6;
        let matrices: Vec<Matrix> = (0..MATRICES)
            .map(|_| Matrix::random(2, 16, t.value(), &mut rng))
            .collect();

        let faults = Arc::new(FaultInjector::new(FaultConfig {
            torn_snapshot: 0.5,
            seed,
            ..FaultConfig::default()
        }));
        let mut ids = Vec::new();
        let mut durable = Vec::new();
        {
            let server = start_server(&dir, Some(Arc::clone(&faults)));
            let store = server.cache().store().unwrap().clone();
            let mut client =
                ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();
            for m in &matrices {
                let id = client.load_matrix(m).unwrap();
                // Whether this snapshot survived is observable right
                // away: a torn spill never enters the store index.
                durable.push(store.contains(id));
                ids.push(id);
            }
            let torn = faults.injected(Fault::TornSnapshot);
            assert_eq!(client.introspect().unwrap().stats.spill_errors, torn);
            server.shutdown();
        }
        let torn = faults.injected(Fault::TornSnapshot);
        assert_eq!(torn, durable.iter().filter(|d| !**d).count() as u64);
        assert!(torn > 0, "seed {seed:#x} never tore — pick another seed");
        assert!(torn < MATRICES as u64, "seed {seed:#x} tore everything");

        let server = start_server(&dir, None);
        let store = server.cache().store().unwrap().clone();
        assert_eq!(
            store.stats().recovered,
            MATRICES as u64 - torn,
            "seed {seed:#x}"
        );
        assert_eq!(store.stats().quarantined, torn, "seed {seed:#x}");
        assert_no_partial_segments(&dir);
        for (id, durable) in ids.iter().zip(&durable) {
            assert_eq!(store.contains(*id), *durable, "seed {seed:#x}");
        }

        // Every survivor restores without an encode.
        let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();
        let mut restored = 0;
        for (i, id) in ids.iter().enumerate() {
            if !durable[i] {
                continue;
            }
            let up = client
                .load_matrix_streamed(&matrices[i], protocol::DEFAULT_CHUNK_BYTES)
                .unwrap();
            assert_eq!(up.matrix_id, *id);
            assert_eq!(up.chunks_sent, 0);
            restored += 1;
        }
        assert_eq!(matrix_encode_count(&server), 0);
        assert_eq!(server.cache().store_restores(), restored);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A client that vanishes mid-chunk-stream leaves nothing behind: the
/// assembly is RAM-only until commit, so a restart has no partial
/// segment to clean up, and a fresh upload streams from scratch.
#[test]
fn crash_mid_upload_leaves_no_partial_state() {
    let f = fixture();
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9D);
    let matrix = Matrix::random(4, 32, t.value(), &mut rng);
    let body = protocol::matrix_to_bytes(&matrix);
    let matrix_id = content_hash(&body);
    let dir = temp_store_dir("midupload");

    {
        let server = start_server(&dir, None);
        // Hand-rolled session: declare, send half the chunks, vanish.
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let hello = Hello::for_params(&f.params);
        protocol::write_frame(&mut s, FrameKind::Hello, &hello.to_bytes()).unwrap();
        let (kind, _) = protocol::read_frame(&mut s).unwrap();
        assert_eq!(kind, FrameKind::Result);
        let chunk_bytes = 64;
        let start = MatrixChunkStart::new(
            matrix_id,
            body.len(),
            chunk_bytes,
            matrix.rows() as u32,
            matrix.cols() as u32,
        );
        protocol::write_frame(&mut s, FrameKind::MatrixChunkStart, &start.to_bytes()).unwrap();
        let (kind, ack) = protocol::read_frame(&mut s).unwrap();
        assert_eq!(kind, FrameKind::Result);
        assert!(matches!(
            Response::from_bytes(&ack, &f.params).unwrap(),
            Response::ChunkAck { .. }
        ));
        for index in 0..start.chunk_count / 2 {
            let off = index as usize * chunk_bytes;
            let data = &body[off..(off + chunk_bytes).min(body.len())];
            let chunk = protocol::matrix_chunk_to_bytes(matrix_id, index, content_hash(data), data);
            protocol::write_frame(&mut s, FrameKind::MatrixChunk, &chunk).unwrap();
            let _ = protocol::read_frame(&mut s).unwrap();
        }
        drop(s);
        server.shutdown();
    }

    // Nothing of the aborted stream reached the directory.
    assert_no_partial_segments(&dir);
    let server = start_server(&dir, None);
    let store = server.cache().store().unwrap().clone();
    assert_eq!(store.stats().recovered, 0);
    assert_eq!(store.stats().quarantined, 0);

    // A fresh upload starts from an empty bitmap and fully streams.
    let mut client = ServeClient::connect(server.local_addr(), Arc::clone(&f.params)).unwrap();
    let up = client
        .load_matrix_streamed(&matrix, protocol::DEFAULT_CHUNK_BYTES)
        .unwrap();
    assert_eq!(up.matrix_id, matrix_id);
    assert!(up.chunks_sent > 0);
    assert_eq!(up.chunks_skipped, 0);
    assert!(store.contains(matrix_id));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
