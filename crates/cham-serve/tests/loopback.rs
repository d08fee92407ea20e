//! End-to-end tests: real server on an ephemeral loopback port, real
//! clients over TCP, results verified against the plain reference
//! product. Uses the insecure N=256 test parameters so the suite stays
//! fast in debug builds (tier-1 runs `cargo test -q` unoptimized).

use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, HmvpResult, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::protocol::{self, ErrorCode, FrameKind, Hello, Response, DEADLINE_NONE};
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{
    ClusterClient, Fault, FaultConfig, FaultInjector, RetryPolicy, ServeClient, ServeError,
};
use rand::{Rng, SeedableRng};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED);
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

fn start_server(config: &ServerConfig) -> Server {
    let f = fixture();
    Server::start("127.0.0.1:0", Arc::clone(&f.params), config).unwrap()
}

fn connect(server: &Server) -> ServeClient {
    ServeClient::connect(server.local_addr(), Arc::clone(&fixture().params)).unwrap()
}

/// Keys and an 8 × 32 matrix loaded through `client`, plus one encrypted
/// input for it: `(key_id, matrix_id, cts)`.
fn load_small(client: &mut ServeClient, seed: u64) -> (u64, u64, Vec<RlweCiphertext>) {
    let f = fixture();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let matrix = Matrix::random(8, 32, f.params.plain_modulus().value(), &mut rng);
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = client.load_matrix(&matrix).unwrap();
    let cts = Hmvp::from_arc(Arc::clone(&f.params))
        .encrypt_vector(&[2u64; 32], &Encryptor::new(&f.params, &f.sk), &mut rng)
        .unwrap();
    (key_id, matrix_id, cts)
}

/// Blocks until `n` requests wait at the server's admission gate.
fn until_waiting(server: &Server, n: u32) {
    while server.introspect().queue_depth != n {
        std::thread::yield_now();
    }
}

/// ≥8 concurrent HMVPs from ≥2 client threads, keys + matrix loaded
/// once, every decrypted result equal to `Matrix::mul_vector_mod`.
#[test]
fn concurrent_clients_all_match_reference() {
    let f = fixture();
    let server = start_server(&ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });

    let mut main_client = connect(&server);
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let matrix = Matrix::random(8, 32, t.value(), &mut rng);
    let key_id = main_client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = main_client.load_matrix(&matrix).unwrap();

    const THREADS: u64 = 3;
    const PER_THREAD: usize = 3;
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    std::thread::scope(|scope| {
        for thread_id in 0..THREADS {
            let matrix = &matrix;
            let hmvp = &hmvp;
            let server = &server;
            scope.spawn(move || {
                let mut client = connect(server);
                let enc = Encryptor::new(&f.params, &f.sk);
                let dec = Decryptor::new(&f.params, &f.sk);
                let mut rng = rand::rngs::StdRng::seed_from_u64(100 + thread_id);
                for _ in 0..PER_THREAD {
                    let v: Vec<u64> = (0..matrix.cols())
                        .map(|_| rng.gen_range(0..t.value()))
                        .collect();
                    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
                    let result = client.hmvp(key_id, matrix_id, &cts, None).unwrap();
                    let got = hmvp.decrypt_result(&result, &dec).unwrap();
                    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());
                }
            });
        }
    });

    let stats = server.shutdown();
    let total = THREADS * PER_THREAD as u64;
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.rejected_busy, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.failed, 0);
}

/// With one permit and room for one waiter, a third in-flight request
/// bounces with `Busy`. The test holds the permit itself, so nothing
/// depends on how long a multiply takes.
#[test]
fn full_queue_rejects_with_busy() {
    let server = start_server(&ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let mut main_client = connect(&server);
    let (key_id, matrix_id, cts) = load_small(&mut main_client, 2);

    // A: the only permit.
    let held = server.gate().acquire(None).unwrap();
    std::thread::scope(|scope| {
        // B: fills the one place in line.
        let b = scope.spawn(|| connect(&server).hmvp(key_id, matrix_id, &cts, None));
        until_waiting(&server, 1);
        // C: line full, permit held → explicit backpressure.
        let c = main_client.hmvp(key_id, matrix_id, &cts, None);
        assert!(
            matches!(c, Err(ServeError::Busy)),
            "expected Busy, got {c:?}"
        );
        drop(held);
        assert!(b.join().unwrap().is_ok());
    });

    let stats = server.shutdown();
    assert_eq!(stats.rejected_busy, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.peak_queue_depth, 1);
}

/// A request whose deadline passes while every permit is held comes back
/// `TimedOut` at the deadline — the server never computes for it.
#[test]
fn expired_deadline_returns_timed_out() {
    let server = start_server(&ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    });
    let mut client = connect(&server);
    let (key_id, matrix_id, cts) = load_small(&mut client, 3);

    let held = server.gate().acquire(None).unwrap();
    let r = client.hmvp(key_id, matrix_id, &cts, Some(Duration::from_millis(100)));
    assert!(
        matches!(r, Err(ServeError::TimedOut)),
        "expected TimedOut, got {r:?}"
    );
    // Answered while the permit was still held, not when it freed up.
    drop(held);

    let stats = server.shutdown();
    assert_eq!(stats.timed_out, 1);
    assert_eq!(stats.completed, 0);
}

/// An injected spurious `Busy` is a typed rejection booked as both a
/// fault and a rejection, and the request never reaches the gate.
#[test]
fn spurious_busy_fault_injects_typed_rejection() {
    let injector = Arc::new(FaultInjector::new(
        FaultConfig::parse("spurious_busy=1.0").unwrap(),
    ));
    let server = start_server(&ServerConfig {
        faults: Some(Arc::clone(&injector)),
        ..ServerConfig::default()
    });
    let mut client = connect(&server);
    let (key_id, matrix_id, cts) = load_small(&mut client, 10);

    let r = client.hmvp(key_id, matrix_id, &cts, None);
    assert!(
        matches!(r, Err(ServeError::Busy)),
        "expected Busy, got {r:?}"
    );
    let stats = server.shutdown();
    assert_eq!(stats.faults_injected, 1);
    assert_eq!(stats.rejected_busy, 1);
    assert_eq!(stats.accepted, 0);
    assert_eq!(injector.injected(Fault::SpuriousBusy), 1);
}

/// A request waiting at the gate when shutdown begins is not dropped: it
/// gets its permit, runs, and is answered before the server is gone.
#[test]
fn request_waiting_at_shutdown_still_completes() {
    let server = start_server(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut client = connect(&server);
    let (key_id, matrix_id, cts) = load_small(&mut client, 11);

    let gate = Arc::clone(server.gate());
    let held = gate.acquire(None).unwrap();
    let stats = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || client.hmvp(key_id, matrix_id, &cts, None));
        until_waiting(&server, 1);
        let shutdown = scope.spawn(move || server.shutdown());
        // The listener closes once shutdown has joined the accept thread;
        // from then on it is blocked joining the waiter's connection.
        while std::net::TcpStream::connect(addr).is_ok() {
            std::thread::yield_now();
        }
        drop(held);
        assert!(waiter.join().unwrap().is_ok());
        shutdown.join().unwrap()
    });
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected_shutdown, 0);
}

/// Unknown ids and incompatible parameter sets travel as typed error
/// frames, not connection drops.
#[test]
fn wire_errors_are_typed() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());

    // Unknown key / matrix ids.
    let mut client = connect(&server);
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let matrix = Matrix::random(4, 8, t.value(), &mut rng);
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let cts = hmvp.encrypt_vector(&[1u64; 8], &enc, &mut rng).unwrap();
    // Unknown ids come back as the *typed* client-side variants, with
    // the id intact — that is what lets ClusterClient know what to replay.
    let r = client.hmvp(0xDEAD, 0xBEEF, &cts, None);
    assert!(matches!(r, Err(ServeError::UnknownKey(0xDEAD))));
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let r = client.hmvp(key_id, 0xBEEF, &cts, None);
    assert!(matches!(r, Err(ServeError::UnknownMatrix(0xBEEF))));

    // Wrong ciphertext count for the matrix's column tiles.
    let matrix_id = client.load_matrix(&matrix).unwrap();
    let two = vec![cts[0].clone(), cts[0].clone()];
    let r = client.hmvp(key_id, matrix_id, &two, None);
    assert!(matches!(
        r,
        Err(ServeError::Remote {
            code: ErrorCode::Incompatible,
            ..
        })
    ));

    // The connection survives typed errors: a valid request still works.
    let dec = Decryptor::new(&f.params, &f.sk);
    let result = client.hmvp(key_id, matrix_id, &cts, None).unwrap();
    let got = hmvp.decrypt_result(&result, &dec).unwrap();
    assert_eq!(got, matrix.mul_vector_mod(&[1; 8], t).unwrap());

    // A client on a different parameter set is refused at hello.
    let other = Arc::new(
        cham_he::params::ChamParamsBuilder::new()
            .degree(512)
            .build()
            .unwrap(),
    );
    let r = ServeClient::connect(server.local_addr(), other);
    assert!(matches!(
        r,
        Err(ServeError::Remote {
            code: ErrorCode::Incompatible,
            ..
        })
    ));

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// A request whose second of three ciphertexts holds a word `≥ q` is
/// refused with the codec's error, typed on the wire, after the server
/// has read the rest of its body: the same connection then serves a
/// valid request.
#[test]
fn refused_ciphertext_mid_request_keeps_the_connection() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());
    let mut client = connect(&server);
    let t = f.params.plain_modulus();
    let n = f.params.degree();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAD);
    let matrix = Matrix::random(4, 3 * n, t.value(), &mut rng);
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = client.load_matrix(&matrix).unwrap();
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let v: Vec<u64> = (0..matrix.cols())
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let cts = hmvp
        .encrypt_vector(&v, &Encryptor::new(&f.params, &f.sk), &mut rng)
        .unwrap();
    assert_eq!(cts.len(), 3);
    let body = protocol::hmvp_request_to_bytes(key_id, matrix_id, DEADLINE_NONE, 0, &cts);
    // The second ciphertext's first word, past the head, the count, the
    // first ciphertext and its own length and header, set to its prime.
    let ct_len = cham_he::wire::rlwe_encoded_len(&cts[1]);
    let moduli = cts[1].b().context().moduli();
    let header = ct_len - 2 * 8 * moduli.len() * n;
    let at = 28 + 2 + (4 + ct_len) + 4 + header;
    let mut bad = body.clone();
    bad[at..at + 8].copy_from_slice(&moduli[0].value().to_le_bytes());

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let hello = Hello::for_params(&f.params).to_bytes();
    protocol::write_frame(&mut stream, FrameKind::Hello, &hello).unwrap();
    assert_eq!(
        protocol::read_frame(&mut stream).unwrap().0,
        FrameKind::Result
    );
    protocol::write_frame(&mut stream, FrameKind::Hmvp, &bad).unwrap();
    let (kind, reply) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Error);
    match protocol::error_from_body(&reply).unwrap() {
        ServeError::Internal(m) => assert!(m.contains("out of canonical range"), "{m}"),
        other => panic!("got {other:?}"),
    }
    protocol::write_frame(&mut stream, FrameKind::Hmvp, &body).unwrap();
    let (kind, reply) = protocol::read_frame(&mut stream).unwrap();
    assert_eq!(kind, FrameKind::Result);
    let Response::HmvpDone { len, packed } = Response::from_bytes(&reply, &f.params).unwrap()
    else {
        panic!("hmvp answered with the wrong response");
    };
    let result = HmvpResult {
        packed,
        len: len as usize,
    };
    let got = hmvp
        .decrypt_result(&result, &Decryptor::new(&f.params, &f.sk))
        .unwrap();
    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
}

/// A 200-tile request is 1 403 slices, more than one vectored write takes
/// on a socket: it crosses a real one gathered from its limbs and
/// decrypts to `A·v`.
#[test]
fn two_hundred_tile_request_crosses_the_socket() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());
    let mut client = connect(&server);
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(200);
    let matrix = Matrix::random(2, 200 * f.params.degree(), t.value(), &mut rng);
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = client.load_matrix(&matrix).unwrap();
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let v: Vec<u64> = (0..matrix.cols())
        .map(|_| rng.gen_range(0..t.value()))
        .collect();
    let cts = hmvp
        .encrypt_vector(&v, &Encryptor::new(&f.params, &f.sk), &mut rng)
        .unwrap();
    assert_eq!(cts.len(), 200);
    let result = client.hmvp(key_id, matrix_id, &cts, None).unwrap();
    let got = hmvp
        .decrypt_result(&result, &Decryptor::new(&f.params, &f.sk))
        .unwrap();
    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());
    server.shutdown();
}

/// `Introspect` round-trips a live counter snapshot without taking a
/// permit.
#[test]
fn introspect_reports_live_counters() {
    let server = start_server(&ServerConfig::default());
    let mut client = connect(&server);

    let before = client.introspect().unwrap().stats;
    assert_eq!(before.accepted, 0);
    assert_eq!(before.completed, 0);

    let (key_id, matrix_id, cts) = load_small(&mut client, 6);
    client.hmvp(key_id, matrix_id, &cts, None).unwrap();

    let after = client.introspect().unwrap().stats;
    assert_eq!(after.accepted, 1);
    assert_eq!(after.completed, 1);
    assert_eq!(after.faults_injected, 0);
    server.shutdown();
}

/// An injected kernel panic surfaces as a typed `Internal` error frame —
/// the connection and its thread stay alive, and the unwound permit goes
/// back to the gate (`workers = 1`: the second request needs it).
#[test]
fn worker_panic_is_a_typed_internal_error() {
    let f = fixture();
    let server = start_server(&ServerConfig {
        workers: 1,
        faults: Some(Arc::new(FaultInjector::new(
            FaultConfig::parse("worker_panic=1.0").unwrap(),
        ))),
        ..ServerConfig::default()
    });
    let mut client = connect(&server);

    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let matrix = Matrix::random(4, 8, t.value(), &mut rng);
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let cts = hmvp.encrypt_vector(&[2u64; 8], &enc, &mut rng).unwrap();
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = client.load_matrix(&matrix).unwrap();

    for _ in 0..2 {
        let r = client.hmvp(key_id, matrix_id, &cts, None);
        match r {
            Err(ServeError::Internal(msg)) => assert!(msg.contains("injected worker panic")),
            other => panic!("expected typed Internal, got {other:?}"),
        }
    }
    // The connection survived both panics; introspection still answers.
    let snap = client.introspect().unwrap().stats;
    assert_eq!(snap.internal_errors, 2);
    assert!(snap.faults_injected >= 2);

    let stats = server.shutdown();
    assert_eq!(stats.internal_errors, 2);
    assert_eq!(stats.completed, 0);
}

/// A request racing shutdown is answered with a typed `Shutdown` error
/// during the grace window instead of a slammed socket.
#[test]
fn shutdown_answers_late_requests_with_typed_error() {
    // A generous grace window keeps the race deterministic even when the
    // rest of the (parallel) suite is pinning every core.
    let server = start_server(&ServerConfig {
        shutdown_grace: Duration::from_secs(3),
        ..ServerConfig::default()
    });
    let mut client = connect(&server);
    let (key_id, matrix_id, cts) = load_small(&mut client, 8);

    let stats = std::thread::scope(|scope| {
        let shutdown = scope.spawn(move || server.shutdown());
        // The connection thread notices the flag within its 250 ms idle
        // poll, then drains for the 3 s grace; sending at 500 ms lands
        // inside the drain window with wide margin on a loaded machine.
        std::thread::sleep(Duration::from_millis(500));
        let r = client.hmvp(key_id, matrix_id, &cts, None);
        assert!(
            matches!(r, Err(ServeError::Shutdown)),
            "expected typed Shutdown, got {r:?}"
        );
        shutdown.join().unwrap()
    });
    assert_eq!(stats.rejected_shutdown, 1);
}

/// ClusterClient recovers transparently from a mid-session eviction by
/// replaying its stored uploads (idempotent via content addressing).
#[test]
fn retry_client_reuploads_after_eviction() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());
    let mut client = ClusterClient::connect_with(
        server.local_addr().to_string(),
        Arc::clone(&f.params),
        cham_serve::ClientConfig::default(),
        RetryPolicy {
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        },
    )
    .unwrap();

    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let matrix = Matrix::random(4, 8, t.value(), &mut rng);
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));
    let enc = Encryptor::new(&f.params, &f.sk);
    let dec = Decryptor::new(&f.params, &f.sk);
    let cts = hmvp.encrypt_vector(&[5u64; 8], &enc, &mut rng).unwrap();
    let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
    let matrix_id = client.load_matrix(&matrix).unwrap();
    client.hmvp(key_id, matrix_id, &cts, None).unwrap();

    // Evict both entries behind the client's back.
    assert!(server.cache().evict_keys(key_id));
    assert!(server.cache().evict_matrix(matrix_id));

    // The retried request recovers without the caller noticing.
    let result = client.hmvp(key_id, matrix_id, &cts, None).unwrap();
    let got = hmvp.decrypt_result(&result, &dec).unwrap();
    assert_eq!(got, matrix.mul_vector_mod(&[5; 8], t).unwrap());

    let rstats = client.stats();
    assert!(rstats.retries >= 1, "stats: {rstats:?}");
    assert!(rstats.reuploads >= 2, "stats: {rstats:?}");
    assert!(rstats.faults_recovered >= 1, "stats: {rstats:?}");
    server.shutdown();
}

/// Content-addressed dedup: re-uploading identical payloads returns the
/// same ids and does not grow the cache.
#[test]
fn reuploads_dedup_by_content_hash() {
    let f = fixture();
    let server = start_server(&ServerConfig::default());
    let mut a = connect(&server);
    let mut b = connect(&server);
    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let matrix = Matrix::random(4, 8, t.value(), &mut rng);

    let key_a = a.load_keys(&f.gkeys, &f.indices).unwrap();
    let key_b = b.load_keys(&f.gkeys, &f.indices).unwrap();
    assert_eq!(key_a, key_b);
    let m_a = a.load_matrix(&matrix).unwrap();
    let m_b = b.load_matrix(&matrix).unwrap();
    assert_eq!(m_a, m_b);
    assert_eq!(server.cache().lens(), (1, 1));
    server.shutdown();
}
