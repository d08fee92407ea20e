//! Oversubscription stress test: a thread budget > serve workers >
//! physical cores, driven by more client connections than either.
//!
//! Each running request fans out under a cap of budget / workers = 2
//! threads here, so this configuration must (a) finish without deadlock
//! while kernel threads outnumber cores, (b) deliver every reply
//! bit-correctly, and (c) keep the process's OS thread count bounded by
//! configuration, not by request volume.
//!
//! Lives in its own integration-test binary (one process) because it
//! pins the process thread budget with `configure_global`, which is
//! first-configuration-wins for the process lifetime.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::server::{Server, ServerConfig};
use cham_serve::ServeClient;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const POOL_THREADS: usize = 8;
const WORKERS: usize = 4;
const CLIENTS: u64 = 6;
const PER_CLIENT: usize = 4;

/// Current OS thread count of this process (`Threads:` in
/// `/proc/self/status`); `None` off Linux or if procfs is unreadable.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn oversubscribed_pool_serves_every_request_with_bounded_threads() {
    assert!(
        cham_pool::configure_global(POOL_THREADS),
        "the thread budget must not be fixed before this test"
    );
    let kernel_threads = POOL_THREADS / WORKERS;

    let params = Arc::new(ChamParams::insecure_test_default().unwrap());
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5CA1E);
    let sk = SecretKey::generate(&params, &mut rng);
    let max_log = params.max_pack_log();
    let gkeys = GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).unwrap();
    let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();

    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&params),
        &ServerConfig {
            workers: WORKERS,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let t = params.plain_modulus();
    let matrix = Matrix::random(48, 300, t.value(), &mut rng);
    let mut main_client = ServeClient::connect(server.local_addr(), Arc::clone(&params)).unwrap();
    let key_id = main_client.load_keys(&gkeys, &indices).unwrap();
    let matrix_id = main_client.load_matrix(&matrix).unwrap();

    // Configuration-derived ceiling: main + test harness, CLIENTS client
    // threads, accept + one connection thread per client (+1 for
    // main_client; they run the kernels themselves, WORKERS at a time),
    // and what each running kernel spawns beside its own thread — plus
    // slack for runtime helpers. The point is that the bound does NOT
    // scale with the CLIENTS × PER_CLIENT request volume.
    let thread_budget =
        4 + CLIENTS as usize + (CLIENTS as usize + 2) + WORKERS * (kernel_threads - 1);
    let peak = AtomicUsize::new(os_thread_count().unwrap_or(0));

    let hmvp = Hmvp::from_arc(Arc::clone(&params));
    std::thread::scope(|scope| {
        for client_id in 0..CLIENTS {
            let matrix = &matrix;
            let hmvp = &hmvp;
            let server = &server;
            let params = &params;
            let sk = &sk;
            let peak = &peak;
            scope.spawn(move || {
                let mut client =
                    ServeClient::connect(server.local_addr(), Arc::clone(params)).unwrap();
                let enc = Encryptor::new(params, sk);
                let dec = Decryptor::new(params, sk);
                let mut rng = rand::rngs::StdRng::seed_from_u64(7000 + client_id);
                for _ in 0..PER_CLIENT {
                    let v: Vec<u64> = (0..matrix.cols())
                        .map(|_| rng.gen_range(0..t.value()))
                        .collect();
                    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
                    let result = client.hmvp(key_id, matrix_id, &cts, None).unwrap();
                    if let Some(n) = os_thread_count() {
                        peak.fetch_max(n, Ordering::Relaxed);
                    }
                    let got = hmvp.decrypt_result(&result, &dec).unwrap();
                    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());
                }
            });
        }
    });

    // No lost replies: every accepted request completed, none timed out,
    // bounced, or failed — and the scope join above already proves no
    // deadlock (a wedged fan-out would hang the test, not fail an assert).
    let stats = server.shutdown();
    let total = CLIENTS * PER_CLIENT as u64;
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.rejected_busy, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.failed, 0);

    let peak = peak.load(Ordering::Relaxed);
    if peak > 0 {
        assert!(
            peak <= thread_budget,
            "peak OS thread count {peak} exceeds configuration budget {thread_budget}"
        );
    }

    // At a cap of 2 the kernels really fanned out: threads were spawned.
    let stats = cham_pool::global_stats().expect("the budget was configured");
    assert_eq!(stats.threads, POOL_THREADS);
    assert!(stats.tasks > 0, "no kernel ever fanned out");
}
