//! Chaos soak: a real server with every fault site armed, hammered by
//! concurrent [`ClusterClient`]s (each over a one-slot topology).
//!
//! The invariant under test is the serving layer's whole robustness
//! claim: **under seeded fault pressure at every layer, every request
//! terminates** — in a cryptographically *verified* result (decrypted
//! and checked against the plain reference product) or a typed error.
//! No hangs, no silently wrong answers, no leaked threads.
//!
//! The fault schedule is seeded ([`FaultConfig::uniform`]) so a failure
//! reproduces by seed; the test runs two fixed seeds, and CI runs the
//! whole file in both debug and release (the `chaos` job), which varies
//! the timing envelope around the same draw sequences.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::server::{Server, ServerConfig};
use cham_serve::{ClientConfig, ClusterClient, FaultConfig, FaultInjector, RetryPolicy};
use cham_telemetry::flight::FlightEventKind;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const CLIENT_THREADS: u64 = 4;
const REQUESTS_PER_CLIENT: usize = 6;

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
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A0);
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

/// Live thread count of this process (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// One full soak at `seed`: returns (server faults injected, client
/// retries, client reuploads, client faults recovered).
fn soak(seed: u64) -> (u64, u64, u64, u64) {
    let f = fixture();
    let faults = Arc::new(FaultInjector::new(FaultConfig {
        // Wire and scheduler faults at visible pressure; worker panics a
        // little rarer (each one burns a whole batch for every rider).
        delay_max_ms: 5,
        worker_panic: 0.05,
        ..FaultConfig::uniform(seed, 0.08)
    }));
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&f.params),
        &ServerConfig {
            workers: 2,
            queue_capacity: 16,
            faults: Some(Arc::clone(&faults)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // Every retryable fault must be absorbed within the policy: with
    // per-attempt failure probability well under 1/2, 40 attempts make a
    // request failing the whole budget a ~2^-40 event — a failure here
    // means recovery is broken, not that the dice were unlucky.
    let policy = RetryPolicy {
        max_attempts: 40,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        jitter_seed: seed,
        total_deadline: Some(Duration::from_secs(120)),
        ..RetryPolicy::default()
    };

    let t = f.params.plain_modulus();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let matrix = Arc::new(Matrix::random(8, 32, t.value(), &mut rng));
    let hmvp = Hmvp::from_arc(Arc::clone(&f.params));

    let totals = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for thread_id in 0..CLIENT_THREADS {
            let addr = addr.clone();
            let matrix = Arc::clone(&matrix);
            let hmvp = &hmvp;
            let mut policy = policy;
            policy.jitter_seed = seed ^ (thread_id + 1);
            handles.push(scope.spawn(move || {
                let mut client = ClusterClient::connect_with(
                    addr,
                    Arc::clone(&f.params),
                    ClientConfig::default(),
                    policy,
                )
                .unwrap();
                let enc = Encryptor::new(&f.params, &f.sk);
                let dec = Decryptor::new(&f.params, &f.sk);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (0x1000 + thread_id));
                let key_id = client.load_keys(&f.gkeys, &f.indices).unwrap();
                let matrix_id = client.load_matrix(&matrix).unwrap();
                for _ in 0..REQUESTS_PER_CLIENT {
                    let v: Vec<u64> = (0..matrix.cols())
                        .map(|_| rng.gen_range(0..t.value()))
                        .collect();
                    let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
                    // The request must terminate — and when it succeeds,
                    // the result must decrypt to the reference product
                    // (faults may delay or retry it, never corrupt it).
                    let result = client.hmvp(key_id, matrix_id, &cts, None).unwrap();
                    let got = hmvp.decrypt_result(&result, &dec).unwrap();
                    assert_eq!(got, matrix.mul_vector_mod(&v, t).unwrap());
                }
                client.stats()
            }));
        }
        let mut retries = 0u64;
        let mut reuploads = 0u64;
        let mut recovered = 0u64;
        for h in handles {
            let s = h.join().expect("chaos client thread must not die");
            retries += s.retries;
            reuploads += s.reuploads;
            recovered += s.faults_recovered;
        }
        (retries, reuploads, recovered)
    });

    // The flight recorder must have seen the chaos: fault events from
    // the injection sites, and request traces whose phase spans still
    // tile the request — monotonic and non-overlapping — no matter how
    // the faults perturbed scheduling.
    let flight = server.flight().snapshot();
    let fault_events = flight
        .events
        .iter()
        .filter(|e| matches!(e.kind, FlightEventKind::Fault))
        .count();
    assert!(
        fault_events > 0,
        "faults were injected but none reached the flight recorder"
    );
    assert!(!flight.traces.is_empty(), "no request traces recorded");
    for trace in &flight.traces {
        assert_ne!(trace.trace_id.as_u64(), 0);
        for w in trace.phases.windows(2) {
            assert_eq!(
                w[0].start_ns + w[0].dur_ns,
                w[1].start_ns,
                "trace {} phases must tile without gaps or overlap",
                trace.trace_id
            );
        }
    }

    let stats = server.shutdown();
    let total = CLIENT_THREADS * REQUESTS_PER_CLIENT as u64;
    // Every accepted request was accounted for: completed, failed,
    // timed out, or answered Internal — nothing vanished into a queue.
    assert!(
        stats.completed >= total,
        "completed {} of at least {total} (some retried requests recompute)",
        stats.completed
    );
    assert_eq!(
        faults.injected_total(),
        stats.faults_injected,
        "server counter and injector disagree: {:?}",
        faults.injected_by_kind()
    );
    (stats.faults_injected, totals.0, totals.1, totals.2)
}

fn run_seed(seed: u64) {
    // Serialize the soaks: the thread-leak accounting below reads the
    // process-wide thread count, which a concurrently running soak would
    // perturb.
    static SOAK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = SOAK_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let f = fixture();
    // Warm up process-wide lazy state (kernel thread pool, telemetry
    // registries) with a fault-free round so the leak baseline is honest.
    {
        let server = Server::start(
            "127.0.0.1:0",
            Arc::clone(&f.params),
            &ServerConfig::default(),
        )
        .unwrap();
        let mut client =
            ClusterClient::connect(server.local_addr().to_string(), Arc::clone(&f.params)).unwrap();
        client.ping(0).unwrap();
        server.shutdown();
    }
    let baseline = thread_count();

    let (injected, retries, reuploads, recovered) = soak(seed);

    // The soak only proves something if faults actually fired and the
    // clients actually had to recover.
    assert!(injected > 0, "seed {seed}: no faults injected");
    assert!(retries > 0, "seed {seed}: no client retries");
    assert!(
        recovered > 0,
        "seed {seed}: no faults recovered client-side"
    );
    // reuploads only happen when ForcedEviction hit an Hmvp request;
    // it fires with high probability but is not guaranteed per seed —
    // record it in the assert message rather than requiring it.
    let _ = reuploads;

    // Every server/client thread was joined: the process is back to its
    // pre-soak thread population (modest slack for the OS reaping
    // already-exited threads asynchronously).
    if let (Some(before), Some(after)) = (baseline, thread_count()) {
        assert!(
            after <= before + 2,
            "thread leak: {before} before soak, {after} after"
        );
    }
}

#[test]
fn chaos_soak_seed_a() {
    run_seed(0x00C0_FFEE);
}

#[test]
fn chaos_soak_seed_b() {
    run_seed(42);
}
