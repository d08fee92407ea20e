//! `serve-smoke` — end-to-end verified load against a running server or
//! fleet.
//!
//! ```text
//! serve-smoke [--cluster HOST:PORT,...] [--params test|default|large]
//!             [--rows N] [--cols N] [--requests N]
//! ```
//!
//! Generates a secret key, uploads Galois keys to every node and a
//! random matrix sharded into row bands of `N` rows, issues `--requests`
//! HMVPs over the wire, and verifies every decrypted result against the
//! plain `Matrix::mul_vector_mod`. Exits 0 and prints `smoke ok …` on
//! success; exits 1 on any mismatch or transport error. A single server
//! is a one-entry `--cluster` list (the default is `127.0.0.1:7878`).
//!
//! Everything is generated from one fixed seed, so re-running the smoke
//! against a partially healed fleet uploads the *same* content ids:
//! survivors skip every chunk they already hold, and a node that
//! rejoined empty is backfilled by `cham-repair` rather than by the
//! client.
//!
//! The smoke speaks through [`ClusterClient`] under a retry policy whose
//! 120 s budget bounds a wedged fleet, so it doubles as an integration
//! check of the resilient path: against a fault-armed server
//! (`cham-serve --faults …`) or a fleet missing a node it still must
//! verify every result, and it reports what recovery that took.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::shard::Topology;
use cham_serve::{parse_count, ClientConfig, ClusterClient, RetryPolicy};
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Seeds the key, the matrix, the vectors and the retry jitter.
const SEED: u64 = 0xC4A7;

struct Args {
    cluster: Topology,
    params: String,
    rows: usize,
    cols: usize,
    requests: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cluster: Topology::parse("127.0.0.1:7878").map_err(|e| e.to_string())?,
        params: "default".into(),
        rows: 16,
        cols: 48,
        requests: 4,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cluster" => {
                args.cluster = Topology::parse(&value("--cluster")?).map_err(|e| e.to_string())?;
            }
            "--params" => args.params = value("--params")?,
            "--rows" => args.rows = parse_count(&value("--rows")?)?,
            "--cols" => args.cols = parse_count(&value("--cols")?)?,
            "--requests" => args.requests = parse_count(&value("--requests")?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let params = Arc::new(ChamParams::by_name(&args.params).map_err(|e| e.to_string())?);
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);

    let sk = SecretKey::generate(&params, &mut rng);
    let enc = Encryptor::new(&params, &sk);
    let dec = Decryptor::new(&params, &sk);
    let max_log = params.max_pack_log();
    let gkeys =
        GaloisKeys::generate_for_packing(&sk, max_log, &mut rng).map_err(|e| e.to_string())?;
    let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();
    let hmvp = Hmvp::from_arc(Arc::clone(&params));
    let t = params.plain_modulus();
    let matrix = Matrix::random(args.rows, args.cols, t.value(), &mut rng);

    let policy = RetryPolicy {
        max_attempts: 20,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(100),
        jitter_seed: SEED,
        total_deadline: Some(Duration::from_secs(120)),
    };
    let mut client = ClusterClient::with_config(
        args.cluster.clone(),
        Arc::clone(&params),
        ClientConfig::default(),
        policy,
    );
    let key_id = client
        .load_keys(&gkeys, &indices)
        .map_err(|e| e.to_string())?;
    let sharded = client
        .load_matrix_sharded(&matrix, params.degree())
        .map_err(|e| e.to_string())?;

    for i in 0..args.requests {
        let v: Vec<u64> = (0..args.cols)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let cts = hmvp
            .encrypt_vector(&v, &enc, &mut rng)
            .map_err(|e| e.to_string())?;
        let result = client
            .hmvp_sharded(key_id, &sharded, &cts, None)
            .map_err(|e| e.to_string())?;
        let got = hmvp
            .decrypt_result(&result, &dec)
            .map_err(|e| e.to_string())?;
        let want = matrix.mul_vector_mod(&v, t).map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!("request {i}: decrypted result mismatch"));
        }
    }
    let rs = client.stats();
    println!(
        "smoke ok: {} requests, {}x{} matrix in {} band(s) over {} node(s) \
         (retries={} failovers={} reconnects={} reuploads={} faults_recovered={})",
        args.requests,
        args.rows,
        args.cols,
        sharded.bands.len(),
        args.cluster.len(),
        rs.retries,
        rs.failovers,
        rs.reconnects,
        rs.reuploads,
        rs.faults_recovered
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("smoke FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}
