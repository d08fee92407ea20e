//! `serve-smoke` — end-to-end client check against a running server.
//!
//! ```text
//! serve-smoke [--addr HOST:PORT] [--params test|default|large]
//!             [--rows N] [--cols N] [--requests N]
//! ```
//!
//! Generates a fresh secret key, uploads Galois keys and a random matrix,
//! issues `--requests` HMVPs over the wire, and verifies every decrypted
//! result against the plain `Matrix::mul_vector_mod`. Exits 0 and prints
//! `smoke ok …` on success; exits 1 on any mismatch or transport error.
//! CI runs this against the `cham-serve` binary over loopback.
//!
//! The smoke speaks through [`ClusterClient`] (one server is a one-slot
//! topology), so it doubles as an integration check of the resilient
//! path: against a fault-armed server (`cham-serve --faults …`) it still
//! must verify every result, and it reports how many retries/reuploads
//! that took.

use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::{parse_count, ClientConfig, ClusterClient, RetryPolicy};
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    addr: String,
    params: String,
    rows: usize,
    cols: usize,
    requests: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
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
            "--addr" => args.addr = value("--addr")?,
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
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A7);

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

    let mut client = ClusterClient::connect_with(
        args.addr.clone(),
        Arc::clone(&params),
        ClientConfig::default(),
        RetryPolicy::default(),
    )
    .map_err(|e| e.to_string())?;
    let info = client
        .server_info(0)
        .ok_or("no server info after connect")?;
    let key_id = client
        .load_keys(&gkeys, &indices)
        .map_err(|e| e.to_string())?;
    let matrix_id = client.load_matrix(&matrix).map_err(|e| e.to_string())?;

    for i in 0..args.requests {
        let v: Vec<u64> = (0..args.cols)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let cts = hmvp
            .encrypt_vector(&v, &enc, &mut rng)
            .map_err(|e| e.to_string())?;
        let result = client
            .hmvp(key_id, matrix_id, &cts, None)
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
        "smoke ok: {} requests, {}x{} matrix, server workers={} queue={} \
         (retries={} reconnects={} reuploads={} faults_recovered={})",
        args.requests,
        args.rows,
        args.cols,
        info.workers,
        info.queue_capacity,
        rs.retries,
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
