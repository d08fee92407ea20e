//! `cham-repair` — anti-entropy repair driver for a cham-serve fleet.
//!
//! ```text
//! cham-repair [--cluster HOST:PORT,...] [--params test|default|large]
//!             [--vnodes N] [--replication N] [--epoch N]
//!             [--max-rounds N]
//!             [--load] [--rows N] [--cols N] [--requests N] [--seed N]
//! ```
//!
//! Default mode runs anti-entropy rounds against the fleet: diff each
//! node's reported segment inventory (`StoreList`) against
//! the ring's replica sets, stream missing segments replica→replica
//! over the resumable chunked path, and repeat until a round plans
//! nothing. Prints one line per round and `repair: converged after N
//! round(s)`; exits non-zero when `--max-rounds` passes without
//! convergence (some segment has no live source, or a node keeps
//! dropping transfers).
//!
//! `--load` instead drives a verified workload through a
//! [`ClusterClient`]: it uploads Galois keys and a seeded random
//! matrix sharded into row bands, then serves `--requests` HMVPs,
//! decrypting each result and checking it against the plaintext
//! product. Because everything is generated from `--seed`, re-running
//! the same load against a partially-healed fleet uploads the *same*
//! content ids — survivors skip every chunk they already hold, and a
//! node that rejoined empty is backfilled by the next repair pass
//! rather than by the client.
//!
//! The node list comes from `--cluster` or the `CHAM_CLUSTER`
//! environment variable, same as `cham-serve`.

use cham_cluster::{repair, ClusterClient, Topology};
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::params::ChamParams;
use cham_serve::shard::{DEFAULT_REPLICATION, DEFAULT_VNODES};
use cham_serve::{ClientConfig, RetryPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    cluster: Option<String>,
    params: String,
    vnodes: u32,
    replication: u16,
    epoch: u64,
    max_rounds: usize,
    load: bool,
    rows: usize,
    cols: usize,
    requests: usize,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cluster: None,
        params: "default".into(),
        vnodes: DEFAULT_VNODES,
        replication: DEFAULT_REPLICATION,
        epoch: 0,
        max_rounds: 8,
        load: false,
        rows: 512,
        cols: 256,
        requests: 4,
        seed: 0x4E7A,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cluster" => args.cluster = Some(value("--cluster")?),
            "--params" => args.params = value("--params")?,
            "--vnodes" => args.vnodes = parse_num(&value("--vnodes")?)? as u32,
            "--replication" => args.replication = parse_num(&value("--replication")?)? as u16,
            "--epoch" => {
                args.epoch = value("--epoch")?
                    .parse::<u64>()
                    .map_err(|_| "not an epoch".to_string())?;
            }
            "--max-rounds" => args.max_rounds = parse_num(&value("--max-rounds")?)?,
            "--load" => args.load = true,
            "--rows" => args.rows = parse_num(&value("--rows")?)?,
            "--cols" => args.cols = parse_num(&value("--cols")?)?,
            "--requests" => args.requests = parse_num(&value("--requests")?)?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse::<u64>()
                    .map_err(|_| "not a seed".to_string())?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: cham-repair [--cluster HOST:PORT,...] [--params test|default|large] \
                            [--vnodes N] [--replication N] [--epoch N] [--max-rounds N] \
                            [--load] [--rows N] [--cols N] [--requests N] [--seed N]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("not a number: {s}"))
        .and_then(|n| {
            if n == 0 {
                Err(format!("must be positive: {s}"))
            } else {
                Ok(n)
            }
        })
}

fn params_by_name(name: &str) -> Result<ChamParams, String> {
    match name {
        "test" => ChamParams::insecure_test_default().map_err(|e| e.to_string()),
        "default" => ChamParams::cham_default().map_err(|e| e.to_string()),
        "large" => ChamParams::cham_large().map_err(|e| e.to_string()),
        other => Err(format!(
            "unknown params preset {other} (test|default|large)"
        )),
    }
}

fn run_repair(topology: &Topology, params: &Arc<ChamParams>, max_rounds: usize) -> ExitCode {
    let config = ClientConfig::default();
    let start = Instant::now();
    let mut repaired = 0u64;
    let mut chunks = 0u64;
    for round in 1..=max_rounds {
        let (plan, report) = repair::repair_round(topology, params, &config);
        if plan.is_converged() {
            // Converged: report what every node holds so operators can
            // eyeball the replica shares without a second tool.
            let inventories = repair::fetch_inventories(topology, params, &config);
            for (slot, inv) in inventories.iter().enumerate() {
                match inv {
                    Some(ids) => println!(
                        "inventory: node {slot} ({}) holds {} segment(s)",
                        topology.addr(slot as u16),
                        ids.len()
                    ),
                    None => println!(
                        "inventory: node {slot} ({}) unreachable",
                        topology.addr(slot as u16)
                    ),
                }
            }
            println!(
                "repair: converged after {} round(s) in {:.3} s \
                 ({repaired} segment(s), {chunks} chunk(s) moved)",
                round - 1,
                start.elapsed().as_secs_f64(),
            );
            return ExitCode::SUCCESS;
        }
        repaired += report.repaired_segments;
        chunks += report.chunks_sent;
        println!(
            "round {round}: planned {} transfer(s), repaired {}, chunks {} (+{} resumed), \
             failed {}, unsourced {}",
            plan.transfers.len(),
            report.repaired_segments,
            report.chunks_sent,
            report.chunks_skipped,
            report.failed_transfers,
            report.unsourced,
        );
    }
    eprintln!("repair: NOT converged after {max_rounds} round(s)");
    ExitCode::FAILURE
}

fn run_load(topology: &Topology, params: &Arc<ChamParams>, args: &Args) -> ExitCode {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let sk = SecretKey::generate(params, &mut rng);
    let enc = Encryptor::new(params, &sk);
    let dec = Decryptor::new(params, &sk);
    let max_log = params.max_pack_log();
    let gkeys = match GaloisKeys::generate_for_packing(&sk, max_log, &mut rng) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cham-repair: galois keys: {e}");
            return ExitCode::FAILURE;
        }
    };
    let indices: Vec<usize> = (1..=max_log).map(|j| (1usize << j) + 1).collect();
    let hmvp = Hmvp::from_arc(Arc::clone(params));
    let t = params.plain_modulus();
    let matrix = Matrix::random(args.rows, args.cols, t.value(), &mut rng);

    let policy = RetryPolicy {
        max_attempts: 20,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(100),
        jitter_seed: args.seed,
        total_deadline: Some(Duration::from_secs(120)),
        ..RetryPolicy::default()
    };
    let mut client = ClusterClient::with_config(
        topology.clone(),
        Arc::clone(params),
        ClientConfig::default(),
        policy,
    );
    let key_id = match client.load_keys(&gkeys, &indices) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("cham-repair: load keys: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sharded = match client.load_matrix_sharded(&matrix, params.degree()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cham-repair: load matrix: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "load: key {key_id:#018x}, {}x{} matrix in {} band(s)",
        args.rows,
        args.cols,
        sharded.bands.len(),
    );

    for i in 0..args.requests {
        let v: Vec<u64> = (0..args.cols)
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let cts = match hmvp.encrypt_vector(&v, &enc, &mut rng) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cham-repair: encrypt: {e}");
                return ExitCode::FAILURE;
            }
        };
        let result = match client.hmvp_sharded(key_id, &sharded, &cts, None) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cham-repair: request {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let got = match hmvp.decrypt_result(&result, &dec) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("cham-repair: decrypt {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let want = match matrix.mul_vector_mod(&v, t) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("cham-repair: reference {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if got != want {
            eprintln!("cham-repair: request {i} decrypted to a WRONG product");
            return ExitCode::FAILURE;
        }
    }
    let stats = client.stats();
    println!(
        "load: {} request(s) verified (failovers {}, retries {}, reuploads {})",
        args.requests, stats.failovers, stats.retries, stats.reuploads,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match args
        .cluster
        .clone()
        .or_else(|| std::env::var("CHAM_CLUSTER").ok())
    {
        Some(s) => s,
        None => {
            eprintln!("cham-repair: no fleet (pass --cluster or set CHAM_CLUSTER)");
            return ExitCode::FAILURE;
        }
    };
    let topology = match Topology::parse(&spec) {
        Ok(t) => t
            .with_vnodes(args.vnodes)
            .with_replication(args.replication)
            .with_epoch(args.epoch),
        Err(e) => {
            eprintln!("cham-repair: bad cluster list: {e}");
            return ExitCode::FAILURE;
        }
    };
    let params = match params_by_name(&args.params) {
        Ok(p) => Arc::new(p),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cham-repair: {} node(s), replication {}, vnodes {}, epoch {}, params {}",
        topology.len(),
        topology.ring().replication(),
        args.vnodes,
        args.epoch,
        args.params,
    );
    if args.load {
        run_load(&topology, &params, &args)
    } else {
        run_repair(&topology, &params, args.max_rounds)
    }
}
