//! `cham-serve` — the standalone HMVP server binary.
//!
//! ```text
//! cham-serve [--addr HOST:PORT] [--params test|default|large]
//!            [--workers N] [--queue N]
//!            [--key-cache N] [--matrix-cache N]
//!            [--max-frame BYTES] [--faults SPEC] [--stats-every SECS]
//!            [--flight N] [--flight-dump PATH]
//!            [--store-dir PATH] [--store-cap-bytes N]
//!            [--max-pending-uploads N] [--upload-reap-secs N]
//! ```
//!
//! `--store-dir` arms the persistent data plane: encoded matrices spill
//! to a crash-safe segment store there, and a restart against the same
//! directory comes back warm (no re-encode). `--store-cap-bytes` bounds
//! the store's on-disk footprint (LRU-evicted past it; default
//! unbounded). `--max-pending-uploads` caps concurrent chunked-upload
//! assemblies, and `--upload-reap-secs` sets the idle age past which an
//! abandoned assembly may be reclaimed under pressure (reaps show up as
//! `reaped_uploads` in stats and introspection).
//!
//! Prints `listening on <addr>` once ready (scripts wait for that line),
//! then serves until the process is killed. With `--stats-every` it also
//! prints a one-line counter snapshot periodically.
//!
//! `--faults` arms the fault-injection harness with a spec like
//! `seed=42,all=0.05,worker_panic=0.0` (see [`cham_serve::FaultConfig`]);
//! without the flag, the `CHAM_SERVE_FAULTS` environment variable is
//! consulted. Production runs leave both unset: a disabled injector is
//! never constructed and costs nothing.
//!
//! `--flight N` sizes the flight recorder (last N request traces);
//! `--flight-dump PATH` writes its Perfetto JSON there on a caught
//! worker panic and at shutdown. Live inspection needs no flag — point
//! `cham-serve-top` at the server.
//!
//! **Cluster membership.** `--cluster host:port,host:port,...` (or the
//! `CHAM_CLUSTER` environment variable) declares the fleet; this node's
//! slot is the position of `--addr` in that list unless `--shard-index`
//! overrides it. The node then enforces shard ownership: requests for
//! keys outside its ring slice are answered with `WrongShard` carrying
//! `--epoch`, which cluster clients use to refresh their topology.
//! `--vnodes` and `--replication` must match across the fleet — every
//! node hashes the same ring.

use cham_he::params::ChamParams;
use cham_serve::cache::content_hash;
use cham_serve::server::{Server, ServerConfig};
use cham_serve::shard::{Topology, DEFAULT_REPLICATION, DEFAULT_VNODES};
use cham_serve::{FaultConfig, FaultInjector};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    params: String,
    config: ServerConfig,
    stats_every: Option<u64>,
    cluster: Option<Topology>,
    shard_index: Option<u16>,
    node_id: Option<u64>,
    vnodes: u32,
    replication: u16,
    epoch: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        params: "default".into(),
        config: ServerConfig::default(),
        stats_every: None,
        cluster: None,
        shard_index: None,
        node_id: None,
        vnodes: DEFAULT_VNODES,
        replication: DEFAULT_REPLICATION,
        epoch: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--params" => args.params = value("--params")?,
            "--workers" => args.config.workers = parse_num(&value("--workers")?)?,
            "--queue" => args.config.queue_capacity = parse_num(&value("--queue")?)?,
            "--key-cache" => args.config.key_cache = parse_num(&value("--key-cache")?)?,
            "--matrix-cache" => args.config.matrix_cache = parse_num(&value("--matrix-cache")?)?,
            "--max-frame" => args.config.max_frame_bytes = parse_num(&value("--max-frame")?)?,
            "--faults" => {
                let config = FaultConfig::parse(&value("--faults")?)?;
                args.config.faults = Some(Arc::new(FaultInjector::new(config)));
            }
            "--stats-every" => args.stats_every = Some(parse_num(&value("--stats-every")?)? as u64),
            "--flight" => args.config.flight_capacity = parse_num(&value("--flight")?)?,
            "--flight-dump" => {
                args.config.flight_dump_path = Some(value("--flight-dump")?.into());
            }
            "--store-dir" => args.config.store_dir = Some(value("--store-dir")?.into()),
            "--store-cap-bytes" => {
                args.config.store_cap_bytes = parse_num(&value("--store-cap-bytes")?)? as u64;
            }
            "--max-pending-uploads" => {
                args.config.max_pending_uploads = parse_num(&value("--max-pending-uploads")?)?;
            }
            "--upload-reap-secs" => {
                args.config.upload_idle_reap =
                    Duration::from_secs(parse_num(&value("--upload-reap-secs")?)? as u64);
            }
            "--cluster" => {
                args.cluster =
                    Some(Topology::parse(&value("--cluster")?).map_err(|e| e.to_string())?);
            }
            "--shard-index" => {
                args.shard_index = Some(
                    value("--shard-index")?
                        .parse::<u16>()
                        .map_err(|_| "not a shard index".to_string())?,
                );
            }
            "--node-id" => {
                let v = value("--node-id")?;
                let parsed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse::<u64>(), |hex| u64::from_str_radix(hex, 16));
                args.node_id = Some(parsed.map_err(|_| format!("not a node id: {v}"))?);
            }
            "--vnodes" => args.vnodes = parse_num(&value("--vnodes")?)? as u32,
            "--replication" => args.replication = parse_num(&value("--replication")?)? as u16,
            "--epoch" => {
                args.epoch = value("--epoch")?
                    .parse::<u64>()
                    .map_err(|_| "not an epoch".to_string())?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: cham-serve [--addr HOST:PORT] [--params test|default|large] \
                            [--workers N] [--queue N] \
                            [--key-cache N] [--matrix-cache N] [--max-frame BYTES] \
                            [--faults SPEC] [--stats-every SECS] \
                            [--flight N] [--flight-dump PATH] \
                            [--store-dir PATH] [--store-cap-bytes N] \
                            [--max-pending-uploads N] [--upload-reap-secs N] \
                            [--cluster HOST:PORT,...] [--shard-index N] [--node-id N] \
                            [--vnodes N] [--replication N] [--epoch N]"
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

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.config.faults.is_none() {
        args.config.faults = FaultInjector::from_env();
    }
    if let Some(f) = &args.config.faults {
        eprintln!("fault injection ARMED: {:?}", f.config());
    }
    if args.cluster.is_none() {
        args.cluster = match Topology::from_env() {
            Ok(topology) => topology,
            Err(e) => {
                eprintln!("CHAM_CLUSTER: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if let Some(topology) = args.cluster.take() {
        let topology = topology
            .with_vnodes(args.vnodes)
            .with_replication(args.replication)
            .with_epoch(args.epoch);
        let position = args
            .shard_index
            .or_else(|| topology.shard_index_of(&args.addr));
        let Some(index) = position else {
            eprintln!(
                "--addr {} is not in the cluster list; pass --shard-index",
                args.addr
            );
            return ExitCode::FAILURE;
        };
        let Some(spec) = topology.shard_spec(index) else {
            eprintln!(
                "--shard-index {index} out of range for {} nodes",
                topology.len()
            );
            return ExitCode::FAILURE;
        };
        args.config.shard = Some(spec);
        args.config.node_id = args
            .node_id
            .unwrap_or_else(|| content_hash(args.addr.as_bytes()));
        println!(
            "cluster: shard {index}/{} epoch={} node_id={:#018x} vnodes={} replication={}",
            topology.len(),
            args.epoch,
            args.config.node_id,
            args.vnodes,
            args.replication
        );
    } else if let Some(id) = args.node_id {
        args.config.node_id = id;
    }
    let params = match params_by_name(&args.params) {
        Ok(p) => Arc::new(p),
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(&args.addr, params, &args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    if let Some(store) = server.cache().store() {
        let s = store.stats();
        println!(
            "store: dir={} segments={} bytes={} quarantined={}",
            store.dir().display(),
            s.segments,
            s.bytes,
            s.quarantined
        );
    }
    println!(
        "params={} workers={} queue={}",
        args.params, args.config.workers, args.config.queue_capacity
    );

    let every = args.stats_every.map(Duration::from_secs);
    loop {
        std::thread::sleep(every.unwrap_or(Duration::from_secs(3600)));
        if every.is_some() {
            let s = server.stats();
            println!(
                "accepted={} completed={} busy={} timed_out={} failed={} \
                 internal={} peak_queue={} faults_injected={}",
                s.accepted,
                s.completed,
                s.rejected_busy,
                s.timed_out,
                s.failed,
                s.internal_errors,
                s.peak_queue_depth,
                s.faults_injected
            );
        }
    }
}
