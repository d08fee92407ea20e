//! `cham-serve` — the standalone HMVP server binary.
//!
//! ```text
//! cham-serve [--addr HOST:PORT] [--params test|default|large]
//!            [--workers N] [--queue N] [--matrix-cache N]
//!            [--faults SPEC] [--store-dir PATH] [--store-cap-bytes N]
//!            [--cluster HOST:PORT,...] [--shard-index N] [--epoch N]
//! ```
//!
//! `--store-dir` arms the persistent data plane: encoded matrices spill
//! to a crash-safe segment store there, and a restart against the same
//! directory comes back warm (no re-encode). `--store-cap-bytes` bounds
//! the store's on-disk footprint (LRU-evicted past it; default
//! unbounded).
//!
//! Prints `listening on <addr>` once ready (scripts wait for that line),
//! then serves until the process is killed. Point `cham-serve-top` at
//! the server to watch its counters and phase histograms live, or to
//! fetch its flight recorder (`--dump`).
//!
//! `--faults` arms the fault-injection harness with a spec like
//! `seed=42,all=0.05,worker_panic=0.0` (see [`cham_serve::FaultConfig`]).
//! It is the only way to arm it, so an inherited environment cannot:
//! without the flag the injector is never constructed and costs nothing.
//!
//! **Cluster membership.** `--cluster host:port,host:port,...` declares
//! the fleet; this node's slot is the position of `--addr` in that list
//! unless `--shard-index` overrides it. It is the only way to make a
//! node a shard, so an inherited environment cannot turn a standalone
//! server into an enforcing one; `--shard-index` and `--epoch` without
//! it are refused. The node then enforces shard ownership: requests for
//! keys outside its ring slice are answered with `WrongShard` carrying
//! `--epoch`, which cluster clients use to refresh their topology. The
//! ring shape is the one [`Topology`] builds by default, so every node
//! and client of a fleet hashes the same ring.

use cham_he::params::ChamParams;
use cham_serve::cache::content_hash;
use cham_serve::server::{Server, ServerConfig};
use cham_serve::shard::Topology;
use cham_serve::{parse_count, FaultConfig, FaultInjector};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct Args {
    addr: String,
    params: String,
    config: ServerConfig,
    cluster: Option<Topology>,
    shard_index: Option<u16>,
    epoch: Option<u64>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        params: "default".into(),
        config: ServerConfig::default(),
        cluster: None,
        shard_index: None,
        epoch: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--params" => args.params = value("--params")?,
            // The Hello advertises the permit count as a u16.
            "--workers" => {
                args.config.workers = usize::from(parse_count::<u16>(&value("--workers")?)?);
            }
            "--queue" => args.config.queue_capacity = parse_count(&value("--queue")?)?,
            "--matrix-cache" => args.config.matrix_cache = parse_count(&value("--matrix-cache")?)?,
            "--faults" => {
                let config = FaultConfig::parse(&value("--faults")?)?;
                args.config.faults = Some(Arc::new(FaultInjector::new(config)));
            }
            "--store-dir" => args.config.store_dir = Some(value("--store-dir")?.into()),
            "--store-cap-bytes" => {
                args.config.store_cap_bytes = parse_count(&value("--store-cap-bytes")?)?;
            }
            "--cluster" => {
                args.cluster =
                    Some(Topology::parse(&value("--cluster")?).map_err(|e| e.to_string())?);
            }
            "--shard-index" => {
                let v = value("--shard-index")?;
                args.shard_index = Some(
                    v.parse::<u16>()
                        .map_err(|_| format!("not a shard index: {v}"))?,
                );
            }
            "--epoch" => {
                let v = value("--epoch")?;
                args.epoch = Some(v.parse::<u64>().map_err(|_| format!("not an epoch: {v}"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: cham-serve [--addr HOST:PORT] [--params test|default|large] \
                            [--workers N] [--queue N] [--matrix-cache N] [--faults SPEC] \
                            [--store-dir PATH] [--store-cap-bytes N] \
                            [--cluster HOST:PORT,...] [--shard-index N] [--epoch N]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.cluster.is_none() {
        if args.shard_index.is_some() {
            return Err("--shard-index needs --cluster".into());
        }
        if args.epoch.is_some() {
            return Err("--epoch needs --cluster".into());
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(f) = &args.config.faults {
        eprintln!("fault injection ARMED: {:?}", f.config());
    }
    if let Some(topology) = args.cluster.take() {
        let epoch = args.epoch.unwrap_or(0);
        let topology = topology.with_epoch(epoch);
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
        args.config.node_id = content_hash(args.addr.as_bytes());
        println!(
            "cluster: shard {index}/{} epoch={epoch} node_id={:#018x}",
            topology.len(),
            args.config.node_id,
        );
    }
    let params = match ChamParams::by_name(&args.params) {
        Ok(p) => Arc::new(p),
        Err(e) => {
            eprintln!("--params {}: {e}", args.params);
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
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn shard_flags_without_cluster_are_refused() {
        let err = parse(&["--shard-index", "1"]).unwrap_err();
        assert!(err.contains("--shard-index"), "{err}");
        let err = parse(&["--epoch", "3"]).unwrap_err();
        assert!(err.contains("--epoch"), "{err}");
        let args = parse(&[
            "--cluster",
            "127.0.0.1:1,127.0.0.1:2",
            "--shard-index",
            "1",
            "--epoch",
            "3",
        ])
        .unwrap();
        assert_eq!((args.shard_index, args.epoch), (Some(1), Some(3)));
    }

    #[test]
    fn workers_must_fit_the_hello_word() {
        assert_eq!(
            parse(&["--workers", "65535"]).unwrap().config.workers,
            65535
        );
        let err = parse(&["--workers", "65536"]).unwrap_err();
        assert!(err.contains("65536"), "{err}");
        assert!(parse(&["--workers", "0"]).is_err());
    }
}
