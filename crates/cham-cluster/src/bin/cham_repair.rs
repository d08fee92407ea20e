//! `cham-repair` — anti-entropy repair driver for a cham-serve fleet.
//!
//! ```text
//! cham-repair --cluster HOST:PORT,... [--params test|default|large]
//!             [--max-rounds N]
//! ```
//!
//! Runs anti-entropy rounds against the fleet: diff each node's reported
//! segment inventory (`StoreList`) against the ring's replica sets,
//! re-upload each missing matrix body replica→replica over the resumable
//! chunked path, and repeat until a round plans nothing. Prints one line per
//! round and `repair: converged after N round(s)`; exits non-zero when
//! `--max-rounds` passes without convergence (some segment has no live
//! source, or a node keeps dropping transfers).
//!
//! The node list comes from `--cluster` (required), same as
//! `cham-serve`, and the ring shape is the one [`Topology`] builds by
//! default, as on every node. `serve-smoke --cluster` drives the
//! verified load that repair restores.

use cham_cluster::{repair, Topology};
use cham_he::params::ChamParams;
use cham_serve::{parse_count, ClientConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    cluster: Option<Topology>,
    params: String,
    max_rounds: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cluster: None,
        params: "default".into(),
        max_rounds: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cluster" => {
                args.cluster =
                    Some(Topology::parse(&value("--cluster")?).map_err(|e| e.to_string())?);
            }
            "--params" => args.params = value("--params")?,
            "--max-rounds" => args.max_rounds = parse_count(&value("--max-rounds")?)?,
            "--help" | "-h" => {
                return Err(
                    "usage: cham-repair --cluster HOST:PORT,... [--params test|default|large] \
                            [--max-rounds N]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Some(topology) = args.cluster else {
        eprintln!("cham-repair: no fleet (pass --cluster)");
        return ExitCode::FAILURE;
    };
    let params = match ChamParams::by_name(&args.params) {
        Ok(p) => Arc::new(p),
        Err(e) => {
            eprintln!("--params {}: {e}", args.params);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "cham-repair: {} node(s), replication {}, params {}",
        topology.len(),
        topology.ring().replication(),
        args.params,
    );
    run_repair(&topology, &params, args.max_rounds)
}
