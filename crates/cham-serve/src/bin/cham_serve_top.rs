//! `cham-serve-top` — live text introspection of a running cham-serve.
//!
//! ```text
//! cham-serve-top --addr HOST:PORT [--params test|default|large]
//!                [--interval SECS] [--count N] [--dump PATH] [--json]
//! ```
//!
//! Polls the server's `Introspect` op and renders the snapshot as a
//! `top`-style text report: live counters, queue/pool occupancy, and the
//! per-phase latency table (p50/p99/p999 per kernel phase). With
//! `--count N` it prints N reports and exits (default: forever); with
//! `--json` it prints the raw `cham-introspect/v1` JSON instead of the
//! table (one document per poll, suitable for piping into `jq`).
//!
//! `--dump PATH` additionally requests a `FlightDump`, writes the
//! Perfetto-loadable JSON to PATH, and round-trips it through the trace
//! reader to prove the artifact is well-formed before exiting.

use cham_he::params::ChamParams;
use cham_serve::stats::{IntrospectSnapshot, PHASE_TOTAL};
use cham_serve::{ClientConfig, ServeClient};
use cham_telemetry::fmt::eng_nanos;
use cham_telemetry::span::phase;
use cham_telemetry::trace::read_chrome_trace;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    params: String,
    interval: Duration,
    count: Option<u64>,
    dump: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        params: "default".into(),
        interval: Duration::from_secs(2),
        count: None,
        dump: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--params" => args.params = value("--params")?,
            "--interval" => {
                args.interval = Duration::from_secs_f64(
                    value("--interval")?
                        .parse::<f64>()
                        .map_err(|_| "bad --interval".to_string())?,
                );
            }
            "--count" => {
                args.count = Some(
                    value("--count")?
                        .parse::<u64>()
                        .map_err(|_| "bad --count".to_string())?,
                );
            }
            "--dump" => args.dump = Some(value("--dump")?),
            "--json" => args.json = true,
            "--help" | "-h" => {
                return Err(
                    "usage: cham-serve-top --addr HOST:PORT [--params test|default|large] \
                            [--interval SECS] [--count N] [--dump PATH] [--json]"
                        .into(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".into());
    }
    Ok(args)
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

fn render(snap: &IntrospectSnapshot) {
    let s = &snap.stats;
    if snap.shard_count > 0 {
        println!(
            "node      shard {}/{} node_id={:#018x}",
            snap.shard_index, snap.shard_count, snap.node_id
        );
    } else if snap.node_id != 0 {
        println!("node      standalone node_id={:#018x}", snap.node_id);
    }
    println!(
        "requests  accepted={} completed={} busy={} timed_out={} failed={} internal={}",
        s.accepted, s.completed, s.rejected_busy, s.timed_out, s.failed, s.internal_errors
    );
    println!(
        "occupancy queue={}/{} peak_queue={} workers={} faults_injected={} pool_threads={} pool_tasks={} pool_deque_steals={}",
        snap.queue_depth,
        snap.queue_capacity,
        s.peak_queue_depth,
        snap.workers,
        s.faults_injected,
        snap.pool_threads,
        snap.pool_tasks,
        snap.pool_steals
    );
    println!(
        "caches    keys={} matrices={}   flight traces={} dropped={}",
        snap.key_cache_len, snap.matrix_cache_len, snap.flight_traces, snap.flight_dropped
    );
    let backend =
        cham_math::Backend::from_code(snap.simd_backend as u8).map_or("unknown", |b| b.name());
    let total = snap.simd_vector_elems + snap.simd_tail_elems;
    let pct = if total > 0 {
        100.0 * snap.simd_vector_elems as f64 / total as f64
    } else {
        0.0
    };
    println!(
        "simd      backend={backend} lanes={} vector_elems={} tail_elems={} ({pct:.1}% vectorized)",
        snap.simd_lanes, snap.simd_vector_elems, snap.simd_tail_elems
    );
    if snap.phases.is_empty() {
        println!("phases    (no completed requests yet)");
    } else {
        println!(
            "{:<15} {:>9} {:>10} {:>10} {:>10} {:>10}",
            "phase", "count", "p50", "p99", "p999", "max"
        );
        for p in &snap.phases {
            println!(
                "{:<15} {:>9} {:>10} {:>10} {:>10} {:>10}",
                p.name,
                p.count,
                eng_nanos(p.p50_ns),
                eng_nanos(p.p99_ns),
                eng_nanos(p.p999_ns),
                eng_nanos(p.max_ns)
            );
        }
        // The headline tracing invariant: attributed phase time should
        // account for (nearly all of) the end-to-end latency. Only the
        // request-pipeline phases count — histograms like matrix_encode
        // track server-side work outside any request trace.
        if let Some(total) = snap.phase(PHASE_TOTAL) {
            let attributed: u64 = snap
                .phases
                .iter()
                .filter(|p| phase::ALL.contains(&p.name.as_str()))
                .map(|p| p.sum_ns)
                .sum();
            if total.sum_ns > 0 {
                println!(
                    "coverage  {:.1}% of end-to-end latency attributed to phases",
                    100.0 * attributed as f64 / total.sum_ns as f64
                );
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
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
    let mut client =
        match ServeClient::connect_with(args.addr.as_str(), params, &ClientConfig::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("connect failed: {e}");
                return ExitCode::FAILURE;
            }
        };

    let mut polled: u64 = 0;
    loop {
        match client.introspect() {
            Ok(snap) => {
                if args.json {
                    println!("{}", snap.to_json());
                } else {
                    render(&snap);
                }
            }
            Err(e) => {
                eprintln!("introspect failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        polled += 1;
        if args.count.is_some_and(|n| polled >= n) {
            break;
        }
        if !args.json {
            println!();
        }
        std::thread::sleep(args.interval);
    }

    if let Some(path) = &args.dump {
        let json = match client.flight_dump() {
            Ok(j) => j,
            Err(e) => {
                eprintln!("flight dump failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Prove the artifact is loadable before claiming success — a
        // dump nobody can open is worse than no dump.
        let events = match read_chrome_trace(&json) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("flight dump is not a valid Chrome trace: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}: {} trace events", events.len());
    }
    ExitCode::SUCCESS
}
