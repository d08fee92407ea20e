//! `bench_all`: one benchmark from `Hmvp::multiply` to a sharded cluster
//! request.
//!
//! ```text
//! bench_all --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--tag <t>] [--quick]
//! bench_all --list
//! bench_all spec                     # prints BENCHMARK.json
//! bench_all compare <a-dir> <b-dir>
//! ```
//!
//! A run sets the workload up (three to nine times; `setup_s` is the median),
//! warms it, measures for `--seconds` in five equal rounds, checks every
//! reply against the plaintext product, prints each metric as
//! `workload metric value unit`, writes a record under `--out`, and ends
//! with one JSON line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` splits the time between an untraced and a traced drive,
//! replays the layers, and reports the per-layer metrics plus a Chrome
//! trace. See `README.md`.

mod compare;
mod harness;
mod host;
mod json;
mod layers;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use harness::{drive, summarize, Calibrator, ClientLog, Stop, Summary, Tally};
use json::{obj, Json};
use layers::{Layers, Prober};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Workload, WRONG_RESULT};

const ROUNDS: usize = 5;
/// Set-ups per run: at least `MIN_SETUPS`, then more while they are
/// cheap (a 20 ms set-up needs more repetitions for a steady median).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    tag: Option<String>,
    quick: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_all --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>] [--tag <t>] [--quick]\n       bench_all --list | spec | compare <a-dir> <b-dir>"
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("bench/out"),
        tag: None,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--tag" => a.tag = Some(value()?),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|w| w.name == a.workload) {
        return Err(format!(
            "--workload must be one of: {}",
            spec::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if a.quick {
        // A smoke run: one twentieth of the measuring time, one set-up.
        a.seconds = spec::RUN_SECONDS as f64 / 20.0;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--list") => {
            for w in spec::WORKLOADS {
                println!("{}", w.name);
            }
            ExitCode::SUCCESS
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            ExitCode::SUCCESS
        }
        Some("compare") if argv.len() == 3 => {
            compare::run(Path::new(&argv[1]), Path::new(&argv[2]))
        }
        Some("compare") | None => usage(),
        Some(_) => match parse(&argv) {
            Ok(args) => match run(&args) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("bench_all: {}: {e}", args.workload);
                    ExitCode::from(2)
                }
            },
            Err(e) => {
                eprintln!("bench_all: {e}");
                usage()
            }
        },
    }
}

/// Everything one run measured, ready to print and record.
struct Outcome {
    /// Per set-up: seconds at reference host speed, and on the wall clock.
    setup_s: Vec<f64>,
    setup_wall_s: Vec<f64>,
    /// The drive the end-to-end metrics come from (untraced).
    plain: Summary,
    tally: Tally,
    layers: Option<Layers>,
    spans: Vec<trace::Span>,
}

fn run(args: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut w = workloads::build(&args.workload, args.seed, &args.out)?;
    let outcome = measure(w.as_mut(), args);
    w.teardown();
    let outcome = outcome?;
    report(w.as_ref(), args, &outcome)
}

fn measure(w: &mut dyn Workload, args: &Args) -> Result<Outcome, String> {
    let calibrate = w.single_threaded();
    let mut calibrator = Calibrator::new(calibrate);
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut speed = calibrator.speed();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        w.setup()?;
        let wall = t0.elapsed().as_secs_f64();
        let after = calibrator.speed();
        setup_s.push(wall * (speed + after) / 2.0);
        setup_wall_s.push(wall);
        speed = after;
        let over_budget = started.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        let n = setup_s.len();
        if args.quick || n >= MAX_SETUPS || (n >= MIN_SETUPS && over_budget) {
            break;
        }
    }
    let mut tally = Tally::default();
    let warmup = Stop::Ops(w.warmup_ops());
    tally.add(&drive(w.clients(), warmup, None));

    let timed = |seconds: f64| Stop::Timed {
        seconds,
        rounds: ROUNDS,
        calibrate,
    };
    if !args.trace {
        let logs = drive(w.clients(), timed(args.seconds), None);
        tally.add(&logs);
        return Ok(Outcome {
            setup_s,
            setup_wall_s,
            plain: summarize(&logs),
            tally,
            layers: None,
            spans: Vec::new(),
        });
    }

    // Traced run: the same loop untraced, then with spans, then the
    // layer replays. The difference between the two drives is what
    // tracing costs; counters are read around the untraced one, where
    // nothing but the workload's operations runs.
    let epoch = Instant::now();
    w.mark();
    let c0 = sut::counters();
    let t0 = Instant::now();
    let plain_logs = drive(w.clients(), timed(args.seconds * 0.4), None);
    let window_s = t0.elapsed().as_secs_f64();
    let counters = sut::counters().since(&c0);
    let mut traced_logs = drive(w.clients(), timed(args.seconds * 0.4), Some(epoch));
    tally.add(&plain_logs);
    tally.add(&traced_logs);
    let plain = summarize(&plain_logs);
    let traced = summarize(&traced_logs);

    let mut m = Layers::default();
    let mut span_logs: Vec<_> = traced_logs
        .iter_mut()
        .map(|l| std::mem::take(&mut l.spans))
        .collect();
    let mut prober = Prober::new(epoch, span_logs.len() as u32, calibrate);
    let mut logs: Vec<ClientLog> = plain_logs;
    logs.extend(traced_logs);
    w.layers(&mut prober, &logs, &mut m)?;
    span_logs.push(prober.log.spans);

    let ops = plain.samples.max(1) as f64;
    let (mut vector, mut tail) = (0u64, 0u64);
    for &(kernel, v, t) in &counters.simd {
        vector += v;
        tail += t;
        if let Some(metric) = spec::PER_LAYER
            .iter()
            .find(|p| p.name.strip_prefix("math.simd_vector_share.") == Some(kernel))
        {
            m.set(metric.name, share(v, v + t));
        } else {
            m.warnings
                .push(format!("simd kernel family {kernel:?} has no metric"));
        }
    }
    m.set("math.simd_vector_share", share(vector, vector + tail));
    m.set("math.lazy_flushes", counters.lazy_flushes as f64 / ops);
    m.set(
        "he.scratch_miss_share",
        share(
            counters.scratch_misses,
            counters.scratch_hits + counters.scratch_misses,
        ),
    );
    m.set("pool.tasks", counters.pool_tasks as f64 / ops);
    m.set("pool.steals", counters.pool_steals as f64 / ops);
    m.set("pool.parks", counters.pool_parks as f64 / ops);
    m.set(
        "pool.idle_share",
        counters.pool_idle_ns as f64 / 1e9 / (window_s * sut::pool_threads() as f64),
    );
    m.set("bench.op_ms_p90", plain.p90.median);
    m.set("bench.op_ms_p99", plain.p99_all);
    m.set(
        "bench.trace_overhead_share",
        (traced.p50.median - plain.p50.median) / plain.p50.median,
    );
    m.set("bench.traced_ops", traced.samples as f64);

    Ok(Outcome {
        setup_s,
        setup_wall_s,
        plain,
        tally,
        layers: Some(m),
        spans: trace::merge(span_logs),
    })
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn report(w: &dyn Workload, args: &Args, o: &Outcome) -> Result<ExitCode, String> {
    let name = args.workload.as_str();
    let failed = o.tally.failed();
    let correct =
        o.tally.failures.get(WRONG_RESULT).copied().unwrap_or(0) == 0 && o.tally.attempted > failed;

    // (name, unit, value, min and max over the rounds) in declaration order.
    type Row = (&'static str, &'static str, f64, Option<(f64, f64)>);
    let rows: Vec<Row> = match &o.layers {
        None => {
            let round = |s: &stats::RoundSummary| Some((s.min, s.max));
            let setup = stats::round_summary(&o.setup_s);
            let value = |metric: &str| match metric {
                "op_ms_p50" => (o.plain.p50.median, round(&o.plain.p50)),
                "ops_per_s" => (o.plain.ops_per_s.median, round(&o.plain.ops_per_s)),
                "peak_rss_mb" => (host::peak_rss_mb(), None),
                "setup_s" => (setup.median, round(&setup)),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            spec::END_TO_END
                .iter()
                .map(|m| {
                    let (v, spread) = value(m.name);
                    (m.name, m.unit, v, spread)
                })
                .collect()
        }
        Some(layers) => layers
            .complete()
            .into_iter()
            .map(|(n, u, v)| (n, u, v, None))
            .collect(),
    };

    for &(metric, unit, value, _) in &rows {
        println!("{name} {metric} {value} {unit}");
    }
    println!(
        "{name} failed_share {} share",
        failed as f64 / o.tally.attempted.max(1) as f64
    );
    let warnings: Vec<String> = o.layers.iter().flat_map(|l| l.warnings.clone()).collect();
    for warning in &warnings {
        eprintln!("bench_all: {name}: warning: {warning}");
    }
    for error in &o.tally.errors {
        eprintln!("bench_all: {name}: failed operation: {error}");
    }

    // The result line carries value and unit only; the record adds the
    // spread over the rounds (or set-ups) behind each value.
    let metrics = |with_spread: bool| {
        Json::Obj(
            rows.iter()
                .map(|&(metric, unit, value, spread)| {
                    let mut fields = vec![
                        ("value".to_string(), Json::Num(value)),
                        ("unit".to_string(), unit.into()),
                    ];
                    if let (true, Some((min, max))) = (with_spread, spread) {
                        fields.push(("round_min".into(), Json::Num(min)));
                        fields.push(("round_max".into(), Json::Num(max)));
                    }
                    (metric.to_string(), Json::Obj(fields))
                })
                .collect(),
        )
    };
    let stem = match &args.tag {
        None => name.to_string(),
        Some(tag) => format!("{name}.{tag}"),
    };
    let mut record = vec![
        ("schema", "bench_all/v1".into()),
        ("workload", name.into()),
        ("traced", args.trace.into()),
        ("quick", args.quick.into()),
        (
            "host",
            host::fingerprint(
                args.seed,
                args.seconds,
                args.seconds / spec::RUN_SECONDS as f64,
            ),
        ),
        ("shape", w.describe()),
        ("correct", correct.into()),
        ("attempted", o.tally.attempted.into()),
        ("failed", failed.into()),
        (
            "failures",
            Json::Obj(
                o.tally
                    .failures
                    .iter()
                    .map(|(k, &n)| (k.to_string(), n.into()))
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Arr(o.tally.errors.iter().map(|e| e.as_str().into()).collect()),
        ),
        (
            "clock",
            if w.single_threaded() {
                "reference-speed"
            } else {
                "wall"
            }
            .into(),
        ),
        ("timed_ops", o.plain.samples.into()),
        (
            "op_ms_p90",
            obj([
                ("value", o.plain.p90.median.into()),
                ("round_min", o.plain.p90.min.into()),
                ("round_max", o.plain.p90.max.into()),
            ]),
        ),
        ("op_ms_p99", o.plain.p99_all.into()),
        ("op_ms_mean", o.plain.mean_all.into()),
        (
            "host_speed",
            obj([
                ("median", o.plain.speed.median.into()),
                ("round_min", o.plain.speed.min.into()),
                ("round_max", o.plain.speed.max.into()),
            ]),
        ),
        (
            "wall_clock",
            obj([
                ("op_ms_p50", o.plain.wall_p50.into()),
                ("op_ms_p90", o.plain.wall_p90.into()),
                ("ops_per_s", o.plain.wall_ops_per_s.into()),
                ("setup_s", floats(&o.setup_wall_s)),
            ]),
        ),
        ("setup_s_all", floats(&o.setup_s)),
        (
            if args.trace {
                "per_layer"
            } else {
                "end_to_end"
            },
            metrics(true),
        ),
        (
            "warnings",
            Json::Arr(warnings.iter().map(|s| s.as_str().into()).collect()),
        ),
    ];
    if args.trace {
        let totals = trace::totals_by_name(&o.spans)
            .into_iter()
            .map(|(span, t)| {
                obj([
                    ("name", span.into()),
                    ("count", t.count.into()),
                    ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        record.push(("spans", Json::Arr(totals)));
        write(
            &args.out.join(format!("{stem}.trace.json")),
            &trace::chrome_trace(&o.spans, name).compact(),
        )?;
    }
    let record = Json::Obj(
        record
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    let suffix = if args.trace { ".traced.json" } else { ".json" };
    write(&args.out.join(format!("{stem}{suffix}")), &record.pretty())?;

    println!(
        "{}",
        obj([
            ("correct", correct.into()),
            ("attempted", o.tally.attempted.into()),
            ("failed", failed.into()),
            ("metrics", metrics(false)),
        ])
        .compact()
    );
    Ok(if failed == 0 && correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| v.into()).collect())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv(
            "--workload hmvp_tall --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hmvp_tall", 42, 10.0, true)
        );
        assert!(!a.quick && a.tag.is_none());
        let q = parse(&argv("--workload serve_wide --quick")).unwrap();
        assert_eq!(q.seconds, spec::RUN_SECONDS as f64 / 20.0);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload hmvp_tall --trace 2",
            "--workload hmvp_tall --seconds 0",
            "--workload hmvp_tall --seconds 61",
            "--workload hmvp_tall --seed",
            "--workload hmvp_tall --frobnicate",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn list_names_are_the_benchmark_json_names() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let listed: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, declared);
        // Every listed workload is buildable by name.
        for name in listed {
            assert!(parse(&argv(&format!("--workload {name}"))).is_ok());
        }
    }
}
