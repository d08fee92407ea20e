//! `bench_all compare <a-dir> <b-dir>`: the no-regression check between
//! two sets of untraced records (parent vs change, or the same code
//! twice), one row per workload × end-to-end metric.

use crate::json::Json;
use crate::spec::{self, Better, EndToEnd};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Per workload, per end-to-end metric: one value per record found.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The run-to-run spread is wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
    /// Too few (or only `--quick`) records to judge.
    Unchecked,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchecked => "unchecked",
        }
    }
}

/// How much worse `b` reads than `a`, as a share of `a` (negative = better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unchecked;
    }
    let every_b_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worse_by(m, x, y) < 0.0));
    if every_b_better {
        return Verdict::Ok;
    }
    if iqr_share(a) > m.bound || iqr_share(b) > m.bound {
        return Verdict::Unresolved;
    }
    if worse_by(m, median(a), median(b)) > m.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Loads every untraced `bench_all/v1` record in `dir`; returns the runs
/// and whether any of them was a `--quick` smoke run.
fn load(dir: &Path) -> Result<(Runs, bool), String> {
    let mut runs = Runs::new();
    let mut quick = false;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some("bench_all/v1")
            || doc.get("traced") != Some(&Json::Bool(false))
        {
            continue;
        }
        quick |= doc.get("quick") == Some(&Json::Bool(true));
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("end_to_end").and_then(Json::as_object),
        ) else {
            continue;
        };
        for (metric, body) in metrics {
            if let Some(v) = body.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((runs, quick))
}

pub fn run(a_dir: &Path, b_dir: &Path) -> ExitCode {
    let ((a, a_quick), (b, b_quick)) = match (load(a_dir), load(b_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_all compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<12} {:>4} {:>12} {:>8} {:>4} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "n_a",
        "median_a",
        "iqr_a",
        "n_b",
        "median_b",
        "iqr_b",
        "worse_by",
        "bound"
    );
    let mut bad = 0;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let values = |runs: &Runs| {
                runs.get(w.name)
                    .and_then(|ms| ms.get(m.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (va, vb) = (values(&a), values(&b));
            let verdict = if a_quick || b_quick {
                Verdict::Unchecked
            } else {
                judge(m, &va, &vb)
            };
            bad += u32::from(matches!(verdict, Verdict::Regression | Verdict::Unresolved));
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<15} {:<12} {:>4} {:>12.4} {:>7.2}% {:>4} {:>12.4} {:>7.2}% {:>8.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                va.len(),
                ma,
                100.0 * iqr_share(&va),
                vb.len(),
                mb,
                100.0 * iqr_share(&vb),
                if ma == 0.0 { 0.0 } else { 100.0 * worse_by(m, ma, mb) },
                100.0 * m.bound,
                verdict.as_str()
            );
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_direction() {
        let lower = metric(Better::Lower);
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let slightly = [10.5, 10.6, 10.4, 10.5, 10.55];
        let noisy = [8.0, 12.5, 10.0, 14.0, 9.0];
        assert_eq!(judge(&lower, &steady, &slower), Verdict::Regression);
        assert_eq!(judge(&lower, &steady, &slightly), Verdict::Ok);
        assert_eq!(judge(&lower, &steady, &noisy), Verdict::Unresolved);
        // Noisy, but every run of b beats every run of a.
        assert_eq!(judge(&lower, &noisy, &[7.0, 7.5]), Verdict::Ok);
        assert_eq!(judge(&lower, &steady, &[]), Verdict::Unchecked);
        // For a rate, lower is the regression.
        let higher = metric(Better::Higher);
        assert_eq!(judge(&higher, &slower, &steady), Verdict::Regression);
        assert_eq!(judge(&higher, &steady, &slower), Verdict::Ok);
    }
}
