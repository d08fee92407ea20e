//! Structured benchmark run records.
//!
//! Every `cham-bench` binary can emit one [`RunRecord`] per run via
//! `--json <path>`: who ran (git SHA, rustc, CPU, threads), with what
//! (parameter set), and what happened (wall time, named metrics, the
//! full telemetry counter and timer snapshot). The schema is documented
//! in `DESIGN.md` § Observability; records are pretty-printed JSON so
//! consecutive runs diff cleanly.

use crate::json::JsonValue;
use crate::report;
use std::process::Command;
use std::time::Instant;

/// Runs `cmd args...` and returns trimmed stdout on success.
fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

/// `git rev-parse HEAD` of the working directory, or `"unknown"`.
#[must_use]
pub fn git_sha() -> String {
    capture("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version`, or `"unknown"`.
#[must_use]
pub fn rustc_version() -> String {
    capture("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

/// CPU model from `/proc/cpuinfo` (first `model name` line), or
/// `"unknown"` on platforms without procfs.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPU count visible to this process.
#[must_use]
pub fn thread_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One structured benchmark run: environment, parameters, results, and
/// the telemetry snapshot at the moment [`RunRecord::finish`] (or
/// serialisation) was called.
#[derive(Debug)]
pub struct RunRecord {
    name: String,
    git_sha: String,
    rustc_version: String,
    cpu_model: String,
    threads: usize,
    params: Vec<(String, JsonValue)>,
    metrics: Vec<(String, JsonValue)>,
    started: Instant,
    wall_seconds: Option<f64>,
}

impl RunRecord {
    /// Starts a record for the benchmark `name`, capturing the
    /// environment now and starting the wall clock.
    #[must_use]
    pub fn start(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            git_sha: git_sha(),
            rustc_version: rustc_version(),
            cpu_model: cpu_model(),
            threads: thread_count(),
            params: Vec::new(),
            metrics: Vec::new(),
            started: Instant::now(),
            wall_seconds: None,
        }
    }

    /// Records an input parameter (e.g. `n`, `rows`, `modulus_bits`).
    pub fn param(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        self.params.push((key.into(), value.into()));
        self
    }

    /// Records a result metric (e.g. `hmvp_ms`, `speedup`).
    pub fn metric(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        self.metrics.push((key.into(), value.into()));
        self
    }

    /// Stops the wall clock. Serialising without calling this uses the
    /// elapsed time at serialisation instead.
    pub fn finish(&mut self) -> &mut Self {
        self.wall_seconds = Some(self.started.elapsed().as_secs_f64());
        self
    }

    /// Renders the record, embedding the current telemetry counter and
    /// timer snapshots.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let wall = self
            .wall_seconds
            .unwrap_or_else(|| self.started.elapsed().as_secs_f64());
        JsonValue::Object(vec![
            ("schema".into(), JsonValue::from("cham-run-record/v1")),
            ("name".into(), JsonValue::from(self.name.as_str())),
            ("git_sha".into(), JsonValue::from(self.git_sha.as_str())),
            (
                "rustc_version".into(),
                JsonValue::from(self.rustc_version.as_str()),
            ),
            ("cpu_model".into(), JsonValue::from(self.cpu_model.as_str())),
            ("threads".into(), JsonValue::from(self.threads)),
            ("params".into(), JsonValue::Object(self.params.clone())),
            ("wall_seconds".into(), JsonValue::Float(wall)),
            ("metrics".into(), JsonValue::Object(self.metrics.clone())),
            ("counters".into(), report::counters_json()),
            ("timers".into(), report::histograms_json()),
        ])
    }

    /// Writes the record as pretty JSON to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_captures_environment_and_fields() {
        let _guard = crate::test_guard();
        crate::reset();
        crate::counter_add!("cham_telemetry.record.test_counter", 3);
        let mut rec = RunRecord::start("unit_test");
        rec.param("n", 4096u64).param("label", "cham");
        rec.metric("answer", 42u64).metric("ratio", 1.25f64);
        rec.finish();
        let json = rec.to_json().to_string();
        assert!(json.contains("\"schema\":\"cham-run-record/v1\""));
        assert!(json.contains("\"name\":\"unit_test\""));
        assert!(json.contains("\"git_sha\":\""));
        assert!(json.contains("\"rustc_version\":\""));
        assert!(json.contains("\"cpu_model\":\""));
        assert!(json.contains("\"threads\":"));
        assert!(json.contains("\"n\":4096"));
        assert!(json.contains("\"answer\":42"));
        assert!(json.contains("\"wall_seconds\":"));
        assert!(json.contains("\"cham_telemetry.record.test_counter\":3"));
        assert!(rec.threads >= 1);
        crate::reset();
    }
}
