//! Host fingerprint and process memory, written into every record so a
//! number is never read without the machine it came from.

use crate::json::{obj, Json};
use crate::sut;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The checked-out commit, read from `.git` in the working directory
/// (no subprocess: a benchmark checkout is often not a repository, and
/// `git` would then search the parent directories).
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn fingerprint(seed: u64, seconds: f64, scale: f64) -> Json {
    let unknown = || "unknown".to_string();
    obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .into(),
        ),
        ("cpu_model", cpu_model().unwrap_or_else(unknown).into()),
        ("simd_backend", sut::simd_backend().into()),
        ("pool_threads", sut::pool_threads().into()),
        (
            "rustc",
            command_line("rustc", &["--version"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("git_sha", git_sha().unwrap_or_else(unknown).into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("repetition_scale", scale.into()),
    ])
}
