//! # cham-telemetry — the observability substrate
//!
//! Every other crate in the workspace reports *what it actually did*
//! through this one: how many NTTs ran and over which modulus, how many
//! modular multiplies an HMVP cost, how long each pipeline phase took,
//! and what a whole benchmark run looked like. The primitives:
//!
//! * **Counters** ([`counter_add!`]) — process-wide relaxed atomics named
//!   `<crate>.<module>.<op>`, e.g. `cham_math.ntt.forward`.
//! * **Histograms + scoped timers** ([`time_scope!`]) — RAII scopes that
//!   record wall-time into log₂ latency histograms.
//! * **Exporters** — the structured benchmark [`record::RunRecord`]
//!   schema that `cham-bench --json` binaries emit (counters and timers
//!   included, one key per name), and Chrome trace JSON ([`trace`]).
//! * **Request tracing** ([`span`], [`flight`]) — per-request trace IDs
//!   and phase recorders plus a bounded flight recorder of recent
//!   request traces; their cost is opt-in per request at runtime.
//!
//! There is one build and every hook in it is live: a counter add is one
//! relaxed flag load plus one relaxed `fetch_add`. Instrumented code
//! therefore batches — one add per transform or vector pass, never per
//! butterfly or per modular reduction — and a site too hot to batch is
//! not instrumented at all.
//!
//! Scope rule: the named registries here are **process-wide**, which
//! fits the kernel crates (`cham-math`, `cham-he`, `cham-sim`) whose
//! work belongs to no instance. Crates whose state is per instance
//! (`cham-pool`, `cham-serve`, `cham-cluster` — several servers share
//! one test process) keep their counts on the instance and serve them
//! per node; they book nothing here.
//!
//! Naming convention: `<crate>.<module>.<op>[.<qualifier>]`, all
//! lower-snake segments joined by dots. Qualifiers name a modulus
//! (`.q0`/`.q1`/`.p`) or a lane class (`.vector`/`.tail`).

#![warn(missing_docs)]

pub mod counters;
pub mod flight;
pub mod fmt;
pub mod histogram;
pub mod json;
pub mod record;
pub mod report;
pub mod span;
pub mod timer;
pub mod trace;

pub use counters::Counter;
pub use flight::FlightRecorder;
pub use histogram::{Histogram, LiveHistogram};
pub use json::JsonValue;
pub use record::RunRecord;
pub use span::{Span, SpanRecorder, TraceId};
pub use timer::ScopedTimer;

/// Resets all registered counters and histograms to zero. Intended for
/// tests. The named counters are the atomics behind `simd_stats()`,
/// `scratch_stats()` and `lazy_flush_count()`, so a process that takes
/// deltas of those must not call this between the two readings.
pub fn reset() {
    counters::reset();
    histogram::reset();
}

/// Adds `$n` to the process-wide counter named `$name`.
///
/// The name must be a string literal (`<crate>.<module>.<op>`). Each
/// call site owns its own static; sites sharing a name are summed into
/// one entry by [`counters::snapshot`].
///
/// ```
/// cham_telemetry::counter_add!("cham_math.ntt.forward", 1);
/// ```
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        static __CHAM_COUNTER: $crate::counters::Counter = $crate::counters::Counter::new($name);
        __CHAM_COUNTER.add($n);
    }};
}

/// Opens an RAII timing span covering the rest of the enclosing scope.
///
/// Records the scope's wall time into a log₂ histogram named `$name`.
///
/// ```
/// # fn transform() {}
/// {
///     cham_telemetry::time_scope!("cham_math.ntt.forward");
///     transform();
/// } // span closes here
/// ```
#[macro_export]
macro_rules! time_scope {
    ($name:literal) => {
        let __cham_scope_timer = {
            static __CHAM_HIST: $crate::histogram::Histogram =
                $crate::histogram::Histogram::new($name);
            $crate::timer::ScopedTimer::new(&__CHAM_HIST)
        };
    };
}

/// Serialises unit tests that mutate the process-wide registries.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_record_into_the_registries() {
        let _guard = crate::test_guard();
        crate::counter_add!("cham_telemetry.test.macro_counter", 2);
        {
            crate::time_scope!("cham_telemetry.test.macro_scope");
            std::hint::black_box(1 + 1);
        }
        assert!(crate::counters::snapshot().contains(&("cham_telemetry.test.macro_counter", 2)));
        assert!(crate::histogram::snapshot()
            .iter()
            .any(|h| h.name == "cham_telemetry.test.macro_scope" && h.count == 1));
        crate::reset();
    }
}
