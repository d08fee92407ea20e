//! # cham-telemetry — the observability substrate
//!
//! Every other crate in the workspace reports *what it actually did*
//! through this one: how many NTTs, row tails and key-switches an HMVP
//! cost and where one request's time went. The primitives:
//!
//! * **Counters** ([`counter_add!`]) — process-wide relaxed atomics named
//!   `<crate>.<module>.<op>`, e.g. `cham_math.ntt.forward`.
//! * **Request tracing** ([`span`], [`flight`]) — per-request trace IDs
//!   and phase recorders plus a bounded flight recorder of recent
//!   request traces, copied out as a typed [`flight::FlightSnapshot`];
//!   their cost is opt-in per request at runtime. A [`Span`] is the one
//!   way a phase is timed.
//! * **Latency distributions** ([`LiveHistogram`]) — a caller-owned log₂
//!   histogram, the one histogram type (the serving stack's per-phase
//!   `Introspect` breakdown, `fig8_hmvp`'s per-rep spread).
//! * **Chrome trace JSON** ([`trace`]) — span timelines for Perfetto,
//!   rendered by the one JSON writer ([`json`]); nothing here parses JSON.
//!
//! There is one build and every hook in it is live: a counter add is one
//! relaxed flag load plus one relaxed `fetch_add`. Instrumented code
//! therefore batches — one add per transform or vector pass, never per
//! butterfly or per modular reduction — and a site too hot to batch is
//! not instrumented at all. Every counter has a reader: a test that pins
//! its meaning by name, or an accessor (`simd_stats()`, `scratch_stats()`,
//! `lazy_flush_count()`) that a benchmark or `Introspect` consumes.
//!
//! Scope rule: the counter registry here is **process-wide**, which fits
//! the kernel crates (`cham-math`, `cham-he`) whose work belongs to no
//! instance. Crates whose state is per instance (`cham-serve`,
//! `cham-cluster` — several servers share one test process) keep their
//! counts on the instance and serve them per node; they book nothing
//! here, and neither does `cham-pool`, whose one budget and spawn count
//! are read through its own `global_stats`, nor `cham-sim`, a model
//! that runs no operation.
//!
//! Naming convention: `<crate>.<module>.<op>[.<qualifier>]`, all
//! lower-snake segments joined by dots. Qualifiers name a lane class
//! (`.vector`/`.tail`) or an outcome (`.hit`/`.miss`).

#![warn(missing_docs)]

pub mod counters;
pub mod flight;
pub mod fmt;
pub mod histogram;
pub mod json;
pub mod span;
pub mod trace;

pub use counters::Counter;
pub use flight::FlightRecorder;
pub use histogram::LiveHistogram;
pub use json::JsonValue;
pub use span::{Span, SpanRecorder, TraceId};

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

#[cfg(test)]
mod tests {
    #[test]
    fn macros_record_into_the_registries() {
        const NAME: &str = "cham_telemetry.test.macro_counter";
        let value = || {
            crate::counters::snapshot()
                .into_iter()
                .find(|&(n, _)| n == NAME)
                .map_or(0, |(_, v)| v)
        };
        let before = value();
        crate::counter_add!("cham_telemetry.test.macro_counter", 2);
        assert_eq!(value() - before, 2);
    }
}
