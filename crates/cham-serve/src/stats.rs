//! Per-instance service counters and per-phase latency accounting.
//!
//! The admission gate and the request path record what the service
//! actually did — accepted/rejected/expired requests, how many waited for
//! a permit — into plain relaxed atomics owned by one server instance.
//! Several servers share a test process and `Introspect` answers
//! per node, so this struct is the one record of those events: nothing in
//! this crate books into the process-wide `cham-telemetry` registries.
//!
//! [`PhaseHistograms`] does the same for latency: one [`LiveHistogram`]
//! per request phase (plus end-to-end and matrix-encode), folded from
//! each request's span recorder when its reply is written. The
//! `Introspect` wire op serves these as [`IntrospectSnapshot`].

use cham_telemetry::histogram::{HistogramSnapshot, LiveHistogram};
use cham_telemetry::json::JsonValue;
use cham_telemetry::span::{phase, PhaseSpan};
use std::sync::atomic::{AtomicU64, Ordering};

/// One named scalar of a snapshot: the name it travels under on the wire
/// and in JSON, and how to read and write it.
struct Field<T> {
    name: &'static str,
    get: fn(&T) -> u64,
    set: fn(&mut T, u64),
}

impl<T> Field<T> {
    /// `value`'s fields as `(name, value)` pairs, in table order.
    fn read_all<'a>(
        table: &'static [Self],
        value: &'a T,
    ) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        table.iter().map(move |f| (f.name, (f.get)(value)))
    }

    /// Stores `v` into the field of `value` called `name`; `false` when
    /// the table has no such name.
    fn write_one(table: &[Self], value: &mut T, name: &str, v: u64) -> bool {
        let field = table.iter().find(|f| f.name == name);
        if let Some(f) = field {
            (f.set)(value, v);
        }
        field.is_some()
    }
}

/// Builds a field table from field names. A wire value too large for a
/// narrower field saturates instead of truncating.
macro_rules! fields {
    ($($name:ident),* $(,)?) => {
        &[$(Field {
            name: stringify!($name),
            get: |s| u64::from(s.$name),
            set: |s, v| s.$name = v.try_into().unwrap_or(!0),
        }),*]
    };
}

/// Live counters for one server instance. All methods are lock-free and
/// safe to call from any thread.
#[derive(Debug, Default)]
pub struct ServeStats {
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    timed_out: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    peak_queue_depth: AtomicU64,
    internal_errors: AtomicU64,
    rejected_shutdown: AtomicU64,
    faults_injected: AtomicU64,
}

impl ServeStats {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A request got past the gate's `Busy` check; `depth` is how many
    /// requests now wait for a permit, this one included — 0 when it was
    /// granted one on arrival (tracked as a high-water mark).
    pub fn on_accepted(&self, depth: usize) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.peak_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A request bounced off a full line of waiters.
    pub fn on_rejected_busy(&self) {
        self.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline passed before it held a permit.
    pub fn on_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` requests finished successfully.
    pub fn on_completed(&self, n: usize) {
        self.completed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` requests failed in the HE layer.
    pub fn on_failed(&self, n: usize) {
        self.failed.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// `n` requests were answered with a typed `Internal` error (a panic
    /// caught around the kernel) instead of hanging their connections.
    pub fn on_internal_error(&self, n: usize) {
        self.internal_errors.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// A request arriving during shutdown was answered `Shutdown`.
    pub fn on_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// A fault-injection site fired.
    pub fn on_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            // Booked on the `SessionCache` that reaps or swallows them;
            // the server fills them in when it serves a snapshot.
            reaped_uploads: 0,
            spill_errors: 0,
            decode_errors: 0,
        }
    }
}

/// Frozen view of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests past the gate's `Busy` check.
    pub accepted: u64,
    /// Requests rejected with `Busy` (line of waiters full).
    pub rejected_busy: u64,
    /// Requests answered `TimedOut` (deadline passed before a permit).
    pub timed_out: u64,
    /// Requests that produced a result.
    pub completed: u64,
    /// Requests that failed in the HE layer.
    pub failed: u64,
    /// High-water mark of requests waiting for a permit at once; one
    /// granted on arrival never waited and counts 0.
    pub peak_queue_depth: u64,
    /// Requests answered with a typed `Internal` error (kernel panics
    /// caught and reported rather than hanging the connection).
    pub internal_errors: u64,
    /// Requests answered `Shutdown` because they arrived mid-drain.
    pub rejected_shutdown: u64,
    /// Fault-injection sites that fired (0 on a production server).
    pub faults_injected: u64,
    /// Pending chunk-upload assemblies reaped for idling past the reap
    /// age (`Uploads::reaped`).
    pub reaped_uploads: u64,
    /// Best-effort spills to the persistent store that failed and were
    /// swallowed (`SessionCache::spill_errors`).
    pub spill_errors: u64,
    /// Stored matrix bodies dropped because they did not parse against
    /// this node's parameters (`SessionCache::decode_errors`).
    pub decode_errors: u64,
}

impl StatsSnapshot {
    /// Every counter, in wire and JSON order. Adding a counter is one
    /// line here: peers that predate it skip the name, peers that
    /// postdate a removed one read 0.
    const FIELDS: &'static [Field<Self>] = fields![
        accepted,
        rejected_busy,
        timed_out,
        completed,
        failed,
        peak_queue_depth,
        internal_errors,
        rejected_shutdown,
        faults_injected,
        reaped_uploads,
        spill_errors,
        decode_errors,
    ];

    /// The counters as `(name, value)` pairs, ahead of the gauges in
    /// the `IntrospectReport` body.
    pub(crate) fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Field::read_all(Self::FIELDS, self)
    }

    /// Stores `value` into the counter called `name`; `false` when no
    /// counter has that name.
    pub(crate) fn set_named(&mut self, name: &str, value: u64) -> bool {
        Field::write_one(Self::FIELDS, self, name, value)
    }

    /// Requests are not coalesced: 1 once any request ran. Kept only
    /// because `bench/` compiles against it (ROADMAP, `[benchmark]` item).
    #[doc(hidden)]
    #[must_use]
    pub fn avg_batch_size(&self) -> f64 {
        if self.completed + self.failed > 0 {
            1.0
        } else {
            0.0
        }
    }
}

// ------------------------------------------------- per-phase histograms

/// Always-on per-phase latency histograms for the serving pipeline.
///
/// One histogram per canonical phase (see
/// [`cham_telemetry::span::phase`]), plus `total` (end-to-end
/// queue→reply), `matrix_encode` (the NTT-encode cost paid once per
/// `LoadMatrix`, outside any traced request) and `store_spill` (one
/// write + fsync of a body to the persistent store, on its writer
/// thread, behind the upload's reply).
#[derive(Debug, Default)]
pub struct PhaseHistograms {
    /// One per request phase, in [`phase::ALL`] order.
    phases: [LiveHistogram; phase::ALL.len()],
    total: LiveHistogram,
    matrix_encode: LiveHistogram,
    store_spill: LiveHistogram,
}

/// End-to-end request latency pseudo-phase name.
pub const PHASE_TOTAL: &str = "total";
/// Matrix NTT-encode pseudo-phase name (per `LoadMatrix`, not per
/// request).
pub const PHASE_MATRIX_ENCODE: &str = "matrix_encode";
/// Store-spill pseudo-phase name (per spilled body, not per request).
pub const PHASE_STORE_SPILL: &str = "store_spill";

impl PhaseHistograms {
    /// Empty histograms.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every histogram under its name, in canonical pipeline order
    /// (`total`, `matrix_encode` and `store_spill` last).
    fn named(&self) -> impl Iterator<Item = (&'static str, &LiveHistogram)> {
        phase::ALL.into_iter().zip(&self.phases).chain([
            (PHASE_TOTAL, &self.total),
            (PHASE_MATRIX_ENCODE, &self.matrix_encode),
            (PHASE_STORE_SPILL, &self.store_spill),
        ])
    }

    fn by_name(&self, name: &str) -> Option<&LiveHistogram> {
        self.named().find(|&(n, _)| n == name).map(|(_, h)| h)
    }

    /// Folds one finished request's phase breakdown plus its end-to-end
    /// latency into the aggregate histograms. Unknown phase names are
    /// ignored (the recorder bounds them already).
    pub fn record_request(&self, phases: &[PhaseSpan], total_ns: u64) {
        for p in phases {
            if let Some(h) = self.by_name(p.name) {
                h.record(p.dur_ns);
            }
        }
        self.total.record(total_ns);
    }

    /// Records one `LoadMatrix` NTT-encode duration.
    pub fn record_matrix_encode(&self, dur_ns: u64) {
        self.matrix_encode.record(dur_ns);
    }

    /// Records one spill's write + fsync duration.
    pub fn record_store_spill(&self, dur_ns: u64) {
        self.store_spill.record(dur_ns);
    }

    /// Snapshots every phase that has recorded at least one value, in
    /// canonical pipeline order (`total`, `matrix_encode` and
    /// `store_spill` last).
    #[must_use]
    pub fn snapshot(&self) -> Vec<PhaseStat> {
        self.named()
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| PhaseStat::from_snapshot(name, &h.snapshot()))
            .collect()
    }
}

/// One phase's latency summary inside an [`IntrospectSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name (canonical; see [`cham_telemetry::span::phase`]).
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations, ns.
    pub sum_ns: u64,
    /// Median latency estimate, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency estimate, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile latency estimate, ns.
    pub p999_ns: u64,
    /// Largest recorded duration, ns.
    pub max_ns: u64,
}

impl PhaseStat {
    fn from_snapshot(name: &str, s: &HistogramSnapshot) -> Self {
        Self {
            name: name.to_string(),
            count: s.count,
            sum_ns: s.sum_nanos,
            p50_ns: s.percentile(0.50) as u64,
            p99_ns: s.percentile(0.99) as u64,
            p999_ns: s.percentile(0.999) as u64,
            max_ns: s.max_nanos,
        }
    }
}

// --------------------------------------------------------- introspection

/// The structured snapshot served by the `Introspect` wire op: live
/// counters, gate/pool occupancy, cache sizes, and the per-phase
/// latency breakdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntrospectSnapshot {
    /// Service counters at the moment of the probe.
    pub stats: StatsSnapshot,
    /// Requests currently waiting for a permit of the admission gate (one
    /// granted on arrival never waits).
    pub queue_depth: u32,
    /// The bound on waiters.
    pub queue_capacity: u32,
    /// The gate's permits: kernels that may run at once.
    pub workers: u32,
    /// Cached Galois key sets.
    pub key_cache_len: u32,
    /// Cached matrices.
    pub matrix_cache_len: u32,
    /// The process thread budget (`cham_pool::current_threads`).
    pub pool_threads: u32,
    /// Threads kernel fan-outs have spawned since process start.
    pub pool_tasks: u64,
    /// Request traces currently held by the flight recorder.
    pub flight_traces: u32,
    /// Request traces evicted from the flight recorder ring so far.
    pub flight_dropped: u64,
    /// Operator-assigned node id (`0` = unset) — distinguishes a fleet
    /// of `cham-serve-top` reports.
    pub node_id: u64,
    /// The ring slot this server serves (`0` when standalone — check
    /// `shard_count` to tell the difference).
    pub shard_index: u32,
    /// Total ring slots in the server's cluster (`0` = standalone).
    pub shard_count: u32,
    /// Resolved SIMD backend code (`cham_math::Backend::code`):
    /// 0 = scalar, 1 = avx2, 3 = avx512ifma (2 is retired).
    pub simd_backend: u32,
    /// Lane width of the resolved backend (1 = scalar fallback).
    pub simd_lanes: u32,
    /// Elements processed by vector kernels since process start: the
    /// first half of `simd_stats().totals()`, the sum of the
    /// `cham_math.simd.<kernel>.vector` lane counters.
    pub simd_vector_elems: u64,
    /// Elements handled by scalar tails/fallback since process start: the
    /// second half, the sum of the `cham_math.simd.<kernel>.tail` counters.
    pub simd_tail_elems: u64,
    /// Per-phase latency summaries (phases with at least one sample).
    pub phases: Vec<PhaseStat>,
}

impl IntrospectSnapshot {
    /// Every scalar beside the counters, in wire and JSON order.
    const GAUGES: &'static [Field<Self>] = fields![
        queue_depth,
        queue_capacity,
        workers,
        key_cache_len,
        matrix_cache_len,
        pool_threads,
        pool_tasks,
        flight_traces,
        flight_dropped,
        node_id,
        shard_index,
        shard_count,
        simd_backend,
        simd_lanes,
        simd_vector_elems,
        simd_tail_elems,
    ];

    fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Field::read_all(Self::GAUGES, self)
    }

    /// Counters then gauges as `(name, value)` pairs — the scalar part
    /// of an `IntrospectReport` body.
    pub(crate) fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.stats.named().chain(self.gauges())
    }

    /// Stores `value` into the counter or gauge called `name`; unknown
    /// names are ignored.
    pub(crate) fn set_named(&mut self, name: &str, value: u64) {
        if !self.stats.set_named(name, value) {
            Field::write_one(Self::GAUGES, self, name, value);
        }
    }

    /// Renders the snapshot as a JSON object — the schema the CI
    /// introspection check validates and `cham-serve-top --json` emits.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        fn json(pairs: impl Iterator<Item = (&'static str, u64)>) -> Vec<(String, JsonValue)> {
            pairs.map(|(n, v)| (n.to_string(), v.into())).collect()
        }
        let phases = JsonValue::Array(
            self.phases
                .iter()
                .map(|p| {
                    JsonValue::Object(vec![
                        ("name".into(), JsonValue::from(p.name.as_str())),
                        ("count".into(), p.count.into()),
                        ("sum_ns".into(), p.sum_ns.into()),
                        ("p50_ns".into(), p.p50_ns.into()),
                        ("p99_ns".into(), p.p99_ns.into()),
                        ("p999_ns".into(), p.p999_ns.into()),
                        ("max_ns".into(), p.max_ns.into()),
                    ])
                })
                .collect(),
        );
        let mut top: Vec<(String, JsonValue)> = vec![
            ("schema".into(), JsonValue::from("cham-introspect/v1")),
            ("stats".into(), JsonValue::Object(json(self.stats.named()))),
        ];
        top.extend(json(self.gauges()));
        top.push(("phases".into(), phases));
        JsonValue::Object(top)
    }

    /// The phase summary named `name`, if present.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = ServeStats::new();
        s.on_accepted(3);
        s.on_accepted(1);
        s.on_rejected_busy();
        s.on_timed_out();
        s.on_completed(5);
        s.on_failed(1);
        s.on_internal_error(2);
        s.on_rejected_shutdown();
        s.on_fault_injected();
        s.on_fault_injected();
        s.on_fault_injected();
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_busy, 1);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.peak_queue_depth, 3);
        assert_eq!(snap.internal_errors, 2);
        assert_eq!(snap.rejected_shutdown, 1);
        assert_eq!(snap.faults_injected, 3);
    }

    #[test]
    fn phase_histograms_fold_requests_and_snapshot_in_order() {
        let h = PhaseHistograms::new();
        let phases = vec![
            PhaseSpan {
                name: phase::QUEUE,
                start_ns: 0,
                dur_ns: 100,
                count: 1,
            },
            PhaseSpan {
                name: phase::DOT,
                start_ns: 100,
                dur_ns: 900,
                count: 4,
            },
            PhaseSpan {
                name: "unknown_phase",
                start_ns: 1000,
                dur_ns: 5,
                count: 1,
            },
        ];
        h.record_request(&phases, 1000);
        h.record_request(&phases, 1200);
        h.record_matrix_encode(50);
        h.record_store_spill(70);
        let snap = h.snapshot();
        let names: Vec<&str> = snap.iter().map(|p| p.name.as_str()).collect();
        // Canonical order, only phases with samples, unknowns dropped.
        assert_eq!(
            names,
            vec![
                phase::QUEUE,
                phase::DOT,
                PHASE_TOTAL,
                PHASE_MATRIX_ENCODE,
                PHASE_STORE_SPILL
            ]
        );
        let dot = &snap[1];
        assert_eq!(dot.count, 2);
        assert_eq!(dot.sum_ns, 1800);
        assert!(
            dot.p50_ns >= 512 && dot.p50_ns <= 1024,
            "p50 {}",
            dot.p50_ns
        );
        assert_eq!(dot.max_ns, 900);
    }

    #[test]
    fn introspect_snapshot_renders_schema_json() {
        let h = PhaseHistograms::new();
        h.record_request(
            &[PhaseSpan {
                name: phase::QUEUE,
                start_ns: 0,
                dur_ns: 10,
                count: 1,
            }],
            10,
        );
        let snap = IntrospectSnapshot {
            stats: StatsSnapshot {
                accepted: 4,
                completed: 4,
                ..StatsSnapshot::default()
            },
            queue_depth: 1,
            queue_capacity: 64,
            workers: 2,
            phases: h.snapshot(),
            ..IntrospectSnapshot::default()
        };
        assert!(snap.phase(phase::QUEUE).is_some());
        assert!(snap.phase(phase::DOT).is_none());
        // The whole document, byte for byte: the schema tag, every counter
        // and gauge by name (node identity renders as zeros on a
        // standalone node), then the phases with samples in canonical
        // order — queue, and the end-to-end total.
        let phase_json = |name: &str| {
            format!(
                r#"{{"name":"{name}","count":1,"sum_ns":10,"p50_ns":10,"p99_ns":10,"p999_ns":10,"max_ns":10}}"#
            )
        };
        let expected = [
            r#"{"schema":"cham-introspect/v1","stats":{"accepted":4,"rejected_busy":0,"#,
            r#""timed_out":0,"completed":4,"failed":0,"peak_queue_depth":0,"#,
            r#""internal_errors":0,"rejected_shutdown":0,"faults_injected":0,"#,
            r#""reaped_uploads":0,"spill_errors":0,"decode_errors":0},"#,
            r#""queue_depth":1,"queue_capacity":64,"workers":2,"key_cache_len":0,"#,
            r#""matrix_cache_len":0,"pool_threads":0,"pool_tasks":0,"flight_traces":0,"#,
            r#""flight_dropped":0,"node_id":0,"shard_index":0,"shard_count":0,"#,
            r#""simd_backend":0,"simd_lanes":0,"simd_vector_elems":0,"simd_tail_elems":0,"#,
            r#""phases":["#,
            &phase_json(phase::QUEUE),
            ",",
            &phase_json(PHASE_TOTAL),
            "]}",
        ]
        .concat();
        assert_eq!(snap.to_json().to_string(), expected);
    }
}
