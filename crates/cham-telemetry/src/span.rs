//! Request-scoped tracing: trace IDs, phase spans, and per-request
//! recorders.
//!
//! Process-wide counters answer *"how many transforms did that cost"*;
//! this module answers *"where did **this** request's time go"* — it is
//! the one way the workspace times a phase:
//!
//! * **ID propagation is free.** A [`TraceId`] is a plain `u64` that
//!   travels over the wire and through thread hops; carrying it costs a
//!   copy.
//! * **Cost is opt-in per request.** A [`Span`] only reads the clock
//!   when the current thread has a recorder installed
//!   ([`with_recorder`]); with none installed (every non-serving code
//!   path, and every request nobody is tracing) constructing and
//!   dropping a `Span` is one thread-local `Option` check.
//!
//! ## Aggregation model
//!
//! Kernel phases execute many times per request (one `dot` span per
//! matrix row) and — when intra-request parallelism is on — on several
//! fan-out threads at once, so raw start/end pairs would interleave and
//! overlap. The recorder therefore **aggregates durations by phase
//! name** (insertion-ordered, bounded), and [`SpanRecorder::finish`]
//! lays the aggregated phases out *sequentially* on a cumulative
//! timeline. The resulting [`RequestTrace`](crate::flight::RequestTrace)
//! phases are monotonic and non-overlapping by construction, and their
//! sum matches the real elapsed time: serially that is immediate, and a
//! fan-out books its tasks' spans as wall time through [`fan_out`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Canonical phase names, in request order. Shared by the server, the
/// kernel annotations, and the introspection consumers so the breakdown
/// keys agree everywhere.
pub mod phase {
    /// Admission-gate entry to kernel start: the wait for a permit (plus
    /// any injected delay while holding it).
    pub const QUEUE: &str = "queue";
    /// Inside the permit, outside every kernel span: thread spawn / join
    /// when the request fans out, result assembly.
    pub const DISPATCH: &str = "dispatch";
    /// Fused NTT-domain multiply-accumulate over matrix rows.
    pub const DOT: &str = "dot";
    /// Galois key-switching during LWE packing.
    pub const KEYSWITCH: &str = "keyswitch";
    /// Rescale + coefficient extraction per output row.
    pub const RESCALE: &str = "rescale";
    /// Serializing and writing the reply frame.
    pub const SERIALIZE: &str = "serialize";

    /// Every phase a server-side request trace may contain, in
    /// canonical (pipeline) order.
    pub const ALL: [&str; 6] = [QUEUE, DISPATCH, DOT, KEYSWITCH, RESCALE, SERIALIZE];
}

/// A request's wire-visible identity: non-zero, random.
///
/// Zero is the wire encoding for "unset" (a v3 client that does not
/// care), so [`TraceId::generate`] never returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Draws a fresh process-unique id (SplitMix64 over a seeded
    /// counter; never zero).
    #[must_use]
    pub fn generate() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
        let mut z = NEXT.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Self(if z == 0 { 1 } else { z })
    }

    /// Wire value (`0` never appears; see [`TraceId::from_wire`]).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Decodes a wire value: `0` means the sender left the id unset.
    #[must_use]
    pub fn from_wire(raw: u64) -> Option<Self> {
        (raw != 0).then_some(Self(raw))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// One aggregated phase inside a finished request trace: durations of
/// all same-named spans summed, laid out sequentially by `finish`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (one of [`phase::ALL`] for server traces).
    pub name: &'static str,
    /// Offset from the request trace's start, nanoseconds.
    pub start_ns: u64,
    /// Aggregated duration, nanoseconds.
    pub dur_ns: u64,
    /// Number of raw spans folded into this phase.
    pub count: u64,
}

/// Cap on distinct phase names one recorder will hold; protects against
/// a caller generating names dynamically.
const MAX_PHASES: usize = 16;

#[derive(Debug, Default)]
struct RecorderInner {
    /// (name, total duration ns, span count), insertion-ordered.
    phases: Vec<(&'static str, u64, u64)>,
    overflow: u64,
}

/// Accumulates phase durations for one request.
///
/// Installed on the thread that owns the request (a server's connection
/// thread) and folded into a [`Vec<PhaseSpan>`] once by
/// [`SpanRecorder::finish`]; the only other threads that see it are the
/// fan-out threads a [`fan_out`] hands a scratch recorder to.
#[derive(Debug)]
pub struct SpanRecorder {
    trace_id: TraceId,
    inner: Mutex<RecorderInner>,
}

impl SpanRecorder {
    /// A fresh recorder for `trace_id`.
    #[must_use]
    pub fn new(trace_id: TraceId) -> Self {
        Self {
            trace_id,
            inner: Mutex::new(RecorderInner::default()),
        }
    }

    /// The request's trace id.
    #[must_use]
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Folds `dur_ns` into the phase named `name`.
    pub fn record(&self, name: &'static str, dur_ns: u64) {
        self.record_spans(name, dur_ns, 1);
    }

    /// Folds `count` spans totalling `dur_ns` into the phase named `name`.
    fn record_spans(&self, name: &'static str, dur_ns: u64, count: u64) {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = inner.phases.iter_mut().find(|(n, _, _)| *n == name) {
            entry.1 = entry.1.saturating_add(dur_ns);
            entry.2 += count;
        } else if inner.phases.len() < MAX_PHASES {
            inner.phases.push((name, dur_ns, count));
        } else {
            inner.overflow += 1;
        }
    }

    /// Spans dropped because more than `MAX_PHASES` distinct names
    /// were recorded.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .overflow
    }

    /// Lays the aggregated phases out on a sequential cumulative
    /// timeline (first-recorded first), guaranteeing monotonic,
    /// non-overlapping `start_ns` regardless of how the raw spans
    /// interleaved across threads.
    #[must_use]
    pub fn finish(&self) -> Vec<PhaseSpan> {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut cursor = 0u64;
        inner
            .phases
            .iter()
            .map(|&(name, dur_ns, count)| {
                let span = PhaseSpan {
                    name,
                    start_ns: cursor,
                    dur_ns,
                    count,
                };
                cursor = cursor.saturating_add(dur_ns);
                span
            })
            .collect()
    }

    /// Sum of all recorded phase durations, nanoseconds.
    #[must_use]
    pub fn total_recorded_ns(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .phases
            .iter()
            .fold(0u64, |acc, &(_, d, _)| acc.saturating_add(d))
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<SpanRecorder>>> = const { RefCell::new(None) };
}

/// Runs `f` with `recorder` installed as the current thread's recorder
/// (restoring the previous one after), so [`Span`]s opened inside
/// attribute to it.
pub fn with_recorder<R>(recorder: Arc<SpanRecorder>, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(recorder));
    struct Restore(Option<Arc<SpanRecorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Runs `f` with `recorder` installed when it is `Some`, plain
/// otherwise. The form a fan-out uses to forward a spawner's context.
pub fn with_maybe<R>(recorder: Option<Arc<SpanRecorder>>, f: impl FnOnce() -> R) -> R {
    match recorder {
        Some(rec) => with_recorder(rec, f),
        None => f(),
    }
}

/// The current thread's installed recorder, if any.
#[must_use]
pub fn current_recorder() -> Option<Arc<SpanRecorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Captures the current recorder for handoff to another thread — named
/// for its one call site pattern: capture at spawn, re-install in the
/// spawned thread via [`with_maybe`].
#[must_use]
pub fn propagate() -> Option<Arc<SpanRecorder>> {
    current_recorder()
}

/// Runs `f`, a fan-out whose tasks record spans side by side, so that the
/// request's phases still sum to elapsed time: the tasks record into a
/// scratch recorder (installed for `f`, so [`propagate`] hands *it* to
/// them), and their per-phase sums are folded into the current recorder
/// scaled by `elapsed / Σ task spans` whenever the tasks together recorded
/// more than the fan-out took (`k` tasks in parallel record ≈ `k ×` the
/// window). Spans that cover less than the window are folded as they are.
/// Without a recorder installed this is `f()`.
pub fn fan_out<R>(f: impl FnOnce() -> R) -> R {
    let Some(request) = current_recorder() else {
        return f();
    };
    let tasks = Arc::new(SpanRecorder::new(request.trace_id));
    let started = Instant::now();
    let out = with_recorder(Arc::clone(&tasks), f);
    let wall = started.elapsed().as_nanos();
    let recorded = u128::from(tasks.total_recorded_ns());
    for span in tasks.finish() {
        let dur_ns = if recorded > wall {
            (u128::from(span.dur_ns) * wall / recorded) as u64
        } else {
            span.dur_ns
        };
        request.record_spans(span.name, dur_ns, span.count);
    }
    out
}

/// An RAII phase span: times from construction to drop and folds the
/// duration into the current thread's recorder.
///
/// When no recorder is installed the constructor does not even read the
/// clock — the cost on untraced paths is one thread-local check.
#[derive(Debug)]
pub struct Span {
    state: Option<(Arc<SpanRecorder>, &'static str, Instant)>,
}

impl Span {
    /// Opens a span for phase `name` against the current recorder.
    #[inline]
    #[must_use]
    pub fn enter(name: &'static str) -> Self {
        let state = CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .map(|rec| (Arc::clone(rec), name, Instant::now()))
        });
        Self { state }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((rec, name, start)) = self.state.take() {
            let dur = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rec.record(name, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a.as_u64(), 0);
        assert_ne!(a, b);
        assert_eq!(TraceId::from_wire(0), None);
        assert_eq!(TraceId::from_wire(7), Some(TraceId(7)));
        assert_eq!(format!("{}", TraceId(0xab)), "0x00000000000000ab");
    }

    #[test]
    fn spans_require_an_installed_recorder() {
        assert!(current_recorder().is_none());
        // With no recorder installed, a span books nowhere.
        drop(Span::enter(phase::DOT));

        let rec = Arc::new(SpanRecorder::new(TraceId::generate()));
        with_recorder(Arc::clone(&rec), || {
            assert!(current_recorder().is_some());
            drop(Span::enter(phase::DOT));
        });
        assert!(current_recorder().is_none());
        // Only the span opened under the recorder was booked.
        let spans = rec.finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, phase::DOT);
    }

    #[test]
    fn recorder_aggregates_by_name_and_finishes_sequentially() {
        let rec = SpanRecorder::new(TraceId(1));
        rec.record(phase::QUEUE, 10);
        rec.record(phase::DOT, 5);
        rec.record(phase::DOT, 7);
        rec.record(phase::RESCALE, 3);
        let spans = rec.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[0],
            PhaseSpan {
                name: phase::QUEUE,
                start_ns: 0,
                dur_ns: 10,
                count: 1
            }
        );
        assert_eq!(
            spans[1],
            PhaseSpan {
                name: phase::DOT,
                start_ns: 10,
                dur_ns: 12,
                count: 2
            }
        );
        assert_eq!(
            spans[2],
            PhaseSpan {
                name: phase::RESCALE,
                start_ns: 22,
                dur_ns: 3,
                count: 1
            }
        );
        // Monotonic, non-overlapping by construction.
        for w in spans.windows(2) {
            assert_eq!(w[0].start_ns + w[0].dur_ns, w[1].start_ns);
        }
        assert_eq!(rec.total_recorded_ns(), 25);
        assert_eq!(rec.overflow(), 0);
    }

    #[test]
    fn nested_installs_restore_the_outer_recorder() {
        let outer = Arc::new(SpanRecorder::new(TraceId(2)));
        let inner = Arc::new(SpanRecorder::new(TraceId(3)));
        with_recorder(Arc::clone(&outer), || {
            with_recorder(Arc::clone(&inner), || {
                assert_eq!(current_recorder().unwrap().trace_id(), TraceId(3));
            });
            assert_eq!(current_recorder().unwrap().trace_id(), TraceId(2));
        });
        assert!(current_recorder().is_none());
    }

    #[test]
    fn propagate_hands_off_across_threads() {
        let rec = Arc::new(SpanRecorder::new(TraceId(4)));
        let captured = with_recorder(Arc::clone(&rec), propagate);
        std::thread::spawn(move || {
            with_maybe(captured, || {
                rec_span_once();
            });
        })
        .join()
        .unwrap();
        assert_eq!(rec.finish().len(), 1);

        fn rec_span_once() {
            let _s = Span::enter(phase::KEYSWITCH);
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn fan_out_books_parallel_spans_as_wall_time() {
        let rec = Arc::new(SpanRecorder::new(TraceId(6)));
        let started = Instant::now();
        with_recorder(Arc::clone(&rec), || {
            // Two "tasks" that claim far more time than really passes —
            // what k parallel workers do to a shared recorder.
            fan_out(|| {
                let tasks = propagate().expect("fan_out installs a recorder");
                assert!(!Arc::ptr_eq(&tasks, &rec));
                tasks.record(phase::DOT, 3_000_000_000_000);
                tasks.record(phase::DOT, 3_000_000_000_000);
                tasks.record(phase::KEYSWITCH, 2_000_000_000_000);
            });
            // Spans that fit inside the window are folded unscaled.
            fan_out(|| {
                current_recorder().unwrap().record(phase::QUEUE, 1);
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap();
        assert!(rec.total_recorded_ns() <= elapsed);
        let spans = rec.finish();
        let by_name = |n| spans.iter().find(|s| s.name == n).unwrap();
        let (dot, ks) = (by_name(phase::DOT), by_name(phase::KEYSWITCH));
        assert_eq!((dot.count, ks.count), (2, 1));
        assert!(dot.dur_ns > 0 && dot.dur_ns.abs_diff(3 * ks.dur_ns) <= 3);
        assert_eq!(by_name(phase::QUEUE).dur_ns, 1);
        // No recorder installed: a plain call.
        assert_eq!(fan_out(|| 7), 7);
    }

    #[test]
    fn phase_name_overflow_is_bounded() {
        let rec = SpanRecorder::new(TraceId(5));
        const NAMES: [&str; 20] = [
            "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9", "p10", "p11", "p12", "p13",
            "p14", "p15", "p16", "p17", "p18", "p19",
        ];
        for name in NAMES {
            rec.record(name, 1);
        }
        assert_eq!(rec.finish().len(), MAX_PHASES);
        assert_eq!(rec.overflow(), (NAMES.len() - MAX_PHASES) as u64);
    }
}
