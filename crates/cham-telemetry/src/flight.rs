//! A flight recorder: the last N completed request traces plus recent
//! notable events, exportable as a Chrome/Perfetto trace.
//!
//! Aggregate histograms tell you the p99 got worse; the flight recorder
//! tells you what the *last requests before the crash* were doing. It is
//! deliberately small and always on: a bounded ring of
//! [`RequestTrace`]s (one per completed request, with the per-phase
//! breakdown from [`crate::span::SpanRecorder::finish`]) and a second
//! ring of [`FlightEvent`]s (injected faults, worker panics, cache
//! evictions). [`FlightRecorder::to_chrome_trace`] renders both as one
//! Perfetto-loadable timeline — request tracks laid out on the
//! recorder's epoch clock, phases nested within each request.
//!
//! When to dump is the *owner's* policy (the serving stack dumps on
//! demand over the wire); this module only provides the ring and the
//! exporter.

use crate::json::JsonValue;
use crate::span::{PhaseSpan, TraceId};
use crate::trace::ChromeTrace;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One completed request's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's wire-visible trace id.
    pub trace_id: TraceId,
    /// Start offset from the recorder's epoch, nanoseconds.
    pub start_ns: u64,
    /// End-to-end server-side duration, nanoseconds.
    pub total_ns: u64,
    /// Aggregated per-phase breakdown (monotonic, non-overlapping).
    pub phases: Vec<PhaseSpan>,
}

/// What kind of notable event happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A fault was injected by the fault harness.
    Fault,
    /// A worker caught a panic.
    Panic,
    /// Cache material was evicted.
    Evict,
    /// The owner began shutting down.
    Shutdown,
}

impl FlightEventKind {
    /// Stable lowercase label (used in trace categories and JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlightEventKind::Fault => "fault",
            FlightEventKind::Panic => "panic",
            FlightEventKind::Evict => "evict",
            FlightEventKind::Shutdown => "shutdown",
        }
    }
}

/// One notable event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event class.
    pub kind: FlightEventKind,
    /// Free-form description (e.g. the fault name).
    pub detail: String,
    /// The request it hit, when attributable.
    pub trace_id: Option<TraceId>,
    /// Offset from the recorder's epoch, nanoseconds.
    pub ts_ns: u64,
}

/// Point-in-time copy of the recorder's contents.
#[derive(Debug, Clone, Default)]
pub struct FlightSnapshot {
    /// Completed request traces, oldest first.
    pub traces: Vec<RequestTrace>,
    /// Notable events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Requests evicted from the ring since startup.
    pub dropped_traces: u64,
}

#[derive(Debug, Default)]
struct Rings {
    traces: VecDeque<RequestTrace>,
    events: VecDeque<FlightEvent>,
    dropped_traces: u64,
}

/// Bounded ring buffers of recent request traces and events.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    event_capacity: usize,
    epoch: Instant,
    rings: Mutex<Rings>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` request traces (and
    /// `4 × capacity` events, min 64).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            event_capacity: (capacity * 4).max(64),
            epoch: Instant::now(),
            rings: Mutex::new(Rings::default()),
        }
    }

    /// Nanoseconds since this recorder's epoch — the clock all recorded
    /// offsets share.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends a completed request trace (evicting the oldest beyond
    /// capacity).
    pub fn record_trace(&self, trace: RequestTrace) {
        let mut rings = self
            .rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if rings.traces.len() == self.capacity {
            rings.traces.pop_front();
            rings.dropped_traces += 1;
        }
        rings.traces.push_back(trace);
    }

    /// Appends a notable event, stamped with the recorder clock.
    pub fn record_event(
        &self,
        kind: FlightEventKind,
        detail: impl Into<String>,
        trace_id: Option<TraceId>,
    ) {
        let event = FlightEvent {
            kind,
            detail: detail.into(),
            trace_id,
            ts_ns: self.now_ns(),
        };
        let mut rings = self
            .rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if rings.events.len() == self.event_capacity {
            rings.events.pop_front();
        }
        rings.events.push_back(event);
    }

    /// Cheap `(retained traces, dropped traces)` counts, without copying
    /// the ring contents (for introspection snapshots).
    #[must_use]
    pub fn lens(&self) -> (usize, u64) {
        let rings = self
            .rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (rings.traces.len(), rings.dropped_traces)
    }

    /// Copies out the current contents, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> FlightSnapshot {
        let rings = self
            .rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        FlightSnapshot {
            traces: rings.traces.iter().cloned().collect(),
            events: rings.events.iter().cloned().collect(),
            dropped_traces: rings.dropped_traces,
        }
    }

    /// Renders the recorder contents as a Chrome/Perfetto trace: one
    /// track per request (phases as nested slices) plus one `events`
    /// track for faults/panics/evictions.
    #[must_use]
    pub fn to_chrome_trace(&self) -> ChromeTrace {
        let snap = self.snapshot();
        let mut trace = ChromeTrace::new();
        const EVENT_TRACK: u64 = 1;
        trace.thread_name(EVENT_TRACK, "events");
        for (i, req) in snap.traces.iter().enumerate() {
            let tid = EVENT_TRACK + 1 + i as u64;
            trace.thread_name(tid, format!("request {}", req.trace_id));
            let base_us = req.start_ns as f64 / 1e3;
            trace.complete(
                tid,
                format!("request {}", req.trace_id),
                "request",
                base_us,
                req.total_ns as f64 / 1e3,
                vec![
                    ("trace_id".into(), JsonValue::UInt(req.trace_id.as_u64())),
                    ("total_ns".into(), JsonValue::UInt(req.total_ns)),
                ],
            );
            for p in &req.phases {
                trace.complete(
                    tid,
                    p.name,
                    "phase",
                    base_us + p.start_ns as f64 / 1e3,
                    p.dur_ns as f64 / 1e3,
                    vec![
                        ("dur_ns".into(), JsonValue::UInt(p.dur_ns)),
                        ("count".into(), JsonValue::UInt(p.count)),
                    ],
                );
            }
        }
        for e in &snap.events {
            let mut args = vec![("detail".into(), JsonValue::from(e.detail.as_str()))];
            if let Some(id) = e.trace_id {
                args.push(("trace_id".into(), JsonValue::UInt(id.as_u64())));
            }
            trace.complete(
                EVENT_TRACK,
                format!("{}: {}", e.kind.label(), e.detail),
                e.kind.label(),
                e.ts_ns as f64 / 1e3,
                // Zero-duration instants render poorly; give events a
                // 1 µs sliver so Perfetto shows them.
                1.0,
                args,
            );
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::phase;

    fn req(id: u64, start_ns: u64) -> RequestTrace {
        RequestTrace {
            trace_id: TraceId(id),
            start_ns,
            total_ns: 30,
            phases: vec![
                PhaseSpan {
                    name: phase::QUEUE,
                    start_ns: 0,
                    dur_ns: 10,
                    count: 1,
                },
                PhaseSpan {
                    name: phase::DOT,
                    start_ns: 10,
                    dur_ns: 20,
                    count: 4,
                },
            ],
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let fr = FlightRecorder::new(2);
        fr.record_trace(req(1, 0));
        fr.record_trace(req(2, 100));
        fr.record_trace(req(3, 200));
        let snap = fr.snapshot();
        assert_eq!(snap.traces.len(), 2);
        assert_eq!(snap.traces[0].trace_id, TraceId(2));
        assert_eq!(snap.traces[1].trace_id, TraceId(3));
        assert_eq!(snap.dropped_traces, 1);
    }

    #[test]
    fn events_record_and_export() {
        let fr = FlightRecorder::new(4);
        fr.record_trace(req(9, 50));
        fr.record_event(FlightEventKind::Fault, "worker_panic", Some(TraceId(9)));
        fr.record_event(FlightEventKind::Evict, "keys 0xabc", None);
        let json = fr.to_chrome_trace().to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("fault: worker_panic"));
        assert!(json.contains("evict: keys 0xabc"));
        assert!(json.contains("request 0x0000000000000009"));
        assert!(json.contains("\"dot\""));
    }
}
