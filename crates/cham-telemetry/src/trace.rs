//! Chrome Trace Event Format (Perfetto) export.
//!
//! A [`ChromeTrace`] is assembled by its producer and written out:
//! `cham-sim` converts its cycle-accurate Gantt schedule into one (one
//! track per pipeline stage), and the flight recorder dumps request
//! traces as one (one track per request).
//!
//! The emitted JSON is the `{"traceEvents": [...]}` object form of the
//! [Trace Event Format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! and loads in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::json::JsonValue;

/// One event destined for the `traceEvents` array.
#[derive(Debug, Clone)]
enum Event {
    Complete {
        name: String,
        cat: String,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, JsonValue)>,
    },
    ThreadName {
        tid: u64,
        name: String,
    },
}

/// An in-memory Chrome trace being assembled.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Event>,
}

impl ChromeTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a track (`tid`) — shown as the row label in Perfetto.
    pub fn thread_name(&mut self, tid: u64, name: impl Into<String>) -> &mut Self {
        self.events.push(Event::ThreadName {
            tid,
            name: name.into(),
        });
        self
    }

    /// Adds a complete ("X") event on track `tid`.
    pub fn complete(
        &mut self,
        tid: u64,
        name: impl Into<String>,
        cat: impl Into<String>,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, JsonValue)>,
    ) -> &mut Self {
        self.events.push(Event::Complete {
            name: name.into(),
            cat: cat.into(),
            tid,
            ts_us,
            dur_us,
            args,
        });
        self
    }

    /// Number of events recorded so far (metadata included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the trace as Chrome Trace Event JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let events: Vec<JsonValue> = self
            .events
            .iter()
            .map(|e| match e {
                Event::Complete {
                    name,
                    cat,
                    tid,
                    ts_us,
                    dur_us,
                    args,
                } => {
                    let mut obj = vec![
                        ("name".into(), JsonValue::from(name.as_str())),
                        ("cat".into(), JsonValue::from(cat.as_str())),
                        ("ph".into(), JsonValue::from("X")),
                        ("pid".into(), JsonValue::UInt(1)),
                        ("tid".into(), JsonValue::UInt(*tid)),
                        ("ts".into(), JsonValue::Float(*ts_us)),
                        ("dur".into(), JsonValue::Float(*dur_us)),
                    ];
                    if !args.is_empty() {
                        obj.push(("args".into(), JsonValue::Object(args.clone())));
                    }
                    JsonValue::Object(obj)
                }
                Event::ThreadName { tid, name } => JsonValue::Object(vec![
                    ("name".into(), JsonValue::from("thread_name")),
                    ("ph".into(), JsonValue::from("M")),
                    ("pid".into(), JsonValue::UInt(1)),
                    ("tid".into(), JsonValue::UInt(*tid)),
                    (
                        "args".into(),
                        JsonValue::Object(vec![("name".into(), JsonValue::from(name.as_str()))]),
                    ),
                ]),
            })
            .collect();
        JsonValue::Object(vec![
            ("traceEvents".into(), JsonValue::Array(events)),
            ("displayTimeUnit".into(), JsonValue::from("ns")),
        ])
        .to_string()
    }

    /// Writes the trace JSON to `path`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// One event read back from a Chrome-trace JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadEvent {
    /// Event name.
    pub name: String,
    /// Category (`cat`), empty for metadata events.
    pub cat: String,
    /// Phase character (`"X"` complete, `"M"` metadata, ...).
    pub ph: String,
    /// Track id.
    pub tid: u64,
    /// Start microseconds (0 for metadata events).
    pub ts_us: f64,
    /// Duration microseconds (0 for metadata events).
    pub dur_us: f64,
}

/// Parses Chrome Trace Event JSON (the object form this module writes)
/// back into its events — the read half of the round-trip that CI uses
/// to prove dumped flight-recorder traces are loadable.
///
/// # Errors
/// A human-readable description of the first structural problem: bad
/// JSON, a missing `traceEvents` array, or an event missing a required
/// field.
pub fn read_chrome_trace(json: &str) -> Result<Vec<ReadEvent>, String> {
    let doc = JsonValue::parse(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let (ts_us, dur_us) = if ph == "X" {
            (
                ev.get("ts")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("event {i}: complete event missing ts"))?,
                ev.get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("event {i}: complete event missing dur"))?,
            )
        } else {
            (0.0, 0.0)
        };
        out.push(ReadEvent {
            name: name.to_string(),
            cat: ev
                .get("cat")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            ph: ph.to_string(),
            tid,
            ts_us,
            dur_us,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_renders_valid_shape() {
        let mut t = ChromeTrace::new();
        t.thread_name(1, "NTT");
        t.complete(
            1,
            "row 0",
            "stage",
            0.0,
            20.48,
            vec![("row".into(), JsonValue::UInt(0))],
        );
        t.complete(1, "row \"1\"", "stage", 20.48, 20.48, vec![]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"thread_name\""));
        // Escaped quote from the event name survives round-tripping.
        assert!(json.contains("row \\\"1\\\""));
    }

    #[test]
    fn reader_round_trips_writer_output() {
        let mut t = ChromeTrace::new();
        t.thread_name(3, "worker");
        t.complete(
            3,
            "dot",
            "phase",
            12.5,
            100.0,
            vec![("count".into(), JsonValue::UInt(4))],
        );
        let events = read_chrome_trace(&t.to_json()).expect("round-trip");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ph, "M");
        assert_eq!(events[0].name, "thread_name");
        let x = &events[1];
        assert_eq!(
            (x.ph.as_str(), x.name.as_str(), x.cat.as_str()),
            ("X", "dot", "phase")
        );
        assert_eq!(x.tid, 3);
        assert!((x.ts_us - 12.5).abs() < 1e-9 && (x.dur_us - 100.0).abs() < 1e-9);
    }

    #[test]
    fn reader_rejects_malformed_traces() {
        assert!(read_chrome_trace("not json").is_err());
        assert!(read_chrome_trace("{}").is_err());
        assert!(read_chrome_trace(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
        assert!(
            read_chrome_trace(r#"{"traceEvents":[{"name":"a","ph":"X","tid":1,"ts":0}]}"#).is_err()
        );
    }
}
