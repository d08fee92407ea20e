//! Chrome Trace Event Format (Perfetto) export.
//!
//! A [`ChromeTrace`] is assembled by its producer and written out:
//! `cham-sim` converts its cycle-accurate Gantt schedule into one (one
//! track per pipeline stage), and a flight snapshot renders its request
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
}
