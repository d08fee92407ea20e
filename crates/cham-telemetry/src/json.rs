//! A dependency-free JSON value and writer.
//!
//! The build environment cannot fetch `serde_json`, and the workspace
//! only ever writes JSON (introspection snapshots, trace files), so this
//! module provides a small owned [`JsonValue`] tree with compact
//! rendering. Object key order is preserved as inserted.

use std::fmt::Write as _;

/// An owned JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float (non-finite values render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An ordered key→value map.
    Object(Vec<(String, JsonValue)>),
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

/// Escapes `s` into `out` as JSON string contents (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_float(out: &mut String, v: f64) {
    if v.is_finite() {
        // Shortest round-trip representation rustc provides.
        let _ = write!(out, "{v}");
        // `{}` prints integral floats without a dot; that is still valid
        // JSON (a number), so leave it.
    } else {
        out.push_str("null");
    }
}

impl JsonValue {
    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => write_float(out, *v),
            JsonValue::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for JsonValue {
    /// Compact rendering (no whitespace).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::UInt(1)),
            (
                "b".into(),
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
            ("c".into(), JsonValue::from("x\"y\n")),
            ("d".into(), JsonValue::Float(1.5)),
            ("e".into(), JsonValue::Int(-3)),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":1,"b":[null,true],"c":"x\"y\n","d":1.5,"e":-3}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(JsonValue::from("\u{1}").to_string(), "\"\\u0001\"");
    }
}
