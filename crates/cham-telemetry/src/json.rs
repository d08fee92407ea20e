//! A dependency-free JSON value, writer, and parser.
//!
//! The build environment cannot fetch `serde_json`, and the telemetry
//! crate's needs are write-mostly (introspection snapshots, trace
//! files), so this module provides a small owned [`JsonValue`] tree with
//! compact rendering. Object key order is preserved as inserted.
//! [`JsonValue::parse`] reads documents back — used to validate that
//! emitted traces and introspection snapshots round-trip.

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

    /// Parses a JSON document.
    ///
    /// Integers that fit `u64`/`i64` parse as [`JsonValue::UInt`] /
    /// [`JsonValue::Int`]; everything else numeric parses as
    /// [`JsonValue::Float`]. Object key order is preserved as read.
    ///
    /// # Errors
    /// A static description of the first syntax error, with its byte
    /// offset.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up `key` when `self` is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when `self` is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents when `self` is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A numeric view (`UInt`/`Int`/`Float`) as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// A non-negative integer view as `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }
}

/// Where and why [`JsonValue::parse`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Static description of the problem.
    pub message: &'static str,
    /// Byte offset of the failure.
    pub offset: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// Nesting depth bound so adversarial inputs cannot overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonParseError {
        JsonParseError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::Str),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain run.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs: one following \uXXXX low half.
                            let ch = if (0xd800..0xdc00).contains(&cp) {
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            cp = cp * 16 + digit;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::Int(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
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

    #[test]
    fn parse_round_trips_writer_output() {
        let v = JsonValue::Object(vec![
            ("a".into(), JsonValue::UInt(1)),
            (
                "b".into(),
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
            ("c".into(), JsonValue::from("x\"y\n\u{1}")),
            ("d".into(), JsonValue::Float(1.5)),
            ("e".into(), JsonValue::Int(-3)),
            ("f".into(), JsonValue::UInt(u64::MAX)),
        ]);
        assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v);
        let spaced = " {\"a\" : [ 1 ,\n\t2 ] }\n";
        assert_eq!(
            JsonValue::parse(spaced).unwrap(),
            JsonValue::Object(vec![(
                "a".into(),
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)])
            )])
        );
    }

    #[test]
    fn parse_handles_escapes_and_numbers() {
        let v = JsonValue::parse(r#"{"s":"a\u0041\ud83d\ude00\/","n":-7,"x":2.5e3}"#).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("aA😀/"));
        assert_eq!(v.get("n"), Some(&JsonValue::Int(-7)));
        assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(2500.0));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "nul",
            "1 2",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_view_the_tree() {
        let v = JsonValue::parse(r#"{"arr":[1,2],"u":9}"#).unwrap();
        assert_eq!(
            v.get("arr").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("u").and_then(JsonValue::as_u64), Some(9));
        assert_eq!(v.as_str(), None);
    }
}
