//! A dependency-free JSON value type, serializer, and parser.
//!
//! The offline build environment rules out `serde_json`, and the sweep
//! runner in `gramer-bench` needs a *stable* machine-readable results
//! format (`results/BENCH_*.json`) that every future PR can diff against.
//! This module provides exactly that:
//!
//! * [`JsonValue`] — objects preserve **insertion order** (they are
//!   association lists, not hash maps), so serialization is byte-stable
//!   for a given construction order;
//! * integers are kept as `i64`/`u64` (no silent `f64` narrowing —
//!   simulated cycle counts exceed 2^53);
//! * floats serialize via Rust's shortest-roundtrip formatting, and
//!   non-finite floats serialize as `null` (JSON has no NaN/Inf);
//! * [`JsonValue::parse`] round-trips everything the serializer emits,
//!   and refuses documents nested deeper than [`MAX_NESTING`] with a
//!   typed error, so hostile input cannot overflow the parsing thread's
//!   stack.
//!
//! # Example
//!
//! ```
//! use gramer::json::JsonValue;
//!
//! let v = JsonValue::object([
//!     ("app", JsonValue::from("3-CF")),
//!     ("cycles", JsonValue::from(123u64)),
//! ]);
//! let text = v.to_string();
//! assert_eq!(text, r#"{"app":"3-CF","cycles":123}"#);
//! assert_eq!(JsonValue::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level; the documents the repository writes nest at
/// most a handful of levels deep.
pub const MAX_NESTING: usize = 128;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (serialized without decimal point).
    Int(i64),
    /// An unsigned integer — kept separate so `u64` counters above
    /// `i64::MAX` survive.
    UInt(u64),
    /// A double-precision float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order so output is deterministic.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<i64> for JsonValue {
    fn from(n: i64) -> Self {
        JsonValue::Int(n)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> Self {
        JsonValue::UInt(n)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::UInt(n as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Float(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(pairs: I) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = JsonValue>>(items: I) -> Self {
        JsonValue::Array(items.into_iter().collect())
    }

    /// Looks up a key in an object; `None` for other node kinds.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Int(n) => Some(n as f64),
            JsonValue::UInt(n) => Some(n as f64),
            JsonValue::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(n) => Some(n),
            JsonValue::Int(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Pretty serialization with two-space indentation — the format of
    /// the `results/BENCH_*.json` files (stable, diff-friendly).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            JsonValue::UInt(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            JsonValue::Float(x) => write_f64(out, *x),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Integers without fraction/exponent land in
    /// [`JsonValue::Int`]/[`JsonValue::UInt`]; everything else numeric in
    /// [`JsonValue::Float`]. Nesting deeper than [`MAX_NESTING`] is an
    /// error at the offset of the first bracket past the limit.
    pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for JsonValue {
    /// Compact single-line serialization (`value.to_string()`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // Shortest-roundtrip formatting; force a decimal marker so the value
    // re-parses as a float (`1.0`, not `1`).
    let s = format!("{x}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Error from [`JsonValue::parse`], with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Opens one array/object level, refusing to pass [`MAX_NESTING`].
    fn descend(&mut self, open: u8) -> Result<(), JsonParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        self.expect(open)
    }

    /// Closes the level [`Parser::descend`] opened.
    fn ascend(&mut self, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        self.pos += 1;
        self.depth -= 1;
        Ok(v)
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.descend(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            return self.ascend(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => return self.ascend(JsonValue::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.descend(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return self.ascend(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => return self.ascend(JsonValue::Object(pairs)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes first.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // serializer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            s.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned range is ASCII digits/signs/dots, always valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_serialization_is_stable() {
        let v = JsonValue::object([
            ("b", JsonValue::from(1u64)),
            ("a", JsonValue::from(2u64)),
            (
                "nested",
                JsonValue::array([JsonValue::Null, JsonValue::Bool(true)]),
            ),
        ]);
        // Insertion order, not alphabetical.
        assert_eq!(v.to_string(), r#"{"b":1,"a":2,"nested":[null,true]}"#);
    }

    #[test]
    fn escapes_and_roundtrips_strings() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let v = JsonValue::from(s);
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn big_u64_survives() {
        let n = u64::MAX - 3;
        let v = JsonValue::from(n);
        let back = JsonValue::parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(n));
    }

    #[test]
    fn negative_ints_and_floats() {
        let v = JsonValue::array([
            JsonValue::Int(-42),
            JsonValue::Float(0.25),
            JsonValue::Float(1.0),
        ]);
        let text = v.to_string();
        assert_eq!(text, "[-42,0.25,1.0]");
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back.as_array().unwrap()[0], JsonValue::Int(-42));
        assert_eq!(back.as_array().unwrap()[2], JsonValue::Float(1.0));
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = JsonValue::object([
            (
                "points",
                JsonValue::array([JsonValue::object([("x", JsonValue::from(1u64))])]),
            ),
            ("empty_arr", JsonValue::Array(vec![])),
            ("empty_obj", JsonValue::Object(vec![])),
        ]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"points\": [\n"));
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn get_and_accessors() {
        let v = JsonValue::object([("k", JsonValue::from(1.5))]);
        assert_eq!(v.get("k").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Int(7).as_u64(), Some(7));
        assert_eq!(JsonValue::Int(-7).as_u64(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_limited_with_a_typed_error() {
        for (open, leaf, close) in [("[", "", "]"), ("{\"k\":", "0", "}")] {
            let doc = |depth: usize| format!("{}{leaf}{}", open.repeat(depth), close.repeat(depth));
            assert!(JsonValue::parse(&doc(MAX_NESTING)).is_ok());
            let err = JsonValue::parse(&doc(MAX_NESTING + 1)).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            // The offset is the first opener past the limit.
            assert_eq!(err.offset, MAX_NESTING * open.len());
        }
        // 4 MiB of `[`, the daemon's whole body budget, fails on a thread
        // with a 256 KiB stack instead of overflowing it.
        let body = "[".repeat(4 << 20);
        let deep = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || JsonValue::parse(&body).map_err(|e| e.offset))
            .expect("spawn")
            .join()
            .expect("the parser must not overflow its stack");
        assert_eq!(deep, Err(MAX_NESTING));
    }

    #[test]
    fn parse_accepts_whitespace_everywhere() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
