//! Minimal order-preserving JSON parser and serializer.
//!
//! Zero-dependency by project rule, and the workspace's only JSON
//! implementation. The parser keeps object keys in **document order**
//! (Yosys port order is declaration order, which becomes the design's
//! input/output order) and reports syntax errors with a 1-based
//! line/column so a truncated or hand-edited netlist fails legibly.
//!
//! The matching serializer ([`to_string`], [`to_string_pretty`]) is what
//! the campaign service and the `CampaignSpec` API use to emit JSON:
//! [`parse`]`(`[`to_string`]`(v)) == v` for every value whose numbers are
//! finite, and integral numbers in the 53-bit-safe range print without a
//! fractional part, so round-tripped identifiers stay byte-stable.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value with order-preserving objects.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (Yosys emits only integers, but floats parse too).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in document order (duplicates rejected at parse).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience constructor: a string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Convenience constructor: an unsigned integer value.
    pub fn num(n: u64) -> JsonValue {
        JsonValue::Num(n as f64)
    }
}

/// Serializes a value to compact JSON (no insignificant whitespace).
///
/// Object keys keep their in-memory order, mirroring the parser. Integral
/// numbers inside the 53-bit-safe range print without a fractional part;
/// non-finite numbers (which valid parses never produce) fall back to
/// `null`.
pub fn to_string(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    out
}

/// Serializes a value to indented JSON (two spaces per level) — the
/// human-facing variant for spec files and on-disk records.
pub fn to_string_pretty(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    out
}

fn write_value(out: &mut String, v: &JsonValue, indent: Option<usize>, depth: usize) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Num(n) => write_number(out, *n),
        JsonValue::Str(s) => write_escaped(out, s),
        JsonValue::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_newline(out, indent, depth);
            out.push(']');
        }
        JsonValue::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, mv)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_newline(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, mv, indent, depth + 1);
            }
            write_newline(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

/// Numbers in the integer-safe f64 range print as integers (Yosys bit
/// indices, campaign ids, counters); everything else uses Rust's shortest
/// round-trippable float formatting.
fn write_number(out: &mut String, n: f64) {
    const SAFE: f64 = 9_007_199_254_740_992.0; // 2^53
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < SAFE {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON syntax error with its 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in bytes).
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`JsonError`] with line/column on any syntax problem.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = P {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the JSON document"));
    }
    Ok(v)
}

struct P<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl P<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let (mut line, mut col) = (1u32, 1u32);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') if self.bytes[self.pos..].starts_with(b"null") => {
                self.pos += 4;
                Ok(JsonValue::Null)
            }
            Some(&c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '{'
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected a string object key"));
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.pos += 1;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening '"'
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("malformed \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        self.pos += 1;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(format!("malformed number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_ordered_objects() {
        let v = parse(r#"{"z": 1, "a": [true, null, "s\n"], "m": {"k": -2.5}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        // Keys stay in document order — this is what preserves Yosys port order.
        assert_eq!(obj[0].0, "z");
        assert_eq!(obj[1].0, "a");
        assert_eq!(obj[2].0, "m");
        assert_eq!(v.get("z").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("m").unwrap().get("k").unwrap().as_num(), Some(-2.5));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let e = parse("{\n  \"a\": 1,\n  \"b\": }\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.col >= 8, "col was {}", e.col);
        let e = parse("[1, 2").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected"));
    }

    #[test]
    fn serializer_round_trips() {
        let doc = r#"{"z": 1, "a": [true, null, "s\n\"\\x", -2.5, 0], "m": {"k": [], "e": {}}}"#;
        let v = parse(doc).unwrap();
        // Compact and pretty forms both parse back to the identical value.
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
        // Integral numbers print without a fractional part.
        assert_eq!(to_string(&JsonValue::Num(42.0)), "42");
        assert_eq!(to_string(&JsonValue::Num(-3.0)), "-3");
        assert_eq!(to_string(&JsonValue::Num(2.5)), "2.5");
        // Key order is preserved on the wire.
        let s = to_string(&v);
        assert!(s.find("\"z\"").unwrap() < s.find("\"a\"").unwrap());
        // Control characters escape to \u form.
        let ctl = JsonValue::str("a\u{1}b");
        assert_eq!(to_string(&ctl), "\"a\\u0001b\"");
        assert_eq!(parse(&to_string(&ctl)).unwrap(), ctl);
    }

    #[test]
    fn pretty_form_is_indented() {
        let v = parse(r#"{"a": [1, 2]}"#).unwrap();
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(to_string(&v), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn rejects_duplicates_and_garbage() {
        assert!(parse(r#"{"a":1,"a":2}"#)
            .unwrap_err()
            .message
            .contains("duplicate"));
        assert!(parse("[] x").unwrap_err().message.contains("trailing"));
        assert!(parse("nope").is_err());
    }
}
