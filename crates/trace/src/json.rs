//! The workspace's JSON codec: one strict, linear, depth-limited
//! reader and one writer.
//!
//! The build environment has no registry access, so everything that
//! speaks JSON goes through this module instead of serde: the server's
//! wire protocol, trace JSONL ([`crate::write_jsonl`] /
//! [`crate::parse_jsonl`]), and `tela-lint`'s baseline file. The reader
//! takes full RFC 8259 documents: objects, arrays, strings (every
//! escape, `\uXXXX` with exactly four hex digits), numbers, booleans,
//! and null. It is strict where JSON is: leading zeros, signed `\u`
//! escapes, lone surrogates and trailing content are errors, and so are
//! integers outside `u64`/`i64` — they are never rounded into floats.
//! Every failure is a typed [`JsonError`] carrying the byte offset.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (the parser yields [`Value::U64`] for the
    /// rest).
    I64(i64),
    /// A number with a fraction or an exponent.
    F64(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys in document order (trace events round-trip their
    /// field order). Repeated keys are kept; [`Value::get`] reads the
    /// last.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The integer value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The integer value, if this is an integer within `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up `key`, if this is an object; a repeated key reads as
    /// its last value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Maximum container nesting depth.
///
/// The parser recurses per `[`/`{`, so without a bound a few tens of KB
/// of `[` (far under the server's frame-size cap) would overflow the
/// reader's stack — and a stack overflow aborts the whole process,
/// which no `catch_unwind` can contain. The protocol nests three or
/// four levels deep, trace lines three, the lint baseline three; 64 is
/// bottomless by comparison.
pub const MAX_DEPTH: usize = 64;

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            reason: "trailing content after document",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8, reason: &'static str) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { at: *pos, reason })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(JsonError {
            at: *pos,
            reason: "nesting too deep",
        });
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(b't') => parse_keyword(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, b"false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, b"null", Value::Null),
        _ => Err(JsonError {
            at: *pos,
            reason: "expected a value",
        }),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &[u8],
    value: Value,
) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError {
            at: *pos,
            reason: "unrecognised keyword",
        })
    }
}

/// Consumes a run of at least one ASCII digit.
fn digits(bytes: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == start {
        return Err(JsonError {
            at: start,
            reason: "expected a digit",
        });
    }
    Ok(())
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: integers
/// become [`Value::U64`] or [`Value::I64`], the rest [`Value::F64`].
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    let negative = bytes[start] == b'-';
    if negative {
        *pos += 1;
    }
    let int_start = *pos;
    digits(bytes, pos)?;
    if bytes[int_start] == b'0' && *pos - int_start > 1 {
        return Err(JsonError {
            at: start,
            reason: "leading zeros are not valid JSON",
        });
    }
    let int_end = *pos;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(bytes, pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(bytes, pos)?;
    }
    // The number is ASCII, so every slice of it is a `str`.
    let text = |range: std::ops::Range<usize>| std::str::from_utf8(&bytes[range]).unwrap_or("");
    if *pos != int_end {
        return match text(start..*pos).parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::F64(v)),
            _ => Err(JsonError {
                at: start,
                reason: "number overflows f64",
            }),
        };
    }
    let magnitude = text(int_start..int_end).parse::<u64>();
    match (negative, magnitude) {
        (false, Ok(v)) => Ok(Value::U64(v)),
        (true, Ok(v)) => 0i64
            .checked_sub_unsigned(v)
            .map(Value::I64)
            .ok_or(JsonError {
                at: start,
                reason: "integer overflows i64",
            }),
        (false, Err(_)) => Err(JsonError {
            at: start,
            reason: "integer overflows u64",
        }),
        (true, Err(_)) => Err(JsonError {
            at: start,
            reason: "integer overflows i64",
        }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "expected a string")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    at: *pos,
                    reason: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escape = bytes.get(*pos).copied().ok_or(JsonError {
                    at: *pos,
                    reason: "unterminated escape",
                })?;
                *pos += 1;
                match escape {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError {
                            at: *pos,
                            reason: "truncated \\u escape",
                        })?;
                        // `from_str_radix` alone also accepts a leading
                        // '+'; JSON requires exactly four hex digits.
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(JsonError {
                                at: *pos,
                                reason: "invalid \\u escape",
                            });
                        }
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError {
                                at: *pos,
                                reason: "invalid \\u escape",
                            })?;
                        // Surrogates are rejected rather than paired:
                        // every writer in the workspace emits non-ASCII
                        // characters raw.
                        let ch = char::from_u32(code).ok_or(JsonError {
                            at: *pos,
                            reason: "\\u escape is not a scalar value",
                        })?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos - 1,
                            reason: "unknown escape",
                        })
                    }
                }
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash in
                // one slice: both are ASCII, so the run ends on a char
                // boundary, and the scan stays linear in the input size.
                let rest = &bytes[*pos..];
                let len = rest
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(rest.len());
                let run = std::str::from_utf8(&rest[..len]).map_err(|_| JsonError {
                    at: *pos,
                    reason: "invalid UTF-8",
                })?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'[', "expected an array")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    reason: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'{', "expected an object")?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':' after key")?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            _ => {
                return Err(JsonError {
                    at: *pos,
                    reason: "expected ',' or '}'",
                })
            }
        }
    }
}

/// Renders `value` as compact JSON.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// Renders `value` with two-space indentation, one array element or
/// object entry per line and `": "` after keys, so a committed file
/// diffs line per entry. Empty containers stay `[]` / `{}`.
pub fn render_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => write_f64(out, *v),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, value: &Value, indent: usize) {
    let (open, close, entries): (char, char, Vec<(Option<&str>, &Value)>) = match value {
        Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Value::Object(pairs) => (
            '{',
            '}',
            pairs.iter().map(|(k, v)| (Some(&**k), v)).collect(),
        ),
        scalar => return write_value(out, scalar),
    };
    out.push(open);
    for (i, (key, item)) in entries.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(indent + 1));
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        write_pretty(out, item, indent + 1);
    }
    if !entries.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

/// Writes `s` as a JSON string literal (with quotes): `"`, `\` and
/// control characters are escaped, everything else is copied raw.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between
    // them split `s` on char boundaries and copy as whole slices.
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let control;
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            c if c < 0x20 => {
                control = format!("\\u{c:04x}");
                &control
            }
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        out.push_str(escape);
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

/// Writes `v` as a token that parses back to the same [`Value::F64`]:
/// a finite value always carries a `.` or an exponent, so it never
/// reads back as an integer. Non-finite values have no JSON form and
/// become `null`.
pub fn write_f64(out: &mut String, v: f64) {
    let _ = if !v.is_finite() {
        out.write_str("null")
    } else if v.fract() != 0.0 {
        write!(out, "{v}")
    } else if v.abs() < 1e15 {
        write!(out, "{v:.1}")
    } else {
        write!(out, "{v:e}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let text = r#"{"id":7,"tenant":"a\nb","steps":[1,2,3],"hit":true,"none":null}"#;
        let value = parse(text).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(value.get("tenant").and_then(Value::as_str), Some("a\nb"));
        assert_eq!(value.get("hit").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("none"), Some(&Value::Null));
        assert_eq!(parse(&render(&value)).unwrap(), value);
        // Document order survives the round trip byte for byte.
        assert_eq!(render(&value), text);
    }

    #[test]
    fn repeated_keys_read_as_the_last_value() {
        let value = parse(r#"{"id":1,"id":2}"#).unwrap();
        assert_eq!(value.get("id").and_then(Value::as_u64), Some(2));
        assert_eq!(value.as_object().map(<[_]>::len), Some(2));
    }

    #[test]
    fn unicode_escapes_decode() {
        let value = parse(r#""Aé""#).unwrap();
        assert_eq!(value.as_str(), Some("Aé"));
    }

    #[test]
    fn control_characters_render_escaped() {
        let rendered = render(&Value::Str("a\u{1}b".into()));
        assert_eq!(rendered, "\"a\\u0001b\"");
        assert_eq!(parse(&rendered).unwrap().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, value) in [
            ("0", Value::U64(0)),
            ("10", Value::U64(10)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("-0", Value::I64(0)),
            ("-7", Value::I64(-7)),
            ("-9223372036854775808", Value::I64(i64::MIN)),
            ("0.5", Value::F64(0.5)),
            ("-2.5e-3", Value::F64(-2.5e-3)),
            ("1E2", Value::F64(100.0)),
            ("1e+2", Value::F64(100.0)),
            ("3.0", Value::F64(3.0)),
        ] {
            assert_eq!(parse(text), Ok(value), "{text}");
        }
        for (text, reason) in [
            ("007", "leading zeros are not valid JSON"),
            ("-01", "leading zeros are not valid JSON"),
            ("18446744073709551616", "integer overflows u64"),
            ("-9223372036854775809", "integer overflows i64"),
            ("1e400", "number overflows f64"),
            ("-", "expected a digit"),
            ("1.", "expected a digit"),
            ("1.e5", "expected a digit"),
            ("1e", "expected a digit"),
            ("1e+", "expected a digit"),
            ("+1", "expected a value"),
            (".5", "expected a value"),
            ("1.5.3", "trailing content after document"),
        ] {
            assert_eq!(parse(text).unwrap_err().reason, reason, "{text}");
        }
        assert_eq!(parse("-01").unwrap_err().at, 0);
    }

    #[test]
    fn floats_render_as_float_tokens_that_round_trip() {
        for v in [
            3.0,
            1e14,
            1e15,
            -2e15,
            1.5e20,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.1,
            -0.0,
        ] {
            let mut text = String::new();
            write_f64(&mut text, v);
            assert!(text.contains(['.', 'e']), "{v}: {text}");
            assert_eq!(parse(&text), Ok(Value::F64(v)), "{v}: {text}");
        }
        assert_eq!(render(&Value::F64(f64::NAN)), "null");
        assert_eq!(render(&Value::F64(f64::NEG_INFINITY)), "null");
    }

    #[test]
    fn pretty_layout_is_two_space_indented() {
        let doc = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::U64(1), Value::Null])),
            ("b".into(), Value::Object(vec![])),
            ("c".into(), Value::Array(vec![])),
            (
                "d\"".into(),
                Value::Object(vec![("x".into(), Value::I64(-1))]),
            ),
        ]);
        let text = render_pretty(&doc);
        assert_eq!(
            text,
            "{\n  \"a\": [\n    1,\n    null\n  ],\n  \"b\": {},\n  \"c\": [],\n  \"d\\\"\": {\n    \"x\": -1\n  }\n}"
        );
        assert_eq!(parse(&text), Ok(doc));
    }

    #[test]
    fn malformed_documents_report_offsets() {
        for (text, reason, at) in [
            ("{", "expected a string", 1),
            ("[1,]", "expected a value", 3),
            ("12x", "trailing content after document", 2),
            ("\"abc", "unterminated string", 4),
            ("{\"a\" 1}", "expected ':' after key", 5),
            ("[1 2]", "expected ',' or ']'", 3),
            ("{\"a\":1 2}", "expected ',' or '}'", 7),
            ("nul", "unrecognised keyword", 0),
            ("", "expected a value", 0),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!((err.reason, err.at), (reason, at), "{text}");
        }
    }

    #[test]
    fn nested_structures_parse() {
        let value = parse(r#"[{"a":[{"b":0}]},[]]"#).unwrap();
        let outer = value.as_array().unwrap();
        assert_eq!(outer.len(), 2);
        assert!(outer[0].get("a").is_some());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // Well past MAX_DEPTH but nowhere near enough bytes to matter:
        // without the depth limit this many '[' would blow the stack
        // and abort the process.
        let bomb = "[".repeat(100_000);
        let err = parse(&bomb).unwrap_err();
        assert_eq!(err.reason, "nesting too deep");
        // Mixed nesting is caught too, and at the limit parsing works.
        assert_eq!(
            parse(&"[{\"k\":".repeat(20_000)).unwrap_err().reason,
            "nesting too deep"
        );
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let too_deep = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(parse(&too_deep).unwrap_err().reason, "nesting too deep");
    }

    #[test]
    fn non_json_lookalikes_are_rejected() {
        // from_str_radix would happily take the '+'.
        assert_eq!(
            parse(r#""\u+04A""#).unwrap_err().reason,
            "invalid \\u escape"
        );
        assert_eq!(
            parse(r#""\u00 1""#).unwrap_err().reason,
            "invalid \\u escape"
        );
        assert_eq!(
            parse(r#""\ud800""#).unwrap_err().reason,
            "\\u escape is not a scalar value"
        );
    }
}
