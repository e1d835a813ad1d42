//! A minimal JSON reader/writer for the wire protocol.
//!
//! The build environment has no registry access, so the server speaks
//! JSON through this hand-rolled subset instead of serde: objects,
//! arrays, strings (with `\" \\ \/ \n \r \t \uXXXX` escapes), unsigned
//! integers, booleans, and null. That covers the whole protocol — no
//! floats, no nested escapes beyond the JSON spec — while staying
//! strict enough that malformed frames turn into a typed
//! [`JsonError`] the server can answer with a terminal rejection.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value (protocol subset: integers only, no floats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the protocol never sends negatives).
    U64(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; `BTreeMap` keeps rendering deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
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

    /// Looks up `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }
}

/// Maximum container nesting depth.
///
/// The parser recurses per `[`/`{`, so without a bound a frame of a few
/// tens of KB of `[` (far under the frame-size cap) would overflow the
/// connection thread's stack — and a stack overflow aborts the whole
/// process, which no `catch_unwind` can contain. The protocol nests
/// three or four levels deep; 64 is bottomless by comparison.
pub const MAX_DEPTH: usize = 64;

/// Why a payload failed to parse.
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
        Some(b'0'..=b'9') => parse_number(bytes, pos),
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

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    let mut value: u64 = 0;
    while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(b - b'0')))
            .ok_or(JsonError {
                at: start,
                reason: "integer overflows u64",
            })?;
        *pos += 1;
    }
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
        return Err(JsonError {
            at: *pos,
            reason: "only unsigned integers are supported",
        });
    }
    if bytes[start] == b'0' && *pos - start > 1 {
        return Err(JsonError {
            at: start,
            reason: "leading zeros are not valid JSON",
        });
    }
    Ok(Value::U64(value))
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
                        // the protocol is ASCII in practice.
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
                // boundary, and the scan stays linear in the frame size.
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
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':' after key")?;
        let value = parse_value(bytes, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
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
    write_value(value, &mut out);
    out
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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
    fn malformed_documents_report_offsets() {
        for (text, reason) in [
            ("{", "expected a string"),
            ("[1,]", "expected a value"),
            ("12x", "trailing content after document"),
            ("1.5", "only unsigned integers are supported"),
            ("\"abc", "unterminated string"),
            ("99999999999999999999999", "integer overflows u64"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.reason, reason, "{text}");
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
        // Leading zeros are not JSON numbers; a bare zero is.
        assert_eq!(
            parse("007").unwrap_err().reason,
            "leading zeros are not valid JSON"
        );
        assert_eq!(parse("0").unwrap(), Value::U64(0));
        assert_eq!(parse("10").unwrap(), Value::U64(10));
    }
}
