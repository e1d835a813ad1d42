//! Property tests for the JSON codec's string paths.
//!
//! The codec copies each run of plain bytes as one slice. The oracles
//! below are the original char-at-a-time `parse_string` and
//! `write_string`: on every input they must agree with the codec on the
//! parsed value, on the exact `JsonError` (offset and reason), and on
//! every rendered byte.

use proptest::prelude::*;
use tela_trace::json::{self, JsonError, Value};

fn oracle_parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            at: *pos,
            reason: "expected a string",
        });
    }
    *pos += 1;
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
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| JsonError {
                    at: *pos,
                    reason: "invalid UTF-8",
                })?;
                let ch = s.chars().next().ok_or(JsonError {
                    at: *pos,
                    reason: "unterminated string",
                })?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// The original `json::parse` restricted to documents that start with
/// a string: the string, then only whitespace.
fn oracle_parse(text: &str) -> Result<Value, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = oracle_parse_string(bytes, &mut pos)?;
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            reason: "trailing content after document",
        });
    }
    Ok(Value::Str(value))
}

fn oracle_write_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

const WIDE: [&str; 7] = ["é", "ß", "中", "🦀", "\u{7ff}", "\u{800}", "\u{10ffff}"];

/// One piece of a string literal's body, as it appears on the wire:
/// plain text, every escape form (valid, malformed, unknown), raw
/// multi-byte UTF-8 and raw control characters, and stray quotes or
/// backslashes that end or break the literal early.
fn wire_piece(kind: u8, v: u32) -> String {
    match kind {
        0 | 1 => ((b'a' + (v % 26) as u8) as char).to_string(),
        2 => ["\\\"", "\\\\", "\\/"][v as usize % 3].to_string(),
        3 => ["\\n", "\\r", "\\t", "\\b", "\\f"][v as usize % 5].to_string(),
        // Includes surrogates, which are not scalar values.
        4 => format!("\\u{:04x}", v & 0xffff),
        5 => format!("\\u{:04X}", v & 0xffff),
        6 => ["\\u+04A", "\\u00 1", "\\u12G4", "\\u1", "\\u"][v as usize % 5].to_string(),
        7 => WIDE[v as usize % WIDE.len()].to_string(),
        8 => char::from_u32(v % 0x20).unwrap().to_string(),
        9 => ["\\x", "\\a", "\\'", "\\0", "\\U"][v as usize % 5].to_string(),
        10 => "\\".to_string(),
        _ => "\"".to_string(),
    }
}

/// A string document as a frame would carry it: opening quote, body,
/// one of several endings, then optionally truncated at a char boundary
/// (never before the opening quote).
fn frame(pieces: &[(u8, u32)], ending: u8, cut: usize) -> String {
    let mut text = String::from("\"");
    for &(kind, v) in pieces {
        text.push_str(&wire_piece(kind, v));
    }
    text.push_str(["\"", "", "\" \n", "\"x", "\"\""][ending as usize % 5]);
    if cut.is_multiple_of(3) {
        let mut at = 1 + cut % text.len();
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        text.truncate(at);
    }
    text
}

/// A decoded string with every character class the writer escapes.
fn plain_string(chars: &[(u8, u32)]) -> String {
    chars
        .iter()
        .map(|&(kind, v)| match kind {
            0..=3 => (b' ' + (v % 95) as u8) as char,
            4 => ['"', '\\', '/'][v as usize % 3],
            5 => char::from_u32(v % 0x20).unwrap(),
            6 => '\u{7f}',
            _ => WIDE[v as usize % WIDE.len()].chars().next().unwrap(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn parse_matches_the_char_at_a_time_oracle(
        pieces in prop::collection::vec((0u8..12, 0u32..0x1_0000), 0..40),
        ending in 0u8..5,
        cut in 0usize..600,
    ) {
        let text = frame(&pieces, ending, cut);
        prop_assert_eq!(json::parse(&text), oracle_parse(&text), "{:?}", text);
    }

    #[test]
    fn render_matches_the_char_at_a_time_oracle(
        chars in prop::collection::vec((0u8..9, 0u32..0x1_0000), 0..60),
    ) {
        let s = plain_string(&chars);
        let mut expected = String::new();
        oracle_write_string(&s, &mut expected);
        prop_assert_eq!(json::render(&Value::Str(s.clone())), expected.clone());
        // Object keys take the same path.
        let object = Value::Object([(s.clone(), Value::Null)].into_iter().collect());
        prop_assert_eq!(json::render(&object), format!("{{{expected}:null}}"));
        prop_assert_eq!(json::parse(&expected), Ok(Value::Str(s)));
    }
}

#[test]
fn generated_frames_cover_every_outcome() {
    // Guards the generators: a strategy that stopped producing some
    // error kind would let the oracle test pass vacuously.
    let mut rng = proptest::test_runner::TestRng::deterministic("coverage");
    let mut reasons = std::collections::BTreeSet::new();
    for _ in 0..4096 {
        let pieces: Vec<(u8, u32)> = (0..rng.below(40))
            .map(|_| (rng.below(12) as u8, rng.below(0x1_0000) as u32))
            .collect();
        let text = frame(&pieces, rng.below(5) as u8, rng.below(600) as usize);
        reasons.insert(match json::parse(&text) {
            Ok(_) => "ok",
            Err(e) => e.reason,
        });
    }
    for reason in [
        "ok",
        "unterminated string",
        "unterminated escape",
        "truncated \\u escape",
        "invalid \\u escape",
        "\\u escape is not a scalar value",
        "unknown escape",
        "trailing content after document",
    ] {
        assert!(
            reasons.contains(reason),
            "{reason} never generated: {reasons:?}"
        );
    }
}
