//! JSONL export and import of traces.
//!
//! One JSON object per line, hand-rolled on both sides (the workspace
//! is deliberately dependency-free):
//!
//! - line 1 — header: trace format version, clock mode, event count,
//!   and the wall-clock capture time. The capture time is the *only*
//!   nondeterministic part of a logical-clock trace, which is why the
//!   determinism tests compare everything after the first newline.
//! - then one line per event, in sequence order:
//!   `{"seq":..,"ts":..,"ph":"B","span":..,"layer":"..","name":"..","fields":{..}}`
//! - then one line per metric series:
//!   `{"metric":"..","type":"counter","value":..}` (gauges and
//!   histograms analogous).
//!
//! The parser accepts exactly the subset the writer emits (plus
//! whitespace), enough for `tela-viz` and the timeline renderer to
//! consume exported traces without a JSON library.

use std::fmt::Write as _;

use crate::event::{Event, Phase, Value};
use crate::metrics::{Histogram, MetricEntry, MetricValue};
use crate::tracer::{ClockMode, Trace};

/// Escapes `s` into `out` as a JSON string literal (with quotes).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn push_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => {
            if v.is_finite() {
                // Always include a decimal point so the parser can tell
                // floats from integers on the way back in.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{v:.1}");
                } else {
                    let _ = write!(out, "{v}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => push_json_str(out, s),
    }
}

/// Serializes a trace to JSONL. The first line is the wall-clock
/// header; every later line is deterministic for logical-clock traces.
pub fn write_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "{{\"trace\":\"tela\",\"version\":1,\"clock\":\"{}\",\"events\":{},\"captured_unix_ms\":{}}}",
        trace.clock.tag(),
        trace.events.len(),
        unix_ms
    );
    for event in &trace.events {
        out.push_str("{\"seq\":");
        let _ = write!(out, "{}", event.seq);
        out.push_str(",\"ts\":");
        let _ = write!(out, "{}", event.ts);
        out.push_str(",\"ph\":\"");
        out.push_str(event.phase.tag());
        out.push_str("\",\"span\":");
        let _ = write!(out, "{}", event.span);
        out.push_str(",\"layer\":");
        push_json_str(&mut out, &event.layer);
        out.push_str(",\"name\":");
        push_json_str(&mut out, &event.name);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in event.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_value(&mut out, v);
        }
        out.push_str("}}\n");
    }
    for entry in &trace.metrics {
        out.push_str("{\"metric\":");
        push_json_str(&mut out, &entry.name);
        match &entry.value {
            MetricValue::Counter(v) => {
                let _ = write!(out, ",\"type\":\"counter\",\"value\":{v}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, ",\"type\":\"gauge\",\"value\":{v}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
                    h.count,
                    h.sum,
                    if h.count == 0 { 0 } else { h.min },
                    h.max
                );
                // Derived quantiles (see [`Histogram::quantile`] for the
                // error bound). The parser ignores them — they are
                // recomputable from the buckets — so the round trip is
                // unaffected.
                for (tag, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    let _ = write!(out, ",\"{tag}\":{}", h.quantile(q).unwrap_or(0));
                }
                out.push_str(",\"buckets\":[");
                for (i, b) in h.buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{b}");
                }
                out.push(']');
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Error from [`parse_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where parsing failed (0 when the whole input is bad).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value from the subset the writer emits.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(f64),
    Int(i64),
    UInt(u64),
    Bool(bool),
    Null,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Maximum container nesting depth. The parser recurses per `[`/`{`,
/// so without a bound a line of a few hundred KB of `[` overflows the
/// reader's stack and aborts the process. Trace lines nest three levels
/// deep (event → fields → value).
const MAX_DEPTH: usize = 64;

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.pos))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, got {:?}",
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' in array, got {:?}",
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|b| b as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // in one slice (both are ASCII, so the run ends on a
                    // char boundary): the scan stays linear in the line.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| "invalid utf-8")?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}'"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number '{text}'"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| format!("bad number '{text}'"))
        }
    }
}

fn json_to_value(json: &Json) -> Result<Value, String> {
    Ok(match json {
        Json::UInt(v) => Value::U64(*v),
        Json::Int(v) => Value::I64(*v),
        Json::Num(v) => Value::F64(*v),
        Json::Bool(v) => Value::Bool(*v),
        Json::Null => Value::F64(f64::NAN),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Arr(_) | Json::Obj(_) => return Err("nested field values unsupported".to_string()),
    })
}

fn parse_event(obj: &Json, line: usize) -> Result<Event, ParseError> {
    let err = |message: String| ParseError { line, message };
    let seq = obj
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("missing seq".to_string()))?;
    let ts = obj
        .get("ts")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("missing ts".to_string()))?;
    let phase = obj
        .get("ph")
        .and_then(Json::as_str)
        .and_then(Phase::from_tag)
        .ok_or_else(|| err("bad phase tag".to_string()))?;
    let span = obj
        .get("span")
        .and_then(Json::as_u64)
        .ok_or_else(|| err("missing span".to_string()))?;
    let layer = obj
        .get("layer")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing layer".to_string()))?
        .to_string();
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing name".to_string()))?
        .to_string();
    let mut fields = Vec::new();
    if let Some(Json::Obj(pairs)) = obj.get("fields") {
        for (k, v) in pairs {
            let value = json_to_value(v).map_err(|message| ParseError { line, message })?;
            fields.push((k.clone().into(), value));
        }
    }
    Ok(Event {
        seq,
        ts,
        phase,
        span,
        layer: layer.into(),
        name: name.into(),
        fields,
    })
}

fn parse_metric(obj: &Json, line: usize) -> Result<MetricEntry, ParseError> {
    let err = |message: String| ParseError { line, message };
    let name = obj
        .get("metric")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing metric name".to_string()))?
        .to_string();
    let kind = obj
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing metric type".to_string()))?;
    let value = match kind {
        "counter" => MetricValue::Counter(
            obj.get("value")
                .and_then(Json::as_u64)
                .ok_or_else(|| err("bad counter value".to_string()))?,
        ),
        "gauge" => {
            let v = match obj.get("value") {
                Some(Json::Int(v)) => *v,
                Some(Json::UInt(v)) => {
                    i64::try_from(*v).map_err(|_| err("gauge out of range".to_string()))?
                }
                _ => return Err(err("bad gauge value".to_string())),
            };
            MetricValue::Gauge(v)
        }
        "histogram" => {
            let count = obj
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| err("bad histogram".to_string()))?;
            let sum = obj.get("sum").and_then(Json::as_u64).unwrap_or(0);
            let min = obj.get("min").and_then(Json::as_u64).unwrap_or(0);
            let max = obj.get("max").and_then(Json::as_u64).unwrap_or(0);
            let mut buckets = [0u64; Histogram::BUCKETS];
            if let Some(Json::Arr(items)) = obj.get("buckets") {
                for (i, item) in items.iter().take(Histogram::BUCKETS).enumerate() {
                    buckets[i] = item.as_u64().unwrap_or(0);
                }
            }
            MetricValue::Histogram(Histogram {
                count,
                sum,
                min: if count == 0 { u64::MAX } else { min },
                max,
                buckets,
            })
        }
        other => return Err(err(format!("unknown metric type '{other}'"))),
    };
    Ok(MetricEntry { name, value })
}

/// Parses a trace previously produced by [`write_jsonl`].
pub fn parse_jsonl(input: &str) -> Result<Trace, ParseError> {
    let mut clock = ClockMode::Wall;
    let mut events = Vec::new();
    let mut metrics = Vec::new();
    let mut saw_header = false;
    for (idx, raw) in input.lines().enumerate() {
        let line = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let mut cursor = Cursor::new(raw);
        let obj = cursor
            .parse_value(0)
            .map_err(|message| ParseError { line, message })?;
        if !saw_header && obj.get("trace").is_some() {
            saw_header = true;
            if obj.get("clock").and_then(Json::as_str) == Some("logical") {
                clock = ClockMode::Logical;
            }
        } else if obj.get("metric").is_some() {
            metrics.push(parse_metric(&obj, line)?);
        } else if obj.get("seq").is_some() {
            events.push(parse_event(&obj, line)?);
        } else {
            return Err(ParseError {
                line,
                message: "line is neither header, event, nor metric".to_string(),
            });
        }
    }
    events.sort_by_key(|e| e.seq);
    Ok(Trace {
        clock,
        events,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn sample_trace() -> Trace {
        let t = Tracer::logical();
        let solve = t.begin("search", "solve", vec![("buffers".into(), 4usize.into())]);
        t.instant(
            "audit",
            "certificate",
            vec![
                ("kind".into(), "pair_pigeonhole".into()),
                ("feasible".into(), false.into()),
            ],
        );
        t.instant(
            "portfolio",
            "variant_panicked",
            vec![("message".into(), "boom \"quoted\"\nline2".into())],
        );
        t.end(
            solve,
            "search",
            "solve",
            vec![("outcome".into(), "solved".into())],
        );
        t.count("search.steps", 42);
        t.set_gauge("solution.peak", -1);
        t.observe("cp.conflict.clique_size", 3);
        t.observe("cp.conflict.clique_size", 17);
        t.snapshot().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let text = write_jsonl(&trace);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed.clock, trace.clock);
        assert_eq!(parsed.events, trace.events);
        assert_eq!(parsed.metrics, trace.metrics);
    }

    #[test]
    fn header_is_first_line_and_holds_wall_clock() {
        let text = write_jsonl(&sample_trace());
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"trace\":\"tela\""));
        assert!(header.contains("\"clock\":\"logical\""));
        assert!(header.contains("captured_unix_ms"));
    }

    #[test]
    fn body_after_header_is_deterministic() {
        let text_a = write_jsonl(&sample_trace());
        let text_b = write_jsonl(&sample_trace());
        let body = |t: &str| t.split_once('\n').unwrap().1.to_string();
        assert_eq!(body(&text_a), body(&text_b));
    }

    #[test]
    fn string_escaping_survives() {
        let trace = sample_trace();
        let parsed = parse_jsonl(&write_jsonl(&trace)).unwrap();
        let panic_event = parsed
            .events
            .iter()
            .find(|e| e.name == "variant_panicked")
            .unwrap();
        assert_eq!(
            panic_event.field("message").and_then(Value::as_str),
            Some("boom \"quoted\"\nline2")
        );
    }

    #[test]
    fn histogram_lines_carry_quantiles() {
        let text = write_jsonl(&sample_trace());
        let hist_line = text
            .lines()
            .find(|l| l.contains("cp.conflict.clique_size"))
            .unwrap();
        // Samples 3 and 17: p50 -> bucket 1 upper bound 3, p99 -> 17.
        assert!(hist_line.contains("\"p50\":3"), "{hist_line}");
        assert!(hist_line.contains("\"p90\":17"), "{hist_line}");
        assert!(hist_line.contains("\"p99\":17"), "{hist_line}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let bomb = "[".repeat(200_000);
        let err = parse_jsonl(&bomb).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("nesting too deep"), "{err}");
        let mixed = format!("{{\"seq\":{}", "{\"k\":[".repeat(50_000));
        assert!(parse_jsonl(&mixed)
            .unwrap_err()
            .message
            .contains("nesting too deep"));
        // At the limit the line parses (and is then rejected for its
        // shape, not its depth).
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let err = parse_jsonl(&ok).unwrap_err();
        assert!(!err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_jsonl("not json").is_err());
        let err = parse_jsonl("{\"unrelated\":1}").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
    }
}
