//! JSONL export and import of traces.
//!
//! One JSON object per line. The writer streams each line straight
//! into the output through the [`json`] codec's string escaper and
//! float writer; the reader hands each line to [`json::parse`]:
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
//! Field values round-trip with their type: integers as `U64`/`I64`,
//! every finite `F64` as a float token, non-finite floats as `null`
//! (read back as NaN).

use std::fmt::Write as _;

use crate::event::{Event, Phase, Value};
use crate::json::{self, Value as Json};
use crate::metrics::{Histogram, MetricEntry, MetricValue};
use crate::tracer::{ClockMode, Trace};

fn push_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => json::write_f64(out, *v),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => json::write_string(out, s),
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
        json::write_string(&mut out, &event.layer);
        out.push_str(",\"name\":");
        json::write_string(&mut out, &event.name);
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in event.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, k);
            out.push(':');
            push_value(&mut out, v);
        }
        out.push_str("}}\n");
    }
    for entry in &trace.metrics {
        out.push_str("{\"metric\":");
        json::write_string(&mut out, &entry.name);
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

fn json_to_value(json: &Json) -> Result<Value, String> {
    Ok(match json {
        Json::U64(v) => Value::U64(*v),
        Json::I64(v) => Value::I64(*v),
        Json::F64(v) => Value::F64(*v),
        Json::Bool(v) => Value::Bool(*v),
        Json::Null => Value::F64(f64::NAN),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Array(_) | Json::Object(_) => {
            return Err("nested field values unsupported".to_string())
        }
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
    if let Some(Json::Object(pairs)) = obj.get("fields") {
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
        "gauge" => MetricValue::Gauge(
            obj.get("value")
                .and_then(Json::as_i64)
                .ok_or_else(|| err("bad gauge value".to_string()))?,
        ),
        "histogram" => {
            let count = obj
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| err("bad histogram".to_string()))?;
            let sum = obj.get("sum").and_then(Json::as_u64).unwrap_or(0);
            let min = obj.get("min").and_then(Json::as_u64).unwrap_or(0);
            let max = obj.get("max").and_then(Json::as_u64).unwrap_or(0);
            let mut buckets = [0u64; Histogram::BUCKETS];
            if let Some(Json::Array(items)) = obj.get("buckets") {
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
        let obj = json::parse(raw).map_err(|e| ParseError {
            line,
            message: e.to_string(),
        })?;
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
        let ok = format!(
            "{}0{}",
            "[".repeat(json::MAX_DEPTH),
            "]".repeat(json::MAX_DEPTH)
        );
        let err = parse_jsonl(&ok).unwrap_err();
        assert!(!err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn float_fields_keep_their_type() {
        // Integral floats at and above 1e15 used to be written as bare
        // integers: they read back as U64/I64, or not at all.
        let floats = [3.0, 1e14, 1e15, -2e15, 1.5e20, f64::MAX, 0.1];
        let t = Tracer::logical();
        t.instant(
            "test",
            "floats",
            floats
                .iter()
                .map(|&v| ("v".into(), Value::F64(v)))
                .collect(),
        );
        let text = write_jsonl(&t.snapshot().unwrap());
        let parsed = parse_jsonl(&text).unwrap();
        let fields: Vec<&Value> = parsed.events[0].fields.iter().map(|(_, v)| v).collect();
        let expected: Vec<Value> = floats.iter().map(|&v| Value::F64(v)).collect();
        assert_eq!(fields, expected.iter().collect::<Vec<_>>(), "{text}");
    }

    #[test]
    fn non_json_escapes_are_rejected() {
        let event = |name: &str| {
            format!("{{\"seq\":0,\"ts\":0,\"ph\":\"I\",\"span\":0,\"layer\":\"l\",\"name\":\"{name}\"}}")
        };
        assert!(parse_jsonl(&event("ok")).is_ok());
        for bad in ["\\u+04A", "\\ud800"] {
            let err = parse_jsonl(&event(bad)).unwrap_err();
            assert!(err.message.contains("\\u escape"), "{err}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_jsonl("not json").is_err());
        let err = parse_jsonl("{\"unrelated\":1}").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("line 1"));
    }
}
