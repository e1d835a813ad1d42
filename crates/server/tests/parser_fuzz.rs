//! Mutation fuzzing of every entry point that reads JSON: the server's
//! `protocol::parse_addressed`, trace `parse_jsonl`, and `tela-lint`'s
//! `Baseline::parse`. All three go through `tela_trace::json`.
//!
//! Valid documents are mutated with byte flips, truncations, deletions
//! and spliced runs of `[`/`{` (some past `MAX_DEPTH`). Invariants: no
//! entry point panics, every error the codec raises carries a byte
//! offset within the text it was given and reaches the caller intact,
//! and the callers' own shape errors arise only for text the codec
//! accepted.

use proptest::prelude::*;
use tela_lint::Baseline;
use tela_server::protocol::{parse_addressed, render_request, ProtocolError};
use tela_server::Request;
use tela_trace::json::{self, MAX_DEPTH};
use tela_trace::{parse_jsonl, write_jsonl, Tracer, Value};

/// One edit: `(kind, position, argument)`; positions wrap to the input.
type Mutation = (u8, usize, u32);

const SPLICES: [&str; 5] = ["[", "{\"k\":", "[{\"a\":", "{\"", "[\""];
const BYTES: &[u8] = b"\"\\{}[],:-.e0 \nu+";

fn mutate(doc: &str, mutations: &[Mutation]) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for &(kind, pos, arg) in mutations {
        let at = pos % (bytes.len() + 1);
        match kind % 5 {
            0 if at < bytes.len() => bytes[at] ^= 1 + (arg % 255) as u8,
            1 if at < bytes.len() => bytes[at] = BYTES[arg as usize % BYTES.len()],
            2 => bytes.truncate(at),
            3 => {
                let end = (at + 1 + arg as usize % 16).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => {
                // Mostly shallow runs; one in four goes past the limit.
                let run = if arg % 4 == 0 {
                    MAX_DEPTH + (arg as usize % 200)
                } else {
                    arg as usize % 8
                };
                let splice = SPLICES[arg as usize % SPLICES.len()].repeat(run);
                bytes.splice(at..at, splice.bytes());
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn requests() -> Vec<String> {
    let request = Request {
        id: 17,
        tenant: "prod \"eu\"".into(),
        problem: "capacity 64\nbuffer 0 4 16\nbuffer 2 9 32\n".into(),
        max_steps: Some(5000),
        deadline_ms: Some(250),
        trace: true,
    };
    vec![
        render_request(&request),
        render_request(&Request {
            max_steps: None,
            deadline_ms: None,
            trace: false,
            ..request
        }),
        r#"{"cmd":"stats","id":1}"#.to_string(),
    ]
}

fn traces() -> Vec<String> {
    let t = Tracer::logical();
    let span = t.begin("search", "solve", vec![("buffers".into(), 4usize.into())]);
    t.instant(
        "portfolio",
        "variant_panicked",
        vec![
            ("message".into(), "boom \"quoted\"\nline2 é".into()),
            ("ratio".into(), Value::F64(0.25)),
            ("big".into(), Value::F64(1.5e20)),
            ("delta".into(), Value::I64(-3)),
        ],
    );
    t.end(
        span,
        "search",
        "solve",
        vec![("outcome".into(), "solved".into())],
    );
    t.count("search.steps", 42);
    t.set_gauge("solution.peak", -1);
    t.observe("cp.conflict.clique_size", 17);
    vec![write_jsonl(&t.snapshot().unwrap())]
}

fn baselines() -> Vec<String> {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint-baseline.json");
    vec![std::fs::read_to_string(committed).expect("committed lint baseline")]
}

/// Checks one error against what the codec itself says about `text`
/// (the text the entry point handed it): `codec_error` is the codec
/// error the entry point reported, `None` for a shape error.
fn check_error(text: &str, codec_error: Option<String>) -> &'static str {
    match (json::parse(text), codec_error) {
        (Err(e), Some(reported)) => {
            assert!(e.at <= text.len(), "offset {} past {}", e.at, text.len());
            assert_eq!(reported, e.to_string());
            e.reason
        }
        (Ok(_), None) => "shape",
        (parsed, reported) => panic!("codec said {parsed:?}, caller said {reported:?}"),
    }
}

/// Runs one mutated request frame; returns the outcome's class.
fn frame_outcome(text: &str) -> &'static str {
    match parse_addressed(text) {
        Ok(_) => "ok",
        Err((_, ProtocolError::Json(e))) => check_error(text, Some(e.to_string())),
        Err((_, ProtocolError::Shape(_))) => check_error(text, None),
        Err((_, other)) => panic!("unexpected {other:?}"),
    }
}

/// Runs one mutated trace; returns the outcome's class.
fn jsonl_outcome(text: &str) -> &'static str {
    let Err(err) = parse_jsonl(text) else {
        return "ok";
    };
    let line = text
        .lines()
        .nth(err.line - 1)
        .unwrap_or_else(|| panic!("error on line {} of {}", err.line, text.lines().count()))
        .trim();
    let codec = err
        .message
        .starts_with("invalid JSON")
        .then_some(err.message);
    check_error(line, codec)
}

/// Runs one mutated baseline; returns the outcome's class.
fn baseline_outcome(text: &str) -> &'static str {
    let Err(message) = Baseline::parse(text) else {
        return "ok";
    };
    let codec = message.starts_with("invalid JSON").then_some(message);
    check_error(text, codec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_request_frames_never_panic(
        seed in 0usize..3,
        mutations in prop::collection::vec((0u8..5, 0usize..1 << 16, 0u32..1 << 16), 1..5),
    ) {
        frame_outcome(&mutate(&requests()[seed], &mutations));
    }

    #[test]
    fn mutated_traces_never_panic(
        mutations in prop::collection::vec((0u8..5, 0usize..1 << 16, 0u32..1 << 16), 1..5),
    ) {
        jsonl_outcome(&mutate(&traces()[0], &mutations));
    }

    #[test]
    fn mutated_baselines_never_panic(
        mutations in prop::collection::vec((0u8..5, 0usize..1 << 16, 0u32..1 << 16), 1..5),
    ) {
        baseline_outcome(&mutate(&baselines()[0], &mutations));
    }
}

#[test]
fn mutations_reach_every_outcome_of_every_entry_point() {
    // Guards the generator: a mutator that stopped producing some
    // outcome would let the properties above pass vacuously.
    type Entry = (&'static str, Vec<String>, fn(&str) -> &'static str);
    let entries: [Entry; 3] = [
        ("parse_addressed", requests(), frame_outcome),
        ("parse_jsonl", traces(), jsonl_outcome),
        ("Baseline::parse", baselines(), baseline_outcome),
    ];
    for (name, docs, outcome) in entries {
        let mut rng = proptest::test_runner::TestRng::deterministic(name);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4096 {
            let doc = &docs[rng.below(docs.len() as u64) as usize];
            let mutations: Vec<Mutation> = (0..1 + rng.below(2))
                .map(|_| {
                    (
                        rng.below(5) as u8,
                        rng.below(1 << 16) as usize,
                        rng.below(1 << 16) as u32,
                    )
                })
                .collect();
            seen.insert(outcome(&mutate(doc, &mutations)));
        }
        for expected in [
            "ok",
            "shape",
            "nesting too deep",
            "unterminated string",
            "expected a value",
            "trailing content after document",
        ] {
            assert!(
                seen.contains(expected),
                "{name}: {expected} never generated: {seen:?}"
            );
        }
    }
}
