//! Trace determinism: two identical solves under the logical clock must
//! produce byte-identical JSONL traces.
//!
//! The exported artifact has exactly one nondeterministic line — the
//! wall-clock capture header — so every test here strips the first line
//! and compares the rest byte-for-byte. This is the property that makes
//! traces diffable: a behavior change between two builds shows up as a
//! textual diff against a recorded baseline, and an unchanged solver
//! produces an empty diff.
//!
//! Wall-time histograms (`*.elapsed_us`) are deliberately skipped under
//! [`tela_trace::ClockMode::Logical`]; if one ever leaks into a logical
//! trace these tests catch it as flaky metric lines.

use tela_model::{examples, Budget, Buffer, Problem};
use tela_trace::{write_jsonl, Tracer};
use telamalloc::{solve_portfolio, EscalationLadder, SpillHook, TelaConfig};

/// Runs `f` against a fresh logical-clock tracer and returns the JSONL
/// body (everything after the wall-clock header line).
fn traced_body(f: impl FnOnce(&TelaConfig)) -> String {
    let tracer = Tracer::logical();
    let config = TelaConfig {
        // Determinism requires the sequential race: parallel workers
        // interleave their buffer flushes in OS-scheduling order.
        threads: 1,
        tracer: tracer.clone(),
        ..TelaConfig::default()
    };
    f(&config);
    let trace = tracer.snapshot().expect("tracer is enabled");
    let jsonl = write_jsonl(&trace);
    let (header, body) = jsonl.split_once('\n').expect("header line");
    assert!(header.contains("\"clock\":\"logical\""));
    body.to_string()
}

#[test]
fn identical_portfolio_solves_trace_identically() {
    let run = || {
        traced_body(|config| {
            let p = examples::figure1();
            let race = solve_portfolio(&p, &Budget::steps(200_000), config);
            assert!(race.result.outcome.is_solved());
        })
    };
    let first = run();
    assert_eq!(first, run(), "logical traces must be byte-identical");
    assert!(!first.is_empty(), "a solve emits events and metrics");
}

/// Evicts the last buffer each round so the ladder exercises spill
/// rounds, preflight certificates, and the greedy stage.
struct DropLast {
    buffers: Vec<Buffer>,
    capacity: u64,
}

impl SpillHook for DropLast {
    fn spill(&mut self, _round: u32) -> Option<Problem> {
        self.buffers.pop()?;
        Problem::new(self.buffers.clone(), self.capacity).ok()
    }
}

#[test]
fn identical_ladder_solves_trace_identically() {
    let run = || {
        traced_body(|config| {
            let buffers: Vec<Buffer> = (0..6).map(|_| Buffer::new(0, 4, 2)).collect();
            let overloaded = Problem::new(buffers.clone(), 8).unwrap();
            let mut hook = DropLast {
                buffers,
                capacity: 8,
            };
            let ladder = EscalationLadder::new(config.clone());
            let result = ladder.solve_with_spill(overloaded, &Budget::steps(200_000), &mut hook);
            assert!(result.spill_rounds > 0, "the ladder must actually spill");
        })
    };
    let first = run();
    assert_eq!(first, run(), "ladder traces must be byte-identical");
    // The certificate wiring (preflight-settled attempts still explain
    // themselves) shows up as audit events in the stream.
    assert!(first.contains("\"layer\":\"audit\""));
    assert!(first.contains("certificate"));
}

/// Chaos determinism: even with an injected variant panic the trace —
/// including the captured panic payload event — is reproducible.
#[cfg(feature = "fault-inject")]
#[test]
fn chaos_run_with_injected_panic_traces_identically() {
    use tela_model::fault::FaultPlan;

    let run = || {
        traced_body(|config| {
            let config = TelaConfig {
                fault_plan: Some(FaultPlan {
                    panic_at_step: Some(5),
                    victim_variant: Some(0),
                    ..FaultPlan::default()
                }),
                ..config.clone()
            };
            let p = examples::figure1();
            let race = solve_portfolio(&p, &Budget::steps(200_000), &config);
            assert_eq!(race.panicked(), 1);
        })
    };
    let first = run();
    assert_eq!(first, run(), "chaos traces must be byte-identical");
    assert!(
        first.contains("variant_panicked"),
        "the panic payload lands in the trace stream"
    );
    assert!(first.contains("injected panic at step"));
}
