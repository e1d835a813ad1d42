//! End-to-end observability demo: run a portfolio + escalation-ladder
//! solve with tracing enabled, export the structured trace as JSONL,
//! print the aggregated metrics and the replayable text timeline, and
//! render the SVG swim-lane view.
//!
//! Run with: `cargo run --example trace_timeline`
//!
//! Set `TELA_TRACE=wall` for real nanosecond timestamps; the default
//! here is the logical clock, whose traces are byte-identical across
//! runs (that is what the determinism test in `crates/core/tests`
//! checks).

use tela_model::{examples, Budget, Buffer, Problem};
use tela_trace::{parse_jsonl, render_metrics, render_timeline, write_jsonl, Tracer};
use telamalloc::{EscalationLadder, SpillHook, TelaConfig};

/// Evicts the last buffer each round, like a compiler spilling one
/// tensor to DRAM per retry.
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Honor TELA_TRACE if set (e.g. `wall`); otherwise trace with the
    // deterministic logical clock so the demo always has output.
    let tracer = match Tracer::from_env() {
        t if t.enabled() => t,
        _ => Tracer::logical(),
    };
    let config = TelaConfig {
        tracer: tracer.clone(),
        ..TelaConfig::default()
    };

    // Scenario 1: the tight-but-feasible Figure 1 instance through the
    // production pipeline (greedy fails, the search solves it).
    let ladder = EscalationLadder::new(config);
    let figure1 = examples::figure1();
    let result = ladder.solve(&figure1, &Budget::steps(200_000));
    println!(
        "figure1: {} in {} steps",
        result.outcome.label(),
        result.stats.steps
    );

    // Scenario 2: an overloaded instance through the full escalation
    // ladder. Six fully-overlapping size-2 buffers in 8 units of memory:
    // the preflight proves each attempt infeasible (certificate events),
    // and two spill rounds shrink the problem until it fits.
    let buffers: Vec<Buffer> = (0..6).map(|_| Buffer::new(0, 4, 2)).collect();
    let overloaded = Problem::new(buffers.clone(), 8)?;
    let mut hook = DropLast {
        buffers,
        capacity: 8,
    };
    let result = ladder.solve_with_spill(overloaded, &Budget::steps(200_000), &mut hook);
    println!(
        "overloaded: {} after {} spill rounds\n",
        result.outcome.label(),
        result.spill_rounds
    );

    // Export: one JSONL artifact carrying the full event stream plus
    // every metric series; `parse_jsonl` round-trips it losslessly.
    let trace = tracer.snapshot().expect("tracer is enabled");
    let jsonl = write_jsonl(&trace);
    let reparsed = parse_jsonl(&jsonl)?;
    assert_eq!(reparsed.events.len(), trace.events.len());
    let path = std::env::temp_dir().join("tela_trace_timeline.jsonl");
    std::fs::write(&path, &jsonl)?;
    println!("wrote {} ({} events)", path.display(), trace.events.len());

    // The SVG swim-lane view (one lane per layer).
    let svg = tela_viz::render_trace_timeline(&trace, &Default::default());
    let svg_path = std::env::temp_dir().join("tela_trace_timeline.svg");
    std::fs::write(&svg_path, svg)?;
    println!("wrote {}\n", svg_path.display());

    println!("== metrics ==");
    print!("{}", render_metrics(&trace.metrics));
    assert!(
        trace.metrics.len() >= 10,
        "a portfolio + ladder solve populates at least 10 metric series"
    );

    println!("\n== timeline ==");
    print!("{}", render_timeline(&trace));
    Ok(())
}
