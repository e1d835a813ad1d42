//! Quickstart: allocate a handful of buffers with the TelaMalloc
//! pipeline.
//!
//! Run with: `cargo run --example quickstart`

use tela_model::{Budget, Buffer, Problem, ResilienceStage};
use telamalloc::EscalationLadder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ten buffers with fixed live ranges sharing a 4-unit memory — the
    // paper's Figure 1 running example.
    let problem = tela_model::examples::figure1();
    println!(
        "problem: {} buffers, capacity {}",
        problem.len(),
        problem.capacity()
    );
    println!(
        "peak contention (lower bound on memory): {}",
        problem.max_contention()
    );

    // The production pipeline: greedy heuristic first, TelaMalloc's
    // hybrid heuristic x CP-solver search when the heuristic fails.
    let ladder = EscalationLadder::default();
    let result = ladder.solve(&problem, &Budget::steps(100_000));
    let solution = result.outcome.solution().ok_or("figure1 is solvable")?;
    println!(
        "solved by {} in {} steps ({} backtracks)",
        if result.stage == ResilienceStage::Heuristic {
            "the greedy heuristic"
        } else {
            "the TelaMalloc search"
        },
        result.stats.steps,
        result.stats.total_backtracks(),
    );

    for (id, buffer) in problem.iter() {
        println!(
            "  buffer {id}: t=[{}, {}) size={} -> address {}",
            buffer.start(),
            buffer.end(),
            buffer.size(),
            solution.address(id)
        );
    }
    let peak = solution.validate(&problem)?;
    println!("packing peak: {peak} / capacity {}", problem.capacity());

    // Building your own problem is a few lines:
    let custom = Problem::builder(1024)
        .buffer(Buffer::new(0, 8, 512))
        .buffer(Buffer::new(4, 12, 512))
        .buffer(Buffer::new(8, 16, 256).with_align(32))
        .build()?;
    let result = ladder.solve(&custom, &Budget::steps(10_000));
    println!(
        "custom problem: {}",
        if result.outcome.is_solved() {
            "solved"
        } else {
            "failed"
        }
    );
    Ok(())
}
