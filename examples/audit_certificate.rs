//! Static infeasibility certificates: reject impossible allocation
//! problems before any search runs, with an independently checkable
//! explanation.
//!
//! Run with: `cargo run --example audit_certificate`

use tela_audit::{preflight, Verdict};
use tela_model::{Budget, Buffer, Problem};
use telamalloc::EscalationLadder;

fn audit(name: &str, problem: &Problem) {
    println!(
        "{name}: {} buffers, capacity {}",
        problem.len(),
        problem.capacity()
    );
    match preflight(problem) {
        Verdict::ProvablyInfeasible(cert) => {
            println!("  provably infeasible: {cert}");
            assert!(cert.verify(problem), "certificates are self-checking");
            println!("  (certificate re-verified against the problem)");
        }
        Verdict::TriviallyFeasible(solution) => {
            let peak = solution
                .validate(problem)
                .expect("trivial solutions always validate");
            println!("  trivially feasible, packed without search; peak {peak}");
        }
        Verdict::NeedsSearch(stats) => {
            println!(
                "  needs search: {} overlapping pairs, contention {}/{}",
                stats.overlapping_pairs,
                stats.max_contention,
                problem.capacity()
            );
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A plain overload: three size-3 buffers alive at once in 8 units.
    audit("contention overload", &tela_model::examples::infeasible());

    // Subtler: contention (5 + 6 = 11) fits the 12-unit memory, but both
    // buffers need 8-byte alignment, so whichever stacks on top starts
    // at address 8 and runs past the end. Only the alignment-aware
    // pigeonhole argument sees this.
    let aligned_squeeze = Problem::builder(12)
        .buffer(Buffer::new(0, 4, 5).with_align(8))
        .buffer(Buffer::new(0, 4, 6).with_align(8))
        .build()?;
    audit("alignment squeeze", &aligned_squeeze);

    // Degenerate the other way: buffers that never coexist all share
    // address 0 — no search needed.
    let disjoint = Problem::builder(64)
        .buffers((0..4).map(|i| Buffer::new(i * 4, i * 4 + 4, 48)))
        .build()?;
    audit("time-disjoint chain", &disjoint);

    // The paper's Figure 1 is tight but feasible: the audit cannot
    // decide it and hands it to the search.
    audit("figure 1", &tela_model::examples::figure1());

    // The full allocator runs the same preflight, so infeasible inputs
    // fail in zero search steps and carry the certificate outward.
    let result = EscalationLadder::default().solve(&aligned_squeeze, &Budget::steps(100_000));
    let cert = result
        .certificate
        .expect("the pipeline surfaces the audit's witness");
    println!(
        "pipeline rejected the squeeze in {} steps: {cert}",
        result.stats.steps
    );
    Ok(())
}
