//! Shared workload for the allocation-guard test binaries
//! (`propagate_allocs`, `trace_overhead`), built on the audited
//! counting allocator from `tela_lint::testing`.

use tela_cp::CpSolver;
use tela_lint::testing::{count_allocations, CountingAlloc};
use tela_model::{Buffer, BufferId, Problem};
use tela_trace::Tracer;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// `n` fully-overlapping unit buffers: the quadratic pair set makes
/// propagation (not search) the dominant cost, mirroring the paper's
/// full-overlap microbenchmark.
pub fn full_overlap(n: usize) -> Problem {
    Problem::builder(n as u64)
        .buffers((0..n).map(|_| Buffer::new(0, 4, 1)))
        .build()
        .unwrap()
}

/// Runs the propagation-heavy assignment sequence and returns
/// `(allocations, propagations, pops_lower_bound)`. `tracer` is
/// installed before the loop when given, so the same workload measures
/// the bare solver and the tracing-disabled solver identically.
pub fn measure(p: &Problem, n: usize, tracer: Option<Tracer>) -> (u64, u64, u64) {
    let mut solver = CpSolver::new(p).unwrap();
    if let Some(tracer) = tracer {
        solver.set_tracer(tracer);
    }
    let mut pops_lower_bound = 0u64;
    let (allocs, ()) = count_allocations(|| {
        for i in 0..n {
            solver.assign(BufferId::new(i), i as u64).unwrap();
            pops_lower_bound += 1;
        }
    });
    assert!(solver.solution().is_some());
    (allocs, solver.propagations(), pops_lower_bound)
}

/// Minimum measurement over a few repetitions. The counter is per
/// thread and the solver's count is deterministic, so the repetitions
/// agree; the minimum only picks one.
pub fn min_measure(p: &Problem, n: usize, tracer: fn() -> Option<Tracer>) -> (u64, u64, u64) {
    (0..5)
        .map(|_| measure(p, n, tracer()))
        .min_by_key(|&(allocs, ..)| allocs)
        .unwrap()
}
