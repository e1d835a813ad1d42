//! Heap-allocation regression guard for the propagation hot path.
//!
//! `CpSolver::propagate` used to clone each popped variable's pair list
//! (`pairs_of(var).to_vec()`) on every queue pop, allocating once per
//! pop in the solver's innermost loop. This test counts global
//! allocations across a propagation-heavy assignment sequence and fails
//! if per-pop allocation sneaks back in. (The static face of the same
//! invariant is tela-lint's `no-hot-alloc` rule on the marked
//! `propagate` function.)
//!
//! Not meaningful under `debug-invariants`: the audit allocates domain
//! snapshots and occupancy rebuilds on every decision by design.

#![cfg(not(feature = "debug-invariants"))]

mod common;

use tela_cp::CpSolver;
use tela_lint::testing::count_allocations;
use tela_model::BufferId;

/// One full allocate→backtrack→reallocate cycle with sweep queries and
/// a deferred minor-backtrack mixed in — the steady-state shape of the
/// search loop. Returns the allocation count for the cycle.
fn steady_state_cycle(solver: &mut CpSolver, n: usize) -> u64 {
    let (allocs, ()) = count_allocations(|| {
        for i in 0..n {
            let id = BufferId::new(i);
            // Sweep path: bitset-timeline lowest-fit over the fixed set.
            let pos = solver.min_feasible_pos(id).expect("placeable");
            solver.assign_deferred(id, pos).expect("consistent");
            if i == n / 2 {
                // Minor backtrack: a deliberately colliding assignment
                // fails and rolls back. The deferred seed is `Copy`; no
                // conflict materialization, no allocation.
                let last = BufferId::new(i - 1);
                let occupied = solver.assignment(last).expect("just placed");
                solver
                    .assign_deferred(BufferId::new(i + 1), occupied)
                    .expect_err("collides with a placed buffer");
            }
        }
        solver.pop_to_level(0);
    });
    allocs
}

#[test]
fn steady_state_search_performs_zero_allocations() {
    let n = 32;
    let p = common::full_overlap(n);
    let mut solver = CpSolver::new(&p).unwrap();
    // Warm-up cycle: trail, queue, levels, and sweep scratch grow to
    // their steady-state capacity here and are reused afterwards.
    steady_state_cycle(&mut solver, n);
    // The counter is per thread, so sibling tests cannot reach this
    // window: every repetition after the warm-up must allocate nothing.
    let allocs = (0..5)
        .map(|_| steady_state_cycle(&mut solver, n))
        .max()
        .unwrap();
    assert_eq!(
        allocs, 0,
        "steady-state propagate/sweep/backtrack cycle must not allocate"
    );
}

#[test]
fn propagation_does_not_allocate_per_pop() {
    let n = 32;
    let p = common::full_overlap(n);

    let (allocs, propagations, pops_lower_bound) = common::min_measure(&p, n, || None);
    assert!(pops_lower_bound > 0 && propagations > pops_lower_bound);
    // With the per-pop `to_vec()`, this sequence measures 673
    // allocations (one per queue pop, 528 pops, plus 145 of amortized
    // growth); the allocation-free loop measures exactly the 145. The
    // bound sits between the two so a reintroduced per-pop allocation
    // fails loudly while normal amortized Vec growth (trail, occupancy
    // lists, queue) never trips it.
    let bound = propagations / (n as u64 - 1);
    assert!(
        allocs < 400,
        "propagation hot path allocated {allocs} times \
         ({propagations} propagations, >= {bound} pops)"
    );
}
