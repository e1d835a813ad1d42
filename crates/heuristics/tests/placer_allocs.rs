//! Heap-allocation guard for the greedy placer.
//!
//! `Placer::new` builds the overlap graph and sizes the fit scratch to
//! the graph's maximum degree; after that, placing a block must not touch
//! the heap. (The static face of the same invariant is tela-lint's
//! `no-hot-alloc` rule on the marked `lowest_fit`/`place` functions.)

use tela_heuristics::{greedy, Placer};
use tela_lint::testing::{count_allocations, CountingAlloc};
use tela_workloads::{problem_with_slack, ModelKind};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

#[test]
fn steady_state_place_performs_zero_allocations() {
    let p = problem_with_slack(ModelKind::OpenPose.generate(0), 10);
    let order = greedy::placement_order(&p);
    let (first, rest) = order.split_first().expect("non-empty model");
    let mut placer = Placer::new(&p);
    placer.place(*first).expect("warm-up placement fits");
    let (allocs, placed) = count_allocations(|| {
        rest.iter()
            .filter(|&&id| placer.lowest_fit(id).is_some() && placer.place(id).is_some())
            .count()
    });
    assert_eq!(placed, rest.len());
    assert_eq!(allocs, 0, "steady-state lowest_fit/place must not allocate");
}

#[test]
fn counter_sees_only_the_calling_thread() {
    const WORKER_ALLOCS: usize = 1_000;
    let (mine, _) = count_allocations(|| std::hint::black_box(vec![0u8; 64]));
    assert_eq!(mine, 1, "own allocations are counted");
    // Spawning allocates a little on this thread (handle, packet); the
    // worker's thousand allocations must not be counted here.
    let (seen, ()) = count_allocations(|| {
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..WORKER_ALLOCS {
                    std::hint::black_box(vec![i; 4]);
                }
            });
        });
    });
    assert!(
        seen < WORKER_ALLOCS as u64 / 10,
        "another thread's allocations leaked in: {seen}"
    );
}
