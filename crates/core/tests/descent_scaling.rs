//! A first descent of the search is linear in the number of buffers.
//!
//! Solving a 16,000-buffer streamed instance must take about 8× as long
//! as a 2,000-buffer one. An engine that rescans every buffer to build
//! each decision point's candidate queue is quadratic and lands far
//! above the bound. It is a release-mode timing (debug builds with the
//! CP solver's runtime audits would take hours on 16,000 buffers): `cargo
//! test --release -p telamalloc --test descent_scaling --
//! --include-ignored`.

use std::time::{Duration, Instant};
use tela_model::{Budget, Problem};
use tela_workloads::sweep::giant;
use telamalloc::{solve, TelaConfig};

/// Minimum over 5 samples of the time to solve `problem`; every sample
/// must solve it.
fn min_of_5(problem: &Problem, config: &TelaConfig) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let result = solve(std::hint::black_box(problem), &Budget::unlimited(), config);
            let elapsed = start.elapsed();
            assert!(result.outcome.is_solved(), "{:?}", result.outcome);
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
#[ignore = "release-only"]
fn solve_time_grows_linearly_with_buffer_count() {
    const SMALL: usize = 2_000;
    const LARGE: usize = 16_000;
    // One search over the whole instance: splitting it into
    // time-disjoint groups would hide a per-decision cost in n.
    let config = TelaConfig {
        split_independent: false,
        ..TelaConfig::default()
    };
    let small = min_of_5(&giant(7, SMALL, 5), &config);
    let large = min_of_5(&giant(7, LARGE, 5), &config);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    let linear = (LARGE / SMALL) as f64;
    println!("{LARGE} / {SMALL} buffers: {large:?} / {small:?} = {ratio:.1}x (linear: {linear})");
    assert!(
        ratio <= 2.0 * linear,
        "an {linear}x larger instance took {ratio:.1}x as long to solve"
    );
}
