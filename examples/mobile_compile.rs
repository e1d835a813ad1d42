//! The Pixel 6 scenario (paper §2.3-§2.4): models are compiled
//! *on-the-fly, on-device* when an app loads them — think camera filters
//! downloaded and compiled while the user browses. Compilation delays
//! are user-visible, so the allocator must answer in milliseconds.
//!
//! This example simulates an app loading all eleven evaluation models
//! and reports the allocation latency of each, showing the fast
//! heuristic path and the TelaMalloc fallback.
//!
//! Run with: `cargo run --release --example mobile_compile`

use std::time::{Duration, Instant};

use tela_model::{Budget, ResilienceStage};
use tela_workloads::{problem_with_slack, ModelKind};
use telamalloc::EscalationLadder;

fn main() {
    println!(
        "simulated on-device compilation of {} models\n",
        ModelKind::PIXEL6.len()
    );
    let ladder = EscalationLadder::default();
    // A user-visible delay budget: a filter should be ready instantly.
    let user_patience = Duration::from_millis(500);

    let mut total = Duration::ZERO;
    for kind in ModelKind::PIXEL6 {
        let problem = problem_with_slack(kind.generate(0), 10);
        let budget = Budget::steps(2_000_000).with_timeout(user_patience);
        let t0 = Instant::now();
        let result = ladder.solve(&problem, &budget);
        let elapsed = t0.elapsed();
        total += elapsed;
        println!(
            "{:18} {:>10.2?}  via {:10}  {}",
            kind.name(),
            elapsed,
            if result.stage == ResilienceStage::Heuristic {
                "heuristic"
            } else {
                "telamalloc"
            },
            if result.outcome.is_solved() {
                "ready"
            } else {
                "FAILED (would fall back to sharding)"
            },
        );
    }
    println!("\ntotal allocation time for all models: {total:.2?}");
    println!("(the paper's replaced ILP stage took tens of seconds to minutes on");
    println!("the hardest of these, blocking the app's UI)");
}
