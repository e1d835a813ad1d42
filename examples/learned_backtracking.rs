//! Learned backtracking end to end (paper §6): collect imitation-
//! learning data against an exact-solver oracle, train a gradient-
//! boosted forest, and plug it into the search as the backtrack policy.
//!
//! Run with: `cargo run --release --example learned_backtracking`

use tela_learned::{train_policy, TrainOptions};
use tela_model::{Budget, Problem};
use tela_workloads::sweep::certified_solvable;
use telamalloc::{solve, Backtrack, TelaConfig};

fn main() {
    // Train on a handful of certified-solvable tight instances.
    let train: Vec<(String, Problem)> = (100..106u64)
        .map(|seed| (format!("train-{seed}"), certified_solvable(seed)))
        .collect();
    println!(
        "training the backtracking model on {} instances...",
        train.len()
    );
    let options = TrainOptions {
        slack_percents: vec![0, 1, 3],
        search_budget: Budget::steps(15_000),
        ..TrainOptions::default()
    };
    let policy = train_policy(&train, &options);
    println!("trained a {}-tree forest\n", policy.model().num_trees());

    // Evaluate on unseen instances.
    let config = TelaConfig::default();
    let ml_config = TelaConfig {
        backtrack: Backtrack::custom(move || policy.clone()),
        ..TelaConfig::default()
    };
    for seed in [10u64, 39, 53] {
        let problem = certified_solvable(seed);
        let budget = Budget::steps(50_000);
        let base = solve(&problem, &budget, &config);
        let ml = solve(&problem, &budget, &ml_config);
        println!(
            "instance {seed}: default {} backtracks ({}), learned {} backtracks ({})",
            base.stats.total_backtracks(),
            if base.outcome.is_solved() {
                "solved"
            } else {
                "capped"
            },
            ml.stats.total_backtracks(),
            if ml.outcome.is_solved() {
                "solved"
            } else {
                "capped"
            },
        );
    }
    println!("\n(the model only runs on major backtracks; inputs that never get");
    println!("stuck pay nothing for it — see `cargo run -p tela-bench --bin fig16`)");
}
