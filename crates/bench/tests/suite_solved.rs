//! Solved-count floors of the portfolio suite: the 36 configurations of
//! `sweep_configs(4)` + `certified_configs(14)` at a 200k-step budget,
//! plus one 30,000-buffer bounded-degree giant.
//!
//! Every budget is in steps, never in time, so each count is a property
//! of the solver and not of the host. The counts are exact: a drop is a
//! lost solve, and a rise is an improvement that should update the
//! figure here. The set takes seconds in release and far longer in
//! debug, hence:
//!
//! ```text
//! cargo test --release -p tela-bench --test suite_solved -- --include-ignored
//! ```

use tela_model::Budget;
use tela_workloads::sweep::{certified_configs, giant_config, sweep_configs, SweepConfig};
use telamalloc::{solve, solve_portfolio, TelaConfig};

const STEP_CAP: u64 = 200_000;

fn suite() -> Vec<SweepConfig> {
    let mut configs = sweep_configs(4);
    configs.extend(certified_configs(14));
    assert_eq!(configs.len(), 36);
    configs
}

fn race_config(threads: usize) -> TelaConfig {
    TelaConfig {
        threads,
        ..TelaConfig::default()
    }
}

fn portfolio_solved(config: &TelaConfig) -> usize {
    suite()
        .iter()
        .filter(|c| {
            solve_portfolio(&c.problem, &Budget::steps(STEP_CAP), config)
                .result
                .outcome
                .is_solved()
        })
        .count()
}

#[test]
#[ignore = "release-only"]
fn default_variant_solo_solves_26_of_36() {
    let config = TelaConfig::default();
    let solved = suite()
        .iter()
        .filter(|c| {
            solve(&c.problem, &Budget::steps(STEP_CAP), &config)
                .outcome
                .is_solved()
        })
        .count();
    assert_eq!(solved, 26);
}

#[test]
#[ignore = "release-only"]
fn blind_portfolio_at_4_threads_solves_34_of_36() {
    assert_eq!(portfolio_solved(&race_config(4)), 34);
}

#[test]
#[ignore = "release-only"]
fn giant_30k_buffer_instance_is_solved() {
    let giant = giant_config(30_000, 5);
    assert_eq!(giant.problem.len(), 30_000);
    let race = solve_portfolio(
        &giant.problem,
        &Budget::steps(STEP_CAP * 10),
        &race_config(4),
    );
    assert!(race.result.outcome.is_solved(), "{}", giant.name);
}
