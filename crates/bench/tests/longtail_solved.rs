//! Exact answer-quality gate on the paper's long tail (§7.3): the
//! three `longtail-search` families, rebuilt from `tela_workloads` on
//! tuning seeds 1, 2 and 3, each instance run through the escalation
//! ladder at 5,000 steps per variant.
//!
//! - `certified@1%`, `certified@3%`: [`sweep::certified_solvable`] with
//!   1% and 3% headroom over its known packing;
//! - `sweep@5%`: the `model-`/`resid-` inputs of `sweep_inputs(480)` at
//!   5% slack that the greedy heuristic cannot place.
//!
//! Budgets are steps and the race runs on one thread, so every count
//! and the outcome digest are a pure function of the solver. The
//! per-family solved counts catch a lost or gained solve; the digest
//! (FNV-1a over every instance's outcome, stage, steps and placement)
//! catches a change that trades one solve for another at equal counts.
//! A deliberate change in search work updates the figures here and says
//! why in CHANGES.md. Seed 7919 is kept out for acceptance runs.
//!
//! ```text
//! cargo test --release -p tela-bench --test longtail_solved -- --include-ignored
//! ```

use tela_model::{Budget, Problem, SolveOutcome};
use tela_workloads::{problem_with_slack, sweep};
use telamalloc::{EscalationLadder, LadderConfig, TelaConfig};

const SEEDS: [u64; 3] = [1, 2, 3];
/// Instances per family per seed.
const PER_FAMILY: u64 = 100;
const STEP_BUDGET: u64 = 5_000;

struct Tally {
    /// Solved instances per family: certified@1%, certified@3%, sweep@5%.
    solved: [u64; 3],
    steps: u64,
    digest: u64,
}

/// Feeds `bytes` into the FNV-1a hash `hash`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// SplitMix64 finalizer: a well-mixed index into the greedy-hard pool.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn greedy_hard() -> Vec<Problem> {
    sweep::sweep_inputs(480)
        .into_iter()
        .filter(|(name, _)| name.starts_with("model-") || name.starts_with("resid-"))
        .map(|(_, buffers)| problem_with_slack(buffers, 5))
        .filter(|p| tela_heuristics::greedy::solve(p).solution.is_none())
        .collect()
}

fn certified(seed: u64, index: u64, slack_percent: u64) -> Problem {
    let base = sweep::certified_solvable((seed << 32) | (index << 2) | slack_percent);
    let capacity = base.capacity() * (100 + slack_percent) / 100;
    base.with_capacity(capacity).expect("raising capacity")
}

fn run(seed: u64, pool: &[Problem]) -> Tally {
    let ladder = EscalationLadder::new(TelaConfig {
        threads: 1,
        ladder: LadderConfig {
            max_spill_rounds: 0,
        },
        ..TelaConfig::default()
    });
    let mut tally = Tally {
        solved: [0; 3],
        steps: 0,
        digest: 0xCBF2_9CE4_8422_2325,
    };
    for index in 0..PER_FAMILY {
        let sweep_pick = mix((seed << 32) | index) % pool.len() as u64;
        let instances = [
            certified(seed, index, 1),
            certified(seed, index, 3),
            pool[sweep_pick as usize].clone(),
        ];
        for (family, problem) in instances.iter().enumerate() {
            let result = ladder.solve(problem, &Budget::steps(STEP_BUDGET));
            tally.steps += result.stats.steps;
            let d = &mut tally.digest;
            fnv(d, &(family as u64).to_le_bytes());
            fnv(d, &result.stats.steps.to_le_bytes());
            fnv(d, &result.stats.total_backtracks().to_le_bytes());
            fnv(d, result.stage.to_string().as_bytes());
            fnv(d, result.outcome.label().as_bytes());
            match &result.outcome {
                SolveOutcome::Solved(solution) => {
                    solution.validate(problem).expect("valid placement");
                    tally.solved[family] += 1;
                    for &address in solution.addresses() {
                        fnv(d, &address.to_le_bytes());
                    }
                }
                SolveOutcome::BestEffort(best) => {
                    best.partial
                        .validate(problem)
                        .expect("valid partial placement");
                }
                SolveOutcome::Infeasible if family < 2 => {
                    panic!("seed {seed} #{index}: Infeasible on a certified instance")
                }
                _ => {}
            }
        }
    }
    tally
}

#[test]
#[ignore = "release-only"]
fn longtail_families_solve_exact_counts() {
    let pool = greedy_hard();
    let mut solved = Vec::new();
    let mut steps = Vec::new();
    let mut digests = Vec::new();
    for seed in SEEDS {
        let tally = run(seed, &pool);
        solved.push(tally.solved);
        steps.push(tally.steps);
        digests.push(tally.digest);
    }
    assert_eq!(pool.len(), 77);
    // Per seed: [certified@1%, certified@3%, sweep@5%] of 100 each.
    assert_eq!(solved, [[74, 86, 100], [79, 91, 100], [75, 86, 100]]);
    assert_eq!(steps, [1_817_172, 1_383_905, 1_768_852]);
    assert_eq!(
        digests,
        [
            0x6e3e_3298_3a41_41c9,
            0xedab_2d45_d27d_40f6,
            0x1178_a21c_c4b2_72d8
        ]
    );
}
