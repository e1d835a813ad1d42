//! Figure 15: effect of the learned backtracking policy on different
//! portions of SRGAN, one of the long-tail models (paper §7.3).
//!
//! For each SRGAN slice we locate the *hardness frontier*: the smallest
//! capacity at which the default search still succeeds within the step
//! cap. We then compare backtracks at that capacity and one unit below
//! it (where the default search fails within the cap — the regime the
//! learned policy targets).

use tela_bench::{arg_usize, outcome_tag, TextTable};
use tela_model::{Budget, Problem, Size};
use telamalloc::{solve, Backtrack, TelaConfig, TelaResult};

/// SRGAN slices with realistic alignment on the short-lived buffers
/// (weight slices / scratch need vector-unit alignment, §5.5); alignment
/// padding is what makes these slices thrash at tight capacities.
fn srgan_buffers(blocks: usize) -> Vec<tela_model::Buffer> {
    tela_workloads::srgan_portion(0, blocks)
        .into_iter()
        .map(|b| {
            let align = if b.lifetime() <= 2 { 64 } else { 32 };
            tela_model::Buffer::new(b.start(), b.end(), b.size()).with_align(align)
        })
        .collect()
}

fn run_default(problem: &Problem, cap: u64) -> TelaResult {
    solve(problem, &Budget::steps(cap), &TelaConfig::default())
}

/// Smallest capacity (between contention and the greedy peak) where the
/// default search solves within the cap.
fn frontier(buffers: &[tela_model::Buffer], step_cap: u64) -> Size {
    let unbounded = Problem::new(buffers.to_vec(), u64::MAX).expect("valid");
    let greedy_peak = tela_heuristics::greedy::solve(&unbounded).peak;
    let (mut lo, mut hi) = (unbounded.max_contention().max(1), greedy_peak);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let p = unbounded.with_capacity(mid).expect("fits");
        if run_default(&p, step_cap).outcome.is_solved() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

fn main() {
    let step_cap = arg_usize("--steps", 100_000) as u64;
    println!("# Figure 15: backtracks on SRGAN portions, default vs learned policy");
    println!("# (each portion at its hardness frontier; step cap {step_cap})\n");

    eprintln!("training learned policy...");
    let mut train: Vec<(String, Problem)> = (300..318u64)
        .map(|s| {
            (
                format!("cert-{s}"),
                tela_workloads::sweep::certified_solvable(s),
            )
        })
        .collect();
    for seed in [7u64, 9] {
        let buffers: Vec<_> = tela_workloads::srgan_portion(seed, 16)
            .into_iter()
            .map(|b| {
                let align = if b.lifetime() <= 2 { 64 } else { 32 };
                tela_model::Buffer::new(b.start(), b.end(), b.size()).with_align(align)
            })
            .collect();
        train.push((
            format!("srgan-seed{seed}"),
            Problem::new(buffers, u64::MAX).expect("valid"),
        ));
    }
    let options = tela_learned::TrainOptions {
        slack_percents: vec![0, 1, 3],
        search_budget: Budget::steps(40_000),
        ..tela_learned::TrainOptions::default()
    };
    let policy = tela_learned::train_policy(&train, &options);
    eprintln!("training done");

    let mut table = TextTable::new([
        "SRGAN portion",
        "Capacity",
        "Backtracks (default)",
        "Backtracks (ML)",
        "Default",
        "ML",
    ]);
    let ml_config = TelaConfig {
        backtrack: Backtrack::custom(move || policy.clone()),
        ..TelaConfig::default()
    };
    for blocks in [8usize, 12, 16, 20, 24] {
        let buffers = srgan_buffers(blocks);
        let edge = frontier(&buffers, step_cap);
        // At the frontier (default solves, possibly with effort) and one
        // unit below (default fails within the cap).
        for capacity in [edge, edge.saturating_sub(1).max(1)] {
            let Ok(problem) = Problem::new(buffers.clone(), capacity) else {
                continue;
            };
            if problem.max_contention() > capacity {
                continue;
            }
            let base = run_default(&problem, step_cap);
            let ml = solve(&problem, &Budget::steps(step_cap), &ml_config);
            table.row([
                format!("{blocks} blocks"),
                capacity.to_string(),
                base.stats.total_backtracks().to_string(),
                ml.stats.total_backtracks().to_string(),
                outcome_tag(&base.outcome).to_string(),
                outcome_tag(&ml.outcome).to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    println!("\n# paper shape: the ML policy reduces backtracks by up to two orders");
    println!("# of magnitude on the portions where the default search gets stuck.");
    println!("# note: rows one unit below the frontier may be genuinely infeasible");
    println!("# (the hardness cliff coincides with the feasibility cliff on these");
    println!("# slices); the certified-solvable long-tail study (--bin longtail)");
    println!("# isolates the solvable-but-stuck regime with a feasibility certificate.");
}
