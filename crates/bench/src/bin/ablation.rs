//! Ablation of TelaMalloc's design choices (§5.2-§5.4): each variant
//! disables one feature of the full configuration, over a mix of tight
//! model workloads and certified-solvable instances.
//!
//! This quantifies what the paper argues qualitatively: solver-guided
//! placement is necessary to escape local optima (§5.2), contention
//! grouping exploits phase structure (§5.3), and conflict-guided
//! backtracking with candidate prepending handles the rest (§5.4).
//!
//! Flags: `--inputs N` (certified instances, default 40), `--steps S`
//! (cap, default 100000).

use tela_bench::{arg_usize, TextTable};
use tela_model::{Budget, Problem};
use telamalloc::{solve, Backtrack, TelaConfig};

fn variants() -> Vec<(&'static str, TelaConfig)> {
    let full = TelaConfig::default;
    vec![
        ("full", full()),
        (
            "no-solver-placement",
            TelaConfig {
                solver_guided_placement: false,
                ..full()
            },
        ),
        (
            "no-grouping",
            TelaConfig {
                contention_grouping: false,
                ..full()
            },
        ),
        (
            "no-prepending",
            TelaConfig {
                candidate_prepending: false,
                ..full()
            },
        ),
        (
            "fixed-backtrack",
            TelaConfig {
                backtrack: Backtrack::FixedSteps(1),
                ..full()
            },
        ),
        (
            "no-stuck-escape",
            TelaConfig {
                stuck_subtree_limit: 0,
                ..full()
            },
        ),
        (
            "no-split",
            TelaConfig {
                split_independent: false,
                ..full()
            },
        ),
        (
            "minimized-conflicts",
            TelaConfig {
                minimize_conflicts: true,
                ..full()
            },
        ),
    ]
}

fn instances(count: usize) -> Vec<(String, Problem)> {
    let mut out: Vec<(String, Problem)> = tela_workloads::sweep::certified_configs(count)
        .into_iter()
        .map(|c| (c.name, c.problem))
        .collect();
    for kind in tela_workloads::ModelKind::PIXEL6 {
        // Tight (2% slack) model instances stress the search.
        out.push((
            kind.name().to_string(),
            tela_workloads::problem_with_slack(kind.generate(0), 2),
        ));
    }
    out
}

fn main() {
    let count = arg_usize("--inputs", 40);
    let step_cap = arg_usize("--steps", 100_000) as u64;
    let set = instances(count);
    println!(
        "# Ablation of TelaMalloc design choices over {} instances",
        set.len()
    );
    println!("# (step cap {step_cap})\n");

    let mut table = TextTable::new(["Variant", "Solved", "Failed", "Geomean steps (solved)"]);
    for (name, config) in variants() {
        let mut solved = 0usize;
        let mut failed = 0usize;
        let mut log_steps = 0.0f64;
        for (_, problem) in &set {
            let r = solve(problem, &Budget::steps(step_cap), &config);
            if r.outcome.is_solved() {
                solved += 1;
                log_steps += (r.stats.steps.max(1) as f64).ln();
            } else {
                failed += 1;
            }
        }
        let geomean = if solved > 0 {
            (log_steps / solved as f64).exp()
        } else {
            0.0
        };
        table.row([
            name.to_string(),
            solved.to_string(),
            failed.to_string(),
            format!("{geomean:.1}"),
        ]);
    }
    print!("{}", table.render());
    println!("\n# paper expectation: the full configuration solves the most; removing");
    println!("# solver-guided placement hurts most (§5.2), then grouping (§5.3).");
}
