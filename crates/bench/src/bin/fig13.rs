//! Figure 13: the same model workloads on a workstation, with two extra
//! comparison points: the pure CP-SAT-style search (the CP encoding
//! without TelaMalloc's heuristics) and TelaMalloc with the learned
//! backtracking policy (paper §7.2).
//!
//! Expected shape: CP-only is roughly comparable to the ILP baseline
//! ("no conclusive evidence in either direction", §5.1), both far behind
//! TelaMalloc; the ML policy only changes the long-tail inputs.

use tela_bench::{
    fmt_duration, median_time, model_problems, outcome_tag, solver_budget, TextTable,
};
use tela_model::{Budget, Problem};
use telamalloc::{solve, Backtrack, TelaConfig};

fn main() {
    println!("# Figure 13: workstation comparison incl. CP-SAT-only and +ML\n");

    // Train the backtracking model on these same benchmarks, as §7.3
    // does for this figure ("a model only trained on the benchmarks in
    // Figure 13").
    eprintln!("training learned policy on the model workloads...");
    let train: Vec<(String, Problem)> = model_problems(1)
        .into_iter()
        .map(|(k, p)| (k.name().to_string(), p))
        .collect();
    let options = tela_learned::TrainOptions {
        slack_percents: vec![0, 2, 5],
        search_budget: Budget::steps(20_000),
        ..tela_learned::TrainOptions::default()
    };
    let policy = tela_learned::train_policy(&train, &options);
    eprintln!("training done ({} trees)", policy.model().num_trees());

    let mut table = TextTable::new([
        "Benchmark",
        "TelaMalloc",
        "Tela+ML",
        "ILP",
        "CP-SAT",
        "ILP stat",
        "CP stat",
    ]);
    let config = TelaConfig::default();
    let ml_config = TelaConfig {
        backtrack: Backtrack::custom(move || policy.clone()),
        ..TelaConfig::default()
    };
    for (kind, problem) in model_problems(0) {
        let (tela_time, _) = median_time(3, || solve(&problem, &solver_budget(), &config));
        let (ml_time, _) = median_time(3, || solve(&problem, &solver_budget(), &ml_config));
        let (ilp_time, (ilp_outcome, _)) =
            median_time(1, || tela_ilp::solve_ilp(&problem, &solver_budget()));
        let (cp_time, (cp_outcome, _)) = median_time(1, || {
            tela_cp::search::solve_cp_only(&problem, &solver_budget())
        });
        table.row([
            kind.name().to_string(),
            fmt_duration(tela_time),
            fmt_duration(ml_time),
            fmt_duration(ilp_time),
            fmt_duration(cp_time),
            outcome_tag(&ilp_outcome).to_string(),
            outcome_tag(&cp_outcome).to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\n# paper shape: ILP and CP-SAT are comparable to each other and both");
    println!("# orders of magnitude slower than TelaMalloc on the hard models; the");
    println!("# ML column matches plain TelaMalloc except on long-tail inputs.");
}
