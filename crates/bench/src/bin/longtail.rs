//! §7.3's long-tail study: over a large configuration sweep, find the
//! inputs where TelaMalloc backtracks heavily (the paper found 117 of
//! 1,192 with >1,000 backtracks), then measure how many the learned
//! policy improves.
//!
//! Paper results to compare shape against: ML improved 102 of 117 —
//! 56 timeouts now succeed, 34 inputs with ≥10× fewer backtracks —
//! while 4 inputs regressed to failure and 9 got >10× worse.
//!
//! Flags: `--inputs N` (certified-solvable instances, default 80),
//! `--steps S` (cap per solve, default 50000), `--train N` (training
//! instances, default 10).

use tela_bench::{arg_usize, TextTable};
use tela_model::{Budget, Problem};
use telamalloc::{solve, Backtrack, TelaConfig};

fn main() {
    let inputs = arg_usize("--inputs", 80);
    let step_cap = arg_usize("--steps", 50_000) as u64;
    let train_n = arg_usize("--train", 10) as u64;

    println!("# Long-tail study: learned backtracking on high-backtrack inputs");
    println!("# ({inputs} certified-solvable instances, step cap {step_cap})\n");

    // Evaluation instances: seeds disjoint from training seeds.
    let configs = tela_workloads::sweep::certified_configs(inputs);
    let tela = TelaConfig::default();

    eprintln!("scanning for high-backtrack inputs...");
    let mut tail = Vec::new();
    for c in &configs {
        let r = solve(&c.problem, &Budget::steps(step_cap), &tela);
        let backtracks = r.stats.total_backtracks();
        if backtracks > 1_000 {
            tail.push((c.clone(), backtracks, r.outcome.is_solved()));
        }
    }
    println!(
        "high-backtrack inputs (>1000 backtracks): {} of {}",
        tail.len(),
        configs.len()
    );
    if tail.is_empty() {
        println!("(nothing in the tail at this scale; increase --inputs)");
        return;
    }

    eprintln!("training learned policy on {train_n} disjoint instances...");
    let train: Vec<(String, Problem)> = (10_000..10_000 + train_n)
        .map(|s| {
            (
                format!("train-{s}"),
                tela_workloads::sweep::certified_solvable(s),
            )
        })
        .collect();
    let options = tela_learned::TrainOptions {
        slack_percents: vec![0, 1, 3],
        search_budget: Budget::steps(40_000),
        ..tela_learned::TrainOptions::default()
    };
    let policy = tela_learned::train_policy(&train, &options);
    eprintln!("training done");

    let mut table = TextTable::new([
        "Input",
        "Backtracks (default)",
        "Backtracks (ML)",
        "Default",
        "ML",
        "Change",
    ]);
    let (mut improved, mut newly_solved, mut tenfold, mut worse, mut broke) = (0, 0, 0, 0, 0);
    let ml_tela = TelaConfig {
        backtrack: Backtrack::custom(move || policy.clone()),
        ..tela
    };
    for (config, base_bt, base_ok) in &tail {
        let ml = solve(&config.problem, &Budget::steps(step_cap), &ml_tela);
        let ml_bt = ml.stats.total_backtracks();
        let ml_ok = ml.outcome.is_solved();
        let change = if ml_ok && !base_ok {
            newly_solved += 1;
            improved += 1;
            "fixed"
        } else if *base_ok && !ml_ok {
            broke += 1;
            worse += 1;
            "broke"
        } else if ml_bt * 10 <= *base_bt {
            tenfold += 1;
            improved += 1;
            ">=10x fewer"
        } else if ml_bt < *base_bt {
            improved += 1;
            "fewer"
        } else if ml_bt >= base_bt * 10 {
            worse += 1;
            ">=10x more"
        } else if ml_bt > *base_bt {
            worse += 1;
            "more"
        } else {
            "same"
        };
        table.row([
            config.name.clone(),
            base_bt.to_string(),
            ml_bt.to_string(),
            if *base_ok { "solved" } else { "capped" }.to_string(),
            if ml_ok { "solved" } else { "capped" }.to_string(),
            change.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nsummary: improved {improved}/{} (newly solved {newly_solved}, >=10x fewer {tenfold});",
        tail.len()
    );
    println!("worse {worse} (newly failing {broke})");
    println!("# paper: improved 102/117 (56 newly solved, 34 with >=10x fewer);");
    println!("# 4 newly failing, 9 with >10x more backtracks");
}
