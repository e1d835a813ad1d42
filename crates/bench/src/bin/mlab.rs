//! A/B harness for imitation-label variants (development tool).
//!
//! `--portfolio N` (default 0 = off) adds a non-ML reference leg: the
//! portfolio race at `N` workers over the same backtrack-heavy tail, to
//! compare how much of the learned policy's win a strategy race buys
//! without any training.
use tela_bench::arg_usize;
use tela_learned::{collect_dataset, train_policy_from_samples, CollectConfig, GbtParams};
use tela_model::{Budget, Problem};
use telamalloc::{solve, solve_portfolio, Backtrack, TelaConfig};

fn main() {
    let tela = TelaConfig::default();
    // Fixed eval tail
    let configs = tela_workloads::sweep::certified_configs(30);
    let mut tail = vec![];
    for c in &configs {
        let r = solve(&c.problem, &Budget::steps(50_000), &tela);
        if r.stats.total_backtracks() > 1000 {
            tail.push((c.clone(), r.stats.total_backtracks(), r.outcome.is_solved()));
        }
    }
    eprintln!("tail: {}", tail.len());
    let train: Vec<(String, Problem)> = (10_000..10_020u64)
        .map(|s| {
            (
                format!("t{s}"),
                tela_workloads::sweep::certified_solvable(s),
            )
        })
        .collect();
    let cc = CollectConfig {
        floor_with_best: false,
        skip_uncertified_oracle: true,
        max_events_per_run: 300,
        ..CollectConfig::default()
    };
    let samples = collect_dataset(&train, &[0, 1, 3], &Budget::steps(15_000), &tela, &cc, 42);
    eprintln!("samples: {}", samples.len());
    for (name, threshold) in [
        ("thr4", 4.0),
        ("thr5.5", 5.5),
        ("thr7", 7.0),
        ("thr8.5", 8.5),
    ] {
        let policy =
            train_policy_from_samples(&samples, &GbtParams::default()).with_threshold(threshold);
        let ml_tela = TelaConfig {
            backtrack: Backtrack::custom(move || policy.clone()),
            ..tela.clone()
        };
        let (mut imp, mut fixed, mut worse, mut broke) = (0, 0, 0, 0);
        for (c, b0, s0) in &tail {
            let ml = solve(&c.problem, &Budget::steps(50_000), &ml_tela);
            let b1 = ml.stats.total_backtracks();
            let s1 = ml.outcome.is_solved();
            if s1 && !s0 {
                fixed += 1;
                imp += 1
            } else if *s0 && !s1 {
                broke += 1;
                worse += 1
            } else if b1 < *b0 {
                imp += 1
            } else if b1 > *b0 {
                worse += 1
            }
        }
        println!(
            "{name:12} samples={:6} improved={imp}/{} fixed={fixed} worse={worse} broke={broke}",
            samples.len(),
            tail.len()
        );
    }
    let portfolio = arg_usize("--portfolio", 0);
    if portfolio > 0 {
        let race_config = TelaConfig {
            threads: portfolio,
            ..tela.clone()
        };
        let (mut solved, mut fixed) = (0, 0);
        for (c, _, s0) in &tail {
            let race = solve_portfolio(&c.problem, &Budget::steps(50_000), &race_config);
            if race.result.outcome.is_solved() {
                solved += 1;
                if !s0 {
                    fixed += 1;
                }
            }
        }
        println!(
            "portfolio@{portfolio:2} solved={solved}/{} fixed={fixed} (no training)",
            tail.len()
        );
    }
}
