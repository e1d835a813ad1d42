//! `tela` — command-line front-end for the reproduction.
//!
//! Subcommands:
//!
//! - `gen --model <name>|--certified <seed> [--slack PCT] [--seed N]` —
//!   emit a problem trace (text format) on stdout.
//! - `solve --alloc <tela|greedy|bfc|ilp|cp|pipeline> [--steps N]
//!   [--timeout-ms N]` — read a trace from stdin (or `--trace FILE`) and
//!   allocate.
//! - `stats` — read a trace and print its structural summary.
//!
//! Example:
//!
//! ```text
//! tela gen --model openpose --slack 10 > op.trace
//! tela solve --alloc tela --trace op.trace
//! tela stats --trace op.trace
//! ```

use std::io::Read;
use std::str::FromStr;
use std::time::{Duration, Instant};

use tela_bench::outcome_tag;
use tela_model::{parse_problem, problem_to_text, Budget, InstanceStats, PackingStats, Problem};
use tela_workloads::{problem_with_slack, ModelKind};
use telamalloc::{EscalationLadder, TelaConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        _ => {
            eprintln!("usage: tela <gen|solve|stats> [options]   (see --bin tela source)");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The value of `--name` in `args`, or `None` when the flag is absent.
/// A flag without a value, or with one that does not parse as a `T`,
/// ends the process with status 2 and names the flag and the value.
fn flag<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    tela_bench::flag_value(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn model_by_name(name: &str) -> Option<ModelKind> {
    ModelKind::PIXEL6
        .into_iter()
        .chain([ModelKind::Srgan])
        .find(|k| k.name().eq_ignore_ascii_case(name) || slug(k.name()) == slug(name))
}

fn slug(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_lowercase()
}

fn cmd_gen(args: &[String]) -> CliResult {
    let slack: u32 = flag(args, "--slack").unwrap_or(10);
    let seed: u64 = flag(args, "--seed").unwrap_or(0);
    let problem = if let Some(cert) = flag(args, "--certified") {
        tela_workloads::sweep::certified_solvable(cert)
    } else if let Some(name) = flag::<String>(args, "--model") {
        let kind = model_by_name(&name).ok_or_else(|| {
            format!(
                "unknown model {name:?}; expected one of {}",
                ModelKind::PIXEL6
                    .iter()
                    .map(|k| slug(k.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;
        problem_with_slack(kind.generate(seed), slack)
    } else {
        return Err("gen needs --model <name> or --certified <seed>".into());
    };
    print!("{}", problem_to_text(&problem));
    Ok(())
}

fn read_trace(args: &[String]) -> Result<Problem, Box<dyn std::error::Error>> {
    let text = match flag::<String>(args, "--trace") {
        Some(path) => std::fs::read_to_string(path)?,
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf)?;
            buf
        }
    };
    Ok(parse_problem(&text)?)
}

fn cmd_solve(args: &[String]) -> CliResult {
    let alloc = flag(args, "--alloc").unwrap_or_else(|| "pipeline".to_string());
    let steps: u64 = flag(args, "--steps").unwrap_or(500_000);
    let timeout_ms: u64 = flag(args, "--timeout-ms").unwrap_or(30_000);
    let problem = read_trace(args)?;
    let budget = Budget::steps(steps).with_timeout(Duration::from_millis(timeout_ms));

    let t0 = Instant::now();
    let (tag, solution, detail) = match alloc.as_str() {
        "pipeline" => {
            let r = EscalationLadder::default().solve(&problem, &budget);
            (
                outcome_tag(&r.outcome),
                r.outcome.into_solution(),
                format!("stage={} steps={}", r.stage, r.stats.steps),
            )
        }
        "tela" => {
            let r = telamalloc::solve(&problem, &budget, &TelaConfig::default());
            (
                outcome_tag(&r.outcome),
                r.outcome.into_solution(),
                format!(
                    "steps={} backtracks={}",
                    r.stats.steps,
                    r.stats.total_backtracks()
                ),
            )
        }
        "greedy" => {
            let r = tela_heuristics::greedy::solve(&problem);
            let tag = if r.solution.is_some() {
                "solved"
            } else {
                "gave-up"
            };
            (tag, r.solution, format!("peak={}", r.peak))
        }
        "bfc" => {
            let r = tela_heuristics::bfc::solve(&problem);
            let tag = if r.solution.is_some() {
                "solved"
            } else {
                "gave-up"
            };
            (tag, r.solution, format!("peak={}", r.peak))
        }
        "ilp" => {
            let (outcome, stats) = tela_ilp::solve_ilp(&problem, &budget);
            (
                outcome_tag(&outcome),
                outcome.into_solution(),
                format!("steps={}", stats.steps),
            )
        }
        "cp" => {
            let (outcome, stats) = tela_cp::search::solve_cp_only(&problem, &budget);
            (
                outcome_tag(&outcome),
                outcome.into_solution(),
                format!("steps={}", stats.steps),
            )
        }
        other => return Err(format!("unknown allocator {other:?}").into()),
    };
    let elapsed = t0.elapsed();
    println!("outcome:   {tag}");
    println!("time:      {elapsed:.2?}");
    println!("detail:    {detail}");
    if let Some(solution) = solution {
        let peak = solution.validate(&problem)?;
        let stats = PackingStats::of(&problem, &solution);
        println!("peak:      {peak} / {}", problem.capacity());
        println!(
            "packing:   {:.3}x contention, {:.0}% mean utilization",
            stats.peak_over_contention,
            stats.mean_utilization * 100.0
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let problem = read_trace(args)?;
    let stats = InstanceStats::of(&problem);
    println!("{stats}");
    println!("slack over contention: {:.3}x", stats.slack_ratio);
    println!(
        "dominant buffer: {:.1}% of capacity",
        stats.dominant_buffer_fraction * 100.0
    );
    Ok(())
}
