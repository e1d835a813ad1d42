//! The solve path: the escalation ladder as users call it, and a traced
//! replay of the same stages through their public entry points.

use std::hint::black_box;
use std::time::{Duration, Instant};

use tela_audit::Verdict;
use tela_model::{Budget, Problem, SolveOutcome};
use tela_trace::Tracer;
use telamalloc::{
    default_variants, solve_portfolio, EscalationLadder, LadderConfig, LadderResult, TelaConfig,
};

use crate::stats::{ms, Layers};
use crate::workloads::Instance;

/// Step budget of one portfolio variant. Budgets are step counts only,
/// so every outcome and count is a pure function of the instance.
pub const STEP_BUDGET: u64 = 5_000;

/// The solver configuration every workload runs: one thread (the race
/// runs its variants in order, deterministically) and no spill rounds
/// (the first portfolio attempt gets the whole budget).
pub fn tela_config() -> TelaConfig {
    TelaConfig {
        threads: 1,
        ladder: LadderConfig {
            max_spill_rounds: 0,
            ..LadderConfig::default()
        },
        ..TelaConfig::default()
    }
}

pub fn budget() -> Budget {
    Budget::steps(STEP_BUDGET)
}

/// Checks one answer against the exact problem it answers: a `Solved`
/// placement must validate, a best-effort partial placement must
/// validate, and `Infeasible` is wrong on a solvable-by-construction
/// instance. Returns whether the instance counts as solved.
pub fn judge(instance: &Instance, outcome: &SolveOutcome) -> Result<bool, String> {
    match outcome {
        SolveOutcome::Solved(solution) => solution
            .validate(&instance.problem)
            .map(|_| true)
            .map_err(|e| format!("{}: invalid placement: {e}", instance.family)),
        SolveOutcome::Infeasible if instance.certified => Err(format!(
            "{}: Infeasible answer on a certified-solvable instance",
            instance.family
        )),
        SolveOutcome::BestEffort(best) => best
            .partial
            .validate(&instance.problem)
            .map(|_| false)
            .map_err(|e| format!("{}: invalid partial placement: {e}", instance.family)),
        _ => Ok(false),
    }
}

/// What the counters and cross-checks see of one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub solved: bool,
    pub greedy: bool,
    /// Steps as the ladder reports them: the winning variant's, or every
    /// variant's when nobody won.
    pub steps: u64,
    pub backtracks: u64,
}

/// Solves `instance` through the ladder; returns the call's duration.
pub fn solve(ladder: &EscalationLadder, instance: &Instance) -> (Duration, LadderResult) {
    let start = Instant::now();
    let result = black_box(ladder.solve(black_box(&instance.problem), &budget()));
    (start.elapsed(), result)
}

pub fn answer_of(result: &LadderResult, solved: bool) -> Answer {
    Answer {
        solved,
        greedy: result.stage == tela_model::ResilienceStage::Heuristic,
        steps: result.stats.steps,
        backtracks: result.stats.total_backtracks(),
    }
}

/// Exact work counts gathered by the replay.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub greedy_attempts: u64,
    pub greedy_wins: u64,
    pub races: u64,
    pub variants_run: u64,
    /// Steps of every variant that ran.
    pub variant_steps: u64,
    /// Steps of the variants that won their race.
    pub winner_steps: u64,
    pub backtracks: u64,
    pub propagations: u64,
    /// Greedy self time on the instances greedy failed to place.
    pub greedy_wasted_ms: Vec<f64>,
}

/// The outcome of one replayed solve.
#[derive(Debug)]
pub struct Replayed {
    pub outcome: SolveOutcome,
    /// Steps and backtracks as the ladder would report them.
    pub steps: u64,
    pub backtracks: u64,
    /// The replay's end-to-end time, trace post-processing excluded.
    pub end_to_end_ms: f64,
    /// The part of `end_to_end_ms` attributed to layers.
    pub attributed_ms: f64,
}

/// Replays the ladder's stages for `problem`: greedy, then the static
/// preflight, then the portfolio race with the preflight already done.
/// Each stage's self time goes to `layers`; inside the race, a wall-clock
/// tracer splits search time from the race driver.
pub fn replay(problem: &Problem, layers: &mut Layers, counters: &mut Counters) -> Replayed {
    counters.greedy_attempts += 1;
    let start = Instant::now();
    let greedy = tela_heuristics::greedy::solve(problem)
        .solution
        .filter(|s| s.validate(problem).is_ok());
    let greedy_done = Instant::now();
    let greedy_ms = ms(greedy_done - start);
    layers.add("heuristics.greedy", greedy_ms);
    if let Some(solution) = greedy {
        counters.greedy_wins += 1;
        return Replayed {
            outcome: SolveOutcome::Solved(solution),
            steps: 0,
            backtracks: 0,
            end_to_end_ms: greedy_ms,
            attributed_ms: greedy_ms,
        };
    }
    counters.greedy_wasted_ms.push(greedy_ms);

    let verdict = tela_audit::preflight(problem);
    let preflight_done = Instant::now();
    let preflight_ms = ms(preflight_done - greedy_done);
    layers.add("audit.preflight", preflight_ms);
    let decided = |outcome| Replayed {
        outcome,
        steps: 0,
        backtracks: 0,
        end_to_end_ms: ms(preflight_done - start),
        attributed_ms: greedy_ms + preflight_ms,
    };
    match verdict {
        Verdict::ProvablyInfeasible(_) => return decided(SolveOutcome::Infeasible),
        Verdict::TriviallyFeasible(solution) => return decided(SolveOutcome::Solved(solution)),
        Verdict::NeedsSearch(_) => {}
    }

    // Every variant records into the tracer, so search time is split
    // from the race driver for all of them, not only the first.
    let tracer = Tracer::wall();
    let mut config = TelaConfig {
        preflight_audit: false,
        tracer: tracer.clone(),
        ..tela_config()
    };
    config.variants = default_variants(&config)
        .into_iter()
        .map(|mut variant| {
            variant.config.tracer = tracer.clone();
            variant
        })
        .collect();
    let race_start = Instant::now();
    let race = solve_portfolio(problem, &budget(), &config);
    let race_ms = ms(race_start.elapsed());
    let end_to_end_ms = ms(race_start - start) + race_ms;

    let trace = tracer.snapshot().expect("wall tracer is enabled");
    let profile = tela_prof::rollup(&tela_prof::build_tree(&trace));
    let inner = |key: &str| {
        profile
            .entries
            .iter()
            .filter(|e| e.key == key)
            .map(|e| e.self_time as f64 / 1e6)
            .sum::<f64>()
    };
    let search = inner("search.solve");
    layers.add("core.search", search);
    layers.add("core.portfolio", race_ms - search);

    counters.races += 1;
    for report in race.reports.iter().flatten() {
        counters.variants_run += 1;
        counters.variant_steps += report.stats.steps;
        counters.backtracks += report.stats.total_backtracks();
        counters.propagations += report.stats.propagations;
    }
    if let Some(winner) = race
        .winner
        .and_then(|w| race.reports.get(w))
        .and_then(Option::as_ref)
    {
        counters.winner_steps += winner.stats.steps;
    }
    Replayed {
        outcome: race.result.outcome,
        steps: race.result.stats.steps,
        backtracks: race.result.stats.total_backtracks(),
        end_to_end_ms,
        attributed_ms: greedy_ms + preflight_ms + race_ms,
    }
}
