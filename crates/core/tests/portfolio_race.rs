//! Portfolio race contracts: sequential determinism, parallel
//! soundness, and "the race never loses to its own base variant".

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tela_model::{Budget, Buffer, Problem, RaceWinner, ResilienceStage, SolveOutcome, SolveStats};
use tela_workloads::sweep::{certified_configs, certified_solvable, sweep_configs};
use telamalloc::{
    default_variants, solve, solve_portfolio, Backtrack, BacktrackChoice, BacktrackContext,
    BacktrackPolicy, ConflictGuidedPolicy, EscalationLadder, PlacedDecision, PortfolioResult,
    PortfolioVariant, TelaConfig, VariantOutcome, Verdict,
};

/// Everything in [`SolveStats`] except wall-clock time, which can never
/// be bit-identical across runs.
fn clock_free(stats: &SolveStats) -> (u64, u64, u64, bool) {
    (
        stats.steps,
        stats.minor_backtracks,
        stats.major_backtracks,
        stats.cancelled,
    )
}

/// With one thread the portfolio's base variant is the plain search:
/// when it wins, the race result is bit-identical to [`solve`]; when it
/// gives up (certified instances are tight on purpose), its report
/// still is, and only then do later variants run.
#[test]
fn single_thread_race_matches_solve_bit_for_bit() {
    let config = TelaConfig::default();
    let budget = Budget::steps(40_000);
    let mut problems: Vec<(String, Problem)> =
        vec![("figure1".to_string(), tela_model::examples::figure1())];
    problems.extend(
        certified_configs(2)
            .into_iter()
            .map(|s| (s.name, s.problem)),
    );
    let mut base_wins = 0;
    for (name, p) in &problems {
        let direct = solve(p, &budget, &config);
        let race = solve_portfolio(p, &budget, &config);
        if direct.outcome.is_solved() {
            // The base variant was decisive: the race IS the search.
            base_wins += 1;
            assert_eq!(race.winner, Some(0), "{name}: base variant must win");
            assert_eq!(direct.outcome, race.result.outcome, "{name}");
            assert_eq!(
                clock_free(&direct.stats),
                clock_free(&race.result.stats),
                "{name}"
            );
            assert_eq!(direct.decisions, race.result.decisions, "{name}");
            assert!(race.reports[1..].iter().all(Option::is_none), "{name}");
        } else {
            // Base gave up; its report must still mirror the plain
            // search exactly before the race moved on.
            let report = race.reports[0].as_ref().expect("variant 0 always runs");
            assert_eq!(
                report.outcome,
                VariantOutcome::Finished(direct.outcome),
                "{name}"
            );
            assert_eq!(
                clock_free(&report.stats),
                clock_free(&direct.stats),
                "{name}"
            );
        }
    }
    assert!(base_wins > 0, "at least figure1 is won by the base variant");
}

/// Pinning the variant list to the base configuration alone makes the
/// sequential race equivalent to [`solve`] on *every* outcome, not just
/// wins.
#[test]
fn single_variant_race_matches_solve_on_every_outcome() {
    let base = TelaConfig::default();
    let config = TelaConfig {
        variants: vec![PortfolioVariant {
            name: "base".to_string(),
            config: base.clone(),
        }],
        ..base.clone()
    };
    // Tight budget on purpose: exercise the BudgetExceeded path too.
    for budget in [Budget::steps(50), Budget::steps(200_000)] {
        for sweep in sweep_configs(4) {
            let p = &sweep.problem;
            let direct = solve(p, &budget, &base);
            let race = solve_portfolio(p, &budget, &config);
            assert_eq!(direct.outcome, race.result.outcome, "{}", sweep.name);
            assert_eq!(
                clock_free(&direct.stats),
                clock_free(&race.result.stats),
                "{}",
                sweep.name
            );
        }
    }
}

/// Every solution coming out of a multi-threaded race is a real
/// solution, and the winner's report agrees with the final result.
/// A `Custom` backtrack policy on the base configuration reaches the
/// ladder's portfolio stage, sequential or parallel: the run of variant 0
/// builds its own copy, and that copy answers the major backtracks.
#[test]
fn ladder_runs_a_custom_policy_at_every_thread_count() {
    #[derive(Default)]
    struct Counts {
        built: AtomicUsize,
        chosen: AtomicU64,
    }
    struct Counting(Arc<Counts>);
    impl BacktrackPolicy for Counting {
        fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
            self.0.chosen.fetch_add(1, Ordering::Relaxed);
            ConflictGuidedPolicy.choose(ctx)
        }
    }
    // Greedy cannot place this instance, and the conflict-guided search
    // solves it after a few major backtracks.
    let problem = certified_solvable(0);
    for threads in [1, 2] {
        let counts = Arc::new(Counts::default());
        let shared = Arc::clone(&counts);
        let ladder = EscalationLadder::new(TelaConfig {
            threads,
            backtrack: Backtrack::custom(move || {
                shared.built.fetch_add(1, Ordering::Relaxed);
                Counting(Arc::clone(&shared))
            }),
            ..TelaConfig::default()
        });
        let result = ladder.solve(&problem, &Budget::steps(30_000));
        assert_eq!(
            result.stage,
            ResilienceStage::Portfolio,
            "threads {threads}"
        );
        let solution = result.outcome.solution().expect("variant 0 solves it");
        assert!(solution.validate(&problem).is_ok());
        assert!(
            counts.built.load(Ordering::Relaxed) >= 1,
            "threads {threads}"
        );
        let chosen = counts.chosen.load(Ordering::Relaxed);
        assert!(chosen > 0, "threads {threads}");
        if threads == 1 {
            // Sequentially only variant 0 ran: every major backtrack was
            // the custom policy's.
            assert_eq!(chosen, result.stats.major_backtracks);
        }
    }
}

#[test]
fn parallel_race_solutions_validate() {
    let config = TelaConfig {
        threads: 4,
        ..TelaConfig::default()
    };
    let budget = Budget::steps(60_000);
    for sweep in sweep_configs(4) {
        let p = &sweep.problem;
        let race = solve_portfolio(p, &budget, &config);
        if let SolveOutcome::Solved(s) = &race.result.outcome {
            assert!(s.validate(p).is_ok(), "{}", sweep.name);
            let winner = race.winner.expect("a solved race has a winner");
            let report = race.reports[winner]
                .as_ref()
                .expect("the winner filed a report");
            assert_eq!(
                report.outcome,
                VariantOutcome::Finished(race.result.outcome.clone()),
                "{}",
                sweep.name
            );
            assert!(
                !report.stats.cancelled,
                "{}: winners are never cancelled",
                sweep.name
            );
        }
    }
}

fn buffer_strategy() -> impl Strategy<Value = Buffer> {
    (
        0u32..8,
        1u32..5,
        1u64..6,
        prop_oneof![Just(1u64), Just(2), Just(4)],
    )
        .prop_map(|(start, len, size, align)| {
            Buffer::new(start, start + len, size).with_align(align)
        })
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (prop::collection::vec(buffer_strategy(), 1..10), 6u64..14).prop_map(|(buffers, capacity)| {
        Problem::new(buffers, capacity).expect("sizes below capacity")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Racing 2–4 workers on random instances: solutions validate,
    /// and the portfolio never does worse than the plain search — the
    /// base configuration is in the race, cancellation only fires once
    /// a decisive (sound) outcome is claimed, so "solve() solves" must
    /// imply "the portfolio solves".
    #[test]
    fn random_races_are_sound(problem in problem_strategy(), threads in 2usize..=4) {
        let budget = Budget::steps(200_000);
        let config = TelaConfig { threads, ..TelaConfig::default() };
        let race = solve_portfolio(&problem, &budget, &config);
        if let SolveOutcome::Solved(s) = &race.result.outcome {
            prop_assert!(s.validate(&problem).is_ok());
        }
        let direct = solve(&problem, &budget, &TelaConfig::default());
        if direct.outcome.is_solved() {
            prop_assert!(
                race.result.outcome.is_solved(),
                "portfolio lost an instance its base variant solves: {:?}",
                race.result.outcome
            );
        }
    }
}

/// Every [`SolveStats`] field except wall-clock time.
fn without_clock(stats: &SolveStats) -> SolveStats {
    SolveStats {
        elapsed: Duration::ZERO,
        ..*stats
    }
}

/// What the reference oracle reports of a race.
struct OracleRace {
    winner: Option<usize>,
    outcome: SolveOutcome,
    stats: SolveStats,
    /// Per variant: name, outcome, clock-free stats.
    reports: Vec<Option<(String, VariantOutcome, SolveStats)>>,
    partial: Vec<PlacedDecision>,
    first_conflict: Vec<tela_model::BufferId>,
}

/// Reference oracle: the sequential blind race as it stood before every
/// race moved onto one round executor. One preflight for the whole race,
/// then the variants in order until one is decisive; without a winner,
/// the aggregate carries the longest committed prefix any variant
/// reached.
fn oracle_race(problem: &Problem, budget: &Budget, config: &TelaConfig) -> OracleRace {
    let mut race = OracleRace {
        winner: None,
        outcome: SolveOutcome::GaveUp,
        stats: SolveStats::default(),
        reports: Vec::new(),
        partial: Vec::new(),
        first_conflict: Vec::new(),
    };
    match tela_audit::preflight(problem) {
        Verdict::ProvablyInfeasible(_) => {
            race.outcome = SolveOutcome::Infeasible;
            return race;
        }
        Verdict::TriviallyFeasible(solution) => {
            race.outcome = SolveOutcome::Solved(solution);
            return race;
        }
        Verdict::NeedsSearch(_) => {}
    }
    let variants = default_variants(config);
    race.reports = vec![None; variants.len()];
    let mut best_partial: Option<(Vec<PlacedDecision>, Vec<tela_model::BufferId>)> = None;
    for (index, variant) in variants.iter().enumerate() {
        let mut worker = variant.config.clone();
        worker.preflight_audit = false;
        worker.threads = 1;
        worker.variants = Vec::new();
        let result = solve(problem, budget, &worker);
        let decisive = matches!(
            result.outcome,
            SolveOutcome::Solved(_) | SolveOutcome::Infeasible
        );
        race.reports[index] = Some((
            variant.name.clone(),
            VariantOutcome::Finished(result.outcome.clone()),
            without_clock(&result.stats),
        ));
        if decisive {
            race.winner = Some(index);
            race.outcome = result.outcome;
            race.stats = without_clock(&result.stats);
            race.stats.winner = Some(RaceWinner {
                variant: index as u32,
                thread: 0,
            });
            race.partial = result.partial;
            race.first_conflict = result.first_conflict;
            return race;
        }
        let longer = match &best_partial {
            None => !result.partial.is_empty() || !result.first_conflict.is_empty(),
            Some((prefix, _)) => result.partial.len() > prefix.len(),
        };
        if longer {
            best_partial = Some((result.partial, result.first_conflict));
        }
    }
    let mut budget_exceeded = false;
    for (_, outcome, stats) in race.reports.iter().flatten() {
        race.stats.absorb(stats);
        budget_exceeded |= *outcome == VariantOutcome::Finished(SolveOutcome::BudgetExceeded);
    }
    if budget_exceeded {
        race.outcome = SolveOutcome::BudgetExceeded;
    }
    (race.partial, race.first_conflict) = best_partial.unwrap_or_default();
    race
}

fn assert_matches_oracle(race: &PortfolioResult, oracle: &OracleRace) {
    assert_eq!(race.winner, oracle.winner);
    assert_eq!(race.result.outcome, oracle.outcome);
    assert_eq!(without_clock(&race.result.stats), oracle.stats);
    assert_eq!(race.result.partial, oracle.partial);
    assert_eq!(race.result.first_conflict, oracle.first_conflict);
    assert_eq!(race.reports.len(), oracle.reports.len());
    for (report, expected) in race.reports.iter().zip(&oracle.reports) {
        let report = report
            .as_ref()
            .map(|r| (r.name.clone(), r.outcome.clone(), without_clock(&r.stats)));
        assert_eq!(&report, expected);
    }
}

/// Tight instances: capacity within two units of the peak contention,
/// so variants disagree, give up, and run out of steps.
fn tight_problem_strategy() -> impl Strategy<Value = Problem> {
    (prop::collection::vec(buffer_strategy(), 4..14), 0u64..3).prop_map(|(buffers, slack)| {
        let peak = Problem::new(buffers.clone(), 1 << 20)
            .expect("sizes below capacity")
            .max_contention();
        Problem::new(buffers, (peak + slack).max(5)).expect("sizes below capacity")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// At `threads = 1` the blind race is one full-budget round through
    /// the shared executor; it must reproduce the old sequential race
    /// exactly — winner, outcome, clock-free stats, per-variant
    /// reports, and the best-effort prefix and conflict.
    #[test]
    fn single_thread_blind_race_matches_the_sequential_oracle(
        problem in tight_problem_strategy(),
        steps in 1u64..400,
    ) {
        let budget = Budget::steps(steps);
        let config = TelaConfig::default();
        let race = solve_portfolio(&problem, &budget, &config);
        assert_matches_oracle(&race, &oracle_race(&problem, &budget, &config));
    }
}

/// At `threads > 1` the blind race first sprints variant 0 alone; on
/// figure1 that sprint is decisive, so no other variant ever starts.
#[test]
fn parallel_sprint_settles_figure1_alone() {
    let config = TelaConfig {
        threads: 4,
        ..TelaConfig::default()
    };
    let race = solve_portfolio(
        &tela_model::examples::figure1(),
        &Budget::steps(100_000),
        &config,
    );
    assert!(race.result.outcome.is_solved());
    assert_eq!(race.winner, Some(0));
    assert_eq!(
        race.result.stats.winner,
        Some(RaceWinner {
            variant: 0,
            thread: 0
        })
    );
    assert!(race.reports[0].is_some());
    assert!(race.reports[1..].iter().all(Option::is_none));
}
