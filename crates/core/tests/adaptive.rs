//! Adaptive portfolio contracts: ranker seeding, bandit quota
//! schedules, determinism, and the blind-race fallback.
//!
//! The core crate only defines the [`VariantRanker`] interface, so these
//! tests drive the scheduler with small deterministic rankers rather
//! than the trained `tela-learned` model (covered by that crate's own
//! tests and the bench trend suite).

use std::sync::Arc;

use tela_model::{examples, Budget, Problem, SolveStats};
use tela_workloads::sweep::certified_configs;
use telamalloc::{solve_portfolio, AdaptiveConfig, PortfolioVariant, TelaConfig, VariantRanker};

/// A certified instance: tight enough that variants disagree, so the
/// bandit actually has work to do.
fn certified() -> Problem {
    certified_configs(1).remove(0).problem
}

/// Everything in [`SolveStats`] except wall-clock time.
fn clock_free(stats: &SolveStats) -> (u64, u64, u64, bool) {
    (
        stats.steps,
        stats.minor_backtracks,
        stats.major_backtracks,
        stats.cancelled,
    )
}

/// Prefers variants in list order (the base variant first) — the
/// schedule is then a pure function of the config.
#[derive(Debug)]
struct FavorBase;

impl VariantRanker for FavorBase {
    fn scores(&self, _features: &[f64], variants: &[PortfolioVariant]) -> Vec<f64> {
        (0..variants.len()).map(|i| -(i as f64)).collect()
    }
}

/// Deliberately backwards: ranks the base variant last, so round 0
/// seeds a "wrong" arm and the bandit has to recover.
#[derive(Debug)]
struct FavorLast;

impl VariantRanker for FavorLast {
    fn scores(&self, _features: &[f64], variants: &[PortfolioVariant]) -> Vec<f64> {
        (0..variants.len()).map(|i| i as f64).collect()
    }
}

fn adaptive_config(ranker: Arc<dyn VariantRanker>, threads: usize) -> TelaConfig {
    TelaConfig {
        threads,
        adaptive: AdaptiveConfig {
            ranker: Some(ranker),
            ..AdaptiveConfig::default()
        },
        ..TelaConfig::default()
    }
}

#[test]
fn adaptive_race_solves_and_reports_the_schedule() {
    let problem = examples::figure1();
    let budget = Budget::steps(200_000);
    let config = adaptive_config(Arc::new(FavorBase), 1);
    let race = solve_portfolio(&problem, &budget, &config);

    let solution = race.result.outcome.solution().expect("figure1 solves");
    assert!(solution.validate(&problem).is_ok());

    let report = race.adaptive.as_ref().expect("adaptive race reports");
    // FavorBase ranks variant 0 highest; threads == 1 ⇒ k == 1.
    assert_eq!(report.seeded, vec![0]);
    assert_eq!(report.scores.len(), 9, "one score per default variant");
    assert!(!report.rounds.is_empty());
    for round in &report.rounds {
        assert!(!round.runs.is_empty());
        for run in &round.runs {
            assert!(run.quota <= round.quota);
        }
    }

    // Winner identity is reported consistently in both places.
    let index = race.winner.expect("decisive race has a winner");
    let report = race.reports[index]
        .as_ref()
        .expect("the winner filed a report");
    assert_eq!(report.name, "telamalloc");
    let stats_winner = race.result.stats.winner.expect("stats carry the winner");
    assert_eq!(stats_winner.variant as usize, index);
    assert_eq!(stats_winner.thread, 0, "one thread runs every arm");
}

#[test]
fn quota_schedule_is_geometric_in_the_round_index() {
    let problem = certified();
    let budget = Budget::steps(50_000);
    let config = TelaConfig {
        threads: 1,
        adaptive: AdaptiveConfig {
            ranker: Some(Arc::new(FavorLast)),
            initial_quota: 64,
            quota_growth: 4,
            max_rounds: 6,
            ..AdaptiveConfig::default()
        },
        ..TelaConfig::default()
    };
    let race = solve_portfolio(&problem, &budget, &config);
    let report = race.adaptive.expect("adaptive race reports");
    for round in &report.rounds {
        // quota = initial · growth^round, capped by the outer budget.
        let planned = 64u64
            .saturating_mul(4u64.saturating_pow(round.round))
            .min(50_000);
        assert_eq!(round.quota, planned, "round {}", round.round);
    }
}

#[test]
fn adaptive_schedule_is_deterministic_at_one_thread() {
    let problem = certified();
    let budget = Budget::steps(100_000);
    let config = adaptive_config(Arc::new(FavorLast), 1);

    let a = solve_portfolio(&problem, &budget, &config);
    let b = solve_portfolio(&problem, &budget, &config);

    assert_eq!(a.adaptive, b.adaptive, "round-by-round schedule replays");
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.result.stats.winner, b.result.stats.winner);
    assert_eq!(a.result.outcome, b.result.outcome);
    assert_eq!(clock_free(&a.result.stats), clock_free(&b.result.stats));
}

#[test]
fn misleading_ranker_still_solves_through_exploration() {
    let problem = examples::figure1();
    let budget = Budget::steps(200_000);
    // Seed the race with the *worst-ranked* arms only; the UCB bonus
    // must still reach a decisive variant within the round cap.
    let config = TelaConfig {
        threads: 1,
        adaptive: AdaptiveConfig {
            ranker: Some(Arc::new(FavorLast)),
            top_k: 2,
            ..AdaptiveConfig::default()
        },
        ..TelaConfig::default()
    };
    let race = solve_portfolio(&problem, &budget, &config);
    let solution = race.result.outcome.solution().expect("figure1 solves");
    assert!(solution.validate(&problem).is_ok());
}

#[test]
fn adaptive_race_solves_in_parallel() {
    let problem = examples::figure1();
    let budget = Budget::steps(200_000);
    let config = adaptive_config(Arc::new(FavorBase), 4);
    let race = solve_portfolio(&problem, &budget, &config);
    let solution = race.result.outcome.solution().expect("figure1 solves");
    assert!(solution.validate(&problem).is_ok());
    let report = race.adaptive.expect("adaptive race reports");
    // threads == 4 ⇒ round 0 seeds the predicted top-4, best first.
    assert_eq!(report.seeded.len(), 4);
    assert_eq!(report.seeded[0], 0);
    assert!(race.result.stats.winner.is_some());
}

#[test]
fn no_ranker_is_bit_for_bit_the_blind_race() {
    let problem = certified();
    let budget = Budget::steps(60_000);
    // Adaptive knobs without a ranker must be inert: identical results
    // to the untouched default, and no adaptive report.
    let tuned = TelaConfig {
        threads: 1,
        adaptive: AdaptiveConfig {
            top_k: 3,
            initial_quota: 17,
            quota_growth: 3,
            ..AdaptiveConfig::default()
        },
        ..TelaConfig::default()
    };
    let blind = TelaConfig {
        threads: 1,
        ..TelaConfig::default()
    };
    let a = solve_portfolio(&problem, &budget, &tuned);
    let b = solve_portfolio(&problem, &budget, &blind);
    assert!(a.adaptive.is_none(), "no ranker ⇒ no adaptive race");
    assert!(b.adaptive.is_none());
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.result.outcome, b.result.outcome);
    assert_eq!(clock_free(&a.result.stats), clock_free(&b.result.stats));
    assert_eq!(a.result.decisions, b.result.decisions);
}

#[test]
fn perturbed_restarts_still_produce_valid_solutions() {
    // A tiny round quota forces several bandit rounds and perturbed
    // restarts before anything can finish; the eventual solution must
    // still validate.
    let problem = examples::figure1();
    let budget = Budget::steps(200_000);
    let config = TelaConfig {
        threads: 1,
        adaptive: AdaptiveConfig {
            ranker: Some(Arc::new(FavorBase)),
            initial_quota: 2,
            quota_growth: 2,
            max_rounds: 20,
            ..AdaptiveConfig::default()
        },
        ..TelaConfig::default()
    };
    let race = solve_portfolio(&problem, &budget, &config);
    let report = race.adaptive.as_ref().expect("adaptive race reports");
    assert!(report.rounds.len() > 1, "tiny quotas force multiple rounds");
    let solution = race.result.outcome.solution().expect("figure1 solves");
    assert!(solution.validate(&problem).is_ok());
}

#[cfg(feature = "fault-inject")]
#[test]
fn fault_plans_force_the_blind_fallback() {
    use tela_model::FaultPlan;

    let problem = examples::figure1();
    let budget = Budget::steps(100_000);
    let config = TelaConfig {
        threads: 1,
        adaptive: AdaptiveConfig {
            ranker: Some(Arc::new(FavorBase)),
            ..AdaptiveConfig::default()
        },
        fault_plan: Some(FaultPlan {
            panic_at_step: Some(5),
            victim_variant: Some(0),
            ..FaultPlan::default()
        }),
        ..TelaConfig::default()
    };
    let race = solve_portfolio(&problem, &budget, &config);
    assert!(
        race.adaptive.is_none(),
        "chaos runs must degrade to the blind race"
    );
    let solution = race.result.outcome.solution().expect("race survives");
    assert!(solution.validate(&problem).is_ok());
}
