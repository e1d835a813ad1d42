//! Adaptive portfolio scheduling: learned variant ranking plus a
//! bandit-style budget scheduler.
//!
//! The blind portfolio (see [`crate::portfolio`]) races every
//! strategy×policy variant with the full budget each — robust, but
//! `threads`-times the work even when one variant would win in
//! microseconds. This module replaces the fire-and-forget race with a
//! *scheduled* one when a [`VariantRanker`] is configured:
//!
//! 1. **Seeding.** The instance's
//!    [`InstanceStats::feature_vector`] is scored per variant by the
//!    ranker (a `tela-learned` GBT trained from suite self-play) and the
//!    predicted top-k variants enter the race first.
//! 2. **Bandit rounds.** The budget is sliced into geometrically
//!    growing step quotas. Each round runs the selected arms from
//!    scratch under the round quota, through the same round executor
//!    as the blind race; between rounds a UCB score over
//!    *observed progress* (committed-prefix depth, with steps,
//!    propagations and backtracks on the round report) reallocates the
//!    k slots — promising arms deepen, clear losers restart with a
//!    *perturbed* block ordering (`tela_heuristics::perturb`), and
//!    never-tried arms keep an exploration bonus so no variant is
//!    starved.
//! 3. **Determinism.** Quota schedules depend only on the round index
//!    and the outer budget, never on wall time. With `threads == 1`
//!    the whole schedule — selection, quotas, restarts, winner — is a
//!    pure function of `(problem, config, budget)`.
//!
//! **Fallback semantics:** with no ranker configured (no model file),
//! or when a `fault-inject` plan is active, [`crate::solve_portfolio`]
//! never enters this module and behaves bit-for-bit like the blind
//! race — the trace-determinism and chaos suites hold unchanged.

use std::sync::Arc;

use tela_heuristics::perturb;
use tela_model::{Budget, InstanceStats, Problem, SolveOutcome};

use crate::config::TelaConfig;
use crate::portfolio::{is_decisive, run_round, PortfolioResult, PortfolioVariant, Race, Slot};

/// Scores portfolio variants for one instance; higher means "predicted
/// to settle the race sooner". Implementations must be deterministic —
/// the adaptive schedule is replayed byte-for-byte in tests.
///
/// The core crate only defines the interface; `tela-learned` provides
/// the trained GBT implementation (`PortfolioRanker`), keeping the
/// dependency arrow pointing the same way as for
/// [`BacktrackPolicy`](crate::BacktrackPolicy).
pub trait VariantRanker: Send + Sync + std::fmt::Debug {
    /// One score per entry of `variants`, aligned by index. `features`
    /// is an [`InstanceStats::feature_vector`].
    fn scores(&self, features: &[f64], variants: &[PortfolioVariant]) -> Vec<f64>;
}

/// Knobs for the adaptive portfolio scheduler. The scheduler only
/// activates when [`AdaptiveConfig::ranker`] is set (and no fault plan
/// is active); otherwise the portfolio runs the blind race unchanged.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// The learned variant ranker. `None` (the default) disables
    /// adaptive scheduling entirely.
    pub ranker: Option<Arc<dyn VariantRanker>>,
    /// Arms raced concurrently per round. `0` (the default) means "as
    /// many as `threads`".
    pub top_k: usize,
    /// Step quota of round 0.
    pub initial_quota: u64,
    /// Geometric growth factor of the per-round quota (clamped to ≥ 2).
    pub quota_growth: u64,
    /// Hard cap on the number of rounds.
    pub max_rounds: u32,
}

/// UCB exploration coefficient: weight of the `sqrt(ln N / n)` bonus
/// against observed depth in arm selection.
const EXPLORATION: f64 = 0.5;

/// Base seed for restart perturbation (`tela_heuristics::perturb`).
/// Every arm's first run is always unperturbed (seed 0), so the
/// canonical variant behavior is tried before any jittered restart.
const PERTURBATION_BASE: u64 = 0x7E1A;

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            ranker: None,
            top_k: 0,
            initial_quota: 4096,
            quota_growth: 8,
            max_rounds: 8,
        }
    }
}

/// How the adaptive scheduler spent the race, round by round. Attached
/// to [`PortfolioResult::adaptive`]; `PartialEq` so determinism tests
/// can compare whole schedules across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// Raw ranker score per variant (index-aligned with the race's
    /// variant list).
    pub scores: Vec<f64>,
    /// The predicted top-k variant indices seeded into round 0, best
    /// first.
    pub seeded: Vec<usize>,
    /// One entry per executed round.
    pub rounds: Vec<RoundReport>,
    /// Total perturbed restarts issued across all arms.
    pub restarts: u64,
}

/// One bandit round of the adaptive race.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Round ordinal (0-based).
    pub round: u32,
    /// The planned per-arm step quota of this round (individual arms
    /// may run under less when their share of the budget is nearly
    /// spent — see [`RunReport::quota`]).
    pub quota: u64,
    /// The arms that ran, in selection order (best first).
    pub runs: Vec<RunReport>,
}

/// One arm execution within a round.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Variant index into the race's variant list.
    pub variant: usize,
    /// The step quota this run actually received.
    pub quota: u64,
    /// Perturbation seed the run used (0 = canonical ordering).
    pub perturbation: u64,
    /// Steps the run consumed.
    pub steps: u64,
    /// CP propagations the run performed (progress signal).
    pub propagations: u64,
    /// Committed-prefix depth when the run stopped (the full problem
    /// size when it solved).
    pub depth: usize,
    /// The run's outcome label (`solved`, `gave_up`, `budget_exceeded`,
    /// `infeasible`, or `panicked`).
    pub outcome: &'static str,
}

/// Live bandit state of one variant arm.
#[derive(Debug, Clone, Copy, Default)]
struct Arm {
    /// Completed runs.
    runs: u32,
    /// Steps consumed across all runs.
    spent: u64,
    /// Deepest committed prefix any run of this arm reached.
    best_depth: usize,
    /// Perturbed restarts issued so far (also the perturbation epoch of
    /// the next run).
    restarts: u64,
    /// The arm consumed its full per-arm step budget; it cannot be
    /// selected again.
    exhausted: bool,
}

/// The per-round quota: `initial · growth^round`, saturating, capped by
/// the outer per-arm step budget.
// tela-lint: hot-path
pub(crate) fn planned_quota(round: u32, initial: u64, growth: u64, cap: Option<u64>) -> u64 {
    let growth = growth.max(2);
    let mut quota = initial.max(1);
    for _ in 0..round {
        quota = quota.saturating_mul(growth);
        if let Some(cap) = cap {
            if quota >= cap {
                return cap;
            }
        }
    }
    match cap {
        Some(cap) => quota.min(cap),
        None => quota,
    }
}

/// The UCB selection score of one arm: observed best depth (as a
/// fraction of the problem) — or the ranker prior for a never-run arm —
/// plus the exploration bonus.
// tela-lint: hot-path
fn ucb_score(arm: &Arm, prior: f64, problem_len: usize, total_runs: u32) -> f64 {
    let value = if arm.runs == 0 {
        prior
    } else {
        arm.best_depth as f64 / problem_len.max(1) as f64
    };
    let bonus = EXPLORATION * (f64::from(1 + total_runs).ln() / f64::from(1 + arm.runs)).sqrt();
    value + bonus
}

/// Selects up to `k` arm indices by UCB score into `out` (cleared
/// first), best first; deterministic tie-breaks by prior then index.
/// Exhausted arms never qualify.
// tela-lint: hot-path
fn select_arms(
    out: &mut Vec<usize>,
    arms: &[Arm],
    priors: &[f64],
    problem_len: usize,
    total_runs: u32,
    k: usize,
) {
    out.clear();
    for _ in 0..k {
        let mut best: Option<(usize, f64)> = None;
        for (i, arm) in arms.iter().enumerate() {
            if arm.exhausted || out.contains(&i) {
                continue;
            }
            let score = ucb_score(arm, priors[i], problem_len, total_runs);
            let better = match best {
                None => true,
                Some((bi, bs)) => {
                    score > bs
                        || (score == bs
                            && (priors[i] > priors[bi] || (priors[i] == priors[bi] && i < bi)))
                }
            };
            if better {
                best = Some((i, score));
            }
        }
        match best {
            Some((i, _)) => out.push(i),
            None => break,
        }
    }
}

/// Min-max normalizes raw ranker scores into `[0, 1]` priors
/// (degenerate spans collapse to 0.5 so every arm keeps a usable
/// optimistic initialization).
fn normalize_priors(raw: &[f64]) -> Vec<f64> {
    let lo = raw.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-12 {
        return vec![0.5; raw.len()];
    }
    raw.iter().map(|&s| (s - lo) / (hi - lo)).collect()
}

/// The perturbation seed of run number `restarts` of variant `variant`:
/// 0 (canonical ordering) for the first run, a nonzero splitmix-derived
/// seed afterwards.
fn perturbation_seed(variant: usize, restarts: u64) -> u64 {
    if restarts == 0 {
        return 0;
    }
    let mixed = perturb::splitmix64(PERTURBATION_BASE ^ ((variant as u64) << 32) ^ restarts);
    mixed.max(1)
}

/// Runs the adaptive race. Called by the portfolio driver once the
/// preflight passed, a ranker is configured, and no fault plan is
/// active.
pub(crate) fn race_adaptive(
    problem: &Problem,
    budget: &Budget,
    variants: &[PortfolioVariant],
    threads: usize,
    config: &TelaConfig,
    ranker: &dyn VariantRanker,
) -> PortfolioResult {
    let adaptive = &config.adaptive;
    let tracer = &config.tracer;
    let n = variants.len();
    let features = InstanceStats::of(problem).feature_vector();
    let scores = ranker.scores(&features, variants);
    debug_assert_eq!(scores.len(), n, "ranker must score every variant");
    let scores = if scores.len() == n {
        scores
    } else {
        vec![0.0; n]
    };
    let priors = normalize_priors(&scores);
    let k = if adaptive.top_k == 0 {
        threads
    } else {
        adaptive.top_k
    }
    .clamp(1, n);
    let per_arm_cap = budget.max_steps();

    let mut arms = vec![Arm::default(); n];
    let mut race = Race::new(n);
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    select_arms(&mut selected, &arms, &priors, problem.len(), 0, k);
    let mut report = AdaptiveReport {
        scores,
        seeded: selected.clone(),
        rounds: Vec::new(),
        restarts: 0,
    };
    if tracer.enabled() {
        tracer.count("portfolio.adaptive.races", 1);
        let seeded: Vec<String> = selected.iter().map(|v| variants[*v].name.clone()).collect();
        tracer.instant(
            "portfolio",
            "adaptive_seed",
            vec![
                ("top_k".into(), k.into()),
                ("seeded".into(), seeded.join(",").into()),
            ],
        );
    }

    let mut total_runs = 0u32;
    let mut round = 0u32;
    while !race.decided() && round < adaptive.max_rounds && !selected.is_empty() {
        if budget.cancelled() || budget.deadline_passed() {
            break;
        }
        let quota = planned_quota(
            round,
            adaptive.initial_quota,
            adaptive.quota_growth,
            per_arm_cap,
        );
        let slots: Vec<Slot> = selected
            .iter()
            .map(|&variant| {
                let arm = &arms[variant];
                Slot {
                    variant,
                    // An arm never runs past its share of the budget.
                    quota: Some(
                        per_arm_cap.map_or(quota, |cap| quota.min(cap.saturating_sub(arm.spent))),
                    ),
                    perturbation: perturbation_seed(variant, arm.restarts),
                }
            })
            .collect();
        let propagations_before = tracer.counter_value("cp.propagations").unwrap_or(0);
        let runs = run_round(problem, budget, variants, config, &slots, threads);

        let mut round_report = RoundReport {
            round,
            quota,
            runs: Vec::with_capacity(runs.len()),
        };
        // Runs arrive in selection order: at `threads == 1` this makes
        // the whole round report (and the winner) deterministic.
        for run in runs {
            let arm = &mut arms[run.slot.variant];
            arm.runs += 1;
            total_runs += 1;
            let mut run_report = RunReport {
                variant: run.slot.variant,
                quota: run.slot.quota.unwrap_or(quota),
                perturbation: run.slot.perturbation,
                steps: 0,
                propagations: 0,
                depth: 0,
                outcome: "panicked",
            };
            match &run.outcome {
                Ok(result) => {
                    let depth = if result.outcome.is_solved() {
                        problem.len()
                    } else {
                        result.partial.len()
                    };
                    arm.spent += result.stats.steps;
                    if let Some(cap) = per_arm_cap {
                        arm.exhausted |= arm.spent >= cap;
                    }
                    run_report.steps = result.stats.steps;
                    run_report.propagations = result.stats.propagations;
                    run_report.depth = depth;
                    run_report.outcome = result.outcome.label();
                    // Restart policy: an arm that exhausted its search
                    // space (gave up) or made no depth progress on its
                    // own (not merely cancelled by a round winner) is a
                    // clear loser — its next run gets a perturbed
                    // ordering. Decisive runs end the race instead.
                    if !is_decisive(&result.outcome) {
                        let lost_on_its_own = !result.stats.cancelled;
                        let stalled = depth <= arm.best_depth && arm.runs > 1;
                        if lost_on_its_own
                            && (matches!(result.outcome, SolveOutcome::GaveUp) || stalled)
                        {
                            arm.restarts += 1;
                            report.restarts += 1;
                        }
                        arm.best_depth = arm.best_depth.max(depth);
                    }
                }
                Err(_) => {
                    arm.restarts += 1;
                    report.restarts += 1;
                }
            }
            round_report.runs.push(run_report);
            race.record(run, variants);
        }
        if tracer.enabled() {
            let propagations = tracer
                .counter_value("cp.propagations")
                .unwrap_or(0)
                .saturating_sub(propagations_before);
            tracer.count("portfolio.adaptive.rounds", 1);
            tracer.instant(
                "portfolio",
                "adaptive_round",
                vec![
                    ("round".into(), u64::from(round).into()),
                    ("quota".into(), quota.into()),
                    ("arms".into(), round_report.runs.len().into()),
                    ("propagations".into(), propagations.into()),
                ],
            );
        }
        report.rounds.push(round_report);
        round += 1;
        if !race.decided() {
            select_arms(&mut selected, &arms, &priors, problem.len(), total_runs, k);
        }
    }
    if tracer.enabled() {
        tracer.count("portfolio.adaptive.restarts", report.restarts);
    }
    let mut result = race.finish(variants, tracer);
    result.adaptive = Some(report);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_quota_grows_geometrically_to_the_cap() {
        assert_eq!(planned_quota(0, 4096, 8, Some(200_000)), 4096);
        assert_eq!(planned_quota(1, 4096, 8, Some(200_000)), 32_768);
        assert_eq!(planned_quota(2, 4096, 8, Some(200_000)), 200_000);
        assert_eq!(planned_quota(9, 4096, 8, Some(200_000)), 200_000);
        assert_eq!(planned_quota(2, 4096, 8, None), 262_144);
        // Saturation instead of overflow.
        assert_eq!(planned_quota(60, u64::MAX / 2, 8, None), u64::MAX);
    }

    #[test]
    fn ucb_prefers_unrun_arms_with_high_priors() {
        let fresh = Arm::default();
        let stale = Arm {
            runs: 4,
            best_depth: 10,
            ..Arm::default()
        };
        // Identical priors: the fresh arm's larger bonus wins.
        let fresh_score = ucb_score(&fresh, 0.8, 100, 4);
        let stale_score = ucb_score(&stale, 0.8, 100, 4);
        assert!(fresh_score > stale_score);
    }

    #[test]
    fn select_arms_is_deterministic_and_skips_exhausted() {
        let mut arms = vec![Arm::default(); 5];
        arms[2].exhausted = true;
        let priors = vec![0.1, 0.9, 1.0, 0.9, 0.2];
        let mut picked = Vec::new();
        select_arms(&mut picked, &arms, &priors, 10, 0, 3);
        // Exhausted arm 2 never selected; ties (1 vs 3) break by index.
        assert_eq!(picked, vec![1, 3, 4]);
        let mut again = Vec::new();
        select_arms(&mut again, &arms, &priors, 10, 0, 3);
        assert_eq!(picked, again);
    }

    #[test]
    fn first_run_of_every_arm_is_unperturbed() {
        for v in 0..9 {
            assert_eq!(perturbation_seed(v, 0), 0);
            assert_ne!(perturbation_seed(v, 1), 0);
            assert_ne!(perturbation_seed(v, 1), perturbation_seed(v, 2));
        }
    }

    #[test]
    fn degenerate_priors_normalize_to_half() {
        assert_eq!(normalize_priors(&[0.3, 0.3, 0.3]), vec![0.5, 0.5, 0.5]);
        let p = normalize_priors(&[0.0, 1.0, 0.5]);
        assert_eq!(p, vec![0.0, 1.0, 0.5]);
    }
}
