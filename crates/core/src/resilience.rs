//! The escalation ladder: staged retries with budget slicing, spill
//! hooks, and best-effort degradation (paper §1, §2.3, §6.5).
//!
//! The paper's production chain never aborts a compilation because one
//! solver stage failed: the fast heuristic runs first, the full search
//! next, and when the instance genuinely does not fit, the framework
//! spills a tensor to DRAM and tries again. [`EscalationLadder`]
//! encodes that chain as explicit stages, each running under a slice of
//! the caller's [`Budget`]:
//!
//! ```text
//!   greedy heuristic ──solved──────────────────────────▶ Solved
//!        │ failed
//!        ▼
//!   portfolio race  ──solved/infeasible(no spill)─────▶ Solved / Infeasible
//!        │ budget exhausted or infeasible
//!        ▼
//!   spill round 1..N: evict → rebuild Problem → re-solve
//!        │ rounds capped / spill impossible / out of time
//!        ▼
//!   BestEffort { validated partial, stage, steps, first conflict }
//! ```
//!
//! Every exit is a well-formed [`SolveOutcome`]: the ladder never
//! panics (workers are isolated) and never returns an unvalidated
//! placement.

use std::time::{Duration, Instant};

use tela_audit::Certificate;
use tela_model::{
    BestEffort, Budget, BufferId, PartialSolution, Problem, ResilienceStage, Solution,
    SolveOutcome, SolveStats,
};

use crate::backtrack::PlacedDecision;
use crate::config::TelaConfig;
use crate::portfolio::{catch_panics, solve_portfolio};

/// Tuning knobs for the [`EscalationLadder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderConfig {
    /// Maximum number of spill-and-retry rounds after the first attempt.
    pub max_spill_rounds: u32,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            max_spill_rounds: 8,
        }
    }
}

/// Percentage of the remaining step budget (and deadline) granted to the
/// first portfolio attempt when spill rounds are configured; the rest is
/// held back for the retries.
const FIRST_ATTEMPT_PERCENT: u128 = 60;

/// Supplies the next, smaller problem when a stage fails: each call
/// evicts something (e.g. spills a tensor to DRAM, as
/// `tela-pixel`'s `SpillReport` records) and rebuilds the [`Problem`].
pub trait SpillHook {
    /// Produces the problem for spill round `round` (1-based), or
    /// `None` when nothing more can be evicted.
    fn spill(&mut self, round: u32) -> Option<Problem>;
}

/// A [`SpillHook`] that never spills: the ladder degrades straight to
/// [`SolveOutcome::BestEffort`] when the portfolio fails.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpill;

impl SpillHook for NoSpill {
    fn spill(&mut self, _round: u32) -> Option<Problem> {
        None
    }
}

/// What one ladder stage did.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Which stage ran.
    pub stage: ResilienceStage,
    /// The stage's outcome (the heuristic stage only appears here when
    /// it solved the instance).
    pub outcome: SolveOutcome,
    /// The stage's own search statistics.
    pub stats: SolveStats,
}

/// Result of running the escalation ladder.
#[derive(Debug, Clone)]
pub struct LadderResult {
    /// Always one of `Solved`, `Infeasible`, or `BestEffort` — the
    /// ladder converts `GaveUp`/`BudgetExceeded` into a diagnosed
    /// best-effort answer.
    pub outcome: SolveOutcome,
    /// The problem the outcome refers to: the input, unless spill
    /// rounds rebuilt it (then the final spilled problem).
    pub problem: Problem,
    /// How many spill rounds ran.
    pub spill_rounds: u32,
    /// The stage that produced the final outcome.
    pub stage: ResilienceStage,
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
    /// Aggregate statistics across every stage.
    pub stats: SolveStats,
    /// The infeasibility witness, when the outcome is a proven
    /// `Infeasible`.
    pub certificate: Option<Certificate>,
}

/// The staged-retry driver: greedy → portfolio → spill-and-retry →
/// best-effort (see the module docs for the stage diagram).
///
/// # Example
///
/// ```
/// use telamalloc::{EscalationLadder, TelaConfig};
/// use tela_model::{examples, Budget};
///
/// let ladder = EscalationLadder::new(TelaConfig::default());
/// let result = ladder.solve(&examples::figure1(), &Budget::steps(500_000));
/// assert!(result.outcome.is_solved());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EscalationLadder {
    config: TelaConfig,
}

impl EscalationLadder {
    /// Creates a ladder running `config` at every search stage.
    pub fn new(config: TelaConfig) -> Self {
        EscalationLadder { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TelaConfig {
        &self.config
    }

    /// Runs the ladder without a spill hook: greedy, then the
    /// portfolio, then straight to best-effort degradation.
    pub fn solve(&self, problem: &Problem, budget: &Budget) -> LadderResult {
        self.solve_with_spill(problem.clone(), budget, &mut NoSpill)
    }

    /// Runs the full ladder: after a failed attempt, `hook` may supply
    /// a smaller (spilled) problem for the next round, up to
    /// [`LadderConfig::max_spill_rounds`] times.
    ///
    /// The returned `stats.elapsed` is the ladder's own wall-clock time
    /// across all stages, stamped on every exit path (heuristic win,
    /// portfolio win, definitive infeasibility, best-effort).
    pub fn solve_with_spill(
        &self,
        problem: Problem,
        budget: &Budget,
        hook: &mut dyn SpillHook,
    ) -> LadderResult {
        // tela-lint: allow(deterministic-clock, reason = "stats-only wall stamping of elapsed; never branches the search")
        let start = Instant::now();
        let tracer = &self.config.tracer;
        let span = if tracer.enabled() {
            tracer.count("ladder.runs", 1);
            tracer.begin(
                "ladder",
                "solve",
                vec![("buffers".into(), problem.len().into())],
            )
        } else {
            tela_trace::SpanId::NULL
        };
        let mut result = self.run_ladder(problem, budget, hook);
        result.stats.elapsed = start.elapsed();
        if tracer.enabled() {
            tracer.set_gauge("ladder.spill_rounds", i64::from(result.spill_rounds));
            tracer.end(
                span,
                "ladder",
                "solve",
                vec![
                    ("outcome".into(), result.outcome.label().into()),
                    ("spill_rounds".into(), u64::from(result.spill_rounds).into()),
                ],
            );
        }
        result
    }

    /// The ladder's fast path on its own: the greedy heuristic,
    /// isolated like any other worker (a panic in it counts as a miss),
    /// recording into the configured tracer. Returns the placement only
    /// when it validates against `problem`.
    pub fn greedy(&self, problem: &Problem) -> Option<Solution> {
        let heuristic =
            catch_panics(|| tela_heuristics::greedy::solve_traced(problem, &self.config.tracer))
                .ok()?;
        heuristic
            .solution
            .filter(|solution| solution.validate(problem).is_ok())
    }

    fn run_ladder(
        &self,
        problem: Problem,
        budget: &Budget,
        hook: &mut dyn SpillHook,
    ) -> LadderResult {
        let tracer = &self.config.tracer;
        let lc = &self.config.ladder;
        let mut current = problem;
        let mut agg = SolveStats::default();
        let mut stages: Vec<StageReport> = Vec::new();
        let mut round: u32 = 0;
        // Assigned on every loop iteration before any `break` can run.
        let mut last_partial: Vec<PlacedDecision>;
        let mut last_conflict: Vec<BufferId>;
        let mut deepest: ResilienceStage;

        loop {
            let stage_id = if round == 0 {
                ResilienceStage::Portfolio
            } else {
                ResilienceStage::SpillRetry { round }
            };

            if let Some(solution) = self.greedy(&current) {
                if tracer.enabled() {
                    tracer.count("ladder.greedy_wins", 1);
                    tracer.instant(
                        "ladder",
                        "greedy_solved",
                        vec![("round".into(), u64::from(round).into())],
                    );
                }
                let stage = if round == 0 {
                    ResilienceStage::Heuristic
                } else {
                    stage_id
                };
                stages.push(StageReport {
                    stage,
                    outcome: SolveOutcome::Solved(solution.clone()),
                    stats: SolveStats::default(),
                });
                return LadderResult {
                    outcome: SolveOutcome::Solved(solution),
                    problem: current,
                    spill_rounds: round,
                    stage,
                    stages,
                    stats: agg,
                    certificate: None,
                };
            }

            deepest = stage_id;
            let stage_budget = round_budget(budget, lc, agg.steps, round);
            let race = solve_portfolio(&current, &stage_budget, &self.config);
            agg.absorb(&race.result.stats);
            stages.push(StageReport {
                stage: stage_id,
                outcome: race.result.outcome.clone(),
                stats: race.result.stats,
            });
            if tracer.enabled() {
                tracer.count("ladder.stages", 1);
                tracer.observe("ladder.stage.steps", race.result.stats.steps);
                // Stage durations are real wall time, so they are only
                // recorded under the wall clock — logical traces must
                // stay byte-identical across runs.
                if tracer.clock() == Some(tela_trace::ClockMode::Wall) {
                    tracer.observe(
                        "ladder.stage.elapsed_us",
                        race.result.stats.elapsed.as_micros() as u64,
                    );
                }
                tracer.instant(
                    "ladder",
                    "stage",
                    vec![
                        ("round".into(), u64::from(round).into()),
                        ("outcome".into(), race.result.outcome.label().into()),
                    ],
                );
            }
            let infeasible_here = matches!(race.result.outcome, SolveOutcome::Infeasible);
            if let SolveOutcome::Solved(solution) = race.result.outcome {
                return LadderResult {
                    outcome: SolveOutcome::Solved(solution),
                    problem: current,
                    spill_rounds: round,
                    stage: stage_id,
                    stages,
                    stats: agg,
                    certificate: None,
                };
            }
            // Partials from earlier rounds describe a different
            // (pre-spill) problem, so each round overwrites them.
            last_partial = race.result.partial;
            last_conflict = race.result.first_conflict;

            let out_of_time = budget.deadline_passed() || budget.cancelled();
            if out_of_time || round >= lc.max_spill_rounds {
                break;
            }
            let next = if self.spill_blocked(round + 1) {
                None
            } else {
                hook.spill(round + 1)
            };
            match next {
                Some(spilled) => {
                    if tracer.enabled() {
                        tracer.count("ladder.spills", 1);
                        tracer.instant(
                            "ladder",
                            "spill",
                            vec![
                                ("round".into(), u64::from(round + 1).into()),
                                ("buffers".into(), spilled.len().into()),
                            ],
                        );
                    }
                    current = spilled;
                    round += 1;
                }
                None => {
                    // Nothing left to evict. An infeasibility proof for
                    // the *unspilled* problem is a definitive answer;
                    // after spilling it only describes the reduced
                    // problem, so degrade instead.
                    if infeasible_here && round == 0 {
                        return LadderResult {
                            outcome: SolveOutcome::Infeasible,
                            problem: current,
                            spill_rounds: 0,
                            stage: stage_id,
                            stages,
                            stats: agg,
                            certificate: race.result.certificate,
                        };
                    }
                    break;
                }
            }
        }

        // Terminal degradation: package the longest committed prefix as
        // a validated partial solution. Validation failure (e.g. a
        // prefix from a sub-problem the spill hook since rebuilt) drops
        // the prefix rather than returning an unchecked placement.
        let partial =
            PartialSolution::new(last_partial.iter().map(|d| (d.block, d.address)).collect());
        let partial = if partial.validate(&current).is_ok() {
            partial
        } else {
            PartialSolution::empty()
        };
        if tracer.enabled() {
            tracer.count("ladder.degraded", 1);
            tracer.instant(
                "ladder",
                "degraded",
                vec![
                    ("placed".into(), partial.len().into()),
                    ("spill_rounds".into(), u64::from(round).into()),
                ],
            );
        }
        let best = BestEffort {
            partial,
            stage: deepest,
            steps: agg.steps,
            first_conflict: last_conflict,
            spill_rounds: round,
        };
        LadderResult {
            outcome: SolveOutcome::BestEffort(Box::new(best)),
            problem: current,
            spill_rounds: round,
            stage: deepest,
            stages,
            stats: agg,
            certificate: None,
        }
    }

    /// Whether fault injection blocks this spill round (chaos testing
    /// of the "spill failed" path).
    fn spill_blocked(&self, _round: u32) -> bool {
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.config.fault_plan {
            return plan.fail_spill_round == Some(_round);
        }
        false
    }
}

/// The budget slice for one ladder stage.
///
/// Stage slices partition the caller's *remaining* budget along both
/// axes, re-measured at the moment the stage starts:
///
/// - **Steps**: the first attempt gets
///   `FIRST_ATTEMPT_PERCENT` (60%) of the steps not yet spent
///   (all of them when no spill rounds are configured); each spill
///   round gets an even share of what is left at that point.
/// - **Deadline**: the same fractions applied to the time left until
///   the caller's deadline *as of now*. Slicing from the remaining time
///   rather than static fractions of the original grant means a slow
///   earlier stage (a pathological greedy pass, a long first portfolio
///   attempt) shrinks later slices proportionally instead of handing a
///   later stage a deadline that already expired inside its
///   "reserved" share. A stage slice never extends past the caller's
///   own deadline, and when the caller's deadline has already passed
///   it is handed through unchanged — the stage observes an exhausted
///   budget at its first poll and returns promptly.
///
/// Cancellation flags pass through unchanged.
fn round_budget(budget: &Budget, lc: &LadderConfig, spent: u64, round: u32) -> Budget {
    // tela-lint: allow(deterministic-clock, reason = "re-measuring the remaining deadline is the point of per-stage slicing; step-only budgets never read the clock")
    let now = budget.deadline().map(|_| Instant::now());
    round_budget_at(budget, lc, spent, round, now)
}

/// Deterministic core of [`round_budget`]: `now` is the instant the
/// stage starts (`None` when the budget has no deadline, so no clock is
/// read on the step-only path).
fn round_budget_at(
    budget: &Budget,
    lc: &LadderConfig,
    spent: u64,
    round: u32,
    now: Option<Instant>,
) -> Budget {
    // The stage's share of what remains, as a (numerator, denominator)
    // fraction — shared by the step and deadline axes.
    let share = |remaining: u128| -> u128 {
        if round == 0 {
            if lc.max_spill_rounds == 0 {
                remaining
            } else {
                remaining * FIRST_ATTEMPT_PERCENT / 100
            }
        } else {
            // Even share over this and all remaining rounds.
            remaining / u128::from(lc.max_spill_rounds - round + 1)
        }
    };

    let mut slice = budget.clone();
    if let Some(total) = budget.max_steps() {
        let remaining = total.saturating_sub(spent).max(1);
        let steps = (share(u128::from(remaining)).max(1)) as u64;
        slice = slice.with_max_steps(steps);
    }
    if let (Some(deadline), Some(now)) = (budget.deadline(), now) {
        let remaining = deadline.saturating_duration_since(now);
        if !remaining.is_zero() {
            let nanos = share(remaining.as_nanos()).min(remaining.as_nanos());
            let stage_deadline = now
                .checked_add(Duration::from_nanos(nanos.min(u128::from(u64::MAX)) as u64))
                .unwrap_or(deadline)
                .min(deadline);
            slice = slice.with_deadline(stage_deadline);
        }
        // Already expired: hand the caller's deadline through unchanged
        // so the stage terminates at its first budget poll.
    }
    slice
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use tela_model::{examples, Buffer};

    fn ladder() -> EscalationLadder {
        EscalationLadder::new(TelaConfig::default())
    }

    #[test]
    fn easy_instance_solved_by_heuristic_stage() {
        let result = ladder().solve(&examples::tiny(), &Budget::steps(100_000));
        assert!(result.outcome.is_solved());
        assert_eq!(result.stage, ResilienceStage::Heuristic);
        assert_eq!(result.spill_rounds, 0);
    }

    #[test]
    fn greedy_stage_alone_returns_only_validated_placements() {
        let tiny = examples::tiny();
        let solution = ladder().greedy(&tiny).expect("greedy packs tiny");
        assert!(solution.validate(&tiny).is_ok());
        // Figure 1 defeats the greedy heuristic.
        assert!(ladder().greedy(&examples::figure1()).is_none());
    }

    #[test]
    fn tight_instance_solved_by_portfolio_stage() {
        let p = examples::figure1();
        let result = ladder().solve(&p, &Budget::steps(500_000));
        let solution = result.outcome.solution().expect("figure1 is solvable");
        assert!(solution.validate(&p).is_ok());
        assert_eq!(result.stage, ResilienceStage::Portfolio);
    }

    #[test]
    fn infeasible_without_spill_is_definitive() {
        let result = ladder().solve(&examples::infeasible(), &Budget::steps(100_000));
        assert_eq!(result.outcome, SolveOutcome::Infeasible);
        assert!(result
            .certificate
            .expect("preflight witness")
            .verify(&result.problem));
    }

    #[test]
    fn resilient_pipeline_never_leaves_the_ladder_outcomes() {
        for (p, budget) in [
            (examples::tiny(), Budget::steps(100_000)),
            (examples::figure1(), Budget::steps(100_000)),
            (examples::infeasible(), Budget::steps(100_000)),
            (examples::figure1(), Budget::steps(4)), // starved
        ] {
            let r = ladder().solve(&p, &budget);
            match &r.outcome {
                SolveOutcome::Solved(s) => assert!(s.validate(&r.problem).is_ok()),
                SolveOutcome::Infeasible => assert!(r.certificate.is_some()),
                SolveOutcome::BestEffort(b) => {
                    assert!(b.partial.validate(&r.problem).is_ok());
                }
                other => panic!("ladder leaked {other:?}"),
            }
        }
    }

    #[test]
    fn solutions_from_either_stage_validate() {
        for p in [examples::tiny(), examples::figure1(), examples::aligned()] {
            let r = ladder().solve(&p, &Budget::steps(500_000));
            if let Some(s) = r.outcome.solution() {
                assert!(s.validate(&p).is_ok());
            }
        }
    }

    /// A spill hook that removes the last buffer each round, like the
    /// pixel compiler evicting one tensor per spill round.
    struct DropLast {
        buffers: Vec<Buffer>,
        capacity: u64,
    }

    impl SpillHook for DropLast {
        fn spill(&mut self, _round: u32) -> Option<Problem> {
            self.buffers.pop()?;
            Problem::new(self.buffers.clone(), self.capacity).ok()
        }
    }

    #[test]
    fn two_spill_rounds_reach_a_solution() {
        // Six fully-overlapping size-2 buffers in 8 units of memory:
        // contention 12 > 8, and still 10 > 8 after one eviction. Two
        // spill rounds bring it to 8 <= 8, which then solves.
        let buffers: Vec<Buffer> = (0..6).map(|_| Buffer::new(0, 4, 2)).collect();
        let problem = Problem::new(buffers.clone(), 8).unwrap();
        let mut hook = DropLast {
            buffers,
            capacity: 8,
        };
        let result = ladder().solve_with_spill(problem, &Budget::steps(200_000), &mut hook);
        let solution = result.outcome.solution().expect("solvable after 2 spills");
        assert_eq!(result.spill_rounds, 2);
        assert_eq!(result.problem.len(), 4);
        assert!(solution.validate(&result.problem).is_ok());
        // Stage reports track every attempt: the two failed rounds plus
        // the winning one.
        assert!(result.stages.len() >= 3);
    }

    #[test]
    fn budget_starved_instance_degrades_to_best_effort() {
        // Figure 1 defeats the greedy stage, and five steps are nowhere
        // near enough for the search: the ladder must degrade, not
        // abort, and the partial it returns must validate.
        let p = examples::figure1();
        let result = ladder().solve(&p, &Budget::steps(5));
        let best = result
            .outcome
            .best_effort()
            .expect("starved solve degrades");
        assert!(best.partial.validate(&result.problem).is_ok());
        assert!(best.steps > 0, "the search did spend its slice");
        assert_eq!(best.spill_rounds, 0);
        assert_eq!(result.stage, ResilienceStage::Portfolio);
    }

    #[test]
    fn expired_deadline_still_terminates_with_best_effort() {
        // Deterministic fake clock: the deadline is already in the past,
        // so every stage sees an exhausted budget immediately. The
        // ladder must still terminate with a well-formed outcome.
        let p = examples::figure1();
        let budget = Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let result = ladder().solve(&p, &budget);
        let best = result.outcome.best_effort().expect("degrades, not aborts");
        assert!(best.partial.validate(&result.problem).is_ok());
    }

    #[test]
    fn round_budget_slices_are_deterministic() {
        let lc = LadderConfig::default();
        let budget = Budget::steps(1000);
        // First attempt: 60% of the full budget.
        assert_eq!(round_budget(&budget, &lc, 0, 0).max_steps(), Some(600));
        // After 600 spent, round 1 shares the remaining 400 over the 8
        // remaining rounds.
        assert_eq!(round_budget(&budget, &lc, 600, 1).max_steps(), Some(50));
        // Slices never reach zero, even when overspent.
        assert_eq!(round_budget(&budget, &lc, 5000, 8).max_steps(), Some(1));
        // No spill rounds: the first attempt gets everything.
        let all_in = LadderConfig {
            max_spill_rounds: 0,
        };
        assert_eq!(round_budget(&budget, &all_in, 0, 0).max_steps(), Some(1000));
        // Unbounded budgets stay unbounded.
        assert_eq!(
            round_budget(&Budget::unlimited(), &lc, 0, 0).max_steps(),
            None
        );
    }

    #[test]
    fn deadline_carries_into_stage_slices() {
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(3600);
        let budget = Budget::steps(1000).with_deadline(deadline);
        let slice = round_budget(&budget, &LadderConfig::default(), 0, 0);
        assert!(!slice.deadline_passed_at(t0));
        assert!(slice.deadline_passed_at(deadline));
    }

    #[test]
    fn stage_deadlines_derive_from_remaining_time() {
        // Fake clock throughout: the caller granted 100s total.
        let lc = LadderConfig::default();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(100);
        let budget = Budget::unlimited().with_deadline(deadline);

        // First attempt, started immediately: 60% of the 100s remain
        // reserved for it, so its slice expires at t0+60s, not at the
        // caller's deadline.
        let first = round_budget_at(&budget, &lc, 0, 0, Some(t0));
        assert!(!first.deadline_passed_at(t0 + Duration::from_secs(59)));
        assert!(first.deadline_passed_at(t0 + Duration::from_secs(60)));

        // A slow earlier stage ate 90 of the 100 seconds. Round 1's
        // share is measured from the 10s that *remain*: an even share
        // over the 8 remaining rounds (1.25s), not 1/8 of the original
        // 40% holdback computed at t0.
        let late = t0 + Duration::from_secs(90);
        let retry = round_budget_at(&budget, &lc, 0, 1, Some(late));
        assert!(!retry.deadline_passed_at(late + Duration::from_millis(1249)));
        assert!(retry.deadline_passed_at(late + Duration::from_millis(1250)));

        // The final spill round gets everything still on the clock.
        let last = round_budget_at(&budget, &lc, 0, lc.max_spill_rounds, Some(late));
        assert!(!last.deadline_passed_at(deadline - Duration::from_millis(1)));
        assert!(last.deadline_passed_at(deadline));
    }

    #[test]
    fn expired_caller_deadline_passes_through_unchanged() {
        // When the deadline already passed, the stage must see an
        // exhausted budget immediately — not a zero-length slice pinned
        // to some later `now`.
        let lc = LadderConfig::default();
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(1);
        let budget = Budget::unlimited().with_deadline(deadline);
        let after = t0 + Duration::from_secs(5);
        let slice = round_budget_at(&budget, &lc, 0, 0, Some(after));
        assert!(slice.deadline_passed_at(after));
        assert_eq!(slice.deadline(), Some(deadline));
    }

    #[test]
    fn step_only_budgets_slice_without_reading_the_clock() {
        // `now == None` is the no-deadline path; step slicing is
        // unchanged from the static-fraction behaviour.
        let lc = LadderConfig::default();
        let slice = round_budget_at(&Budget::steps(1000), &lc, 0, 0, None);
        assert_eq!(slice.max_steps(), Some(600));
        assert_eq!(slice.deadline(), None);
    }

    #[test]
    fn stage_slice_never_extends_past_the_caller_deadline() {
        // No spill rounds: the first attempt's share is 100% of the
        // remainder, which must clamp exactly to the caller's deadline.
        let all_in = LadderConfig {
            max_spill_rounds: 0,
        };
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs(10);
        let budget = Budget::unlimited().with_deadline(deadline);
        let slice = round_budget_at(&budget, &all_in, 0, 0, Some(t0));
        assert!(!slice.deadline_passed_at(deadline - Duration::from_millis(1)));
        assert!(slice.deadline_passed_at(deadline));
    }
}
