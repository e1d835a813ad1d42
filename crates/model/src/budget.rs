use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-inject")]
use crate::fault::FaultInjector;
use crate::partial::BestEffort;
use crate::Solution;

/// A step and/or wall-clock budget for a solver invocation, optionally
/// carrying a cooperative cancellation flag.
///
/// Every allocator entry point in the workspace takes a `Budget` so that
/// experiments can bound work either by deterministic step counts (as the
/// paper's Figure 14 sweep does with its 500,000-step cap) or by wall-clock
/// deadlines (as the on-device setting requires). A portfolio race
/// additionally threads one shared [`AtomicBool`] through every worker's
/// budget via [`Budget::with_cancel`]: the first worker to finish flips
/// the flag and every other worker observes an exhausted budget at its
/// next step.
///
/// # Example
///
/// ```
/// use tela_model::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::unlimited()
///     .with_max_steps(500_000)
///     .with_timeout(Duration::from_secs(30));
/// assert!(!budget.step_limit_reached(499_999));
/// assert!(budget.step_limit_reached(500_000));
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<FaultInjector>>,
}

impl Budget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            max_steps: None,
            cancel: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// A budget bounded only by a step count.
    pub fn steps(max_steps: u64) -> Self {
        Budget::unlimited().with_max_steps(max_steps)
    }

    /// A budget bounded only by a wall-clock timeout starting now.
    pub fn timeout(timeout: Duration) -> Self {
        Budget::unlimited().with_timeout(timeout)
    }

    /// Adds (or replaces) a step cap.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Adds (or replaces) a wall-clock timeout measured from now.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Sets (or replaces) the absolute wall-clock deadline.
    ///
    /// [`Budget::with_timeout`] is this with `now + timeout`; tests use
    /// the absolute form together with
    /// [`deadline_passed_at`](Budget::deadline_passed_at) as a
    /// deterministic fake clock.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a shared cancellation flag: once any holder stores `true`
    /// the budget reports itself exhausted. Solvers never set the flag;
    /// they only poll it (see [`Budget::cancelled`]).
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attaches a deterministic fault injector: every
    /// [`Budget::exhausted`] poll also advances the injector, which may
    /// panic, raise a virtual stall, or flip an injected cancellation at
    /// the step its [`crate::FaultPlan`] names. Test-only plumbing,
    /// available under the `fault-inject` feature.
    #[cfg(feature = "fault-inject")]
    #[must_use]
    pub fn with_fault_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The absolute wall-clock deadline, if one is set.
    ///
    /// Consumers that slice a budget into stages (the escalation
    /// ladder, the allocation server) read this to derive per-stage
    /// deadlines from the *remaining* time rather than static
    /// fractions of the original grant.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Returns true if `steps` meets or exceeds the step cap.
    pub fn step_limit_reached(&self, steps: u64) -> bool {
        self.max_steps.is_some_and(|cap| steps >= cap)
    }

    /// Returns true if the wall-clock deadline has passed.
    pub fn deadline_passed(&self) -> bool {
        // Without a deadline the answer is always false regardless of the
        // clock (and of any injected stall), so skip the `Instant::now`
        // read — `exhausted` sits on the solver's per-step hot path.
        if self.deadline.is_none() {
            return false;
        }
        self.deadline_passed_at(Instant::now())
    }

    /// Returns true if the deadline is at or before `now` (the
    /// deterministic form of [`Budget::deadline_passed`]).
    pub fn deadline_passed_at(&self, now: Instant) -> bool {
        // An injected stall shifts the observed clock forward without
        // sleeping, so stall faults are deterministic.
        match now.checked_add(self.injected_stall()) {
            Some(shifted) => self.deadline.is_some_and(|d| shifted >= d),
            None => self.deadline.is_some(),
        }
    }

    /// Returns true if the shared cancellation flag has been raised.
    ///
    /// `Acquire` ordering: a worker observing the flag also observes the
    /// winner's published result.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Acquire))
            || self.injected_cancel()
    }

    /// Returns true if any limit is exhausted or the budget was cancelled.
    pub fn exhausted(&self, steps: u64) -> bool {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            faults.on_step(steps);
        }
        self.step_limit_reached(steps) || self.cancelled() || self.deadline_passed()
    }

    /// The configured step cap, if any.
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// Virtual clock skew raised by a stall fault (zero without the
    /// `fault-inject` feature or when no stall fired).
    fn injected_stall(&self) -> Duration {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            return faults.stall();
        }
        Duration::ZERO
    }

    /// True when an injected (as opposed to real, shared-flag)
    /// cancellation fired.
    fn injected_cancel(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = &self.faults {
            return faults.cancelled();
        }
        false
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Identity of the portfolio variant that settled a race, in the
/// `Copy`-friendly form carried on [`SolveStats`] (the display name
/// travels separately, on the race's per-variant reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceWinner {
    /// Index into the race's variant list.
    pub variant: u32,
    /// Ordinal of the worker thread that ran the winning variant
    /// (0 for a sequential race or the pre-race sprint).
    pub thread: u32,
}

/// Statistics reported by a solver run.
///
/// *Steps* count decisions (block placements plus backtrack-driven
/// re-placements), matching the paper's step metric in Figure 14. Minor
/// backtracks undo one decision; major backtracks jump further up the
/// search tree (paper §5.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total decisions taken (placements, including retried ones).
    pub steps: u64,
    /// One-step backtracks (next candidate at the same decision point).
    pub minor_backtracks: u64,
    /// Multi-step, conflict-guided backtracks.
    pub major_backtracks: u64,
    /// CP-solver propagation count — the adaptive portfolio's progress
    /// signal alongside depth and backtracks (zero for solvers that do
    /// not propagate).
    pub propagations: u64,
    /// Wall-clock time spent, if measured.
    pub elapsed: Duration,
    /// True when the run stopped because its budget's shared cancellation
    /// flag was raised (it lost a portfolio race), as opposed to running
    /// out of steps or time on its own.
    pub cancelled: bool,
    /// Number of worker panics that were caught and contained during the
    /// run (portfolio variants or ladder stages that died). The panic
    /// payloads themselves are surfaced as `portfolio.variant_panicked`
    /// trace events.
    pub panics: u64,
    /// The portfolio variant that settled the race producing these
    /// stats, if one did. Survives [`SolveStats::absorb`], so the
    /// resilience ladder reports it too.
    pub winner: Option<RaceWinner>,
}

impl SolveStats {
    /// Total number of backtracks of either kind.
    pub fn total_backtracks(&self) -> u64 {
        self.minor_backtracks + self.major_backtracks
    }

    /// Accumulates another run's statistics into this one (used when a
    /// problem is split into independent sub-problems).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.steps += other.steps;
        self.minor_backtracks += other.minor_backtracks;
        self.major_backtracks += other.major_backtracks;
        self.propagations += other.propagations;
        self.elapsed += other.elapsed;
        self.cancelled |= other.cancelled;
        self.panics += other.panics;
        self.winner = self.winner.or(other.winner);
    }
}

/// The result of running an allocator on a problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A valid solution was found.
    Solved(Solution),
    /// The solver proved no solution exists.
    Infeasible,
    /// An incomplete method (a greedy heuristic, or TelaMalloc's pruned
    /// search) exhausted its options without finding a solution. Unlike
    /// [`SolveOutcome::Infeasible`] this is *not* a proof: a complete
    /// solver might still succeed, which is exactly why the paper's
    /// production stack falls back from the heuristic to TelaMalloc.
    GaveUp,
    /// The step or time budget ran out before an answer was established.
    BudgetExceeded,
    /// Every stage of the resilience ladder exhausted its budget; the
    /// carried [`BestEffort`] holds the maximal *validated partial*
    /// placement reached plus structured diagnostics (stage reached,
    /// steps spent, first conflict clique). Callers should treat this
    /// like [`SolveOutcome::BudgetExceeded`] but may use the partial
    /// placement to decide what to spill or rematerialize.
    BestEffort(Box<BestEffort>),
}

impl SolveOutcome {
    /// The solution, if one was found.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            SolveOutcome::Solved(s) => Some(s),
            _ => None,
        }
    }

    /// The best-effort diagnostics, if the solve degraded.
    pub fn best_effort(&self) -> Option<&BestEffort> {
        match self {
            SolveOutcome::BestEffort(b) => Some(b),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the solution if one was found.
    pub fn into_solution(self) -> Option<Solution> {
        match self {
            SolveOutcome::Solved(s) => Some(s),
            _ => None,
        }
    }

    /// Returns true if a solution was found.
    pub fn is_solved(&self) -> bool {
        matches!(self, SolveOutcome::Solved(_))
    }

    /// A stable snake_case tag naming the outcome variant, used by trace
    /// events and bench reports.
    pub fn label(&self) -> &'static str {
        match self {
            SolveOutcome::Solved(_) => "solved",
            SolveOutcome::Infeasible => "infeasible",
            SolveOutcome::GaveUp => "gave_up",
            SolveOutcome::BudgetExceeded => "budget_exceeded",
            SolveOutcome::BestEffort(_) => "best_effort",
        }
    }

    /// Converts to a `Result`, mapping non-solutions to [`SolveError`].
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] or [`SolveError::BudgetExceeded`]
    /// depending on the outcome.
    pub fn into_result(self) -> Result<Solution, SolveError> {
        match self {
            SolveOutcome::Solved(s) => Ok(s),
            SolveOutcome::Infeasible => Err(SolveError::Infeasible),
            SolveOutcome::GaveUp => Err(SolveError::GaveUp),
            SolveOutcome::BudgetExceeded => Err(SolveError::BudgetExceeded),
            SolveOutcome::BestEffort(_) => Err(SolveError::BestEffort),
        }
    }
}

/// Error form of a failed solve, for `?`-style call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The solver proved no solution exists.
    Infeasible,
    /// An incomplete method exhausted its options without an answer.
    GaveUp,
    /// The step or time budget ran out.
    BudgetExceeded,
    /// The resilience ladder degraded to a best-effort partial solution.
    BestEffort,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::GaveUp => write!(f, "allocator gave up without an answer"),
            SolveError::BudgetExceeded => write!(f, "solver budget exceeded"),
            SolveError::BestEffort => {
                write!(f, "solver degraded to a best-effort partial solution")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts_steps() {
        let b = Budget::unlimited();
        assert!(!b.exhausted(u64::MAX));
    }

    #[test]
    fn step_cap_is_inclusive_at_cap() {
        let b = Budget::steps(10);
        assert!(!b.step_limit_reached(9));
        assert!(b.step_limit_reached(10));
        assert!(b.step_limit_reached(11));
    }

    #[test]
    fn elapsed_deadline_detected() {
        // Deterministic fake clock: pin the deadline to an explicit
        // instant and probe around it, instead of sleeping past a real
        // one.
        let t0 = Instant::now();
        let b = Budget::unlimited().with_deadline(t0 + Duration::from_millis(5));
        assert!(!b.deadline_passed_at(t0));
        assert!(!b.deadline_passed_at(t0 + Duration::from_millis(4)));
        assert!(b.deadline_passed_at(t0 + Duration::from_millis(5)));
        assert!(b.deadline_passed_at(t0 + Duration::from_secs(1)));
    }

    #[test]
    fn future_deadline_not_passed() {
        let b = Budget::timeout(Duration::from_secs(3600));
        assert!(!b.deadline_passed());
        assert!(!b.exhausted(0));
    }

    #[test]
    fn cancellation_flag_exhausts_budget() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::steps(1_000).with_cancel(Arc::clone(&flag));
        assert!(!b.cancelled());
        assert!(!b.exhausted(0));
        flag.store(true, Ordering::Release);
        assert!(b.cancelled());
        assert!(b.exhausted(0));
        // Step caps still apply independently of the flag.
        assert!(b.step_limit_reached(1_000));
    }

    #[test]
    fn cancellation_flag_is_shared_across_clones() {
        let flag = Arc::new(AtomicBool::new(false));
        let a = Budget::unlimited().with_cancel(Arc::clone(&flag));
        let b = a.clone();
        flag.store(true, Ordering::Release);
        assert!(a.cancelled() && b.cancelled());
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = SolveStats {
            steps: 5,
            minor_backtracks: 1,
            major_backtracks: 2,
            ..Default::default()
        };
        let b = SolveStats {
            steps: 7,
            minor_backtracks: 3,
            major_backtracks: 0,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.steps, 12);
        assert_eq!(a.total_backtracks(), 6);
    }

    #[test]
    fn stats_absorb_keeps_first_winner() {
        let mut a = SolveStats::default();
        assert_eq!(a.winner, None);
        let first = SolveStats {
            winner: Some(RaceWinner {
                variant: 3,
                thread: 1,
            }),
            ..Default::default()
        };
        let second = SolveStats {
            winner: Some(RaceWinner {
                variant: 7,
                thread: 0,
            }),
            ..Default::default()
        };
        a.absorb(&first);
        a.absorb(&second);
        assert_eq!(a.winner.unwrap().variant, 3);
        assert_eq!(a.winner.unwrap().thread, 1);
    }

    #[test]
    fn outcome_accessors() {
        let solved = SolveOutcome::Solved(Solution::new(vec![1, 2]));
        assert!(solved.is_solved());
        assert_eq!(solved.solution().unwrap().addresses(), &[1, 2]);
        assert!(solved.clone().into_result().is_ok());

        assert_eq!(
            SolveOutcome::Infeasible.into_result(),
            Err(SolveError::Infeasible)
        );
        assert_eq!(SolveOutcome::GaveUp.into_result(), Err(SolveError::GaveUp));
        assert!(!SolveOutcome::GaveUp.is_solved());
        assert_eq!(
            SolveOutcome::BudgetExceeded.into_result(),
            Err(SolveError::BudgetExceeded)
        );
        assert!(SolveOutcome::Infeasible.solution().is_none());
    }

    #[test]
    fn best_effort_outcome_reports_diagnostics() {
        use crate::{PartialSolution, ResilienceStage};
        let outcome = SolveOutcome::BestEffort(Box::new(BestEffort {
            partial: PartialSolution::empty(),
            stage: ResilienceStage::Portfolio,
            steps: 42,
            first_conflict: vec![],
            spill_rounds: 0,
        }));
        assert!(!outcome.is_solved());
        assert!(outcome.solution().is_none());
        assert_eq!(outcome.best_effort().unwrap().steps, 42);
        assert_eq!(outcome.into_result(), Err(SolveError::BestEffort));
        assert!(SolveOutcome::Infeasible.best_effort().is_none());
    }

    #[test]
    fn solve_error_displays() {
        assert_eq!(SolveError::Infeasible.to_string(), "problem is infeasible");
        assert_eq!(
            SolveError::BudgetExceeded.to_string(),
            "solver budget exceeded"
        );
    }
}
