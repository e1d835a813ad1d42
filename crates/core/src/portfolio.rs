//! Parallel portfolio search: race strategy×policy variants, first
//! solution wins.
//!
//! The paper's search is sensitive to the block-selection strategy and
//! backtrack policy (Figure 14): no single variant dominates across
//! workloads. The portfolio hedges that variance by racing diverse
//! configurations — the full TelaMalloc configuration plus every §5.1
//! selection strategy crossed with both backtrack policies — on scoped
//! OS threads. The first worker to reach a *decisive* outcome (a
//! validated solution, or a proof of infeasibility) cancels the rest
//! through a shared [`AtomicBool`] threaded into every worker's
//! [`Budget`]; the CP solver and engine poll that flag on their step
//! boundaries, so losers stop within one step.
//!
//! Every race is a schedule of *rounds*, and one executor
//! ([`run_round`]) runs every round; the blind race below is a fixed
//! schedule of a sprint and one full round, and each slot of a round
//! carries its own step quota. The shared-pruning channel is
//! deliberately lock-light: the only atomics on the hot path are the
//! cancellation flag (read) and the slot cursor. The `tela-audit`
//! preflight runs once, up front, for the whole race — a certificate of
//! infeasibility aborts the portfolio before any worker spawns.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::time::Instant;

use tela_heuristics::SelectionStrategy;
use tela_model::{Budget, BufferId, Problem, RaceWinner, SolveOutcome, SolveStats};

use crate::backtrack::PlacedDecision;
use crate::config::{Backtrack, TelaConfig};
use crate::search::{settle_by_preflight, solve, TelaResult};

/// One competitor in the portfolio race: a named search configuration.
#[derive(Debug, Clone)]
pub struct PortfolioVariant {
    /// Display name, e.g. `"max-size/fixed-step"`.
    pub name: String,
    /// The configuration this variant runs. Its portfolio fields
    /// (`threads`, `variants`) and `preflight_audit` are ignored: races
    /// never nest, and the driver preflights once for everyone.
    pub config: TelaConfig,
}

/// How one variant's worker ended: with a solver outcome, or by
/// panicking.
///
/// Panics are isolated per worker (`std::panic::catch_unwind` around
/// the variant body): a bug in one variant is reported here while the
/// race continues with the survivors, instead of unwinding through the
/// thread scope and aborting the whole solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VariantOutcome {
    /// The variant ran to completion and reported this outcome.
    Finished(SolveOutcome),
    /// The variant's worker panicked; the message is the panic payload
    /// (with location when the panic hook captured it).
    Panicked {
        /// The captured panic message.
        message: String,
    },
}

impl VariantOutcome {
    /// The solver outcome, unless the variant panicked.
    pub fn solve_outcome(&self) -> Option<&SolveOutcome> {
        match self {
            VariantOutcome::Finished(outcome) => Some(outcome),
            VariantOutcome::Panicked { .. } => None,
        }
    }

    /// Returns true if the variant's worker panicked.
    pub fn is_panicked(&self) -> bool {
        matches!(self, VariantOutcome::Panicked { .. })
    }
}

/// What one variant did during the race.
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// The variant's display name.
    pub name: String,
    /// The variant's own outcome. Losers typically report
    /// `BudgetExceeded` with [`SolveStats::cancelled`] set; a panicked
    /// variant reports the captured message instead.
    pub outcome: VariantOutcome,
    /// The variant's own search statistics (zeroed when the worker
    /// panicked — its counters died with it).
    pub stats: SolveStats,
}

/// Result of a portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// The winning variant's result (or an aggregate `BudgetExceeded` /
    /// `GaveUp` when nobody was decisive). `stats.elapsed` is the race's
    /// wall-clock time, not the winner's own.
    pub result: TelaResult,
    /// Index into the variant list of the winning variant, if any. Its
    /// name is `reports[index].name`; `result.stats.winner` also
    /// records the worker thread that ran it.
    pub winner: Option<usize>,
    /// Per-variant reports, indexed like the variant list. `None` means
    /// the race was cancelled before that variant started.
    pub reports: Vec<Option<VariantReport>>,
}

impl PortfolioResult {
    /// Number of variants whose workers panicked during the race.
    pub fn panicked(&self) -> usize {
        self.reports
            .iter()
            .flatten()
            .filter(|r| r.outcome.is_panicked())
            .count()
    }
}

// ---------------------------------------------------------------------
// Panic isolation.
//
// A scoped panic hook captures the panic message (payload plus source
// location) into a thread-local while a variant body runs, so the
// default hook stays silent for *expected* worker panics but still
// prints for everything else in the process. `Once` keeps hook
// installation idempotent across races and threads.

static INSTALL_HOOK: Once = Once::new();

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

fn install_capture_hook() {
    INSTALL_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CAPTURING.get() {
                LAST_PANIC.set(Some(info.to_string()));
            } else {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, converting a panic into the captured panic message.
///
/// Nesting-safe: the capture flag is saved and restored, so a
/// `catch_panics` inside another one behaves correctly.
pub(crate) fn catch_panics<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_capture_hook();
    let was_capturing = CAPTURING.replace(true);
    let result = catch_unwind(AssertUnwindSafe(f));
    CAPTURING.set(was_capturing);
    result.map_err(|payload| {
        LAST_PANIC
            .take()
            .unwrap_or_else(|| payload_message(payload.as_ref()))
    })
}

/// Fallback extraction straight from the payload, for panics that
/// bypassed the hook (e.g. raised with `resume_unwind`).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// The default portfolio: the full TelaMalloc configuration (`base`)
/// first, then every §5.1 selection strategy crossed with both
/// backtrack policies (conflict-guided §5.4 vs. fixed-step) — nine
/// variants in total.
///
/// Variant 0 running `base` makes the sequential (`threads == 1`) race
/// behave exactly like [`solve`](crate::solve) whenever the base
/// configuration succeeds: later variants only run if earlier ones give
/// up within the budget.
pub fn default_variants(base: &TelaConfig) -> Vec<PortfolioVariant> {
    let mut variants = vec![PortfolioVariant {
        name: "telamalloc".to_string(),
        config: base.clone(),
    }];
    for strategy in SelectionStrategy::ALL {
        for (backtrack, policy_name) in [
            (Backtrack::ConflictGuided, "conflict-guided"),
            (Backtrack::FixedSteps(1), "fixed-step"),
        ] {
            let mut config = TelaConfig::single_strategy(strategy);
            config.backtrack = backtrack;
            // Skip cross entries that would search identically to an
            // already-listed variant (e.g. a `single_strategy` base):
            // a duplicate worker can only waste a thread, never win
            // anything the original would not.
            if variants
                .iter()
                .any(|v| same_search_behavior(&v.config, &config))
            {
                continue;
            }
            variants.push(PortfolioVariant {
                name: format!("{strategy}/{policy_name}"),
                config,
            });
        }
    }
    variants
}

/// True when two configurations would run bit-identical searches, i.e.
/// they agree on every field that steers the search tree. Driver-side
/// fields (`threads`, `variants`, `preflight_audit`, `tracer`, ladder
/// settings, fault plans) are ignored: the race overrides them per
/// worker anyway (see [`worker_config`]).
fn same_search_behavior(a: &TelaConfig, b: &TelaConfig) -> bool {
    a.selection == b.selection
        && a.solver_guided_placement == b.solver_guided_placement
        && a.contention_grouping == b.contention_grouping
        && a.backtrack == b.backtrack
        && a.candidate_prepending == b.candidate_prepending
        && a.max_candidates_per_level == b.max_candidates_per_level
        && a.stuck_subtree_limit == b.stuck_subtree_limit
        && a.split_independent == b.split_independent
        && a.minimize_conflicts == b.minimize_conflicts
}

/// Worker-side view of a variant's configuration: the driver already
/// preflighted, and races never nest. This is the one copy of the
/// variant's configuration a run makes.
fn worker_config(variant: &PortfolioVariant) -> TelaConfig {
    let mut config = variant.config.clone();
    config.preflight_audit = false;
    config.threads = 1;
    config.variants = Vec::new();
    config
}

/// The budget one variant runs under: the race budget, plus — with the
/// `fault-inject` feature and a configured plan targeting this variant —
/// a fresh fault injector. A fresh injector per run means a plan fires
/// in both the sprint and the race proper.
fn variant_budget(budget: &Budget, _config: &TelaConfig, _index: usize) -> Budget {
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = &_config.fault_plan {
        if plan.applies_to_variant(_index) {
            return budget
                .clone()
                .with_fault_injector(Arc::new(plan.injector()));
        }
    }
    budget.clone()
}

/// A decisive outcome ends the race: a solution, or a proof that no
/// solution exists. `GaveUp` and `BudgetExceeded` are not proofs — some
/// other variant may still succeed.
fn is_decisive(outcome: &SolveOutcome) -> bool {
    matches!(outcome, SolveOutcome::Solved(_) | SolveOutcome::Infeasible)
}

/// One slot of a race round: which variant runs, under which step
/// quota.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index into the race's variant list.
    variant: usize,
    /// Step cap of this run; `None` runs under the race budget as is.
    quota: Option<u64>,
}

/// What one slot produced: the variant's result or its captured panic
/// message, and the worker-thread ordinal that ran it.
struct SlotRun {
    slot: Slot,
    outcome: Result<TelaResult, String>,
    thread: u32,
}

impl SlotRun {
    fn is_decisive(&self) -> bool {
        matches!(&self.outcome, Ok(result) if is_decisive(&result.outcome))
    }
}

/// Runs one slot inside its `portfolio.variant` span, with panic
/// isolation: a panicking worker yields the captured message instead of
/// unwinding through the race.
fn run_slot(
    buf: &mut tela_trace::TraceBuffer,
    problem: &Problem,
    budget: &Budget,
    variants: &[PortfolioVariant],
    config: &TelaConfig,
    slot: Slot,
    thread: u32,
) -> SlotRun {
    let variant = &variants[slot.variant];
    let mut worker_budget = variant_budget(budget, config, slot.variant);
    if let Some(quota) = slot.quota {
        worker_budget = worker_budget.with_max_steps(quota);
    }
    let span = begin_variant(buf, slot.variant, variant);
    let outcome = catch_panics(|| solve(problem, &worker_budget, &worker_config(variant)));
    end_variant(buf, span, slot.variant, variant, outcome.as_ref(), config);
    SlotRun {
        slot,
        outcome,
        thread,
    }
}

/// Runs one race round: the blind race runs its sprint and its full
/// round through here.
///
/// With one worker (or one slot) the slots run in order and the first
/// decisive finish ends the round: later slots never start, so the
/// round is a pure function of its inputs. With more, `threads` workers
/// pull slots from a shared cursor, and the first decisive finish
/// raises the cancellation flag threaded into every worker's budget;
/// the CP solver and engine poll it on their step boundaries, so the
/// other runs stop within one step and report with `stats.cancelled`
/// set. Runs come back in slot order; slots that never started are
/// absent.
fn run_round(
    problem: &Problem,
    budget: &Budget,
    variants: &[PortfolioVariant],
    config: &TelaConfig,
    slots: &[Slot],
    threads: usize,
) -> Vec<SlotRun> {
    if threads <= 1 || slots.len() <= 1 {
        let mut buf = config.tracer.buffer();
        let mut runs = Vec::with_capacity(slots.len());
        for &slot in slots {
            let run = run_slot(&mut buf, problem, budget, variants, config, slot, 0);
            let decisive = run.is_decisive();
            runs.push(run);
            if decisive {
                break;
            }
        }
        return runs;
    }
    let cancel = Arc::new(AtomicBool::new(false));
    let budget = budget.clone().with_cancel(Arc::clone(&cancel));
    let cursor = AtomicUsize::new(0);
    let done: Vec<Mutex<Option<SlotRun>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..threads.min(slots.len()) {
            let (cancel, budget, cursor, done) = (&cancel, &budget, &cursor, &done);
            scope.spawn(move || {
                let mut buf = config.tracer.buffer();
                while !cancel.load(Ordering::Acquire) {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&slot) = slots.get(index) else {
                        break;
                    };
                    let run = run_slot(
                        &mut buf,
                        problem,
                        budget,
                        variants,
                        config,
                        slot,
                        worker as u32,
                    );
                    if run.is_decisive() {
                        cancel.store(true, Ordering::Release);
                    }
                    *lock_resilient(&done[index]) = Some(run);
                }
            });
        }
    });
    done.into_iter()
        .filter_map(|run| run.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Locks a mutex, recovering the data from a poisoned lock: race
/// bookkeeping stays usable even if some worker panicked outside the
/// isolated region while holding a slot.
fn lock_resilient<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Race bookkeeping: the latest report per variant, the winner, and the
/// longest committed prefix any loser reached.
struct Race {
    reports: Vec<Option<VariantReport>>,
    winner: Option<(usize, u32, TelaResult)>,
    best_partial: Option<(Vec<PlacedDecision>, Vec<BufferId>)>,
}

impl Race {
    fn new(variants: usize) -> Self {
        Race {
            reports: vec![None; variants],
            winner: None,
            best_partial: None,
        }
    }

    /// Files one run: its report replaces the variant's previous one,
    /// an indecisive result competes for the best-effort prefix, and the
    /// first decisive run recorded wins the race.
    fn record(&mut self, run: SlotRun, variants: &[PortfolioVariant]) {
        let index = run.slot.variant;
        let name = variants[index].name.clone();
        let result = match run.outcome {
            Ok(result) => result,
            Err(message) => {
                self.reports[index] = Some(VariantReport {
                    name,
                    outcome: VariantOutcome::Panicked { message },
                    stats: SolveStats::default(),
                });
                return;
            }
        };
        self.reports[index] = Some(VariantReport {
            name,
            outcome: VariantOutcome::Finished(result.outcome.clone()),
            stats: result.stats,
        });
        if is_decisive(&result.outcome) {
            if self.winner.is_none() {
                self.winner = Some((index, run.thread, result));
            }
            return;
        }
        let longer = match &self.best_partial {
            None => !result.partial.is_empty() || !result.first_conflict.is_empty(),
            Some((prefix, _)) => result.partial.len() > prefix.len(),
        };
        if longer {
            self.best_partial = Some((result.partial, result.first_conflict));
        }
    }

    /// Builds the final result: the winner's, or an aggregate over every
    /// variant that ran when nobody was decisive. The aggregate carries
    /// the longest committed prefix any variant reached, so the
    /// resilience ladder can degrade to a best-effort answer.
    fn finish(self, variants: &[PortfolioVariant], tracer: &tela_trace::Tracer) -> PortfolioResult {
        let Race {
            reports,
            winner,
            best_partial,
        } = self;
        if let Some((index, thread, mut result)) = winner {
            if tracer.enabled() {
                tracer.instant(
                    "portfolio",
                    "variant_won",
                    vec![
                        ("index".into(), index.into()),
                        ("name".into(), variants[index].name.clone().into()),
                    ],
                );
            }
            result.stats.winner = Some(RaceWinner {
                variant: index as u32,
                thread,
            });
            return PortfolioResult {
                result,
                winner: Some(index),
                reports,
            };
        }
        let mut stats = SolveStats::default();
        let mut budget_exceeded = false;
        for report in reports.iter().flatten() {
            stats.absorb(&report.stats);
            budget_exceeded |= matches!(
                report.outcome,
                VariantOutcome::Finished(SolveOutcome::BudgetExceeded)
            );
        }
        let outcome = if budget_exceeded {
            SolveOutcome::BudgetExceeded
        } else {
            SolveOutcome::GaveUp
        };
        let (partial, first_conflict) = best_partial.unwrap_or_default();
        // Aggregate stats absorbed per-variant stats, none of which
        // carry a race winner; make the "nobody won" contract explicit.
        stats.winner = None;
        PortfolioResult {
            result: TelaResult {
                outcome,
                stats,
                decisions: Vec::new(),
                partial,
                first_conflict,
                certificate: None,
            },
            winner: None,
            reports,
        }
    }
}

/// Races `config.variants` (or [`default_variants`]) on
/// `config.threads` workers; first decisive outcome wins.
///
/// With `threads == 1` the variants run sequentially in order, so the
/// result is deterministic; with more threads the *winner* may vary
/// between runs, but every returned solution is a real solution and an
/// `Infeasible` result is always backed by a proof (the preflight
/// certificate or an exhaustive sub-search).
///
/// # Example
///
/// ```
/// use telamalloc::{solve_portfolio, TelaConfig};
/// use tela_model::{examples, Budget};
///
/// let config = TelaConfig {
///     threads: 4,
///     ..TelaConfig::default()
/// };
/// let problem = examples::figure1();
/// let race = solve_portfolio(&problem, &Budget::steps(100_000), &config);
/// let solution = race.result.outcome.solution().expect("figure1 is solvable");
/// assert!(solution.validate(&problem).is_ok());
/// ```
pub fn solve_portfolio(problem: &Problem, budget: &Budget, config: &TelaConfig) -> PortfolioResult {
    // tela-lint: allow(deterministic-clock, reason = "stats-only wall stamping of elapsed; never branches the search")
    let start = Instant::now();
    let tracer = &config.tracer;
    let span = if tracer.enabled() {
        tracer.count("portfolio.races", 1);
        tracer.begin(
            "portfolio",
            "race",
            vec![
                ("buffers".into(), problem.len().into()),
                ("threads".into(), config.threads.into()),
            ],
        )
    } else {
        tela_trace::SpanId::NULL
    };
    let mut race = run_portfolio(problem, budget, config, start);
    race.result.stats.elapsed = start.elapsed();
    // Surface caught worker panics in the aggregate diagnostics: the
    // payloads themselves are on the per-variant reports and in the
    // `portfolio.variant_panicked` trace events.
    race.result.stats.panics += race.panicked() as u64;
    if tracer.enabled() {
        let ran = race.reports.iter().flatten().count() as u64;
        tracer.count("portfolio.variants.run", ran);
        tracer.count("portfolio.variants.panicked", race.panicked() as u64);
        if let (Some(index), Some(won)) = (race.winner, race.result.stats.winner) {
            let name = race.reports[index]
                .as_ref()
                .map_or(String::new(), |r| r.name.clone());
            tracer.instant(
                "portfolio",
                "winner",
                vec![
                    ("index".into(), index.into()),
                    ("name".into(), name.into()),
                    ("thread".into(), u64::from(won.thread).into()),
                ],
            );
        }
        tracer.end(
            span,
            "portfolio",
            "race",
            vec![
                ("outcome".into(), race.result.outcome.label().into()),
                (
                    "winner".into(),
                    race.winner.map_or(-1i64, |w| w as i64).into(),
                ),
            ],
        );
    }
    race
}

fn run_portfolio(
    problem: &Problem,
    budget: &Budget,
    config: &TelaConfig,
    start: Instant,
) -> PortfolioResult {
    if config.preflight_audit {
        if let Some(result) = settle_by_preflight(problem, &config.tracer, start) {
            return PortfolioResult {
                result,
                winner: None,
                reports: Vec::new(),
            };
        }
    }
    let variants = if config.variants.is_empty() {
        default_variants(config)
    } else {
        config.variants.clone()
    };
    let threads = config.threads.max(1).min(variants.len());
    race_blind(problem, budget, &variants, threads, config)
}

/// Step cap for the sprint that precedes a multi-threaded blind race.
///
/// Most production instances are easy (§2.3): the base variant settles
/// them in well under a few thousand steps. Racing those from a cold
/// start taxes them with thread spawning and CPU time-slicing, so the
/// driver first sprints variant 0 alone at full single-thread speed and
/// only spawns the race for instances the sprint cannot settle. The
/// sprint's steps are the race's only duplicated work, bounded by this
/// cap (and by a quarter of the real budget, so tiny budgets keep most
/// of their steps for the race).
const SPRINT_STEPS: u64 = 4096;

/// The blind race: a fixed schedule over the variant list. At
/// `threads > 1` a one-slot sprint of variant 0 runs first (see
/// [`SPRINT_STEPS`]); unless it is decisive, one round then runs every
/// variant under the full budget. A panicked or indecisive sprint is
/// discarded — the round re-runs variant 0 and reports whatever
/// happens there.
fn race_blind(
    problem: &Problem,
    budget: &Budget,
    variants: &[PortfolioVariant],
    threads: usize,
    config: &TelaConfig,
) -> PortfolioResult {
    let tracer = &config.tracer;
    let mut race = Race::new(variants.len());
    if threads > 1 {
        let quota = budget
            .max_steps()
            .map_or(SPRINT_STEPS, |cap| (cap / 4).clamp(1, SPRINT_STEPS));
        let sprint = Slot {
            variant: 0,
            quota: Some(quota),
        };
        let runs = run_round(problem, budget, variants, config, &[sprint], 1);
        let decisive = runs.iter().any(SlotRun::is_decisive);
        if tracer.enabled() {
            tracer.count("portfolio.sprints", 1);
            tracer.instant(
                "portfolio",
                "sprint",
                vec![("decisive".into(), decisive.into())],
            );
        }
        if decisive {
            for run in runs {
                race.record(run, variants);
            }
            return race.finish(variants, tracer);
        }
    }
    let slots: Vec<Slot> = (0..variants.len())
        .map(|variant| Slot {
            variant,
            quota: None,
        })
        .collect();
    for run in run_round(problem, budget, variants, config, &slots, threads) {
        race.record(run, variants);
    }
    race.finish(variants, tracer)
}

// -----------------------------------------------------------------
// Variant lifecycle trace events. Workers record through a per-thread
// `TraceBuffer` so the shared sink lock is touched once per worker,
// not once per event; sequence numbers still come from the shared
// counter, so the merged timeline stays totally ordered.

fn begin_variant(
    buf: &mut tela_trace::TraceBuffer,
    index: usize,
    variant: &PortfolioVariant,
) -> tela_trace::SpanId {
    if !buf.enabled() {
        return tela_trace::SpanId::NULL;
    }
    buf.begin(
        "portfolio",
        "variant",
        vec![
            ("index".into(), index.into()),
            ("name".into(), variant.name.clone().into()),
        ],
    )
}

fn end_variant(
    buf: &mut tela_trace::TraceBuffer,
    span: tela_trace::SpanId,
    index: usize,
    variant: &PortfolioVariant,
    result: Result<&TelaResult, &String>,
    config: &TelaConfig,
) {
    if !buf.enabled() {
        return;
    }
    match result {
        Ok(result) => {
            // Wall times are skipped under the logical clock so that
            // deterministic traces stay byte-identical across runs.
            if config.tracer.clock() == Some(tela_trace::ClockMode::Wall) {
                config.tracer.observe(
                    "portfolio.variant.elapsed_us",
                    result.stats.elapsed.as_micros() as u64,
                );
            }
            buf.end(
                span,
                "portfolio",
                "variant",
                vec![
                    ("index".into(), index.into()),
                    ("outcome".into(), result.outcome.label().into()),
                    ("steps".into(), result.stats.steps.into()),
                ],
            );
        }
        Err(message) => {
            buf.instant(
                "portfolio",
                "variant_panicked",
                vec![
                    ("index".into(), index.into()),
                    ("name".into(), variant.name.clone().into()),
                    ("message".into(), message.clone().into()),
                ],
            );
            buf.end(
                span,
                "portfolio",
                "variant",
                vec![
                    ("index".into(), index.into()),
                    ("outcome".into(), "panicked".into()),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::examples;

    #[test]
    fn default_portfolio_has_base_plus_strategy_policy_cross() {
        let base = TelaConfig::default();
        let variants = default_variants(&base);
        assert_eq!(variants.len(), 9);
        assert_eq!(variants[0].name, "telamalloc");
        assert_eq!(variants[0].config.selection, base.selection);
        // 4 strategies × 2 policies, all distinct names.
        let mut names: Vec<&str> = variants.iter().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
        assert!(variants
            .iter()
            .skip(1)
            .all(|v| v.config.selection.len() == 1));
    }

    #[test]
    fn default_portfolio_dedups_variants_matching_the_base() {
        // A single-strategy base searches identically to one of the
        // strategy×policy cross entries; that entry must not be listed
        // twice.
        let base = TelaConfig::single_strategy(SelectionStrategy::MaxSize);
        let variants = default_variants(&base);
        assert_eq!(variants.len(), 8);
        assert_eq!(variants[0].name, "telamalloc");
        assert!(
            !variants
                .iter()
                .skip(1)
                .any(|v| v.name == "max-size/fixed-step"),
            "the base IS max-size/fixed-step; the cross entry is a duplicate"
        );
        // The other policy for the same strategy still races.
        assert!(variants
            .iter()
            .any(|v| v.name == "max-size/conflict-guided"));
    }

    #[test]
    fn preflight_certificate_aborts_the_race() {
        let p = examples::infeasible();
        let config = TelaConfig {
            threads: 4,
            ..TelaConfig::default()
        };
        let race = solve_portfolio(&p, &Budget::unlimited(), &config);
        assert_eq!(race.result.outcome, SolveOutcome::Infeasible);
        // No worker ever started: the certificate settled the race.
        assert!(race.winner.is_none());
        assert!(race.reports.is_empty());
        assert!(race.result.certificate.expect("witness").verify(&p));
    }

    #[test]
    fn sequential_race_skips_later_variants_after_a_win() {
        let p = examples::figure1();
        let config = TelaConfig::default();
        let race = solve_portfolio(&p, &Budget::steps(100_000), &config);
        assert_eq!(race.winner, Some(0));
        assert!(race.reports[0].is_some());
        assert!(race.reports[1..].iter().all(Option::is_none));
    }
}
