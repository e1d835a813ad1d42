use std::cell::{Cell, RefCell};

use tela_model::{Address, BufferId, Problem, Size, Solution};
use tela_trace::Tracer;

use crate::domain::Domain;
use crate::ids::{Arena, PairId, VarId};
use crate::model::{CpModel, ModelError};
use crate::sweep::{lowest_fit_explain, lowest_fit_pos, BitTimeline, BITMAP_MAX_BITS};

#[cfg(feature = "debug-invariants")]
mod invariants;

/// Counters from the `debug-invariants` runtime audit.
///
/// Without the feature both fields are always zero. With it, `checks`
/// counts individual invariant evaluations; `violations` counts the
/// ones that failed. In debug builds a violation panics immediately
/// with a structured report, so a non-zero `violations` value is only
/// observable in release builds (where the audit counts instead of
/// aborting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Individual invariant checks evaluated.
    pub checks: u64,
    /// Checks that failed.
    pub violations: u64,
}

/// Pre-decision domain bounds captured for the shrink-monotonicity
/// audit; a zero-sized placeholder when `debug-invariants` is off.
#[cfg(feature = "debug-invariants")]
type DomainsBefore = Vec<(Address, Address, bool)>;
#[cfg(not(feature = "debug-invariants"))]
type DomainsBefore = ();

#[cfg(not(feature = "debug-invariants"))]
impl CpSolver {
    #[inline(always)]
    fn audit_snapshot(&self) -> DomainsBefore {}
    #[inline(always)]
    fn audit_decision_fixpoint(&self, _before: &DomainsBefore) {}
    #[inline(always)]
    fn audit_conflict(&self, _conflict: &Conflict) {}
    #[inline(always)]
    fn audit_backtrack(&self, _target: usize) {}

    /// Invariant audit counters: always zero unless the crate is built
    /// with the `debug-invariants` feature.
    pub fn invariant_report(&self) -> InvariantReport {
        InvariantReport::default()
    }
}

/// Decision state of one ordering pair `(x, y)` (with `x < y`):
/// which buffer sits below the other in memory.
///
/// This is the CP encoding's `B(X, Y) ⊕ B(Y, X)` pair of booleans
/// (paper §5.1) collapsed into one three-valued state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderState {
    /// Neither ordering has been committed yet.
    Undecided,
    /// `pos(x) + size(x) <= pos(y)`: the lower-indexed buffer is below.
    FirstBelow,
    /// `pos(y) + size(y) <= pos(x)`: the higher-indexed buffer is below.
    SecondBelow,
}

/// A failed assignment, with the already-placed buffers implicated.
///
/// `culprits` lists fixed placements that contributed to the failure, in
/// the order they were assigned (earliest first). TelaMalloc's smart
/// backtracking jumps to the second-to-last culprit's decision level
/// (paper §5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The buffer whose domain wiped out or that became unplaceable, when
    /// identifiable.
    pub subject: Option<BufferId>,
    /// Fixed placements implicated in the failure, in assignment order.
    pub culprits: Vec<BufferId>,
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.subject {
            Some(s) => write!(f, "conflict on {s}")?,
            None => write!(f, "conflict")?,
        }
        if !self.culprits.is_empty() {
            write!(f, " implicating ")?;
            for (i, c) in self.culprits.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for Conflict {}

/// A conflict whose culprit explanation has not been materialized yet:
/// the failing constraint's variables plus the failed subject, enough
/// for [`CpSolver::explain`] to rebuild the full [`Conflict`] on demand.
///
/// The TelaMalloc engine tries many candidates per decision point but
/// only ever explains the *last* failure before a major backtrack
/// (§5.4), so [`CpSolver::assign_deferred`] hands back this `Copy` seed
/// and skips the culprit gather on the ~99% of minor backtracks whose
/// explanation is never read.
///
/// A seed stays explainable until the solver's fixed set changes below
/// the failure level: the failed assignment itself is rolled back before
/// the seed is returned, but its assignment rank survives as a
/// stale-but-valid entry, and `subject_fixed` records whether the
/// subject must be treated as fixed when re-gathering culprits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictSeed {
    /// The buffer whose assignment failed.
    subject: u32,
    /// Whether the subject was fixed when the failure fired (true for
    /// propagation failures, false for out-of-domain rejections).
    subject_fixed: bool,
    /// The variables at the failing constraint.
    vars: [u32; 2],
    /// How many entries of `vars` are meaningful (1 or 2).
    vars_len: u8,
}

impl ConflictSeed {
    /// The buffer whose assignment failed.
    pub fn subject(&self) -> BufferId {
        BufferId::new(self.subject as usize)
    }
}

/// Trail entry tag: restore non-empty bounds.
const TAG_BOUNDS: u32 = 0;
/// Trail entry tag: restore bounds that were empty.
const TAG_BOUNDS_EMPTY: u32 = 1;
/// Trail entry tag: undo an ordering decision (`key >> 2` is the pair).
const TAG_ORDER: u32 = 2;
/// Ids stored in trail keys get the low two bits for the tag.
const MAX_TRAIL_ID: u32 = u32::MAX >> 2;

/// Queued-change bit: the variable's lower bound tightened.
const DIRTY_LO: u8 = 1;
/// Queued-change bit: the variable's upper bound tightened.
const DIRTY_HI: u8 = 2;

/// Per-adjacency-slot order state: pair undecided.
const SLOT_UNDECIDED: u8 = 0;
/// The slot's row owner is the *below* endpoint. Equal to [`DIRTY_LO`]
/// on purpose: a decided slot is relevant exactly when `state & bits`
/// is non-zero (the below side reacts to lower-bound changes, the
/// above side to upper-bound changes).
const SLOT_SELF_BELOW: u8 = DIRTY_LO;
/// The slot's row owner is the *above* endpoint (see
/// [`SLOT_SELF_BELOW`]).
const SLOT_SELF_ABOVE: u8 = DIRTY_HI;
/// Queued-change bit: the variable was just fixed. Matches no decided
/// slot's state, but keeps the mask non-zero so the variable is drained
/// and its *undecided* pairs re-examined even when the fix landed on an
/// existing bound and moved nothing (the pair may still become forced —
/// e.g. a domain pinned to a singleton by construction).
const DIRTY_FIX: u8 = 4;

/// One undo record in the flat trail: 20 bytes, no enum padding. The
/// low two bits of `key` hold the tag, the rest the variable (bounds
/// entries) or pair (order entries) index.
#[derive(Debug, Clone, Copy)]
struct TrailEntry {
    key: u32,
    lo: Address,
    hi: Address,
}

impl TrailEntry {
    #[inline(always)]
    fn bounds(var: u32, lo: Address, hi: Address, empty: bool) -> Self {
        let tag = if empty { TAG_BOUNDS_EMPTY } else { TAG_BOUNDS };
        TrailEntry {
            key: var << 2 | tag,
            lo,
            hi,
        }
    }

    #[inline(always)]
    fn order(pair: PairId) -> Self {
        TrailEntry {
            key: pair.raw() << 2 | TAG_ORDER,
            lo: 0,
            hi: 0,
        }
    }
}

/// The one or two variables at a failing constraint, passed up the
/// propagation call chain without the `Vec` the conflict path used to
/// allocate per minor backtrack. The first entry doubles as the
/// conflict subject.
#[derive(Debug, Clone, Copy)]
struct FailVars {
    vars: [u32; 2],
}

impl FailVars {
    #[inline(always)]
    fn two(a: u32, b: u32) -> Self {
        FailVars { vars: [a, b] }
    }

    #[inline(always)]
    fn slice(&self) -> &[u32] {
        &self.vars
    }
}

#[derive(Debug, Clone, Copy)]
struct LevelMark {
    trail_len: usize,
    fixed_len: usize,
}

/// Reusable min-feasible-position scratch: the bitset occupancy timeline
/// for on-chip-sized capacities plus a gather buffer for the sorted
/// interval fallback. Lives behind a `RefCell` because the sweep queries
/// take `&self`; each search worker owns its solver, so the loss of
/// `Sync` is harmless (same pattern as the query counters).
#[derive(Debug, Default)]
struct SweepScratch {
    timeline: BitTimeline,
    intervals: Vec<(Address, Address, u32)>,
}

/// Incremental constraint solver over the allocation CP model.
///
/// The solver maintains interval domains for every `pos` variable and the
/// ordering state of every time-overlapping pair, with a trail that makes
/// backtracking to any earlier decision level cheap. One *decision level*
/// is pushed per successful [`assign`](CpSolver::assign) call.
///
/// All search state lives in flat arrays indexed by [`VarId`]/[`PairId`]
/// — domains, ordering states, the trail, the propagation queue, and the
/// sweep scratch are preallocated `Vec`s with no per-node boxing, so
/// steady-state search (after the first pass has grown every buffer to
/// its high-water mark) performs zero heap allocations on the assign/
/// propagate/backtrack cycle and on min-feasible-position sweeps. The
/// only allocation left on a failure path is the culprit list inside the
/// returned [`Conflict`] (public API).
///
/// Propagation is bounds-consistent and therefore sound but incomplete:
/// a non-conflicting assignment may still be part of no solution. The
/// search layers (this crate's [`search`](crate::search) module and the
/// `telamalloc` crate) handle exhaustive exploration.
///
/// # Example
///
/// ```
/// use tela_cp::CpSolver;
/// use tela_model::{examples, BufferId};
///
/// let mut solver = CpSolver::new(&examples::tiny())?;
/// let a = BufferId::new(0);
/// let b = BufferId::new(1);
/// solver.assign(a, 0).unwrap();
/// // Buffer 1 overlaps buffer 0 in time, so its lowest feasible
/// // position is now on top of buffer 0.
/// assert_eq!(solver.min_feasible_pos(b), Some(8));
/// solver.pop_level();
/// assert_eq!(solver.min_feasible_pos(b), Some(0));
/// # Ok::<(), tela_cp::ModelError>(())
/// ```
#[derive(Debug)]
pub struct CpSolver {
    model: CpModel,
    domains: Vec<Domain>,
    /// Flat per-buffer size cache: the propagation loop reads sizes
    /// constantly and should not drag whole 32-byte `Buffer` structs
    /// through the cache for them.
    sizes: Vec<Size>,
    /// Flat per-buffer alignment cache (sweep queries).
    aligns: Vec<Size>,
    orders: Vec<OrderState>,
    fixed: Vec<bool>,
    fixed_order: Vec<u32>,
    /// `rank[var]` = position in `fixed_order`, maintained on fix and
    /// valid while `fixed[var]`; stale entries are never read because
    /// every consumer filters on the fixed flag first. Replaces the
    /// `vec![usize::MAX; n]` the conflict path used to allocate per
    /// minor backtrack.
    rank: Vec<u32>,
    trail: Vec<TrailEntry>,
    levels: Vec<LevelMark>,
    queue: Vec<u32>,
    /// Pending-change mask per queued variable (`DIRTY_LO` / `DIRTY_HI`);
    /// zero means not queued. The mask drives directional propagation:
    /// a decided pair only needs the implication fed by a dirty bound.
    queued: Vec<u8>,
    /// Order state per flat adjacency slot, from the slot's row-owner
    /// perspective (`SLOT_UNDECIDED` / `SLOT_SELF_BELOW` /
    /// `SLOT_SELF_ABOVE`). A redundant, sequentially-readable view of
    /// `orders` that lets the propagation inner loop classify a slot
    /// from one byte, without touching `adj_pair` or `orders`.
    /// Maintained in `decide_order` and the trail restore.
    slot_state: Vec<u8>,
    /// `trail_stamp[var]` = the level epoch that last pushed a bounds
    /// entry for `var`. Restoration is last-pop-wins within a level, so
    /// one entry per variable per level suffices; matching stamps let
    /// repeated tightenings of the same variable skip redundant pushes.
    trail_stamp: Vec<u64>,
    /// Monotone count of decision levels ever pushed — the epoch keying
    /// `trail_stamp` (never reused, so stale stamps cannot collide).
    ///
    /// SOUNDNESS: the stamp check assumes `level_epoch` is the epoch of
    /// the innermost open level whenever a tighten runs. This holds
    /// because every tighten happens inside the propagation of the most
    /// recently pushed level — levels are never popped mid-propagation,
    /// and nothing tightens bounds between a pop and the next push.
    level_epoch: u64,
    sweep: RefCell<SweepScratch>,
    /// Reusable culprit gather buffer for conflict explanations.
    culprits: RefCell<Vec<u32>>,
    /// Problem capacity, cached flat.
    capacity: Address,
    /// Whether the capacity is small enough for the bitset timeline.
    bitmap_capable: bool,
    propagations: u64,
    /// Count of min-feasible-position sweeps; a `Cell` because the query
    /// methods take `&self` (each search worker owns its solver, so the
    /// loss of `Sync` is harmless).
    min_pos_queries: Cell<u64>,
    tracer: Tracer,
    #[cfg(feature = "debug-invariants")]
    audit: invariants::AuditCounters,
}

impl CpSolver {
    /// Builds a solver for `problem`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the problem is trivially infeasible (see
    /// [`CpModel::new`]).
    pub fn new(problem: &Problem) -> Result<Self, ModelError> {
        Ok(Self::from_model(CpModel::new(problem)?))
    }

    /// Builds a solver over an existing model.
    pub fn from_model(model: CpModel) -> Self {
        let problem = model.problem();
        let domains = problem
            .buffers()
            .iter()
            .map(|b| Domain::new(0, problem.capacity() - b.size(), b.align()))
            .collect::<Vec<_>>();
        let sizes: Vec<Size> = problem.buffers().iter().map(|b| b.size()).collect();
        let aligns: Vec<Size> = problem.buffers().iter().map(|b| b.align()).collect();
        let n = problem.len();
        let pair_count = model.pair_count();
        debug_assert!(
            n as u64 <= MAX_TRAIL_ID as u64 && pair_count as u64 <= MAX_TRAIL_ID as u64,
            "trail keys reserve two tag bits"
        );
        let capacity = problem.capacity();
        let max_degree = model.max_degree();
        let adj_len = model.adj_len();
        CpSolver {
            model,
            domains,
            sizes,
            aligns,
            orders: vec![OrderState::Undecided; pair_count],
            fixed: vec![false; n],
            fixed_order: Vec::with_capacity(n),
            rank: vec![0; n],
            trail: Vec::new(),
            levels: Vec::with_capacity(n + 1),
            queue: Vec::with_capacity(n),
            queued: vec![0; n],
            slot_state: vec![SLOT_UNDECIDED; adj_len],
            trail_stamp: vec![0; n],
            level_epoch: 0,
            sweep: RefCell::new(SweepScratch {
                timeline: BitTimeline::default(),
                // A sweep gathers at most one interval per neighbor.
                intervals: Vec::with_capacity(max_degree),
            }),
            culprits: RefCell::new(Vec::new()),
            capacity,
            bitmap_capable: capacity <= BITMAP_MAX_BITS,
            propagations: 0,
            min_pos_queries: Cell::new(0),
            tracer: Tracer::disabled(),
            #[cfg(feature = "debug-invariants")]
            audit: invariants::AuditCounters::default(),
        }
    }

    /// Attaches a tracer: conflicts are counted and their culprit-clique
    /// sizes recorded as metrics (and, with the `trace` feature, emitted
    /// as per-conflict events). A disabled tracer — the default — costs
    /// one branch per conflict and nothing on the propagation hot loop.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer attached via [`set_tracer`](CpSolver::set_tracer)
    /// (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Number of min-feasible-position sweeps performed so far (a
    /// deterministic work counter, like
    /// [`propagations`](CpSolver::propagations)).
    pub fn min_pos_queries(&self) -> u64 {
        self.min_pos_queries.get()
    }

    /// Records a conflict into the attached tracer (no-op when the
    /// tracer is disabled).
    fn note_conflict(&self, conflict: &Conflict) {
        if !self.tracer.enabled() {
            return;
        }
        self.tracer.count("cp.conflicts", 1);
        self.tracer
            .observe("cp.conflict.clique_size", conflict.culprits.len() as u64);
        #[cfg(feature = "trace")]
        self.tracer.instant(
            "cp",
            "conflict",
            vec![
                (
                    "subject".into(),
                    conflict
                        .subject
                        .map(|s| s.index())
                        .map_or(tela_trace::Value::Str("none".to_string()), Into::into),
                ),
                ("culprits".into(), conflict.culprits.len().into()),
            ],
        );
    }

    /// The constraint model this solver operates on.
    pub fn model(&self) -> &CpModel {
        &self.model
    }

    /// The underlying problem.
    pub fn problem(&self) -> &Problem {
        self.model.problem()
    }

    /// Current decision level (number of successful assignments on the
    /// current path).
    pub fn level(&self) -> usize {
        self.levels.len()
    }

    /// Number of pair-propagation operations performed so far (a
    /// deterministic work counter for experiments).
    pub fn propagations(&self) -> u64 {
        self.propagations
    }

    /// Current domain of `id`'s position variable (a copy; [`Domain`] is
    /// a small `Copy` value).
    #[inline]
    pub fn domain(&self, id: BufferId) -> Domain {
        *self.domains.at(id.index())
    }

    /// The committed address of `id`, if it has been assigned.
    pub fn assignment(&self, id: BufferId) -> Option<Address> {
        if *self.fixed.at(id.index()) {
            Some(self.domains.at(id.index()).lo())
        } else {
            None
        }
    }

    /// Returns true if `id` has been assigned.
    pub fn is_fixed(&self, id: BufferId) -> bool {
        *self.fixed.at(id.index())
    }

    /// Number of assigned buffers.
    pub fn fixed_count(&self) -> usize {
        self.fixed_order.len()
    }

    /// Unassigned buffers in id order.
    pub fn unfixed(&self) -> impl Iterator<Item = BufferId> + '_ {
        self.fixed
            .iter()
            .enumerate()
            .filter(|&(_, &f)| !f)
            .map(|(i, _)| BufferId::new(i))
    }

    /// Ordering state of the pair with index `pair`.
    pub fn order(&self, pair: PairId) -> OrderState {
        *self.orders.at(pair.idx())
    }

    /// Assigns `id` to `addr`, pushing one decision level and running
    /// propagation.
    ///
    /// On conflict the decision level is rolled back automatically, so
    /// the solver is back in its pre-call state and another candidate can
    /// be tried — a *minor backtrack* in the paper's terms.
    ///
    /// # Errors
    ///
    /// Returns the [`Conflict`] (with implicated placements) if the
    /// assignment is inconsistent with the constraint store.
    pub fn assign(&mut self, id: BufferId, addr: Address) -> Result<(), Conflict> {
        self.assign_deferred(id, addr)
            .map_err(|seed| self.explain(&seed))
    }

    /// Like [`assign`](CpSolver::assign), but on failure returns a
    /// compact [`ConflictSeed`] instead of materializing the culprit
    /// explanation, skipping the per-failure gather/sort entirely in
    /// release builds (the `debug-invariants` audit and an enabled
    /// tracer still see the full conflict).
    ///
    /// Pass the seed to [`explain`](CpSolver::explain) to obtain the
    /// [`Conflict`]; the result is identical to what
    /// [`assign`](CpSolver::assign) would have returned as long as no
    /// later assignment succeeds and no backtrack below the failure
    /// level happens in between.
    ///
    /// # Errors
    ///
    /// Returns the seed of the conflict on an inconsistent assignment;
    /// the decision level is rolled back automatically, as in
    /// [`assign`](CpSolver::assign).
    pub fn assign_deferred(&mut self, id: BufferId, addr: Address) -> Result<(), ConflictSeed> {
        let var = VarId::from(id).raw();
        debug_assert!(
            !*self.fixed.at(id.index()),
            "buffer {id} is already assigned"
        );
        #[allow(clippy::let_unit_value)] // unit only without debug-invariants
        let before = self.audit_snapshot();
        self.levels.push(LevelMark {
            trail_len: self.trail.len(),
            fixed_len: self.fixed_order.len(),
        });
        self.level_epoch += 1;
        if !self.domains.at(id.index()).contains(addr) {
            let seed = ConflictSeed {
                subject: var,
                subject_fixed: false,
                vars: [var, var],
                vars_len: 1,
            };
            self.seeded_failure(&seed);
            self.pop_level();
            return Err(seed);
        }
        // Trail the old bounds, then fix. The level was just pushed, so
        // this is necessarily the level's first entry for `var`.
        let (lo, hi, empty) = self.domains.at(id.index()).snapshot();
        *self.trail_stamp.at_mut(id.index()) = self.level_epoch;
        self.trail.push(TrailEntry::bounds(var, lo, hi, empty));
        self.domains.at_mut(id.index()).fix(addr);
        *self.fixed.at_mut(id.index()) = true;
        *self.rank.at_mut(id.index()) = self.fixed_order.len() as u32;
        self.fixed_order.push(var);
        // Mark only the bounds the fix actually moved — an assignment at
        // an existing bound cannot tighten a decided neighbor through it
        // — plus the fix bit, so undecided pairs are always re-examined.
        let bits = u8::from(lo != addr) * DIRTY_LO + u8::from(hi != addr) * DIRTY_HI;
        self.enqueue(var, DIRTY_FIX | bits);
        match self.propagate() {
            Ok(()) => {
                self.audit_decision_fixpoint(&before);
                Ok(())
            }
            Err(fail) => {
                let seed = ConflictSeed {
                    subject: var,
                    subject_fixed: true,
                    vars: fail.vars,
                    vars_len: 2,
                };
                self.seeded_failure(&seed);
                self.pop_level();
                Err(seed)
            }
        }
    }

    /// Materializes the full [`Conflict`] for a deferred failure.
    ///
    /// Valid while the fixed set below the failure level is unchanged
    /// (the engine guarantees this: between a minor backtrack and the
    /// major backtrack that reads its conflict, every intervening
    /// candidate also failed and rolled itself back).
    pub fn explain(&self, seed: &ConflictSeed) -> Conflict {
        // The subject's own fix was rolled back with the failed level,
        // but its culprit role and rank survive; the ghost re-adds it to
        // the gather exactly as the failure-time build saw it.
        let ghost = seed.subject_fixed.then_some(seed.subject);
        self.build_conflict_with_ghost(
            Some(seed.subject),
            &seed.vars[..seed.vars_len as usize],
            ghost,
        )
    }

    /// Audit/trace hook for a deferred failure: consumers that need the
    /// full conflict — the `debug-invariants` audit, an enabled metrics
    /// tracer — materialize it here, before the level pop. The
    /// steady-state release path skips the gather entirely.
    fn seeded_failure(&self, seed: &ConflictSeed) {
        if cfg!(feature = "debug-invariants") || self.tracer.enabled() {
            // Pre-pop, the subject is genuinely fixed (or genuinely not,
            // for out-of-domain rejections), so the ghost is redundant
            // here and `explain` yields the failure-time conflict.
            let conflict = self.explain(seed);
            self.audit_conflict(&conflict);
            self.note_conflict(&conflict);
        }
    }

    /// Commits an ordering decision for an undecided pair, pushing one
    /// decision level and running propagation — the boolean branching a
    /// CP-SAT solver performs on the `B(X, Y)` variables (paper §5.1).
    ///
    /// On conflict the decision level is rolled back automatically.
    ///
    /// # Errors
    ///
    /// Returns the [`Conflict`] if the decision is inconsistent.
    ///
    /// # Panics
    ///
    /// Panics if the pair is already decided or `state` is
    /// [`OrderState::Undecided`].
    pub fn decide(&mut self, pair: PairId, state: OrderState) -> Result<(), Conflict> {
        assert_eq!(
            *self.orders.at(pair.idx()),
            OrderState::Undecided,
            "pair {pair} is already decided"
        );
        let (x, y) = self.model.pair(pair);
        let (below, above) = match state {
            OrderState::FirstBelow => (x, y),
            OrderState::SecondBelow => (y, x),
            // tela-lint: allow(no-solve-path-panic, reason = "documented caller contract: deciding a pair to Undecided is API misuse, not a solve failure")
            OrderState::Undecided => panic!("cannot decide a pair to Undecided"),
        };
        #[allow(clippy::let_unit_value)] // unit only without debug-invariants
        let before = self.audit_snapshot();
        self.levels.push(LevelMark {
            trail_len: self.trail.len(),
            fixed_len: self.fixed_order.len(),
        });
        self.level_epoch += 1;
        let result = self
            .decide_order(pair, state, below, above)
            .and_then(|()| self.propagate());
        match result {
            Ok(()) => {
                self.audit_decision_fixpoint(&before);
                Ok(())
            }
            Err(fail) => {
                self.clear_queue();
                let conflict = self.build_conflict(Some(fail.vars[0]), fail.slice());
                self.audit_conflict(&conflict);
                self.note_conflict(&conflict);
                self.pop_level();
                Err(conflict)
            }
        }
    }

    /// The first undecided pair with index `>= from`, if any.
    pub fn next_undecided_pair(&self, from: PairId) -> Option<PairId> {
        (from.idx()..self.orders.len())
            .find(|&i| *self.orders.at(i) == OrderState::Undecided)
            .map(|i| PairId::new(i as u32))
    }

    /// When every pair is decided, the domain lower bounds form a valid
    /// solution: each decided ordering guarantees
    /// `lo(above) >= lo(below) + size(below)` at the propagation fixpoint,
    /// and bounds already respect capacity and alignment.
    ///
    /// Returns `None` while any pair remains undecided.
    pub fn lower_bound_solution(&self) -> Option<Solution> {
        if self.orders.contains(&OrderState::Undecided) {
            return None;
        }
        Some(Solution::new(self.domains.iter().map(|d| d.lo()).collect()))
    }

    /// Pops the most recent decision level. No-op at level 0.
    pub fn pop_level(&mut self) {
        let target = self.level().saturating_sub(1);
        self.pop_to_level(target);
    }

    /// Backtracks to `level`, undoing all later assignments and their
    /// propagation effects.
    ///
    /// # Panics
    ///
    /// Panics if `level` is greater than the current level.
    // tela-lint: hot-path
    pub fn pop_to_level(&mut self, level: usize) {
        assert!(level <= self.level(), "cannot pop forward to level {level}");
        // INVARIANT: the `let … else` breaks below are unreachable — the
        // loop conditions (`len() > level` / `len() > mark.trail_len`)
        // imply a poppable element. Spelled without `expect` so even an
        // impossible corruption degrades to a truncated pop instead of
        // aborting the solve.
        while self.levels.len() > level {
            let Some(mark) = self.levels.pop() else { break };
            while self.trail.len() > mark.trail_len {
                let Some(entry) = self.trail.pop() else { break };
                let id = (entry.key >> 2) as usize;
                match entry.key & 3 {
                    TAG_ORDER => {
                        *self.orders.at_mut(id) = OrderState::Undecided;
                        let [sx, sy] = self.model.pair_slots(PairId::new(id as u32));
                        *self.slot_state.at_mut(sx as usize) = SLOT_UNDECIDED;
                        *self.slot_state.at_mut(sy as usize) = SLOT_UNDECIDED;
                    }
                    tag => {
                        self.domains
                            .at_mut(id)
                            .restore(entry.lo, entry.hi, tag == TAG_BOUNDS_EMPTY)
                    }
                }
            }
            while self.fixed_order.len() > mark.fixed_len {
                let Some(var) = self.fixed_order.pop() else {
                    break;
                };
                *self.fixed.at_mut(var as usize) = false;
            }
        }
        // Any queued propagation work belongs to the abandoned subtree.
        self.clear_queue();
        self.audit_backtrack(level);
    }

    /// The lowest feasible aligned address for `id` given the *fixed*
    /// placements and `id`'s current domain — the paper's solver-guided
    /// placement query (§5.2).
    ///
    /// Returns `None` if no address fits. Note this ignores unfixed
    /// buffers, so `Some` does not guarantee global feasibility.
    pub fn min_feasible_pos(&self, id: BufferId) -> Option<Address> {
        self.min_feasible_pos_at_least(id, 0)
    }

    /// Like [`min_feasible_pos`](CpSolver::min_feasible_pos), but only
    /// considers addresses `>= from`. Used to enumerate successive
    /// placement candidates.
    // tela-lint: hot-path
    pub fn min_feasible_pos_at_least(&self, id: BufferId, from: Address) -> Option<Address> {
        self.min_pos_queries.set(self.min_pos_queries.get() + 1);
        let var = VarId::from(id);
        let d = *self.domains.at(var.idx());
        if d.is_empty() {
            return None;
        }
        self.sweep_lowest(
            var.raw(),
            *self.sizes.at(var.idx()),
            *self.aligns.at(var.idx()),
            d.lo().max(from),
            d.hi(),
        )
    }

    /// Lowest-fit sweep over the fixed time-overlapping neighbors of
    /// `var`: marks their address intervals on the reusable bitset
    /// occupancy timeline (or gathers them into the sorted-interval
    /// scratch for capacities too large to bitmap) and scans for the
    /// lowest aligned free window. No allocation in steady state; the
    /// timeline/gather buffers grow once and are reused.
    // tela-lint: hot-path
    fn sweep_lowest(
        &self,
        var: u32,
        size: Size,
        align: Size,
        lo: Address,
        hi: Address,
    ) -> Option<Address> {
        let scratch = &mut *self.sweep.borrow_mut();
        let row = self.model.row(var);
        if self.bitmap_capable {
            scratch.timeline.ensure_bits(self.capacity);
            for at in row.start..row.end {
                let other = self.model.row_other(at) as usize;
                if *self.fixed.at(other) {
                    let start = self.domains.at(other).lo();
                    scratch.timeline.mark(start, start + *self.sizes.at(other));
                }
            }
            let pos = scratch.timeline.lowest_fit(size, align, lo, hi);
            for at in row {
                let other = self.model.row_other(at) as usize;
                if *self.fixed.at(other) {
                    let start = self.domains.at(other).lo();
                    scratch.timeline.clear(start, start + *self.sizes.at(other));
                }
            }
            pos
        } else {
            scratch.intervals.clear();
            for at in row {
                let other = self.model.row_other(at) as usize;
                if *self.fixed.at(other) {
                    let start = self.domains.at(other).lo();
                    scratch
                        .intervals
                        .push((start, start + *self.sizes.at(other), other as u32));
                }
            }
            scratch.intervals.sort_unstable();
            lowest_fit_pos(size, align, lo, hi, &scratch.intervals)
        }
    }

    /// Checks that every unfixed buffer still has at least one feasible
    /// address with respect to the fixed placements.
    ///
    /// This is the "run the solver at every step" early-infeasibility
    /// check (§4): it catches dead ends that bounds propagation alone
    /// misses because interval domains cannot represent holes.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] naming the unplaceable buffer and the
    /// placements blocking it.
    pub fn check_all_placeable(&self) -> Result<(), Conflict> {
        for id in self.unfixed() {
            let var = VarId::from(id);
            let d = *self.domains.at(var.idx());
            if d.is_empty() {
                let conflict = self.build_conflict(Some(var.raw()), &[var.raw()]);
                self.note_conflict(&conflict);
                return Err(conflict);
            }
            let size = *self.sizes.at(var.idx());
            let align = *self.aligns.at(var.idx());
            if self
                .sweep_lowest(var.raw(), size, align, d.lo(), d.hi())
                .is_some()
            {
                continue;
            }
            // Cold explanation path: rebuild the sorted interval list and
            // re-run the attributing sweep to name the blockers.
            let mut occupied: Vec<(Address, Address, u32)> = Vec::new();
            for at in self.model.row(var.raw()) {
                let other = self.model.row_other(at) as usize;
                if *self.fixed.at(other) {
                    let start = self.domains.at(other).lo();
                    occupied.push((start, start + *self.sizes.at(other), other as u32));
                }
            }
            occupied.sort_unstable();
            let result = lowest_fit_explain(size, align, d.lo(), d.hi(), &occupied);
            debug_assert!(result.pos.is_none(), "sweep twins disagree");
            let mut culprits: Vec<BufferId> = result
                .blockers
                .iter()
                .map(|&v| BufferId::new(v as usize))
                .collect();
            culprits.sort_unstable_by_key(|c| *self.rank.at(c.index()));
            let conflict = Conflict {
                subject: Some(id),
                culprits,
            };
            self.audit_conflict(&conflict);
            self.note_conflict(&conflict);
            return Err(conflict);
        }
        Ok(())
    }

    /// Extracts the complete solution once every buffer is fixed.
    pub fn solution(&self) -> Option<Solution> {
        if self.fixed_count() != self.problem().len() {
            return None;
        }
        Some(Solution::new(self.domains.iter().map(|d| d.lo()).collect()))
    }

    // tela-lint: hot-path
    #[inline]
    fn enqueue(&mut self, var: u32, bits: u8) {
        let mask = self.queued.at_mut(var as usize);
        if *mask == 0 {
            self.queue.push(var);
        }
        *mask |= bits;
    }

    /// Drops all queued propagation work (conflict/backtrack cleanup).
    // tela-lint: hot-path
    fn clear_queue(&mut self) {
        while let Some(var) = self.queue.pop() {
            *self.queued.at_mut(var as usize) = 0;
        }
    }

    /// Fixpoint propagation. On conflict, returns the variables at the
    /// failing constraint.
    ///
    /// Directional: each queued variable carries the mask of bounds that
    /// changed since it was last processed, and decided pairs only
    /// re-run the implication fed by a dirty bound. Bounds propagation
    /// is monotone, so the fixpoint (and each assignment's Ok/Err
    /// outcome) is identical to exhaustive re-application; only the
    /// order in which a wipeout is discovered — and hence which pair a
    /// conflict names — can differ.
    // tela-lint: hot-path
    fn propagate(&mut self) -> Result<(), FailVars> {
        while let Some(var) = self.queue.pop() {
            let bits = std::mem::replace(self.queued.at_mut(var as usize), 0);
            // Index-based iteration over the flat CSR row: the adjacency
            // lives in the immutable `CpModel`, so positional re-reads
            // per pair keep the inner loop free of allocation and of
            // aliasing conflicts with `&mut self`.
            let row = self.model.row(var);
            for at in row {
                // One sequential byte read classifies the slot; decided
                // slots whose direction is unaffected by `bits` are
                // skipped without touching the pair or order arrays.
                let state = *self.slot_state.at(at);
                let result = if state != SLOT_UNDECIDED {
                    if state & bits == 0 {
                        continue;
                    }
                    self.propagations += 1;
                    let other = self.model.row_other(at);
                    if state == SLOT_SELF_BELOW {
                        self.prop_from_below(var, other)
                    } else {
                        self.prop_from_above(other, var)
                    }
                } else {
                    let pair = self.model.row_pair(at);
                    let other = self.model.row_other(at);
                    self.propagate_undecided(pair, var, other)
                };
                if let Err(fail) = result {
                    self.clear_queue();
                    return Err(fail);
                }
            }
        }
        Ok(())
    }

    // tela-lint: hot-path
    #[inline]
    fn propagate_undecided(&mut self, pair: PairId, var: u32, other: u32) -> Result<(), FailVars> {
        // Pair endpoints are normalized `x < y`, so they are recoverable
        // from the CSR slot's `(var, other)` without a random read of
        // the pairs array.
        let (x, y) = if var < other {
            (var, other)
        } else {
            (other, var)
        };
        self.propagations += 1;
        let x_possible = self.order_possible(x, y);
        let y_possible = self.order_possible(y, x);
        match (x_possible, y_possible) {
            (false, false) => Err(FailVars::two(x, y)),
            (true, false) => self.decide_order(pair, OrderState::FirstBelow, x, y),
            (false, true) => self.decide_order(pair, OrderState::SecondBelow, y, x),
            (true, true) => Ok(()),
        }
    }

    /// Could `below` be placed entirely under `above`?
    // tela-lint: hot-path
    #[inline]
    fn order_possible(&self, below: u32, above: u32) -> bool {
        let db = self.domains.at(below as usize);
        let da = self.domains.at(above as usize);
        if db.is_empty() || da.is_empty() {
            return false;
        }
        db.lo() + *self.sizes.at(below as usize) <= da.hi()
    }

    // tela-lint: hot-path
    fn decide_order(
        &mut self,
        pair: PairId,
        state: OrderState,
        below: u32,
        above: u32,
    ) -> Result<(), FailVars> {
        *self.orders.at_mut(pair.idx()) = state;
        let [sx, sy] = self.model.pair_slots(pair);
        // `sx` is the slot in the lower-indexed endpoint's row;
        // FirstBelow means that endpoint is the below side.
        let (below_slot, above_slot) = match state {
            OrderState::FirstBelow => (sx, sy),
            _ => (sy, sx),
        };
        *self.slot_state.at_mut(below_slot as usize) = SLOT_SELF_BELOW;
        *self.slot_state.at_mut(above_slot as usize) = SLOT_SELF_ABOVE;
        self.trail.push(TrailEntry::order(pair));
        self.apply_order(below, above)
    }

    /// Enforces `pos(below) + size(below) <= pos(above)` on the bounds.
    /// Used at decision time, when both implications must be applied.
    // tela-lint: hot-path
    #[inline]
    fn apply_order(&mut self, below: u32, above: u32) -> Result<(), FailVars> {
        self.propagations += 2;
        let size_below = *self.sizes.at(below as usize);
        // lo(above) >= lo(below) + size(below)
        let lo_bound = self.domains.at(below as usize).lo() + size_below;
        self.tighten_lo(above, lo_bound)
            .map_err(|v| FailVars::two(v, below))?;
        // hi(below) <= hi(above) - size(below)
        let hi_above = self.domains.at(above as usize).hi();
        match hi_above.checked_sub(size_below) {
            Some(bound) => self
                .tighten_hi(below, bound)
                .map_err(|v| FailVars::two(v, above)),
            None => Err(FailVars::two(below, above)),
        }
    }

    /// One direction of a decided pair: `below`'s raised lower bound
    /// pushes `above` up. The pair was fully applied when decided, so
    /// only the implication fed by a dirty bound can still tighten —
    /// `lo(below)` feeds `lo(above)`, and `hi(above)` feeds `hi(below)`;
    /// the other endpoint's changes re-queue the pair from its side.
    // tela-lint: hot-path
    #[inline]
    fn prop_from_below(&mut self, below: u32, above: u32) -> Result<(), FailVars> {
        let lo_bound = self.domains.at(below as usize).lo() + *self.sizes.at(below as usize);
        self.tighten_lo(above, lo_bound)
            .map_err(|v| FailVars::two(v, below))
    }

    /// One direction of a decided pair: `above`'s lowered upper bound
    /// pushes `below` down (see
    /// [`prop_from_below`](CpSolver::prop_from_below)).
    // tela-lint: hot-path
    #[inline]
    fn prop_from_above(&mut self, below: u32, above: u32) -> Result<(), FailVars> {
        let size_below = *self.sizes.at(below as usize);
        // `hi(above)` only ever decreases, so a fresh underflow here
        // requires a dirty `hi(above)` — never skipped.
        match self.domains.at(above as usize).hi().checked_sub(size_below) {
            Some(bound) => self
                .tighten_hi(below, bound)
                .map_err(|v| FailVars::two(v, above)),
            None => Err(FailVars::two(below, above)),
        }
    }

    /// Raises `var`'s lower bound with trailing; returns the wiped
    /// variable on failure.
    ///
    /// Trailing is deduplicated per decision level: restoration pops in
    /// LIFO order, so within a level only the first-pushed (last-popped)
    /// entry for a variable determines its restored bounds — repeats
    /// with a matching `trail_stamp` are skipped.
    // tela-lint: hot-path
    #[inline]
    fn tighten_lo(&mut self, var: u32, bound: Address) -> Result<(), u32> {
        let snapshot = self.domains.at(var as usize).snapshot();
        if self.domains.at_mut(var as usize).tighten_lo(bound) {
            if *self.trail_stamp.at(var as usize) != self.level_epoch {
                *self.trail_stamp.at_mut(var as usize) = self.level_epoch;
                self.trail
                    .push(TrailEntry::bounds(var, snapshot.0, snapshot.1, snapshot.2));
            }
            if self.domains.at(var as usize).is_empty() {
                return Err(var);
            }
            self.enqueue(var, DIRTY_LO);
        }
        Ok(())
    }

    /// Lowers `var`'s upper bound with trailing; returns the wiped
    /// variable on failure. Trailing is deduplicated per level as in
    /// [`tighten_lo`](CpSolver::tighten_lo).
    // tela-lint: hot-path
    #[inline]
    fn tighten_hi(&mut self, var: u32, bound: Address) -> Result<(), u32> {
        let snapshot = self.domains.at(var as usize).snapshot();
        if self.domains.at_mut(var as usize).tighten_hi(bound) {
            if *self.trail_stamp.at(var as usize) != self.level_epoch {
                *self.trail_stamp.at_mut(var as usize) = self.level_epoch;
                self.trail
                    .push(TrailEntry::bounds(var, snapshot.0, snapshot.1, snapshot.2));
            }
            if self.domains.at(var as usize).is_empty() {
                return Err(var);
            }
            self.enqueue(var, DIRTY_HI);
        }
        Ok(())
    }

    /// Builds a conflict whose culprits are the fixed buffers that overlap
    /// the conflicting variables in time, in assignment order. Gathering,
    /// sorting, and deduplication run in a reusable scratch buffer; the
    /// only allocation is the culprit list in the returned [`Conflict`]
    /// (public API).
    fn build_conflict(&self, subject: Option<u32>, vars: &[u32]) -> Conflict {
        self.build_conflict_with_ghost(subject, vars, None)
    }

    /// [`build_conflict`](CpSolver::build_conflict) with one extra
    /// buffer treated as fixed: the rolled-back subject of a deferred
    /// failure, whose rank entry is stale but still failure-accurate.
    fn build_conflict_with_ghost(
        &self,
        subject: Option<u32>,
        vars: &[u32],
        ghost: Option<u32>,
    ) -> Conflict {
        let is_fixed = |v: u32| *self.fixed.at(v as usize) || Some(v) == ghost;
        let mut scratch = self.culprits.borrow_mut();
        scratch.clear();
        for &v in vars {
            if is_fixed(v) {
                scratch.push(v);
            }
            for at in self.model.row(v) {
                let other = self.model.row_other(at);
                if is_fixed(other) {
                    scratch.push(other);
                }
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        // Assignment order; ranks of fixed buffers are unique, so the
        // unstable sort is deterministic.
        scratch.sort_unstable_by_key(|&v| *self.rank.at(v as usize));
        Conflict {
            subject: subject.map(|v| BufferId::new(v as usize)),
            culprits: scratch.iter().map(|&v| BufferId::new(v as usize)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::{examples, Buffer, Problem};

    fn id(i: usize) -> BufferId {
        BufferId::new(i)
    }

    #[test]
    fn assign_and_read_back() {
        let mut s = CpSolver::new(&examples::tiny()).unwrap();
        s.assign(id(0), 0).unwrap();
        assert_eq!(s.assignment(id(0)), Some(0));
        assert_eq!(s.level(), 1);
        assert!(s.is_fixed(id(0)));
        assert!(!s.is_fixed(id(1)));
    }

    #[test]
    fn overlapping_fixed_placement_conflicts() {
        // Two fully-overlapping buffers cannot share address 0.
        let p = Problem::builder(20)
            .buffer(Buffer::new(0, 4, 8))
            .buffer(Buffer::new(0, 4, 8))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 0).unwrap();
        let err = s.assign(id(1), 4).unwrap_err();
        assert!(err.culprits.contains(&id(0)));
        // The failed level was rolled back.
        assert_eq!(s.level(), 1);
        assert!(!s.is_fixed(id(1)));
        // A consistent address still works.
        s.assign(id(1), 8).unwrap();
        assert_eq!(s.level(), 2);
    }

    #[test]
    fn propagation_tightens_via_decided_orders() {
        // Capacity 10, two overlapping buffers of sizes 6 and 4: placing
        // the size-6 buffer at 0 forces the other to [6, 6].
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 4, 6))
            .buffer(Buffer::new(0, 4, 4))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 0).unwrap();
        let d = s.domain(id(1));
        assert_eq!((d.lo(), d.hi()), (6, 6));
    }

    #[test]
    fn propagation_chain_across_three_buffers() {
        // Sizes 4,4,4 in capacity 12, all overlapping: fixing the first at
        // 0 and the second at 4 forces the third to 8.
        let p = Problem::builder(12)
            .buffers((0..3).map(|_| Buffer::new(0, 2, 4)))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 0).unwrap();
        s.assign(id(1), 4).unwrap();
        let d = s.domain(id(2));
        assert_eq!((d.lo(), d.hi()), (8, 8));
        s.assign(id(2), 8).unwrap();
        let solution = s.solution().unwrap();
        assert!(solution.validate(&p).is_ok());
        // Regression guard for the propagation hot loop: this sequence
        // performs exactly 12 pair propagations. A change to the
        // fixpoint loop (work scheduling, duplicate enqueueing, missed
        // dedup) shows up here as a different deterministic count.
        assert_eq!(s.propagations(), 12);
    }

    #[test]
    fn pop_level_restores_domains_and_orders() {
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 4, 6))
            .buffer(Buffer::new(0, 4, 4))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        let before = (s.domain(id(1)).lo(), s.domain(id(1)).hi());
        s.assign(id(0), 0).unwrap();
        assert_ne!((s.domain(id(1)).lo(), s.domain(id(1)).hi()), before);
        s.pop_level();
        assert_eq!((s.domain(id(1)).lo(), s.domain(id(1)).hi()), before);
        assert_eq!(s.level(), 0);
        assert_eq!(s.fixed_count(), 0);
        assert_eq!(s.order(PairId::new(0)), OrderState::Undecided);
    }

    #[test]
    fn pop_to_level_jumps_multiple_levels() {
        let mut s = CpSolver::new(&examples::tiny()).unwrap();
        s.assign(id(0), 0).unwrap();
        s.assign(id(1), 8).unwrap();
        s.assign(id(2), 0).unwrap();
        assert_eq!(s.level(), 3);
        s.pop_to_level(1);
        assert_eq!(s.level(), 1);
        assert!(s.is_fixed(id(0)));
        assert!(!s.is_fixed(id(1)));
        assert!(!s.is_fixed(id(2)));
    }

    #[test]
    fn min_feasible_pos_sees_holes() {
        // A fixed buffer in the middle: bounds propagation cannot exclude
        // the occupied band, but the sweep finds the hole below it.
        let p = Problem::builder(20)
            .buffer(Buffer::new(0, 4, 4)) // will sit at [8, 12)
            .buffer(Buffer::new(0, 4, 6))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 8).unwrap();
        // Size-6 buffer fits below the hole at [0, 6)? 6 <= 8, yes.
        assert_eq!(s.min_feasible_pos(id(1)), Some(0));
        // Starting from 3 it would collide with [8, 12) and must jump over.
        assert_eq!(s.min_feasible_pos_at_least(id(1), 3), Some(12));
    }

    #[test]
    fn min_feasible_pos_respects_alignment() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 4, 10))
            .buffer(Buffer::new(0, 4, 8).with_align(32))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 0).unwrap();
        // Next aligned address after [0, 10) is 32.
        assert_eq!(s.min_feasible_pos(id(1)), Some(32));
    }

    #[test]
    fn check_all_placeable_detects_stuck_buffer() {
        // Capacity 10; fix 4-sized blocks at 0 and 6, leaving a 2-gap that
        // cannot host the remaining size-3 buffer.
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 4, 4))
            .buffer(Buffer::new(0, 4, 4))
            .buffer(Buffer::new(0, 4, 2))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 0).unwrap();
        s.assign(id(1), 6).unwrap();
        // The size-2 buffer fits exactly in the gap.
        assert!(s.check_all_placeable().is_ok());
        assert_eq!(s.min_feasible_pos(id(2)), Some(4));

        // Shifting the first block to address 1 wastes one unit and makes
        // a perfect 4+4+2 packing impossible; propagation alone proves
        // this immediately, without placing anything else.
        s.pop_to_level(0);
        let err = s.assign(id(0), 1).unwrap_err();
        assert!(
            err.culprits.contains(&id(0)),
            "culprits: {:?}",
            err.culprits
        );
        assert_eq!(s.level(), 0);
    }

    #[test]
    fn propagation_fixpoint_makes_lower_bound_feasible() {
        // At the propagation fixpoint, every unfixed buffer's domain lower
        // bound is an address actually free of fixed neighbors, so the
        // solver-guided placement query coincides with the domain bound.
        let p = Problem::builder(96)
            .buffer(Buffer::new(0, 4, 20))
            .buffer(Buffer::new(0, 4, 25))
            .buffer(Buffer::new(0, 4, 8).with_align(32))
            .buffer(Buffer::new(2, 6, 5))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 3).unwrap();
        s.assign(id(1), 33).unwrap();
        for unfixed in [id(2), id(3)] {
            let lo = s.domain(unfixed).lo();
            assert_eq!(s.min_feasible_pos(unfixed), Some(lo), "buffer {unfixed}");
        }
        assert!(s.check_all_placeable().is_ok());
    }

    #[test]
    fn solution_only_when_complete() {
        let mut s = CpSolver::new(&examples::tiny()).unwrap();
        assert!(s.solution().is_none());
        s.assign(id(0), 0).unwrap();
        s.assign(id(1), 8).unwrap();
        assert!(s.solution().is_none());
        s.assign(id(2), 0).unwrap();
        let solution = s.solution().unwrap();
        assert!(solution.validate(&examples::tiny()).is_ok());
    }

    #[test]
    fn out_of_domain_assignment_rejected() {
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 1, 6))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        // Highest feasible start is 4.
        assert!(s.assign(id(0), 5).is_err());
        assert_eq!(s.level(), 0);
        s.assign(id(0), 4).unwrap();
    }

    #[test]
    fn misaligned_assignment_rejected() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 1, 8).with_align(32))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        assert!(s.assign(id(0), 16).is_err());
        s.assign(id(0), 32).unwrap();
    }

    #[test]
    fn figure1_manual_solution_accepted_step_by_step() {
        let p = examples::figure1();
        let addrs = [0u64, 2, 1, 0, 2, 3, 0, 2, 2, 0];
        let mut s = CpSolver::new(&p).unwrap();
        for (i, &a) in addrs.iter().enumerate() {
            s.assign(id(i), a)
                .unwrap_or_else(|e| panic!("step {i}: {e:?}"));
        }
        let solution = s.solution().unwrap();
        assert!(solution.validate(&p).is_ok());
    }

    #[test]
    fn invariant_report_matches_build_mode() {
        let mut s = CpSolver::new(&examples::tiny()).unwrap();
        s.assign(id(0), 0).unwrap();
        let report = s.invariant_report();
        assert_eq!(report.violations, 0);
        if cfg!(feature = "debug-invariants") {
            assert!(report.checks > 0, "audit hooks ran");
        } else {
            assert_eq!(report.checks, 0);
        }
    }

    #[test]
    fn conflict_culprits_in_assignment_order() {
        let p = Problem::builder(14)
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(0, 2, 2))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        // Assign in non-id order to check culprits follow assignment order.
        s.assign(id(2), 0).unwrap();
        s.assign(id(0), 4).unwrap();
        s.assign(id(1), 8).unwrap();
        // Only [12, 14) is left for buffer 3; address 0 conflicts.
        let err = s.assign(id(3), 0).unwrap_err();
        assert_eq!(err.culprits, vec![id(2), id(0), id(1)]);
    }

    #[test]
    fn rank_survives_backtrack_and_reassignment() {
        // Unfix and refix in a different order: culprit ordering must
        // follow the *current* assignment order, not the original one.
        let p = Problem::builder(14)
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(0, 2, 2))
            .build()
            .unwrap();
        let mut s = CpSolver::new(&p).unwrap();
        s.assign(id(0), 0).unwrap();
        s.assign(id(1), 4).unwrap();
        s.pop_to_level(0);
        s.assign(id(1), 0).unwrap();
        s.assign(id(2), 4).unwrap();
        s.assign(id(0), 8).unwrap();
        let err = s.assign(id(3), 0).unwrap_err();
        assert_eq!(err.culprits, vec![id(1), id(2), id(0)]);
    }

    #[test]
    fn trail_entry_round_trips() {
        let e = TrailEntry::bounds(7, 10, 20, false);
        assert_eq!(e.key >> 2, 7);
        assert_eq!(e.key & 3, TAG_BOUNDS);
        let e = TrailEntry::bounds(7, 10, 20, true);
        assert_eq!(e.key & 3, TAG_BOUNDS_EMPTY);
        let e = TrailEntry::order(PairId::new(5));
        assert_eq!(e.key >> 2, 5);
        assert_eq!(e.key & 3, TAG_ORDER);
    }
}
