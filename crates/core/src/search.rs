//! The TelaMalloc search engine (paper §4, §5).
//!
//! The engine walks a search tree whose nodes are *decision points*: at
//! each point a candidate block is chosen (by the §5.1 selection
//! heuristics, restricted to the current contention phase per §5.3) and
//! placed at the CP solver's lowest feasible position (§5.2). The solver
//! propagates after every placement; an immediate conflict is a *minor
//! backtrack* (try the next candidate), an exhausted candidate queue is a
//! *major backtrack* (jump up the tree, guided by the solver's conflict
//! explanation and the configured [`BacktrackPolicy`], §5.4/§6).

use std::collections::VecDeque;
use std::time::Instant;

use tela_audit::{Certificate, Verdict};
use tela_cp::{Conflict, ConflictSeed, CpSolver};
use tela_heuristics::SelectionStrategy;
use tela_model::{Address, Budget, BufferId, PhasePartition, Problem, SolveOutcome, SolveStats};

use crate::backtrack::{
    BacktrackChoice, BacktrackContext, BacktrackPolicy, BacktrackTarget, PlacedDecision,
    StepContext, TargetFeatures,
};
use crate::candidates::CandidateIndex;
use crate::config::TelaConfig;

#[cfg(test)]
mod queue_oracle;

/// Result of one TelaMalloc run.
#[derive(Debug, Clone)]
pub struct TelaResult {
    /// Solved, gave up (search exhausted — not a proof of
    /// infeasibility), infeasible (proven before search), or out of
    /// budget.
    pub outcome: SolveOutcome,
    /// Steps and backtrack counts (steps = placement attempts, matching
    /// the paper's Figure 14 metric).
    pub stats: SolveStats,
    /// The successful decision path (placement order), empty unless
    /// solved.
    pub decisions: Vec<PlacedDecision>,
    /// The committed placement prefix at the moment the search stopped
    /// (empty when solved — `decisions` covers that case). The
    /// resilience ladder turns this into a validated
    /// [`tela_model::PartialSolution`] when degrading to
    /// [`SolveOutcome::BestEffort`].
    pub partial: Vec<PlacedDecision>,
    /// The buffers involved in the first placement conflict the search
    /// hit (subject plus culprits); empty if no conflict occurred.
    pub first_conflict: Vec<BufferId>,
    /// The independently checkable witness (see
    /// [`tela_audit::Certificate::verify`]) carried by every
    /// `Infeasible` outcome: the preflight's, or the contention bound
    /// when the CP model rejects the instance.
    pub certificate: Option<Certificate>,
}

/// Solves `problem` with one search variant: the configuration's
/// selection, placement and [`backtrack`](TelaConfig::backtrack)
/// policy, freshly built for this run.
///
/// # Example
///
/// ```
/// use telamalloc::{solve, TelaConfig};
/// use tela_model::{examples, Budget};
///
/// let problem = examples::figure1();
/// let result = solve(&problem, &Budget::steps(100_000), &TelaConfig::default());
/// let solution = result.outcome.solution().expect("figure1 is solvable");
/// assert!(solution.validate(&problem).is_ok());
/// ```
pub fn solve(problem: &Problem, budget: &Budget, config: &TelaConfig) -> TelaResult {
    let mut policy = config.backtrack.policy();
    let tracer = config.tracer.clone();
    let span = if tracer.enabled() {
        tracer.begin(
            "search",
            "solve",
            vec![
                ("buffers".into(), problem.len().into()),
                ("capacity".into(), problem.capacity().into()),
            ],
        )
    } else {
        tela_trace::SpanId::NULL
    };
    let result = solve_inner(problem, budget, config, policy.as_mut());
    if tracer.enabled() {
        tracer.count("search.solves", 1);
        tracer.count("search.steps", result.stats.steps);
        tracer.count("search.backtracks.minor", result.stats.minor_backtracks);
        tracer.count("search.backtracks.major", result.stats.major_backtracks);
        // Work counters ride on the end event too (not just the
        // registry) so rollups can attribute them to this span.
        tracer.end(
            span,
            "search",
            "solve",
            vec![
                ("outcome".into(), result.outcome.label().into()),
                ("steps".into(), result.stats.steps.into()),
                (
                    "backtracks_minor".into(),
                    result.stats.minor_backtracks.into(),
                ),
                (
                    "backtracks_major".into(),
                    result.stats.major_backtracks.into(),
                ),
            ],
        );
    }
    result
}

fn solve_inner(
    problem: &Problem,
    budget: &Budget,
    config: &TelaConfig,
    policy: &mut dyn BacktrackPolicy,
) -> TelaResult {
    // tela-lint: allow(deterministic-clock, reason = "stats-only wall stamping of elapsed; never branches the search")
    let start = Instant::now();
    if config.preflight_audit {
        if let Some(settled) = settle_by_preflight(problem, &config.tracer, start) {
            return settled;
        }
        config.tracer.count("audit.preflight.needs_search", 1);
    }
    if config.split_independent {
        let groups = tela_model::split_independent(problem);
        if groups.len() > 1 {
            return solve_split(problem, budget, config, policy, groups, start);
        }
    }
    let mut result = Engine::run(problem, budget, config, policy);
    result.stats.elapsed = start.elapsed();
    result
}

/// Runs the `tela-audit` static preflight. Returns the final result
/// when the audit settles the instance on its own — a proven
/// `Infeasible` carrying its certificate, or a search-free solution —
/// and `None` when the instance needs search. Either settlement is
/// recorded into the trace, so a solve that never searches still yields
/// an explanatory timeline.
pub(crate) fn settle_by_preflight(
    problem: &Problem,
    tracer: &tela_trace::Tracer,
    start: Instant,
) -> Option<TelaResult> {
    let (outcome, decisions, certificate) = match tela_audit::preflight(problem) {
        Verdict::NeedsSearch(_) => return None,
        Verdict::ProvablyInfeasible(cert) => {
            if tracer.enabled() {
                tracer.count("audit.preflight.infeasible", 1);
                tracer.count(&format!("audit.certificate.{}", cert.kind_name()), 1);
                tracer.instant(
                    "audit",
                    "certificate",
                    vec![
                        ("kind".into(), cert.kind_name().into()),
                        ("detail".into(), cert.to_string().into()),
                    ],
                );
            }
            (SolveOutcome::Infeasible, Vec::new(), Some(cert))
        }
        Verdict::TriviallyFeasible(solution) => {
            if tracer.enabled() {
                tracer.count("audit.preflight.trivial", 1);
                tracer.instant(
                    "audit",
                    "trivially_feasible",
                    vec![("buffers".into(), problem.len().into())],
                );
            }
            let decisions = problem
                .iter()
                .map(|(id, _)| PlacedDecision {
                    block: id,
                    address: solution.address(id),
                })
                .collect();
            (SolveOutcome::Solved(solution), decisions, None)
        }
    };
    Some(TelaResult {
        outcome,
        stats: SolveStats {
            elapsed: start.elapsed(),
            ..SolveStats::default()
        },
        decisions,
        partial: Vec::new(),
        first_conflict: Vec::new(),
        certificate,
    })
}

/// Solves each time-disjoint group independently and merges (§5.3).
fn solve_split(
    problem: &Problem,
    budget: &Budget,
    config: &TelaConfig,
    policy: &mut dyn BacktrackPolicy,
    groups: Vec<Vec<BufferId>>,
    start: Instant,
) -> TelaResult {
    let mut stats = SolveStats::default();
    let mut addresses = vec![0u64; problem.len()];
    let mut decisions = Vec::new();
    for group in groups {
        let buffers = group.iter().map(|&id| *problem.buffer(id)).collect();
        // Invariant: a subset of a valid problem's buffers under the same
        // capacity passes every `Problem::new` check (each buffer already
        // validated, per-buffer size/align bounds unchanged, cumulative
        // extent only shrinks), so this cannot fail for a well-formed
        // input problem.
        let sub = Problem::new(buffers, problem.capacity())
            .expect("sub-problem inherits a valid capacity");
        let sub_result = Engine::run(&sub, budget, config, policy);
        stats.absorb(&sub_result.stats);
        match sub_result.outcome {
            SolveOutcome::Solved(sub_solution) => {
                for (sub_idx, &orig) in group.iter().enumerate() {
                    let addr = sub_solution.address(BufferId::new(sub_idx));
                    addresses[orig.index()] = addr;
                }
                decisions.extend(sub_result.decisions.iter().map(|d| PlacedDecision {
                    block: group[d.block.index()],
                    address: d.address,
                }));
            }
            other => {
                stats.elapsed = start.elapsed();
                // The partial prefix is everything committed so far:
                // fully solved earlier groups plus the failing group's
                // own prefix, remapped to original buffer ids.
                let mut partial = decisions;
                partial.extend(sub_result.partial.iter().map(|d| PlacedDecision {
                    block: group[d.block.index()],
                    address: d.address,
                }));
                let first_conflict = sub_result
                    .first_conflict
                    .iter()
                    .map(|b| group[b.index()])
                    .collect();
                return TelaResult {
                    outcome: other,
                    stats,
                    decisions: Vec::new(),
                    partial,
                    first_conflict,
                    // Contention certificates name a time step, not
                    // buffers, so they hold for the whole problem too.
                    certificate: sub_result.certificate,
                };
            }
        }
    }
    let solution = tela_model::Solution::new(addresses);
    debug_assert!(solution.validate(problem).is_ok());
    stats.elapsed = start.elapsed();
    TelaResult {
        outcome: SolveOutcome::Solved(solution),
        stats,
        decisions,
        partial: Vec::new(),
        first_conflict: Vec::new(),
        certificate: None,
    }
}

/// One decision point of the search tree.
#[derive(Debug)]
struct Frame {
    /// Candidates not yet tried (front is next).
    queue: VecDeque<BufferId>,
    queue_built: bool,
    /// Candidates already tried (and failed, unless this frame is
    /// committed).
    tried: Vec<BufferId>,
    /// The successful placement made at this point, if committed.
    placed: Option<(BufferId, Address)>,
    /// Contention phase of the block placed by the *previous* decision
    /// (the phase context for candidate generation).
    context_phase: Option<usize>,
    /// How often the search backtracked to this point.
    backtracks_to: u64,
    /// Global backtrack count when this point was (last) opened; the
    /// subtree backtrack counter is the difference to the current count.
    opened_at_backtracks: u64,
    /// Most recent conflict seen at this point, with the candidate
    /// placement that triggered it. The seed is `None` when the
    /// candidate had no feasible position at all (empty domain); the
    /// full explanation is materialized only if a major backtrack
    /// actually reads it.
    last_conflict: Option<(Option<ConflictSeed>, BufferId, Address)>,
}

impl Frame {
    fn new(context_phase: Option<usize>, opened_at_backtracks: u64) -> Self {
        Frame {
            queue: VecDeque::new(),
            queue_built: false,
            tried: Vec::new(),
            placed: None,
            context_phase,
            backtracks_to: 0,
            opened_at_backtracks,
            last_conflict: None,
        }
    }

    /// Clears a recycled frame for a fresh decision point, keeping the
    /// queue/tried allocations for reuse.
    fn reset(&mut self, context_phase: Option<usize>, opened_at_backtracks: u64) {
        self.queue.clear();
        self.queue_built = false;
        self.tried.clear();
        self.placed = None;
        self.context_phase = context_phase;
        self.backtracks_to = 0;
        self.opened_at_backtracks = opened_at_backtracks;
        self.last_conflict = None;
    }
}

/// Reusable engine scratch. Every buffer here is cleared and refilled in
/// place, so steady-state queue builds, backtracks, and frame turnover
/// run without heap allocation (the conflict explanation itself is the
/// one owned value still produced per minor backtrack).
#[derive(Default)]
struct EngineScratch {
    /// A phase's unplaced blocks, ranked by position when the primary
    /// strategy is lowest-position.
    pool: Vec<BufferId>,
    /// Placement level per buffer for backtrack-target construction.
    level_of: Vec<usize>,
    /// Committed-path buffer for backtrack contexts.
    path: Vec<PlacedDecision>,
    /// Retired frames kept so their queue/tried capacity is reused.
    frames: Vec<Frame>,
}

struct Engine<'a> {
    problem: &'a Problem,
    config: &'a TelaConfig,
    solver: CpSolver,
    buffer_contention: Vec<u64>,
    culprit_counts: Vec<u64>,
    /// The unplaced buffers per contention phase, in every selection
    /// strategy's order, kept up to date as placements commit and
    /// backtracks undo them.
    index: CandidateIndex,
    frames: Vec<Frame>,
    current: Frame,
    global_backtracks: u64,
    stats: SolveStats,
    /// Subject plus culprits of the first conflict ever seen, kept for
    /// best-effort diagnostics.
    first_conflict: Option<Vec<BufferId>>,
    scratch: EngineScratch,
    /// The former full-scan queue builder, checking every queue.
    #[cfg(test)]
    oracle: Option<queue_oracle::Oracle>,
}

impl<'a> Engine<'a> {
    fn run(
        problem: &'a Problem,
        budget: &Budget,
        config: &'a TelaConfig,
        policy: &mut dyn BacktrackPolicy,
    ) -> TelaResult {
        match Engine::new(problem, config) {
            Some(mut engine) => engine.solve(budget, policy),
            // The model rejects exactly the instances whose contention
            // exceeds capacity, which the contention bound certifies.
            None => TelaResult {
                outcome: SolveOutcome::Infeasible,
                stats: SolveStats::default(),
                decisions: Vec::new(),
                partial: Vec::new(),
                first_conflict: Vec::new(),
                certificate: tela_audit::passes::contention_bound(problem),
            },
        }
    }

    /// Sets up the CP model and the candidate index; `None` when the
    /// model rejects the instance.
    fn new(problem: &'a Problem, config: &'a TelaConfig) -> Option<Self> {
        let mut solver = CpSolver::new(problem).ok()?;
        solver.set_tracer(config.tracer.clone());
        let phases = config
            .contention_grouping
            .then(|| PhasePartition::compute(problem));
        let contention = problem.contention();
        let buffer_contention = problem
            .buffers()
            .iter()
            .map(|b| contention.max_over(b.start(), b.end()))
            .collect();
        let index = CandidateIndex::new(problem, phases.as_ref(), &config.selection);
        Some(Engine {
            problem,
            config,
            solver,
            buffer_contention,
            culprit_counts: vec![0; problem.len()],
            index,
            frames: Vec::new(),
            current: Frame::new(None, 0),
            global_backtracks: 0,
            stats: SolveStats::default(),
            first_conflict: None,
            scratch: EngineScratch::default(),
            #[cfg(test)]
            oracle: None,
        })
    }

    fn solve(&mut self, budget: &Budget, policy: &mut dyn BacktrackPolicy) -> TelaResult {
        let mut result = self.search(budget, policy);
        result.stats.propagations = self.solver.propagations();
        // Solver counters are sampled once per run, never incremented
        // per propagation: the hot loop stays metric-free.
        if self.config.tracer.enabled() {
            self.config
                .tracer
                .count("cp.propagations", self.solver.propagations());
            self.config
                .tracer
                .count("cp.min_pos.queries", self.solver.min_pos_queries());
        }
        result
    }

    fn search(&mut self, budget: &Budget, policy: &mut dyn BacktrackPolicy) -> TelaResult {
        loop {
            if budget.exhausted(self.stats.steps) {
                // Distinguish losing a portfolio race from running dry on
                // steps or time, so reports can tell the two apart.
                self.stats.cancelled = budget.cancelled();
                return self.finish(SolveOutcome::BudgetExceeded);
            }
            if let Some(solution) = self.solver.solution() {
                let path = self.path();
                policy.on_solved(&path);
                return TelaResult {
                    outcome: SolveOutcome::Solved(solution),
                    stats: self.stats,
                    decisions: path,
                    partial: Vec::new(),
                    first_conflict: Vec::new(),
                    certificate: None,
                };
            }
            if !self.current.queue_built {
                let step_ctx = StepContext {
                    level: self.frames.len(),
                    unplaced: self.problem.len() - self.solver.fixed_count(),
                    total_buffers: self.problem.len(),
                    subtree_backtracks: self.global_backtracks - self.current.opened_at_backtracks,
                    total_backtracks: self.global_backtracks,
                };
                let expand = policy.expand_candidates(&step_ctx);
                if expand {
                    self.fill_full_queue()
                } else {
                    self.build_queue()
                }
                self.current.queue_built = true;
                #[cfg(test)]
                self.check_queue(queue_oracle::Kind::new(expand));
            }
            match self.current.queue.pop_front() {
                Some(block) => self.try_candidate(block),
                None => {
                    if self.frames.is_empty() {
                        return self.finish(SolveOutcome::GaveUp);
                    }
                    self.major_backtrack(policy);
                }
            }
        }
    }

    fn finish(&self, outcome: SolveOutcome) -> TelaResult {
        TelaResult {
            outcome,
            stats: self.stats,
            decisions: Vec::new(),
            partial: self.path(),
            first_conflict: self.first_conflict.clone().unwrap_or_default(),
            certificate: None,
        }
    }

    fn path(&self) -> Vec<PlacedDecision> {
        let mut out = Vec::with_capacity(self.frames.len());
        self.fill_path(&mut out);
        out
    }

    fn fill_path(&self, out: &mut Vec<PlacedDecision>) {
        out.clear();
        out.extend(self.frames.iter().map(|f| {
            // Invariant: a frame is only pushed onto `frames` after
            // `try_candidate` sets `placed` (the swap in the Ok arm),
            // and backtracking pops before clearing it.
            let (block, address) = f.placed.expect("committed frame has a placement");
            PlacedDecision { block, address }
        }));
    }

    fn try_candidate(&mut self, block: BufferId) {
        self.current.tried.push(block);
        self.stats.steps += 1;
        let position = self.position_for(block);
        let result = match position {
            Some(pos) => self
                .solver
                .assign_deferred(block, pos)
                .map(|()| pos)
                .map_err(Some),
            None => Err(None),
        };
        match result {
            Ok(pos) => {
                self.current.placed = Some((block, pos));
                self.index.remove(block);
                let phase = self.index.phase_of(block);
                let next = self.recycled_frame(phase, self.global_backtracks);
                self.frames.push(std::mem::replace(&mut self.current, next));
            }
            Err(seed) => {
                self.stats.minor_backtracks += 1;
                self.global_backtracks += 1;
                if self.first_conflict.is_none() {
                    let mut clique = vec![block];
                    if let Some(seed) = &seed {
                        clique.extend(self.solver.explain(seed).culprits);
                    }
                    self.first_conflict = Some(clique);
                }
                self.current.last_conflict = Some((seed, block, position.unwrap_or(0)));
            }
        }
    }

    /// Placement position for a candidate: the solver's lowest feasible
    /// address (§5.2) or, in the ablation mode, the top of the skyline of
    /// placed overlapping blocks (Figure 8a).
    fn position_for(&self, block: BufferId) -> Option<Address> {
        if self.config.solver_guided_placement {
            let d = self.solver.domain(block);
            if d.is_empty() {
                None
            } else {
                // At the propagation fixpoint the domain's lower bound is
                // feasible w.r.t. all placed blocks.
                Some(d.lo())
            }
        } else {
            let b = self.problem.buffer(block);
            let mut top = 0;
            for neighbor in self.solver.model().neighbors(block) {
                if let Some(addr) = self.solver.assignment(neighbor) {
                    top = top.max(addr + self.problem.buffer(neighbor).size());
                }
            }
            b.align_up(top)
        }
    }

    /// A frame for the next decision point, reusing a retired frame's
    /// buffers when one is available.
    fn recycled_frame(&mut self, context_phase: Option<usize>, opened_at_backtracks: u64) -> Frame {
        let mut f = self
            .scratch
            .frames
            .pop()
            .unwrap_or_else(|| Frame::new(None, 0));
        f.reset(context_phase, opened_at_backtracks);
        f
    }

    /// The uncapped fallback queue: every unplaced block, ordered by the
    /// primary strategy (used by the §8.3 expansion hook). Fills
    /// `self.current.queue` in place.
    fn fill_full_queue(&mut self) {
        let mut out = std::mem::take(&mut self.current.queue);
        out.clear();
        self.index.for_each_live(|id| out.push_back(id));
        self.order_globally(out.make_contiguous());
        self.current.queue = out;
    }

    /// Puts blocks gathered phase by phase from the index into the
    /// primary strategy's order over all phases.
    fn order_globally(&self, pool: &mut [BufferId]) {
        if self.config.selection.first() == Some(&SelectionStrategy::LowestPosition) {
            pool.sort_unstable_by_key(|&id| self.position_key(id));
        } else if let Some(rank) = self.index.primary_rank() {
            pool.sort_unstable_by_key(|id| rank[id.index()]);
        } else if self.index.grouped() {
            // No selection strategy at all: id order.
            pool.sort_unstable();
        }
        // Otherwise there is one phase, already in the primary order.
    }

    /// Builds the candidate queue for the current decision point:
    /// strategy picks from the context phase first, then from the other
    /// phases in order (§5.1, §5.3), capped per §5.4. Reads the
    /// candidate index, so the work is bounded by the cap and the phases
    /// visited, not by the number of buffers. Fills `self.current.queue`
    /// in place; the only other storage is the engine scratch, so
    /// steady-state queue builds never allocate.
    // tela-lint: hot-path
    fn build_queue(&mut self) {
        let cap = self.config.max_candidates_per_level.max(1);
        let mut out = std::mem::take(&mut self.current.queue);
        out.clear();
        let mut pool = std::mem::take(&mut self.scratch.pool);
        let context = if self.index.grouped() {
            self.current
                .context_phase
                .or_else(|| self.frames.last().and_then(|f| f.context_phase))
        } else {
            None
        };
        if let Some(ctx) = context.filter(|&p| self.index.phase_is_live(p)) {
            self.queue_phase(ctx, cap, &mut out, &mut pool);
        }
        for phase in self.index.live_phases() {
            if out.len() >= cap {
                break;
            }
            if Some(phase) != context {
                self.queue_phase(phase, cap, &mut out, &mut pool);
            }
        }
        debug_assert_eq!(
            self.index.remaining(),
            self.problem.len() - self.solver.fixed_count(),
            "the candidate index disagrees with the solver"
        );
        debug_assert!(out.iter().all(|&id| !self.solver.is_fixed(id)));
        self.current.queue = out;
        self.scratch.pool = pool;
    }

    /// Queues one phase's candidates: each strategy's pick, then the
    /// phase's remaining blocks in the primary order, up to `cap`.
    // tela-lint: hot-path
    fn queue_phase(
        &self,
        phase: usize,
        cap: usize,
        out: &mut VecDeque<BufferId>,
        pool: &mut Vec<BufferId>,
    ) {
        let push = |out: &mut VecDeque<BufferId>, id: BufferId| {
            if out.len() < cap && !out.contains(&id) {
                out.push_back(id);
            }
        };
        for (si, strategy) in self.config.selection.iter().enumerate() {
            let pick = if *strategy == SelectionStrategy::LowestPosition {
                self.index
                    .live_for(si, phase)
                    .min_by_key(|&id| self.position_key(id))
            } else {
                self.index.live_for(si, phase).next()
            };
            if let Some(id) = pick {
                push(out, id);
            }
        }
        if self.config.selection.first() == Some(&SelectionStrategy::LowestPosition) {
            // No static order: rank the phase by position. At most `cap`
            // pool entries are read (each is queued or already queued),
            // so only the `cap` lowest need sorting.
            pool.clear();
            pool.extend(self.index.live_primary(phase));
            if cap < pool.len() {
                pool.select_nth_unstable_by_key(cap, |&id| self.position_key(id));
                pool.truncate(cap);
            }
            pool.sort_unstable_by_key(|&id| self.position_key(id));
            for &id in pool.iter() {
                push(out, id);
            }
        } else {
            for id in self.index.live_primary(phase) {
                if out.len() >= cap {
                    break;
                }
                push(out, id);
            }
        }
    }

    /// The lowest-position order: domain lower bound, then id. The id
    /// makes the key unique per buffer.
    // tela-lint: hot-path
    fn position_key(&self, id: BufferId) -> (Address, BufferId) {
        (self.solver.domain(id).lo(), id)
    }

    fn major_backtrack(&mut self, policy: &mut dyn BacktrackPolicy) {
        self.stats.major_backtracks += 1;
        self.global_backtracks += 1;
        #[cfg(feature = "trace")]
        if self.config.tracer.enabled() {
            self.config.tracer.instant(
                "search",
                "major_backtrack",
                vec![
                    ("level".into(), self.frames.len().into()),
                    ("total".into(), self.global_backtracks.into()),
                ],
            );
        }

        let conflict = self.current.last_conflict.take().map(|(seed, block, pos)| {
            // Materialize the one explanation this backtrack reads;
            // the intervening minor backtracks never paid for theirs.
            let mut c = match &seed {
                Some(seed) => self.solver.explain(seed),
                None => Conflict {
                    subject: Some(block),
                    culprits: Vec::new(),
                },
            };
            if self.config.minimize_conflicts && c.culprits.len() > 1 {
                let placements: Vec<(BufferId, Address)> =
                    self.frames.iter().filter_map(|f| f.placed).collect();
                c.culprits = tela_cp::explain::minimize_conflict_traced(
                    self.problem,
                    &placements,
                    (block, pos),
                    &c.culprits,
                    &self.config.tracer,
                );
            }
            c
        });
        if let Some(c) = &conflict {
            for &culprit in &c.culprits {
                self.culprit_counts[culprit.index()] += 1;
            }
        }
        let targets = self.build_targets(conflict.as_ref());
        let mut path = std::mem::take(&mut self.scratch.path);
        self.fill_path(&mut path);
        let ctx = BacktrackContext {
            problem: self.problem,
            targets: &targets,
            path: &path,
            current_level: self.frames.len(),
            total_backtracks: self.global_backtracks,
        };
        let choice = policy.choose(&ctx);
        self.scratch.path = path;

        match choice {
            BacktrackChoice::StayAndTryAll => {
                // §6.5 fallback: retry every unplaced block not yet tried
                // here, in id order; if nothing is left, fall back to one
                // step up.
                let tried = &self.current.tried;
                let mut fresh = std::mem::take(&mut self.current.queue);
                fresh.clear();
                self.index.for_each_live(|id| {
                    if !tried.contains(&id) {
                        fresh.push_back(id);
                    }
                });
                fresh.make_contiguous().sort_unstable();
                if fresh.is_empty() {
                    self.current.queue = fresh;
                    let level = self.frames.len().saturating_sub(1);
                    self.jump_to(level);
                } else {
                    self.current.queue = fresh;
                    #[cfg(test)]
                    self.check_queue(queue_oracle::Kind::StayAndTryAll);
                }
            }
            BacktrackChoice::Target(level) => {
                let level = level.min(self.frames.len().saturating_sub(1));
                self.jump_to(level);
            }
        }
    }

    /// Backtracks so that the decision at `level` is reconsidered,
    /// applying the §5.4 stuck-subtree escape and candidate prepending.
    fn jump_to(&mut self, mut level: usize) {
        // Stuck-subtree escape: if some shallower open point has
        // accumulated more than the limit of backtracks in its subtree,
        // continue from the shallowest such point instead.
        let limit = self.config.stuck_subtree_limit;
        if limit > 0 {
            if let Some(stuck) = self
                .frames
                .iter()
                .position(|f| self.global_backtracks - f.opened_at_backtracks > limit)
            {
                level = level.min(stuck);
            }
        }

        let mut failing = std::mem::replace(&mut self.current, Frame::new(None, 0));
        // Detach the abandoned suffix without allocating a holding
        // vector: `frames[level]` becomes the new decision point, the
        // deeper frames retire into the scratch pool for reuse.
        let mut retired = std::mem::take(&mut self.scratch.frames);
        let mut drained = self.frames.drain(level..);
        let mut target = drained
            .next()
            .expect("jump target is an existing decision level");
        for mut f in drained {
            if let Some((block, _)) = f.placed {
                self.index.insert(block);
            }
            f.last_conflict = None;
            retired.push(f);
        }
        self.scratch.frames = retired;
        if let Some((block, _)) = target.placed {
            self.index.insert(block);
        }
        self.solver.pop_to_level(level);
        target.placed = None;
        target.backtracks_to += 1;
        // Reset the subtree counter: a fresh visit starts a fresh subtree.
        target.opened_at_backtracks = self.global_backtracks;
        target.last_conflict = None;

        if self.config.candidate_prepending {
            // Prepend the failing point's candidate set (§5.4) — tried
            // first, then its remaining queue, reversed so the earliest
            // candidate ends up at the front — dropping anything already
            // queued and respecting the cap.
            let cap = self.config.max_candidates_per_level.max(1);
            for &id in failing.tried.iter().chain(failing.queue.iter()).rev() {
                if !target.queue.contains(&id) && !self.solver.is_fixed(id) {
                    target.queue.push_front(id);
                }
            }
            while target.queue.len() > cap {
                target.queue.pop_back();
            }
        }
        self.current = target;
        failing.last_conflict = None;
        self.scratch.frames.push(failing);
    }

    /// Builds the candidate backtrack targets (§6.2): conflict culprits
    /// minus the most recent one, padded with exponential-range fillers.
    fn build_targets(&mut self, conflict: Option<&Conflict>) -> Vec<BacktrackTarget> {
        let mut level_of = std::mem::take(&mut self.scratch.level_of);
        level_of.clear();
        level_of.resize(self.problem.len(), usize::MAX);
        for (lvl, f) in self.frames.iter().enumerate() {
            if let Some((block, _)) = f.placed {
                level_of[block.index()] = lvl;
            }
        }
        let mut levels: Vec<(usize, bool)> = Vec::new();
        if let Some(c) = conflict {
            let mut culprit_levels: Vec<usize> = c
                .culprits
                .iter()
                .map(|b| level_of[b.index()])
                .filter(|&l| l != usize::MAX)
                .collect();
            culprit_levels.sort_unstable();
            culprit_levels.dedup();
            // Ignore the most recent culprit (§6.2): backtracking there is
            // what a minor backtrack already covers.
            culprit_levels.pop();
            levels.extend(culprit_levels.into_iter().map(|l| (l, true)));
        }
        // Exponential ranges 0-4, 5-8, 9-16, 17-32, ... (§6.2): add the
        // top of each uncovered range as a filler target.
        let mut lo = 0usize;
        let mut hi = 4usize;
        while lo < self.frames.len() {
            let top = hi.min(self.frames.len() - 1);
            let covered = levels.iter().any(|&(l, _)| lo <= l && l <= top);
            if !covered && top >= lo {
                levels.push((top, false));
            }
            lo = hi + 1;
            hi *= 2;
        }
        levels.sort_unstable();
        levels.dedup_by_key(|&mut (l, _)| l);

        let horizon = self.problem.horizon().max(1) as f64;
        let capacity = self.problem.capacity().max(1) as f64;
        let from_phase = self
            .frames
            .last()
            .and_then(|f| f.placed)
            .and_then(|(b, _)| self.index.phase_of(b));
        self.scratch.level_of = level_of;
        levels
            .into_iter()
            .map(|(level, from_conflict)| {
                // Invariant: same as `path` — every frame in `frames` is
                // committed, so `placed` is always `Some`.
                let (block, _) = self.frames[level].placed.expect("committed frame");
                let b = self.problem.buffer(block);
                let same_region = match (from_phase, self.index.phase_of(block)) {
                    (Some(fp), Some(p)) => (p == fp) as u8 as f64,
                    _ => 0.0,
                };
                BacktrackTarget {
                    level,
                    block,
                    from_conflict,
                    features: TargetFeatures {
                        size: b.size() as f64 / capacity,
                        lifetime: f64::from(b.lifetime()) / horizon,
                        contention: self.buffer_contention[block.index()] as f64 / capacity,
                        decision_level: level as f64,
                        culprit_appearances: self.culprit_counts[block.index()] as f64,
                        backtracks_to_here: self.frames[level].backtracks_to as f64,
                        subtree_backtracks: (self.global_backtracks
                            - self.frames[level].opened_at_backtracks)
                            as f64,
                        same_region,
                        total_backtracks: self.global_backtracks as f64,
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::backtrack::ConflictGuidedPolicy;
    use crate::config::Backtrack;
    use tela_model::{examples, Buffer};

    fn solve_default(problem: &Problem) -> TelaResult {
        solve(problem, &Budget::steps(500_000), &TelaConfig::default())
    }

    #[test]
    fn solves_tiny() {
        let p = examples::tiny();
        let r = solve_default(&p);
        assert!(r.outcome.solution().unwrap().validate(&p).is_ok());
    }

    #[test]
    fn solves_figure1_at_tight_capacity() {
        let p = examples::figure1();
        let r = solve_default(&p);
        assert!(
            r.outcome.solution().unwrap().validate(&p).is_ok(),
            "stats: {:?}",
            r.stats
        );
    }

    #[test]
    fn solves_aligned_example() {
        let p = examples::aligned();
        let r = solve_default(&p);
        assert!(r.outcome.solution().unwrap().validate(&p).is_ok());
    }

    #[test]
    fn infeasible_detected_before_search() {
        let r = solve_default(&examples::infeasible());
        assert_eq!(r.outcome, SolveOutcome::Infeasible);
        assert_eq!(r.stats.steps, 0);
        let cert = r.certificate.expect("audit provides a witness");
        assert!(cert.verify(&examples::infeasible()));
    }

    #[test]
    fn infeasible_detected_without_preflight_too() {
        // With the audit disabled the CP model construction still rejects
        // contention-infeasible instances, and still with a certificate.
        let cfg = TelaConfig {
            preflight_audit: false,
            ..TelaConfig::default()
        };
        let p = examples::infeasible();
        let r = solve(&p, &Budget::steps(500_000), &cfg);
        assert_eq!(r.outcome, SolveOutcome::Infeasible);
        assert!(r.certificate.expect("contention witness").verify(&p));
        // Split path: the over-contended group's certificate holds for
        // the whole problem.
        let split = Problem::builder(4)
            .buffer(Buffer::new(0, 2, 3))
            .buffer(Buffer::new(0, 2, 3))
            .buffer(Buffer::new(5, 7, 4))
            .build()
            .unwrap();
        let r = solve(&split, &Budget::steps(500_000), &cfg);
        assert_eq!(r.outcome, SolveOutcome::Infeasible);
        assert!(r.certificate.expect("contention witness").verify(&split));
    }

    #[test]
    fn alignment_infeasible_needs_the_audit() {
        // Contention 11 ≤ 12, but alignment padding makes the pair
        // unpackable: only the audit's pigeonhole proves it; without the
        // preflight the search exhausts and merely gives up.
        let p = Problem::builder(12)
            .buffer(Buffer::new(0, 4, 5).with_align(8))
            .buffer(Buffer::new(0, 4, 6).with_align(8))
            .build()
            .unwrap();
        let audited = solve_default(&p);
        assert_eq!(audited.outcome, SolveOutcome::Infeasible);
        assert_eq!(audited.stats.steps, 0);
        assert!(audited.certificate.expect("witness").verify(&p));
        let unaudited = solve(
            &p,
            &Budget::steps(500_000),
            &TelaConfig {
                preflight_audit: false,
                ..TelaConfig::default()
            },
        );
        assert!(!unaudited.outcome.is_solved());
        assert!(unaudited.stats.steps > 0, "search had to try");
    }

    #[test]
    fn trivially_feasible_instances_skip_search() {
        // Pairwise time-disjoint: the audit solves it with zero steps and
        // still reports a full decision path.
        let p = Problem::builder(16)
            .buffers((0..6).map(|i| Buffer::new(i * 2, i * 2 + 2, 16)))
            .build()
            .unwrap();
        let r = solve_default(&p);
        let solution = r.outcome.solution().expect("trivially feasible");
        assert!(solution.validate(&p).is_ok());
        assert_eq!(r.stats.steps, 0);
        assert_eq!(r.decisions.len(), p.len());
        for d in &r.decisions {
            assert_eq!(solution.address(d.block), d.address);
        }
    }

    #[test]
    fn decisions_match_solution() {
        let p = examples::figure1();
        let r = solve_default(&p);
        let solution = r.outcome.solution().unwrap();
        assert_eq!(r.decisions.len(), p.len());
        for d in &r.decisions {
            assert_eq!(solution.address(d.block), d.address);
        }
    }

    #[test]
    fn budget_exceeded_reported() {
        let p = examples::figure1();
        let r = solve(&p, &Budget::steps(3), &TelaConfig::default());
        assert_eq!(r.outcome, SolveOutcome::BudgetExceeded);
        assert!(r.stats.steps <= 3);
    }

    #[test]
    fn empty_problem_is_solved_immediately() {
        let p = Problem::builder(10).build().unwrap();
        let r = solve_default(&p);
        assert!(r.outcome.is_solved());
        assert_eq!(r.stats.steps, 0);
    }

    #[test]
    fn split_independent_solves_groups_separately() {
        // Two disjoint clusters; both solvable.
        let p = Problem::builder(8)
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(0, 2, 4))
            .buffer(Buffer::new(5, 7, 8))
            .build()
            .unwrap();
        let r = solve_default(&p);
        let s = r.outcome.solution().unwrap();
        assert!(s.validate(&p).is_ok());
        assert_eq!(r.decisions.len(), 3);
    }

    #[test]
    fn all_configs_solve_figure1() {
        let p = examples::figure1();
        for strategy in [
            SelectionStrategy::MaxLifetime,
            SelectionStrategy::MaxSize,
            SelectionStrategy::MaxArea,
            SelectionStrategy::LowestPosition,
        ] {
            let cfg = TelaConfig::single_strategy(strategy);
            let r = solve(&p, &Budget::steps(500_000), &cfg);
            assert!(
                matches!(r.outcome, SolveOutcome::Solved(_) | SolveOutcome::GaveUp),
                "{strategy}: unexpected outcome {:?}",
                r.outcome
            );
            if let Some(s) = r.outcome.solution() {
                assert!(s.validate(&p).is_ok(), "{strategy}");
            }
        }
    }

    #[test]
    fn skyline_placement_mode_works() {
        let p = examples::tiny();
        let cfg = TelaConfig {
            solver_guided_placement: false,
            ..TelaConfig::default()
        };
        let r = solve(&p, &Budget::steps(500_000), &cfg);
        assert!(r.outcome.solution().unwrap().validate(&p).is_ok());
    }

    #[test]
    fn no_grouping_mode_works() {
        let p = examples::figure1();
        let cfg = TelaConfig {
            contention_grouping: false,
            ..TelaConfig::default()
        };
        let r = solve(&p, &Budget::steps(500_000), &cfg);
        assert!(r.outcome.solution().unwrap().validate(&p).is_ok());
    }

    #[test]
    fn fixed_step_backtracking_mode_works() {
        let p = examples::figure1();
        let cfg = TelaConfig {
            backtrack: Backtrack::FixedSteps(2),
            ..TelaConfig::default()
        };
        let r = solve(&p, &Budget::steps(500_000), &cfg);
        assert!(matches!(
            r.outcome,
            SolveOutcome::Solved(_) | SolveOutcome::GaveUp
        ));
    }

    #[test]
    fn policy_sees_solution_path() {
        /// Conflict-guided backtracking that counts what the engine
        /// reports to it into counters shared with the test.
        #[derive(Default)]
        struct Seen {
            solved_len: AtomicUsize,
            majors: AtomicU64,
        }
        struct Recorder(Arc<Seen>);
        impl BacktrackPolicy for Recorder {
            fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
                self.0.majors.fetch_add(1, Ordering::Relaxed);
                ConflictGuidedPolicy.choose(ctx)
            }
            fn on_solved(&mut self, path: &[PlacedDecision]) {
                self.0.solved_len.fetch_add(path.len(), Ordering::Relaxed);
            }
        }
        let p = examples::figure1();
        let seen = Arc::new(Seen::default());
        let shared = Arc::clone(&seen);
        let cfg = TelaConfig {
            split_independent: false,
            backtrack: Backtrack::custom(move || Recorder(Arc::clone(&shared))),
            ..TelaConfig::default()
        };
        let r = solve(&p, &Budget::steps(500_000), &cfg);
        assert!(r.outcome.is_solved());
        assert_eq!(seen.solved_len.load(Ordering::Relaxed), p.len());
        assert_eq!(
            seen.majors.load(Ordering::Relaxed),
            r.stats.major_backtracks
        );
    }

    #[test]
    fn stats_track_steps_and_backtracks() {
        let p = examples::figure1();
        let r = solve_default(&p);
        assert!(r.stats.steps >= p.len() as u64);
        assert_eq!(
            r.stats.total_backtracks(),
            r.stats.minor_backtracks + r.stats.major_backtracks
        );
    }

    #[test]
    fn full_overlap_exact_fit() {
        let p = Problem::builder(12)
            .buffers((0..12).map(|_| Buffer::new(0, 3, 1)))
            .build()
            .unwrap();
        let r = solve_default(&p);
        assert!(r.outcome.solution().unwrap().validate(&p).is_ok());
    }
}

#[cfg(test)]
mod gate_tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::backtrack::ConflictGuidedPolicy;
    use crate::config::Backtrack;
    use tela_model::examples;

    /// A policy that always expands candidates and counts hook calls
    /// into a counter shared with the test.
    struct AlwaysExpand {
        calls: Arc<AtomicUsize>,
        inner: ConflictGuidedPolicy,
    }
    impl BacktrackPolicy for AlwaysExpand {
        fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
            self.inner.choose(ctx)
        }
        fn expand_candidates(&mut self, ctx: &StepContext) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            assert!(ctx.unplaced <= ctx.total_buffers);
            true
        }
    }

    #[test]
    fn expansion_hook_is_consulted_per_decision_point() {
        let p = examples::figure1();
        let calls = Arc::new(AtomicUsize::new(0));
        let shared = Arc::clone(&calls);
        let cfg = TelaConfig {
            split_independent: false,
            backtrack: Backtrack::custom(move || AlwaysExpand {
                calls: Arc::clone(&shared),
                inner: ConflictGuidedPolicy,
            }),
            ..TelaConfig::default()
        };
        let r = solve(&p, &Budget::steps(100_000), &cfg);
        assert!(r.outcome.is_solved());
        // At least one hook call per committed decision.
        assert!(calls.load(Ordering::Relaxed) >= p.len());
    }

    #[test]
    fn expansion_preserves_soundness_on_models() {
        struct ExpandWhenStuck;
        impl BacktrackPolicy for ExpandWhenStuck {
            fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
                ConflictGuidedPolicy.choose(ctx)
            }
            fn expand_candidates(&mut self, ctx: &StepContext) -> bool {
                ctx.subtree_backtracks > 5
            }
        }
        let p = examples::aligned();
        let cfg = TelaConfig {
            backtrack: Backtrack::custom(|| ExpandWhenStuck),
            ..TelaConfig::default()
        };
        let r = solve(&p, &Budget::steps(100_000), &cfg);
        if let Some(s) = r.outcome.solution() {
            assert!(s.validate(&p).is_ok());
        }
    }

    /// A policy returning garbage backtrack levels: the engine must
    /// clamp and stay sound.
    struct Pathological;
    impl BacktrackPolicy for Pathological {
        fn choose(&mut self, _: &BacktrackContext<'_>) -> BacktrackChoice {
            BacktrackChoice::Target(usize::MAX)
        }
    }

    #[test]
    fn pathological_policy_cannot_break_the_engine() {
        let p = examples::figure1();
        let cfg = TelaConfig {
            backtrack: Backtrack::custom(|| Pathological),
            ..TelaConfig::default()
        };
        let r = solve(&p, &Budget::steps(50_000), &cfg);
        if let Some(s) = r.outcome.solution() {
            assert!(s.validate(&p).is_ok());
        }
    }
}

#[cfg(test)]
mod minimize_tests {
    use super::*;
    use tela_model::examples;

    #[test]
    fn minimized_conflicts_keep_search_sound() {
        let cfg = TelaConfig {
            minimize_conflicts: true,
            ..TelaConfig::default()
        };
        for p in [examples::figure1(), examples::aligned(), examples::tiny()] {
            let r = solve(&p, &Budget::steps(200_000), &cfg);
            let s = r.outcome.solution().expect("examples stay solvable");
            assert!(s.validate(&p).is_ok());
        }
    }

    #[test]
    fn minimization_changes_no_outcomes_on_models() {
        use tela_workloads::{problem_with_slack, ModelKind};
        let p = problem_with_slack(ModelKind::Segmentation.generate(0), 10);
        let plain = solve(&p, &Budget::steps(200_000), &TelaConfig::default());
        let minimized = solve(
            &p,
            &Budget::steps(200_000),
            &TelaConfig {
                minimize_conflicts: true,
                ..TelaConfig::default()
            },
        );
        assert_eq!(plain.outcome.is_solved(), minimized.outcome.is_solved());
    }
}
