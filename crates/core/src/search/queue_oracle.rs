//! The former full-scan queue builder, kept as an oracle for the
//! [`CandidateIndex`](crate::candidates::CandidateIndex).
//!
//! Before the index, every decision point regrouped all unplaced buffers
//! into per-phase pools (a scan of every buffer, in the primary
//! strategy's precomputed order) and picked from those pools. The
//! oracle below is that builder, with its rank arrays sorted by
//! comparing `strategy.key` pairwise as before. An engine carrying an
//! [`Oracle`] rebuilds every queue this way and requires it to equal
//! the index-built one, so the property tests at the bottom compare the
//! two at every decision point of every search they run.

use std::collections::VecDeque;

use proptest::prelude::*;
use tela_heuristics::SelectionStrategy;
use tela_model::{Budget, Buffer, BufferId, PhasePartition, Problem};

use super::Engine;
use crate::backtrack::{
    BacktrackChoice, BacktrackContext, BacktrackPolicy, ConflictGuidedPolicy, StepContext,
};
use crate::config::TelaConfig;

/// Which queue the engine just built.
#[derive(Debug, Clone, Copy)]
pub(super) enum Kind {
    /// The capped per-phase queue.
    Capped,
    /// The uncapped fallback of the expansion hook.
    Full,
    /// The §6.5 stay-and-try-all queue.
    StayAndTryAll,
}

impl Kind {
    pub(super) fn new(expanded: bool) -> Self {
        if expanded {
            Kind::Full
        } else {
            Kind::Capped
        }
    }
}

/// The pre-index queue builder's state.
pub(super) struct Oracle {
    phases: Option<PhasePartition>,
    selection_ranks: Vec<Option<Vec<u32>>>,
    primary_order: Option<Vec<BufferId>>,
    /// Queues compared so far.
    checks: usize,
}

impl Oracle {
    pub(super) fn new(problem: &Problem, config: &TelaConfig) -> Self {
        let phases = config
            .contention_grouping
            .then(|| PhasePartition::compute(problem));
        let seed = config.perturbation_seed;
        let selection_ranks: Vec<Option<Vec<u32>>> = config
            .selection
            .iter()
            .map(|&strategy| {
                if strategy == SelectionStrategy::LowestPosition {
                    return None;
                }
                let mut ids: Vec<u32> = (0..problem.len() as u32).collect();
                let key = |i: u32| strategy.key(problem, BufferId::new(i as usize));
                if seed == 0 {
                    ids.sort_unstable_by_key(|&i| (std::cmp::Reverse(key(i)), i));
                } else {
                    ids.sort_unstable_by_key(|&i| {
                        (
                            std::cmp::Reverse(tela_heuristics::perturb::jitter_key(
                                key(i),
                                u64::from(i),
                                seed,
                            )),
                            tela_heuristics::perturb::tiebreak(u64::from(i), seed),
                            i,
                        )
                    });
                }
                let mut rank = vec![0u32; problem.len()];
                for (pos, &i) in ids.iter().enumerate() {
                    rank[i as usize] = pos as u32;
                }
                Some(rank)
            })
            .collect();
        let primary_order = selection_ranks.first().and_then(|ranks| {
            let rank = ranks.as_ref()?;
            let mut ids: Vec<BufferId> = (0..problem.len()).map(BufferId::new).collect();
            ids.sort_unstable_by_key(|id| rank[id.index()]);
            Some(ids)
        });
        Oracle {
            phases,
            selection_ranks,
            primary_order,
            checks: 0,
        }
    }

    /// Requires the engine's current queue to be the one the full-scan
    /// builder produces, and the index to agree with the solver.
    fn check(&mut self, e: &Engine<'_>, kind: Kind) {
        for i in 0..e.problem.len() {
            let id = BufferId::new(i);
            assert_eq!(
                e.index.is_live(id),
                !e.solver.is_fixed(id),
                "index bit of {id}"
            );
        }
        let expected = match kind {
            Kind::Capped => self.capped_queue(e),
            Kind::Full => self.full_queue(e),
            Kind::StayAndTryAll => e
                .solver
                .unfixed()
                .filter(|id| !e.current.tried.contains(id))
                .collect(),
        };
        assert_eq!(
            e.current.queue,
            expected,
            "{kind:?} queue at level {}",
            e.frames.len()
        );
        self.checks += 1;
    }

    fn for_each_unfixed(&self, e: &Engine<'_>, mut f: impl FnMut(BufferId)) {
        match &self.primary_order {
            Some(order) => order
                .iter()
                .filter(|&&id| !e.solver.is_fixed(id))
                .for_each(|&id| f(id)),
            None => e.solver.unfixed().for_each(f),
        }
    }

    fn full_queue(&self, e: &Engine<'_>) -> VecDeque<BufferId> {
        let mut pool = Vec::new();
        self.for_each_unfixed(e, |id| pool.push(id));
        self.order_pool(e, &mut pool);
        pool.into_iter().collect()
    }

    fn capped_queue(&self, e: &Engine<'_>) -> VecDeque<BufferId> {
        let cap = e.config.max_candidates_per_level.max(1);
        let mut out = VecDeque::new();
        let mut seen = vec![false; e.problem.len()];
        let mut push = |out: &mut VecDeque<BufferId>, id: BufferId| {
            if !seen[id.index()] && out.len() < cap {
                seen[id.index()] = true;
                out.push_back(id);
            }
        };
        let (mut pools, order) = self.pools(e);
        for pi in order {
            let pool = &mut pools[pi];
            if pool.is_empty() || out.len() >= cap {
                continue;
            }
            for (si, &strategy) in e.config.selection.iter().enumerate() {
                if let Some(pick) = self.pick(e, si, strategy, pool) {
                    push(&mut out, pick);
                }
            }
            self.order_pool(e, pool);
            for &queued in pool.iter() {
                push(&mut out, queued);
            }
        }
        out
    }

    /// The unplaced blocks grouped into phase pools, and the pool visit
    /// order (context phase first).
    fn pools(&self, e: &Engine<'_>) -> (Vec<Vec<BufferId>>, Vec<usize>) {
        let Some(phases) = &self.phases else {
            let mut pool = Vec::new();
            self.for_each_unfixed(e, |id| pool.push(id));
            return (vec![pool], vec![0]);
        };
        let mut pools = vec![Vec::new(); phases.len()];
        self.for_each_unfixed(e, |id| pools[phases.phase_of(id)].push(id));
        let mut order: Vec<usize> = (0..phases.len()).collect();
        let context = e
            .current
            .context_phase
            .or_else(|| e.frames.last().and_then(|f| f.context_phase));
        if let Some(ctx) = context {
            order.retain(|&p| p != ctx);
            order.insert(0, ctx);
        }
        (pools, order)
    }

    fn pick(
        &self,
        e: &Engine<'_>,
        si: usize,
        strategy: SelectionStrategy,
        pool: &[BufferId],
    ) -> Option<BufferId> {
        if let Some(Some(rank)) = self.selection_ranks.get(si) {
            return pool.iter().copied().min_by_key(|id| rank[id.index()]);
        }
        assert_eq!(strategy, SelectionStrategy::LowestPosition);
        pool.iter()
            .copied()
            .min_by_key(|&id| (e.solver.domain(id).lo(), e.position_tiebreak(id)))
    }

    fn order_pool(&self, e: &Engine<'_>, pool: &mut [BufferId]) {
        if self.primary_order.is_some() {
            return;
        }
        match e.config.selection.first() {
            Some(SelectionStrategy::LowestPosition) => {
                pool.sort_unstable_by_key(|&id| (e.solver.domain(id).lo(), e.position_tiebreak(id)))
            }
            Some(_) => unreachable!("a static primary strategy has a precomputed order"),
            None => pool.sort_unstable(),
        }
    }
}

impl Engine<'_> {
    /// Compares the queue just built against the oracle, when the engine
    /// carries one.
    pub(super) fn check_queue(&mut self, kind: Kind) {
        if let Some(mut oracle) = self.oracle.take() {
            oracle.check(self, kind);
            self.oracle = Some(oracle);
        }
    }
}

/// Runs one search with the oracle checking every queue; returns the
/// steps taken and the number of queues compared.
fn run_checked(
    problem: &Problem,
    config: &TelaConfig,
    policy: &mut dyn BacktrackPolicy,
    steps: u64,
) -> (u64, usize) {
    let Some(mut engine) = Engine::new(problem, config) else {
        return (0, 0);
    };
    engine.oracle = Some(Oracle::new(problem, config));
    let result = engine.solve(&Budget::steps(steps), policy);
    (result.stats.steps, engine.oracle.map_or(0, |o| o.checks))
}

/// Conflict-guided backtracking that also takes the expansion hook and
/// the stay-and-try-all fallback now and then, so every queue kind is
/// exercised.
struct Mixed {
    majors: u64,
}

impl BacktrackPolicy for Mixed {
    fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
        self.majors += 1;
        if self.majors.is_multiple_of(3) {
            BacktrackChoice::StayAndTryAll
        } else {
            ConflictGuidedPolicy.choose(ctx)
        }
    }

    fn expand_candidates(&mut self, ctx: &StepContext) -> bool {
        (ctx.level as u64 + ctx.total_backtracks) % 7 == 3
    }
}

/// One engine configuration of the differential tests.
#[derive(Debug, Clone)]
struct Setup {
    primary: SelectionStrategy,
    secondary: SelectionStrategy,
    grouping: bool,
    seed: u64,
    cap: usize,
    mixed_policy: bool,
}

impl Setup {
    fn config(&self) -> TelaConfig {
        TelaConfig {
            selection: vec![self.primary, self.secondary],
            contention_grouping: self.grouping,
            perturbation_seed: self.seed,
            max_candidates_per_level: self.cap,
            split_independent: false,
            preflight_audit: false,
            ..TelaConfig::default()
        }
    }

    fn run(&self, problem: &Problem, steps: u64) -> (u64, usize) {
        let config = self.config();
        if self.mixed_policy {
            run_checked(problem, &config, &mut Mixed { majors: 0 }, steps)
        } else {
            run_checked(problem, &config, &mut ConflictGuidedPolicy, steps)
        }
    }
}

fn strategy() -> impl Strategy<Value = SelectionStrategy> {
    (0..SelectionStrategy::ALL.len()).prop_map(|i| SelectionStrategy::ALL[i])
}

fn flag() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

fn setup() -> impl Strategy<Value = Setup> {
    (
        strategy(),
        strategy(),
        flag(),
        prop_oneof![Just(0u64), 1u64..u64::MAX],
        prop_oneof![Just(1usize), Just(16)],
        flag(),
    )
        .prop_map(
            |(primary, secondary, grouping, seed, cap, mixed_policy)| Setup {
                primary,
                secondary,
                grouping,
                seed,
                cap,
                mixed_policy,
            },
        )
}

fn random_problem() -> impl Strategy<Value = Problem> {
    let buffer = (
        0u32..24,
        1u32..10,
        1u64..9,
        prop_oneof![Just(1u64), Just(4)],
    )
        .prop_map(|(start, len, size, align)| {
            Buffer::new(start, start + len, size).with_align(align)
        });
    (prop::collection::vec(buffer, 1..48), 0u64..12).prop_map(|(buffers, extra)| {
        let probe = Problem::new(buffers, u64::MAX).expect("unbounded problem is valid");
        let capacity = probe.max_contention() + extra;
        probe
            .with_capacity(capacity)
            .expect("capacity covers contention")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn index_queues_match_the_full_scan_on_random_problems(
        problem in random_problem(),
        setup in setup(),
    ) {
        let (steps, checks) = setup.run(&problem, 3_000);
        prop_assert!(checks > 0 || steps == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_queues_match_the_full_scan_on_pixel_models(
        model in 0..tela_workloads::ModelKind::PIXEL6.len(),
        model_seed in 0u64..4,
        slack in 0u32..6,
        setup in setup(),
    ) {
        let model = tela_workloads::ModelKind::PIXEL6[model];
        let problem = tela_workloads::problem_with_slack(model.generate(model_seed), slack);
        let (_, checks) = setup.run(&problem, 600);
        prop_assert!(checks > 0);
    }
}

/// Every combination of primary and secondary strategy, grouping,
/// perturbation seed, cap and policy, on one instance that needs
/// backtracking.
#[test]
fn index_queues_match_the_full_scan_in_every_configuration() {
    let problem =
        tela_workloads::problem_with_slack(tela_workloads::ModelKind::FaceDetection.generate(1), 2);
    let mut checks = 0;
    for primary in SelectionStrategy::ALL {
        for secondary in SelectionStrategy::ALL {
            for grouping in [false, true] {
                for seed in [0, 0x5EED] {
                    for cap in [1, 16] {
                        for mixed_policy in [false, true] {
                            let setup = Setup {
                                primary,
                                secondary,
                                grouping,
                                seed,
                                cap,
                                mixed_policy,
                            };
                            checks += setup.run(&problem, 300).1;
                        }
                    }
                }
            }
        }
    }
    assert!(checks >= 128 * 100, "only {checks} queues compared");
}
