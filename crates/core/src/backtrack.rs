//! Major-backtrack target selection (paper §5.4 and §6).
//!
//! When every candidate at a decision point is exhausted, TelaMalloc must
//! decide how far up the search tree to jump. The search engine gathers
//! the *candidate backtrack targets* (§6.2) — the decision levels of the
//! placements implicated in the most recent conflict, padded with
//! exponential-range fillers so the search cannot get stuck in one part
//! of the tree — and delegates the choice to a [`BacktrackPolicy`].
//!
//! Two policies live here; the learned (gradient-boosted-tree) policy
//! of §6 is provided by the `tela-learned` crate through the same trait.
//! [`TelaConfig::backtrack`](crate::TelaConfig::backtrack) picks the
//! policy a search runs.

use tela_model::{Address, BufferId, Problem};

/// One placement on the current search path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedDecision {
    /// The buffer placed by this decision.
    pub block: BufferId,
    /// The address it was placed at.
    pub address: Address,
}

/// The §6.4 feature vector of one candidate backtrack target.
///
/// Size, lifetime, and contention are normalized to the problem's
/// capacity and time horizon; counters are raw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetFeatures {
    /// Block size / memory capacity.
    pub size: f64,
    /// Block lifetime / problem horizon.
    pub lifetime: f64,
    /// Block contention / memory capacity.
    pub contention: f64,
    /// Decision level at which the block was placed.
    pub decision_level: f64,
    /// How often this block appeared in a major backtrack's reason.
    pub culprit_appearances: f64,
    /// How often the search backtracked to this point.
    pub backtracks_to_here: f64,
    /// Backtracks within the subtree rooted at this point (since last
    /// visited).
    pub subtree_backtracks: f64,
    /// 1.0 if the block is in the same contention phase as the point we
    /// are backtracking from.
    pub same_region: f64,
    /// Total backtracks in the search so far.
    pub total_backtracks: f64,
}

impl TargetFeatures {
    /// Number of features in [`TargetFeatures::to_array`].
    pub const LEN: usize = 9;

    /// The features as a fixed-size array, in a stable order (the order
    /// listed in §6.4).
    pub fn to_array(&self) -> [f64; Self::LEN] {
        [
            self.size,
            self.lifetime,
            self.contention,
            self.decision_level,
            self.culprit_appearances,
            self.backtracks_to_here,
            self.subtree_backtracks,
            self.same_region,
            self.total_backtracks,
        ]
    }

    /// Human-readable names of the features, index-aligned with
    /// [`TargetFeatures::to_array`].
    pub const NAMES: [&'static str; Self::LEN] = [
        "size",
        "lifetime",
        "contention",
        "decision_level",
        "culprit_appearances",
        "backtracks_to_here",
        "subtree_backtracks",
        "same_region",
        "total_backtracks",
    ];
}

/// One candidate backtrack target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacktrackTarget {
    /// Decision level to jump back to (the placement at this level is
    /// undone and reconsidered).
    pub level: usize,
    /// The block placed at that level.
    pub block: BufferId,
    /// Whether this target came from the conflict's culprit set (true)
    /// or is an exponential-range filler (false).
    pub from_conflict: bool,
    /// The §6.4 features of this target.
    pub features: TargetFeatures,
}

/// Everything a [`BacktrackPolicy`] may inspect when choosing a target.
#[derive(Debug)]
pub struct BacktrackContext<'a> {
    /// The problem being solved (a sub-problem if independent splitting
    /// is active).
    pub problem: &'a Problem,
    /// Candidate targets, in increasing level order.
    pub targets: &'a [BacktrackTarget],
    /// The placements on the current path, index = decision level.
    pub path: &'a [PlacedDecision],
    /// The level of the exhausted decision point we are leaving.
    pub current_level: usize,
    /// Total backtracks (minor + major) so far.
    pub total_backtracks: u64,
}

/// What the policy wants the engine to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BacktrackChoice {
    /// Jump to this decision level (a level from
    /// [`BacktrackContext::targets`]).
    Target(usize),
    /// Do not jump: stay at the current decision point and retry with
    /// every unplaced buffer as a candidate (the §6.5 fallback used when
    /// the learned model is not confident).
    StayAndTryAll,
}

/// Cheap per-step summary offered to [`BacktrackPolicy::expand_candidates`]
/// (the §8.3 extension hook).
#[derive(Debug, Clone, Copy)]
pub struct StepContext {
    /// Decision level about to be opened.
    pub level: usize,
    /// Unplaced buffers remaining.
    pub unplaced: usize,
    /// Total buffers in the (sub-)problem.
    pub total_buffers: usize,
    /// Backtracks within the current subtree so far.
    pub subtree_backtracks: u64,
    /// Total backtracks in the search so far.
    pub total_backtracks: u64,
}

/// Chooses where to land on a major backtrack.
///
/// Implementations must return either one of the offered target levels
/// or [`BacktrackChoice::StayAndTryAll`].
pub trait BacktrackPolicy {
    /// Chooses the backtrack destination for one major backtrack.
    fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice;

    /// Per-step hook (the paper's §8.3 forward-looking extension: "a
    /// single, shallow decision tree that executes at every step of the
    /// search and identifies whether to run a more expensive
    /// heuristic"). Returning true makes the engine generate the *full*
    /// candidate queue (every unplaced block, uncapped) at this decision
    /// point instead of the capped strategy picks.
    ///
    /// The default never expands, reproducing the paper's shipping
    /// behaviour.
    fn expand_candidates(&mut self, _ctx: &StepContext) -> bool {
        false
    }

    /// Called when the search finds a complete solution, with the final
    /// decision path; once per independent sub-problem when the search
    /// splits (§5.3). The imitation-learning collector labels its
    /// recorded backtracks against this path (§6.5).
    fn on_solved(&mut self, _path: &[PlacedDecision]) {}
}

/// The paper's §5.4 default: jump to the second-to-last conflicting
/// placement. With the last culprit already excluded from the target
/// list, that is the deepest conflict-derived target. Falls back to one
/// step when the conflict names no earlier placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConflictGuidedPolicy;

impl BacktrackPolicy for ConflictGuidedPolicy {
    fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
        let deepest_conflict = ctx
            .targets
            .iter()
            .filter(|t| t.from_conflict)
            .map(|t| t.level)
            .max();
        match deepest_conflict {
            Some(level) => BacktrackChoice::Target(level),
            None => BacktrackChoice::Target(ctx.current_level.saturating_sub(1)),
        }
    }
}

/// The paper's initial implementation: always rewind a fixed number of
/// steps (§5.4 mentions 1–2).
#[derive(Debug, Clone, Copy)]
pub struct FixedStepPolicy(pub usize);

impl BacktrackPolicy for FixedStepPolicy {
    fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
        BacktrackChoice::Target(ctx.current_level.saturating_sub(self.0.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::examples;

    fn target(level: usize, from_conflict: bool) -> BacktrackTarget {
        BacktrackTarget {
            level,
            block: BufferId::new(0),
            from_conflict,
            features: TargetFeatures {
                size: 0.0,
                lifetime: 0.0,
                contention: 0.0,
                decision_level: level as f64,
                culprit_appearances: 0.0,
                backtracks_to_here: 0.0,
                subtree_backtracks: 0.0,
                same_region: 0.0,
                total_backtracks: 0.0,
            },
        }
    }

    fn ctx<'a>(
        problem: &'a Problem,
        targets: &'a [BacktrackTarget],
        current: usize,
    ) -> BacktrackContext<'a> {
        BacktrackContext {
            problem,
            targets,
            path: &[],
            current_level: current,
            total_backtracks: 0,
        }
    }
    use tela_model::Problem;

    #[test]
    fn conflict_guided_picks_deepest_conflict_target() {
        let p = examples::figure1();
        let targets = [
            target(2, true),
            target(4, false),
            target(7, true),
            target(8, false),
        ];
        let choice = ConflictGuidedPolicy.choose(&ctx(&p, &targets, 12));
        assert_eq!(choice, BacktrackChoice::Target(7));
    }

    #[test]
    fn conflict_guided_falls_back_to_one_step() {
        let p = examples::figure1();
        let targets = [target(4, false)];
        let choice = ConflictGuidedPolicy.choose(&ctx(&p, &targets, 12));
        assert_eq!(choice, BacktrackChoice::Target(11));
    }

    #[test]
    fn fixed_step_rewinds_requested_amount() {
        let p = examples::figure1();
        assert_eq!(
            FixedStepPolicy(2).choose(&ctx(&p, &[], 10)),
            BacktrackChoice::Target(8)
        );
        assert_eq!(
            FixedStepPolicy(0).choose(&ctx(&p, &[], 10)),
            BacktrackChoice::Target(9)
        );
        assert_eq!(
            FixedStepPolicy(5).choose(&ctx(&p, &[], 3)),
            BacktrackChoice::Target(0)
        );
    }

    #[test]
    fn feature_array_order_is_stable() {
        let f = TargetFeatures {
            size: 1.0,
            lifetime: 2.0,
            contention: 3.0,
            decision_level: 4.0,
            culprit_appearances: 5.0,
            backtracks_to_here: 6.0,
            subtree_backtracks: 7.0,
            same_region: 8.0,
            total_backtracks: 9.0,
        };
        assert_eq!(f.to_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(TargetFeatures::NAMES.len(), TargetFeatures::LEN);
    }
}
