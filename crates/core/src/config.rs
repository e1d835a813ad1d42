use std::fmt;
use std::sync::Arc;

use tela_heuristics::SelectionStrategy;
use tela_trace::Tracer;

use crate::adaptive::AdaptiveConfig;
use crate::backtrack::{BacktrackPolicy, ConflictGuidedPolicy, FixedStepPolicy};
use crate::portfolio::PortfolioVariant;
use crate::resilience::LadderConfig;

/// Tuning knobs for the TelaMalloc search.
///
/// The defaults correspond to the full system described in the paper
/// (§5); individual features can be disabled for ablation studies (the
/// paper's Figure 14 compares block-selection strategies this way).
///
/// # Example
///
/// ```
/// use telamalloc::TelaConfig;
/// use tela_heuristics::SelectionStrategy;
///
/// // Ablation: single max-size selection, no contention grouping.
/// let config = TelaConfig {
///     selection: vec![SelectionStrategy::MaxSize],
///     contention_grouping: false,
///     ..TelaConfig::default()
/// };
/// assert!(config.solver_guided_placement);
/// ```
#[derive(Debug, Clone)]
pub struct TelaConfig {
    /// Block-selection heuristics tried at every step, in order
    /// (§5.1: longest lifetime, largest size, largest area).
    pub selection: Vec<SelectionStrategy>,
    /// Place blocks at the solver's lowest feasible position (§5.2,
    /// Figure 8b). When false, blocks are placed on top of the skyline of
    /// already-placed overlapping blocks (Figure 8a).
    pub solver_guided_placement: bool,
    /// Identify contention phases and place blocks phase by phase (§5.3,
    /// Figure 9).
    pub contention_grouping: bool,
    /// Where a major backtrack lands (§5.4, §6): conflict-guided (the
    /// default), a fixed rewind, or a caller-supplied policy such as the
    /// learned one.
    pub backtrack: Backtrack,
    /// Prepend the failing decision point's candidates at the backtrack
    /// target (§5.4).
    pub candidate_prepending: bool,
    /// Maximum number of candidate blocks kept at one decision point;
    /// further candidates are dropped (§5.4).
    pub max_candidates_per_level: usize,
    /// Once more than this many backtracks occur within one subtree, the
    /// search escapes to the shallowest such point (§5.4; the paper uses
    /// a constant around 100).
    pub stuck_subtree_limit: u64,
    /// Solve time-disjoint sub-problems independently (§5.3).
    pub split_independent: bool,
    /// Run the `tela-audit` static preflight before searching: provably
    /// infeasible instances fail immediately with a
    /// [`Certificate`](tela_audit::Certificate) and degenerate instances
    /// are solved without search.
    pub preflight_audit: bool,
    /// Shrink conflict explanations to irreducible sets before deriving
    /// backtrack targets (an extension over the paper; see
    /// `tela_cp::explain`). Costs extra solver probes per major
    /// backtrack.
    pub minimize_conflicts: bool,
    /// OS threads for the portfolio race
    /// ([`solve_portfolio`](crate::solve_portfolio), and so every
    /// search stage of the [`EscalationLadder`](crate::EscalationLadder)).
    /// `1` (the default) runs variants sequentially;
    /// [`solve`](crate::solve) always runs single-variant regardless of
    /// this setting.
    pub threads: usize,
    /// Portfolio competitors. Empty (the default) means
    /// [`default_variants`](crate::default_variants): this
    /// configuration first, then every §5.1 selection strategy crossed
    /// with both backtrack policies.
    pub variants: Vec<PortfolioVariant>,
    /// Staged-retry settings for the escalation ladder
    /// ([`EscalationLadder`](crate::EscalationLadder)): the spill-round
    /// cap, which also decides how the budget is sliced across stages.
    pub ladder: LadderConfig,
    /// Structured-event tracer threaded through every layer of the
    /// solve (search spans, portfolio variant lifecycle, ladder stages,
    /// CP conflict metrics). The default [`Tracer::disabled`] costs one
    /// predicted branch per instrumentation point and allocates
    /// nothing; build an enabled tracer with
    /// [`Tracer::logical`]/[`Tracer::wall`] or
    /// [`Tracer::from_env`] (`TELA_TRACE=1`).
    pub tracer: Tracer,
    /// Seed for block-ordering perturbation
    /// (`tela_heuristics::perturb`). `0` (the default) means no
    /// perturbation — selection behaves bit-for-bit like the canonical
    /// strategies. The adaptive portfolio sets nonzero seeds when
    /// restarting clearly-losing variants; it is also available directly
    /// for randomized-restart experiments.
    pub perturbation_seed: u64,
    /// Adaptive portfolio scheduling: learned variant ranking plus the
    /// bandit budget scheduler ([`AdaptiveConfig`]). Inert unless a
    /// ranker is configured.
    pub adaptive: AdaptiveConfig,
    /// Deterministic faults to inject into every solve (chaos testing
    /// only; available under the `fault-inject` feature). `None`
    /// injects nothing.
    #[cfg(feature = "fault-inject")]
    pub fault_plan: Option<tela_model::FaultPlan>,
}

impl Default for TelaConfig {
    fn default() -> Self {
        TelaConfig {
            selection: SelectionStrategy::TELAMALLOC_ORDER.to_vec(),
            solver_guided_placement: true,
            contention_grouping: true,
            backtrack: Backtrack::ConflictGuided,
            candidate_prepending: true,
            max_candidates_per_level: 16,
            stuck_subtree_limit: 100,
            split_independent: true,
            preflight_audit: true,
            minimize_conflicts: false,
            threads: 1,
            variants: Vec::new(),
            ladder: LadderConfig::default(),
            tracer: Tracer::disabled(),
            perturbation_seed: 0,
            adaptive: AdaptiveConfig::default(),
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }
}

/// The major-backtrack policy of a search (§5.4, §6).
///
/// Every run builds its own policy from this value, so a policy may keep
/// mutable state, and one configuration can drive the concurrent
/// variants of a portfolio race.
#[derive(Clone)]
pub enum Backtrack {
    /// Jump to the second-to-last conflicting placement
    /// ([`ConflictGuidedPolicy`], §5.4).
    ConflictGuided,
    /// Rewind this many steps ([`FixedStepPolicy`]; the paper's initial
    /// implementation used 1–2).
    FixedSteps(usize),
    /// A caller-supplied policy (the learned one of `tela-learned`, say),
    /// built fresh for every run by this factory.
    Custom(Arc<dyn Fn() -> Box<dyn BacktrackPolicy> + Send + Sync>),
}

impl Backtrack {
    /// A [`Backtrack::Custom`] that builds each run's policy with `make`.
    pub fn custom<P: BacktrackPolicy + 'static>(
        make: impl Fn() -> P + Send + Sync + 'static,
    ) -> Self {
        Backtrack::Custom(Arc::new(move || Box::new(make())))
    }

    /// The policy for one search run.
    pub(crate) fn policy(&self) -> Box<dyn BacktrackPolicy> {
        match self {
            Backtrack::ConflictGuided => Box::new(ConflictGuidedPolicy),
            Backtrack::FixedSteps(steps) => Box::new(FixedStepPolicy(*steps)),
            Backtrack::Custom(make) => make(),
        }
    }
}

/// Custom policies compare by factory identity: two configurations
/// holding the same `Arc` search alike.
impl PartialEq for Backtrack {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Backtrack::ConflictGuided, Backtrack::ConflictGuided) => true,
            (Backtrack::FixedSteps(a), Backtrack::FixedSteps(b)) => a == b,
            (Backtrack::Custom(a), Backtrack::Custom(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Debug for Backtrack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backtrack::ConflictGuided => f.write_str("ConflictGuided"),
            Backtrack::FixedSteps(steps) => f.debug_tuple("FixedSteps").field(steps).finish(),
            Backtrack::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl TelaConfig {
    /// The configuration used for the paper's Figure 14 strategy
    /// comparison: a single block-selection strategy, lowest-position
    /// placement, and chronological ("last valid point") backtracking.
    pub fn single_strategy(strategy: SelectionStrategy) -> Self {
        TelaConfig {
            selection: vec![strategy],
            contention_grouping: false,
            backtrack: Backtrack::FixedSteps(1),
            candidate_prepending: false,
            ..TelaConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TelaConfig::default();
        assert_eq!(c.selection, SelectionStrategy::TELAMALLOC_ORDER.to_vec());
        assert!(c.solver_guided_placement);
        assert!(c.contention_grouping);
        assert_eq!(c.backtrack, Backtrack::ConflictGuided);
        assert!(c.candidate_prepending);
        assert_eq!(c.stuck_subtree_limit, 100);
        assert!(c.preflight_audit);
        assert_eq!(c.threads, 1);
        assert!(c.variants.is_empty());
    }

    #[test]
    fn single_strategy_disables_search_smarts() {
        let c = TelaConfig::single_strategy(SelectionStrategy::MaxSize);
        assert_eq!(c.selection, vec![SelectionStrategy::MaxSize]);
        assert!(!c.contention_grouping);
        assert_eq!(c.backtrack, Backtrack::FixedSteps(1));
        assert!(!c.candidate_prepending);
    }
}
