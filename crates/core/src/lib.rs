//! TelaMalloc: hybrid heuristic × constraint-solver memory allocation
//! for ML accelerators — the core of the ASPLOS 2023 paper reproduction.
//!
//! The allocator solves the on-chip memory allocation problem: choose a
//! base address for every buffer of a static dataflow graph such that
//! time-overlapping buffers never overlap in space and everything fits
//! in the device memory. TelaMalloc's contribution is how it explores
//! this NP-hard search space (§4):
//!
//! - domain-specific heuristics pick *which* block to place next
//!   (longest-lifetime / largest-size / largest-area, §5.1), restricted
//!   to the current contention phase (§5.3);
//! - the CP solver (the `tela-cp` crate) answers *where* it can go —
//!   the lowest feasible address (§5.2) — and proves early when a
//!   placement made the rest unsolvable;
//! - backtracking is guided by the solver's conflict explanations and,
//!   optionally, a learned model (§5.4, §6; see the `tela-learned`
//!   crate).
//!
//! The production pipeline (§2.3, §5.6) is the [`EscalationLadder`]:
//! the greedy heuristic first, the TelaMalloc search only when greedy
//! fails, and spill-and-retry or a validated best-effort placement when
//! nothing fits.
//!
//! # Quick start
//!
//! ```
//! use telamalloc::{EscalationLadder, TelaConfig};
//! use tela_model::{examples, Budget, ResilienceStage};
//!
//! let ladder = EscalationLadder::new(TelaConfig::default());
//! let problem = examples::figure1();
//! let result = ladder.solve(&problem, &Budget::steps(100_000));
//! let solution = result.outcome.solution().expect("figure1 is solvable");
//! assert!(solution.validate(&problem).is_ok());
//! // Figure 1 is too tight for the greedy heuristic: the search solved it.
//! assert_ne!(result.stage, ResilienceStage::Heuristic);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod backtrack;
mod candidates;
mod config;
mod portfolio;
mod resilience;
mod search;

pub use adaptive::{AdaptiveConfig, AdaptiveReport, RoundReport, RunReport, VariantRanker};
pub use backtrack::{
    BacktrackChoice, BacktrackContext, BacktrackPolicy, BacktrackTarget, ConflictGuidedPolicy,
    FixedStepPolicy, PlacedDecision, StepContext, TargetFeatures,
};
pub use config::{Backtrack, TelaConfig};
pub use portfolio::{
    default_variants, solve_portfolio, PortfolioResult, PortfolioVariant, VariantOutcome,
    VariantReport,
};
pub use resilience::{
    EscalationLadder, LadderConfig, LadderResult, NoSpill, SpillHook, StageReport,
};
pub use search::{solve, TelaResult};
// Re-exported so pipeline consumers can inspect infeasibility witnesses
// without depending on tela-audit directly.
pub use tela_audit::{Certificate, Verdict};
