//! Heuristic baseline allocators for the TelaMalloc reproduction.
//!
//! Three families of baselines from the paper:
//!
//! - [`bfc`] — a best-fit-with-coalescing allocator in the style of
//!   TensorFlow's BFC allocator (§3.1): it processes allocation and
//!   deallocation events in time order and is *timing-unaware* — it never
//!   looks at a buffer's end time when choosing its address.
//! - [`greedy`] — the production-style greedy heuristic (§3.1, Figure 4):
//!   buffers ordered by contention (ties broken by alignment,
//!   `size × lifetime²`, then lifetime) and placed bottom-up on a
//!   skyline, like blocks in a game of Tetris.
//! - [`SelectionStrategy`] — the block-selection orderings compared in
//!   the paper's Figure 14 (max size [Lee & Pisarchyk], max area, max
//!   lifetime, best-fit/lowest-position [Sekiyama et al.]); the
//!   `telamalloc` crate plugs these into its search for the ablation.
//!
//! # Example
//!
//! ```
//! use tela_heuristics::greedy;
//! use tela_model::examples;
//!
//! let problem = examples::tiny();
//! let result = greedy::solve(&problem);
//! let solution = result.solution.expect("tiny is greedy-solvable");
//! assert!(solution.validate(&problem).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bfc;
pub mod greedy;
pub mod ordered;
mod placer;
mod skyline;
mod strategy;

pub use placer::{place_in_order, Placer};
pub use skyline::Skyline;
pub use strategy::SelectionStrategy;

use tela_model::{Address, Solution};

/// Result of running a (non-backtracking) heuristic allocator.
///
/// Heuristics are run with a conceptually unbounded memory and report the
/// peak address they reached; `solution` is `Some` only when the peak
/// fits within the problem's capacity. This mirrors how the paper
/// evaluates heuristics both as allocators (pass/fail at a capacity) and
/// as packers (minimum memory they would need, Table 2 / Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeuristicResult {
    /// The packing, if it fits within the problem's capacity.
    pub solution: Option<Solution>,
    /// Highest address the heuristic's packing reached (its required
    /// memory), regardless of the capacity.
    pub peak: Address,
}
