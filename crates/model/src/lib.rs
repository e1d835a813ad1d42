//! Problem and solution model for the TelaMalloc reproduction.
//!
//! This crate defines the vocabulary shared by every allocator in the
//! workspace: [`Buffer`]s with fixed live ranges, [`Problem`]s pairing a
//! buffer set with a memory capacity, [`Solution`]s mapping buffers to
//! addresses, and the analysis passes that the TelaMalloc search builds on
//! (contention profiles, the shared time-overlap graph, phase
//! partitioning, independent sub-problem splitting).
//!
//! The memory allocation problem (paper §3): given buffers
//! `B ∈ ℕ³ (start, end, size)` and a memory limit `M`, produce a mapping
//! `B ↦ address` such that no two buffers with overlapping live ranges
//! overlap in space and no buffer extends past `M`.
//!
//! # Example
//!
//! ```
//! use tela_model::{Problem, Buffer};
//!
//! let problem = Problem::builder(100)
//!     .buffer(Buffer::new(0, 4, 60))
//!     .buffer(Buffer::new(2, 6, 40))
//!     .build()
//!     .expect("valid problem");
//! assert_eq!(problem.max_contention(), 100);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod budget;
mod buffer;
mod contention;
pub mod examples;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod fingerprint;
mod overlap;
mod partial;
mod problem;
mod solution;
mod split;
mod trace;

pub use analysis::{maximal_live_sets, InstanceStats, LiveSet, PackingStats};
pub use budget::{Budget, RaceWinner, SolveError, SolveOutcome, SolveStats};
pub use buffer::{Buffer, BufferError, BufferId};
pub use contention::{ContentionProfile, Phase, PhasePartition};
#[cfg(feature = "fault-inject")]
pub use fault::{FaultInjector, FaultPlan, ServerFaultPlan};
pub use fingerprint::{fingerprint, CanonicalBuffer, CanonicalForm, Fingerprint};
pub use overlap::OverlapGraph;
pub use partial::{BestEffort, PartialError, PartialSolution, ResilienceStage};
pub use problem::{Problem, ProblemBuilder, ProblemError};
pub use solution::{Solution, ValidationError};
pub use split::split_independent;
pub use trace::{parse_problem, problem_to_text, TraceError};

/// Logical time step within a compiled program's schedule.
///
/// Start/end times are *logical* (compile-time) positions, not wall-clock
/// times (paper §3).
pub type TimeStep = u32;

/// A byte address (or other discrete allocation-unit address) in the managed
/// on-chip memory.
pub type Address = u64;

/// A buffer size in bytes (or other discrete allocation units).
pub type Size = u64;
