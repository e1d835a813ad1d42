//! `tela-lint` — workspace-invariant static analysis for the TelaMalloc
//! reproduction.
//!
//! The last several PRs each introduced an invariant that, until now,
//! only convention enforced: no panics on the solve path, zero
//! steady-state allocations in the propagate loop, deterministic
//! logical-clock tracing, poison-proof locking in the panic-isolated
//! portfolio, and scoped-thread-only concurrency. This crate enforces
//! them mechanically:
//!
//! - a hand-rolled Rust scanner ([`lexer`], [`source`]) — tokens plus
//!   brace/attribute/cfg tracking, not a full parse, matching the
//!   workspace's from-scratch style;
//! - a rule engine ([`rules`], [`features`], [`engine`]) with
//!   `file:line:col` diagnostics and inline suppression via
//!   `// tela-lint: allow(<rule>, reason = "…")`;
//! - a ratcheted baseline ([`baseline`]): existing violations live in a
//!   committed `lint-baseline.json`; CI fails on new violations *and*
//!   on a stale baseline, so the count can only go down;
//! - shared test instrumentation ([`testing`]): the counting global
//!   allocator used by the zero-allocation regression tests.
//!
//! Run it as `cargo run -p tela-lint -- check`; see `tela-lint help`.

pub mod baseline;
pub mod engine;
pub mod features;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod source;
pub mod testing;

pub use baseline::{Baseline, BaselineDiff};
pub use engine::{check_source, scan_workspace, Report};
pub use manifest::Manifest;
pub use rules::Diagnostic;
