//! tela-server: allocation as a fault-tolerant, multi-tenant service.
//!
//! TelaMalloc's production setting (paper §2) is a compiler service:
//! many compilation jobs, from many users, each needing an on-chip
//! memory placement *now*, on shared solver capacity. This crate wraps
//! the workspace's escalation ladder in that shape — a long-running TCP
//! service speaking length-prefixed JSON frames, with:
//!
//! - **admission control**: per-tenant token buckets and step/deadline
//!   quotas ([`TenantConfig`]), so one noisy tenant cannot starve the
//!   rest;
//! - **backpressure**: a bounded earliest-deadline-first work queue
//!   that sheds on overflow with `Rejected { retry_after_ms }` instead
//!   of queuing unboundedly;
//! - **graceful degradation**: at queue saturation, new work is
//!   answered inline by the ladder's validated greedy stage
//!   (`BestEffort`/`Solved`) rather than waiting for ladder capacity
//!   that is not coming, and solution-cache hits are served
//!   unconditionally;
//! - **fault tolerance**: panic-isolated workers that answer
//!   terminally *before* dying and are respawned by a supervisor,
//!   client-disconnect cancellation wired into the solver's
//!   [`Budget`](tela_model::Budget) cancel flag, and a shutdown path
//!   that drains the queue into honest rejections;
//! - **a solution cache** keyed by canonical problem fingerprints
//!   ([`tela_model::CanonicalForm`]) that serves structurally identical
//!   problems — renamed buffers, shifted schedules — without entering
//!   the solve path at all.
//!
//! The invariant every layer upholds: **every request receives exactly
//! one terminal response** (`solved`, `infeasible`, `best_effort`,
//! `rejected`, or `timed_out`), counted in [`ServerStats`], the one
//! store of server counts, whether or not tracing is on. See
//! `DESIGN.md` §10.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
mod server;

pub use admission::{Admission, AdmissionController, TenantConfig, TenantStats};
pub use cache::SolutionCache;
pub use client::Client;
pub use protocol::{Command, CommandKind, Payload, Request, Response, Status};
pub use queue::{Pop, Push, WorkQueue};
pub use server::{Server, ServerConfig, ServerStats};
