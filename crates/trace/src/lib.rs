//! `tela-trace`: structured solver tracing and metrics for the
//! TelaMalloc reproduction.
//!
//! The crate is a zero-external-dependency observability layer shared
//! by every solver crate in the workspace:
//!
//! - [`Tracer`] — a cheap cloneable handle; clones share one event sink,
//!   one sequence counter, and one [`MetricsRegistry`]. A disabled
//!   tracer ([`Tracer::disabled`]) holds no allocation and every
//!   recording method reduces to a single branch, which is what keeps
//!   the CP propagation loop allocation-free when tracing is off.
//! - [`Event`] / [`SpanId`] — the flat, seq-ordered record vocabulary.
//!   Span begin/end pairs share an id so timelines can reconstruct
//!   nesting and durations.
//! - [`TraceBuffer`] — per-thread batching for portfolio workers:
//!   sequence numbers come from the shared atomic counter at record
//!   time, so batches merge into a totally ordered trace regardless of
//!   when they flush.
//! - [`MetricsRegistry`] — named counters, gauges, and log2-bucketed
//!   histograms, snapshotted in deterministic name order.
//! - [`write_jsonl`] / [`parse_jsonl`] — JSONL export and import; only
//!   the first (header) line carries wall-clock data, so logical-clock
//!   traces are byte-identical across identical solves.
//! - [`json`] — the workspace's one JSON codec (strict, linear,
//!   depth-limited), shared by trace JSONL, `tela-server`'s wire
//!   protocol and `tela-lint`'s baseline file.
//! - [`render_timeline`] / [`render_metrics`] — compact text renderers
//!   for humans and CI diffs.
//!
//! # Example
//!
//! ```
//! use tela_trace::{render_timeline, write_jsonl, Tracer};
//!
//! let tracer = Tracer::logical();
//! let solve = tracer.begin("search", "solve", vec![("buffers".into(), 4usize.into())]);
//! tracer.count("search.steps", 17);
//! tracer.end(solve, "search", "solve", vec![("outcome".into(), "solved".into())]);
//!
//! let trace = tracer.snapshot().unwrap();
//! let jsonl = write_jsonl(&trace);
//! assert!(jsonl.lines().count() >= 3); // header + 2 events + metrics
//! println!("{}", render_timeline(&trace));
//! ```

#![warn(missing_docs)]

mod event;
pub mod json;
mod jsonl;
mod metrics;
mod timeline;
mod tracer;

pub use event::{Event, FieldName, Phase, SpanId, Value};
pub use jsonl::{parse_jsonl, write_jsonl, ParseError};
pub use metrics::{render_metrics, Histogram, MetricEntry, MetricValue, MetricsRegistry};
pub use timeline::render_timeline;
pub use tracer::{ClockMode, Trace, TraceBuffer, Tracer};
