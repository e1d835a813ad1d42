//! The [`Tracer`] handle and its shared sink.
//!
//! A `Tracer` is a cheap, cloneable handle; all clones share one event
//! sink, one sequence counter, and one [`MetricsRegistry`]. A disabled
//! tracer holds no allocation at all, and every recording method starts
//! with the same one-branch `enabled()` check, so the disabled path
//! costs a predicted-not-taken branch and nothing else — callers that
//! would have to build strings or vectors for the fields should guard
//! with [`Tracer::enabled`] first.
//!
//! Two clocks are supported: [`ClockMode::Wall`] stamps events with
//! nanoseconds since trace start, while [`ClockMode::Logical`] stamps
//! each event with its own sequence number. Logical traces from a
//! deterministic (single-threaded, seeded) solve are byte-identical
//! across runs, which is what makes timelines replayable and diffable
//! in CI.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, FieldName, Phase, SpanId, Value};
use crate::metrics::{MetricEntry, MetricsRegistry};

/// How event timestamps are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Nanoseconds since the tracer was created. Real durations, but
    /// different on every run.
    Wall,
    /// The event's own sequence number. Deterministic: identical solves
    /// produce identical traces.
    Logical,
}

impl ClockMode {
    /// The tag used in the JSONL header (`"wall"` / `"logical"`).
    pub fn tag(self) -> &'static str {
        match self {
            ClockMode::Wall => "wall",
            ClockMode::Logical => "logical",
        }
    }
}

#[derive(Debug)]
struct Shared {
    mode: ClockMode,
    start: Instant,
    seq: AtomicU64,
    sink: Mutex<Vec<Event>>,
    metrics: MetricsRegistry,
}

impl Shared {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn ts_for(&self, seq: u64) -> u64 {
        match self.mode {
            ClockMode::Logical => seq,
            ClockMode::Wall => self.start.elapsed().as_nanos() as u64,
        }
    }

    fn push(&self, event: Event) {
        self.sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }
}

/// A complete snapshot of a trace: events in sequence order plus the
/// final metrics.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The clock mode the trace was recorded under.
    pub clock: ClockMode,
    /// All events, sorted by `seq`.
    pub events: Vec<Event>,
    /// Name-ordered metric series.
    pub metrics: Vec<MetricEntry>,
}

/// Cheap, cloneable tracing handle.
///
/// `Tracer::disabled()` (also `Default`) records nothing and allocates
/// nothing; enabled tracers share their sink across clones so every
/// layer of a solve writes into one timeline.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
    /// Fields appended to every event this handle records (see
    /// [`Tracer::with_field`]). `None` for plain handles, so the common
    /// case pays nothing — not even an empty-slice iteration.
    common: Option<Arc<Vec<(FieldName, Value)>>>,
}

impl Tracer {
    /// A tracer that records nothing. All methods are near-free no-ops.
    pub fn disabled() -> Self {
        Tracer {
            inner: None,
            common: None,
        }
    }

    fn with_mode(mode: ClockMode) -> Self {
        Tracer {
            inner: Some(Arc::new(Shared {
                mode,
                start: Instant::now(),
                seq: AtomicU64::new(0),
                sink: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            })),
            common: None,
        }
    }

    /// An enabled tracer using the deterministic logical clock.
    pub fn logical() -> Self {
        Tracer::with_mode(ClockMode::Logical)
    }

    /// An enabled tracer using wall-clock timestamps.
    pub fn wall() -> Self {
        Tracer::with_mode(ClockMode::Wall)
    }

    /// Builds a tracer from the `TELA_TRACE` environment variable:
    /// unset/`0` → disabled, `logical` → logical clock, anything else
    /// (`1`, `wall`, ...) → wall clock.
    pub fn from_env() -> Self {
        match std::env::var("TELA_TRACE") {
            Err(_) => Tracer::disabled(),
            Ok(v) => match v.as_str() {
                "" | "0" => Tracer::disabled(),
                "logical" => Tracer::logical(),
                _ => Tracer::wall(),
            },
        }
    }

    /// True when this tracer records events. Call sites that must build
    /// field values (strings, vectors) should check this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle that appends `(name, value)` to every event it records,
    /// on top of any fields inherited from `self`. The sink, sequence
    /// counter, and metrics registry stay shared — only the event
    /// decoration differs — so a server can hand each request a
    /// `tracer.with_field("request", id)` handle and every span and
    /// instant the solve emits through it carries the request id,
    /// joinable across request → ladder stage → CP engine.
    ///
    /// On a disabled tracer this is free and returns another disabled
    /// handle.
    pub fn with_field(&self, name: impl Into<FieldName>, value: impl Into<Value>) -> Tracer {
        if self.inner.is_none() {
            return Tracer::disabled();
        }
        let mut fields: Vec<(FieldName, Value)> =
            self.common.as_deref().cloned().unwrap_or_default();
        fields.push((name.into(), value.into()));
        Tracer {
            inner: self.inner.clone(),
            common: Some(Arc::new(fields)),
        }
    }

    /// Appends this handle's common fields (if any) to `fields`.
    #[inline]
    fn decorate(&self, fields: &mut Vec<(FieldName, Value)>) {
        if let Some(common) = &self.common {
            fields.extend(common.iter().cloned());
        }
    }

    /// The clock mode, or `None` when disabled. Call sites recording
    /// real wall-clock durations as metrics should skip them under
    /// [`ClockMode::Logical`] to keep deterministic traces diffable.
    pub fn clock(&self) -> Option<ClockMode> {
        self.inner.as_ref().map(|s| s.mode)
    }

    /// Records a point event.
    #[inline]
    pub fn instant(
        &self,
        layer: &'static str,
        name: &'static str,
        mut fields: Vec<(FieldName, Value)>,
    ) {
        if let Some(shared) = &self.inner {
            self.decorate(&mut fields);
            let seq = shared.next_seq();
            shared.push(Event {
                seq,
                ts: shared.ts_for(seq),
                phase: Phase::Instant,
                span: 0,
                layer: layer.into(),
                name: name.into(),
                fields,
            });
        }
    }

    /// Opens a span; the returned handle must be passed to [`Tracer::end`].
    #[inline]
    pub fn begin(
        &self,
        layer: &'static str,
        name: &'static str,
        mut fields: Vec<(FieldName, Value)>,
    ) -> SpanId {
        match &self.inner {
            None => SpanId::NULL,
            Some(shared) => {
                self.decorate(&mut fields);
                let seq = shared.next_seq();
                let ts = shared.ts_for(seq);
                shared.push(Event {
                    seq,
                    ts,
                    phase: Phase::Begin,
                    span: seq,
                    layer: layer.into(),
                    name: name.into(),
                    fields,
                });
                SpanId { id: seq, ts }
            }
        }
    }

    /// Closes a span opened by [`Tracer::begin`], recording a `dur`
    /// field (in clock units) alongside any caller-supplied fields.
    #[inline]
    pub fn end(
        &self,
        span: SpanId,
        layer: &'static str,
        name: &'static str,
        mut fields: Vec<(FieldName, Value)>,
    ) {
        if span.is_null() {
            return;
        }
        if let Some(shared) = &self.inner {
            self.decorate(&mut fields);
            let seq = shared.next_seq();
            let ts = shared.ts_for(seq);
            fields.push(("dur".into(), Value::U64(ts.saturating_sub(span.ts))));
            shared.push(Event {
                seq,
                ts,
                phase: Phase::End,
                span: span.id,
                layer: layer.into(),
                name: name.into(),
                fields,
            });
        }
    }

    /// Adds `delta` to the counter `name` (no-op when disabled).
    #[inline]
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(shared) = &self.inner {
            shared.metrics.add(name, delta);
        }
    }

    /// Sets the gauge `name` (no-op when disabled).
    #[inline]
    pub fn set_gauge(&self, name: &str, value: i64) {
        if let Some(shared) = &self.inner {
            shared.metrics.set_gauge(name, value);
        }
    }

    /// Adds `delta` (possibly negative) to the gauge `name` (no-op when
    /// disabled). See [`MetricsRegistry::add_gauge`].
    #[inline]
    pub fn add_gauge(&self, name: &str, delta: i64) {
        if let Some(shared) = &self.inner {
            shared.metrics.add_gauge(name, delta);
        }
    }

    /// Records `value` into the histogram `name` (no-op when disabled).
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(shared) = &self.inner {
            shared.metrics.observe(name, value);
        }
    }

    /// A per-thread buffer that batches events locally and flushes them
    /// into the shared sink in one lock acquisition. Sequence numbers
    /// are still drawn from the shared counter at record time, so the
    /// merged trace stays totally ordered no matter when buffers flush.
    pub fn buffer(&self) -> TraceBuffer {
        TraceBuffer {
            tracer: self.clone(),
            pending: Vec::new(),
        }
    }

    /// Snapshots the trace so far: events sorted by seq plus metrics.
    /// Returns `None` for a disabled tracer.
    pub fn snapshot(&self) -> Option<Trace> {
        let shared = self.inner.as_ref()?;
        let mut events = shared
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        events.sort_by_key(|e| e.seq);
        Some(Trace {
            clock: shared.mode,
            events,
            metrics: shared.metrics.snapshot(),
        })
    }
}

/// Per-thread event buffer created by [`Tracer::buffer`].
///
/// Worker threads record through the buffer to avoid contending on the
/// shared sink lock per event; the batch is flushed on [`flush`]
/// (or drop). Metrics go straight to the shared registry.
///
/// [`flush`]: TraceBuffer::flush
#[derive(Debug)]
pub struct TraceBuffer {
    tracer: Tracer,
    pending: Vec<Event>,
}

impl TraceBuffer {
    /// True when the owning tracer records events.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// The tracer this buffer flushes into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records a point event into the local batch.
    #[inline]
    pub fn instant(
        &mut self,
        layer: &'static str,
        name: &'static str,
        mut fields: Vec<(FieldName, Value)>,
    ) {
        if let Some(shared) = &self.tracer.inner {
            self.tracer.decorate(&mut fields);
            let seq = shared.next_seq();
            self.pending.push(Event {
                seq,
                ts: shared.ts_for(seq),
                phase: Phase::Instant,
                span: 0,
                layer: layer.into(),
                name: name.into(),
                fields,
            });
        }
    }

    /// Opens a span recorded into the local batch.
    #[inline]
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        mut fields: Vec<(FieldName, Value)>,
    ) -> SpanId {
        match &self.tracer.inner {
            None => SpanId::NULL,
            Some(shared) => {
                self.tracer.decorate(&mut fields);
                let seq = shared.next_seq();
                let ts = shared.ts_for(seq);
                self.pending.push(Event {
                    seq,
                    ts,
                    phase: Phase::Begin,
                    span: seq,
                    layer: layer.into(),
                    name: name.into(),
                    fields,
                });
                SpanId { id: seq, ts }
            }
        }
    }

    /// Closes a span, recording `dur` like [`Tracer::end`].
    #[inline]
    pub fn end(
        &mut self,
        span: SpanId,
        layer: &'static str,
        name: &'static str,
        mut fields: Vec<(FieldName, Value)>,
    ) {
        if span.is_null() {
            return;
        }
        if let Some(shared) = &self.tracer.inner {
            self.tracer.decorate(&mut fields);
            let seq = shared.next_seq();
            let ts = shared.ts_for(seq);
            fields.push(("dur".into(), Value::U64(ts.saturating_sub(span.ts))));
            self.pending.push(Event {
                seq,
                ts,
                phase: Phase::End,
                span: span.id,
                layer: layer.into(),
                name: name.into(),
                fields,
            });
        }
    }

    /// Moves all batched events into the shared sink.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Some(shared) = &self.tracer.inner {
            let mut sink = shared
                .sink
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            sink.append(&mut self.pending);
        } else {
            self.pending.clear();
        }
    }
}

impl Drop for TraceBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let span = t.begin("test", "s", vec![]);
        assert!(span.is_null());
        t.end(span, "test", "s", vec![]);
        t.instant("test", "i", vec![]);
        t.count("c", 1);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn logical_clock_is_seq() {
        let t = Tracer::logical();
        let span = t.begin("test", "s", vec![]);
        t.instant("test", "i", vec![("k".into(), Value::U64(1))]);
        t.end(span, "test", "s", vec![]);
        let trace = t.snapshot().unwrap();
        assert_eq!(trace.clock, ClockMode::Logical);
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        for e in &trace.events {
            assert_eq!(e.ts, e.seq);
        }
        let end = &trace.events[2];
        assert_eq!(end.phase, Phase::End);
        assert_eq!(end.span, 1);
        // dur = end ts (3) - begin ts (1).
        assert_eq!(end.field("dur").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::logical();
        let t2 = t.clone();
        t.instant("a", "x", vec![]);
        t2.instant("b", "y", vec![]);
        let trace = t.snapshot().unwrap();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].layer, "a");
        assert_eq!(trace.events[1].layer, "b");
    }

    #[test]
    fn buffer_flushes_with_global_order() {
        let t = Tracer::logical();
        let mut buf = t.buffer();
        t.instant("main", "before", vec![]);
        buf.instant("worker", "work", vec![]);
        t.instant("main", "after", vec![]);
        // Worker event not yet visible.
        assert_eq!(t.snapshot().unwrap().events.len(), 2);
        buf.flush();
        let trace = t.snapshot().unwrap();
        let names: Vec<&str> = trace.events.iter().map(|e| e.name.as_ref()).collect();
        // Sorted by seq: the worker event interleaves where it happened.
        assert_eq!(names, vec!["before", "work", "after"]);
    }

    #[test]
    fn buffer_spans_record_dur() {
        let t = Tracer::logical();
        let mut buf = t.buffer();
        let span = buf.begin("worker", "s", vec![]);
        buf.instant("worker", "i", vec![]);
        buf.end(span, "worker", "s", vec![]);
        drop(buf);
        let trace = t.snapshot().unwrap();
        assert_eq!(
            trace.events[2].field("dur").and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn metrics_flow_through_tracer() {
        let t = Tracer::logical();
        t.count("c", 2);
        t.count("c", 3);
        t.set_gauge("g", 7);
        t.add_gauge("g", -2);
        t.observe("h", 4);
        let trace = t.snapshot().unwrap();
        assert_eq!(trace.metrics.len(), 3);
        assert_eq!(trace.metrics[0].value.as_counter(), Some(5));
        assert_eq!(trace.metrics[1].value, MetricValue::Gauge(5));
        // Disabled tracers drop gauge deltas without side effects.
        Tracer::disabled().add_gauge("g", 1);
    }

    #[test]
    fn with_field_decorates_every_event() {
        let t = Tracer::logical();
        let req = t.with_field("request", 7u64);
        let span = req.begin("server", "request", vec![]);
        req.instant("server", "tick", vec![("k".into(), Value::U64(1))]);
        req.end(span, "server", "request", vec![]);
        // Buffers created from the decorated handle inherit the field.
        let mut buf = req.buffer();
        buf.instant("worker", "w", vec![]);
        buf.flush();
        // The plain handle stays undecorated and shares the sink.
        t.instant("main", "plain", vec![]);
        let trace = t.snapshot().unwrap();
        assert_eq!(trace.events.len(), 5);
        for e in &trace.events[..4] {
            assert_eq!(e.field("request").and_then(Value::as_u64), Some(7));
        }
        assert!(trace.events[4].field("request").is_none());
        // Caller fields come first, common fields after, dur last.
        let end = &trace.events[2];
        assert_eq!(end.fields.last().unwrap().0, "dur");
    }

    #[test]
    fn with_field_stacks_and_is_free_when_disabled() {
        let t = Tracer::logical();
        let inner = t.with_field("a", 1u64).with_field("b", 2u64);
        inner.instant("test", "i", vec![]);
        let e = &t.snapshot().unwrap().events[0];
        assert_eq!(e.field("a").and_then(Value::as_u64), Some(1));
        assert_eq!(e.field("b").and_then(Value::as_u64), Some(2));

        let d = Tracer::disabled().with_field("a", 1u64);
        assert!(!d.enabled());
        assert!(d.common.is_none());
    }

    #[test]
    fn wall_clock_mode_tagged() {
        let t = Tracer::wall();
        t.instant("test", "i", vec![]);
        let trace = t.snapshot().unwrap();
        assert_eq!(trace.clock, ClockMode::Wall);
        assert_eq!(trace.clock.tag(), "wall");
    }
}
