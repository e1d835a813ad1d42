//! A registry of named counters, gauges, and histograms.
//!
//! Metrics complement the event stream: where events record *what
//! happened when*, metrics aggregate *how much* — propagations,
//! backtracks by kind, conflict-clique sizes, per-variant outcomes,
//! ladder stage durations. The registry is a mutex-guarded `BTreeMap`
//! keyed by series name: cheap enough for the places it is used (span
//! boundaries, conflicts, stage transitions — not the propagation inner
//! loop, whose counts are sampled from the solver's own counters at
//! span end) and deterministic to snapshot, because `BTreeMap` iterates
//! in name order.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Power-of-two bucketed histogram summary.
///
/// Bucket `i` counts values `v` with `floor(log2(max(v, 1))) == i`,
/// capped at the last bucket. Good enough to see the shape of
/// conflict-clique sizes or stage durations without storing samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Log2 bucket counts.
    pub buckets: [u64; Histogram::BUCKETS],
}

impl Histogram {
    /// Number of log2 buckets (values above `2^15` share the last one).
    pub const BUCKETS: usize = 16;

    fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; Histogram::BUCKETS],
        }
    }

    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let bucket = (64 - value.max(1).leading_zeros() as usize - 1).min(Histogram::BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), estimated from the log2
    /// buckets; `None` when the histogram is empty.
    ///
    /// The estimate is the inclusive upper bound of the bucket holding
    /// the `ceil(q * count)`-th smallest value, clamped to the observed
    /// `[min, max]`. Because bucket `i` spans `[2^i, 2^(i+1))`, the
    /// reported value is never below the true quantile and at most 2×
    /// above it (exact for counts of 0 and 1, which share bucket 0 with
    /// upper bound 1) — tight enough to gate on order-of-magnitude
    /// latency shifts, which is all a 16-bucket summary can promise.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The overflow bucket has no upper bound; `max` is the
                // only honest estimate there (the 2× bound does not
                // hold for it).
                if i == Histogram::BUCKETS - 1 {
                    return Some(self.max);
                }
                let upper = (1u64 << (i + 1)) - 1;
                return Some(upper.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// One metric's aggregated value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-write-wins level.
    Gauge(i64),
    /// A distribution summary.
    Histogram(Histogram),
}

impl MetricValue {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram, if this is one.
    pub fn as_histogram(&self) -> Option<&Histogram> {
        match self {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// A named snapshot entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// The series name (dot-separated, e.g. `search.backtracks.minor`).
    pub name: String,
    /// The aggregated value at snapshot time.
    pub value: MetricValue,
}

/// Thread-safe registry of named metric series.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn with_series(&self, f: impl FnOnce(&mut BTreeMap<String, MetricValue>)) {
        // A poisoned registry only means some panicking thread died
        // mid-update; the counters themselves are still usable.
        let mut series = self
            .series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut series);
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    ///
    /// A series never changes type: if `name` already names a gauge or
    /// histogram, the update is dropped rather than clobbering the
    /// existing value (same rule as [`MetricsRegistry::add_gauge`] and
    /// [`MetricsRegistry::observe`]).
    pub fn add(&self, name: &str, delta: u64) {
        self.with_series(|series| {
            if let MetricValue::Counter(v) = series
                .entry(name.to_string())
                .or_insert(MetricValue::Counter(0))
            {
                *v += delta;
            }
        });
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.with_series(|series| {
            series.insert(name.to_string(), MetricValue::Gauge(value));
        });
    }

    /// Adds `delta` (possibly negative) to the gauge `name`, creating it
    /// at zero first. Lets concurrent holders track a level — a queue
    /// depth, in-flight request count — without an external read-modify-
    /// write race: the adjustment happens under the registry lock.
    ///
    /// If `name` already names a counter or histogram, the delta is
    /// dropped: a type conflict must not silently discard the existing
    /// series.
    pub fn add_gauge(&self, name: &str, delta: i64) {
        self.with_series(|series| {
            if let MetricValue::Gauge(v) = series
                .entry(name.to_string())
                .or_insert(MetricValue::Gauge(0))
            {
                *v += delta;
            }
        });
    }

    /// Records `value` into the histogram `name`, creating it if needed.
    /// Dropped if `name` already names a counter or gauge (see
    /// [`MetricsRegistry::add`]).
    pub fn observe(&self, name: &str, value: u64) {
        self.with_series(|series| {
            if let MetricValue::Histogram(h) = series
                .entry(name.to_string())
                .or_insert(MetricValue::Histogram(Histogram::new()))
            {
                h.record(value);
            }
        });
    }

    /// A name-ordered snapshot of every series.
    pub fn snapshot(&self) -> Vec<MetricEntry> {
        let series = self
            .series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        series
            .iter()
            .map(|(name, value)| MetricEntry {
                name: name.clone(),
                value: *value,
            })
            .collect()
    }
}

/// Renders a snapshot as an aligned plain-text summary table.
pub fn render_metrics(entries: &[MetricEntry]) -> String {
    let name_w = entries
        .iter()
        .map(|e| e.name.len())
        .max()
        .unwrap_or(0)
        .max("series".len());
    let mut out = format!("{:<name_w$}  value\n", "series");
    for entry in entries {
        let value = match &entry.value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => format!("{v} (gauge)"),
            MetricValue::Histogram(h) => format!(
                "n={} sum={} min={} max={} mean={:.2}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.mean()
            ),
        };
        out.push_str(&format!("{:<name_w$}  {value}\n", entry.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.add("a", 2);
        m.add("a", 3);
        m.add("b", 1);
        let snap = m.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[0].value.as_counter(), Some(5));
        assert_eq!(snap[1].value.as_counter(), Some(1));
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.set_gauge("g", 4);
        m.set_gauge("g", -2);
        assert_eq!(m.snapshot()[0].value, MetricValue::Gauge(-2));
    }

    #[test]
    fn add_gauge_accumulates_deltas() {
        let m = MetricsRegistry::new();
        m.add_gauge("depth", 3);
        m.add_gauge("depth", 2);
        m.add_gauge("depth", -4);
        assert_eq!(m.snapshot()[0].value, MetricValue::Gauge(1));
        // set_gauge still overwrites, and add_gauge adjusts from there.
        m.set_gauge("depth", 10);
        m.add_gauge("depth", -3);
        assert_eq!(m.snapshot()[0].value, MetricValue::Gauge(7));
    }

    #[test]
    fn type_conflicts_keep_the_first_registration() {
        let m = MetricsRegistry::new();
        m.add("c", 5);
        m.add_gauge("c", -3);
        m.observe("c", 9);
        assert_eq!(m.snapshot()[0].value, MetricValue::Counter(5));
        let m = MetricsRegistry::new();
        m.add_gauge("g", 2);
        m.add("g", 7);
        m.observe("g", 9);
        assert_eq!(m.snapshot()[0].value, MetricValue::Gauge(2));
        // set_gauge is the explicit overwrite and still replaces.
        m.set_gauge("g", -1);
        assert_eq!(m.snapshot()[0].value, MetricValue::Gauge(-1));
    }

    #[test]
    fn histogram_summary() {
        let m = MetricsRegistry::new();
        for v in [1, 2, 3, 100] {
            m.observe("h", v);
        }
        let snap = m.snapshot();
        let h = snap[0].value.as_histogram().unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 106);
        assert_eq!((h.min, h.max), (1, 100));
        assert!((h.mean() - 26.5).abs() < 1e-9);
        // 1 -> bucket 0; 2,3 -> bucket 1; 100 -> bucket 6.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[6], 1);
    }

    #[test]
    fn quantiles_within_one_bucket_of_truth() {
        let m = MetricsRegistry::new();
        // 100 values 1..=100: true p50 = 50, p90 = 90, p99 = 99.
        for v in 1..=100 {
            m.observe("h", v);
        }
        let snap = m.snapshot();
        let h = snap[0].value.as_histogram().unwrap();
        // 50 lands in bucket 5 ([32, 64)) -> upper bound 63.
        assert_eq!(h.quantile(0.5), Some(63));
        // 90 and 99 land in bucket 6 ([64, 128)) -> clamped to max 100.
        assert_eq!(h.quantile(0.9), Some(100));
        assert_eq!(h.quantile(0.99), Some(100));
        // Never below the true quantile, at most 2x above.
        for (q, truth) in [(0.5, 50u64), (0.9, 90), (0.99, 99)] {
            let est = h.quantile(q).unwrap();
            assert!(est >= truth && est <= truth * 2, "q={q}: {est} vs {truth}");
        }
        // Edges: empty -> None; single value is exact; q clamps.
        assert_eq!(Histogram::new().quantile(0.5), None);
        let m = MetricsRegistry::new();
        m.observe("one", 7);
        let snap = m.snapshot();
        let one = snap[0].value.as_histogram().unwrap();
        assert_eq!(one.quantile(0.0), Some(7));
        assert_eq!(one.quantile(1.0), Some(7));
        // Overflow bucket reports max (the 2x bound cannot hold there).
        let m = MetricsRegistry::new();
        m.observe("big", 1 << 20);
        let snap = m.snapshot();
        let big = snap[0].value.as_histogram().unwrap();
        assert_eq!(big.quantile(0.5), Some(1 << 20));
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let m = MetricsRegistry::new();
        m.add("z", 1);
        m.add("a", 1);
        m.add("m", 1);
        let snap = m.snapshot();
        let names: Vec<&str> = snap.iter().map(|e| e.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn render_includes_every_series() {
        let m = MetricsRegistry::new();
        m.add("steps", 12);
        m.observe("clique", 3);
        m.set_gauge("peak", 7);
        let text = render_metrics(&m.snapshot());
        assert!(text.contains("steps"));
        assert!(text.contains("12"));
        assert!(text.contains("n=1"));
        assert!(text.contains("(gauge)"));
    }
}
