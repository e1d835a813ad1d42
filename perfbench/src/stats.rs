//! Percentiles, per-layer self-time accounting, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Self time per layer: one sample per request that entered the layer,
/// in milliseconds. Layers are keyed by their metric name stem (e.g.
/// `server.protocol.parse`).
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, layer: &'static str, ms: f64) {
        self.samples.entry(layer).or_default().push(ms);
    }

    pub fn total(&self, layer: &str) -> f64 {
        self.samples.get(layer).map_or(0.0, |s| s.iter().sum())
    }

    /// Appends every sample to `into`.
    pub fn merge_into(&self, into: &mut Layers) {
        for (layer, samples) in &self.samples {
            into.samples.entry(layer).or_default().extend(samples);
        }
    }

    /// Sum over every layer.
    pub fn sum(&self) -> f64 {
        self.samples.values().flatten().sum()
    }

    /// `(p50, p99)` of the layer's per-request self times (zero when the
    /// workload never entered it).
    pub fn quantiles(&self, layer: &str) -> (f64, f64) {
        let mut v = self.samples.get(layer).cloned().unwrap_or_default();
        v.sort_by(f64::total_cmp);
        (percentile(&v, 0.5), percentile(&v, 0.99))
    }

    /// Layers by descending total self time.
    pub fn ranked(&self) -> Vec<(&'static str, usize, f64)> {
        let mut out: Vec<_> = self
            .samples
            .iter()
            .map(|(k, v)| (*k, v.len(), v.iter().sum::<f64>()))
            .collect();
        out.sort_by(|a, b| b.2.total_cmp(&a.2));
        out
    }

    /// Prints the attribution table to stderr: each layer's share of
    /// `total_ms`, the traced end-to-end time.
    pub fn print(&self, title: &str, total_ms: f64) {
        eprintln!("# {title}: {total_ms:.1} ms traced end to end");
        for (layer, count, sum) in self.ranked() {
            let (p50, p99) = self.quantiles(layer);
            eprintln!(
                "#   {layer:<28} n={count:<6} total={sum:>10.2} ms ({:>5.1}%)  p50={p50:.4}  p99={p99:.4}",
                100.0 * sum / total_ms.max(1e-12)
            );
        }
    }
}

/// The benchmark's result: what was attempted, what failed, and every
/// metric by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and failed self-checks; any entry makes the run
    /// incorrect.
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds `<layer>_ms.p50` and `<layer>_ms.p99`.
    pub fn layer(&mut self, layers: &Layers, layer: &str) {
        let (p50, p99) = layers.quantiles(layer);
        self.metric(format!("{layer}_ms.p50"), p50, "ms");
        self.metric(format!("{layer}_ms.p99"), p99, "ms");
    }

    pub fn error(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("ERROR: {message}");
        self.errors.push(message);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The one-line JSON result. Non-finite values make the run
    /// incorrect rather than emitting invalid JSON.
    pub fn result_line(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, v, _)| format!("metric {n} is {v}"))
            .collect();
        for message in bad {
            self.error(message);
        }
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_renders_one_json_object() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.5, "ms");
        r.metric("setup_s", 0.25, "s");
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.metric("bad", f64::NAN, "ms");
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
