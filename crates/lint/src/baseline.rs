//! The ratchet: known violations live in a committed
//! `lint-baseline.json`, keyed `rule → file → count`. CI fails on *new*
//! violations (count above baseline) and on a *stale* baseline (count
//! below, or an entry whose file is clean) — so the only way the file
//! changes is downward, via `--update-baseline` after a real fix.
//!
//! Counts are per `(rule, file)` rather than per line on purpose:
//! editing unrelated code in a file moves line numbers constantly, and
//! a line-keyed baseline would churn on every refactor. Count-keyed
//! entries are stable until someone actually adds or removes a
//! violation.

use std::collections::BTreeMap;

use tela_trace::json::{self, Value};

use crate::rules::Diagnostic;

/// Baseline contents: `rule → file → violation count`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    pub rules: BTreeMap<String, BTreeMap<String, u64>>,
}

/// Outcome of comparing a fresh scan against the committed baseline.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// `(rule, file, baselined, found)` where `found > baselined`.
    pub grown: Vec<(String, String, u64, u64)>,
    /// `(rule, file, baselined, found)` where `found < baselined`: the
    /// baseline is stale and must be regenerated to ratchet down.
    pub stale: Vec<(String, String, u64, u64)>,
}

impl BaselineDiff {
    pub fn is_clean(&self) -> bool {
        self.grown.is_empty() && self.stale.is_empty()
    }
}

impl Baseline {
    /// Builds a baseline from a scan's surviving diagnostics.
    pub fn from_diagnostics(diags: &[Diagnostic]) -> Baseline {
        let mut rules: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for d in diags {
            *rules
                .entry(d.rule.to_string())
                .or_default()
                .entry(d.path.clone())
                .or_insert(0) += 1;
        }
        Baseline { rules }
    }

    /// Total baselined violations.
    pub fn total(&self) -> u64 {
        self.rules.values().flat_map(|m| m.values()).sum()
    }

    /// Baselined count for one `(rule, file)`.
    pub fn count(&self, rule: &str, file: &str) -> u64 {
        self.rules
            .get(rule)
            .and_then(|m| m.get(file))
            .copied()
            .unwrap_or(0)
    }

    /// Compares `fresh` (a new scan) against `self` (the committed
    /// ratchet).
    pub fn diff(&self, fresh: &Baseline) -> BaselineDiff {
        let mut out = BaselineDiff::default();
        let mut keys: Vec<(String, String)> = Vec::new();
        for (rule, files) in self.rules.iter().chain(fresh.rules.iter()) {
            for file in files.keys() {
                let key = (rule.clone(), file.clone());
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        keys.sort();
        for (rule, file) in keys {
            let base = self.count(&rule, &file);
            let found = fresh.count(&rule, &file);
            if found > base {
                out.grown.push((rule, file, base, found));
            } else if found < base {
                out.stale.push((rule, file, base, found));
            }
        }
        out
    }

    /// Serializes to the committed JSON format: the codec's two-space
    /// pretty layout, keys sorted, and a trailing newline.
    pub fn render(&self) -> String {
        let rules = self
            .rules
            .iter()
            .map(|(rule, files)| {
                let counts = files
                    .iter()
                    .map(|(file, &count)| (file.clone(), Value::U64(count)))
                    .collect();
                (rule.clone(), Value::Object(counts))
            })
            .collect();
        let top = Value::Object(vec![
            (
                "generated-by".to_string(),
                Value::Str("tela-lint --update-baseline".to_string()),
            ),
            ("rules".to_string(), Value::Object(rules)),
            ("version".to_string(), Value::U64(1)),
        ]);
        format!("{}\n", json::render_pretty(&top))
    }

    /// Parses the committed JSON format. A repeated key reads as its
    /// last value.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.as_object().is_none() {
            return Err("baseline root must be an object".to_string());
        }
        match doc.get("version").and_then(Value::as_u64) {
            Some(1) => {}
            other => return Err(format!("unsupported baseline version {other:?}")),
        }
        let mut rules = BTreeMap::new();
        let table = doc
            .get("rules")
            .and_then(Value::as_object)
            .ok_or("baseline is missing the \"rules\" object")?;
        for (rule, files) in table {
            let files = files
                .as_object()
                .ok_or_else(|| format!("rule {rule} must map files to counts"))?;
            let mut counts = BTreeMap::new();
            for (file, count) in files {
                let n = count
                    .as_u64()
                    .ok_or_else(|| format!("count for {rule}/{file} must be a number"))?;
                counts.insert(file.clone(), n);
            }
            rules.insert(rule.clone(), counts);
        }
        Ok(Baseline { rules })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &'static str, path: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line: 1,
            col: 1,
            message: String::new(),
        }
    }

    #[test]
    fn counts_round_trip_through_json() {
        let base = Baseline::from_diagnostics(&[
            d("deterministic-clock", "crates/cp/src/search.rs"),
            d("no-solve-path-panic", "crates/cp/src/solver.rs"),
            d("no-solve-path-panic", "crates/cp/src/solver.rs"),
        ]);
        assert_eq!(base.total(), 3);
        let parsed = Baseline::parse(&base.render()).unwrap();
        assert_eq!(parsed, base);
    }

    #[test]
    fn malformed_baselines_are_errors() {
        for (text, message) in [
            ("{,}", "invalid JSON at byte 1: expected a string"),
            ("{\"version\": 1} x", "trailing content after document"),
            ("[]", "baseline root must be an object"),
            ("{\"version\": 2}", "unsupported baseline version Some(2)"),
            ("{\"version\": 1}", "missing the \"rules\" object"),
            (
                "{\"version\": 1, \"rules\": {\"r\": []}}",
                "rule r must map",
            ),
            (
                "{\"version\": 1, \"rules\": {\"r\": {\"f\": 1.0}}}",
                "count for r/f must be a number",
            ),
        ] {
            let err = Baseline::parse(text).unwrap_err();
            assert!(err.contains(message), "{text}: {err}");
        }
    }

    #[test]
    fn diff_classifies_growth_and_staleness() {
        let committed = Baseline::from_diagnostics(&[
            d("deterministic-clock", "a.rs"),
            d("deterministic-clock", "a.rs"),
            d("no-solve-path-panic", "b.rs"),
        ]);
        let fresh = Baseline::from_diagnostics(&[
            d("deterministic-clock", "a.rs"),
            d("poison-proof-locks", "c.rs"),
        ]);
        let diff = committed.diff(&fresh);
        assert_eq!(
            diff.grown,
            vec![("poison-proof-locks".to_string(), "c.rs".to_string(), 0, 1)]
        );
        assert_eq!(diff.stale.len(), 2); // a.rs 2→1, b.rs 1→0
        assert!(!diff.is_clean());
        assert!(committed.diff(&committed).is_clean());
    }
}
