//! Learned portfolio-variant ranking.
//!
//! The adaptive portfolio (telamalloc's `AdaptiveConfig`) seeds its
//! race with the variants a learned model predicts will settle the
//! instance fastest. This module holds the deployable side of that
//! model: one [`Gbt`] per portfolio variant, each regressing a *utility*
//! (see [`crate::selfplay::utility`]) from the instance's
//! [`InstanceStats::feature_vector`](tela_model::InstanceStats).
//!
//! Like the backtrack model (§6.1), the ranker is frozen at build time:
//! [`PortfolioRanker::embedded`] parses the text model committed at
//! `crates/learned/models/portfolio_ranker.txt`, which
//! `cargo run --release -p tela-learned --bin train_ranker` regenerates
//! from suite self-play.
//!
//! Format (wrapping the [`crate::persist`] GBT format):
//!
//! ```text
//! portfolio-ranker v1 <n_variants> <n_features>
//! variant <name> <gbt_line_count>
//! gbt v1 ...
//! ...
//! ```

use std::sync::Arc;

use tela_model::InstanceStats;
use telamalloc::{PortfolioVariant, VariantRanker};

use crate::gbt::Gbt;
use crate::persist::ModelParseError;

/// The committed production ranker model, embedded at compile time.
const EMBEDDED_MODEL: &str = include_str!("../models/portfolio_ranker.txt");

/// A per-variant utility model implementing telamalloc's
/// [`VariantRanker`].
///
/// Variants are matched *by name*: a variant whose name the model has
/// never seen scores the neutral midpoint of the known scores, so novel
/// variants are neither favored nor starved.
#[derive(Debug, Clone)]
pub struct PortfolioRanker {
    /// `(variant name, utility model)`, in training order.
    models: Vec<(String, Gbt)>,
}

impl PortfolioRanker {
    /// Builds a ranker from per-variant models.
    pub fn new(models: Vec<(String, Gbt)>) -> Self {
        PortfolioRanker { models }
    }

    /// The committed production model
    /// (`crates/learned/models/portfolio_ranker.txt`).
    ///
    /// # Panics
    ///
    /// Panics if the committed model file is malformed — a build-time
    /// artifact error, caught by this crate's tests.
    pub fn embedded() -> Self {
        Self::from_text(EMBEDDED_MODEL).expect("committed ranker model parses")
    }

    /// Number of per-variant models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when the ranker holds no models (every score is neutral).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The variant names the ranker was trained on.
    pub fn variant_names(&self) -> impl Iterator<Item = &str> {
        self.models.iter().map(|(name, _)| name.as_str())
    }

    /// The predicted utility of `variant_name` on an instance with
    /// `features`, if the ranker knows the variant.
    pub fn predict(&self, variant_name: &str, features: &[f64]) -> Option<f64> {
        self.models
            .iter()
            .find(|(name, _)| name == variant_name)
            .map(|(_, model)| model.predict(features))
    }

    /// Wraps the ranker for [`telamalloc::AdaptiveConfig::ranker`].
    pub fn into_shared(self) -> Arc<dyn VariantRanker> {
        Arc::new(self)
    }

    /// Serializes to the wrapped text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "portfolio-ranker v1 {} {}",
            self.models.len(),
            InstanceStats::FEATURE_COUNT
        );
        for (name, model) in &self.models {
            let body = model.to_text();
            let _ = writeln!(out, "variant {name} {}", body.lines().count());
            out.push_str(&body);
        }
        out
    }

    /// Parses the wrapped text format.
    ///
    /// # Errors
    ///
    /// Returns [`ModelParseError`] on malformed input, including a
    /// feature-count mismatch against the current
    /// [`InstanceStats::FEATURE_COUNT`] (a model trained against an
    /// older feature vector must be retrained, not silently misread).
    pub fn from_text(text: &str) -> Result<Self, ModelParseError> {
        let err = |line: usize, reason: &str| ModelParseError {
            line,
            reason: reason.to_string(),
        };
        let lines: Vec<&str> = text.lines().collect();
        let header = lines.first().ok_or_else(|| err(1, "empty ranker model"))?;
        let mut h = header.split_whitespace();
        if h.next() != Some("portfolio-ranker") || h.next() != Some("v1") {
            return Err(err(1, "expected `portfolio-ranker v1` header"));
        }
        let n_variants: usize = h
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(1, "bad variant count"))?;
        let n_features: usize = h
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(1, "bad feature count"))?;
        if n_features != InstanceStats::FEATURE_COUNT {
            return Err(err(
                1,
                &format!(
                    "model has {n_features} features but this build expects {}; retrain",
                    InstanceStats::FEATURE_COUNT
                ),
            ));
        }
        let mut models = Vec::with_capacity(n_variants);
        let mut at = 1usize; // next unread line index
        for _ in 0..n_variants {
            let vline = lines
                .get(at)
                .ok_or_else(|| err(at + 1, "missing `variant` header"))?;
            let mut v = vline.split_whitespace();
            if v.next() != Some("variant") {
                return Err(err(at + 1, "expected `variant <name> <lines>`"));
            }
            let name = v
                .next()
                .ok_or_else(|| err(at + 1, "missing variant name"))?
                .to_string();
            let body_lines: usize = v
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(at + 1, "bad variant line count"))?;
            let start = at + 1;
            let end = start + body_lines;
            if end > lines.len() {
                return Err(err(at + 1, "variant body exceeds file length"));
            }
            let body = lines[start..end].join("\n");
            let model = Gbt::from_text(&body).map_err(|e| ModelParseError {
                line: start + e.line,
                reason: format!("variant `{name}`: {}", e.reason),
            })?;
            models.push((name, model));
            at = end;
        }
        Ok(PortfolioRanker { models })
    }
}

impl VariantRanker for PortfolioRanker {
    fn scores(&self, features: &[f64], variants: &[PortfolioVariant]) -> Vec<f64> {
        let known: Vec<Option<f64>> = variants
            .iter()
            .map(|v| self.predict(&v.name, features))
            .collect();
        // Unknown variants get the midpoint of the known range: neutral
        // rather than best or worst, so a renamed or novel variant still
        // competes through the bandit's exploration bonus.
        let (lo, hi) = known
            .iter()
            .flatten()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        let neutral = if lo.is_finite() { (lo + hi) / 2.0 } else { 0.0 };
        known.into_iter().map(|s| s.unwrap_or(neutral)).collect()
    }
}

/// Saves a ranker to disk in the wrapped text format.
///
/// # Errors
///
/// Returns any I/O error from writing `path`.
pub fn save_ranker(ranker: &PortfolioRanker, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, ranker.to_text())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbt::GbtParams;
    use telamalloc::TelaConfig;

    fn toy_model(slope: f64) -> Gbt {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut r = vec![0.0; InstanceStats::FEATURE_COUNT];
                r[0] = f64::from(i);
                r
            })
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| r[0] * slope).collect();
        Gbt::fit(
            &rows,
            &targets,
            &GbtParams {
                n_trees: 4,
                ..GbtParams::default()
            },
        )
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let ranker = PortfolioRanker::new(vec![
            ("telamalloc".to_string(), toy_model(1.0)),
            ("max-size/fixed-step".to_string(), toy_model(-0.5)),
        ]);
        let restored = PortfolioRanker::from_text(&ranker.to_text()).expect("round trip");
        assert_eq!(restored.len(), 2);
        let mut x = vec![0.0; InstanceStats::FEATURE_COUNT];
        x[0] = 17.0;
        for name in ["telamalloc", "max-size/fixed-step"] {
            assert_eq!(ranker.predict(name, &x), restored.predict(name, &x));
        }
    }

    #[test]
    fn unknown_variants_score_the_neutral_midpoint() {
        let ranker = PortfolioRanker::new(vec![
            ("a".to_string(), toy_model(1.0)),
            ("b".to_string(), toy_model(3.0)),
        ]);
        let variants: Vec<PortfolioVariant> = ["a", "b", "mystery"]
            .iter()
            .map(|n| PortfolioVariant {
                name: n.to_string(),
                config: TelaConfig::default(),
            })
            .collect();
        let mut x = vec![0.0; InstanceStats::FEATURE_COUNT];
        x[0] = 10.0;
        let scores = ranker.scores(&x, &variants);
        assert_eq!(scores.len(), 3);
        let midpoint = (scores[0].min(scores[1]) + scores[0].max(scores[1])) / 2.0;
        assert!((scores[2] - midpoint).abs() < 1e-9);
    }

    #[test]
    fn feature_count_mismatch_is_rejected() {
        let ranker = PortfolioRanker::new(vec![("a".to_string(), toy_model(1.0))]);
        let text = ranker.to_text().replacen(
            &format!("v1 1 {}", InstanceStats::FEATURE_COUNT),
            "v1 1 3",
            1,
        );
        let e = PortfolioRanker::from_text(&text).unwrap_err();
        assert!(e.reason.contains("retrain"), "{e}");
    }

    #[test]
    fn malformed_header_rejected() {
        assert!(PortfolioRanker::from_text("nonsense").is_err());
        assert!(PortfolioRanker::from_text("").is_err());
    }

    #[test]
    fn truncated_body_rejected() {
        let ranker = PortfolioRanker::new(vec![("a".to_string(), toy_model(1.0))]);
        let text = ranker.to_text();
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(PortfolioRanker::from_text(&truncated).is_err());
    }

    #[test]
    fn embedded_model_parses_and_covers_default_variants() {
        let ranker = PortfolioRanker::embedded();
        assert!(!ranker.is_empty(), "committed model must hold models");
        let variants = telamalloc::default_variants(&TelaConfig::default());
        for v in &variants {
            assert!(
                ranker.variant_names().any(|n| n == v.name),
                "committed model is missing variant `{}` — rerun train_ranker",
                v.name
            );
        }
    }
}
