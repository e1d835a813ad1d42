//! The learned backtracking policy (paper §6.5).
//!
//! On every major backtrack the policy batches the features of all
//! candidate targets through the gradient-boosted model, weights the
//! scores by depth (to discourage very far backtracks, which risk making
//! the problem unsolvable), and jumps to the highest-scoring target —
//! unless no score clears the confidence threshold, in which case it
//! falls back to staying put and trying all unplaced buffers.

use std::sync::Arc;

use telamalloc::{BacktrackChoice, BacktrackContext, BacktrackPolicy};

use crate::gbt::Gbt;

/// A [`BacktrackPolicy`] driven by a trained [`Gbt`] score model.
#[derive(Debug, Clone)]
pub struct LearnedPolicy {
    /// Shared, so the per-run clones a configuration builds are cheap.
    model: Arc<Gbt>,
    /// Minimum (depth-weighted) score required to act on the model's
    /// choice; below it, fall back to the default strategy (§6.5).
    threshold: f64,
}

impl LearnedPolicy {
    /// Default confidence threshold: valid targets are labelled in
    /// `[5, 10]`, so anything below ~4 is treated as noise.
    pub const DEFAULT_THRESHOLD: f64 = 4.0;

    /// Wraps a trained model with the default threshold.
    pub fn new(model: Gbt) -> Self {
        LearnedPolicy {
            model: Arc::new(model),
            threshold: Self::DEFAULT_THRESHOLD,
        }
    }

    /// Overrides the confidence threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &Gbt {
        &self.model
    }

    /// Depth weighting: shallower targets (far backtracks) are damped,
    /// since an overly aggressive backtrack "has the potential to cause
    /// a lot more damage than not backtracking far enough" (§6.5).
    fn depth_weight(level: usize, current: usize) -> f64 {
        if current == 0 {
            return 1.0;
        }
        0.6 + 0.4 * (level as f64 + 1.0) / current as f64
    }
}

impl BacktrackPolicy for LearnedPolicy {
    fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
        let rows: Vec<Vec<f64>> = ctx
            .targets
            .iter()
            .map(|t| t.features.to_array().to_vec())
            .collect();
        let scores = self.model.predict_batch(&rows);
        let best = ctx
            .targets
            .iter()
            .zip(&scores)
            .map(|(t, &s)| (t.level, s * Self::depth_weight(t.level, ctx.current_level)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are finite"));
        match best {
            Some((level, score)) if score >= self.threshold => BacktrackChoice::Target(level),
            _ => BacktrackChoice::StayAndTryAll,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbt::GbtParams;
    use tela_model::{examples, BufferId};
    use telamalloc::{BacktrackTarget, TargetFeatures};

    fn features(level: usize) -> TargetFeatures {
        TargetFeatures {
            size: 0.5,
            lifetime: 0.5,
            contention: 0.5,
            decision_level: level as f64,
            culprit_appearances: 1.0,
            backtracks_to_here: 0.0,
            subtree_backtracks: 0.0,
            same_region: 1.0,
            total_backtracks: 1.0,
        }
    }

    fn target(level: usize) -> BacktrackTarget {
        BacktrackTarget {
            level,
            block: BufferId::new(0),
            from_conflict: true,
            features: features(level),
        }
    }

    /// A model that scores targets by their decision level (feature 3).
    fn level_loving_model() -> Gbt {
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let mut f = features(i % 20).to_array().to_vec();
                f[3] = (i % 20) as f64;
                f
            })
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| r[3]).collect();
        Gbt::fit(
            &rows,
            &targets,
            &GbtParams {
                n_trees: 30,
                ..GbtParams::default()
            },
        )
    }

    #[test]
    fn picks_highest_scoring_target() {
        let mut policy = LearnedPolicy::new(level_loving_model()).with_threshold(0.5);
        let p = examples::figure1();
        let targets = vec![target(2), target(9), target(5)];
        let ctx = BacktrackContext {
            problem: &p,
            targets: &targets,
            path: &[],
            current_level: 12,
            total_backtracks: 3,
        };
        assert_eq!(policy.choose(&ctx), BacktrackChoice::Target(9));
    }

    #[test]
    fn falls_back_below_threshold() {
        let mut policy = LearnedPolicy::new(level_loving_model()).with_threshold(1_000.0);
        let p = examples::figure1();
        let targets = vec![target(2)];
        let ctx = BacktrackContext {
            problem: &p,
            targets: &targets,
            path: &[],
            current_level: 12,
            total_backtracks: 3,
        };
        assert_eq!(policy.choose(&ctx), BacktrackChoice::StayAndTryAll);
    }

    #[test]
    fn empty_target_list_falls_back() {
        let mut policy = LearnedPolicy::new(level_loving_model());
        let p = examples::figure1();
        let ctx = BacktrackContext {
            problem: &p,
            targets: &[],
            path: &[],
            current_level: 12,
            total_backtracks: 3,
        };
        assert_eq!(policy.choose(&ctx), BacktrackChoice::StayAndTryAll);
    }

    #[test]
    fn depth_weight_prefers_nearby_targets() {
        let near = LearnedPolicy::depth_weight(10, 12);
        let far = LearnedPolicy::depth_weight(1, 12);
        assert!(near > far);
        assert_eq!(LearnedPolicy::depth_weight(5, 0), 1.0);
    }
}
