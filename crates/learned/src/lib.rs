//! Learned backtracking for TelaMalloc (paper §6).
//!
//! A gradient-boosted-tree model, trained by imitation learning against
//! an exact-solver oracle, predicts where a major backtrack should land.
//! The model only runs on major backtracks — rare for well-behaved
//! inputs, frequent exactly when the search is stuck — so its cost is
//! paid where its payoff is largest (§6.1).
//!
//! Pipeline (Figure 11):
//!
//! 1. [`collect`] — run TelaMalloc in a special mode that records every
//!    major backtrack and randomizes its choice between the regular
//!    strategy and the oracle (50/50), producing labelled samples via
//!    the §6.3/§6.4 best/minimum-target scoring.
//! 2. [`gbt`] — fit a 100-tree gradient-boosted regression forest to the
//!    scores (the Yggdrasil replacement, built from scratch).
//! 3. [`policy::LearnedPolicy`] — plug the frozen model into the search
//!    as a [`telamalloc::BacktrackPolicy`]; it batches all candidate
//!    targets per backtrack and falls back to the default strategy when
//!    no score clears the confidence threshold (§6.5).
//! 4. [`importance`] — permutation feature importance for the Figure 17
//!    analysis.
//!
//! # Example
//!
//! ```
//! use tela_learned::{train_policy, TrainOptions};
//! use tela_model::{examples, Budget};
//!
//! // Train on a (tiny) problem set and get a deployable policy.
//! let problems = vec![("fig1".to_string(), examples::figure1())];
//! let policy = train_policy(&problems, &TrainOptions::default());
//! // A policy always comes back, even if no backtracks were harvested.
//! let _ = policy;
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collect;
pub mod gate;
pub mod gbt;
pub mod importance;
pub mod oracle;
pub mod persist;
pub mod policy;

pub use collect::{collect_dataset, collect_samples, CollectConfig, Sample};
pub use gate::GatedPolicy;
pub use gbt::{Gbt, GbtParams};
pub use importance::permutation_importance;
pub use policy::LearnedPolicy;

use tela_model::{Budget, Problem};
use telamalloc::TelaConfig;

/// End-to-end training options for [`train_policy`].
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Memory slack percents at which each problem is replayed (§6.5
    /// varies the maximum memory for extra variation).
    pub slack_percents: Vec<u32>,
    /// Search budget per collection run.
    pub search_budget: Budget,
    /// Collection configuration (oracle budget, mixing probability).
    pub collect: CollectConfig,
    /// TelaMalloc configuration used during collection.
    pub tela: TelaConfig,
    /// Model hyperparameters.
    pub gbt: GbtParams,
    /// RNG seed for the whole pipeline.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            slack_percents: vec![0, 2, 5, 10],
            search_budget: Budget::steps(100_000),
            collect: CollectConfig::default(),
            tela: TelaConfig::default(),
            gbt: GbtParams::default(),
            seed: 0x7E1A,
        }
    }
}

/// Collects a dataset over `problems` and trains a deployable
/// [`LearnedPolicy`] (Figure 11, end to end).
///
/// If collection harvests no samples (no search ever major-backtracked),
/// a trivial constant model is fit so the returned policy always falls
/// back to the default strategy — matching the production requirement
/// that the allocator behaves consistently regardless of training luck.
pub fn train_policy(problems: &[(String, Problem)], options: &TrainOptions) -> LearnedPolicy {
    let samples = collect_dataset(
        problems,
        &options.slack_percents,
        &options.search_budget,
        &options.tela,
        &options.collect,
        options.seed,
    );
    train_policy_from_samples(&samples, &options.gbt)
}

/// Trains a policy from pre-collected samples.
pub fn train_policy_from_samples(samples: &[Sample], params: &GbtParams) -> LearnedPolicy {
    if samples.is_empty() {
        // Constant zero model: every score is below the confidence
        // threshold, so the policy always falls back.
        let rows = vec![vec![0.0; telamalloc::TargetFeatures::LEN]];
        let targets = vec![0.0];
        let model = Gbt::fit(
            &rows,
            &targets,
            &GbtParams {
                n_trees: 1,
                ..*params
            },
        );
        return LearnedPolicy::new(model);
    }
    let rows: Vec<Vec<f64>> = samples.iter().map(|s| s.features.to_vec()).collect();
    let targets: Vec<f64> = samples.iter().map(|s| s.score).collect();
    LearnedPolicy::new(Gbt::fit(&rows, &targets, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::examples;

    #[test]
    fn empty_training_yields_fallback_policy() {
        let policy = train_policy_from_samples(&[], &GbtParams::default());
        assert_eq!(policy.model().num_trees(), 1);
    }

    #[test]
    fn training_on_easy_problems_still_returns_policy() {
        let problems = vec![("tiny".to_string(), examples::tiny())];
        let options = TrainOptions {
            slack_percents: vec![10],
            search_budget: Budget::steps(10_000),
            ..TrainOptions::default()
        };
        let policy = train_policy(&problems, &options);
        assert!(policy.model().num_trees() >= 1);
    }
}
