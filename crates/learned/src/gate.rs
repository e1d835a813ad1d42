//! A shallow decision-tree step gate (the paper's §8.3 forward-looking
//! extension).
//!
//! "We could have a single, shallow decision tree that executes at every
//! step of the search and identifies whether to run a more expensive
//! model that considers different blocks, or run a more expensive
//! heuristic. Such a decision tree may execute in tens of CPU cycles."
//!
//! [`GatedPolicy`] wraps any backtrack policy with exactly that: a
//! shallow regression tree scores each decision point from three cheap
//! features (depth fraction, unplaced fraction, log of subtree
//! backtracks); above a threshold, the engine generates the expensive
//! *full* candidate queue at that point instead of the capped strategy
//! picks. The tree is trained from the same imitation-learning samples
//! as the backtracking model: decision points that attract backtracks
//! are the ones worth widening.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use telamalloc::{BacktrackChoice, BacktrackContext, BacktrackPolicy, StepContext};

use crate::collect::Sample;
use crate::gbt::RegressionTree;

/// Number of features the gate tree consumes.
pub const GATE_FEATURES: usize = 3;

fn gate_features(ctx: &StepContext) -> [f64; GATE_FEATURES] {
    let total = ctx.total_buffers.max(1) as f64;
    [
        ctx.level as f64 / total,
        ctx.unplaced as f64 / total,
        (ctx.subtree_backtracks as f64 + 1.0).ln(),
    ]
}

/// A [`BacktrackPolicy`] wrapper adding the §8.3 step gate.
#[derive(Debug, Clone)]
pub struct GatedPolicy<P> {
    inner: P,
    tree: RegressionTree,
    threshold: f64,
    /// `(consulted, expanded)`, shared with every clone: a configuration
    /// builds one clone per search run, and they all report here.
    counters: Arc<[AtomicU64; 2]>,
}

impl<P: BacktrackPolicy> GatedPolicy<P> {
    /// Default firing threshold: the tree regresses the probability that
    /// a point of this shape attracts backtracks.
    pub const DEFAULT_THRESHOLD: f64 = 0.5;

    /// Trains the gate tree from imitation-learning samples: the label
    /// is whether the sampled target had already attracted backtracks
    /// (`backtracks_to_here > 0` — feature 5 of the §6.4 vector).
    ///
    /// Falls back to a never-firing constant tree when `samples` is
    /// empty.
    pub fn train(samples: &[Sample], inner: P) -> Self {
        let (rows, labels): (Vec<Vec<f64>>, Vec<f64>) = if samples.is_empty() {
            (vec![vec![0.0; GATE_FEATURES]], vec![0.0])
        } else {
            samples
                .iter()
                .map(|s| {
                    let f = &s.features;
                    // decision_level is raw; normalize against itself +
                    // unplaced proxy is unavailable in samples, so use
                    // the lifetime fraction as the second feature — the
                    // gate only needs a coarse signal.
                    let row = vec![
                        f[3] / (f[3] + 16.0), // depth, squashed
                        f[1],                 // lifetime fraction
                        (f[6] + 1.0).ln(),    // subtree backtracks
                    ];
                    let label = if f[5] > 0.0 { 1.0 } else { 0.0 };
                    (row, label)
                })
                .unzip()
        };
        let tree = RegressionTree::fit(&rows, &labels, 3, 4);
        GatedPolicy {
            inner,
            tree,
            threshold: Self::DEFAULT_THRESHOLD,
            counters: Arc::default(),
        }
    }

    /// Overrides the firing threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// `(consulted, expanded)` counters for reporting, summed over this
    /// policy and all its clones.
    pub fn stats(&self) -> (u64, u64) {
        let [consulted, expanded] = &*self.counters;
        (
            consulted.load(Ordering::Relaxed),
            expanded.load(Ordering::Relaxed),
        )
    }
}

impl<P: BacktrackPolicy> BacktrackPolicy for GatedPolicy<P> {
    fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
        self.inner.choose(ctx)
    }

    fn expand_candidates(&mut self, ctx: &StepContext) -> bool {
        self.counters[0].fetch_add(1, Ordering::Relaxed);
        let f = gate_features(ctx);
        // Map StepContext features onto the trained space: depth
        // squashed, unplaced fraction as the coarse second signal,
        // subtree backtracks logged.
        let row = [(ctx.level as f64) / (ctx.level as f64 + 16.0), f[1], f[2]];
        let fire = self.tree.predict(&row) >= self.threshold;
        if fire {
            self.counters[1].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telamalloc::{Backtrack, ConflictGuidedPolicy, TelaConfig};

    fn sample(level: f64, backtracks_to_here: f64, subtree: f64) -> Sample {
        Sample {
            features: [
                0.3,
                0.4,
                0.5,
                level,
                1.0,
                backtracks_to_here,
                subtree,
                0.0,
                5.0,
            ],
            score: 5.0,
        }
    }

    #[test]
    fn empty_training_never_fires() {
        let mut gate = GatedPolicy::train(&[], ConflictGuidedPolicy);
        let ctx = StepContext {
            level: 10,
            unplaced: 5,
            total_buffers: 20,
            subtree_backtracks: 100,
            total_backtracks: 100,
        };
        assert!(!gate.expand_candidates(&ctx));
        assert_eq!(gate.stats(), (1, 0));
    }

    #[test]
    fn gate_learns_backtrack_prone_shapes() {
        // Deep points with large subtrees attract backtracks; shallow
        // quiet points do not.
        let mut samples = Vec::new();
        for i in 0..60 {
            samples.push(sample(30.0 + (i % 10) as f64, 3.0, 40.0));
            samples.push(sample((i % 5) as f64, 0.0, 0.0));
        }
        let mut gate = GatedPolicy::train(&samples, ConflictGuidedPolicy);
        let hot = StepContext {
            level: 35,
            unplaced: 10,
            total_buffers: 50,
            subtree_backtracks: 40,
            total_backtracks: 80,
        };
        let cold = StepContext {
            level: 2,
            unplaced: 48,
            total_buffers: 50,
            subtree_backtracks: 0,
            total_backtracks: 0,
        };
        assert!(gate.expand_candidates(&hot));
        assert!(!gate.expand_candidates(&cold));
    }

    #[test]
    fn gated_policy_runs_end_to_end() {
        let samples: Vec<Sample> = (0..40).map(|i| sample(i as f64, 1.0, 10.0)).collect();
        let gate = GatedPolicy::train(&samples, ConflictGuidedPolicy).with_threshold(0.9);
        let handle = gate.clone();
        let config = TelaConfig {
            backtrack: Backtrack::custom(move || handle.clone()),
            ..TelaConfig::default()
        };
        let p = tela_model::examples::figure1();
        let r = telamalloc::solve(&p, &tela_model::Budget::steps(100_000), &config);
        assert!(r.outcome.is_solved());
        // The run's clone counted into the counters it shares with `gate`.
        assert!(gate.stats().0 > 0);
    }
}
