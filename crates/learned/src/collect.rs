//! Training-data collection for imitation learning (paper §6.5,
//! Figure 11).
//!
//! A special search mode records every major backtrack. To diversify
//! the visited states, each backtrack follows either the regular
//! conflict-guided strategy or the oracle's minimum target, with 50%
//! probability. After the (sub-)problem is solved, the recorded events
//! are labelled: the *minimum* target from the exact-feasibility oracle
//! and the *best* target from the intersection with the final solution
//! (§6.3), combined through the §6.4 score formula.

use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tela_model::{Budget, Problem};
use telamalloc::{
    Backtrack, BacktrackChoice, BacktrackContext, BacktrackPolicy, ConflictGuidedPolicy,
    PlacedDecision, TargetFeatures, TelaConfig,
};

use crate::oracle;

/// One labelled training example: the §6.4 feature vector of a candidate
/// backtrack target and its score.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Feature vector (see [`TargetFeatures::to_array`]).
    pub features: [f64; TargetFeatures::LEN],
    /// Score label in `[0, 10]`.
    pub score: f64,
}

/// Configuration for a collection run.
#[derive(Debug, Clone, Copy)]
pub struct CollectConfig {
    /// Step cap for each oracle feasibility probe.
    pub oracle_steps: u64,
    /// Wall-clock cap for each oracle feasibility probe. A fresh budget
    /// is built per probe (a stored `Budget` would carry one absolute
    /// deadline across the whole collection).
    pub oracle_timeout: Option<std::time::Duration>,
    /// Probability of following the oracle instead of the regular
    /// strategy at each major backtrack (the paper uses 0.5).
    pub oracle_probability: f64,
    /// At most this many backtrack events are recorded (and labelled)
    /// per run; labelling costs one oracle query per event.
    pub max_events_per_run: usize,
    /// Floor the oracle's deepest-solvable answer with the final
    /// solution's consistent prefix (which is certified solvable). Keeps
    /// labels sane when oracle probes run out of budget.
    pub floor_with_best: bool,
    /// During collection, ignore oracle answers that certify nothing
    /// (depth 0) instead of jumping to the root.
    pub skip_uncertified_oracle: bool,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            oracle_steps: 30_000,
            oracle_timeout: Some(std::time::Duration::from_millis(200)),
            oracle_probability: 0.5,
            max_events_per_run: 150,
            floor_with_best: false,
            skip_uncertified_oracle: true,
        }
    }
}

impl CollectConfig {
    /// A fresh per-probe budget.
    fn oracle_budget(&self) -> Budget {
        let b = Budget::steps(self.oracle_steps);
        match self.oracle_timeout {
            Some(t) => b.with_timeout(t),
            None => b,
        }
    }
}

#[derive(Debug)]
struct Event {
    path: Vec<PlacedDecision>,
    targets: Vec<(usize, [f64; TargetFeatures::LEN])>,
}

#[derive(Debug)]
struct CollectState {
    config: CollectConfig,
    rng: StdRng,
    /// The (sub-)problem the pending events belong to.
    problem: Option<Problem>,
    pending: Vec<Event>,
    samples: Vec<Sample>,
}

impl CollectState {
    fn finalize(&mut self, final_path: &[PlacedDecision]) {
        let Some(problem) = self.problem.take() else {
            self.pending.clear();
            return;
        };
        for event in self.pending.drain(..) {
            let best = oracle::best_prefix(&event.path, final_path);
            let mut deepest = oracle::deepest_solvable_prefix(
                &problem,
                &event.path,
                &self.config.oracle_budget(),
            );
            if self.config.floor_with_best {
                // The prefix consistent with the final solution is itself
                // a certified solvable depth, so it floors the oracle's
                // answer (whose budget-limited probes are conservative).
                deepest = deepest.max(best);
            }
            let minimum = event
                .targets
                .iter()
                .map(|&(level, _)| level)
                .filter(|&l| l <= deepest)
                .max()
                .unwrap_or(deepest);
            for (level, features) in event.targets {
                self.samples.push(Sample {
                    features,
                    score: oracle::score(level, best, minimum),
                });
            }
        }
    }
}

/// The recording policy; its state is a sink shared with
/// [`collect_samples`], which reads the labelled samples after the run.
struct CollectorPolicy {
    state: Arc<Mutex<CollectState>>,
    regular: ConflictGuidedPolicy,
}

impl BacktrackPolicy for CollectorPolicy {
    fn choose(&mut self, ctx: &BacktrackContext<'_>) -> BacktrackChoice {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.problem.as_ref() != Some(ctx.problem) {
            // A new (sub-)problem started; orphaned events have no final
            // solution to label against.
            state.pending.clear();
            state.problem = Some(ctx.problem.clone());
        }
        if state.pending.len() < state.config.max_events_per_run {
            state.pending.push(Event {
                path: ctx.path.to_vec(),
                targets: ctx
                    .targets
                    .iter()
                    .map(|t| (t.level, t.features.to_array()))
                    .collect(),
            });
        }
        let use_oracle = state.rng.random_range(0.0..1.0) < state.config.oracle_probability;
        if use_oracle {
            let deepest = oracle::deepest_solvable_prefix(
                ctx.problem,
                ctx.path,
                &state.config.oracle_budget(),
            );
            // A zero answer usually means the budget-limited probes could
            // not certify anything (the whole instance is hard); treat it
            // as "unknown" and keep the regular strategy rather than
            // jumping to the root.
            if deepest > 0 || !state.config.skip_uncertified_oracle {
                if let Some(level) = oracle::minimum_target(ctx.targets, deepest) {
                    return BacktrackChoice::Target(level);
                }
            }
        }
        self.regular.choose(ctx)
    }

    fn on_solved(&mut self, path: &[PlacedDecision]) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .finalize(path);
    }
}

/// Runs one data-collection search over `problem` and returns the
/// labelled samples. Deterministic in `seed`.
///
/// Problems that produce no major backtracks (or are not solved) yield
/// no samples — exactly the common case the paper notes: most inputs
/// never need the ML path.
///
/// # Example
///
/// ```
/// use tela_learned::collect::{collect_samples, CollectConfig};
/// use tela_model::{examples, Budget};
/// use telamalloc::TelaConfig;
///
/// let samples = collect_samples(
///     &examples::figure1(),
///     &Budget::steps(100_000),
///     &TelaConfig::default(),
///     &CollectConfig::default(),
///     7,
/// );
/// // figure1 may or may not backtrack under the default config; either
/// // way every sample is well-formed.
/// for s in &samples {
///     assert!((0.0..=10.0).contains(&s.score));
/// }
/// ```
pub fn collect_samples(
    problem: &Problem,
    budget: &Budget,
    tela: &TelaConfig,
    config: &CollectConfig,
    seed: u64,
) -> Vec<Sample> {
    let state = Arc::new(Mutex::new(CollectState {
        config: *config,
        rng: StdRng::seed_from_u64(seed),
        problem: None,
        pending: Vec::new(),
        samples: Vec::new(),
    }));
    let sink = Arc::clone(&state);
    let tela = TelaConfig {
        backtrack: Backtrack::custom(move || CollectorPolicy {
            state: Arc::clone(&sink),
            regular: ConflictGuidedPolicy,
        }),
        ..tela.clone()
    };
    let _ = telamalloc::solve(problem, budget, &tela);
    let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
    std::mem::take(&mut state.samples)
}

/// Collects samples over many problems, varying the memory capacity the
/// way the paper does for extra variation (§6.5): each problem is run at
/// every given slack percent over its contention bound.
pub fn collect_dataset(
    problems: &[(String, Problem)],
    slack_percents: &[u32],
    budget: &Budget,
    tela: &TelaConfig,
    config: &CollectConfig,
    seed: u64,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (i, (_, problem)) in problems.iter().enumerate() {
        for (j, &slack) in slack_percents.iter().enumerate() {
            let capacity = problem
                .max_contention()
                .saturating_mul(u64::from(100 + slack))
                .div_ceil(100)
                .max(1);
            let Ok(resized) = problem.with_capacity(capacity) else {
                continue;
            };
            let run_seed = seed.wrapping_add((i as u64) << 16).wrapping_add(j as u64);
            samples.extend(collect_samples(&resized, budget, tela, config, run_seed));
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::Buffer;

    /// A tight instance that forces the default search to backtrack: a
    /// perfect packing with interlocking blocks.
    fn backtracky_problem() -> Problem {
        let mut buffers = Vec::new();
        // Interleaved long/short blocks at an exact-fit capacity.
        for i in 0..6u32 {
            buffers.push(Buffer::new(i, i + 6, 3));
            buffers.push(Buffer::new(i, i + 2, 2));
        }
        let p = Problem::new(buffers, u64::MAX).unwrap();
        let c = p.max_contention();
        p.with_capacity(c).unwrap()
    }

    #[test]
    fn samples_have_bounded_scores() {
        let p = backtracky_problem();
        let samples = collect_samples(
            &p,
            &Budget::steps(50_000),
            &TelaConfig::default(),
            &CollectConfig::default(),
            1,
        );
        for s in &samples {
            assert!((0.0..=10.0).contains(&s.score), "score {}", s.score);
            assert!(s.features.iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let p = backtracky_problem();
        let run = |seed| {
            collect_samples(
                &p,
                &Budget::steps(50_000),
                &TelaConfig::default(),
                &CollectConfig::default(),
                seed,
            )
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn easy_problems_yield_no_samples() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 2, 10))
            .build()
            .unwrap();
        let samples = collect_samples(
            &p,
            &Budget::steps(10_000),
            &TelaConfig::default(),
            &CollectConfig::default(),
            0,
        );
        assert!(samples.is_empty());
    }

    #[test]
    fn dataset_varies_memory() {
        let p = backtracky_problem();
        let problems = vec![("t".to_string(), p)];
        let samples = collect_dataset(
            &problems,
            &[0, 5, 10],
            &Budget::steps(50_000),
            &TelaConfig::default(),
            &CollectConfig::default(),
            0,
        );
        // At minimum the 0%-slack run is the backtracky one; dataset
        // collection must at least not crash and keep labels bounded.
        for s in &samples {
            assert!((0.0..=10.0).contains(&s.score));
        }
    }
}
