//! Deployment-path integration: train a policy, freeze it to text (the
//! §6.1 "baked into the binary" requirement), restore it, wrap it in the
//! §8.3 step gate, and run the whole thing inside the search.

use tela_learned::persist::{load_model, save_model};
use tela_learned::{collect_samples, CollectConfig, GatedPolicy, Gbt, GbtParams, LearnedPolicy};
use tela_model::{Budget, SolveOutcome};
use tela_workloads::sweep::certified_solvable;
use telamalloc::{solve, Backtrack, TelaConfig};

fn quick_collect() -> Vec<tela_learned::Sample> {
    let config = CollectConfig {
        oracle_steps: 5_000,
        oracle_timeout: Some(std::time::Duration::from_millis(50)),
        max_events_per_run: 50,
        ..CollectConfig::default()
    };
    let mut samples = Vec::new();
    for seed in 200..202u64 {
        samples.extend(collect_samples(
            &certified_solvable(seed),
            &Budget::steps(4_000),
            &TelaConfig::default(),
            &config,
            seed,
        ));
    }
    samples
}

#[test]
fn frozen_policy_round_trips_and_runs() {
    let samples = quick_collect();
    if samples.is_empty() {
        // Collection can legitimately come up empty on lucky seeds; the
        // deployment path is then the constant-fallback policy.
        return;
    }
    let rows: Vec<Vec<f64>> = samples.iter().map(|s| s.features.to_vec()).collect();
    let targets: Vec<f64> = samples.iter().map(|s| s.score).collect();
    let model = Gbt::fit(
        &rows,
        &targets,
        &GbtParams {
            n_trees: 15,
            ..GbtParams::default()
        },
    );

    // Freeze and restore.
    let frozen = save_model(&model);
    let restored = load_model(&frozen).expect("frozen model parses");
    assert_eq!(model, restored);

    // Deploy: learned backtracking inside the step gate.
    let policy = LearnedPolicy::new(restored);
    let gated = GatedPolicy::train(&samples, policy);
    let config = TelaConfig {
        backtrack: Backtrack::custom(move || gated.clone()),
        ..TelaConfig::default()
    };
    let problem = certified_solvable(777);
    let result = solve(&problem, &Budget::steps(20_000), &config);
    match result.outcome {
        SolveOutcome::Solved(s) => assert!(s.validate(&problem).is_ok()),
        SolveOutcome::Infeasible => panic!("certified instances are solvable"),
        SolveOutcome::GaveUp | SolveOutcome::BudgetExceeded | SolveOutcome::BestEffort(_) => {}
    }
}

#[test]
fn heuristic_family_never_produces_invalid_packings() {
    for seed in 0..6u64 {
        let problem = certified_solvable(seed);
        let runs = [
            tela_heuristics::greedy::solve(&problem),
            tela_heuristics::bfc::solve(&problem),
            tela_heuristics::ordered::solve_by_size(&problem),
            tela_heuristics::ordered::solve_by_area(&problem),
            tela_heuristics::ordered::solve_by_lifetime(&problem),
            tela_heuristics::ordered::solve_best_fit(&problem),
        ];
        for r in runs {
            if let Some(s) = r.solution {
                assert!(s.validate(&problem).is_ok(), "seed {seed}");
            } else {
                assert!(
                    r.peak > problem.capacity(),
                    "seed {seed}: failure implies overshoot"
                );
            }
        }
    }
}
