//! End-to-end imitation-learning pipeline: collect → train → deploy as a
//! backtrack policy, across the workspace crates.

use tela_learned::{collect_samples, train_policy_from_samples, CollectConfig, GbtParams};
use tela_model::{Budget, ResilienceStage, SolveOutcome};
use tela_workloads::sweep::certified_solvable;
use telamalloc::{solve, Backtrack, EscalationLadder, TelaConfig};

/// Harvest samples from a couple of tight certified instances.
fn harvest() -> Vec<tela_learned::Sample> {
    let config = CollectConfig {
        oracle_steps: 5_000,
        oracle_timeout: Some(std::time::Duration::from_millis(50)),
        max_events_per_run: 60,
        ..CollectConfig::default()
    };
    let mut samples = Vec::new();
    for seed in 100..102u64 {
        let problem = certified_solvable(seed);
        samples.extend(collect_samples(
            &problem,
            &Budget::steps(4_000),
            &TelaConfig::default(),
            &config,
            seed,
        ));
    }
    samples
}

#[test]
fn collected_samples_are_well_formed() {
    let samples = harvest();
    for s in &samples {
        assert!((0.0..=10.0).contains(&s.score), "score {}", s.score);
        assert!(s.features.iter().all(|f| f.is_finite()));
        // Normalized size/lifetime/contention stay in [0, 1].
        assert!((0.0..=1.0).contains(&s.features[0]));
        assert!((0.0..=1.0).contains(&s.features[1]));
        assert!((0.0..=1.0).contains(&s.features[2]));
    }
}

#[test]
fn trained_policy_runs_in_the_search() {
    let samples = harvest();
    let params = GbtParams {
        n_trees: 20,
        ..GbtParams::default()
    };
    let policy = train_policy_from_samples(&samples, &params);

    // Deploy on an unseen instance; the search must stay sound.
    let problem = certified_solvable(999);
    let config = TelaConfig {
        backtrack: Backtrack::custom(move || policy.clone()),
        ..TelaConfig::default()
    };
    let result = solve(&problem, &Budget::steps(30_000), &config);
    if let Some(s) = result.outcome.solution() {
        assert!(s.validate(&problem).is_ok());
    }
}

#[test]
fn trained_policy_runs_through_the_escalation_ladder() {
    let samples = harvest();
    let params = GbtParams {
        n_trees: 20,
        ..GbtParams::default()
    };
    let policy = train_policy_from_samples(&samples, &params);

    // The ladder's portfolio runs the learned policy as its first
    // variant. Instance 0 defeats greedy and needs major backtracks, so
    // the model is consulted; whatever the ladder answers must validate.
    let problem = certified_solvable(0);
    let ladder = EscalationLadder::new(TelaConfig {
        backtrack: Backtrack::custom(move || policy.clone()),
        ..TelaConfig::default()
    });
    let result = ladder.solve(&problem, &Budget::steps(30_000));
    assert_eq!(result.stage, ResilienceStage::Portfolio);
    assert!(result.stats.major_backtracks > 0);
    match &result.outcome {
        SolveOutcome::Solved(solution) => assert!(solution.validate(&problem).is_ok()),
        SolveOutcome::BestEffort(best) => assert!(best.partial.validate(&problem).is_ok()),
        other => panic!("certified instance answered {}", other.label()),
    }
}

#[test]
fn learned_policy_is_deterministic_after_training() {
    // "Our memory allocator needs to behave consistently after it has
    // shipped" (§6.1): the frozen model must make identical decisions.
    let samples = harvest();
    let params = GbtParams {
        n_trees: 10,
        ..GbtParams::default()
    };
    let policy = train_policy_from_samples(&samples, &params);
    let problem = certified_solvable(7);
    let config = TelaConfig {
        backtrack: Backtrack::custom(move || policy.clone()),
        ..TelaConfig::default()
    };
    let run = || solve(&problem, &Budget::steps(20_000), &config);
    let a = run();
    let b = run();
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.stats.steps, b.stats.steps);
    assert_eq!(a.stats.major_backtracks, b.stats.major_backtracks);
}

#[test]
fn oracle_prefix_matches_search_reality() {
    // For a certified instance, the full generation-order packing is a
    // solvable path at full depth.
    let problem = certified_solvable(3);
    // Re-derive the generation packing (lowest-fit in id order).
    let mut placed: Vec<(tela_model::Buffer, u64)> = Vec::new();
    let mut path = Vec::new();
    for (id, &b) in problem.iter().map(|(i, _)| i).zip(problem.buffers()) {
        let mut occupied: Vec<(u64, u64)> = placed
            .iter()
            .filter(|(q, _)| q.overlaps_in_time(&b))
            .map(|&(q, a)| (a, a + q.size()))
            .collect();
        occupied.sort_unstable();
        let mut addr = 0u64;
        for &(s, e) in &occupied {
            if s >= addr + b.size() {
                break;
            }
            if e > addr {
                addr = e;
            }
        }
        placed.push((b, addr));
        path.push(telamalloc::PlacedDecision {
            block: id,
            address: addr,
        });
    }
    // With the FULL packing fixed, feasibility is decided by propagation
    // alone, so even a tiny budget suffices and the oracle must report
    // the full depth.
    let depth =
        tela_learned::oracle::deepest_solvable_prefix(&problem, &path, &Budget::steps(200_000));
    assert_eq!(
        depth,
        path.len(),
        "the certified packing is solvable at full depth"
    );
}
