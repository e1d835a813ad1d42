//! Cross-crate integration: every allocator in the workspace against the
//! shared example instances and the synthetic model workloads, with all
//! solutions validated against the model crate's checker.

use tela_model::{examples, Budget, ResilienceStage, SolveOutcome};
use tela_workloads::{problem_with_slack, ModelKind};
use telamalloc::{EscalationLadder, TelaConfig};

#[test]
fn every_allocator_validates_on_examples() {
    for problem in [examples::tiny(), examples::figure1(), examples::aligned()] {
        // Heuristics: may fail, but must never produce invalid packings.
        if let Some(s) = tela_heuristics::bfc::solve(&problem).solution {
            assert!(s.validate(&problem).is_ok());
        }
        if let Some(s) = tela_heuristics::greedy::solve(&problem).solution {
            assert!(s.validate(&problem).is_ok());
        }
        // Complete solvers must solve the feasible examples.
        let (cp, _) = tela_cp::search::solve_cp_only(&problem, &Budget::steps(500_000));
        assert!(cp
            .solution()
            .expect("cp solves examples")
            .validate(&problem)
            .is_ok());
        let (ilp, _) = tela_ilp::solve_ilp(&problem, &Budget::steps(500_000));
        assert!(ilp
            .solution()
            .expect("ilp solves examples")
            .validate(&problem)
            .is_ok());
        // TelaMalloc.
        let tela = telamalloc::solve(&problem, &Budget::steps(500_000), &TelaConfig::default());
        assert!(tela
            .outcome
            .solution()
            .expect("tela solves examples")
            .validate(&problem)
            .is_ok());
    }
}

#[test]
fn telamalloc_solves_every_model_workload_at_paper_slack() {
    for kind in ModelKind::PIXEL6 {
        let problem = problem_with_slack(kind.generate(0), 10);
        let result = telamalloc::solve(&problem, &Budget::steps(500_000), &TelaConfig::default());
        let solution = result
            .outcome
            .solution()
            .unwrap_or_else(|| panic!("{} must solve at 110% memory", kind.name()));
        assert!(solution.validate(&problem).is_ok(), "{}", kind.name());
    }
}

#[test]
fn pipeline_falls_back_exactly_when_heuristic_fails() {
    let ladder = EscalationLadder::default();
    for kind in ModelKind::PIXEL6 {
        let problem = problem_with_slack(kind.generate(0), 10);
        let heuristic_solves = tela_heuristics::greedy::solve(&problem).solution.is_some();
        let result = ladder.solve(&problem, &Budget::steps(500_000));
        assert_eq!(
            result.stage == ResilienceStage::Heuristic,
            heuristic_solves,
            "{}",
            kind.name()
        );
        assert!(result.outcome.is_solved(), "{}", kind.name());
    }
}

#[test]
fn heuristic_fails_on_some_models_like_the_paper() {
    // The paper's greedy baseline cannot solve all models at 110% memory
    // (Table 2 shows minimum ratios up to 1.43x); our synthetic set must
    // reproduce that split: some solved, some not.
    let mut solved = 0;
    let mut failed = 0;
    for kind in ModelKind::PIXEL6 {
        let problem = problem_with_slack(kind.generate(0), 10);
        match tela_heuristics::greedy::solve(&problem).solution {
            Some(_) => solved += 1,
            None => failed += 1,
        }
    }
    assert!(
        solved >= 4,
        "heuristic should handle the easy majority ({solved} solved)"
    );
    assert!(
        failed >= 2,
        "some models must need the search ({failed} failed)"
    );
}

#[test]
fn infeasible_instances_rejected_by_everyone() {
    let problem = examples::infeasible();
    assert!(tela_heuristics::greedy::solve(&problem).solution.is_none());
    let (cp, _) = tela_cp::search::solve_cp_only(&problem, &Budget::steps(100_000));
    assert_eq!(cp, SolveOutcome::Infeasible);
    let (ilp, _) = tela_ilp::solve_ilp(&problem, &Budget::steps(100_000));
    assert_eq!(ilp, SolveOutcome::Infeasible);
    let tela = telamalloc::solve(&problem, &Budget::steps(100_000), &TelaConfig::default());
    assert_eq!(tela.outcome, SolveOutcome::Infeasible);
}

#[test]
fn microbenchmarks_solve_without_backtracking() {
    for problem in [
        tela_workloads::micro::non_overlapping(200),
        tela_workloads::micro::full_overlap(50),
    ] {
        let result = telamalloc::solve(&problem, &Budget::unlimited(), &TelaConfig::default());
        assert!(result.outcome.is_solved());
        assert_eq!(
            result.stats.total_backtracks(),
            0,
            "Table 1 inputs never backtrack"
        );
    }
}
