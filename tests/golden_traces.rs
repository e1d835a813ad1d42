//! Golden tests over the committed trace corpus (`traces/`): the traces
//! parse, their structural facts stay stable, and the allocators behave
//! as documented on each.

use tela_model::{parse_problem, Budget, Problem};
use telamalloc::{EscalationLadder, TelaConfig};

fn load(name: &str) -> Problem {
    let path = format!("{}/traces/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_problem(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

#[test]
fn figure1_trace_matches_builtin_example() {
    let from_trace = load("figure1.trace");
    assert_eq!(from_trace, tela_model::examples::figure1());
}

#[test]
fn model_traces_have_expected_structure() {
    let fpn = load("fpn_110.trace");
    assert_eq!(fpn.len(), 388);
    assert_eq!(fpn.capacity(), 1504);

    let openpose = load("openpose_110.trace");
    assert_eq!(openpose.len(), 415);
    // 110% of contention.
    assert_eq!(
        openpose.capacity(),
        openpose.max_contention().saturating_mul(110).div_ceil(100)
    );

    let stereonet = load("stereonet_110.trace");
    assert!(stereonet
        .buffers()
        .iter()
        .any(|b| b.size() * 3 >= stereonet.max_contention()));
}

#[test]
fn all_traces_are_solvable_by_the_pipeline() {
    for name in [
        "figure1.trace",
        "fpn_110.trace",
        "openpose_110.trace",
        "stereonet_110.trace",
        "certified_005.trace",
    ] {
        let problem = load(name);
        let result = EscalationLadder::default().solve(&problem, &Budget::steps(500_000));
        let solution = result
            .outcome
            .solution()
            .unwrap_or_else(|| panic!("{name} should be solvable"));
        assert!(solution.validate(&problem).is_ok(), "{name}");
    }
}

#[test]
fn certified_trace_is_tight() {
    // Certified instances use their construction packing's exact peak as
    // the capacity: zero slack, maximally hard while provably solvable.
    let p = load("certified_005.trace");
    let result = telamalloc::solve(&p, &Budget::steps(500_000), &TelaConfig::default());
    if let Some(s) = result.outcome.solution() {
        let peak = s.validate(&p).expect("valid");
        assert!(peak <= p.capacity());
    }
}
