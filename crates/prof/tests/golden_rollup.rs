//! Golden-file tests for span-tree reconstruction and rollup.
//!
//! The committed artifacts live in `traces/`:
//!
//! - `golden_ladder.jsonl` — a logical-clock trace of a chaos-suite
//!   ladder solve (spill rounds + an injected variant panic + a failed
//!   spill). PR 5's byte-identical logical traces make this exactly
//!   reproducible, so the first test *regenerates* it and compares
//!   byte-for-byte (minus the wall-clock header line).
//! - `golden_ladder.report.txt` — the rendered rollup report for that
//!   trace, compared byte-for-byte.
//!
//! When the solver's event stream legitimately changes, refresh both
//! with `TELA_BLESS=1 cargo test -p tela-prof --test golden_rollup`
//! and review the diff like any other golden update.

use std::path::PathBuf;

use tela_model::fault::FaultPlan;
use tela_model::{Budget, Buffer, Problem};
use tela_prof::{build_tree, flamegraph, render_report, rollup};
use tela_trace::{parse_jsonl, write_jsonl, Tracer};
use telamalloc::{EscalationLadder, SpillHook, TelaConfig};

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../traces")
}

fn blessing() -> bool {
    std::env::var_os("TELA_BLESS").is_some()
}

/// Drops the last buffer each spill round (the determinism suite's
/// hook), so the ladder exercises spill rounds and certificates.
struct DropLast {
    buffers: Vec<Buffer>,
    capacity: u64,
}

impl SpillHook for DropLast {
    fn spill(&mut self, _round: u32) -> Option<Problem> {
        self.buffers.pop()?;
        Problem::new(self.buffers.clone(), self.capacity).ok()
    }
}

/// Regenerates the golden trace: single-threaded (determinism requires
/// the sequential race), logical clock, two solves into one tracer —
/// the chaos suite's two signature scenarios back to back:
///
/// 1. figure1 with an injected panic in variant 0: greedy fails, the
///    race runs real CP searches, the victim dies mid-search and a
///    survivor wins — the trace gets `portfolio.variant`, `search` and
///    `cp` spans plus the panic event.
/// 2. an overloaded instance through the spill ladder: preflight
///    certificates, spill rounds, and the greedy endgame;
/// 3. a direct CP-engine solve, whose completed `cp.solve` span carries
///    the work counters (`propagations`, `min_pos_queries`, backtracks)
///    the rollup folds.
fn generate() -> String {
    let tracer = Tracer::logical();
    let chaos = TelaConfig {
        threads: 1,
        tracer: tracer.clone(),
        fault_plan: Some(FaultPlan {
            panic_at_step: Some(5),
            victim_variant: Some(0),
            ..FaultPlan::default()
        }),
        ..TelaConfig::default()
    };
    let p = tela_model::examples::figure1();
    let race = telamalloc::solve_portfolio(&p, &Budget::steps(200_000), &chaos);
    assert!(race.result.outcome.is_solved(), "survivors win figure1");
    assert_eq!(race.panicked(), 1, "the victim variant panicked");

    let calm = TelaConfig {
        fault_plan: None,
        ..chaos
    };
    let buffers: Vec<Buffer> = (0..6).map(|_| Buffer::new(0, 4, 2)).collect();
    let overloaded = Problem::new(buffers.clone(), 8).unwrap();
    let mut hook = DropLast {
        buffers,
        capacity: 8,
    };
    let ladder = EscalationLadder::new(calm);
    let result = ladder.solve_with_spill(overloaded, &Budget::steps(200_000), &mut hook);
    assert!(result.spill_rounds > 0, "the golden run must spill");

    let (outcome, _) = tela_cp::search::solve_cp_only_traced(&p, &Budget::steps(200_000), &tracer);
    assert!(outcome.is_solved(), "the CP engine solves figure1");
    write_jsonl(&tracer.snapshot().expect("tracer is enabled"))
}

/// Everything after the (wall-clock) header line.
fn body(jsonl: &str) -> &str {
    jsonl.split_once('\n').expect("header line").1
}

fn read_golden(name: &str) -> String {
    let path = traces_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); bless with TELA_BLESS=1",
            path.display()
        )
    })
}

#[test]
fn committed_trace_matches_a_fresh_generation() {
    let generated = generate();
    if blessing() {
        std::fs::write(traces_dir().join("golden_ladder.jsonl"), &generated).unwrap();
        return;
    }
    let committed = read_golden("golden_ladder.jsonl");
    assert_eq!(
        body(&committed),
        body(&generated),
        "the solver's event stream changed; review and re-bless with TELA_BLESS=1"
    );
}

#[test]
fn committed_trace_round_trips_through_the_reader() {
    let committed = read_golden("golden_ladder.jsonl");
    let trace = parse_jsonl(&committed).expect("golden trace parses");
    assert_eq!(body(&write_jsonl(&trace)), body(&committed));
}

#[test]
fn rollup_report_matches_golden() {
    let committed = read_golden("golden_ladder.jsonl");
    let trace = parse_jsonl(&committed).expect("golden trace parses");
    let report = render_report(&rollup(&build_tree(&trace)));
    let path = traces_dir().join("golden_ladder.report.txt");
    if blessing() {
        std::fs::write(path, &report).unwrap();
        return;
    }
    assert_eq!(
        std::fs::read_to_string(&path).expect("committed report"),
        report,
        "rollup output changed; review and re-bless with TELA_BLESS=1"
    );
}

#[test]
fn golden_tree_has_the_expected_shape() {
    let trace = parse_jsonl(&read_golden("golden_ladder.jsonl")).unwrap();
    let tree = build_tree(&trace);
    assert!(!tree.nodes.is_empty());
    // Three top-level solves: the chaos race, the spill ladder, and the
    // direct CP solve — in that order.
    let root_keys: Vec<String> = tree.roots.iter().map(|&i| tree.nodes[i].key()).collect();
    assert_eq!(root_keys, ["portfolio.race", "ladder.solve", "cp.solve"]);
    // Variants nest under the race; the victim's search span never
    // closed (injected panic) and is clipped to its variant's end
    // instead of swallowing the rest of the trace.
    let variants: Vec<usize> = (0..tree.nodes.len())
        .filter(|&i| tree.nodes[i].key() == "portfolio.variant")
        .collect();
    assert_eq!(variants.len(), 2);
    for &i in &variants {
        let parent = tree.nodes[i].parent.expect("variants nest under the race");
        assert_eq!(tree.nodes[parent].key(), "portfolio.race");
    }
    let victim_search = (0..tree.nodes.len())
        .find(|&i| tree.nodes[i].key() == "search.solve")
        .expect("the victim got as far as its search");
    assert!(!tree.nodes[victim_search].closed);
    assert_eq!(tree.nodes[victim_search].parent, Some(variants[0]));
    assert_eq!(
        tree.nodes[victim_search].end_seq,
        tree.nodes[variants[0]].end_seq
    );
    // Ladder stages are instants, not spans: they show up as counters
    // on the enclosing ladder.solve span.
    let profile = rollup(&tree);
    let ladder = profile.entry("ladder.solve").expect("ladder span present");
    assert_eq!(ladder.counters.get("ladder.stage"), Some(&2));
    assert_eq!(ladder.counters.get("ladder.spill"), Some(&2));
    // Self times partition the root total (the rollup invariant, on a
    // real multi-layer trace rather than a synthetic one).
    let self_sum: u64 = profile.entries.iter().map(|e| e.self_time).sum();
    assert_eq!(self_sum, profile.root_total);
    // CP work counters folded up from the cp.solve end event.
    let cp = profile.entry("cp.solve").expect("cp spans present");
    assert!(cp.counters.contains_key("propagations"));
    assert!(cp.counters.contains_key("min_pos_queries"));
    assert!(cp.counters.contains_key("steps"));
}

#[test]
fn flamegraph_renders_nonempty_on_the_golden_trace() {
    let trace = parse_jsonl(&read_golden("golden_ladder.jsonl")).unwrap();
    let flame = flamegraph(&build_tree(&trace));
    assert!(flame.value > 0);
    let svg = tela_viz::render_flamegraph(&flame, &Default::default());
    assert!(svg.starts_with("<svg") && svg.contains("</svg>"));
    assert!(svg.matches("<rect").count() > 3, "flamegraph has frames");
    assert!(svg.contains("ladder.solve"));
}
