//! Property tests over the model crate's core invariants.

use proptest::prelude::*;
use tela_model::{
    parse_problem, problem_to_text, split_independent, Buffer, OverlapGraph, PhasePartition,
    Problem,
};

fn buffer_strategy() -> impl Strategy<Value = Buffer> {
    (
        0u32..40,
        1u32..12,
        1u64..100,
        prop_oneof![Just(1u64), Just(8), Just(32)],
    )
        .prop_map(|(start, len, size, align)| {
            Buffer::new(start, start + len, size).with_align(align)
        })
}

fn problem_strategy() -> impl Strategy<Value = Problem> {
    (
        prop::collection::vec(buffer_strategy(), 0..40),
        100u64..1000,
    )
        .prop_map(|(buffers, capacity)| {
            Problem::new(buffers, capacity).expect("sizes below capacity")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn trace_round_trip_is_identity(problem in problem_strategy()) {
        let text = problem_to_text(&problem);
        prop_assert_eq!(parse_problem(&text).expect("parses"), problem);
    }

    #[test]
    fn contention_equals_direct_sum(problem in problem_strategy()) {
        let profile = problem.contention();
        for t in 0..problem.horizon() {
            let direct: u64 = problem
                .buffers()
                .iter()
                .filter(|b| b.live_at(t))
                .map(|b| b.size())
                .sum();
            prop_assert_eq!(profile.at(t), direct, "slot {}", t);
        }
    }

    #[test]
    fn overlapping_pairs_match_quadratic_reference(problem in problem_strategy()) {
        let mut sweep: Vec<(usize, usize)> = problem
            .overlapping_pairs()
            .map(|(a, b)| (a.index(), b.index()))
            .collect();
        sweep.sort_unstable();
        let mut reference = Vec::new();
        for i in 0..problem.len() {
            for j in (i + 1)..problem.len() {
                if problem.buffers()[i].overlaps_in_time(&problem.buffers()[j]) {
                    reference.push((i, j));
                }
            }
        }
        prop_assert_eq!(sweep, reference);
    }

    #[test]
    fn overlap_graph_rows_match_quadratic_reference(problem in problem_strategy()) {
        let graph = OverlapGraph::of(&problem);
        prop_assert_eq!(graph.len(), problem.len());
        for (id, b) in problem.iter() {
            let reference: Vec<u32> = problem
                .iter()
                .filter(|&(other, ob)| other != id && b.overlaps_in_time(ob))
                .map(|(other, _)| other.index() as u32)
                .collect();
            prop_assert_eq!(graph.neighbors(id), reference.as_slice(), "row of {}", id);
        }
        let mut sweep: Vec<(u32, u32)> = problem
            .overlapping_pairs()
            .map(|(a, b)| (a.index() as u32, b.index() as u32))
            .collect();
        sweep.sort_unstable();
        prop_assert_eq!(graph.pairs().collect::<Vec<_>>(), sweep);
    }

    #[test]
    fn buffer_contention_is_max_over_live_range(problem in problem_strategy()) {
        let profile = problem.contention();
        for (id, b) in problem.iter() {
            let by_step = (b.start()..b.end()).map(|t| profile.at(t)).max().unwrap_or(0);
            prop_assert_eq!(profile.max_over(b.start(), b.end()), by_step);
            prop_assert_eq!(problem.buffer_contention(id), by_step);
        }
    }

    #[test]
    fn phases_partition_all_blocks(problem in problem_strategy()) {
        let partition = PhasePartition::compute(&problem);
        let mut seen = vec![false; problem.len()];
        for phase in partition.phases() {
            for &id in &phase.blocks {
                prop_assert!(!seen[id.index()], "block assigned twice");
                seen[id.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn split_groups_are_time_disjoint_and_complete(problem in problem_strategy()) {
        let groups = split_independent(&problem);
        let mut seen = vec![false; problem.len()];
        for group in &groups {
            for &id in group {
                prop_assert!(!seen[id.index()]);
                seen[id.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // No buffer in one group overlaps a buffer in a later group.
        for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                for &a in &groups[i] {
                    for &b in &groups[j] {
                        prop_assert!(
                            !problem.buffer(a).overlaps_in_time(problem.buffer(b)),
                            "{a} and {b} overlap across groups"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn capacity_rescaling_preserves_buffers(problem in problem_strategy()) {
        let doubled = problem.with_capacity(problem.capacity() * 2).expect("larger fits");
        prop_assert_eq!(doubled.buffers(), problem.buffers());
        prop_assert_eq!(doubled.capacity(), problem.capacity() * 2);
    }
}
