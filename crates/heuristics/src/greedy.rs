//! The production-style greedy heuristic (paper §3.1, Figure 4).
//!
//! Buffers are considered in order of decreasing *contention* (the
//! maximum total live memory over the buffer's live range); ties are
//! broken by alignment, then `size × lifetime²`, then lifetime. Each
//! buffer is placed at the lowest gap where it fits among the buffers
//! placed so far — bottom-up, "like blocks in a game of Tetris",
//! including the per-row gap filling of the paper's Figure 4. There is
//! no backtracking: once a block lands, it stays, which is why the
//! heuristic is fast but cannot solve the most complex cases.

use std::cmp::Reverse;

use tela_model::{BufferId, Problem};

use crate::placer::place_in_order;
use crate::HeuristicResult;

/// Runs the greedy contention-ordered skyline heuristic on `problem`.
///
/// # Example
///
/// ```
/// use tela_heuristics::greedy;
/// use tela_model::examples;
///
/// let problem = examples::tiny();
/// let result = greedy::solve(&problem);
/// assert!(result.solution.is_some());
/// assert_eq!(result.peak, 16);
/// ```
pub fn solve(problem: &Problem) -> HeuristicResult {
    solve_traced(problem, &tela_trace::Tracer::disabled())
}

/// [`solve`] with a [`Tracer`](tela_trace::Tracer) attached: the run is
/// wrapped in a `heuristic.greedy` span recording the outcome and peak,
/// and counted under `heuristic.greedy.runs`.
pub fn solve_traced(problem: &Problem, tracer: &tela_trace::Tracer) -> HeuristicResult {
    let span = if tracer.enabled() {
        tracer.begin(
            "heuristic",
            "greedy",
            vec![("buffers".into(), problem.len().into())],
        )
    } else {
        tela_trace::SpanId::NULL
    };
    // Fail fast: when the static audit proves that some time step demands
    // more memory than exists, no placement order can succeed — skip the
    // skyline work and report the true peak demand (a lower bound every
    // packing must reach, and here already over capacity).
    let result = if tela_audit::passes::contention_bound(problem).is_some() {
        HeuristicResult {
            solution: None,
            peak: problem.max_contention(),
        }
    } else {
        place_in_order(problem, &placement_order(problem))
    };
    if tracer.enabled() {
        tracer.count("heuristic.greedy.runs", 1);
        tracer.end(
            span,
            "heuristic",
            "greedy",
            vec![
                ("placed".into(), result.solution.is_some().into()),
                ("peak".into(), result.peak.into()),
            ],
        );
    }
    result
}

/// The heuristic's placement order: decreasing contention, ties broken by
/// alignment, `size × lifetime²`, then lifetime (paper §3.1), and finally
/// buffer id for determinism.
pub fn placement_order(problem: &Problem) -> Vec<BufferId> {
    let contention = problem.contention();
    // Every key ends in the unique buffer id, so the unstable sort yields
    // the one total order a stable sort would.
    let mut keyed: Vec<_> = problem
        .iter()
        .map(|(id, b)| {
            (
                Reverse(contention.max_over(b.start(), b.end())),
                Reverse(b.align()),
                Reverse(u128::from(b.size()) * u128::from(b.lifetime()).pow(2)),
                Reverse(b.lifetime()),
                id,
            )
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(.., id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::{examples, Buffer};

    #[test]
    fn solves_simple_chain() {
        let p = examples::tiny();
        let r = solve(&p);
        assert_eq!(r.peak, 16);
        assert!(r.solution.unwrap().validate(&p).is_ok());
    }

    #[test]
    fn ordering_prefers_contention() {
        // One buffer lives through a high-contention phase, another only
        // through a quiet one; the first must be placed first.
        let p = Problem::builder(100)
            .buffer(Buffer::new(10, 12, 1)) // quiet
            .buffer(Buffer::new(0, 2, 10)) // contended (with the next two)
            .buffer(Buffer::new(0, 2, 10))
            .buffer(Buffer::new(0, 2, 10))
            .build()
            .unwrap();
        let order = placement_order(&p);
        assert_eq!(order.last().unwrap().index(), 0);
    }

    #[test]
    fn tie_break_prefers_alignment_then_weight() {
        // Same contention; the 32-aligned block goes first, then the
        // larger size×lifetime² block.
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 2, 4)) // area weight 4*4 = 16
            .buffer(Buffer::new(0, 2, 4).with_align(32))
            .buffer(Buffer::new(0, 4, 4)) // weight 4*16 = 64, but higher contention? no: lives through both slots
            .build()
            .unwrap();
        // Contentions: t0-1: 12, t2-3: 4. Buffer 2 (0,4) sees 12 as well.
        let order = placement_order(&p);
        assert_eq!(order[0].index(), 1, "aligned block first");
        assert_eq!(order[1].index(), 2, "heavier block second");
        assert_eq!(order[2].index(), 0);
    }

    #[test]
    fn greedy_beats_bfc_on_lifetime_aware_case() {
        // The same instance where BFC wastes memory: greedy places the
        // long-lived blocks first and stays at the contention bound.
        let p = Problem::builder(1000)
            .buffer(Buffer::new(0, 10, 10))
            .buffer(Buffer::new(0, 2, 10))
            .buffer(Buffer::new(1, 10, 10))
            .buffer(Buffer::new(2, 10, 10))
            .build()
            .unwrap();
        let greedy_peak = solve(&p).peak;
        let bfc_peak = crate::bfc::solve(&p).peak;
        assert!(
            greedy_peak <= bfc_peak,
            "greedy {greedy_peak} vs bfc {bfc_peak}"
        );
    }

    #[test]
    fn failure_reported_at_tight_capacity() {
        // Figure 1 requires under-the-overhang placement, which a skyline
        // heuristic cannot do; it must either fail or find a valid
        // packing.
        let p = examples::figure1();
        let r = solve(&p);
        match &r.solution {
            Some(s) => assert!(s.validate(&p).is_ok()),
            None => assert!(r.peak > p.capacity()),
        }
    }

    #[test]
    fn peak_is_at_least_contention() {
        let p = examples::figure1();
        assert!(solve(&p).peak >= p.max_contention());
    }

    #[test]
    fn contention_overload_fails_fast_with_honest_peak() {
        // Three fully-overlapping size-3 buffers in 8 units of memory:
        // the audit's contention pass rejects the instance before any
        // placement, and the reported peak is the true lower bound.
        let p = examples::infeasible();
        let r = solve(&p);
        assert!(r.solution.is_none());
        assert_eq!(r.peak, p.max_contention());
        assert!(r.peak > p.capacity());
    }

    #[test]
    fn empty_problem() {
        let p = Problem::builder(10).build().unwrap();
        let r = solve(&p);
        assert_eq!(r.peak, 0);
        assert!(r.solution.unwrap().is_empty());
    }

    #[test]
    fn alignment_respected_in_packing() {
        let p = examples::aligned();
        let r = solve(&p);
        // Whether or not it fits the capacity, the raw packing must align.
        if let Some(s) = &r.solution {
            for (id, b) in p.iter() {
                assert_eq!(s.address(id) % b.align(), 0);
            }
        }
    }
}
