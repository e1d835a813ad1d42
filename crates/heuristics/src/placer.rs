//! Shared lowest-fit placement machinery for the greedy baselines.
//!
//! All non-backtracking heuristics in this crate place blocks one at a
//! time at the lowest feasible address among the blocks already placed
//! (gap-aware, alignment-aware). This module centralizes that machinery
//! so each baseline only supplies a *placement order*.

use std::cell::Cell;

use tela_model::{Address, Buffer, BufferId, OverlapGraph, Problem, Solution};

use crate::HeuristicResult;

/// Incremental lowest-fit placement state over one problem.
///
/// Built on the problem's [`OverlapGraph`]: fitting a block reads only
/// its placed neighbours' address spans, gathered into a scratch buffer
/// that [`Placer::new`] sizes to the graph's maximum degree. Placement
/// therefore makes no heap allocation after construction.
///
/// # Example
///
/// ```
/// use tela_heuristics::Placer;
/// use tela_model::{examples, BufferId};
///
/// let problem = examples::tiny();
/// let mut placer = Placer::new(&problem);
/// assert_eq!(placer.place(BufferId::new(0)), Some(0));
/// assert_eq!(placer.place(BufferId::new(1)), Some(8)); // overlaps buffer 0
/// assert_eq!(placer.peak(), 16);
/// ```
pub struct Placer<'p> {
    problem: &'p Problem,
    graph: OverlapGraph,
    /// `[address, address + size)` per buffer. Sizes are nonzero, so the
    /// empty span `(0, 0)` marks an unplaced buffer.
    spans: Vec<(Address, Address)>,
    peak: Address,
    /// Reused by every fit: the placed neighbours' spans, sorted.
    scratch: Cell<Vec<(Address, Address)>>,
}

const UNPLACED: (Address, Address) = (0, 0);

impl<'p> Placer<'p> {
    /// Creates an empty placement state for `problem`.
    pub fn new(problem: &'p Problem) -> Self {
        let graph = OverlapGraph::of(problem);
        let scratch = Cell::new(Vec::with_capacity(graph.max_degree()));
        Placer {
            problem,
            graph,
            spans: vec![UNPLACED; problem.len()],
            peak: 0,
            scratch,
        }
    }

    /// The lowest feasible aligned address for `id` among already-placed
    /// overlapping blocks, without committing it. `None` means the sweep
    /// overflowed the address space — the block cannot be placed at all
    /// (only reachable with near-`u64::MAX` sizes or alignments).
    // tela-lint: hot-path
    pub fn lowest_fit(&self, id: BufferId) -> Option<Address> {
        let b = self.problem.buffers().get(id.index())?;
        let mut occupied = self.scratch.take();
        occupied.clear();
        for &n in self.graph.neighbors(id) {
            match self.spans.get(n as usize) {
                Some(&span) if span != UNPLACED => occupied.push(span),
                _ => {}
            }
        }
        occupied.sort_unstable();
        let fit = lowest_gap(&occupied, b);
        self.scratch.set(occupied);
        fit
    }

    /// Places `id` at its lowest fit and returns the address, or `None`
    /// (committing nothing) when the sweep overflowed the address space.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already placed.
    // tela-lint: hot-path
    pub fn place(&mut self, id: BufferId) -> Option<Address> {
        assert!(!self.is_placed(id), "buffer {id} is already placed");
        let addr = self.lowest_fit(id)?;
        let size = self.problem.buffers().get(id.index())?.size();
        // `lowest_fit` checked that `addr + size` does not overflow.
        let top = addr + size;
        *self.spans.get_mut(id.index())? = (addr, top);
        self.peak = self.peak.max(top);
        Some(addr)
    }

    /// Returns true if `id` has been placed.
    pub fn is_placed(&self, id: BufferId) -> bool {
        self.spans
            .get(id.index())
            .is_some_and(|&span| span != UNPLACED)
    }

    /// Highest address used so far.
    pub fn peak(&self) -> Address {
        self.peak
    }

    /// Finalizes into a [`HeuristicResult`] once every block is placed.
    ///
    /// # Panics
    ///
    /// Panics if some block is unplaced.
    pub fn finish(self) -> HeuristicResult {
        assert!(!self.spans.contains(&UNPLACED), "all blocks must be placed");
        let solution = Solution::new(self.spans.iter().map(|&(addr, _)| addr).collect());
        debug_assert!(
            self.problem
                .with_capacity(u64::MAX)
                .is_ok_and(|p| solution.validate(&p).is_ok()),
            "placer produced an overlapping packing"
        );
        HeuristicResult {
            solution: (self.peak <= self.problem.capacity()).then_some(solution),
            peak: self.peak,
        }
    }
}

impl std::fmt::Debug for Placer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Placer")
            .field("buffers", &self.spans.len())
            .field("spans", &self.spans)
            .field("peak", &self.peak)
            .finish_non_exhaustive()
    }
}

/// The lowest aligned address at which `b` avoids every span of the
/// sorted `occupied`, or `None` when the sweep overflows the address
/// space.
// tela-lint: hot-path
fn lowest_gap(occupied: &[(Address, Address)], b: &Buffer) -> Option<Address> {
    let mut addr: Address = 0;
    for &(s, e) in occupied {
        if s >= addr.checked_add(b.size())? {
            break;
        }
        if e > addr {
            addr = b.align_up(e)?;
        }
    }
    addr.checked_add(b.size())?;
    Some(addr)
}

/// Runs lowest-fit placement in the given order. An address-space
/// overflow mid-sweep aborts to a "no solution" result instead of
/// panicking.
pub fn place_in_order(problem: &Problem, order: &[BufferId]) -> HeuristicResult {
    let mut placer = Placer::new(problem);
    for &id in order {
        if placer.place(id).is_none() {
            return HeuristicResult {
                solution: None,
                peak: Address::MAX,
            };
        }
    }
    placer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::{examples, Buffer};

    #[test]
    fn fills_gaps_under_overhangs() {
        // Tall block, then a short one, then a block that fits in the
        // hole underneath the tall block's overhang.
        let p = Problem::builder(20)
            .buffer(Buffer::new(0, 4, 10)) // [0, 10)
            .buffer(Buffer::new(4, 8, 2)) // [0, 2) after block 0 dies
            .buffer(Buffer::new(5, 7, 3)) // fits at [2, 5)
            .build()
            .unwrap();
        let r = place_in_order(&p, &[BufferId::new(0), BufferId::new(1), BufferId::new(2)]);
        let s = r.solution.unwrap();
        assert_eq!(s.addresses(), &[0, 0, 2]);
    }

    #[test]
    fn respects_alignment() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 2, 10))
            .buffer(Buffer::new(0, 2, 8).with_align(32))
            .build()
            .unwrap();
        let r = place_in_order(&p, &[BufferId::new(0), BufferId::new(1)]);
        assert_eq!(r.solution.unwrap().addresses(), &[0, 32]);
    }

    #[test]
    fn lowest_fit_is_idempotent_until_place() {
        let p = examples::tiny();
        let mut placer = Placer::new(&p);
        let id = BufferId::new(0);
        assert_eq!(placer.lowest_fit(id), placer.lowest_fit(id));
        let addr = placer.place(id);
        assert_eq!(addr, Some(0));
        assert!(placer.is_placed(id));
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_place_panics() {
        let p = examples::tiny();
        let mut placer = Placer::new(&p);
        placer.place(BufferId::new(0));
        placer.place(BufferId::new(0));
    }

    #[test]
    #[should_panic(expected = "all blocks")]
    fn finish_requires_completeness() {
        let p = examples::tiny();
        let placer = Placer::new(&p);
        let _ = placer.finish();
    }

    #[test]
    fn peak_tracks_highest_top() {
        let p = examples::tiny();
        let order: Vec<BufferId> = p.iter().map(|(id, _)| id).collect();
        let r = place_in_order(&p, &order);
        assert_eq!(r.peak, 16);
    }
}
