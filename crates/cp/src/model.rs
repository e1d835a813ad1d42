use tela_model::{BufferId, OverlapGraph, Problem};

use crate::ids::{Arena, PairId};

/// The static constraint model of an allocation problem: the
/// `OverlappingBuffers` pair set and, per buffer, the pairs it
/// participates in.
///
/// A `CpModel` is immutable; [`CpSolver`](crate::CpSolver) layers mutable
/// search state (domains, ordering decisions, trail) on top of it. Build
/// one model per problem and share it across repeated solves.
///
/// # Layout
///
/// The adjacency relation is the problem's shared
/// [`OverlapGraph`](tela_model::OverlapGraph): a compressed-sparse-row
/// offsets array plus one flat array of neighbour ids, each row
/// ascending. The graph's flat neighbour array doubles as the *other
/// endpoint* of each adjacency slot, so the propagation loop never
/// re-derives it with a branch; a parallel flat array (`adj_pair`) holds
/// each slot's pair index. Pairs are numbered lexicographically — pair
/// `(x, y)` for each `y > x` in row `x` — so ascending neighbour order is
/// ascending pair-index order, and iteration (and therefore
/// propagation) order is identical to the historical `Vec<Vec<PairId>>`
/// layout.
///
/// # Example
///
/// ```
/// use tela_cp::CpModel;
/// use tela_model::examples;
///
/// let model = CpModel::new(&examples::figure1())?;
/// assert!(model.pair_count() > 0);
/// # Ok::<(), tela_cp::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CpModel {
    problem: Problem,
    /// `(x, y)` buffer index pairs with `x < y`, time-overlapping,
    /// sorted ascending.
    pairs: Vec<(u32, u32)>,
    /// CSR adjacency: buffer `v`'s row is `graph.row(v)`, and each flat
    /// slot holds the other endpoint of that slot's pair.
    graph: OverlapGraph,
    /// Parallel to the graph's flat adjacency: each slot's pair index.
    adj_pair: Vec<PairId>,
    /// Per pair: its two flat adjacency slots — `[slot in x's row,
    /// slot in y's row]`. Lets the solver maintain per-slot order
    /// state without searching the rows.
    pair_slots: Vec<[u32; 2]>,
}

/// Errors detected while building a [`CpModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The per-time-step contention exceeds the capacity, so the problem
    /// is trivially infeasible before any search.
    ContentionExceedsCapacity {
        /// The maximum contention found.
        contention: u64,
        /// The memory capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::ContentionExceedsCapacity {
                contention,
                capacity,
            } => write!(
                f,
                "contention {contention} exceeds memory capacity {capacity}: trivially infeasible"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

impl CpModel {
    /// Builds the pair set and CSR adjacency for `problem`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ContentionExceedsCapacity`] when the problem
    /// is infeasible by the contention lower bound: no search is needed,
    /// the instance has no solution. Every buffer admits at least
    /// address 0, which is always aligned, because `Problem::new` bounds
    /// each size by the capacity.
    pub fn new(problem: &Problem) -> Result<Self, ModelError> {
        let contention = problem.max_contention();
        if contention > problem.capacity() {
            return Err(ModelError::ContentionExceedsCapacity {
                contention,
                capacity: problem.capacity(),
            });
        }
        // Number the pairs lexicographically by scanning each row's
        // upper neighbours. Row `y` receives its lower neighbours `x` in
        // ascending order — the order they sit in the sorted row — so a
        // per-row cursor finds each pair's second slot.
        let graph = OverlapGraph::of(problem);
        let n = problem.len();
        let mut adj_pair = vec![PairId::new(0); graph.adjacency().len()];
        let mut pairs = Vec::with_capacity(graph.edge_count());
        let mut pair_slots = Vec::with_capacity(graph.edge_count());
        let mut cursor: Vec<u32> = (0..n).map(|v| graph.row(v).start as u32).collect();
        for x in 0..n {
            for cx in graph.row(x) {
                let y = *graph.adjacency().at(cx);
                if y as usize <= x {
                    continue;
                }
                let p = PairId::new(pairs.len() as u32);
                pairs.push((x as u32, y));
                let cy = *cursor.at(y as usize) as usize;
                *cursor.at_mut(y as usize) += 1;
                *adj_pair.at_mut(cx) = p;
                *adj_pair.at_mut(cy) = p;
                pair_slots.push([cx as u32, cy as u32]);
            }
        }

        Ok(CpModel {
            problem: problem.clone(),
            pairs,
            graph,
            adj_pair,
            pair_slots,
        })
    }

    /// The underlying problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Number of ordering pairs (the quadratic term the paper's Table 1
    /// microbenchmarks stress).
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The `(x, y)` buffer indices of pair `pair` (with `x < y`).
    #[inline(always)]
    pub(crate) fn pair(&self, pair: PairId) -> (u32, u32) {
        *self.pairs.at(pair.idx())
    }

    /// The position range of buffer `var`'s adjacency row in the flat
    /// CSR arrays.
    #[inline(always)]
    pub(crate) fn row(&self, var: u32) -> std::ops::Range<usize> {
        self.graph.row(var as usize)
    }

    /// The pair index stored at flat adjacency position `at`.
    #[inline(always)]
    pub(crate) fn row_pair(&self, at: usize) -> PairId {
        *self.adj_pair.at(at)
    }

    /// The other endpoint stored at flat adjacency position `at`.
    #[inline(always)]
    pub(crate) fn row_other(&self, at: usize) -> u32 {
        *self.graph.adjacency().at(at)
    }

    /// The two flat adjacency slots of `pair`: `[x's row, y's row]`.
    #[inline(always)]
    pub(crate) fn pair_slots(&self, pair: PairId) -> [u32; 2] {
        *self.pair_slots.at(pair.idx())
    }

    /// Total number of flat adjacency slots (twice the pair count).
    pub(crate) fn adj_len(&self) -> usize {
        self.graph.adjacency().len()
    }

    /// Pairs involving buffer index `var`, ascending by pair index.
    #[cfg(test)]
    pub(crate) fn pairs_of(&self, var: u32) -> &[PairId] {
        self.adj_pair.get(self.row(var)).unwrap_or(&[])
    }

    /// Largest number of pairs any single buffer participates in.
    pub(crate) fn max_degree(&self) -> usize {
        self.graph.max_degree()
    }

    /// Buffer ids overlapping `id` in time.
    pub fn neighbors(&self, id: BufferId) -> impl Iterator<Item = BufferId> + '_ {
        self.graph
            .neighbors(id)
            .iter()
            .map(|&o| BufferId::new(o as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::{examples, Buffer};

    #[test]
    fn figure1_pair_count_matches_enumeration() {
        let p = examples::figure1();
        let model = CpModel::new(&p).unwrap();
        assert_eq!(model.pair_count(), p.overlapping_pairs().count());
    }

    #[test]
    fn contention_infeasibility_detected_at_build() {
        let err = CpModel::new(&examples::infeasible()).unwrap_err();
        assert!(matches!(
            err,
            ModelError::ContentionExceedsCapacity {
                contention: 9,
                capacity: 8
            }
        ));
        assert!(err.to_string().contains("trivially infeasible"));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let p = examples::figure1();
        let model = CpModel::new(&p).unwrap();
        for (id, _) in p.iter() {
            for n in model.neighbors(id) {
                assert!(
                    model.neighbors(n).any(|m| m == id),
                    "neighbor relation must be symmetric: {id} vs {n}"
                );
            }
        }
    }

    #[test]
    fn csr_rows_are_sorted_by_pair_index_and_consistent() {
        let p = examples::figure1();
        let model = CpModel::new(&p).unwrap();
        let mut total = 0;
        for (id, _) in p.iter() {
            let var = id.index() as u32;
            let row = model.pairs_of(var);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row sorted for {id}");
            for (at, &pair) in model.row(var).zip(row.iter()) {
                let (x, y) = model.pair(pair);
                assert!(x == var || y == var, "pair endpoint mismatch");
                let other = if x == var { y } else { x };
                assert_eq!(model.row_other(at), other, "precomputed other endpoint");
                assert_eq!(model.row_pair(at), pair);
            }
            total += row.len();
            assert!(row.len() <= model.max_degree());
        }
        assert_eq!(total, 2 * model.pair_count(), "every pair in two rows");
    }

    #[test]
    fn no_pairs_for_disjoint_buffers() {
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 1, 5))
            .buffer(Buffer::new(1, 2, 5))
            .build()
            .unwrap();
        let model = CpModel::new(&p).unwrap();
        assert_eq!(model.pair_count(), 0);
        assert_eq!(model.max_degree(), 0);
    }

    #[test]
    fn full_overlap_pair_count_is_quadratic() {
        let n = 30u32;
        let p = Problem::builder(1000)
            .buffers((0..n).map(|_| Buffer::new(0, 4, 1)))
            .build()
            .unwrap();
        let model = CpModel::new(&p).unwrap();
        assert_eq!(model.pair_count(), (n * (n - 1) / 2) as usize);
        assert_eq!(model.max_degree(), (n - 1) as usize);
    }
}
