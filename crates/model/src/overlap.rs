use std::ops::Range;

use crate::{Buffer, BufferId, Problem};

/// The time-overlap graph of a [`Problem`]'s buffers in
/// compressed-sparse-row form: one vertex per buffer, one edge per pair
/// of buffers whose live ranges intersect (the `OverlappingBuffers` set
/// of paper §3.2).
///
/// Row `v` lists the neighbours of buffer `v` in ascending id order, so
/// the lexicographic pair enumeration `(x, y)` for `y > x` in row `x` is
/// a plain scan. The greedy placer and the CP model share this one
/// builder; [`Solution::validate`](crate::Solution::validate) keeps its
/// own [`Problem::overlapping_pairs`] sweep so that it stays an
/// independent checker.
///
/// The graph is built per solve and never cached on the `Problem`.
///
/// # Example
///
/// ```
/// use tela_model::{Buffer, BufferId, OverlapGraph, Problem};
///
/// let p = Problem::builder(100)
///     .buffer(Buffer::new(0, 4, 1))
///     .buffer(Buffer::new(3, 7, 1))
///     .buffer(Buffer::new(6, 9, 1))
///     .build()?;
/// let g = OverlapGraph::of(&p);
/// assert_eq!(g.neighbors(BufferId::new(1)), &[0, 2]);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), tela_model::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapGraph {
    /// Row `v` is `adjacency[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Flat neighbour ids, each row ascending.
    adjacency: Vec<u32>,
    max_degree: u32,
}

impl OverlapGraph {
    /// Builds the graph from one sort of the buffer starts: a buffer
    /// overlaps exactly the still-live buffers that started no later
    /// than it. The sweep runs twice — once to size the rows, once to
    /// fill them — so no pair list is ever materialized. Cost is
    /// `O(n log n + k log d)` for `k` overlapping pairs and maximum
    /// degree `d`.
    pub fn of(problem: &Problem) -> Self {
        let buffers = problem.buffers();
        let n = buffers.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| buffers[i as usize].start());
        let mut degree = vec![0u32; n];
        sweep(buffers, &order, |a, b| {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        });
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut running = 0u32;
        for &d in &degree {
            running += d;
            offsets.push(running);
        }

        // Scatter both directions of every pair, then sort each row.
        let mut adjacency = vec![0u32; running as usize];
        let mut cursor = degree;
        cursor.copy_from_slice(&offsets[..n]);
        sweep(buffers, &order, |a, b| {
            adjacency[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            adjacency[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        });
        let mut max_degree = 0;
        for v in 0..n {
            let row = offsets[v] as usize..offsets[v + 1] as usize;
            max_degree = max_degree.max(row.len() as u32);
            adjacency[row].sort_unstable();
        }
        OverlapGraph {
            offsets,
            adjacency,
            max_degree,
        }
    }

    /// Number of vertices (the problem's buffer count).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Returns true if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges: the time-overlapping buffer pairs.
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Largest number of neighbours of any buffer.
    pub fn max_degree(&self) -> usize {
        self.max_degree as usize
    }

    /// The positions of buffer `v`'s row in [`OverlapGraph::adjacency`]
    /// (empty for an out-of-range `v`).
    #[inline]
    pub fn row(&self, v: usize) -> Range<usize> {
        match (self.offsets.get(v), self.offsets.get(v + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    /// The flat neighbour array: every row, concatenated in buffer order.
    /// Positions in it are stable slot ids for per-edge-endpoint state.
    #[inline]
    pub fn adjacency(&self) -> &[u32] {
        &self.adjacency
    }

    /// The buffers overlapping `id` in time, as ascending raw indices.
    #[inline]
    pub fn neighbors(&self, id: BufferId) -> &[u32] {
        self.adjacency.get(self.row(id.index())).unwrap_or(&[])
    }

    /// Every overlapping pair `(x, y)` with `x < y`, in lexicographic
    /// order: a scan of each row's upper neighbours.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.len()).flat_map(move |x| {
            let row = self.neighbors(BufferId::new(x));
            let x = x as u32;
            row.iter().filter(move |&&y| y > x).map(move |&y| (x, y))
        })
    }
}

/// Calls `pair(a, b)` once per time-overlapping pair, sweeping buffers
/// in `order` (ascending start) against the set still live.
fn sweep(buffers: &[Buffer], order: &[u32], mut pair: impl FnMut(u32, u32)) {
    let mut active: Vec<u32> = Vec::new();
    for &b in order {
        let t = buffers[b as usize].start();
        active.retain(|&a| buffers[a as usize].end() > t);
        for &a in &active {
            pair(a, b);
        }
        active.push(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Buffer;

    fn graph_of(spans: &[(u32, u32)]) -> (Problem, OverlapGraph) {
        let p = Problem::builder(100)
            .buffers(spans.iter().map(|&(s, e)| Buffer::new(s, e, 1)))
            .build()
            .unwrap();
        let g = OverlapGraph::of(&p);
        (p, g)
    }

    #[test]
    fn empty_problem_has_empty_graph() {
        let (_, g) = graph_of(&[]);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.neighbors(BufferId::new(0)), &[] as &[u32]);
    }

    #[test]
    fn rows_are_ascending_and_match_quadratic_reference() {
        let spans = [
            (0u32, 5u32),
            (1, 3),
            (2, 9),
            (4, 6),
            (8, 12),
            (11, 13),
            (0, 13),
            (5, 6),
        ];
        let (p, g) = graph_of(&spans);
        assert_eq!(g.len(), spans.len());
        let mut edges = 0;
        for (id, b) in p.iter() {
            let expected: Vec<u32> = p
                .iter()
                .filter(|&(o, ob)| o != id && b.overlaps_in_time(ob))
                .map(|(o, _)| o.index() as u32)
                .collect();
            assert_eq!(g.neighbors(id), expected.as_slice(), "row of {id}");
            assert!(g.neighbors(id).len() <= g.max_degree());
            edges += expected.len();
        }
        assert_eq!(g.edge_count() * 2, edges);
        let mut sweep: Vec<(u32, u32)> = p
            .overlapping_pairs()
            .map(|(a, b)| (a.index() as u32, b.index() as u32))
            .collect();
        sweep.sort_unstable();
        assert_eq!(g.pairs().collect::<Vec<_>>(), sweep, "lexicographic pairs");
    }

    #[test]
    fn touching_ranges_do_not_overlap() {
        let (_, g) = graph_of(&[(0, 2), (2, 4)]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn rows_tile_the_flat_array() {
        let (p, g) = graph_of(&[(0, 4), (0, 4), (0, 4), (6, 8)]);
        let mut next = 0;
        for v in 0..p.len() {
            let row = g.row(v);
            assert_eq!(row.start, next);
            next = row.end;
        }
        assert_eq!(next, g.adjacency().len());
        assert_eq!(g.row(p.len()), 0..0, "out-of-range row is empty");
        assert_eq!(g.max_degree(), 2);
    }
}
