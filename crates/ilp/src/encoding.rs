//! The Figure 5 ILP encoding of the allocation problem.
//!
//! Variables (in this order):
//!
//! 1. One scaled position `q_i` per buffer, with `pos_i = align_i * q_i`
//!    (the §5.5 alignment extension; `align_i == 1` reduces to the plain
//!    encoding) and bounds `0 <= q_i <= (M - size_i) / align_i`.
//! 2. One boolean `B_p` per time-overlapping pair `(i, j)`, encoding the
//!    XOR of the paper's `B_{i,j}` / `B̃_{i,j}` variables: `B_p = 1` means
//!    buffer `i` lies below buffer `j`.
//!
//! Rows (all `<=`), per pair `(i, j)` with memory limit `M`:
//!
//! ```text
//! A_i q_i - A_j q_j + M B_p <= M - size_i     (B=1 -> i below j)
//! A_j q_j - A_i q_i - M B_p <= -size_j        (B=0 -> j below i)
//! ```

use tela_model::{Address, BufferId, OverlapGraph, Problem, Solution};

/// A linear row `sum(coeff * var) <= rhs` over integer variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `(variable index, coefficient)` terms.
    pub terms: Vec<(u32, i64)>,
    /// Right-hand side.
    pub rhs: i64,
}

/// The materialized ILP for one allocation problem.
///
/// # Example
///
/// ```
/// use tela_ilp::IlpEncoding;
/// use tela_model::examples;
///
/// let enc = IlpEncoding::new(&examples::figure1());
/// assert_eq!(enc.num_position_vars(), 10);
/// assert_eq!(enc.num_rows(), 2 * enc.num_booleans());
/// ```
#[derive(Debug, Clone)]
pub struct IlpEncoding {
    problem: Problem,
    pairs: Vec<(u32, u32)>,
    bounds: Vec<(i64, i64)>,
    rows: Vec<Row>,
    /// For each variable, the rows it appears in.
    adjacency: Vec<Vec<u32>>,
}

impl IlpEncoding {
    /// Builds the encoding for `problem`.
    pub fn new(problem: &Problem) -> Self {
        let n = problem.len();
        let m = problem.capacity() as i64;
        let pairs: Vec<(u32, u32)> = OverlapGraph::of(problem).pairs().collect();

        let mut bounds = Vec::with_capacity(n + pairs.len());
        for b in problem.buffers() {
            let max_pos = (problem.capacity() - b.size()) / b.align();
            bounds.push((0, max_pos as i64));
        }
        bounds.extend(std::iter::repeat_n((0, 1), pairs.len()));

        let mut rows = Vec::with_capacity(2 * pairs.len());
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let boolean = (n + p) as u32;
            let (ai, si) = scale_size(problem, i);
            let (aj, sj) = scale_size(problem, j);
            rows.push(Row {
                terms: vec![(i, ai), (j, -aj), (boolean, m)],
                rhs: m - si,
            });
            rows.push(Row {
                terms: vec![(j, aj), (i, -ai), (boolean, -m)],
                rhs: -sj,
            });
        }

        let mut adjacency = vec![Vec::new(); n + pairs.len()];
        for (r, row) in rows.iter().enumerate() {
            for &(v, _) in &row.terms {
                adjacency[v as usize].push(r as u32);
            }
        }
        IlpEncoding {
            problem: problem.clone(),
            pairs,
            bounds,
            rows,
            adjacency,
        }
    }

    /// The encoded problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Number of position variables (= number of buffers).
    pub fn num_position_vars(&self) -> usize {
        self.problem.len()
    }

    /// Number of pair booleans.
    pub fn num_booleans(&self) -> usize {
        self.pairs.len()
    }

    /// Total variable count (positions then booleans).
    pub fn num_vars(&self) -> usize {
        self.num_position_vars() + self.num_booleans()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Variable index of the `p`-th pair boolean.
    pub fn boolean_var(&self, p: usize) -> u32 {
        (self.num_position_vars() + p) as u32
    }

    /// The buffer pair `(i, j)` of the `p`-th boolean.
    pub fn pair(&self, p: usize) -> (BufferId, BufferId) {
        let (i, j) = self.pairs[p];
        (BufferId::new(i as usize), BufferId::new(j as usize))
    }

    /// Initial bounds `(lo, hi)` of every variable.
    pub fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    /// The constraint rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Rows that variable `var` appears in.
    pub fn rows_of(&self, var: u32) -> &[u32] {
        &self.adjacency[var as usize]
    }

    /// Converts scaled position values into a [`Solution`] in raw
    /// addresses.
    pub fn solution_from_positions(&self, q: &[i64]) -> Solution {
        Solution::new(
            self.problem
                .buffers()
                .iter()
                .zip(q)
                .map(|(b, &qi)| qi as Address * b.align())
                .collect(),
        )
    }
}

fn scale_size(problem: &Problem, i: u32) -> (i64, i64) {
    let b = &problem.buffers()[i as usize];
    (b.align() as i64, b.size() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::{examples, Buffer};

    #[test]
    fn variable_and_row_counts() {
        let p = examples::figure1();
        let enc = IlpEncoding::new(&p);
        let pairs = p.overlapping_pairs().count();
        assert_eq!(enc.num_booleans(), pairs);
        assert_eq!(enc.num_vars(), p.len() + pairs);
        assert_eq!(enc.num_rows(), 2 * pairs);
    }

    #[test]
    fn bounds_scale_with_alignment() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 1, 8).with_align(32))
            .buffer(Buffer::new(0, 1, 10))
            .build()
            .unwrap();
        let enc = IlpEncoding::new(&p);
        // (100 - 8) / 32 = 2 -> q in {0, 1, 2} i.e. addresses {0, 32, 64}.
        assert_eq!(enc.bounds()[0], (0, 2));
        assert_eq!(enc.bounds()[1], (0, 90));
    }

    #[test]
    fn boolean_bounds_are_binary() {
        let enc = IlpEncoding::new(&examples::tiny());
        for p in 0..enc.num_booleans() {
            assert_eq!(enc.bounds()[enc.boolean_var(p) as usize], (0, 1));
        }
    }

    #[test]
    fn rows_encode_big_m_disjunction() {
        // One pair, sizes 6 and 4, capacity 10, no alignment.
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 2, 6))
            .buffer(Buffer::new(0, 2, 4))
            .build()
            .unwrap();
        let enc = IlpEncoding::new(&p);
        assert_eq!(enc.num_rows(), 2);
        assert_eq!(
            enc.rows()[0],
            Row {
                terms: vec![(0, 1), (1, -1), (2, 10)],
                rhs: 4
            }
        );
        assert_eq!(
            enc.rows()[1],
            Row {
                terms: vec![(1, 1), (0, -1), (2, -10)],
                rhs: -4
            }
        );
    }

    #[test]
    fn known_assignments_satisfy_rows() {
        // Check that a valid packing satisfies every row with the implied
        // boolean values, and an overlapping one violates some row for
        // both boolean values.
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 2, 6))
            .buffer(Buffer::new(0, 2, 4))
            .build()
            .unwrap();
        let enc = IlpEncoding::new(&p);
        let satisfied = |q0: i64, q1: i64, b: i64| {
            enc.rows().iter().all(|row| {
                let lhs: i64 = row
                    .terms
                    .iter()
                    .map(|&(v, c)| {
                        c * match v {
                            0 => q0,
                            1 => q1,
                            _ => b,
                        }
                    })
                    .sum();
                lhs <= row.rhs
            })
        };
        assert!(satisfied(0, 6, 1)); // buffer 0 below buffer 1
        assert!(satisfied(4, 0, 0)); // buffer 1 below buffer 0
        assert!(!satisfied(0, 3, 0) && !satisfied(0, 3, 1)); // overlap
    }

    #[test]
    fn solution_from_positions_rescales() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 1, 8).with_align(32))
            .build()
            .unwrap();
        let enc = IlpEncoding::new(&p);
        let s = enc.solution_from_positions(&[2]);
        assert_eq!(s.address(BufferId::new(0)), 64);
    }
}
