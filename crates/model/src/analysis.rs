//! Workload and packing analysis (paper §8.1 "Workload Analysis").
//!
//! The paper characterizes instances by their contention structure —
//! phases, troughs, how close the limit sits to the lower bound — and
//! packings by how much memory they waste. These summaries drive the
//! experiment harness's reporting and are useful to anyone triaging why
//! an instance is hard.

use serde::{Deserialize, Serialize};

use crate::{Address, BufferId, Problem, Size, Solution, TimeStep};

/// Structural summary of one allocation problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceStats {
    /// Number of buffers.
    pub buffers: usize,
    /// One past the last live time step.
    pub horizon: u32,
    /// Number of time-overlapping pairs (the CP/ILP constraint count is
    /// proportional to this).
    pub overlapping_pairs: usize,
    /// Mean number of other buffers each buffer overlaps.
    pub mean_degree: f64,
    /// Maximum contention (the structural lower bound on memory).
    pub max_contention: Size,
    /// Memory capacity.
    pub capacity: Size,
    /// `capacity / max_contention` — how much slack the allocator has
    /// (the paper evaluates at 1.10).
    pub slack_ratio: f64,
    /// Mean contention over the live portion of the schedule, as a
    /// fraction of the peak (1.0 = a flat plateau; low values =
    /// pronounced phases).
    pub contention_flatness: f64,
    /// Fraction of buffers with an alignment constraint (> 1).
    pub aligned_fraction: f64,
    /// Largest single buffer as a fraction of capacity.
    pub dominant_buffer_fraction: f64,
}

impl InstanceStats {
    /// Computes the summary for `problem`.
    pub fn of(problem: &Problem) -> Self {
        let pairs = problem.overlapping_pairs().count();
        let n = problem.len();
        let contention = problem.contention();
        let peak = contention.max().max(1);
        let live: Vec<Size> = contention
            .as_slice()
            .iter()
            .copied()
            .filter(|&c| c > 0)
            .collect();
        let mean_contention = if live.is_empty() {
            0.0
        } else {
            live.iter().sum::<Size>() as f64 / live.len() as f64
        };
        let aligned = problem.buffers().iter().filter(|b| b.align() > 1).count();
        let dominant = problem
            .buffers()
            .iter()
            .map(|b| b.size())
            .max()
            .unwrap_or(0);
        InstanceStats {
            buffers: n,
            horizon: problem.horizon(),
            overlapping_pairs: pairs,
            mean_degree: if n == 0 {
                0.0
            } else {
                2.0 * pairs as f64 / n as f64
            },
            max_contention: contention.max(),
            capacity: problem.capacity(),
            slack_ratio: problem.capacity() as f64 / peak as f64,
            contention_flatness: mean_contention / peak as f64,
            aligned_fraction: if n == 0 {
                0.0
            } else {
                aligned as f64 / n as f64
            },
            dominant_buffer_fraction: dominant as f64 / problem.capacity().max(1) as f64,
        }
    }
}

impl std::fmt::Display for InstanceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} buffers over {} steps, {} pairs (deg {:.1}), contention {}/{} \
             (slack {:.2}x, flatness {:.2}), {:.0}% aligned",
            self.buffers,
            self.horizon,
            self.overlapping_pairs,
            self.mean_degree,
            self.max_contention,
            self.capacity,
            self.slack_ratio,
            self.contention_flatness,
            self.aligned_fraction * 100.0,
        )
    }
}

/// A maximal set of simultaneously live buffers; see
/// [`maximal_live_sets`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveSet {
    /// A time step at which every member is live.
    pub time: TimeStep,
    /// Members, sorted by id.
    pub members: Vec<BufferId>,
}

/// Enumerates the maximal live sets of a problem: the sets of buffers
/// that are all live at some common time step and to which no further
/// buffer can be added.
///
/// Because the interference graph of fixed live ranges is an interval
/// graph, these are exactly its maximal cliques, and there are at most
/// `n` of them — every maximal clique is the live set at the latest
/// start time among its members. The sweep visits distinct start times
/// in order and emits the active set whenever some member dies before
/// the next start event (or at the final event), which filters out
/// dominated (non-maximal) sets.
///
/// Runs in `O(n log n)` time plus the total size of the emitted sets
/// (worst case `O(n²)` when many long-lived buffers coexist).
pub fn maximal_live_sets(problem: &Problem) -> Vec<LiveSet> {
    let buffers = problem.buffers();
    let mut order: Vec<usize> = (0..buffers.len()).collect();
    order.sort_by_key(|&i| buffers[i].start());

    let mut sets = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut next = 0;
    while next < order.len() {
        let t = buffers[order[next]].start();
        active.retain(|&a| buffers[a].end() > t);
        while next < order.len() && buffers[order[next]].start() == t {
            active.push(order[next]);
            next += 1;
        }
        let maximal = match order.get(next) {
            // A later start grows this set unless a member dies first.
            Some(&j) => active
                .iter()
                .any(|&a| buffers[a].end() <= buffers[j].start()),
            None => true,
        };
        if maximal {
            let mut members: Vec<BufferId> = active.iter().map(|&a| BufferId::new(a)).collect();
            members.sort_unstable();
            sets.push(LiveSet { time: t, members });
        }
    }
    sets
}

/// Quality summary of one packing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingStats {
    /// Highest address in use at any time.
    pub peak: Address,
    /// `peak / max_contention`: 1.0 means a perfect (waste-free) packing
    /// at the structural bound.
    pub peak_over_contention: f64,
    /// Mean over live time steps of `used bytes / live-profile height` —
    /// how much of the address range below the local skyline is actually
    /// occupied (1.0 = no holes).
    pub mean_utilization: f64,
}

impl PackingStats {
    /// Computes the summary for a solution of `problem`.
    ///
    /// # Panics
    ///
    /// Panics if `solution` has the wrong arity for `problem`.
    pub fn of(problem: &Problem, solution: &Solution) -> Self {
        assert_eq!(solution.len(), problem.len(), "solution arity mismatch");
        let unbounded = problem.with_capacity(u64::MAX).expect("raising capacity");
        let profile = solution.live_profile(&unbounded);
        let contention = problem.contention();
        let peak = profile.iter().max().copied().unwrap_or(0);
        let mut utilization_sum = 0.0;
        let mut live_steps = 0usize;
        for (t, &top) in profile.iter().enumerate() {
            if top > 0 {
                utilization_sum += contention.at(t as u32) as f64 / top as f64;
                live_steps += 1;
            }
        }
        PackingStats {
            peak,
            peak_over_contention: peak as f64 / contention.max().max(1) as f64,
            mean_utilization: if live_steps == 0 {
                1.0
            } else {
                utilization_sum / live_steps as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{examples, Buffer};

    #[test]
    fn instance_stats_of_figure1() {
        let p = examples::figure1();
        let s = InstanceStats::of(&p);
        assert_eq!(s.buffers, 10);
        assert_eq!(s.capacity, 4);
        assert_eq!(s.max_contention, 4);
        assert!((s.slack_ratio - 1.0).abs() < 1e-9);
        assert!(s.overlapping_pairs > 0);
        assert!(s.contention_flatness > 0.5);
        assert_eq!(s.aligned_fraction, 0.0);
        assert!(s.to_string().contains("10 buffers"));
    }

    #[test]
    fn instance_stats_of_empty_problem() {
        let p = Problem::builder(10).build().unwrap();
        let s = InstanceStats::of(&p);
        assert_eq!(s.buffers, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.contention_flatness, 0.0);
    }

    #[test]
    fn aligned_fraction_counts_constrained_buffers() {
        let p = examples::aligned();
        let s = InstanceStats::of(&p);
        assert!(s.aligned_fraction > 0.5);
    }

    #[test]
    fn perfect_packing_scores_one() {
        // Two stacked buffers with identical ranges: no waste.
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 4, 6))
            .buffer(Buffer::new(0, 4, 4))
            .build()
            .unwrap();
        let s = Solution::new(vec![0, 6]);
        let stats = PackingStats::of(&p, &s);
        assert_eq!(stats.peak, 10);
        assert!((stats.peak_over_contention - 1.0).abs() < 1e-9);
        assert!((stats.mean_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn holey_packing_scores_below_one() {
        // A gap between the two buffers wastes address space.
        let p = Problem::builder(20)
            .buffer(Buffer::new(0, 4, 6))
            .buffer(Buffer::new(0, 4, 4))
            .build()
            .unwrap();
        let s = Solution::new(vec![0, 10]);
        let stats = PackingStats::of(&p, &s);
        assert_eq!(stats.peak, 14);
        assert!(stats.mean_utilization < 1.0);
        assert!(stats.peak_over_contention > 1.0);
    }

    #[test]
    fn maximal_live_sets_are_the_maximal_cliques() {
        // Intervals: a=[0,5) b=[1,3) c=[2,9) d=[4,6). Maximal cliques:
        // {a,b,c} (at t=2), {a,c,d} (at t=4), {c} alone after d dies...
        // {c,d} ends at 6 leaving {c}, but {c} ⊂ {a,c,d} so it is not
        // maximal.
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 5, 1))
            .buffer(Buffer::new(1, 3, 1))
            .buffer(Buffer::new(2, 9, 1))
            .buffer(Buffer::new(4, 6, 1))
            .build()
            .unwrap();
        let sets = maximal_live_sets(&p);
        let members: Vec<Vec<usize>> = sets
            .iter()
            .map(|s| s.members.iter().map(|b| b.index()).collect())
            .collect();
        assert_eq!(members, vec![vec![0, 1, 2], vec![0, 2, 3]]);
        for set in &sets {
            for id in &set.members {
                assert!(p.buffer(*id).live_at(set.time));
            }
        }
    }

    #[test]
    fn maximal_live_sets_of_disjoint_buffers_are_singletons() {
        let p = Problem::builder(100)
            .buffers((0..4).map(|i| Buffer::new(i * 3, i * 3 + 2, 1)))
            .build()
            .unwrap();
        let sets = maximal_live_sets(&p);
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().all(|s| s.members.len() == 1));
    }

    #[test]
    fn maximal_live_sets_empty_problem() {
        let p = Problem::builder(10).build().unwrap();
        assert!(maximal_live_sets(&p).is_empty());
    }

    #[test]
    fn dominant_buffer_fraction_reflects_giant() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 2, 80))
            .buffer(Buffer::new(4, 6, 5))
            .build()
            .unwrap();
        let s = InstanceStats::of(&p);
        assert!((s.dominant_buffer_fraction - 0.8).abs() < 1e-9);
    }
}
