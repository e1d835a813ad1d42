use serde::{Deserialize, Serialize};

use crate::{BufferId, Problem, Size, TimeStep};

/// Per-time-step live-memory demand of a [`Problem`].
///
/// The *contention* of a time slot is the sum of the sizes of all buffers
/// live at that slot (paper §3.1). The maximum over all slots is a lower
/// bound on the memory any allocator needs.
///
/// # Example
///
/// ```
/// use tela_model::{Buffer, Problem};
///
/// let p = Problem::builder(100)
///     .buffer(Buffer::new(0, 3, 10))
///     .buffer(Buffer::new(1, 2, 5))
///     .build()?;
/// let c = p.contention();
/// assert_eq!(c.at(0), 10);
/// assert_eq!(c.at(1), 15);
/// assert_eq!(c.max(), 15);
/// # Ok::<(), tela_model::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContentionProfile {
    per_step: Vec<Size>,
}

impl ContentionProfile {
    /// Computes the contention profile of a problem in `O(n + horizon)`
    /// via a difference array.
    pub fn of(problem: &Problem) -> Self {
        let horizon = problem.horizon() as usize;
        let mut delta = vec![0i128; horizon + 1];
        for buffer in problem.buffers() {
            delta[buffer.start() as usize] += i128::from(buffer.size());
            delta[buffer.end() as usize] -= i128::from(buffer.size());
        }
        let mut per_step = Vec::with_capacity(horizon);
        let mut acc = 0i128;
        for d in delta.iter().take(horizon) {
            acc += d;
            // `Problem::new` rejects cumulative sizes past u64::MAX
            // (ProblemError::ExtentOverflow), so the running sum always
            // fits a Size; saturate rather than panic if a hand-built
            // Problem ever violates that.
            debug_assert!((0..=i128::from(Size::MAX)).contains(&acc));
            per_step.push(Size::try_from(acc.max(0)).unwrap_or(Size::MAX));
        }
        ContentionProfile { per_step }
    }

    /// Contention at time step `t` (0 for steps past the horizon).
    pub fn at(&self, t: TimeStep) -> Size {
        self.per_step.get(t as usize).copied().unwrap_or(0)
    }

    /// Maximum contention over all time steps.
    pub fn max(&self) -> Size {
        self.per_step.iter().copied().max().unwrap_or(0)
    }

    /// Maximum contention over the steps `start..end` (steps past the
    /// horizon count as 0). Over a buffer's live range this is the
    /// buffer's own *contention* (paper §3.1), the greedy heuristic's
    /// primary ordering key.
    pub fn max_over(&self, start: TimeStep, end: TimeStep) -> Size {
        let end = (end as usize).min(self.per_step.len());
        self.per_step
            .get((start as usize).min(end)..end)
            .and_then(|steps| steps.iter().copied().max())
            .unwrap_or(0)
    }

    /// Number of time steps covered (the problem horizon).
    pub fn len(&self) -> usize {
        self.per_step.len()
    }

    /// Returns true if the profile covers no time steps.
    pub fn is_empty(&self) -> bool {
        self.per_step.is_empty()
    }

    /// The raw per-step contention values.
    pub fn as_slice(&self) -> &[Size] {
        &self.per_step
    }
}

/// A contiguous high-contention time range with its associated blocks
/// (paper §5.3, Figure 9).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase {
    /// Threshold (percent of total memory) at which this phase was found.
    pub threshold_percent: u32,
    /// First time step of the high-contention range.
    pub start: TimeStep,
    /// One past the last time step of the high-contention range.
    pub end: TimeStep,
    /// Buffers assigned to this phase, in id order.
    pub blocks: Vec<BufferId>,
}

/// Assignment of every buffer to a contention phase (paper §5.3).
///
/// Phases are ordered by decreasing contention threshold (ties broken by
/// start time); TelaMalloc places blocks phase by phase, preferring blocks
/// in the same phase as the previously placed block.
///
/// The Figure 9 algorithm sweeps thresholds from 100% down to 20% of total
/// memory, carving out contiguous time ranges whose contention meets the
/// threshold and assigning any still-unassigned overlapping blocks to the
/// range. Blocks whose contention never reaches 20% land in a trailing
/// catch-all phase.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhasePartition {
    phases: Vec<Phase>,
    phase_of: Vec<u32>,
}

/// Threshold schedule from Figure 9 of the paper.
const THRESHOLD_PERCENTS: [u32; 9] = [100, 90, 80, 70, 60, 50, 40, 30, 20];

impl PhasePartition {
    /// Runs the Figure 9 phase-identification algorithm on `problem`.
    ///
    /// Per threshold, one sweep over the horizon collects the closed
    /// high-contention ranges; each still-unassigned buffer then joins
    /// the earliest range it overlaps, found by binary search over the
    /// ranges' ends. That is `O(horizon + n log r)` per threshold for `r`
    /// ranges, where testing every buffer against every range was
    /// `O(n · r)`.
    pub fn compute(problem: &Problem) -> Self {
        let contention = problem.contention();
        let horizon = problem.horizon();
        let mut phases: Vec<Phase> = Vec::new();
        let mut phase_of = vec![0u32; problem.len()];
        // Unassigned buffers, kept in id order.
        let mut unassigned: Vec<BufferId> = problem.iter().map(|(id, _)| id).collect();
        let mut ranges: Vec<(TimeStep, TimeStep)> = Vec::new();

        for percent in THRESHOLD_PERCENTS {
            if unassigned.is_empty() {
                break;
            }
            let threshold = threshold_for(problem.capacity(), percent);
            ranges.clear();
            let mut range_start: Option<TimeStep> = None;
            // Iterate one step past the horizon (contention 0) so that a
            // trailing high-contention range is closed.
            for t in 0..=horizon {
                let high = t < horizon && contention.at(t) >= threshold;
                match (high, range_start) {
                    (true, None) => range_start = Some(t),
                    (false, Some(start)) => {
                        range_start = None;
                        ranges.push((start, t));
                    }
                    _ => {}
                }
            }
            // The ranges are disjoint and in time order, so the first one
            // ending after a buffer starts is the only candidate for the
            // earliest overlap.
            let mut blocks: Vec<Vec<BufferId>> = vec![Vec::new(); ranges.len()];
            unassigned.retain(|&id| {
                let buffer = problem.buffer(id);
                let r = ranges.partition_point(|&(_, end)| end <= buffer.start());
                match ranges.get(r) {
                    Some(&(start, _)) if start < buffer.end() => {
                        blocks[r].push(id);
                        false
                    }
                    _ => true,
                }
            });
            for (&(start, end), blocks) in ranges.iter().zip(blocks) {
                // A range with no fresh blocks still exists in time but
                // adds nothing to the search; skip it.
                if blocks.is_empty() {
                    continue;
                }
                for id in &blocks {
                    phase_of[id.index()] = phases.len() as u32;
                }
                phases.push(Phase {
                    threshold_percent: percent,
                    start,
                    end,
                    blocks,
                });
            }
        }

        if !unassigned.is_empty() {
            for id in &unassigned {
                phase_of[id.index()] = phases.len() as u32;
            }
            phases.push(Phase {
                threshold_percent: 0,
                start: 0,
                end: horizon,
                blocks: unassigned,
            });
        }
        PhasePartition { phases, phase_of }
    }

    /// The phases, in decreasing order of the contention threshold at which
    /// they were discovered.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Index (into [`PhasePartition::phases`]) of the phase containing
    /// `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the partitioned problem.
    pub fn phase_of(&self, id: BufferId) -> usize {
        self.phase_of[id.index()] as usize
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Returns true if there are no phases (empty problem).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

fn threshold_for(capacity: Size, percent: u32) -> Size {
    // percent * capacity / 100 without overflow.
    (u128::from(capacity) * u128::from(percent) / 100) as Size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Buffer;
    use proptest::prelude::*;

    /// The Figure 9 algorithm as first written: every closed range scans
    /// all buffers. Kept as the oracle for [`PhasePartition::compute`].
    fn compute_by_full_scan(problem: &Problem) -> PhasePartition {
        let contention = problem.contention();
        let horizon = problem.horizon();
        let mut phases: Vec<Phase> = Vec::new();
        let mut phase_of: Vec<Option<u32>> = vec![None; problem.len()];
        let mut assigned = 0usize;

        for percent in THRESHOLD_PERCENTS {
            if assigned == problem.len() {
                break;
            }
            let threshold = threshold_for(problem.capacity(), percent);
            let mut range_start: Option<TimeStep> = None;
            for t in 0..=horizon {
                let high = t < horizon && contention.at(t) >= threshold;
                match (high, range_start) {
                    (true, None) => range_start = Some(t),
                    (false, Some(start)) => {
                        range_start = None;
                        let mut blocks = Vec::new();
                        for (id, buffer) in problem.iter() {
                            if phase_of[id.index()].is_none()
                                && buffer.start() < t
                                && buffer.end() > start
                            {
                                phase_of[id.index()] = Some(phases.len() as u32);
                                blocks.push(id);
                                assigned += 1;
                            }
                        }
                        if !blocks.is_empty() {
                            phases.push(Phase {
                                threshold_percent: percent,
                                start,
                                end: t,
                                blocks,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }

        if assigned < problem.len() {
            let mut blocks = Vec::new();
            for (id, _) in problem.iter() {
                if phase_of[id.index()].is_none() {
                    phase_of[id.index()] = Some(phases.len() as u32);
                    blocks.push(id);
                }
            }
            phases.push(Phase {
                threshold_percent: 0,
                start: 0,
                end: horizon,
                blocks,
            });
        }

        let phase_of = phase_of
            .into_iter()
            .map(|p| p.expect("all blocks assigned"))
            .collect();
        PhasePartition { phases, phase_of }
    }

    fn problem_strategy() -> impl Strategy<Value = Problem> {
        let buffer = (0u32..60, 1u32..16, 1u64..40)
            .prop_map(|(start, len, size)| Buffer::new(start, start + len, size));
        (prop::collection::vec(buffer, 0..80), 0u64..150).prop_map(|(buffers, extra)| {
            let probe = Problem::new(buffers, u64::MAX).expect("unbounded problem is valid");
            // From exactly the peak contention up to 2.5x it, so every
            // threshold band gets ranges.
            let capacity = (probe.max_contention() * (100 + extra) / 100).max(1);
            probe
                .with_capacity(capacity)
                .expect("capacity covers contention")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn compute_matches_the_full_scan(problem in problem_strategy()) {
            prop_assert_eq!(PhasePartition::compute(&problem), compute_by_full_scan(&problem));
        }
    }

    #[test]
    fn profile_of_empty_problem() {
        let p = Problem::builder(10).build().unwrap();
        let c = p.contention();
        assert!(c.is_empty());
        assert_eq!(c.max(), 0);
        assert_eq!(c.at(3), 0);
    }

    #[test]
    fn profile_sums_live_sizes() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 4, 10))
            .buffer(Buffer::new(2, 6, 20))
            .buffer(Buffer::new(3, 4, 5))
            .build()
            .unwrap();
        let c = p.contention();
        assert_eq!(c.as_slice(), &[10, 10, 30, 35, 20, 20]);
        assert_eq!(c.max(), 35);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn max_over_is_max_of_per_step_values() {
        // The `Problem::buffer_contention_is_max_over_live_slots` case.
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 6, 10))
            .buffer(Buffer::new(0, 2, 20))
            .buffer(Buffer::new(4, 6, 50))
            .build()
            .unwrap();
        let c = p.contention();
        assert_eq!(c.max_over(0, 6), 60);
        assert_eq!(c.max_over(0, 2), 30);
        assert_eq!(c.max_over(4, 6), 60);
        assert_eq!(c.max_over(2, 4), 10);
        for (id, b) in p.iter() {
            let by_step = (b.start()..b.end()).map(|t| c.at(t)).max().unwrap_or(0);
            assert_eq!(c.max_over(b.start(), b.end()), by_step, "{id}");
        }
        // Empty ranges read 0, and steps past the horizon count as 0.
        assert_eq!(c.max_over(3, 3), 0);
        assert_eq!(c.max_over(5, 99), 60);
        assert_eq!(c.max_over(7, 99), 0);
        assert_eq!(c.max_over(4, 2), 0);
    }

    #[test]
    fn profile_at_past_horizon_is_zero() {
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 2, 3))
            .build()
            .unwrap();
        assert_eq!(p.contention().at(99), 0);
    }

    /// Two separate contention humps at 100% capacity plus a low valley.
    fn two_hump_problem() -> Problem {
        Problem::builder(100)
            .buffer(Buffer::new(0, 4, 60)) // hump 1
            .buffer(Buffer::new(0, 4, 40)) // hump 1
            .buffer(Buffer::new(4, 6, 10)) // valley
            .buffer(Buffer::new(6, 9, 50)) // hump 2
            .buffer(Buffer::new(6, 9, 50)) // hump 2
            .build()
            .unwrap()
    }

    #[test]
    fn phases_found_in_decreasing_contention_order() {
        let p = two_hump_problem();
        let partition = PhasePartition::compute(&p);
        // Both humps hit 100% and are found at the 100% threshold; the
        // valley block lands in a lower-threshold phase.
        assert_eq!(partition.len(), 3);
        assert_eq!(partition.phases()[0].threshold_percent, 100);
        assert_eq!(partition.phases()[1].threshold_percent, 100);
        assert_eq!(
            partition.phases()[0].blocks,
            vec![BufferId::new(0), BufferId::new(1)]
        );
        assert_eq!(
            partition.phases()[1].blocks,
            vec![BufferId::new(3), BufferId::new(4)]
        );
        assert_eq!(partition.phases()[2].blocks, vec![BufferId::new(2)]);
        assert!(partition.phases()[2].threshold_percent < 100);
    }

    #[test]
    fn every_block_gets_exactly_one_phase() {
        let p = two_hump_problem();
        let partition = PhasePartition::compute(&p);
        let mut seen = vec![false; p.len()];
        for phase in partition.phases() {
            for &id in &phase.blocks {
                assert!(!seen[id.index()], "block {id} assigned twice");
                seen[id.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        for (id, _) in p.iter() {
            let ph = partition.phase_of(id);
            assert!(partition.phases()[ph].blocks.contains(&id));
        }
    }

    #[test]
    fn low_contention_blocks_fall_into_catch_all() {
        let p = Problem::builder(1000)
            .buffer(Buffer::new(0, 5, 10))
            .build()
            .unwrap();
        let partition = PhasePartition::compute(&p);
        assert_eq!(partition.len(), 1);
        assert_eq!(partition.phases()[0].threshold_percent, 0);
    }

    #[test]
    fn trailing_high_contention_range_is_closed() {
        // Contention stays at 100% up to the horizon.
        let p = Problem::builder(10)
            .buffer(Buffer::new(0, 5, 10))
            .build()
            .unwrap();
        let partition = PhasePartition::compute(&p);
        assert_eq!(partition.len(), 1);
        assert_eq!(partition.phases()[0].threshold_percent, 100);
        assert_eq!(partition.phases()[0].start, 0);
        assert_eq!(partition.phases()[0].end, 5);
    }

    #[test]
    fn empty_problem_has_no_phases() {
        let p = Problem::builder(10).build().unwrap();
        assert!(PhasePartition::compute(&p).is_empty());
    }

    #[test]
    fn blocks_spanning_two_ranges_assigned_once_to_first() {
        // A long block overlaps both 100%-contention ranges; it must be
        // assigned to the first (earliest) one only.
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 10, 20)) // spans everything
            .buffer(Buffer::new(0, 3, 80))
            .buffer(Buffer::new(7, 10, 80))
            .build()
            .unwrap();
        let partition = PhasePartition::compute(&p);
        assert_eq!(partition.phase_of(BufferId::new(0)), 0);
        assert_eq!(partition.phase_of(BufferId::new(1)), 0);
        assert_eq!(partition.phase_of(BufferId::new(2)), 1);
    }
}
