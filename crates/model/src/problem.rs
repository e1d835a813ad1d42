use serde::{Deserialize, Serialize};

use crate::buffer::BufferError;
use crate::contention::ContentionProfile;
use crate::{Buffer, BufferId, Size, TimeStep};

/// An instance of the on-chip memory allocation problem (paper §3).
///
/// A problem pairs a set of [`Buffer`]s (with fixed live ranges) with a
/// memory `capacity`. Allocators produce a [`Solution`](crate::Solution)
/// assigning a base address to every buffer.
///
/// # Example
///
/// ```
/// use tela_model::{Buffer, Problem};
///
/// let problem = Problem::builder(1024)
///     .buffer(Buffer::new(0, 10, 512))
///     .buffer(Buffer::new(5, 15, 512))
///     .build()?;
/// assert_eq!(problem.len(), 2);
/// assert_eq!(problem.overlapping_pairs().count(), 1);
/// # Ok::<(), tela_model::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Problem {
    buffers: Vec<Buffer>,
    capacity: Size,
}

/// Error produced when constructing an invalid [`Problem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A buffer is larger than the total memory capacity, so no solution
    /// can exist. Carries the offending buffer.
    BufferExceedsCapacity {
        /// The buffer that cannot fit on its own.
        buffer: BufferId,
        /// The buffer's size.
        size: Size,
        /// The problem's capacity.
        capacity: Size,
    },
    /// The problem has a zero memory capacity but at least one buffer.
    ZeroCapacity,
    /// A buffer fails basic well-formedness (empty live range, zero
    /// size, or zero alignment). Constructed `Buffer`s cannot trip this,
    /// but deserialized ones bypass the constructors.
    InvalidBuffer {
        /// The malformed buffer.
        buffer: BufferId,
        /// What is wrong with it.
        error: BufferError,
    },
    /// The buffer's `size + align - 1` overflows `u64`: rounding a
    /// feasible base address up to the alignment and adding the size —
    /// the core move of every placement sweep — could wrap for such a
    /// buffer, so the combination is rejected at construction.
    AlignOverflow {
        /// The buffer whose size/alignment combination is unrepresentable.
        buffer: BufferId,
    },
    /// The cumulative size of all buffers overflows `u64`. Contention
    /// and packing arithmetic sum sizes; rejecting the overflow here
    /// keeps those sums exact everywhere downstream.
    ExtentOverflow,
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::BufferExceedsCapacity {
                buffer,
                size,
                capacity,
            } => write!(
                f,
                "buffer {buffer} of size {size} exceeds memory capacity {capacity}"
            ),
            ProblemError::ZeroCapacity => write!(f, "memory capacity is zero"),
            ProblemError::InvalidBuffer { buffer, error } => {
                write!(f, "buffer {buffer} is malformed: {error}")
            }
            ProblemError::AlignOverflow { buffer } => write!(
                f,
                "aligning buffer {buffer} within the capacity overflows u64"
            ),
            ProblemError::ExtentOverflow => {
                write!(f, "cumulative buffer size overflows u64")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

impl Problem {
    /// Starts building a problem with the given memory capacity.
    pub fn builder(capacity: Size) -> ProblemBuilder {
        ProblemBuilder {
            buffers: Vec::new(),
            capacity,
        }
    }

    /// Builds a problem directly from a buffer list and capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if any single buffer cannot fit in
    /// memory, if the capacity is zero while buffers exist, if a buffer
    /// is malformed (empty live range, zero size, zero alignment —
    /// possible via deserialization, which bypasses the `Buffer`
    /// constructors), or if alignment or cumulative-size arithmetic
    /// would overflow `u64`.
    pub fn new(buffers: Vec<Buffer>, capacity: Size) -> Result<Self, ProblemError> {
        if capacity == 0 && !buffers.is_empty() {
            return Err(ProblemError::ZeroCapacity);
        }
        let mut total: Size = 0;
        for (i, b) in buffers.iter().enumerate() {
            let id = BufferId::new(i);
            b.check()
                .map_err(|error| ProblemError::InvalidBuffer { buffer: id, error })?;
            if b.size() > capacity {
                return Err(ProblemError::BufferExceedsCapacity {
                    buffer: id,
                    size: b.size(),
                    capacity,
                });
            }
            // Placement sweeps round a candidate base up to the
            // alignment and add the size; `size + align - 1` must be
            // representable or that arithmetic can wrap mid-search.
            if b.size().checked_add(b.align() - 1).is_none() {
                return Err(ProblemError::AlignOverflow { buffer: id });
            }
            total = total
                .checked_add(b.size())
                .ok_or(ProblemError::ExtentOverflow)?;
        }
        Ok(Problem { buffers, capacity })
    }

    /// Returns a copy of this problem with a different memory capacity.
    ///
    /// Used by the evaluation harness to sweep memory limits (the paper
    /// benchmarks at 1.10× the minimum required memory, §7).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if a buffer no longer fits.
    pub fn with_capacity(&self, capacity: Size) -> Result<Self, ProblemError> {
        Problem::new(self.buffers.clone(), capacity)
    }

    /// The memory limit `M`.
    pub fn capacity(&self) -> Size {
        self.capacity
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Returns true if the problem has no buffers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The buffers of this problem, indexed by [`BufferId`].
    pub fn buffers(&self) -> &[Buffer] {
        &self.buffers
    }

    /// Returns the buffer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this problem.
    pub fn buffer(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.index()]
    }

    /// Iterates over `(id, buffer)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BufferId, &Buffer)> {
        self.buffers
            .iter()
            .enumerate()
            .map(|(i, b)| (BufferId::new(i), b))
    }

    /// One past the largest `end` time of any buffer (0 if empty).
    pub fn horizon(&self) -> TimeStep {
        self.buffers.iter().map(Buffer::end).max().unwrap_or(0)
    }

    /// Enumerates all pairs `(i, j)` with `i < j` whose live ranges
    /// intersect — the `OverlappingBuffers` set of the ILP/CP encodings
    /// (paper §3.2, §5.1).
    ///
    /// The enumeration sweeps buffers in start-time order so the cost is
    /// `O(n log n + k)` for `k` overlapping pairs rather than `O(n²)`.
    pub fn overlapping_pairs(&self) -> OverlappingPairs<'_> {
        let mut order: Vec<u32> = (0..self.buffers.len() as u32).collect();
        order.sort_by_key(|&i| self.buffers[i as usize].start());
        OverlappingPairs {
            problem: self,
            order,
            active: Vec::new(),
            next: 0,
            emit: Vec::new(),
        }
    }

    /// Returns the per-time-step contention profile: the sum of sizes of all
    /// buffers live at each step (paper §3.1 defines a slot's *contention*).
    pub fn contention(&self) -> ContentionProfile {
        ContentionProfile::of(self)
    }

    /// The maximum contention over all time steps: a lower bound on the
    /// memory any allocator needs.
    pub fn max_contention(&self) -> Size {
        self.contention().max()
    }

    /// The contention of a single buffer: the maximum contention of any
    /// time slot for which the buffer is live (paper §3.1).
    ///
    /// This builds the whole profile; to key many buffers, build it once
    /// and call [`ContentionProfile::max_over`] per buffer.
    pub fn buffer_contention(&self, id: BufferId) -> Size {
        let b = self.buffer(id);
        self.contention().max_over(b.start(), b.end())
    }
}

/// Iterator over time-overlapping buffer pairs; see
/// [`Problem::overlapping_pairs`].
#[derive(Debug)]
pub struct OverlappingPairs<'a> {
    problem: &'a Problem,
    order: Vec<u32>,
    active: Vec<u32>,
    next: usize,
    emit: Vec<(BufferId, BufferId)>,
}

impl Iterator for OverlappingPairs<'_> {
    type Item = (BufferId, BufferId);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(pair) = self.emit.pop() {
                return Some(pair);
            }
            if self.next >= self.order.len() {
                return None;
            }
            let idx = self.order[self.next];
            self.next += 1;
            let b = &self.problem.buffers[idx as usize];
            self.active
                .retain(|&a| self.problem.buffers[a as usize].end() > b.start());
            for &a in &self.active {
                let (lo, hi) = if a < idx { (a, idx) } else { (idx, a) };
                self.emit
                    .push((BufferId::new(lo as usize), BufferId::new(hi as usize)));
            }
            self.active.push(idx);
        }
    }
}

/// Incremental builder for [`Problem`]; see [`Problem::builder`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    buffers: Vec<Buffer>,
    capacity: Size,
}

impl ProblemBuilder {
    /// Adds one buffer.
    pub fn buffer(mut self, buffer: Buffer) -> Self {
        self.buffers.push(buffer);
        self
    }

    /// Adds many buffers.
    pub fn buffers<I: IntoIterator<Item = Buffer>>(mut self, buffers: I) -> Self {
        self.buffers.extend(buffers);
        self
    }

    /// Finalizes the problem.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] under the same conditions as
    /// [`Problem::new`].
    pub fn build(self) -> Result<Problem, ProblemError> {
        Problem::new(self.buffers, self.capacity)
    }
}

impl FromIterator<Buffer> for ProblemBuilder {
    /// Collects buffers into a builder with a placeholder capacity of
    /// `u64::MAX`; call [`Problem::with_capacity`] afterwards to set a real
    /// limit.
    fn from_iter<T: IntoIterator<Item = Buffer>>(iter: T) -> Self {
        ProblemBuilder {
            buffers: iter.into_iter().collect(),
            capacity: u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs_of(problem: &Problem) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = problem
            .overlapping_pairs()
            .map(|(a, b)| (a.index(), b.index()))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_problem() {
        let p = Problem::builder(10).build().unwrap();
        assert!(p.is_empty());
        assert_eq!(p.horizon(), 0);
        assert_eq!(p.max_contention(), 0);
        assert_eq!(pairs_of(&p), vec![]);
    }

    #[test]
    fn oversized_buffer_rejected() {
        let err = Problem::builder(10)
            .buffer(Buffer::new(0, 1, 11))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ProblemError::BufferExceedsCapacity {
                size: 11,
                capacity: 10,
                ..
            }
        ));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn zero_capacity_rejected() {
        let err = Problem::builder(0)
            .buffer(Buffer::new(0, 1, 1))
            .build()
            .unwrap_err();
        assert_eq!(err, ProblemError::ZeroCapacity);
    }

    #[test]
    fn zero_capacity_empty_problem_allowed() {
        assert!(Problem::builder(0).build().is_ok());
    }

    #[test]
    fn align_overflow_rejected() {
        // size + align - 1 wraps: placement arithmetic could overflow
        // mid-sweep, so construction refuses the combination.
        let err = Problem::builder(u64::MAX)
            .buffer(Buffer::new(0, 1, u64::MAX).with_align(2))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ProblemError::AlignOverflow {
                buffer: BufferId::new(0)
            }
        );
        assert!(err.to_string().contains("overflows"));
        // The same size without the alignment is representable.
        assert!(Problem::builder(u64::MAX)
            .buffer(Buffer::new(0, 1, u64::MAX))
            .build()
            .is_ok());
    }

    #[test]
    fn extent_overflow_rejected() {
        // Each buffer fits on its own, but the cumulative size wraps.
        let err = Problem::builder(u64::MAX)
            .buffer(Buffer::new(0, 1, u64::MAX))
            .buffer(Buffer::new(2, 3, 1))
            .build()
            .unwrap_err();
        assert_eq!(err, ProblemError::ExtentOverflow);
        assert!(err.to_string().contains("cumulative"));
    }

    #[test]
    fn overlapping_pairs_chain() {
        // a overlaps b, b overlaps c, a does not overlap c.
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 4, 1))
            .buffer(Buffer::new(3, 7, 1))
            .buffer(Buffer::new(6, 9, 1))
            .build()
            .unwrap();
        assert_eq!(pairs_of(&p), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn overlapping_pairs_all_overlap() {
        let p = Problem::builder(100)
            .buffers((0..4).map(|_| Buffer::new(0, 5, 1)))
            .build()
            .unwrap();
        assert_eq!(pairs_of(&p).len(), 6);
    }

    #[test]
    fn overlapping_pairs_none_overlap() {
        let p = Problem::builder(100)
            .buffers((0..5).map(|i| Buffer::new(i * 2, i * 2 + 2, 1)))
            .build()
            .unwrap();
        assert_eq!(pairs_of(&p), vec![]);
    }

    #[test]
    fn overlapping_pairs_matches_quadratic_reference() {
        // Cross-check the sweep against the obvious O(n^2) enumeration.
        let spans = [
            (0u32, 5u32),
            (1, 3),
            (2, 9),
            (4, 6),
            (8, 12),
            (11, 13),
            (0, 13),
        ];
        let p = Problem::builder(100)
            .buffers(spans.iter().map(|&(s, e)| Buffer::new(s, e, 1)))
            .build()
            .unwrap();
        let mut expected = Vec::new();
        for i in 0..spans.len() {
            for j in (i + 1)..spans.len() {
                if p.buffers()[i].overlaps_in_time(&p.buffers()[j]) {
                    expected.push((i, j));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(pairs_of(&p), expected);
    }

    #[test]
    fn buffer_contention_is_max_over_live_slots() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 6, 10)) // live through both bumps
            .buffer(Buffer::new(0, 2, 20))
            .buffer(Buffer::new(4, 6, 50))
            .build()
            .unwrap();
        assert_eq!(p.buffer_contention(BufferId::new(0)), 60);
        assert_eq!(p.buffer_contention(BufferId::new(1)), 30);
        assert_eq!(p.buffer_contention(BufferId::new(2)), 60);
    }

    #[test]
    fn with_capacity_rescales() {
        let p = Problem::builder(100)
            .buffer(Buffer::new(0, 1, 50))
            .build()
            .unwrap();
        let q = p.with_capacity(55).unwrap();
        assert_eq!(q.capacity(), 55);
        assert!(p.with_capacity(49).is_err());
    }

    #[test]
    fn horizon_is_exclusive_end() {
        let p = Problem::builder(10)
            .buffer(Buffer::new(3, 7, 1))
            .build()
            .unwrap();
        assert_eq!(p.horizon(), 7);
    }
}
