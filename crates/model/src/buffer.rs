use serde::{Deserialize, Serialize};

use crate::{Address, Size, TimeStep};

/// Identifies a buffer within a [`Problem`](crate::Problem) by its index.
///
/// Buffer ids are dense: a problem with `n` buffers uses ids `0..n`.
///
/// # Example
///
/// ```
/// use tela_model::BufferId;
///
/// let id = BufferId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BufferId(u32);

impl BufferId {
    /// Creates a buffer id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`. Ids are only minted for
    /// buffers of an in-memory `Problem`, whose length is bounded far
    /// below `u32::MAX` in practice; this is a constructor precondition,
    /// not a solve-path hazard.
    pub fn new(index: usize) -> Self {
        BufferId(u32::try_from(index).expect("buffer index fits in u32"))
    }

    /// Returns the dense index of this buffer within its problem.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for BufferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl From<usize> for BufferId {
    fn from(index: usize) -> Self {
        BufferId::new(index)
    }
}

/// Why a buffer description is malformed; see [`Buffer::try_new`] and
/// [`Problem::new`](crate::Problem::new).
///
/// [`Buffer::new`] panics on these conditions; the fallible
/// constructors return them instead, and
/// [`Problem::new`](crate::Problem::new) re-checks every buffer so that
/// instances arriving through deserialization (which bypasses the
/// constructors) are still rejected before any solver sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// `end <= start`: the half-open live range `[start, end)` is empty.
    EmptyLiveRange {
        /// The start of the rejected range.
        start: TimeStep,
        /// The (exclusive) end of the rejected range.
        end: TimeStep,
    },
    /// The buffer's size is zero.
    ZeroSize,
    /// The buffer's alignment is zero (1 means unconstrained).
    ZeroAlign,
}

impl std::fmt::Display for BufferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferError::EmptyLiveRange { start, end } => {
                write!(f, "buffer live range must be non-empty: [{start}, {end})")
            }
            BufferError::ZeroSize => write!(f, "buffer size must be positive"),
            BufferError::ZeroAlign => write!(f, "alignment must be positive"),
        }
    }
}

impl std::error::Error for BufferError {}

/// A memory buffer with a fixed live range and size.
///
/// The live range is half-open: the buffer is live for all time steps `t`
/// with `start <= t < end`. Two buffers overlap in time iff their half-open
/// ranges intersect. The allocator must choose an [`Address`] for each
/// buffer; the buffer then occupies addresses `[address, address + size)`.
///
/// `align` constrains the chosen address to a multiple of `align`
/// (paper §5.5); `align == 1` means unconstrained.
///
/// # Example
///
/// ```
/// use tela_model::Buffer;
///
/// let a = Buffer::new(0, 4, 128);
/// let b = Buffer::new(3, 8, 64).with_align(32);
/// assert!(a.overlaps_in_time(&b));
/// assert_eq!(b.align(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Buffer {
    start: TimeStep,
    end: TimeStep,
    size: Size,
    align: Size,
}

impl Buffer {
    /// Creates a buffer live over the half-open range `[start, end)` with
    /// the given size and no alignment constraint.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start` or `size == 0`; degenerate buffers are
    /// rejected eagerly so every downstream invariant can rely on non-empty
    /// live ranges and positive sizes.
    pub fn new(start: TimeStep, end: TimeStep, size: Size) -> Self {
        match Buffer::try_new(start, end, size) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Buffer::new`].
    ///
    /// # Errors
    ///
    /// [`BufferError::EmptyLiveRange`] if `end <= start`,
    /// [`BufferError::ZeroSize`] if `size == 0`.
    pub fn try_new(start: TimeStep, end: TimeStep, size: Size) -> Result<Self, BufferError> {
        if end <= start {
            return Err(BufferError::EmptyLiveRange { start, end });
        }
        if size == 0 {
            return Err(BufferError::ZeroSize);
        }
        Ok(Buffer {
            start,
            end,
            size,
            align: 1,
        })
    }

    /// Returns a copy of this buffer with the given alignment requirement.
    ///
    /// # Panics
    ///
    /// Panics if `align == 0`.
    #[must_use]
    pub fn with_align(self, align: Size) -> Self {
        match self.try_with_align(align) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Buffer::with_align`].
    ///
    /// # Errors
    ///
    /// [`BufferError::ZeroAlign`] if `align == 0`.
    pub fn try_with_align(mut self, align: Size) -> Result<Self, BufferError> {
        if align == 0 {
            return Err(BufferError::ZeroAlign);
        }
        self.align = align;
        Ok(self)
    }

    /// Re-checks the constructor invariants.
    ///
    /// The constructors already enforce these, but a `Buffer` can also
    /// arrive through deserialization, which writes the fields directly;
    /// [`Problem::new`](crate::Problem::new) calls this on every buffer so
    /// degenerate instances are rejected at the boundary instead of
    /// panicking deep inside a solver.
    ///
    /// # Errors
    ///
    /// The same [`BufferError`]s as [`Buffer::try_new`] and
    /// [`Buffer::try_with_align`].
    pub fn check(&self) -> Result<(), BufferError> {
        if self.end <= self.start {
            return Err(BufferError::EmptyLiveRange {
                start: self.start,
                end: self.end,
            });
        }
        if self.size == 0 {
            return Err(BufferError::ZeroSize);
        }
        if self.align == 0 {
            return Err(BufferError::ZeroAlign);
        }
        Ok(())
    }

    /// First time step at which the buffer is live.
    pub fn start(&self) -> TimeStep {
        self.start
    }

    /// First time step at which the buffer is no longer live (exclusive).
    pub fn end(&self) -> TimeStep {
        self.end
    }

    /// Size of the buffer in allocation units.
    pub fn size(&self) -> Size {
        self.size
    }

    /// Required address alignment (1 = unconstrained).
    pub fn align(&self) -> Size {
        self.align
    }

    /// Number of time steps for which the buffer is live
    /// (`end - start`; the paper calls this the buffer's *lifetime*).
    pub fn lifetime(&self) -> TimeStep {
        self.end - self.start
    }

    /// The buffer's *area*: `size × lifetime`, one of the block-selection
    /// metrics used by TelaMalloc's heuristics (paper §5.1).
    pub fn area(&self) -> u128 {
        u128::from(self.size) * u128::from(self.lifetime())
    }

    /// Returns true if this buffer is live at time step `t`.
    pub fn live_at(&self, t: TimeStep) -> bool {
        self.start <= t && t < self.end
    }

    /// Returns true if the two buffers' live ranges intersect.
    pub fn overlaps_in_time(&self, other: &Buffer) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Rounds `addr` up to the next address satisfying this buffer's
    /// alignment constraint. Returns `None` on overflow.
    pub fn align_up(&self, addr: Address) -> Option<Address> {
        if self.align <= 1 {
            return Some(addr);
        }
        let rem = addr % self.align;
        if rem == 0 {
            Some(addr)
        } else {
            addr.checked_add(self.align - rem)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_range_is_half_open() {
        let b = Buffer::new(2, 5, 10);
        assert!(!b.live_at(1));
        assert!(b.live_at(2));
        assert!(b.live_at(4));
        assert!(!b.live_at(5));
    }

    #[test]
    fn adjacent_buffers_do_not_overlap() {
        let a = Buffer::new(0, 3, 1);
        let b = Buffer::new(3, 6, 1);
        assert!(!a.overlaps_in_time(&b));
        assert!(!b.overlaps_in_time(&a));
    }

    #[test]
    fn overlapping_buffers_detected_symmetrically() {
        let a = Buffer::new(0, 4, 1);
        let b = Buffer::new(3, 6, 1);
        assert!(a.overlaps_in_time(&b));
        assert!(b.overlaps_in_time(&a));
    }

    #[test]
    fn nested_live_ranges_overlap() {
        let outer = Buffer::new(0, 10, 1);
        let inner = Buffer::new(4, 5, 1);
        assert!(outer.overlaps_in_time(&inner));
        assert!(inner.overlaps_in_time(&outer));
    }

    #[test]
    fn lifetime_and_area() {
        let b = Buffer::new(3, 8, 20);
        assert_eq!(b.lifetime(), 5);
        assert_eq!(b.area(), 100);
    }

    #[test]
    fn align_up_rounds_to_multiple() {
        let b = Buffer::new(0, 1, 8).with_align(32);
        assert_eq!(b.align_up(0), Some(0));
        assert_eq!(b.align_up(1), Some(32));
        assert_eq!(b.align_up(32), Some(32));
        assert_eq!(b.align_up(33), Some(64));
    }

    #[test]
    fn align_up_detects_overflow() {
        let b = Buffer::new(0, 1, 8).with_align(64);
        assert_eq!(b.align_up(u64::MAX - 1), None);
    }

    #[test]
    fn unaligned_buffers_pass_through() {
        let b = Buffer::new(0, 1, 8);
        assert_eq!(b.align_up(17), Some(17));
    }

    #[test]
    #[should_panic(expected = "live range")]
    fn empty_live_range_rejected() {
        let _ = Buffer::new(5, 5, 1);
    }

    #[test]
    #[should_panic(expected = "size")]
    fn zero_size_rejected() {
        let _ = Buffer::new(0, 1, 0);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            Buffer::try_new(5, 5, 1),
            Err(BufferError::EmptyLiveRange { start: 5, end: 5 })
        );
        assert_eq!(
            Buffer::try_new(7, 3, 1),
            Err(BufferError::EmptyLiveRange { start: 7, end: 3 })
        );
        assert_eq!(Buffer::try_new(0, 1, 0), Err(BufferError::ZeroSize));
        assert!(Buffer::try_new(0, 1, 1).is_ok());
    }

    #[test]
    fn try_with_align_rejects_zero() {
        let b = Buffer::new(0, 1, 8);
        assert_eq!(b.try_with_align(0), Err(BufferError::ZeroAlign));
        assert_eq!(b.try_with_align(16).unwrap().align(), 16);
    }

    #[test]
    fn check_validates_constructed_buffers() {
        assert!(Buffer::new(0, 4, 16).with_align(8).check().is_ok());
    }

    #[test]
    fn malformed_buffers_rejected_at_problem_construction() {
        // Deserialization writes fields directly, bypassing the
        // constructors; simulate that here (same-module field access)
        // and check that `Problem::new` still rejects the result.
        use crate::{Problem, ProblemError};
        for (raw, error) in [
            (
                Buffer {
                    start: 5,
                    end: 5,
                    size: 1,
                    align: 1,
                },
                BufferError::EmptyLiveRange { start: 5, end: 5 },
            ),
            (
                Buffer {
                    start: 0,
                    end: 1,
                    size: 0,
                    align: 1,
                },
                BufferError::ZeroSize,
            ),
            (
                Buffer {
                    start: 0,
                    end: 1,
                    size: 1,
                    align: 0,
                },
                BufferError::ZeroAlign,
            ),
        ] {
            let err = Problem::new(vec![raw], 100).unwrap_err();
            assert_eq!(
                err,
                ProblemError::InvalidBuffer {
                    buffer: crate::BufferId::new(0),
                    error,
                }
            );
        }
    }

    #[test]
    fn buffer_error_displays() {
        assert!(BufferError::EmptyLiveRange { start: 2, end: 2 }
            .to_string()
            .contains("live range"));
        assert!(BufferError::ZeroSize.to_string().contains("size"));
        assert!(BufferError::ZeroAlign.to_string().contains("alignment"));
    }

    #[test]
    fn buffer_id_round_trip() {
        let id = BufferId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "b42");
        assert_eq!(BufferId::from(42usize), id);
    }
}
