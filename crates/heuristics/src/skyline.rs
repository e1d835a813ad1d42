use tela_model::{Address, Buffer, TimeStep};

/// The "skyline" of placed buffers: for each time slot, the maximum
/// address in use (paper §3.1, Figure 4).
///
/// Skyline-based heuristics only place blocks *on top of* the skyline —
/// they never tuck a block underneath an overhang. That restriction is
/// what makes them fast, and also what TelaMalloc's solver-guided
/// placement (§5.2) relaxes.
///
/// # Example
///
/// ```
/// use tela_heuristics::Skyline;
/// use tela_model::Buffer;
///
/// let mut sky = Skyline::new(10);
/// let a = Buffer::new(0, 4, 16);
/// let b = Buffer::new(2, 6, 8);
/// assert_eq!(sky.place(&a), Some(0));
/// assert_eq!(sky.place(&b), Some(16)); // rests on top of `a` where they overlap
/// assert_eq!(sky.top(3), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skyline {
    tops: Vec<Address>,
}

impl Skyline {
    /// Creates an empty skyline covering `horizon` time steps.
    pub fn new(horizon: TimeStep) -> Self {
        Skyline {
            tops: vec![0; horizon as usize],
        }
    }

    /// The current skyline height at time step `t` (0 past the horizon).
    pub fn top(&self, t: TimeStep) -> Address {
        self.tops.get(t as usize).copied().unwrap_or(0)
    }

    /// The maximum height over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the horizon.
    pub fn max_over(&self, start: TimeStep, end: TimeStep) -> Address {
        self.tops[start as usize..end as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// The lowest skyline address at which `buffer` can rest, honouring
    /// its alignment (without placing it). `None` means aligning past the
    /// current skyline would overflow the address space — the block
    /// cannot rest anywhere.
    pub fn position_for(&self, buffer: &Buffer) -> Option<Address> {
        let base = self.max_over(buffer.start(), buffer.end());
        let addr = buffer.align_up(base)?;
        addr.checked_add(buffer.size())?;
        Some(addr)
    }

    /// Places `buffer` on top of the skyline, returning its address and
    /// raising the skyline over its live range, or `None` (leaving the
    /// skyline untouched) when no in-range resting position exists.
    pub fn place(&mut self, buffer: &Buffer) -> Option<Address> {
        let addr = self.position_for(buffer)?;
        let new_top = addr + buffer.size();
        for t in &mut self.tops[buffer.start() as usize..buffer.end() as usize] {
            *t = new_top;
        }
        Some(addr)
    }

    /// The overall peak of the skyline.
    pub fn peak(&self) -> Address {
        self.tops.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_skyline_is_flat_zero() {
        let sky = Skyline::new(5);
        assert_eq!(sky.peak(), 0);
        assert_eq!(sky.top(3), 0);
        assert_eq!(sky.top(99), 0);
    }

    #[test]
    fn disjoint_buffers_share_ground_level() {
        let mut sky = Skyline::new(10);
        assert_eq!(sky.place(&Buffer::new(0, 3, 7)), Some(0));
        assert_eq!(sky.place(&Buffer::new(3, 6, 9)), Some(0));
        assert_eq!(sky.peak(), 9);
    }

    #[test]
    fn overlapping_buffers_stack() {
        let mut sky = Skyline::new(10);
        sky.place(&Buffer::new(0, 5, 4));
        assert_eq!(sky.place(&Buffer::new(3, 8, 4)), Some(4));
        assert_eq!(sky.place(&Buffer::new(7, 9, 4)), Some(8));
        assert_eq!(sky.peak(), 12);
    }

    #[test]
    fn skyline_never_fills_holes() {
        // A tall block then a short one leave a "step"; a third block
        // overlapping only the short one still rests on the step top at
        // its own range, not under the overhang.
        let mut sky = Skyline::new(10);
        sky.place(&Buffer::new(0, 4, 10));
        sky.place(&Buffer::new(4, 8, 2));
        // This block overlaps only [4, 8) where the skyline is 2.
        assert_eq!(sky.place(&Buffer::new(5, 7, 3)), Some(2));
    }

    #[test]
    fn alignment_rounds_resting_position() {
        let mut sky = Skyline::new(10);
        sky.place(&Buffer::new(0, 5, 10));
        let aligned = Buffer::new(2, 4, 8).with_align(32);
        assert_eq!(sky.position_for(&aligned), Some(32));
        assert_eq!(sky.place(&aligned), Some(32));
        assert_eq!(sky.top(3), 40);
    }

    #[test]
    fn max_over_reflects_partial_ranges() {
        let mut sky = Skyline::new(10);
        sky.place(&Buffer::new(0, 2, 5));
        sky.place(&Buffer::new(4, 6, 3));
        assert_eq!(sky.max_over(0, 2), 5);
        assert_eq!(sky.max_over(2, 4), 0);
        assert_eq!(sky.max_over(0, 6), 5);
    }
}
