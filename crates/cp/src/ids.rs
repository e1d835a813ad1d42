//! Typed `u32` index newtypes for the flat arena storage.
//!
//! Every per-buffer and per-pair array in this crate is a flat `Vec`
//! indexed by one of these ids — never a per-node `Box`/`Rc` graph. The
//! newtypes keep pair indices, variable indices, and plain counters from
//! being mixed up without costing anything at runtime: both are
//! `#[repr(transparent)]` wrappers over `u32` and every accessor is a
//! no-op after inlining.

use tela_model::BufferId;

/// Index of a position variable in the solver's flat per-buffer arrays.
///
/// One variable exists per buffer, so `VarId` and [`BufferId`] are the
/// same index space; `VarId` is the crate-internal `u32` form used to
/// keep the arena arrays compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct VarId(u32);

impl VarId {
    /// Wraps a raw `u32` index.
    #[inline(always)]
    pub fn new(raw: u32) -> Self {
        VarId(raw)
    }

    /// The index as `usize`, for slice indexing.
    #[inline(always)]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` index.
    #[inline(always)]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The public buffer id for this variable.
    #[inline(always)]
    pub fn buffer(self) -> BufferId {
        BufferId::new(self.0 as usize)
    }
}

impl From<BufferId> for VarId {
    #[inline(always)]
    fn from(id: BufferId) -> Self {
        VarId(id.index() as u32)
    }
}

impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Index of an ordering pair within a [`CpModel`](crate::CpModel).
///
/// Pairs are stored sorted by their `(x, y)` buffer indices, so `PairId`
/// order is deterministic for a given problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct PairId(u32);

impl PairId {
    /// Wraps a raw `u32` index.
    #[inline(always)]
    pub fn new(raw: u32) -> Self {
        PairId(raw)
    }

    /// The index as `usize`, for slice indexing.
    #[inline(always)]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` index.
    #[inline(always)]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for PairId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Checked access into the flat arena arrays.
///
/// Every per-buffer/per-pair/per-word array in this crate (and the
/// shared overlap graph's CSR arrays the model reads) is a flat slice
/// sized against the same problem (or bit capacity) at construction, and
/// every index flowing into it comes from that problem's ids, the
/// model's CSR rows, or the trail — all bounded by construction. This
/// trait funnels the arena indexing through two sites so the structural
/// invariant is documented (and lint-suppressed) exactly once; the
/// bounds checks stay, and the accessors compile down to plain indexing.
pub(crate) trait Arena<T> {
    /// `&self[i]`, with the arena-sizing invariant documented here.
    fn at(&self, i: usize) -> &T;
    /// `&mut self[i]`, with the arena-sizing invariant documented here.
    fn at_mut(&mut self, i: usize) -> &mut T;
}

// tela-lint: allow(no-solve-path-panic, reason = "not indexing: `[T]` is the slice type this impl is for")
impl<T> Arena<T> for [T] {
    #[inline(always)]
    fn at(&self, i: usize) -> &T {
        // tela-lint: allow(no-solve-path-panic, reason = "arena arrays are sized to the problem at construction and indices come from the same problem's ids/CSR rows, all in bounds")
        &self[i]
    }

    #[inline(always)]
    fn at_mut(&mut self, i: usize) -> &mut T {
        // tela-lint: allow(no-solve-path-panic, reason = "arena arrays are sized to the problem at construction and indices come from the same problem's ids/CSR rows, all in bounds")
        &mut self[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_access_round_trips() {
        let mut v = vec![1, 2, 3];
        assert_eq!(*v.at(1), 2);
        *v.at_mut(2) = 9;
        assert_eq!(v, [1, 2, 9]);
    }

    #[test]
    fn var_id_round_trips_buffer_id() {
        let b = BufferId::new(7);
        let v = VarId::from(b);
        assert_eq!(v.idx(), 7);
        assert_eq!(v.raw(), 7);
        assert_eq!(v.buffer(), b);
        assert_eq!(v.to_string(), "b7");
    }

    #[test]
    fn pair_id_is_transparent() {
        let p = PairId::new(3);
        assert_eq!(p.idx(), 3);
        assert_eq!(p.raw(), 3);
        assert_eq!(p.to_string(), "p3");
        assert!(PairId::new(2) < p);
    }
}
