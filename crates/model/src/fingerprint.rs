//! Canonical problem fingerprints for solution caching.
//!
//! A long-running allocation service (the ROADMAP's
//! allocation-as-a-service tier) sees the same model compiled over and
//! over: the buffer set is identical up to *buffer renaming* (the
//! compiler enumerates values in a different order) and a *uniform
//! time shift* (the schedule starts at a different logical step). Both
//! transformations leave the allocation problem unchanged — the overlap
//! structure, sizes, alignments, and capacity are what the solvers see
//! — so a cache keyed by a renaming/shift-invariant fingerprint turns
//! repeat compilations into O(1) lookups (cf. the memory-mapping
//! service of arXiv:2305.07440, which amortizes solve cost the same
//! way).
//!
//! [`CanonicalForm`] is the invariant itself: the buffer multiset,
//! shifted so the earliest start is zero and sorted into a canonical
//! order. [`Fingerprint`] is a 128-bit hash of that form for cheap
//! indexing; cache consumers compare the full [`CanonicalForm`] on hash
//! hits, so a collision can never produce a false cache hit. Because
//! identical canonical forms describe the same problem up to a buffer
//! permutation, a cached solution is replayed by
//! [`CanonicalForm::translate`]: addresses attach to canonical *slots*,
//! and each problem maps its own buffers onto those slots.

use crate::{Address, Problem, Size, Solution, TimeStep};

/// A 128-bit renaming/time-shift-invariant hash of a [`Problem`].
///
/// Equal problems-up-to-renaming-and-shift always produce equal
/// fingerprints; the converse holds only up to hash collisions, which
/// is why caches must confirm with [`CanonicalForm::matches`] before
/// serving a hit.
///
/// # Example
///
/// ```
/// use tela_model::{fingerprint, Buffer, Problem};
///
/// let a = Problem::builder(64)
///     .buffer(Buffer::new(0, 4, 16))
///     .buffer(Buffer::new(2, 6, 32))
///     .build()?;
/// // Same problem, buffers renamed (reordered) and shifted by +10.
/// let b = Problem::builder(64)
///     .buffer(Buffer::new(12, 16, 32))
///     .buffer(Buffer::new(10, 14, 16))
///     .build()?;
/// assert_eq!(fingerprint(&a), fingerprint(&b));
/// # Ok::<(), tela_model::ProblemError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The raw 128-bit value.
    pub fn as_u128(self) -> u128 {
        self.0
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One buffer in canonical coordinates: live range shifted so the
/// problem's earliest start is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalBuffer {
    /// Shifted start time.
    pub start: TimeStep,
    /// Shifted (exclusive) end time.
    pub end: TimeStep,
    /// Buffer size, unchanged.
    pub size: Size,
    /// Alignment, unchanged.
    pub align: Size,
}

/// The canonical form of a problem: capacity plus the shifted, sorted
/// buffer multiset, remembering which original buffer landed in each
/// canonical slot.
///
/// Two problems have [`matches`](CanonicalForm::matches)-equal forms
/// iff they differ only by buffer renaming and a uniform time shift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    capacity: Size,
    /// Canonical slots, sorted ascending.
    slots: Vec<CanonicalBuffer>,
    /// `order[slot]` = index of the original buffer occupying `slot`.
    order: Vec<u32>,
}

impl CanonicalForm {
    /// Computes the canonical form of `problem`.
    pub fn of(problem: &Problem) -> Self {
        let shift = problem
            .buffers()
            .iter()
            .map(|b| b.start())
            .min()
            .unwrap_or(0);
        let mut keyed: Vec<(CanonicalBuffer, u32)> = problem
            .buffers()
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    CanonicalBuffer {
                        start: b.start() - shift,
                        end: b.end() - shift,
                        size: b.size(),
                        align: b.align(),
                    },
                    i as u32,
                )
            })
            .collect();
        // Identical tuples are interchangeable, so ties may land in any
        // slot; sorting by (tuple, original index) keeps the order
        // deterministic for a given problem without affecting the
        // canonical slot sequence.
        keyed.sort_unstable();
        CanonicalForm {
            capacity: problem.capacity(),
            slots: keyed.iter().map(|(c, _)| *c).collect(),
            order: keyed.iter().map(|(_, i)| *i).collect(),
        }
    }

    /// The memory capacity the form was taken at.
    pub fn capacity(&self) -> Size {
        self.capacity
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True for the empty problem.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when `other` describes the same problem up to renaming and
    /// uniform time shift. This is the collision-proof check caches run
    /// after a fingerprint match.
    pub fn matches(&self, other: &CanonicalForm) -> bool {
        self.capacity == other.capacity && self.slots == other.slots
    }

    /// The 128-bit hash of this form (two independently-seeded 64-bit
    /// FNV-1a hashes of the canonical byte stream, fed in one pass).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = Fnv2(0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142);
        h.write_u64(self.capacity);
        h.write_u64(self.slots.len() as u64);
        for s in &self.slots {
            h.write_u64(u64::from(s.start));
            h.write_u64(u64::from(s.end));
            h.write_u64(s.size);
            h.write_u64(s.align);
        }
        let Fnv2(lo, hi) = h;
        Fingerprint((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Extracts a solution's addresses in canonical slot order, the
    /// form a cache should store: `slot_addresses()[k]` is the address
    /// of the buffer occupying canonical slot `k`.
    pub fn slot_addresses(&self, solution: &Solution) -> Vec<Address> {
        self.order
            .iter()
            .map(|&i| solution.addresses()[i as usize])
            .collect()
    }

    /// Replays addresses stored in canonical slot order (from
    /// [`slot_addresses`](CanonicalForm::slot_addresses) on a matching
    /// form) onto *this* problem's buffer numbering, yielding a
    /// [`Solution`] for it. Returns `None` when the slot count differs.
    ///
    /// Identical canonical tuples are interchangeable, so any slot
    /// assignment among ties is valid; callers should still
    /// [`validate`](Solution::validate) the result as a cheap
    /// end-to-end guard.
    pub fn translate(&self, slot_addresses: &[Address]) -> Option<Solution> {
        if slot_addresses.len() != self.order.len() {
            return None;
        }
        let mut addresses = vec![0; self.order.len()];
        for (slot, &original) in self.order.iter().enumerate() {
            addresses[original as usize] = slot_addresses[slot];
        }
        Some(Solution::new(addresses))
    }
}

/// The fingerprint of `problem`: shorthand for
/// `CanonicalForm::of(problem).fingerprint()`.
pub fn fingerprint(problem: &Problem) -> Fingerprint {
    CanonicalForm::of(problem).fingerprint()
}

/// Two 64-bit FNV-1a hashers with caller-chosen offset bases, fed the
/// same byte stream in one pass.
struct Fnv2(u64, u64);

impl Fnv2 {
    fn write_u64(&mut self, value: u64) {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PRIME);
            self.1 = (self.1 ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Buffer;

    fn problem(buffers: &[(u32, u32, u64, u64)], capacity: u64) -> Problem {
        Problem::new(
            buffers
                .iter()
                .map(|&(s, e, sz, a)| Buffer::new(s, e, sz).with_align(a))
                .collect(),
            capacity,
        )
        .expect("test problems are valid")
    }

    #[test]
    fn renaming_and_shift_preserve_fingerprint() {
        let a = problem(&[(0, 4, 16, 1), (2, 6, 32, 8), (5, 9, 16, 1)], 64);
        let b = problem(&[(12, 16, 16, 1), (7, 11, 16, 1), (9, 13, 32, 8)], 64);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert!(CanonicalForm::of(&a).matches(&CanonicalForm::of(&b)));
    }

    #[test]
    fn size_alignment_interval_and_capacity_changes_are_detected() {
        let base = problem(&[(0, 4, 16, 1), (2, 6, 32, 8)], 64);
        let f = fingerprint(&base);
        for perturbed in [
            problem(&[(0, 4, 17, 1), (2, 6, 32, 8)], 64), // size
            problem(&[(0, 4, 16, 2), (2, 6, 32, 8)], 64), // align
            problem(&[(0, 5, 16, 1), (2, 6, 32, 8)], 64), // interval end
            problem(&[(1, 4, 16, 1), (2, 6, 32, 8)], 64), // non-uniform shift
            problem(&[(0, 4, 16, 1), (2, 6, 32, 8)], 65), // capacity
        ] {
            assert_ne!(fingerprint(&perturbed), f, "{perturbed:?}");
            assert!(!CanonicalForm::of(&perturbed).matches(&CanonicalForm::of(&base)));
        }
    }

    #[test]
    fn duplicate_buffers_hash_as_a_multiset() {
        // One copy vs two copies of the same tuple must differ.
        let one = problem(&[(0, 4, 16, 1)], 64);
        let two = problem(&[(0, 4, 16, 1), (0, 4, 16, 1)], 64);
        assert_ne!(fingerprint(&one), fingerprint(&two));
    }

    #[test]
    fn translate_replays_a_solution_across_renaming() {
        let a = problem(&[(0, 4, 16, 1), (0, 4, 32, 1)], 64);
        // Renamed (swapped) and shifted by 3.
        let b = problem(&[(3, 7, 32, 1), (3, 7, 16, 1)], 64);
        let ca = CanonicalForm::of(&a);
        let cb = CanonicalForm::of(&b);
        assert!(ca.matches(&cb));

        // Solve `a` trivially by stacking, store in slot order.
        let sol_a = Solution::new(vec![0, 16]);
        assert!(sol_a.validate(&a).is_ok());
        let slots = ca.slot_addresses(&sol_a);

        // Replay onto `b`'s numbering and validate against `b`.
        let sol_b = cb.translate(&slots).expect("same slot count");
        assert!(sol_b.validate(&b).is_ok());
        // The 32-byte buffer is b0 in `b`, so it gets address 16.
        assert_eq!(sol_b.addresses(), &[16, 0]);
    }

    #[test]
    fn translate_rejects_mismatched_slot_count() {
        let a = problem(&[(0, 4, 16, 1)], 64);
        assert!(CanonicalForm::of(&a).translate(&[0, 16]).is_none());
    }

    #[test]
    fn empty_problem_has_a_form() {
        let p = Problem::new(Vec::new(), 64).unwrap();
        let c = CanonicalForm::of(&p);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.translate(&[]).unwrap().len(), 0);
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Cache keys must not drift between releases: these are the
        // values of the original two-pass hash.
        let plain = problem(&[(0, 4, 16, 1), (2, 6, 32, 1), (5, 9, 16, 1)], 64);
        let aligned = problem(&[(3, 10, 48, 16), (0, 5, 24, 8), (4, 7, 64, 32)], 256);
        let duplicated = problem(
            &[(1, 5, 16, 1), (1, 5, 16, 1), (2, 8, 32, 4), (2, 8, 32, 4)],
            128,
        );
        assert_eq!(
            fingerprint(&plain).as_u128(),
            0xcd50_280a_424a_938c_0b10_0fc8_1718_d32b
        );
        assert_eq!(
            fingerprint(&aligned).as_u128(),
            0x6402_5923_f455_5581_e09f_68f1_d25c_8ad6
        );
        assert_eq!(
            fingerprint(&duplicated).as_u128(),
            0xb67d_b3f7_8c70_a646_d455_9e04_6b1e_5ee1
        );
    }

    #[test]
    fn fingerprint_displays_as_hex() {
        let p = problem(&[(0, 4, 16, 1)], 64);
        let text = fingerprint(&p).to_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
