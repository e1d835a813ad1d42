//! The unplaced-buffer index behind candidate generation (§5.1, §5.3).
//!
//! At every decision point the search needs, per contention phase, the
//! best unplaced block under each selection strategy and the phase's
//! unplaced blocks in the primary strategy's order. Rebuilding those
//! pools from a scan of every buffer costs O(n) per decision point, so a
//! first descent costs O(n²). The index keeps them incrementally
//! instead:
//!
//! - *Layouts.* Each static strategy lays all buffers out phase-major
//!   and, within a phase, in the strategy's rank order. Phase `p` owns
//!   the slots `bounds[p]..bounds[p + 1]` of every layout. Lowest-position
//!   selection has no static order; it reads an id-ordered layout.
//! - *Bitsets.* A layout carries one bit per slot, set while the buffer
//!   in that slot is unplaced, and a phase bitset marks the phases that
//!   still hold an unplaced buffer.
//! - *Updates.* The engine clears a buffer's bits when a placement
//!   commits and sets them again when a backtrack undoes it: O(layouts)
//!   per change.
//! - *Queries.* A static strategy's pick is the first set bit of the
//!   phase's slice; a pool is the set bits read in order; empty phases
//!   are skipped through the phase bitset.

use std::cmp::Reverse;

use tela_heuristics::{perturb, SelectionStrategy};
use tela_model::{BufferId, PhasePartition, Problem};

/// Incrementally maintained unplaced-buffer index (see the module docs).
pub(crate) struct CandidateIndex {
    /// Phase of each buffer; `None` when contention grouping is off and
    /// every buffer sits in the single phase 0.
    phase_of: Option<Vec<u32>>,
    /// Phase `p` owns slots `bounds[p]..bounds[p + 1]` of every layout.
    bounds: Vec<u32>,
    /// Unplaced buffers per phase.
    unplaced: Vec<u32>,
    /// Bit `p` is set while phase `p` holds an unplaced buffer.
    live_phases: Vec<u64>,
    /// Unplaced buffers in total.
    remaining: usize,
    layouts: Vec<Layout>,
    /// Layout read by each entry of the selection list.
    layout_of: Vec<usize>,
    /// Global rank of every buffer under the static primary strategy,
    /// kept only when phases split the layouts (the uncapped fallback
    /// queue merges phases back into one order).
    primary_rank: Option<Vec<u32>>,
}

/// All buffers in one strategy's phase-major order, with a bit per slot
/// for the unplaced ones.
struct Layout {
    /// Slot → buffer id.
    ids: Vec<u32>,
    /// Buffer id → slot.
    slot: Vec<u32>,
    /// Bit per slot: set while that slot's buffer is unplaced.
    live: Vec<u64>,
}

impl CandidateIndex {
    /// Builds the index with every buffer unplaced. `selection` is the
    /// configured strategy list (its first entry is the primary order);
    /// `seed` is the perturbation seed of
    /// [`tela_heuristics::perturb`].
    pub(crate) fn new(
        problem: &Problem,
        phases: Option<&PhasePartition>,
        selection: &[SelectionStrategy],
        seed: u64,
    ) -> Self {
        let n = problem.len();
        let phase_of: Option<Vec<u32>> = phases.map(|p| {
            (0..n)
                .map(|i| p.phase_of(BufferId::new(i)) as u32)
                .collect()
        });
        let phase_count = phases.map_or(usize::from(n > 0), PhasePartition::len);
        let mut unplaced = vec![0u32; phase_count];
        match &phase_of {
            Some(of) => of.iter().for_each(|&p| unplaced[p as usize] += 1),
            None if n > 0 => unplaced[0] = n as u32,
            None => {}
        }
        let mut bounds = Vec::with_capacity(phase_count + 1);
        bounds.push(0u32);
        for &count in &unplaced {
            bounds.push(bounds[bounds.len() - 1] + count);
        }
        let mut live_phases = vec![0u64; phase_count.div_ceil(64)];
        for (p, &count) in unplaced.iter().enumerate() {
            if count > 0 {
                live_phases[p / 64] |= 1 << (p % 64);
            }
        }
        let mut index = CandidateIndex {
            phase_of,
            bounds,
            unplaced,
            live_phases,
            remaining: n,
            layouts: Vec::new(),
            layout_of: Vec::with_capacity(selection.len()),
            primary_rank: None,
        };
        // Lowest-position entries (and an empty selection list) read
        // one shared id-ordered layout.
        let mut id_layout = None;
        for &strategy in selection {
            let layout = if strategy == SelectionStrategy::LowestPosition {
                *id_layout.get_or_insert_with(|| {
                    index.layouts.push(index.layout((0..n as u32).collect()));
                    index.layouts.len() - 1
                })
            } else {
                let order = rank_order(problem, strategy, seed);
                if index.layout_of.is_empty() && index.phase_of.is_some() {
                    // The inverse permutation of the rank order: O(n),
                    // no second sort.
                    let mut rank = vec![0u32; n];
                    for (pos, &id) in order.iter().enumerate() {
                        rank[id as usize] = pos as u32;
                    }
                    index.primary_rank = Some(rank);
                }
                index.layouts.push(index.layout(order));
                index.layouts.len() - 1
            };
            index.layout_of.push(layout);
        }
        if index.layouts.is_empty() {
            index.layouts.push(index.layout((0..n as u32).collect()));
        }
        index
    }

    /// Lays `order` out phase-major with a stable counting sort, so
    /// each phase's slice keeps `order`'s relative order.
    fn layout(&self, order: Vec<u32>) -> Layout {
        let n = order.len();
        let mut next: Vec<u32> = self.bounds.clone();
        let mut ids = vec![0u32; n];
        let mut slot = vec![0u32; n];
        for id in order {
            let phase = self.phase_index(id as usize);
            let s = next[phase];
            next[phase] += 1;
            ids[s as usize] = id;
            slot[id as usize] = s;
        }
        let mut live = vec![u64::MAX; n.div_ceil(64)];
        let padding = live.len() * 64 - n;
        if let Some(last) = live.last_mut() {
            *last >>= padding;
        }
        Layout { ids, slot, live }
    }

    fn phase_index(&self, id: usize) -> usize {
        self.phase_of.as_ref().map_or(0, |of| of[id] as usize)
    }

    /// The contention phase of `id`, or `None` when grouping is off.
    pub(crate) fn phase_of(&self, id: BufferId) -> Option<usize> {
        self.phase_of.as_ref().map(|of| of[id.index()] as usize)
    }

    /// Whether contention phases split the layouts.
    pub(crate) fn grouped(&self) -> bool {
        self.phase_of.is_some()
    }

    /// Number of unplaced buffers.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether `id` is unplaced according to the index.
    pub(crate) fn is_live(&self, id: BufferId) -> bool {
        let slot = self.layouts[0].slot[id.index()] as usize;
        self.layouts[0].live[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Marks `id` placed: clears its bit in every layout.
    pub(crate) fn remove(&mut self, id: BufferId) {
        debug_assert!(self.is_live(id), "buffer {id} is already placed");
        for layout in &mut self.layouts {
            let slot = layout.slot[id.index()] as usize;
            layout.live[slot / 64] &= !(1 << (slot % 64));
        }
        let phase = self.phase_index(id.index());
        self.unplaced[phase] -= 1;
        if self.unplaced[phase] == 0 {
            self.live_phases[phase / 64] &= !(1 << (phase % 64));
        }
        self.remaining -= 1;
    }

    /// Marks `id` unplaced again (a backtrack undid its placement).
    pub(crate) fn insert(&mut self, id: BufferId) {
        debug_assert!(!self.is_live(id), "buffer {id} is already unplaced");
        for layout in &mut self.layouts {
            let slot = layout.slot[id.index()] as usize;
            layout.live[slot / 64] |= 1 << (slot % 64);
        }
        let phase = self.phase_index(id.index());
        self.unplaced[phase] += 1;
        self.live_phases[phase / 64] |= 1 << (phase % 64);
        self.remaining += 1;
    }

    /// Whether `phase` still holds an unplaced buffer.
    // tela-lint: hot-path
    pub(crate) fn phase_is_live(&self, phase: usize) -> bool {
        self.live_phases
            .get(phase / 64)
            .is_some_and(|w| w & (1 << (phase % 64)) != 0)
    }

    /// The phases holding an unplaced buffer, in ascending order.
    // tela-lint: hot-path
    pub(crate) fn live_phases(&self) -> Ones<'_> {
        Ones::new(&self.live_phases, 0, self.unplaced.len())
    }

    /// The unplaced buffers of `phase` in the order of selection entry
    /// `si`'s layout (id order for lowest-position); for a static
    /// strategy the first is its pick.
    // tela-lint: hot-path
    pub(crate) fn live_for(&self, si: usize, phase: usize) -> LiveIds<'_> {
        self.live_in(self.layout_of[si], phase)
    }

    /// The unplaced buffers of `phase` in the primary order (id order
    /// when the primary is lowest-position or the selection is empty).
    // tela-lint: hot-path
    pub(crate) fn live_primary(&self, phase: usize) -> LiveIds<'_> {
        self.live_in(0, phase)
    }

    // tela-lint: hot-path
    fn live_in(&self, layout: usize, phase: usize) -> LiveIds<'_> {
        let layout = &self.layouts[layout];
        let lo = self.bounds[phase] as usize;
        let hi = self.bounds[phase + 1] as usize;
        LiveIds {
            ids: &layout.ids,
            slots: Ones::new(&layout.live, lo, hi),
        }
    }

    /// Every unplaced buffer, phase by phase in the primary layout.
    pub(crate) fn for_each_live(&self, mut f: impl FnMut(BufferId)) {
        for phase in self.live_phases() {
            self.live_primary(phase).for_each(&mut f);
        }
    }

    /// The static primary strategy's global rank of `id`, when phases
    /// split the layouts; `None` otherwise.
    pub(crate) fn primary_rank(&self) -> Option<&[u32]> {
        self.primary_rank.as_deref()
    }
}

/// Buffer ids in a strategy's rank order: key descending, then (under a
/// perturbed restart) the seeded tiebreak, then id. Each key is
/// computed once; the trailing id makes every tuple unique, so the
/// unstable sort yields the one total order.
fn rank_order(problem: &Problem, strategy: SelectionStrategy, seed: u64) -> Vec<u32> {
    let mut keyed: Vec<(Reverse<u128>, u64, u32)> = (0..problem.len() as u32)
        .map(|i| {
            let key = strategy.key(problem, BufferId::new(i as usize));
            if seed == 0 {
                (Reverse(key), 0, i)
            } else {
                // Perturbed restart: jitter each key by a hash of
                // `(seed, id)` and break remaining ties by a seeded
                // token, so the ordering genuinely differs per seed.
                (
                    Reverse(perturb::jitter_key(key, u64::from(i), seed)),
                    perturb::tiebreak(u64::from(i), seed),
                    i,
                )
            }
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, _, i)| i).collect()
}

/// The set bits of a bitset within `lo..hi`, ascending.
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// Not-yet-returned bits of the current word.
    bits: u64,
    hi: usize,
}

impl<'a> Ones<'a> {
    fn new(words: &'a [u64], lo: usize, hi: usize) -> Self {
        let word = lo / 64;
        let bits = match words.get(word) {
            Some(&w) if lo < hi => w & (u64::MAX << (lo % 64)),
            _ => 0,
        };
        Ones {
            words,
            word,
            bits,
            hi,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word * 64 >= self.hi {
                return None;
            }
            self.bits = *self.words.get(self.word)?;
        }
        let bit = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        if bit < self.hi {
            Some(bit)
        } else {
            self.bits = 0;
            self.word = self.hi.div_ceil(64);
            None
        }
    }
}

/// The unplaced buffers of one phase slice, in layout order.
pub(crate) struct LiveIds<'a> {
    ids: &'a [u32],
    slots: Ones<'a>,
}

impl Iterator for LiveIds<'_> {
    type Item = BufferId;

    #[inline]
    fn next(&mut self) -> Option<BufferId> {
        let slot = self.slots.next()?;
        Some(BufferId::new(self.ids[slot] as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tela_model::Buffer;

    #[test]
    fn ones_reads_set_bits_within_the_range() {
        let words = [0b1011_0001u64, 0, 1 << 63 | 1];
        let all: Vec<usize> = Ones::new(&words, 0, 192).collect();
        assert_eq!(all, vec![0, 4, 5, 7, 128, 191]);
        assert_eq!(Ones::new(&words, 1, 128).collect::<Vec<_>>(), vec![4, 5, 7]);
        assert_eq!(
            Ones::new(&words, 5, 129).collect::<Vec<_>>(),
            vec![5, 7, 128]
        );
        assert_eq!(Ones::new(&words, 8, 128).next(), None);
        assert_eq!(Ones::new(&words, 7, 7).next(), None);
        assert_eq!(Ones::new(&[], 0, 0).next(), None);
    }

    fn problem() -> Problem {
        Problem::builder(100)
            .buffer(Buffer::new(0, 4, 60))
            .buffer(Buffer::new(0, 4, 40))
            .buffer(Buffer::new(4, 6, 10))
            .buffer(Buffer::new(6, 9, 50))
            .buffer(Buffer::new(6, 8, 50))
            .build()
            .unwrap()
    }

    #[test]
    fn layouts_are_phase_major_in_rank_order() {
        let p = problem();
        let phases = PhasePartition::compute(&p);
        let index = CandidateIndex::new(
            &p,
            Some(&phases),
            &[
                SelectionStrategy::MaxLifetime,
                SelectionStrategy::LowestPosition,
            ],
            0,
        );
        let ids = |it: LiveIds<'_>| it.map(BufferId::index).collect::<Vec<_>>();
        assert_eq!(ids(index.live_for(0, 0)), vec![0, 1]);
        assert_eq!(ids(index.live_for(0, 1)), vec![3, 4]);
        assert_eq!(ids(index.live_for(0, 2)), vec![2]);
        assert_eq!(ids(index.live_for(1, 1)), vec![3, 4]);
        // Global max-lifetime rank: 0, 1, 3 (lifetime 4, 4, 3), then 2 and 4.
        assert_eq!(index.primary_rank(), Some(&[0, 1, 3, 2, 4][..]));
    }

    #[test]
    fn removal_and_insertion_track_phases() {
        let p = problem();
        let phases = PhasePartition::compute(&p);
        let mut index = CandidateIndex::new(&p, Some(&phases), &[SelectionStrategy::MaxSize], 0);
        assert_eq!(index.live_phases().collect::<Vec<_>>(), vec![0, 1, 2]);
        index.remove(BufferId::new(2));
        assert_eq!(index.live_phases().collect::<Vec<_>>(), vec![0, 1]);
        assert!(!index.phase_is_live(2));
        index.remove(BufferId::new(3));
        assert_eq!(index.live_for(0, 1).next(), Some(BufferId::new(4)));
        assert_eq!(index.remaining(), 3);
        index.insert(BufferId::new(2));
        index.insert(BufferId::new(3));
        assert_eq!(index.live_for(0, 1).next(), Some(BufferId::new(3)));
        assert_eq!(index.live_phases().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(index.remaining(), 5);
        let mut all = Vec::new();
        index.for_each_live(|id| all.push(id.index()));
        assert_eq!(all, vec![0, 1, 3, 4, 2]);
    }
}
