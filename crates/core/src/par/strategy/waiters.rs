//! Sparse per-slot waiter storage for the message-passing engines.
//!
//! Engines 1 and 2 park "waiters" (deferred local edges and unanswered
//! remote requests) against an *uncommitted local slot*. Every commit
//! asks "was anybody waiting on this slot?", and the answer is almost
//! always no: on the pinned RRP P = 2 tuple 13–28 k of a rank's 4·10⁶
//! slots hold a waiter at once (under 1 %). [`WaiterTable`] therefore
//! keeps one occupancy *bit* per slot — the commit path's `take` is a
//! single bit test — and stores the parked slots alone in a map: one
//! inline entry per occupied slot, spilling to a recycled `Vec` only for
//! the rare slot with two or more waiters.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for slot indices: each aligned run of eight slots is scattered
/// by one multiply with the 64-bit golden ratio, and the slot's low three
/// bits are kept as the hash's low three. The map probes from the low
/// bits of the hash, so a run's entries sit in adjacent buckets — and a
/// sweep commits slots in ascending order, so consecutive `take`s of a
/// crowded table reuse the cache lines they just pulled in. Slot indices
/// are dense integers chosen by the partition, not by an adversary. On
/// the waiter-heavy scheme (UCP, P = 2: a sixth of a rank's slots parked
/// at once) the map costs 16 % of wall clock under SipHash, 10 % under a
/// plain multiply and 3–7 % under this, against the dense table it
/// replaced; every other scheme and rank count ties or wins.
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("slot keys hash through write_usize");
    }

    #[inline]
    fn write_usize(&mut self, slot: usize) {
        let s = slot as u64;
        self.0 = ((s >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) << 3) | (s & 7);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A parked slot's waiters: one inline, or a spill list.
#[derive(Debug, Clone)]
enum Entry<W> {
    One(W),
    Many(Vec<W>),
}

/// Waiters taken from a slot by [`WaiterTable::take`].
#[derive(Debug)]
pub(super) enum Taken<W> {
    /// Nobody was waiting.
    None,
    /// Exactly one waiter.
    One(W),
    /// Two or more waiters, in arrival order. Hand the spent `Vec` back
    /// via [`WaiterTable::recycle`] to keep its allocation in play.
    Many(Vec<W>),
}

/// Waiter table over the rank's local slot indices.
#[derive(Debug)]
pub(super) struct WaiterTable<W> {
    /// Bit `slot % 64` of word `slot / 64` is set iff `slot` is parked.
    occupied: Vec<u64>,
    /// The parked slots only; keys are exactly the set bits.
    parked: HashMap<usize, Entry<W>, BuildHasherDefault<SlotHasher>>,
    /// Spill `Vec`s recovered by [`WaiterTable::recycle`], reused on the
    /// next slot that grows past one waiter.
    spare: Vec<Vec<W>>,
    len: u64,
}

impl<W: Copy> WaiterTable<W> {
    /// Table covering `nslots` local slots, all empty.
    pub fn new(nslots: usize) -> Self {
        Self {
            occupied: vec![0; nslots.div_ceil(64)],
            parked: HashMap::default(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Total parked waiters across all slots.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no waiter is parked anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Park `w` on `slot` (FIFO per slot).
    pub fn push(&mut self, slot: usize, w: W) {
        self.len += 1;
        let (word, bit) = (&mut self.occupied[slot / 64], 1u64 << (slot % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.parked.insert(slot, Entry::One(w));
            return;
        }
        let entry = self
            .parked
            .get_mut(&slot)
            .expect("occupancy bit without a parked entry");
        match entry {
            Entry::One(first) => {
                let mut list = self.spare.pop().unwrap_or_default();
                list.push(*first);
                list.push(w);
                *entry = Entry::Many(list);
            }
            Entry::Many(list) => list.push(w),
        }
    }

    /// Remove and return every waiter parked on `slot`. Every commit of
    /// engines 1 and 2 calls this; `#[inline]` alone left the call to each
    /// codegen unit's inliner, and an unrelated engine-3 change once moved
    /// it out of line, costing engine 2 about 10 % on `gen-e2-mpsim`.
    #[inline(always)]
    pub fn take(&mut self, slot: usize) -> Taken<W> {
        let (word, bit) = (&mut self.occupied[slot / 64], 1u64 << (slot % 64));
        if *word & bit == 0 {
            return Taken::None;
        }
        *word &= !bit;
        match self.parked.remove(&slot) {
            None => unreachable!("occupancy bit without a parked entry"),
            Some(Entry::One(w)) => {
                self.len -= 1;
                Taken::One(w)
            }
            Some(Entry::Many(list)) => {
                self.len -= list.len() as u64;
                Taken::Many(list)
            }
        }
    }

    /// Return a spill list obtained from [`Taken::Many`] for reuse.
    pub fn recycle(&mut self, mut list: Vec<W>) {
        list.clear();
        self.spare.push(list);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn single_waiter_round_trip() {
        let mut t: WaiterTable<u32> = WaiterTable::new(4);
        assert!(t.is_empty());
        t.push(2, 7);
        assert_eq!(t.len(), 1);
        match t.take(2) {
            Taken::One(7) => {}
            other => panic!("expected One(7), got {other:?}"),
        }
        assert!(t.is_empty());
        assert!(matches!(t.take(2), Taken::None));
    }

    #[test]
    fn spill_preserves_fifo_order() {
        let mut t: WaiterTable<u32> = WaiterTable::new(2);
        for w in 0..5 {
            t.push(1, w);
        }
        assert_eq!(t.len(), 5);
        match t.take(1) {
            Taken::Many(list) => {
                assert_eq!(list, vec![0, 1, 2, 3, 4]);
                t.recycle(list);
            }
            other => panic!("expected Many, got {other:?}"),
        }
        assert!(t.is_empty());
        // The recycled spill list is reused by the next multi-waiter slot.
        t.push(0, 8);
        t.push(0, 9);
        match t.take(0) {
            Taken::Many(list) => assert_eq!(list, vec![8, 9]),
            other => panic!("expected Many, got {other:?}"),
        }
        assert_eq!(t.spare.len(), 0, "spare list was taken for reuse");
    }

    #[test]
    fn independent_slots_do_not_interfere() {
        let mut t: WaiterTable<u8> = WaiterTable::new(3);
        t.push(0, 1);
        t.push(2, 2);
        assert!(matches!(t.take(1), Taken::None));
        assert!(matches!(t.take(0), Taken::One(1)));
        assert!(matches!(t.take(2), Taken::One(2)));
    }

    proptest! {
        /// Random push/take/recycle sequences agree with a
        /// `Vec<VecDeque<W>>` model: per-slot FIFO, `len`, `is_empty`
        /// and the shape of `Taken`. Most operations land on the bitmap
        /// word edges (0, 63, 64, the last slot), and `nslots` is never
        /// a multiple of 64, so the last word is partial.
        #[test]
        fn sparse_table_matches_deque_model(
            words in 1usize..4,
            tail in 1usize..64,
            ops in prop::collection::vec((0u8..4, 0usize..8, any::<u32>()), 0..200),
        ) {
            let nslots = words * 64 + tail;
            let mut table: WaiterTable<u32> = WaiterTable::new(nslots);
            let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); nslots];
            for (kind, pick, w) in ops {
                let slot = match pick {
                    0 => 0,
                    1 => 63,
                    2 => 64,
                    3 => nslots - 1,
                    _ => w as usize % nslots,
                };
                if kind < 2 {
                    table.push(slot, w);
                    model[slot].push_back(w);
                } else {
                    let expect: Vec<u32> = model[slot].drain(..).collect();
                    match table.take(slot) {
                        Taken::None => prop_assert!(expect.is_empty()),
                        Taken::One(got) => prop_assert_eq!(vec![got], expect),
                        Taken::Many(list) => {
                            prop_assert!(list.len() >= 2);
                            prop_assert_eq!(&list, &expect);
                            if kind == 2 {
                                table.recycle(list);
                            }
                        }
                    }
                }
                let parked: usize = model.iter().map(VecDeque::len).sum();
                prop_assert_eq!(table.len(), parked as u64);
                prop_assert_eq!(table.is_empty(), parked == 0);
            }
            // Draining every slot returns the table to empty, bits and all.
            for (slot, q) in model.iter().enumerate() {
                match table.take(slot) {
                    Taken::None => prop_assert!(q.is_empty()),
                    Taken::One(got) => prop_assert_eq!(vec![got], Vec::from(q.clone())),
                    Taken::Many(list) => prop_assert_eq!(list, Vec::from(q.clone())),
                }
            }
            prop_assert!(table.is_empty());
            prop_assert!(table.parked.is_empty());
            prop_assert!(table.occupied.iter().all(|&w| w == 0));
        }
    }
}
