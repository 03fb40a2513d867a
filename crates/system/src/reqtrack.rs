//! Hot-path bookkeeping structures for the machine's translation layer.
//!
//! The event loop used to pay two `BTreeMap` walks per translation —
//! `req_origin` (demand/prefetch provenance per in-flight ATS request)
//! and `ats_pending` (retry state per outstanding `(chiplet, key)`).
//! Both are replaced here with index-based structures:
//!
//! * [`ReqSlab`] — a generation-checked slab. The request id itself
//!   encodes `(generation << 32) | slot`, so resolving a response is one
//!   bounds check plus one generation compare instead of a tree descent.
//!   Stale or foreign ids (e.g. the IOMMU's synthetic multicast ids near
//!   `u64::MAX`) safely miss.
//! * [`AtsPendingTable`] — per-chiplet sorted indexes over a slab with an
//!   embedded free list. Keyed access is a binary search over a small
//!   contiguous `Vec`; the common fault-free case (`remove` on an empty
//!   table at every fill) is a length check.
//!
//! Neither structure is ever iterated, so no container ordering can leak
//! into simulation results; both keep exact counts for watchdog dumps.

use barre_sim::Cycle;
use barre_tlb::TlbKey;

/// In-flight ATS bookkeeping for the retry/fallback layer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingAts {
    /// Timeouts already taken for this key.
    pub attempts: u8,
    /// Identifies the newest send; older deadline timers are stale.
    pub epoch: u64,
    /// Whether the outstanding attempt is a prefetch.
    pub prefetch: bool,
}

// Compile-time association with the simulated clock: retry epochs are
// compared against deadlines measured in cycles.
const _: fn(Cycle) -> Cycle = std::convert::identity;

/// Slot state for [`ReqSlab`].
#[derive(Debug, Clone, Copy, Default)]
struct ReqSlot {
    generation: u32,
    prefetch: bool,
    occupied: bool,
}

/// A generation-checked slab mapping in-flight ATS request ids to their
/// origin (demand vs prefetch). Ids encode `(generation << 32) | slot`.
#[derive(Debug, Default)]
pub(crate) struct ReqSlab {
    slots: Vec<ReqSlot>,
    free: Vec<u32>,
    live: usize,
}

impl ReqSlab {
    /// An empty slab with room for `cap` in-flight requests before the
    /// first reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
        }
    }

    /// Registers an in-flight request, returning its wire id.
    pub fn insert(&mut self, prefetch: bool) -> u64 {
        self.live += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                entry.prefetch = prefetch;
                entry.occupied = true;
                s
            }
            None => {
                self.slots.push(ReqSlot {
                    generation: 0,
                    prefetch,
                    occupied: true,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        ((generation as u64) << 32) | slot as u64
    }

    /// Retires the request `id`, returning whether it was a prefetch.
    /// `None` for ids this slab never issued (stale generation, foreign
    /// synthetic ids, out-of-range slots).
    pub fn take(&mut self, id: u64) -> Option<bool> {
        let slot = (id & u32::MAX as u64) as usize;
        let generation = (id >> 32) as u32;
        let entry = self.slots.get_mut(slot)?;
        if !entry.occupied || entry.generation != generation {
            return None;
        }
        entry.occupied = false;
        // Bumping the generation on release invalidates every copy of
        // the old id still in flight.
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.live -= 1;
        Some(entry.prefetch)
    }

    /// Number of requests currently in flight.
    pub fn len(&self) -> usize {
        self.live
    }
}

/// Event payloads too large to ride inside the event itself: stored once
/// when the event is scheduled and taken once when it (or the last of the
/// events sharing it) fires, so the event carries a 4-byte slot index.
/// Slots are reused through a free list, so the slab's length is the
/// run's peak count of in-flight payloads.
#[derive(Debug)]
pub(crate) struct PayloadSlab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T: Copy> PayloadSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `item`, returning its slot.
    pub fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                if let Some(slot) = self.items.get_mut(i as usize) {
                    *slot = item;
                }
                i
            }
            None => {
                self.items.push(item);
                (self.items.len() - 1) as u32
            }
        }
    }

    /// Releases slot `i`, returning its payload. Each slot handed out by
    /// [`insert`](Self::insert) must be taken or
    /// [`release`](Self::release)d exactly once.
    pub fn take(&mut self, i: u32) -> Option<T> {
        let item = self.items.get(i as usize).copied()?;
        self.release(i);
        Some(item)
    }

    /// The payload in slot `i`, in place: several events may share one
    /// payload, and the last of them releases it.
    pub fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        self.items.get_mut(i as usize)
    }

    /// Releases slot `i` without reading it.
    pub fn release(&mut self, i: u32) {
        self.free.push(i);
    }
}

/// Outstanding-ATS retry state, keyed by `(chiplet, TlbKey)`: per-chiplet
/// sorted indexes into a slab with a free list. Small, contiguous, and
/// allocation-free in steady state.
#[derive(Debug, Default)]
pub(crate) struct AtsPendingTable {
    /// Per-chiplet `(key, slot)` pairs, sorted by key.
    index: Vec<Vec<(TlbKey, u32)>>,
    slots: Vec<PendingAts>,
    free: Vec<u32>,
    live: usize,
}

impl AtsPendingTable {
    /// An empty table with one index lane per chiplet.
    pub fn new(n_chiplets: usize) -> Self {
        Self {
            index: (0..n_chiplets).map(|_| Vec::new()).collect(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn find(&self, chiplet: u8, key: TlbKey) -> Option<(usize, u32)> {
        let lane = self.index.get(chiplet as usize)?;
        let pos = lane.binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some((pos, lane[pos].1))
    }

    /// The entry for `(chiplet, key)`, if one is outstanding.
    pub fn get(&self, chiplet: u8, key: TlbKey) -> Option<&PendingAts> {
        let (_, slot) = self.find(chiplet, key)?;
        self.slots.get(slot as usize)
    }

    /// Mutable access to the entry for `(chiplet, key)`, if outstanding.
    pub fn get_mut(&mut self, chiplet: u8, key: TlbKey) -> Option<&mut PendingAts> {
        let (_, slot) = self.find(chiplet, key)?;
        self.slots.get_mut(slot as usize)
    }

    /// Returns the entry for `(chiplet, key)`, inserting `seed` first
    /// when absent (the `entry().or_insert()` shape the retry layer
    /// uses).
    pub fn upsert(&mut self, chiplet: u8, key: TlbKey, seed: PendingAts) -> &mut PendingAts {
        let c = chiplet as usize;
        match self.index[c].binary_search_by_key(&key, |&(k, _)| k) {
            Ok(pos) => {
                let slot = self.index[c][pos].1;
                &mut self.slots[slot as usize]
            }
            Err(pos) => {
                let slot = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = seed;
                        s
                    }
                    None => {
                        self.slots.push(seed);
                        (self.slots.len() - 1) as u32
                    }
                };
                self.index[c].insert(pos, (key, slot));
                self.live += 1;
                &mut self.slots[slot as usize]
            }
        }
    }

    /// Removes and returns the entry for `(chiplet, key)`, if present.
    pub fn remove(&mut self, chiplet: u8, key: TlbKey) -> Option<PendingAts> {
        let c = chiplet as usize;
        if self.index.get(c)?.is_empty() {
            return None; // the fault-free fast path: nothing pending
        }
        let pos = self.index[c].binary_search_by_key(&key, |&(k, _)| k).ok()?;
        let (_, slot) = self.index[c].remove(pos);
        self.free.push(slot);
        self.live -= 1;
        Some(self.slots[slot as usize])
    }

    /// Number of outstanding `(chiplet, key)` attempts.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no attempts are outstanding.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_mem::Vpn;

    fn key(vpn: u64) -> TlbKey {
        TlbKey {
            asid: 0,
            vpn: Vpn(vpn),
        }
    }

    #[test]
    fn slab_round_trips_origin() {
        let mut s = ReqSlab::default();
        let a = s.insert(false);
        let b = s.insert(true);
        assert_eq!(s.len(), 2);
        assert_eq!(s.take(b), Some(true));
        assert_eq!(s.take(a), Some(false));
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn slab_rejects_stale_and_foreign_ids() {
        let mut s = ReqSlab::with_capacity(4);
        let a = s.insert(true);
        assert_eq!(s.take(a), Some(true));
        // Stale: same slot, old generation.
        assert_eq!(s.take(a), None);
        // Slot reuse bumps the generation, so the old id stays dead.
        let b = s.insert(false);
        assert_ne!(a, b);
        assert_eq!(s.take(a), None);
        // Foreign synthetic ids (IOMMU multicast uses u64::MAX - n).
        assert_eq!(s.take(u64::MAX), None);
        assert_eq!(s.take(u64::MAX - 17), None);
        assert_eq!(s.take(b), Some(false));
    }

    #[test]
    fn pending_table_keyed_ops() {
        let mut t = AtsPendingTable::new(4);
        assert!(t.is_empty());
        assert!(t.remove(1, key(5)).is_none());
        let seed = PendingAts {
            attempts: 0,
            epoch: 1,
            prefetch: false,
        };
        t.upsert(1, key(5), seed).epoch = 2;
        t.upsert(1, key(3), seed);
        t.upsert(2, key(5), seed).attempts = 7;
        assert_eq!(t.len(), 3);
        // Same (chiplet, key) upserts update in place.
        let e = t.upsert(1, key(5), seed);
        assert_eq!(e.epoch, 2);
        assert_eq!(t.len(), 3);
        // Chiplet lanes are independent.
        assert_eq!(t.get(2, key(5)).map(|p| p.attempts), Some(7));
        assert_eq!(t.get(1, key(5)).map(|p| p.attempts), Some(0));
        assert!(t.get(3, key(5)).is_none());
        if let Some(p) = t.get_mut(1, key(3)) {
            p.attempts = 9;
        }
        assert_eq!(t.remove(1, key(3)).map(|p| p.attempts), Some(9));
        assert_eq!(t.len(), 2);
        // Freed slots are reused.
        t.upsert(0, key(1), seed);
        assert_eq!(t.len(), 3);
        assert_eq!(t.slots.len(), 3);
    }
}
