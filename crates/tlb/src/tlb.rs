//! Set-associative translation cache.

use barre_mem::Vpn;
use barre_sim::RatioStat;

/// Key of a TLB entry: address-space id plus virtual page number.
/// Barre Chord "considers the process ID associated to each page" (§VII-I),
/// so entries are ASID-tagged rather than flushed between applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TlbKey {
    /// Address-space (process) id.
    pub asid: u16,
    /// Virtual page number.
    pub vpn: Vpn,
}

/// A set-associative, LRU TLB with payload `P`.
///
/// `entries` must be divisible by `ways`; a fully-associative TLB is
/// `ways == entries`. A set-associative TLB scans its set; a
/// fully-associative one keeps a hash index and a recency list, so every
/// operation is O(1) whatever its size. Both evict
/// the least recently used entry.
///
/// # Example
///
/// ```
/// use barre_tlb::{Tlb, TlbKey};
/// use barre_mem::Vpn;
///
/// let mut tlb: Tlb<u64> = Tlb::new(64, 64); // fully associative L1
/// let k = TlbKey { asid: 0, vpn: Vpn(0xA1) };
/// assert!(tlb.lookup(k).is_none());
/// tlb.insert(k, 0x75);
/// assert_eq!(tlb.lookup(k), Some(&0x75));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb<P> {
    store: Store<P>,
    stats: RatioStat,
    evictions: u64,
}

#[derive(Debug, Clone)]
enum Store<P> {
    Sets(SetAssoc<P>),
    Full(FullyAssoc<P>),
}

impl<P> Tlb<P> {
    /// Creates a TLB with `entries` total slots and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or the set
    /// count is not a power of two.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries > 0, "empty TLB");
        assert!(
            entries.is_multiple_of(ways),
            "entries must be a multiple of ways"
        );
        let nsets = entries / ways;
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        let store = if nsets == 1 {
            Store::Full(FullyAssoc::new(entries))
        } else {
            Store::Sets(SetAssoc::new(nsets, ways))
        };
        Self {
            store,
            stats: RatioStat::new(),
            evictions: 0,
        }
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        match &self.store {
            Store::Sets(s) => s.sets.len() * s.ways,
            Store::Full(f) => f.capacity,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Sets(s) => s.sets.iter().map(Vec::len).sum(),
            Store::Full(f) => f.entries.len(),
        }
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Demand lookup: updates recency and hit/miss statistics.
    pub fn lookup(&mut self, key: TlbKey) -> Option<&P> {
        let found = match &mut self.store {
            Store::Sets(s) => s.lookup(key),
            Store::Full(f) => f.lookup(key),
        };
        self.stats.record(found.is_some());
        found
    }

    /// Side-channel probe (coalescing-VPN search, peer probes): does not
    /// touch recency or demand statistics.
    pub fn probe(&self, key: TlbKey) -> Option<&P> {
        match &self.store {
            Store::Sets(s) => s.probe(key),
            Store::Full(f) => f.probe(key),
        }
    }

    /// Inserts a translation, evicting the set's LRU entry if full.
    /// Returns the evicted `(key, payload)` if any.
    pub fn insert(&mut self, key: TlbKey, payload: P) -> Option<(TlbKey, P)> {
        let evicted = match &mut self.store {
            Store::Sets(s) => s.insert(key, payload),
            Store::Full(f) => f.insert(key, payload),
        };
        if evicted.is_some() {
            self.evictions += 1;
        }
        evicted
    }

    /// Removes a specific entry (single-page shootdown, migration).
    pub fn invalidate(&mut self, key: TlbKey) -> Option<P> {
        match &mut self.store {
            Store::Sets(s) => s.invalidate(key),
            Store::Full(f) => f.invalidate(key),
        }
    }

    /// Drops every entry (full shootdown). Returns the evicted keys so
    /// attached filters can be synchronized.
    pub fn shootdown(&mut self) -> Vec<TlbKey> {
        match &mut self.store {
            Store::Sets(s) => s
                .sets
                .iter_mut()
                .flat_map(|set| set.drain(..).map(|slot| slot.key))
                .collect(),
            Store::Full(f) => {
                f.index.fill(NIL);
                (f.mru, f.lru) = (NIL, NIL);
                f.entries.drain(..).map(|e| e.key).collect()
            }
        }
    }

    /// Demand hit/miss statistics.
    pub fn stats(&self) -> RatioStat {
        self.stats
    }

    /// Demand `(hits, misses)` snapshot. The tracer's time-series
    /// sampler reads this on its event-cadence without touching recency
    /// or statistics state.
    pub fn hits_misses(&self) -> (u64, u64) {
        let h = self.stats.hits();
        (h, self.stats.total().saturating_sub(h))
    }

    /// Number of capacity/conflict evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[derive(Debug, Clone)]
struct Slot<P> {
    key: TlbKey,
    payload: P,
    last_use: u64,
}

/// Sets of at most `ways` slots, each scanned in full; the victim of a
/// full set is its smallest `last_use` stamp.
#[derive(Debug, Clone)]
struct SetAssoc<P> {
    sets: Vec<Vec<Slot<P>>>,
    ways: usize,
    clock: u64,
}

impl<P> SetAssoc<P> {
    fn new(nsets: usize, ways: usize) -> Self {
        Self {
            sets: (0..nsets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            clock: 0,
        }
    }

    fn set_of(&self, key: TlbKey) -> usize {
        // Mix the ASID into the index so co-running apps spread over sets.
        ((key.vpn.0 ^ ((key.asid as u64) << 17)) as usize) & (self.sets.len() - 1)
    }

    fn lookup(&mut self, key: TlbKey) -> Option<&P> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(key);
        let slot = self.sets[set].iter_mut().find(|s| s.key == key)?;
        slot.last_use = clock;
        Some(&slot.payload)
    }

    fn probe(&self, key: TlbKey) -> Option<&P> {
        let set = self.set_of(key);
        self.sets[set]
            .iter()
            .find(|s| s.key == key)
            .map(|s| &s.payload)
    }

    fn insert(&mut self, key: TlbKey, payload: P) -> Option<(TlbKey, P)> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let set = self.set_of(key);
        let slots = &mut self.sets[set];
        if let Some(s) = slots.iter_mut().find(|s| s.key == key) {
            s.payload = payload;
            s.last_use = clock;
            return None;
        }
        let mut evicted = None;
        if slots.len() == ways {
            // `slots.len() == ways > 0` here, so the min always exists;
            // fall back to slot 0 rather than panicking.
            let lru = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .unwrap_or(0);
            let victim = slots.swap_remove(lru);
            evicted = Some((victim.key, victim.payload));
        }
        slots.push(Slot {
            key,
            payload,
            last_use: clock,
        });
        evicted
    }

    fn invalidate(&mut self, key: TlbKey) -> Option<P> {
        let set = self.set_of(key);
        let slots = &mut self.sets[set];
        let idx = slots.iter().position(|s| s.key == key)?;
        Some(slots.swap_remove(idx).payload)
    }
}

/// End of a recency list; an empty index cell.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<P> {
    key: TlbKey,
    payload: P,
    /// Next entry toward the most recently used end, or [`NIL`].
    newer: u32,
    /// Next entry toward the least recently used end, or [`NIL`].
    older: u32,
}

/// One set of `capacity` entries, found through an open-addressed hash
/// index (linear probing, at most half full, deletion by backward shift,
/// so there are no tombstones) and ordered by a doubly linked recency
/// list. A use moves its entry to the most recent end; the victim is the
/// least recent end. That is the entry a scan for the smallest
/// `last_use` stamp would pick, because every use takes a fresh, larger
/// stamp: the list is the entries sorted by stamp.
#[derive(Debug, Clone)]
struct FullyAssoc<P> {
    entries: Vec<Entry<P>>,
    capacity: usize,
    /// Entry number per cell, or [`NIL`]; `index.len()` is a power of two
    /// at least twice `capacity`.
    index: Box<[u32]>,
    /// `64 - log2(index.len())`: the hash keeps its top bits.
    shift: u32,
    mru: u32,
    lru: u32,
}

impl<P> FullyAssoc<P> {
    fn new(capacity: usize) -> Self {
        let cells = (2 * capacity).next_power_of_two();
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            index: vec![NIL; cells].into_boxed_slice(),
            shift: 64 - cells.trailing_zeros(),
            mru: NIL,
            lru: NIL,
        }
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// Home cell of `key` (Fibonacci hashing).
    fn home(&self, key: TlbKey) -> usize {
        let k = key.vpn.0 ^ (u64::from(key.asid) << 48);
        (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// `Ok(cell)` holding `key`, or `Err(cell)`: the empty cell that ends
    /// its probe run.
    fn find(&self, key: TlbKey) -> Result<usize, usize> {
        let mask = self.mask();
        let mut cell = self.home(key);
        loop {
            let e = self.index[cell];
            if e == NIL {
                return Err(cell);
            }
            if self.entries[e as usize].key == key {
                return Ok(cell);
            }
            cell = (cell + 1) & mask;
        }
    }

    fn lookup(&mut self, key: TlbKey) -> Option<&P> {
        // A repeat of the most recent use (lanes and warps of a coalesced
        // stream) needs no hashing and no relinking.
        let mru = self.mru as usize;
        if mru < self.entries.len() && self.entries[mru].key == key {
            return Some(&self.entries[mru].payload);
        }
        let e = self.index[self.find(key).ok()?];
        self.touch(e);
        Some(&self.entries[e as usize].payload)
    }

    fn probe(&self, key: TlbKey) -> Option<&P> {
        let cell = self.find(key).ok()?;
        Some(&self.entries[self.index[cell] as usize].payload)
    }

    fn insert(&mut self, key: TlbKey, payload: P) -> Option<(TlbKey, P)> {
        let hole = match self.find(key) {
            Ok(cell) => {
                let e = self.index[cell];
                self.entries[e as usize].payload = payload;
                self.touch(e);
                return None;
            }
            Err(hole) => hole,
        };
        if self.entries.len() < self.capacity {
            let e = self.entries.len() as u32;
            self.entries.push(Entry {
                key,
                payload,
                newer: NIL,
                older: NIL,
            });
            self.index[hole] = e;
            self.push_mru(e);
            return None;
        }
        // Full: the least recent entry's storage takes the new key.
        let victim = self.lru;
        let old_key = self.entries[victim as usize].key;
        if let Ok(cell) = self.find(old_key) {
            self.unindex(cell);
        }
        // Removing the victim may have shifted `key`'s probe run.
        if let Err(cell) = self.find(key) {
            self.index[cell] = victim;
        }
        let slot = &mut self.entries[victim as usize];
        slot.key = key;
        let old_payload = std::mem::replace(&mut slot.payload, payload);
        self.touch(victim);
        Some((old_key, old_payload))
    }

    fn invalidate(&mut self, key: TlbKey) -> Option<P> {
        let cell = self.find(key).ok()?;
        let e = self.index[cell];
        self.unindex(cell);
        self.unlink(e);
        // The last entry moves into `e`'s storage: repoint its index cell
        // and its list neighbours.
        let last = (self.entries.len() - 1) as u32;
        if e != last {
            let moved_key = self.entries[last as usize].key;
            if let Ok(c) = self.find(moved_key) {
                self.index[c] = e;
            }
            let (newer, older) = {
                let m = &self.entries[last as usize];
                (m.newer, m.older)
            };
            self.set_older_of(newer, e);
            self.set_newer_of(older, e);
        }
        Some(self.entries.swap_remove(e as usize).payload)
    }

    /// Empties `cell` and shifts later cells of its probe run back, so
    /// every key stays reachable from its home cell without tombstones.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut cell = hole;
        loop {
            self.index[hole] = NIL;
            loop {
                cell = (cell + 1) & mask;
                let e = self.index[cell];
                if e == NIL {
                    return;
                }
                let home = self.home(self.entries[e as usize].key);
                // The entry may fill the hole unless its home lies
                // cyclically in (hole, cell].
                if (cell.wrapping_sub(home) & mask) >= (cell.wrapping_sub(hole) & mask) {
                    self.index[hole] = e;
                    hole = cell;
                    break;
                }
            }
        }
    }

    /// Makes `e` the most recently used entry.
    fn touch(&mut self, e: u32) {
        if e != self.mru {
            self.unlink(e);
            self.push_mru(e);
        }
    }

    fn unlink(&mut self, e: u32) {
        let (newer, older) = {
            let x = &self.entries[e as usize];
            (x.newer, x.older)
        };
        self.set_older_of(newer, older);
        self.set_newer_of(older, newer);
    }

    fn push_mru(&mut self, e: u32) {
        let old_mru = self.mru;
        {
            let x = &mut self.entries[e as usize];
            x.newer = NIL;
            x.older = old_mru;
        }
        self.set_newer_of(old_mru, e);
        self.mru = e;
    }

    /// Sets the `older` link of entry `at`; `at == NIL` stands for the
    /// list head, so this sets the MRU end.
    fn set_older_of(&mut self, at: u32, older: u32) {
        match at {
            NIL => self.mru = older,
            _ => self.entries[at as usize].older = older,
        }
    }

    /// Sets the `newer` link of entry `at`; `at == NIL` stands for the
    /// list tail, so this sets the LRU end.
    fn set_newer_of(&mut self, at: u32, newer: u32) {
        match at {
            NIL => self.lru = newer,
            _ => self.entries[at as usize].newer = newer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(vpn: u64) -> TlbKey {
        TlbKey {
            asid: 0,
            vpn: Vpn(vpn),
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut t: Tlb<u32> = Tlb::new(8, 2);
        t.insert(k(1), 10);
        assert_eq!(t.lookup(k(1)), Some(&10));
        assert_eq!(t.lookup(k(2)), None);
        assert_eq!(t.stats().hits(), 1);
        assert_eq!(t.stats().total(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Fully associative with 2 ways.
        let mut t: Tlb<u32> = Tlb::new(2, 2);
        t.insert(k(1), 1);
        t.insert(k(2), 2);
        t.lookup(k(1)); // make 2 the LRU
        let ev = t.insert(k(3), 3).unwrap();
        assert_eq!(ev.0, k(2));
        assert!(t.probe(k(1)).is_some());
        assert!(t.probe(k(3)).is_some());
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut t: Tlb<u32> = Tlb::new(2, 2);
        t.insert(k(1), 1);
        t.insert(k(2), 2);
        t.probe(k(1)); // not a use
        let ev = t.insert(k(3), 3).unwrap();
        assert_eq!(ev.0, k(1)); // 1 is still LRU despite the probe
        assert_eq!(t.stats().total(), 0);
    }

    #[test]
    fn reinsert_updates_payload() {
        let mut t: Tlb<u32> = Tlb::new(4, 4);
        t.insert(k(1), 1);
        assert!(t.insert(k(1), 42).is_none());
        assert_eq!(t.lookup(k(1)), Some(&42));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn asid_isolation() {
        let mut t: Tlb<u32> = Tlb::new(16, 4);
        let a = TlbKey {
            asid: 1,
            vpn: Vpn(9),
        };
        let b = TlbKey {
            asid: 2,
            vpn: Vpn(9),
        };
        t.insert(a, 100);
        assert!(t.probe(b).is_none());
        t.insert(b, 200);
        assert_eq!(t.probe(a), Some(&100));
        assert_eq!(t.probe(b), Some(&200));
    }

    #[test]
    fn invalidate_and_shootdown() {
        for (entries, ways) in [(8, 4), (8, 8)] {
            let mut t: Tlb<u32> = Tlb::new(entries, ways);
            t.insert(k(1), 1);
            t.insert(k(2), 2);
            assert_eq!(t.invalidate(k(1)), Some(1));
            assert_eq!(t.invalidate(k(1)), None);
            assert_eq!(t.probe(k(2)), Some(&2));
            let keys = t.shootdown();
            assert_eq!(keys, vec![k(2)]);
            assert!(t.is_empty());
            assert!(t.probe(k(2)).is_none());
            t.insert(k(3), 3);
            assert_eq!(t.lookup(k(3)), Some(&3));
        }
    }

    #[test]
    fn set_mapping_respects_associativity() {
        // 8 entries, 2-way => 4 sets. VPNs congruent mod 4 conflict.
        let mut t: Tlb<u32> = Tlb::new(8, 2);
        t.insert(k(0), 0);
        t.insert(k(4), 4);
        t.insert(k(8), 8); // evicts one of the set-0 residents
        let resident = [k(0), k(4), k(8)]
            .iter()
            .filter(|&&key| t.probe(key).is_some())
            .count();
        assert_eq!(resident, 2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _: Tlb<u8> = Tlb::new(10, 4);
    }

    /// The TLB as it was before the fully-associative index: every set,
    /// however wide, a `Vec` of slots scanned in full, the victim the
    /// smallest `last_use` stamp.
    struct Linear {
        sets: Vec<Vec<Slot<u32>>>,
        ways: usize,
        clock: u64,
        hits: u64,
        total: u64,
        evictions: u64,
    }

    impl Linear {
        fn new(entries: usize, ways: usize) -> Self {
            Self {
                sets: (0..entries / ways).map(|_| Vec::new()).collect(),
                ways,
                clock: 0,
                hits: 0,
                total: 0,
                evictions: 0,
            }
        }

        fn set_of(&self, key: TlbKey) -> usize {
            ((key.vpn.0 ^ ((key.asid as u64) << 17)) as usize) & (self.sets.len() - 1)
        }

        fn lookup(&mut self, key: TlbKey) -> Option<u32> {
            self.clock += 1;
            self.total += 1;
            let clock = self.clock;
            let set = self.set_of(key);
            let s = self.sets[set].iter_mut().find(|s| s.key == key)?;
            s.last_use = clock;
            self.hits += 1;
            Some(s.payload)
        }

        fn probe(&self, key: TlbKey) -> Option<u32> {
            let set = self.set_of(key);
            self.sets[set]
                .iter()
                .find(|s| s.key == key)
                .map(|s| s.payload)
        }

        fn insert(&mut self, key: TlbKey, payload: u32) -> Option<(TlbKey, u32)> {
            self.clock += 1;
            let clock = self.clock;
            let set = self.set_of(key);
            let slots = &mut self.sets[set];
            if let Some(s) = slots.iter_mut().find(|s| s.key == key) {
                s.payload = payload;
                s.last_use = clock;
                return None;
            }
            let mut evicted = None;
            if slots.len() == self.ways {
                let lru = (0..slots.len()).min_by_key(|&i| slots[i].last_use).unwrap();
                let v = slots.swap_remove(lru);
                self.evictions += 1;
                evicted = Some((v.key, v.payload));
            }
            slots.push(Slot {
                key,
                payload,
                last_use: clock,
            });
            evicted
        }

        fn invalidate(&mut self, key: TlbKey) -> Option<u32> {
            let set = self.set_of(key);
            let slots = &mut self.sets[set];
            let i = slots.iter().position(|s| s.key == key)?;
            Some(slots.swap_remove(i).payload)
        }

        fn len(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// Seeded random streams of lookups, inserts, probes and
    /// invalidations give the same hits, payloads, victims, statistics
    /// and occupancy on the production TLB as on [`Linear`], for the
    /// fully-associative L1 geometries and the set-associative L2 ones.
    #[test]
    fn every_geometry_matches_the_linear_scan() {
        for (seed, entries, ways) in [
            (1u64, 64usize, 64usize),
            (2, 2, 2),
            (3, 512, 16),
            (4, 256, 8),
        ] {
            let mut rng = barre_sim::Rng::new(seed);
            let mut t: Tlb<u32> = Tlb::new(entries, ways);
            let mut r = Linear::new(entries, ways);
            for step in 0..30_000 {
                // A hot range that mostly fits, sometimes a wide one that
                // thrashes, and a second ASID, so sets fill, evict and
                // refill and index probe runs wrap.
                let span = if rng.index(4) == 0 {
                    8 * entries
                } else {
                    entries + entries / 2
                };
                let key = TlbKey {
                    asid: rng.index(2) as u16,
                    vpn: Vpn(rng.index(span) as u64),
                };
                match rng.index(16) {
                    0..=6 => assert_eq!(
                        t.lookup(key).copied(),
                        r.lookup(key),
                        "seed {seed} step {step}"
                    ),
                    7..=11 => {
                        let v = rng.index(1 << 20) as u32;
                        assert_eq!(
                            t.insert(key, v),
                            r.insert(key, v),
                            "seed {seed} step {step}"
                        );
                    }
                    12..=14 => assert_eq!(
                        t.probe(key).copied(),
                        r.probe(key),
                        "seed {seed} step {step}"
                    ),
                    _ => assert_eq!(
                        t.invalidate(key),
                        r.invalidate(key),
                        "seed {seed} step {step}"
                    ),
                }
                assert_eq!(t.len(), r.len(), "seed {seed} step {step}");
                assert_eq!(t.evictions(), r.evictions, "seed {seed} step {step}");
                assert_eq!(
                    (t.stats().hits(), t.stats().total()),
                    (r.hits, r.total),
                    "seed {seed} step {step}"
                );
            }
            assert!(t.evictions() > 0 && t.stats().hits() > 0, "seed {seed}");
        }
    }
}
