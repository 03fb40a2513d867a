//! Physically-indexed, physically-tagged data caches.
//!
//! Tag-array-only models: the simulator needs hit/miss decisions and
//! occupancy, never the data. Used for the per-CU L1 vector cache (16 KiB,
//! 4-way) and the per-chiplet L2 (2 MiB, 16-way) of Table II.

use barre_mem::PhysAddr;
use barre_sim::RatioStat;

/// A set-associative tag cache over physical byte addresses.
///
/// A set takes its storage when a line first fills it, so a large cache
/// that a run touches sparsely costs memory only for the sets it
/// touched: a smoke machine's four 2 MiB L2s would otherwise
/// preallocate 512 KiB of tags at build time.
///
/// # Example
///
/// ```
/// use barre_gpu::TagCache;
/// use barre_mem::PhysAddr;
///
/// let mut c = TagCache::new(16 * 1024, 4, 64);
/// assert!(!c.access(PhysAddr(0x1000)));
/// assert!(c.access(PhysAddr(0x1004))); // same line
/// ```
#[derive(Debug, Clone)]
pub struct TagCache {
    sets: Vec<Vec<(u64, u64)>>, // (line_tag, last_use)
    ways: usize,
    line_shift: u32,
    clock: u64,
    stats: RatioStat,
}

impl TagCache {
    /// Creates a cache of `bytes` capacity, `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry divides evenly into a power-of-two set
    /// count.
    pub fn new(bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = bytes / line_bytes;
        assert!(
            (lines as usize).is_multiple_of(ways),
            "capacity must divide into ways"
        );
        let nsets = lines as usize / ways;
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        Self {
            sets: (0..nsets).map(|_| Vec::new()).collect(),
            ways,
            line_shift: line_bytes.trailing_zeros(),
            clock: 0,
            stats: RatioStat::new(),
        }
    }

    fn line_of(&self, addr: PhysAddr) -> u64 {
        addr.0 >> self.line_shift
    }

    /// Accesses `addr`: returns `true` on hit; on miss the line is filled
    /// (allocate-on-miss, LRU victim).
    pub fn access(&mut self, addr: PhysAddr) -> bool {
        self.clock += 1;
        let line = self.line_of(addr);
        let nsets = self.sets.len();
        let set = &mut self.sets[(line as usize) & (nsets - 1)];
        if let Some(e) = set.iter_mut().find(|(t, _)| *t == line) {
            e.1 = self.clock;
            self.stats.record(true);
            return true;
        }
        self.stats.record(false);
        if set.len() == self.ways {
            // `set.len() == ways > 0`, so the min always exists; fall
            // back to slot 0 rather than panicking.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, u))| *u)
                .map(|(i, _)| i)
                .unwrap_or(0);
            set.swap_remove(lru);
        } else if set.capacity() == 0 {
            // One allocation per set, at its first fill: growing a set
            // 4 → 8 → 16 ways through reallocation measured ~5 % slower
            // on translation-bound smoke runs (gups, spmv).
            set.reserve_exact(self.ways);
        }
        set.push((line, self.clock));
        false
    }

    /// Drops every line whose address falls in `[start, end)` — page
    /// migration invalidates the page's cached lines.
    pub fn invalidate_range(&mut self, start: PhysAddr, end: PhysAddr) {
        let lo = start.0 >> self.line_shift;
        let hi = end.0 >> self.line_shift;
        for set in &mut self.sets {
            set.retain(|(t, _)| !(lo..hi).contains(t));
        }
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> RatioStat {
        self.stats
    }

    /// Resident line count.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = TagCache::new(1024, 2, 64);
        assert!(!c.access(PhysAddr(0)));
        assert!(c.access(PhysAddr(63)));
        assert!(!c.access(PhysAddr(64)));
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn lru_within_set() {
        // 2 sets × 2 ways, 64 B lines: lines 0,2,4 share set 0.
        let mut c = TagCache::new(256, 2, 64);
        c.access(PhysAddr(0)); // line 0
        c.access(PhysAddr(128)); // line 2
        c.access(PhysAddr(0)); // refresh line 0
        c.access(PhysAddr(256)); // line 4 evicts line 2
        assert!(c.access(PhysAddr(0)));
        assert!(!c.access(PhysAddr(128)));
    }

    #[test]
    fn invalidate_range_drops_page_lines() {
        let mut c = TagCache::new(4096, 4, 64);
        c.access(PhysAddr(0x1000));
        c.access(PhysAddr(0x1040));
        c.access(PhysAddr(0x3000));
        c.invalidate_range(PhysAddr(0x1000), PhysAddr(0x2000));
        assert!(!c.access(PhysAddr(0x1000)));
        assert!(c.access(PhysAddr(0x3000)));
    }

    /// The cache as it was when every set was preallocated: `ways`
    /// fixed slots per set, filled in order, LRU victim on a full set.
    struct Preallocated {
        slots: Vec<Option<(u64, u64)>>,
        ways: usize,
        clock: u64,
    }

    impl Preallocated {
        fn access(&mut self, line: u64) -> bool {
            self.clock += 1;
            let nsets = self.slots.len() / self.ways;
            let base = (line as usize & (nsets - 1)) * self.ways;
            let set = &mut self.slots[base..base + self.ways];
            if let Some(Some(e)) = set.iter_mut().find(|e| e.is_some_and(|(t, _)| t == line)) {
                e.1 = self.clock;
                return true;
            }
            let victim = set.iter().position(Option::is_none).unwrap_or_else(|| {
                (0..set.len())
                    .min_by_key(|&i| set[i].map_or(0, |(_, u)| u))
                    .unwrap_or(0)
            });
            set[victim] = Some((line, self.clock));
            false
        }

        fn invalidate(&mut self, lo: u64, hi: u64) {
            for e in &mut self.slots {
                if e.is_some_and(|(t, _)| (lo..hi).contains(&t)) {
                    *e = None;
                }
            }
        }

        fn len(&self) -> usize {
            self.slots.iter().filter(|e| e.is_some()).count()
        }
    }

    #[test]
    fn grow_on_fill_matches_a_preallocated_cache() {
        for (seed, ways) in [(1u64, 1usize), (2, 2), (3, 4), (4, 8), (5, 16)] {
            let mut rng = barre_sim::Rng::new(seed);
            let mut c = TagCache::new(64 * 64 * ways as u64, ways, 64);
            let mut r = Preallocated {
                slots: vec![None; 64 * ways],
                ways,
                clock: 0,
            };
            for step in 0..20_000 {
                // Mostly a hot region that fits, sometimes a wide one
                // that thrashes, so sets fill, evict and refill.
                let line = if rng.index(4) == 0 {
                    rng.index(4096) as u64
                } else {
                    rng.index(48 * ways) as u64
                };
                let hit = c.access(PhysAddr(line * 64 + rng.index(64) as u64));
                assert_eq!(hit, r.access(line), "seed {seed} step {step}");
                if step % 997 == 0 {
                    let lo = rng.index(4096) as u64;
                    c.invalidate_range(PhysAddr(lo * 64), PhysAddr((lo + 256) * 64));
                    r.invalidate(lo, lo + 256);
                }
                assert_eq!(c.len(), r.len(), "seed {seed} step {step}");
            }
            assert!(c.sets.iter().all(|s| s.len() <= ways));
        }
    }

    #[test]
    fn an_untouched_set_holds_no_storage() {
        let mut c = TagCache::new(2 * 1024 * 1024, 16, 64);
        c.access(PhysAddr(0));
        let touched: Vec<usize> = c
            .sets
            .iter()
            .map(Vec::capacity)
            .filter(|&n| n > 0)
            .collect();
        assert_eq!(touched, vec![16]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        TagCache::new(1024, 2, 48);
    }
}
