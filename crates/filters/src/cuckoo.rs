//! Cuckoo filter (Fan et al., CoNEXT 2014).
//!
//! Partial-key cuckoo hashing: an item `x` has two candidate buckets,
//!
//! ```text
//! i1 = hash(x)            mod m
//! i2 = i1 ^ hash(fp(x))   mod m
//! ```
//!
//! so either bucket is reachable from the other using only the stored
//! fingerprint — the property that makes relocation (and therefore
//! deletion) possible without the original key.

use barre_sim::Rng;

use crate::Filter;

/// Maximum displacement chain length before an insert is declared failed,
/// as in the original paper.
const MAX_KICKS: usize = 500;

/// Slots per bucket. Table II's filters are 4-way, and a 4-way bucket of
/// 16-bit fingerprints packs into one `u64`.
const WAYS: usize = 4;

/// The lowest bit of every 16-bit lane of a packed bucket.
const LANE_LSB: u64 = 0x0001_0001_0001_0001;

/// The highest bit of every 16-bit lane of a packed bucket.
const LANE_MSB: u64 = 0x8000_8000_8000_8000;

/// Flags the zero lanes of `x`: the lowest set bit sits in the lowest
/// zero lane, and the result is nonzero exactly when some lane is zero.
/// A borrow out of a zero lane can also flag lanes above it, so only the
/// lowest flag names a lane.
#[inline]
fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LANE_LSB) & !x & LANE_MSB
}

/// The lowest zero lane of `x`, if any.
#[inline]
fn first_zero_lane(x: u64) -> Option<u32> {
    let z = zero_lanes(x);
    (z != 0).then(|| z.trailing_zeros() / 16)
}

/// Stores `fp` in the first free lane of bucket `b`.
#[inline]
fn place(b: &mut u64, fp: u64) -> bool {
    match first_zero_lane(*b) {
        Some(lane) => {
            *b |= fp << (16 * lane);
            true
        }
        None => false,
    }
}

/// The two candidate rows and fingerprint of one key, precomputed so a
/// single hash can serve many probes.
///
/// A `KeyHash` is only meaningful for filters sharing the geometry and
/// seed of the filter that produced it ([`CuckooFilter::key_hash`]
/// documents the contract); probing an unrelated filter with it is not
/// unsafe, just meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash {
    fp: u16,
    i1: usize,
    i2: usize,
}

/// A cuckoo filter with `rows` buckets of 4 fingerprints.
///
/// Each bucket's fingerprints are one `u64` of four 16-bit lanes, lane
/// `k` holding slot `k` (0 = empty). Membership, the first free slot and
/// the first matching slot are SWAR lane tests on that word.
///
/// # Example
///
/// ```
/// use barre_filters::{CuckooFilter, Filter};
///
/// let mut f = CuckooFilter::paper_default(7);
/// f.insert(0xA1);
/// assert!(f.contains(0xA1));
/// f.remove(0xA1);
/// assert!(!f.contains(0xA1));
/// ```
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    buckets: Vec<u64>,
    rows: usize,
    fp_bits: u32,
    len: usize,
    seed: u64,
    kick_rng: Rng,
    dropped: u64,
    absent_removes: u64,
    max_kicks: usize,
    /// Rows the last [`apply_all`](Self::apply_all) wrote, in write order
    /// (a row may repeat). Reused across calls.
    written: Vec<u16>,
    // alt_xor[fp] = hash(fp) & (rows - 1), so the partial-key relocation
    // `i2 = i1 ^ hash(fp)` is a table lookup instead of a 64-bit mix on
    // every probe. 2^fp_bits entries, built once at construction.
    alt_xor: Vec<u16>,
}

fn mix(x: u64, seed: u64) -> u64 {
    // SplitMix64 finalizer over a seeded input; a high-quality 64-bit mixer.
    let mut z = x ^ seed.rotate_left(25) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CuckooFilter {
    /// Creates a filter with `rows` buckets, `ways` slots per bucket and
    /// `fp_bits`-bit fingerprints. `seed` perturbs the hash functions so
    /// distinct filters alias differently.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` is a power of two no larger than 65,536,
    /// `ways == 4` (the packed bucket layout), and `1 <= fp_bits <= 16`.
    pub fn new(rows: usize, ways: usize, fp_bits: u32, seed: u64) -> Self {
        Self::with_max_kicks(rows, ways, fp_bits, seed, MAX_KICKS)
    }

    /// Creates a filter like [`new`](Self::new) but with a bounded
    /// displacement chain: an insert gives up after `max_kicks`
    /// relocations instead of the paper's 500. Hardware filter pipelines
    /// budget a handful of swaps per insert; a small bound turns the
    /// saturated-table worst case (hundreds of futile kicks per insert)
    /// into a constant-cost drop, at the price of dropping slightly
    /// earlier when a long chain would eventually have found a slot.
    ///
    /// # Panics
    ///
    /// Panics unless `rows` is a power of two no larger than 65,536,
    /// `ways == 4` (the packed bucket layout), and `1 <= fp_bits <= 16`.
    pub fn with_max_kicks(
        rows: usize,
        ways: usize,
        fp_bits: u32,
        seed: u64,
        max_kicks: usize,
    ) -> Self {
        assert!(rows.is_power_of_two(), "rows must be a power of two");
        assert!(rows <= 1 << 16, "row offsets are 16-bit");
        assert!(ways == WAYS, "buckets are packed 4-way");
        assert!((1..=16).contains(&fp_bits), "fp_bits must be in 1..=16");
        let alt_xor = (0..1u32 << fp_bits)
            .map(|fp| (mix(fp as u64, seed ^ 0xA5A5) as usize & (rows - 1)) as u16)
            .collect();
        Self {
            buckets: vec![0; rows],
            rows,
            fp_bits,
            len: 0,
            seed,
            kick_rng: Rng::new(seed ^ 0xC0FF_EE00),
            dropped: 0,
            absent_removes: 0,
            max_kicks,
            written: Vec::new(),
            alt_xor,
        }
    }

    /// The paper's Table II configuration: 256 rows, 4 ways, 9-bit
    /// fingerprints (1024 entries).
    pub fn paper_default(seed: u64) -> Self {
        Self::new(256, 4, 9, seed)
    }

    /// Number of buckets.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Slots per bucket (always 4).
    pub fn ways(&self) -> usize {
        WAYS
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.rows * WAYS
    }

    /// Load factor in `[0, 1]`.
    pub fn load(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Items dropped due to insertion failure (over-full table).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes that found no matching fingerprint.
    pub fn absent_removes(&self) -> u64 {
        self.absent_removes
    }

    /// The theoretical false-positive upper bound `2·ways / 2^fp_bits`
    /// (§VII-K quotes 1.53% for the default configuration).
    pub fn theoretical_fp_rate(&self) -> f64 {
        (2.0 * WAYS as f64) / (1u64 << self.fp_bits) as f64
    }

    /// Precomputes the fingerprint and both candidate rows of `key` with a
    /// single `mix()` call: the row index comes from the low bits and the
    /// fingerprint from the top 16 (they never overlap — `fp_bits <= 16`
    /// and row counts stay far below 2^48).
    ///
    /// The result is reusable across every filter constructed with the
    /// same `(rows, ways, fp_bits, seed)` tuple, which is how a bank of
    /// peer filters serves one probe with one hash.
    #[inline]
    pub fn key_hash(&self, key: u64) -> KeyHash {
        let h = mix(key, self.seed);
        let i1 = (h as usize) & (self.rows - 1);
        let mask = (1u32 << self.fp_bits) - 1;
        let raw = ((h >> 48) as u32) & mask;
        let fp = if raw == 0 { 1 } else { raw as u16 };
        KeyHash {
            fp,
            i1,
            i2: self.alt_index(i1, fp),
        }
    }

    #[cfg(test)]
    fn fingerprint(&self, key: u64) -> u16 {
        self.key_hash(key).fp
    }

    #[cfg(test)]
    fn index1(&self, key: u64) -> usize {
        self.key_hash(key).i1
    }

    fn alt_index(&self, index: usize, fp: u16) -> usize {
        // `fp` is masked to `fp_bits` at creation and `alt_xor` holds
        // `1 << fp_bits` entries, so the lookup cannot actually miss;
        // checked access keeps the path provably panic-free anyway.
        let xor = self.alt_xor.get(fp as usize).copied().unwrap_or(0);
        (index ^ xor as usize) & (self.rows - 1)
    }

    /// Membership probe from a precomputed [`KeyHash`] — the batched
    /// lookup used when one key is checked against several same-seed
    /// filters.
    #[inline]
    pub fn contains_hashed(&self, h: KeyHash) -> bool {
        let lanes = LANE_LSB * h.fp as u64;
        self.pick(h.i1, h.i2, |b| zero_lanes(b ^ lanes)).1 != 0
    }

    /// The lanes `test` flags in row `i1` if it flags any, else in row
    /// `i2`, with that row. Both rows are tested up front and the pick is
    /// a select, not a branch: which of a key's two rows has a free or a
    /// matching lane is a coin flip the branch predictor cannot learn.
    /// Rows are masked to `rows == buckets.len()`; checked access keeps
    /// the probe path provably panic-free.
    #[inline]
    fn pick(&self, i1: usize, i2: usize, test: impl Fn(u64) -> u64) -> (usize, u64) {
        let z1 = self.buckets.get(i1).map_or(0, |&b| test(b));
        let z2 = self.buckets.get(i2).map_or(0, |&b| test(b));
        if z1 != 0 {
            (i1, z1)
        } else {
            (i2, z2)
        }
    }

    /// [`Filter::insert`] of the key `h` was computed from. With `LOG`,
    /// every row the insert writes is appended to `written`.
    #[inline]
    fn insert_hashed<const LOG: bool>(&mut self, h: KeyHash) -> bool {
        let KeyHash { fp, i1, i2 } = h;
        let fp = fp as u64;
        // The first free slot of `i1`, else of `i2`.
        let (row, free) = self.pick(i1, i2, zero_lanes);
        if let (true, Some(b)) = (free != 0, self.buckets.get_mut(row)) {
            *b |= fp << (16 * (free.trailing_zeros() / 16));
            self.len += 1;
            if LOG {
                self.written.push(row as u16);
            }
            return true;
        }
        // Relocate: kick a random resident fingerprint. The draws are
        // `chance(0.5)` and `index(4)` read off the raw words: the top
        // bit is clear exactly when `next_f64() < 0.5`, and the top two
        // bits are Lemire's `index(4)`.
        let mask = self.rows - 1;
        let Self {
            buckets,
            kick_rng,
            alt_xor,
            written,
            ..
        } = self;
        let mut row = if kick_rng.next_u64() >> 63 == 0 {
            i1
        } else {
            i2
        };
        let mut fp = fp;
        for _ in 0..self.max_kicks {
            let shift = 16 * (kick_rng.next_u64() >> 62);
            let Some(b) = buckets.get_mut(row) else {
                break;
            };
            // Swap `fp` into the victim's lane; the victim moves on.
            let victim = (*b >> shift) & 0xFFFF;
            *b ^= (victim ^ fp) << shift;
            if LOG {
                written.push(row as u16);
            }
            fp = victim;
            let xor = alt_xor.get(fp as usize).copied().unwrap_or(0);
            row = (row ^ xor as usize) & mask;
            if buckets.get_mut(row).is_some_and(|b| place(b, fp)) {
                if LOG {
                    written.push(row as u16);
                }
                self.len += 1;
                return true;
            }
        }
        // Insertion failed; the displaced fingerprint is dropped. A real
        // deployment would keep a one-item stash; for sharer prediction a
        // dropped entry only costs a missed sharing opportunity.
        self.dropped += 1;
        false
    }

    /// [`Filter::remove`] of the key `h` was computed from. With `LOG`,
    /// the row it clears is appended to `written`.
    #[inline]
    fn remove_hashed<const LOG: bool>(&mut self, h: KeyHash) -> bool {
        let KeyHash { fp, i1, i2 } = h;
        // The first slot holding `fp` in `i1`, else in `i2`.
        let lanes = LANE_LSB * fp as u64;
        let (row, hit) = self.pick(i1, i2, |b| zero_lanes(b ^ lanes));
        match (hit != 0, self.buckets.get_mut(row)) {
            (true, Some(b)) => {
                *b &= !(0xFFFF << (16 * (hit.trailing_zeros() / 16)));
                self.len -= 1;
                if LOG {
                    self.written.push(row as u16);
                }
                true
            }
            _ => {
                self.absent_removes += 1;
                false
            }
        }
    }

    /// Inserts (`insert`) or removes every key of `keys`, in order,
    /// leaving the filter as one [`Filter::insert`] or [`Filter::remove`]
    /// per key would. Keys are hashed 16 at a time before the first of
    /// them is applied, so the hashing overlaps instead of waiting behind
    /// each insert's data-dependent kick chain and its mispredicted exit.
    ///
    /// The rows the keys write are noted, so that a filter that held this
    /// one's state before the call can be brought to its state after it
    /// by [`replay`](Self::replay).
    pub fn apply_all(&mut self, insert: bool, keys: impl IntoIterator<Item = u64>) {
        self.written.clear();
        let mut keys = keys.into_iter();
        let mut hashes = [KeyHash {
            fp: 0,
            i1: 0,
            i2: 0,
        }; 16];
        loop {
            let mut n = 0;
            for (h, key) in hashes.iter_mut().zip(keys.by_ref()) {
                *h = self.key_hash(key);
                n += 1;
            }
            if n == 0 {
                return;
            }
            for &h in hashes.iter().take(n) {
                if insert {
                    self.insert_hashed::<true>(h);
                } else {
                    self.remove_hashed::<true>(h);
                }
            }
        }
    }

    /// Brings this filter to `src`'s state by copying the rows `src`'s
    /// last [`apply_all`](Self::apply_all) wrote, its
    /// `len`, its drop and absent-remove counts and its kick RNG. The
    /// result is `src`'s table only if this filter holds the state `src`
    /// held before that call and `src` has not changed since; the caller
    /// tracks that. Returns `false`, changing nothing, when the two
    /// filters differ in geometry, seed or kick budget.
    pub fn replay(&mut self, src: &CuckooFilter) -> bool {
        let same_shape = self.rows == src.rows
            && self.fp_bits == src.fp_bits
            && self.seed == src.seed
            && self.max_kicks == src.max_kicks;
        if !same_shape {
            return false;
        }
        for &row in &src.written {
            if let (Some(dst), Some(&word)) = (
                self.buckets.get_mut(row as usize),
                src.buckets.get(row as usize),
            ) {
                *dst = word;
            }
        }
        self.len = src.len;
        self.dropped = src.dropped;
        self.absent_removes = src.absent_removes;
        self.kick_rng.clone_from(&src.kick_rng);
        true
    }
}

/// Two filters are equal when they hold the same table: geometry, seed,
/// kick budget, bucket words, `len`, drop and absent-remove counts, and
/// kick RNG state. The rows an apply recorded are bookkeeping, not state.
impl PartialEq for CuckooFilter {
    fn eq(&self, o: &Self) -> bool {
        self.rows == o.rows
            && self.fp_bits == o.fp_bits
            && self.seed == o.seed
            && self.max_kicks == o.max_kicks
            && self.buckets == o.buckets
            && self.len == o.len
            && self.dropped == o.dropped
            && self.absent_removes == o.absent_removes
            && self.kick_rng == o.kick_rng
    }
}

impl Eq for CuckooFilter {}

impl Filter for CuckooFilter {
    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        self.insert_hashed::<false>(self.key_hash(key))
    }

    #[inline]
    fn remove(&mut self, key: u64) -> bool {
        self.remove_hashed::<false>(self.key_hash(key))
    }

    fn contains(&self, key: u64) -> bool {
        self.contains_hashed(self.key_hash(key))
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_delete() {
        let mut f = CuckooFilter::paper_default(1);
        for k in 0..100u64 {
            assert!(f.insert(k));
        }
        for k in 0..100u64 {
            assert!(f.contains(k), "lost key {k}");
        }
        for k in 0..100u64 {
            assert!(f.remove(k));
        }
        assert!(f.is_empty());
    }

    #[test]
    fn no_false_negatives_until_drop() {
        let mut f = CuckooFilter::new(64, 4, 12, 3);
        let mut stored = Vec::new();
        for k in 0..200u64 {
            if f.insert(k * 7919) {
                stored.push(k * 7919);
            }
        }
        for &k in &stored {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn false_positive_rate_near_theory() {
        let mut f = CuckooFilter::paper_default(5);
        // ~50% load.
        for k in 0..512u64 {
            f.insert(k);
        }
        let mut fps = 0u32;
        let probes = 100_000u32;
        for k in 0..probes as u64 {
            if f.contains(1_000_000 + k) {
                fps += 1;
            }
        }
        let rate = fps as f64 / probes as f64;
        // Theory bound is 2*4/512 = 1.56%; at half load expect below that.
        assert!(rate < 0.02, "fp rate {rate}");
        assert!((f.theoretical_fp_rate() - 0.015625).abs() < 1e-12);
    }

    #[test]
    fn alt_index_is_involution() {
        let f = CuckooFilter::paper_default(9);
        for k in 0..1000u64 {
            let fp = f.fingerprint(k);
            let i1 = f.index1(k);
            let i2 = f.alt_index(i1, fp);
            assert_eq!(f.alt_index(i2, fp), i1, "key {k}");
        }
    }

    #[test]
    fn high_load_reports_drops() {
        let mut f = CuckooFilter::new(16, 4, 9, 2); // 64 slots
        let mut failed = 0;
        for k in 0..200u64 {
            if !f.insert(k) {
                failed += 1;
            }
        }
        assert!(failed > 0);
        assert_eq!(f.dropped(), failed);
        assert!(f.len() <= f.capacity());
    }

    #[test]
    fn duplicate_inserts_are_counted() {
        let mut f = CuckooFilter::paper_default(4);
        assert!(f.insert(42));
        assert!(f.insert(42));
        assert_eq!(f.len(), 2);
        assert!(f.remove(42));
        assert!(f.contains(42)); // one copy left
        assert!(f.remove(42));
        assert!(!f.contains(42));
    }

    #[test]
    fn remove_absent_is_false() {
        let mut f = CuckooFilter::paper_default(8);
        assert!(!f.remove(123));
    }

    #[test]
    fn key_hash_matches_scalar_probe() {
        let mut f = CuckooFilter::paper_default(13);
        for k in 0..300u64 {
            f.insert(k * 31);
        }
        for k in 0..600u64 {
            let h = f.key_hash(k * 31);
            assert_eq!(f.contains_hashed(h), f.contains(k * 31), "key {k}");
        }
    }

    #[test]
    fn key_hash_shared_across_same_seed_filters() {
        // Two filters with identical geometry and seed: one hash serves
        // probes against both (the FilterBank batched-RCF contract).
        let mut a = CuckooFilter::paper_default(21);
        let mut b = CuckooFilter::paper_default(21);
        a.insert(0xA1);
        b.insert(0xB2);
        let ha = a.key_hash(0xA1);
        let hb = a.key_hash(0xB2);
        assert_eq!(ha, b.key_hash(0xA1));
        assert!(a.contains_hashed(ha) && !a.contains_hashed(hb));
        assert!(b.contains_hashed(hb) && !b.contains_hashed(ha));
    }

    #[test]
    fn bounded_kicks_drop_instead_of_walking() {
        // A saturated 8-slot table: budget-2 inserts must still succeed
        // while space remains, then fail fast without corrupting `len`.
        let mut f = CuckooFilter::with_max_kicks(2, 4, 9, 17, 2);
        let mut stored = 0u64;
        for k in 0..64u64 {
            if f.insert(k) {
                stored += 1;
            }
        }
        assert_eq!(f.len() as u64, stored);
        assert!(f.len() <= f.capacity());
        assert!(f.dropped() > 0);
    }

    /// The slice-per-bucket filter the packed layout replaced, kept
    /// verbatim as the reference the lockstep test drives.
    struct SliceFilter {
        slots: Vec<u16>,
        rows: usize,
        ways: usize,
        fp_bits: u32,
        len: usize,
        seed: u64,
        kick_rng: Rng,
        dropped: u64,
        max_kicks: usize,
        alt_xor: Vec<u32>,
    }

    impl SliceFilter {
        fn new(rows: usize, ways: usize, fp_bits: u32, seed: u64, max_kicks: usize) -> Self {
            let alt_xor = (0..1u32 << fp_bits)
                .map(|fp| (mix(fp as u64, seed ^ 0xA5A5) as u32) & (rows as u32 - 1))
                .collect();
            Self {
                slots: vec![0; rows * ways],
                rows,
                ways,
                fp_bits,
                len: 0,
                seed,
                kick_rng: Rng::new(seed ^ 0xC0FF_EE00),
                dropped: 0,
                max_kicks,
                alt_xor,
            }
        }

        fn hash_of(&self, key: u64) -> (u16, usize, usize) {
            let h = mix(key, self.seed);
            let i1 = (h as usize) & (self.rows - 1);
            let mask = (1u32 << self.fp_bits) - 1;
            let raw = ((h >> 48) as u32) & mask;
            let fp = if raw == 0 { 1 } else { raw as u16 };
            (fp, i1, self.alt_of(i1, fp))
        }

        fn alt_of(&self, index: usize, fp: u16) -> usize {
            (index ^ self.alt_xor[fp as usize] as usize) & (self.rows - 1)
        }

        fn bucket_mut(&mut self, row: usize) -> &mut [u16] {
            &mut self.slots[row * self.ways..(row + 1) * self.ways]
        }

        fn try_place(&mut self, row: usize, fp: u16) -> bool {
            for s in self.bucket_mut(row) {
                if *s == 0 {
                    *s = fp;
                    return true;
                }
            }
            false
        }

        fn insert(&mut self, key: u64) -> bool {
            let (fp, i1, i2) = self.hash_of(key);
            if self.try_place(i1, fp) || self.try_place(i2, fp) {
                self.len += 1;
                return true;
            }
            let mut row = if self.kick_rng.chance(0.5) { i1 } else { i2 };
            let mut fp = fp;
            for _ in 0..self.max_kicks {
                let victim_slot = self.kick_rng.index(self.ways);
                let b = self.bucket_mut(row);
                std::mem::swap(&mut b[victim_slot], &mut fp);
                row = self.alt_of(row, fp);
                if self.try_place(row, fp) {
                    self.len += 1;
                    return true;
                }
            }
            self.dropped += 1;
            false
        }

        fn remove(&mut self, key: u64) -> bool {
            let (fp, i1, i2) = self.hash_of(key);
            for row in [i1, i2] {
                let b = self.bucket_mut(row);
                if let Some(slot) = b.iter_mut().find(|s| **s == fp) {
                    *slot = 0;
                    self.len -= 1;
                    return true;
                }
            }
            false
        }

        fn contains(&self, key: u64) -> bool {
            let (fp, i1, i2) = self.hash_of(key);
            [i1, i2]
                .iter()
                .any(|&r| self.slots[r * self.ways..(r + 1) * self.ways].contains(&fp))
        }
    }

    #[test]
    fn packed_buckets_match_the_slice_filter_in_lockstep() {
        // Seeded insert/remove/contains streams driven into both layouts
        // at once: every return value, `len`, `dropped`, the raw slot
        // contents and a probe sweep must agree, from half load to a
        // saturated table, across kick budgets and fingerprint widths.
        for fp_bits in [9u32, 16] {
            for max_kicks in [2usize, 8, 500] {
                for (target_load, seed) in [(0.5f64, 1u64), (0.78, 2), (1.0, 3)] {
                    let rows = 64;
                    let mut packed =
                        CuckooFilter::with_max_kicks(rows, 4, fp_bits, seed, max_kicks);
                    let mut slice = SliceFilter::new(rows, 4, fp_bits, seed, max_kicks);
                    let mut rng = Rng::new(0x10C5_0000 ^ seed ^ (max_kicks as u64) << 8);
                    let mut live: Vec<u64> = Vec::new();
                    let cap = packed.capacity() as f64;
                    for step in 0..6000u32 {
                        let key = rng.next_below(4096);
                        let below = (packed.len() as f64) < target_load * cap;
                        let op = rng.next_below(10);
                        let ctx = format!("fp {fp_bits} kicks {max_kicks} seed {seed} step {step}");
                        if op == 0 && below {
                            // A batch, longer than one 16-key chunk at times.
                            let batch: Vec<u64> =
                                (0..=rng.next_below(20)).map(|i| key + i).collect();
                            packed.apply_all(true, batch.iter().copied());
                            for &k in &batch {
                                slice.insert(k);
                            }
                            live.extend(&batch);
                        } else if op < 6 && below {
                            assert_eq!(packed.insert(key), slice.insert(key), "insert {ctx}");
                            live.push(key);
                        } else if op == 6 && live.len() > 20 {
                            let batch: Vec<u64> = (0..=rng.next_below(20))
                                .map(|_| live.swap_remove(rng.index(live.len())))
                                .collect();
                            packed.apply_all(false, batch.iter().copied());
                            for &k in &batch {
                                slice.remove(k);
                            }
                        } else if op < 9 && !live.is_empty() {
                            let k = live.swap_remove(rng.index(live.len()));
                            assert_eq!(packed.remove(k), slice.remove(k), "remove {ctx}");
                        } else {
                            assert_eq!(packed.remove(key), slice.remove(key), "absent {ctx}");
                        }
                        assert_eq!(packed.contains(key), slice.contains(key), "probe {ctx}");
                        assert_eq!(packed.len(), slice.len, "len {ctx}");
                        assert_eq!(packed.dropped(), slice.dropped, "dropped {ctx}");
                    }
                    let lanes: Vec<u16> = packed
                        .buckets
                        .iter()
                        .flat_map(|&b| (0..4).map(move |k| (b >> (16 * k)) as u16))
                        .collect();
                    assert_eq!(lanes, slice.slots, "slots fp {fp_bits} kicks {max_kicks}");
                    for key in 0..8192u64 {
                        assert_eq!(packed.contains(key), slice.contains(key), "sweep {key}");
                    }
                    assert!(
                        target_load < 1.0 || packed.dropped() > 0,
                        "saturated run dropped nothing"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_copies_the_recorded_rows_and_the_kick_state() {
        // A small table so inserts kick; the replica follows `src` by
        // replay alone, and both must then take the same next packet
        // identically (same rows, same kick draws).
        let mut src = CuckooFilter::with_max_kicks(8, 4, 9, 5, 4);
        let mut replica = src.clone();
        let mut rng = Rng::new(0x5E9_1A7);
        for round in 0..300u64 {
            let insert = rng.next_below(3) != 0;
            let keys: Vec<u64> = (0..=rng.next_below(12))
                .map(|_| rng.next_below(90))
                .collect();
            src.apply_all(insert, keys.iter().copied());
            assert!(replica.replay(&src));
            assert_eq!(replica.buckets, src.buckets, "round {round}");
            assert_eq!(
                (replica.len, replica.dropped, replica.absent_removes),
                (src.len, src.dropped, src.absent_removes),
                "round {round}"
            );
            assert_eq!(
                replica.kick_rng.clone().next_u64(),
                src.kick_rng.clone().next_u64()
            );
        }
        assert!(src.dropped() > 0 && src.absent_removes() > 0);
        let other = CuckooFilter::with_max_kicks(8, 4, 9, 6, 4);
        assert!(!replica.replay(&other), "a different seed must not replay");
        assert_eq!(replica.buckets, src.buckets);
    }

    #[test]
    fn lane_tests_find_the_lowest_lane() {
        assert_eq!(first_zero_lane(0), Some(0));
        assert_eq!(first_zero_lane(0x0001_0000_FFFF_8000), Some(2));
        assert_eq!(first_zero_lane(0xFFFF_8000_0001_FFFF), None);
        // A zero lane's borrow may flag lanes above it, never below.
        assert_eq!(first_zero_lane(0x0001_0001_0000_0005), Some(1));
    }

    #[test]
    #[should_panic(expected = "packed 4-way")]
    fn non_four_way_geometry_is_rejected() {
        CuckooFilter::new(16, 2, 9, 1);
    }

    #[test]
    fn load_factor_tracks() {
        let mut f = CuckooFilter::new(16, 4, 9, 11);
        for k in 0..32u64 {
            f.insert(k);
        }
        assert!((f.load() - 0.5).abs() < 1e-12);
    }
}
