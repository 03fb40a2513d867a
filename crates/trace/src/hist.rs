//! HDR-style log-bucketed latency histogram with *fixed* bucket
//! boundaries, so serialized output is byte-stable across runs, hosts,
//! and thread counts.
//!
//! The bucket layout uses 3 bits of sub-bucket resolution per power of
//! two (relative quantization error ≤ 1/8 = 12.5%):
//!
//! * values `0..8` land in their own exact bucket (indices `0..8`);
//! * for `v ≥ 8`, the bucket index is derived from the position of the
//!   most significant bit and the next three bits below it, giving
//!   8 sub-buckets per octave.
//!
//! The full `u64` range maps onto exactly [`BUCKETS`] buckets, so the
//! boundary table is a pure function of the index — nothing about it
//! depends on the data, which is what makes snapshots byte-stable.

/// Sub-bucket resolution bits per power of two.
pub const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Total number of buckets covering the whole `u64` range.
pub const BUCKETS: usize = 496;

/// Bucket index of `value` (total order, contiguous, zero-based).
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as u64;
    let shift = msb - SUB_BITS as u64;
    let top = value >> shift; // in [SUB_COUNT, 2*SUB_COUNT)
    (shift as usize + 1) * SUB_COUNT as usize + (top - SUB_COUNT) as usize
}

/// Smallest value mapping to bucket `index`.
pub fn bucket_lower(index: usize) -> u64 {
    if index < SUB_COUNT as usize {
        return index as u64;
    }
    let shift = (index - SUB_COUNT as usize) / SUB_COUNT as usize;
    let pos = ((index - SUB_COUNT as usize) % SUB_COUNT as usize) as u64;
    (SUB_COUNT + pos) << shift
}

/// Largest value mapping to bucket `index` (inclusive).
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

/// A fixed-boundary log-bucketed histogram for stage latencies.
///
/// Tracks exact `count`, `sum` (u128, overflow-proof over any run
/// length), `min`, and `max` alongside the bucket counts; quantiles are
/// answered from bucket upper bounds, so they are deterministic and at
/// most one sub-bucket (12.5%) above the true value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (in sim cycles).
    pub fn record(&mut self, value: u64) {
        let b = bucket_index(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        if let Some(c) = self.counts.get_mut(b) {
            *c = c.saturating_add(1);
        }
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value as u128);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Deterministic quantile estimate: the upper boundary of the bucket
    /// holding the sample of rank `ceil(q * count)`. Exact for values
    /// below [`SUB_COUNT`]; otherwise at most 12.5% above the true value.
    /// `q` is clamped to `[0, 1]`; returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil without floating error at the boundaries we care about.
        let mut rank = (q * self.count as f64).ceil() as u64;
        rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                // Never report beyond the observed maximum.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self` (used by `barre merge` and the report
    /// aggregator). Bucket-wise saturating addition; min/max widen.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst = dst.saturating_add(src);
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        self.max = self.max.max(other.max);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// `(bucket_index, count)` pairs for nonempty buckets, in index order.
    pub fn nonempty(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Rebuilds a histogram from serialized `(bucket_index, count)` pairs
    /// plus the exact aggregates. Out-of-range indices are ignored;
    /// `count` is recomputed from the pairs so the result is always
    /// internally consistent.
    pub fn from_parts(pairs: &[(usize, u64)], sum: u128, min: u64, max: u64) -> Self {
        let mut h = Self {
            sum,
            min,
            max,
            ..Self::default()
        };
        for &(i, c) in pairs {
            if i >= BUCKETS || c == 0 {
                continue;
            }
            if h.counts.len() <= i {
                h.counts.resize(i + 1, 0);
            }
            if let Some(slot) = h.counts.get_mut(i) {
                *slot = slot.saturating_add(c);
            }
            h.count = h.count.saturating_add(c);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn boundaries_are_contiguous_and_monotonic() {
        for i in 1..BUCKETS {
            assert!(bucket_lower(i) > bucket_lower(i - 1), "bucket {i}");
            assert_eq!(bucket_upper(i - 1) + 1, bucket_lower(i), "bucket {i}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn every_value_lands_inside_its_bucket() {
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            255,
            256,
            1000,
            65_535,
            65_536,
            1 << 40,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let b = bucket_index(v);
            assert!(b < BUCKETS, "{v} -> {b}");
            assert!(bucket_lower(b) <= v && v <= bucket_upper(b), "{v} -> {b}");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[100u64, 999, 12_345, 1 << 33] {
            let b = bucket_index(v);
            let upper = bucket_upper(b);
            assert!((upper - v) as f64 / v as f64 <= 0.125, "{v} vs {upper}");
        }
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        let p50 = h.p50();
        assert!((50..=64).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((99..=112).contains(&p99), "p99={p99}");
        // Quantiles never exceed the observed max.
        assert!(h.quantile(1.0) <= 100);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [3u64, 9, 1000, 12] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 500_000, 77] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 5, 8, 300, 1 << 20] {
            h.record(v);
        }
        let pairs: Vec<_> = h.nonempty().collect();
        let back = LatencyHistogram::from_parts(&pairs, h.sum(), h.min(), h.max());
        assert_eq!(h, back);
    }
}
