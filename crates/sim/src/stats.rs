//! Statistics primitives used by every component of the model.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use barre_sim::Counter;
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A hit/total ratio (TLB hit rates, filter hit rates, coalescing rates).
///
/// # Example
///
/// ```
/// use barre_sim::RatioStat;
/// let mut r = RatioStat::default();
/// r.record(true);
/// r.record(false);
/// assert_eq!(r.rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RatioStat {
    hits: u64,
    total: u64,
}

impl RatioStat {
    /// Creates a zeroed ratio.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Numerator.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Denominator.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Hit fraction in `[0, 1]`; 0 when empty.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

impl fmt::Display for RatioStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.1}%)",
            self.hits,
            self.total,
            self.rate() * 100.0
        )
    }
}

/// A power-of-two-bucketed histogram for latencies and VPN gaps
/// (Fig 5 uses this to plot the gap distribution of consecutive IOMMU
/// requests).
///
/// Bucket 0 counts zeros and ones; bucket `i ≥ 1` counts samples in
/// `[2^i, 2^(i+1))`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        if let Some(c) = self.buckets.get_mut(b) {
            *c += 1;
        }
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            (64 - value.leading_zeros()) as usize - 1
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Total of all samples (exact, in u128 to survive long runs).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The raw bucket counts, including empty buckets (bucket 0 counts
    /// zeros and ones; bucket `i ≥ 1` counts samples in `[2^i, 2^(i+1))`).
    /// Together with [`Histogram::count`], [`Histogram::sum`] and
    /// [`Histogram::max`] this is the histogram's full state, which the
    /// run journal serializes so a resumed sweep reproduces metrics
    /// byte-identically.
    pub fn raw_buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Rebuilds a histogram from its serialized state (the inverse of
    /// reading [`Histogram::raw_buckets`] / [`Histogram::count`] /
    /// [`Histogram::sum`] / [`Histogram::max`]). The caller is trusted to
    /// pass values that came from a real histogram; no cross-field
    /// consistency is enforced.
    pub fn from_raw(buckets: Vec<u64>, count: u64, sum: u128, max: u64) -> Self {
        Self {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// `(largest value the bucket holds, count)` pairs for nonempty
    /// buckets: bucket `i` is labelled `2^(i+1) − 1`, so every sample it
    /// counts is `≤` its label.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::upper_bound(i), c))
    }

    /// The largest value bucket `i` holds, `2^(i+1) − 1`.
    fn upper_bound(i: usize) -> u64 {
        u64::MAX >> (63 - i.min(63))
    }

    /// Fraction of samples known to be `≤ value`: the buckets whose whole
    /// range lies at or below it. Exact when `value` is a bucket label
    /// (`2^k − 1`); otherwise a lower bound, since the bucket holding
    /// `value` also holds larger samples.
    pub fn fraction_le(&self, value: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let below: u64 = self
            .buckets
            .iter()
            .enumerate()
            .take_while(|&(i, _)| Self::upper_bound(i) <= value)
            .map(|(_, &c)| c)
            .sum();
        below as f64 / self.count as f64
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} max={}",
            self.count,
            self.mean(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.to_string(), "42");
    }

    #[test]
    fn ratio_empty_is_zero() {
        assert_eq!(RatioStat::new().rate(), 0.0);
    }

    #[test]
    fn ratio_tracks_hits() {
        let mut r = RatioStat::new();
        for i in 0..10 {
            r.record(i % 4 == 0);
        }
        assert_eq!(r.hits(), 3);
        assert_eq!(r.total(), 10);
        assert!((r.rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let b: Vec<_> = h.buckets().collect();
        assert_eq!(b, vec![(1, 2), (3, 2), (2047, 1)]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
    }

    #[test]
    fn histogram_labels_bound_their_samples() {
        for k in 2..63u32 {
            let p = 1u64 << k;
            let mut h = Histogram::new();
            for v in [p - 1, p, p + 1] {
                h.record(v);
            }
            // 2^k − 1 closes bucket k−1; 2^k and 2^k + 1 open bucket k.
            let b: Vec<_> = h.buckets().collect();
            assert_eq!(b, vec![(p - 1, 1), (2 * p - 1, 2)], "k={k}");
            assert_eq!(h.fraction_le(p - 2), 0.0, "k={k}");
            assert!((h.fraction_le(p - 1) - 1.0 / 3.0).abs() < 1e-12, "k={k}");
            assert!((h.fraction_le(p) - 1.0 / 3.0).abs() < 1e-12, "k={k}");
            assert!((h.fraction_le(p + 1) - 1.0 / 3.0).abs() < 1e-12, "k={k}");
            assert_eq!(h.fraction_le(2 * p - 1), 1.0, "k={k}");
        }
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.buckets().collect::<Vec<_>>(), vec![(u64::MAX, 1)]);
        assert_eq!(top.fraction_le(u64::MAX), 1.0);
    }

    #[test]
    fn histogram_mean_and_fraction() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 1, 1000] {
            h.record(v);
        }
        assert!((h.mean() - 250.75).abs() < 1e-9);
        assert_eq!(h.fraction_le(1), 0.75);
        assert_eq!(h.fraction_le(1000), 0.75);
        assert_eq!(h.fraction_le(1023), 1.0);
    }

    #[test]
    fn histogram_empty_display() {
        let h = Histogram::new();
        assert_eq!(h.to_string(), "n=0 mean=0.0 max=0");
    }
}
