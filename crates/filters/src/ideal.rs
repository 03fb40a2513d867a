//! Exact counting-set filter.
//!
//! The *Least* baseline is modeled per the paper's §VII-A: "implemented by
//! applying an ideal 1024-entry cuckoo filter (100% true positive) as the
//! local TLB tracker". [`IdealFilter`] provides that: exact membership with
//! multiplicity, optionally capacity-bounded.

use std::collections::BTreeMap;

use crate::Filter;

/// An exact multiset filter with optional capacity.
///
/// When a capacity is set and reached, further inserts are dropped (the
/// tracker simply stops covering new entries, as a full filter would).
///
/// # Example
///
/// ```
/// use barre_filters::{Filter, IdealFilter};
///
/// let mut f = IdealFilter::unbounded();
/// f.insert(7);
/// f.insert(7);
/// f.remove(7);
/// assert!(f.contains(7)); // one copy remains
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdealFilter {
    counts: BTreeMap<u64, u32>,
    len: usize,
    capacity: Option<usize>,
    dropped: u64,
}

impl IdealFilter {
    /// An exact filter with no capacity bound.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// An exact filter that drops inserts beyond `capacity` stored items.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Items dropped because the filter was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Filter for IdealFilter {
    fn insert(&mut self, key: u64) -> bool {
        if let Some(cap) = self.capacity {
            if self.len >= cap {
                self.dropped += 1;
                return false;
            }
        }
        *self.counts.entry(key).or_insert(0) += 1;
        self.len += 1;
        true
    }

    fn remove(&mut self, key: u64) -> bool {
        match self.counts.get_mut(&key) {
            Some(c) => {
                *c -= 1;
                if *c == 0 {
                    self.counts.remove(&key);
                }
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.counts.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_membership() {
        let mut f = IdealFilter::unbounded();
        f.insert(1);
        assert!(f.contains(1));
        assert!(!f.contains(2));
        assert!(f.remove(1));
        assert!(!f.contains(1));
        assert!(!f.remove(1));
    }

    #[test]
    fn multiset_semantics() {
        let mut f = IdealFilter::unbounded();
        f.insert(5);
        f.insert(5);
        assert_eq!(f.len(), 2);
        f.remove(5);
        assert!(f.contains(5));
        f.remove(5);
        assert!(!f.contains(5));
    }

    #[test]
    fn capacity_drops() {
        let mut f = IdealFilter::with_capacity(2);
        assert!(f.insert(1));
        assert!(f.insert(2));
        assert!(!f.insert(3));
        assert_eq!(f.dropped(), 1);
        f.remove(1);
        assert!(f.insert(3));
    }
}
