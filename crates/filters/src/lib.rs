//! Membership filters used for sharer prediction.
//!
//! F-Barre locates which GPU chiplet can translate a VPN by consulting one
//! *remote coalescing-group filter* (RCF) per peer and one *local
//! coalescing-group filter* (LCF) — all cuckoo filters, because sharer
//! prediction requires **deletion** (entries must leave the filter when the
//! backing TLB entry is evicted), which Bloom filters cannot do.
//!
//! * [`CuckooFilter`] — a from-scratch implementation of Fan et al.,
//!   *Cuckoo Filter: Practically Better than Bloom* (CoNEXT 2014), with the
//!   paper's Table II configuration (256 rows × 4 ways × 9-bit
//!   fingerprints) as the default.
//! * [`IdealFilter`] — an exact (100% true-positive, 0% false-positive)
//!   counting set, used to model the *Least* baseline's "ideal 1024-entry
//!   cuckoo filter" tracker and oracle sensitivity studies.

pub mod cuckoo;
pub mod ideal;

pub use cuckoo::{CuckooFilter, KeyHash};
pub use ideal::IdealFilter;

/// Common interface of sharer-prediction filters.
///
/// Object-safe so the system model can switch between real and ideal
/// filters at run time.
pub trait Filter {
    /// Inserts a key. Returns `false` if the filter had to drop the item
    /// (cuckoo insertion failure on an over-full table).
    fn insert(&mut self, key: u64) -> bool;

    /// Removes one copy of a key. Returns `false` if no copy was present.
    fn remove(&mut self, key: u64) -> bool;

    /// Whether the key may be present (subject to false positives).
    fn contains(&self, key: u64) -> bool;

    /// Number of stored fingerprints/items.
    fn len(&self) -> usize;

    /// Whether the filter is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
