//! TLB structures for the MCM-GPU model.
//!
//! * [`Tlb`] — a generic set-associative, LRU translation cache with an
//!   arbitrary per-entry payload. The GPU model instantiates it as the
//!   per-CU L1 TLB (64 entries, fully associative) and the chiplet-shared
//!   L2 TLB (512 entries, 16-way). The payload carries the PFN plus, under
//!   F-Barre, the coalescing information returned in the ATS response.
//!   A fully-associative TLB is a hash index plus a recency list, so its
//!   operations are O(1) at any size.
//! * [`MshrFile`] — miss-status holding registers with same-key merging,
//!   whose waiter lists thread through the caller's records;
//!   Fig 4's MSHR sensitivity study scales its capacity.

pub mod mshr;
pub mod tlb;

pub use mshr::{MshrFile, MshrOutcome, WaiterLinks, Waiters};
pub use tlb::{Tlb, TlbKey};
