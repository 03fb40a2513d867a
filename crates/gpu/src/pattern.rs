//! The access-stream abstraction.
//!
//! A CTA's execution, for translation purposes, is its sequence of
//! *warp-level memory instructions*. Each instruction carries up to 32
//! lane addresses: a coalesced stream touches one or two pages per
//! instruction, while an uncoalesced gather (SpMV columns, GUPS updates)
//! touches up to 32 distinct pages — which is how Table I reaches
//! thousands of L2 TLB misses *per kilo warp instruction*.
//!
//! Workload kernels implement [`AccessPattern`]; the system model pulls
//! one warp instruction at a time as warp slots free up, written in place
//! into a buffer it reuses, so issuing a warp neither allocates nor copies
//! its lanes.

use barre_mem::VirtAddr;

/// Lanes per warp (GCN3 wavefront size is 64; the translation behaviour
/// the paper models uses 32-lane warp instructions, which we follow).
pub const WARP_LANES: usize = 32;

/// The lane addresses of one warp instruction: at most [`WARP_LANES`],
/// stored inline so issuing a warp never touches the heap. Reads as a
/// slice of [`VirtAddr`].
#[derive(Clone)]
pub struct Lanes {
    len: u8,
    addrs: [VirtAddr; WARP_LANES],
}

impl Lanes {
    /// No lanes.
    pub const fn new() -> Self {
        Self {
            len: 0,
            addrs: [VirtAddr(0); WARP_LANES],
        }
    }

    /// Appends a lane; a lane beyond the [`WARP_LANES`]th is dropped, as
    /// a warp has no lane to carry it.
    pub fn push(&mut self, addr: VirtAddr) {
        if let Some(slot) = self.addrs.get_mut(self.len as usize) {
            *slot = addr;
            self.len += 1;
        }
    }

    /// Drops every lane.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The lanes as a slice.
    pub fn as_slice(&self) -> &[VirtAddr] {
        &self.addrs[..self.len as usize]
    }
}

impl Default for Lanes {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Lanes {
    type Target = [VirtAddr];

    fn deref(&self) -> &[VirtAddr] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Lanes {
    type Item = &'a VirtAddr;
    type IntoIter = std::slice::Iter<'a, VirtAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl Extend<VirtAddr> for Lanes {
    /// Appends lanes up to [`WARP_LANES`] in all (see [`Lanes::push`]).
    fn extend<I: IntoIterator<Item = VirtAddr>>(&mut self, iter: I) {
        let room = WARP_LANES - self.len as usize;
        for a in iter.into_iter().take(room) {
            self.push(a);
        }
    }
}

impl PartialEq for Lanes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Lanes {}

impl std::fmt::Debug for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// One warp-level memory instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarpAccess {
    /// Lane byte addresses (1..=32; coalesced patterns may carry fewer
    /// representative addresses when all lanes share a page run).
    pub addrs: Lanes,
    /// Whether the instruction writes.
    pub write: bool,
}

impl WarpAccess {
    /// A fully-coalesced read: `lanes` consecutive `elem_bytes` elements
    /// from `base`.
    pub fn coalesced(base: VirtAddr, lanes: usize, elem_bytes: u64) -> Self {
        // A coalesced warp touches a contiguous block; representative
        // addresses at the block's first and last byte cover every page
        // the hardware would translate.
        let last = base.0 + (lanes.max(1) as u64 * elem_bytes).saturating_sub(1);
        let mut addrs = Lanes::new();
        addrs.push(base);
        if last != base.0 {
            addrs.push(VirtAddr(last));
        }
        Self {
            addrs,
            write: false,
        }
    }

    /// Replaces the instruction with `lanes` and `write`.
    pub fn set(&mut self, lanes: impl IntoIterator<Item = VirtAddr>, write: bool) {
        self.addrs.clear();
        self.addrs.extend(lanes);
        self.write = write;
    }
}

/// A finite stream of warp-level memory instructions.
///
/// Implementations must be deterministic: the same constructed pattern
/// yields the same stream.
pub trait AccessPattern {
    /// Writes the next warp instruction over `out` and returns `true`,
    /// or returns `false` (leaving `out` as it was) when the CTA has
    /// finished.
    fn next_into(&mut self, out: &mut WarpAccess) -> bool;

    /// The next warp instruction, or `None` when the CTA has finished.
    fn next_warp(&mut self) -> Option<WarpAccess> {
        let mut w = WarpAccess::default();
        self.next_into(&mut w).then_some(w)
    }

    /// Warp-level instructions executed per memory instruction (including
    /// the access itself) — the MPKI denominator. Default 10.
    fn insns_per_access(&self) -> u64 {
        10
    }
}

/// A simple coalesced linear sweep over a byte range — used by tests and
/// the quickstart example.
#[derive(Debug, Clone)]
pub struct LinearSweep {
    next: u64,
    end: u64,
    warp_bytes: u64,
    insns: u64,
}

impl LinearSweep {
    /// Sweeps `[start, end)`, one 32-lane × 8-byte (256 B) coalesced warp
    /// access at a time.
    pub fn new(start: VirtAddr, end: VirtAddr) -> Self {
        Self {
            next: start.0,
            end: end.0,
            warp_bytes: (WARP_LANES * 8) as u64,
            insns: 10,
        }
    }
}

impl AccessPattern for LinearSweep {
    fn next_into(&mut self, out: &mut WarpAccess) -> bool {
        if self.next >= self.end {
            return false;
        }
        let bytes = self.warp_bytes.min(self.end - self.next);
        *out = WarpAccess::coalesced(VirtAddr(self.next), WARP_LANES, bytes / WARP_LANES as u64);
        self.next += self.warp_bytes;
        true
    }

    fn insns_per_access(&self) -> u64 {
        self.insns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_access_spans_block() {
        let a = WarpAccess::coalesced(VirtAddr(0x1000), 32, 8);
        assert_eq!(a.addrs[0], VirtAddr(0x1000));
        assert_eq!(a.addrs[1], VirtAddr(0x10FF));
        assert!(!a.write);
    }

    #[test]
    fn linear_sweep_covers_range() {
        let mut p = LinearSweep::new(VirtAddr(0), VirtAddr(512));
        let firsts: Vec<u64> = std::iter::from_fn(|| p.next_warp())
            .map(|a| a.addrs[0].0)
            .collect();
        assert_eq!(firsts, vec![0, 256]);
    }

    #[test]
    fn lanes_hold_at_most_a_warp_and_compare_by_their_live_prefix() {
        let mut w = WarpAccess::default();
        w.set((0..40).map(VirtAddr), false);
        assert_eq!(w.addrs.len(), WARP_LANES);
        assert_eq!(w.addrs.last(), Some(&VirtAddr(31)));
        // A reused instruction keeps stale lanes past its length; they
        // must not count.
        w.set([VirtAddr(3)], true);
        let mut fresh = Lanes::new();
        fresh.push(VirtAddr(3));
        assert_eq!(w.addrs, fresh);
        assert_ne!(w.addrs, Lanes::new());
        assert!(w.write);
        assert_eq!(format!("{:?}", w.addrs), format!("{:?}", [VirtAddr(3)]));
    }

    #[test]
    fn single_lane_access() {
        let a = WarpAccess::coalesced(VirtAddr(8), 1, 8);
        assert_eq!(a.addrs.len(), 2);
        assert_eq!(a.addrs[1], VirtAddr(15));
    }
}
