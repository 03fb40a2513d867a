//! Miss-status holding registers.
//!
//! An MSHR file tracks outstanding misses and merges duplicate requests for
//! the same key, so one in-flight translation serves every waiting warp.
//! The L2 TLB's 16 MSHRs (Table II) bound how many distinct translations a
//! chiplet can have outstanding — Fig 4 shows that scaling this number
//! barely helps, which is the paper's argument that the bottleneck is
//! translation *processing*, not miss *tracking*.
//!
//! Waiters are `u32` ids of records the caller owns (the machine's page
//! requests). Each register keeps the head and tail of a list threaded
//! through those records' link fields ([`WaiterLinks`]), so merging a
//! waiter and completing a register allocate nothing.

/// End of a waiter list.
const NIL: u32 = u32::MAX;

/// Result of trying to allocate an MSHR for a missing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss for this key: caller must issue the downstream request.
    Primary,
    /// Another miss for an already-pending key: merged, no new request.
    Merged,
    /// No MSHR available: the requester must stall and retry.
    Full,
}

/// The caller's waiter records, each with one `u32` link field that the
/// MSHR file owns while the record waits in a register.
pub trait WaiterLinks {
    /// The link field of waiter `w`.
    fn link(&mut self, w: u32) -> &mut u32;
}

/// A plain link array, indexed by waiter id.
impl WaiterLinks for [u32] {
    fn link(&mut self, w: u32) -> &mut u32 {
        &mut self[w as usize]
    }
}

/// The waiters of a completed register, in merge order. Their links stay
/// valid until a waiter is merged into a register again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiters {
    next: u32,
}

impl Waiters {
    /// The next waiter, or `None` when the list is exhausted.
    pub fn next(&mut self, links: &mut (impl WaiterLinks + ?Sized)) -> Option<u32> {
        let w = self.next;
        if w == NIL {
            return None;
        }
        self.next = *links.link(w);
        Some(w)
    }
}

#[derive(Debug, Clone)]
struct Register<K> {
    key: K,
    head: u32,
    tail: u32,
}

/// An MSHR file keyed by `K`.
///
/// # Example
///
/// ```
/// use barre_tlb::{MshrFile, MshrOutcome};
///
/// let mut links = vec![0u32; 4]; // one link per waiter id
/// let mut m: MshrFile<u64> = MshrFile::new(2);
/// assert_eq!(m.allocate(7, Some(2), &mut links[..]), MshrOutcome::Primary);
/// assert_eq!(m.allocate(7, Some(0), &mut links[..]), MshrOutcome::Merged);
/// let mut w = m.complete(7);
/// assert_eq!(w.next(&mut links[..]), Some(2));
/// assert_eq!(w.next(&mut links[..]), Some(0));
/// assert_eq!(w.next(&mut links[..]), None);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile<K> {
    entries: Vec<Register<K>>,
    capacity: usize,
    merges: u64,
    stalls: u64,
    peak: usize,
}

impl<K: PartialEq + Copy> MshrFile<K> {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one register");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            merges: 0,
            stalls: 0,
            peak: 0,
        }
    }

    /// Registers a miss on `key`. `waiter` (`None` for a miss nobody
    /// waits on, such as a prefetch) joins the end of the key's list.
    pub fn allocate(
        &mut self,
        key: K,
        waiter: Option<u32>,
        links: &mut (impl WaiterLinks + ?Sized),
    ) -> MshrOutcome {
        if let Some(r) = self.entries.iter_mut().find(|r| r.key == key) {
            if let Some(w) = waiter {
                *links.link(w) = NIL;
                match r.tail {
                    NIL => r.head = w,
                    t => *links.link(t) = w,
                }
                r.tail = w;
            }
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() == self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        let w = waiter.unwrap_or(NIL);
        if w != NIL {
            *links.link(w) = NIL;
        }
        self.entries.push(Register {
            key,
            head: w,
            tail: w,
        });
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::Primary
    }

    /// Whether `key` has an in-flight miss.
    pub fn is_pending(&self, key: K) -> bool {
        self.entries.iter().any(|r| r.key == key)
    }

    /// Completes the miss on `key`, handing back its waiters in merge
    /// order (none if the key was not pending).
    pub fn complete(&mut self, key: K) -> Waiters {
        let next = match self.entries.iter().position(|r| r.key == key) {
            Some(i) => self.entries.swap_remove(i).head,
            None => NIL,
        };
        Waiters { next }
    }

    /// Registers currently in use.
    pub fn in_use(&self) -> usize {
        self.entries.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Misses merged into an existing register.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Allocation attempts rejected because the file was full.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Peak simultaneous occupancy.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut w: Waiters, links: &mut [u32]) -> Vec<u32> {
        std::iter::from_fn(|| w.next(links)).collect()
    }

    #[test]
    fn primary_then_merge() {
        let mut links = [0u32; 8];
        let mut m: MshrFile<u32> = MshrFile::new(4);
        assert_eq!(m.allocate(1, Some(5), &mut links[..]), MshrOutcome::Primary);
        assert_eq!(m.allocate(1, Some(3), &mut links[..]), MshrOutcome::Merged);
        assert_eq!(m.allocate(2, Some(7), &mut links[..]), MshrOutcome::Primary);
        assert!(m.is_pending(1));
        assert_eq!(m.merges(), 1);
        assert_eq!(drain(m.complete(1), &mut links), vec![5, 3]);
        assert!(!m.is_pending(1));
        assert_eq!(m.in_use(), 1);
        assert_eq!(drain(m.complete(2), &mut links), vec![7]);
    }

    #[test]
    fn waiters_come_back_in_merge_order_and_ids_are_reusable() {
        let mut links = [0u32; 8];
        let mut m: MshrFile<u32> = MshrFile::new(2);
        // A prefetch register: no waiter until demand misses merge in.
        assert_eq!(m.allocate(9, None, &mut links[..]), MshrOutcome::Primary);
        for w in [4, 0, 6, 2] {
            assert_eq!(m.allocate(9, Some(w), &mut links[..]), MshrOutcome::Merged);
        }
        assert_eq!(drain(m.complete(9), &mut links), vec![4, 0, 6, 2]);
        // The same ids wait again, on two keys at once.
        m.allocate(1, Some(6), &mut links[..]);
        m.allocate(2, Some(4), &mut links[..]);
        m.allocate(1, Some(0), &mut links[..]);
        m.allocate(2, Some(2), &mut links[..]);
        assert_eq!(drain(m.complete(2), &mut links), vec![4, 2]);
        assert_eq!(drain(m.complete(1), &mut links), vec![6, 0]);
    }

    #[test]
    fn full_rejects_new_keys_but_merges_existing() {
        let mut links = [0u32; 4];
        let mut m: MshrFile<u32> = MshrFile::new(1);
        assert_eq!(m.allocate(1, Some(0), &mut links[..]), MshrOutcome::Primary);
        assert_eq!(m.allocate(2, Some(1), &mut links[..]), MshrOutcome::Full);
        assert_eq!(m.allocate(1, Some(1), &mut links[..]), MshrOutcome::Merged);
        assert_eq!(m.stalls(), 1);
        assert_eq!(m.in_use(), m.capacity());
    }

    #[test]
    fn complete_unknown_is_empty() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(drain(m.complete(9), &mut []), Vec::<u32>::new());
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut m: MshrFile<u32> = MshrFile::new(8);
        for k in 0..5 {
            m.allocate(k, None, &mut [][..]);
        }
        m.complete(0);
        m.complete(1);
        assert_eq!(m.peak(), 5);
        assert_eq!(m.in_use(), 3);
    }
}
