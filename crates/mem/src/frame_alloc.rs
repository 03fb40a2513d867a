//! Per-chiplet physical frame allocator.
//!
//! The GPU driver allocates local frames out of each chiplet's memory. The
//! Barre driver modification (paper §IV-G) needs three capabilities beyond
//! a plain allocator, all provided here:
//!
//! * query whether a *specific* frame is free (to find frames commonly
//!   available across sharer chiplets),
//! * claim a specific frame,
//! * find *contiguous* free runs (for contiguity-aware coalescing-group
//!   expansion, §V-B).

use barre_sim::Rng;

use crate::addr::LocalPfn;

/// A bitmap allocator over one chiplet's local frame space.
///
/// # Example
///
/// ```
/// use barre_mem::FrameAllocator;
/// use barre_mem::LocalPfn;
///
/// let mut a = FrameAllocator::new(1024);
/// let f = a.alloc_any().unwrap();
/// assert!(!a.is_free(f));
/// a.free(f);
/// assert!(a.is_free(f));
/// assert!(a.alloc_specific(LocalPfn(77)));
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    used: Vec<bool>,
    free_count: u64,
    cursor: usize,
}

impl FrameAllocator {
    /// Creates an allocator managing `frames` local frames, all free.
    pub fn new(frames: usize) -> Self {
        Self {
            used: vec![false; frames],
            free_count: frames as u64,
            cursor: 0,
        }
    }

    /// Total managed frames.
    pub fn capacity(&self) -> usize {
        self.used.len()
    }

    /// Currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_count
    }

    /// Currently allocated frames, counted from the bitmap (not the
    /// cached free counter) — the conservation sanitizer compares the
    /// two to catch accounting drift.
    pub fn allocated_frames(&self) -> u64 {
        self.used.iter().filter(|&&u| u).count() as u64
    }

    /// Whether `pfn` is in range and unallocated.
    pub fn is_free(&self, pfn: LocalPfn) -> bool {
        self.used.get(pfn.0 as usize).map(|&u| !u).unwrap_or(false)
    }

    /// Allocates any free frame (first-fit from a roving cursor, which
    /// spreads allocations like a real buddy-list head).
    pub fn alloc_any(&mut self) -> Option<LocalPfn> {
        if self.free_count == 0 {
            return None;
        }
        let n = self.used.len();
        for i in 0..n {
            let idx = (self.cursor + i) % n;
            if !self.used[idx] {
                self.used[idx] = true;
                self.free_count -= 1;
                self.cursor = (idx + 1) % n;
                return Some(LocalPfn(idx as u64));
            }
        }
        None
    }

    /// Claims a specific frame; returns `false` if it was taken or out of
    /// range.
    pub fn alloc_specific(&mut self, pfn: LocalPfn) -> bool {
        match self.used.get_mut(pfn.0 as usize) {
            Some(u) if !*u => {
                *u = true;
                self.free_count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Releases a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range or already free (double free).
    pub fn free(&mut self, pfn: LocalPfn) {
        let slot = self
            .used
            .get_mut(pfn.0 as usize)
            // barre:allow(P001) documented-panic API (see # Panics above)
            .expect("freeing out-of-range frame");
        assert!(*slot, "double free of {pfn}");
        *slot = false;
        self.free_count += 1;
    }

    /// Pre-occupies roughly `fraction` of the frames at random — used to
    /// model a fragmented memory and exercise the Barre driver's fallback
    /// and the expansion allocator's partial-run behaviour.
    pub fn fragment(&mut self, rng: &mut Rng, fraction: f64) {
        for i in 0..self.used.len() {
            if !self.used[i] && rng.chance(fraction) {
                self.used[i] = true;
                self.free_count -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut a = FrameAllocator::new(4);
        let mut got = Vec::new();
        while let Some(f) = a.alloc_any() {
            got.push(f.0);
        }
        assert_eq!(got.len(), 4);
        assert_eq!(a.free_frames(), 0);
        a.free(LocalPfn(2));
        assert_eq!(a.alloc_any(), Some(LocalPfn(2)));
    }

    #[test]
    fn alloc_specific_conflicts() {
        let mut a = FrameAllocator::new(8);
        assert!(a.alloc_specific(LocalPfn(5)));
        assert!(!a.alloc_specific(LocalPfn(5)));
        assert!(!a.alloc_specific(LocalPfn(100)));
        assert_eq!(a.free_frames(), 7);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(2);
        a.alloc_specific(LocalPfn(0));
        a.free(LocalPfn(0));
        a.free(LocalPfn(0));
    }

    #[test]
    fn fragment_reduces_free_frames() {
        let mut a = FrameAllocator::new(10_000);
        let mut rng = Rng::new(1);
        a.fragment(&mut rng, 0.3);
        let free = a.free_frames();
        assert!((6_000..8_000).contains(&free), "free={free}");
    }

    #[test]
    fn cursor_spreads_allocations() {
        let mut a = FrameAllocator::new(4);
        let f0 = a.alloc_any().unwrap();
        a.free(f0);
        // Next allocation does not immediately reuse the just-freed frame.
        assert_ne!(a.alloc_any(), Some(f0));
    }
}
