//! The central event queue.
//!
//! A bucketed calendar queue keyed by `(cycle, sequence)`. The sequence
//! number breaks ties between events scheduled for the same cycle in
//! insertion order, which keeps the whole simulation deterministic
//! regardless of the queue's internal layout.
//!
//! # Why a calendar queue
//!
//! The previous implementation was a `BinaryHeap`; every push/pop paid
//! `O(log n)` pointer-chasing sift costs on the hottest loop in the
//! simulator. Almost every event the machine schedules lands a small,
//! bounded number of cycles in the future (TLB latencies, link
//! serialization, MSHR retries), so a calendar queue — a ring of
//! per-cycle buckets — turns the common case into a tail append and a
//! head pop on a short list.
//!
//! Layout:
//!
//! * Every pending event lives in one **node slab**: a `Vec` of
//!   `{at, seq, next, ev}` nodes with a free list threaded through
//!   `next`. A popped node's slot is reused by the next push, so the
//!   slab's length is the run's peak pending-event count, and the queue's
//!   memory follows pending events, not the wheel size.
//! * The **wheel** is an array of 8-byte `(head, tail)` slot indices:
//!   `wheel[c & mask]` is a singly linked list of every event whose
//!   cycle is within the wheel horizon, sorted by `(cycle, seq)`.
//!   Distinct cycles in one bucket differ by multiples of the wheel
//!   size, so the sort degenerates to a tail append for in-horizon
//!   pushes; an out-of-order push walks the (short) list.
//! * Events beyond the horizon keep their node in the slab and wait as a
//!   `(cycle, seq, slot)` key in a small overflow min-heap; they are
//!   re-linked into the wheel as the cursor approaches them. A payload
//!   is written once at push and moved once at pop.
//! * An **occupancy bitmap** holds one bit per bucket, set while the
//!   bucket is non-empty (8 KiB at the 65,536-bucket cap). `pop` finds
//!   the next non-empty bucket at or after the cycle cursor from the
//!   bitmap, 64 buckets per word, instead of stepping through every empty
//!   cycle. A bucket whose head is a whole revolution (or more) ahead is
//!   skipped; after a full fruitless revolution the cursor jumps straight
//!   to the global minimum (sparse endgames).
//!
//! Pop order is byte-identical to the old heap: strictly nondecreasing
//! `(cycle, seq)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Default number of wheel buckets. Power of two; covers every
/// small-latency event the machine model schedules (TLB/link/DRAM/retry
/// delays are all well under this many cycles).
const DEFAULT_BUCKETS: usize = 4096;

/// Upper bound on adaptive wheel growth. A bucket is an 8-byte
/// `(head, tail)` pair, so 65536 buckets cost 512 KiB whatever the
/// payload size; past that, the O(buckets) sparse-jump scan outweighs
/// saving heap hops for truly far-future events.
const MAX_BUCKETS: usize = 1 << 16;

/// Overflow-heap population that triggers a wheel resize. Growth is only
/// worth a rebuild when the heap is taking sustained traffic, not for a
/// handful of stragglers.
const GROW_PRESSURE: usize = 64;

/// End-of-list marker for slot links.
const NIL: u32 = u32::MAX;

/// A deterministic min-queue of timestamped events.
///
/// Events popped in nondecreasing cycle order; events pushed for the same
/// cycle come out in the order they were pushed (FIFO tie-breaking).
///
/// # Example
///
/// ```
/// use barre_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(3, "b");
/// q.push(3, "c");
/// q.push(1, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
/// assert_eq!(order, vec![(1, "a"), (3, "b"), (3, "c")]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Storage for every pending event, wheel and overflow alike.
    nodes: Vec<Node<E>>,
    /// Head of the free-slot list, threaded through `Node::next`.
    free: u32,
    /// The wheel: bucket `i` links the nodes with `at & mask == i`,
    /// sorted by `(at, seq)`.
    wheel: Vec<Bucket>,
    /// `wheel.len() - 1`; bucket count is a power of two.
    mask: u64,
    /// Bit `i % 64` of word `i / 64` is set while bucket `i` is non-empty.
    occupied: Vec<u64>,
    /// `(at, seq, slot)` of events at or beyond the wheel horizon
    /// (`cur + wheel.len()`).
    overflow: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    /// Next cycle the pop scan inspects (≤ every pending event's cycle).
    cur: Cycle,
    /// Pending events across wheel and overflow.
    len: usize,
    seq: u64,
    popped: u64,
    /// Pushes that bypassed the wheel into the overflow heap.
    spills: u64,
    /// Overflow events re-binned into the wheel as the cursor advanced.
    rebins: u64,
    /// Adaptive wheel resizes performed.
    growths: u64,
    /// Largest `at - cur` gap observed at push time — the workload's
    /// observed event horizon, which adaptive growth sizes the wheel to.
    max_gap: u64,
}

#[derive(Debug)]
struct Node<E> {
    at: Cycle,
    seq: u64,
    /// Next slot in this node's bucket list, or in the free list.
    next: u32,
    /// `None` exactly while the slot is on the free list.
    ev: Option<E>,
}

/// One wheel bucket: the first and last slot of its sorted list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default wheel size.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates an empty queue sized for roughly `pending_hint`
    /// simultaneously scheduled events (a workload-derived capacity
    /// hint). The hint reserves the node slab, so the warm-up phase does
    /// not reallocate it one doubling at a time.
    pub fn with_capacity(pending_hint: usize) -> Self {
        let mut q = Self::with_buckets(DEFAULT_BUCKETS);
        q.nodes.reserve(pending_hint);
        q
    }

    fn with_buckets(n: usize) -> Self {
        let n = n.next_power_of_two().max(2);
        Self {
            nodes: Vec::new(),
            free: NIL,
            wheel: vec![Bucket::EMPTY; n],
            mask: (n - 1) as u64,
            occupied: vec![0; n.div_ceil(64)],
            overflow: BinaryHeap::new(),
            cur: 0,
            len: 0,
            seq: 0,
            popped: 0,
            spills: 0,
            rebins: 0,
            growths: 0,
            max_gap: 0,
        }
    }

    /// Cycle at or beyond which a push bypasses the wheel.
    fn horizon(&self) -> Cycle {
        self.cur.saturating_add(self.wheel.len() as u64)
    }

    /// Schedules `ev` to fire at absolute cycle `at`.
    pub fn push(&mut self, at: Cycle, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        // Pushing into the past is legal for a generic queue: rewind the
        // scan cursor so the event is still found (the simulator itself
        // only ever schedules at or after `now`).
        if at < self.cur {
            self.cur = at;
        }
        let slot = self.alloc(Node {
            at,
            seq,
            next: NIL,
            ev: Some(ev),
        });
        self.len += 1;
        if at >= self.horizon() {
            self.spills += 1;
            self.max_gap = self.max_gap.max(at - self.cur);
            self.overflow.push(Reverse((at, seq, slot)));
            // Adaptive sizing: sustained overflow pressure means the
            // wheel is too small for this workload's event horizon —
            // grow it toward the largest gap seen (capped), so future
            // pushes at that distance bin in O(1) instead of heaping.
            if self.overflow.len() >= GROW_PRESSURE && self.wheel.len() < MAX_BUCKETS {
                self.grow_wheel();
            }
        } else {
            self.link(slot);
        }
    }

    /// Stores `node` in a free slot (or a new one) and returns the slot.
    fn alloc(&mut self, node: Node<E>) -> u32 {
        let slot = self.free;
        match self.nodes.get_mut(slot as usize) {
            Some(free) => {
                self.free = free.next;
                *free = node;
                slot
            }
            None => {
                // A slot index never reaches `NIL`: that would take 2^32
                // simultaneously pending events.
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Rebuilds the wheel at a larger size chosen from the observed event
    /// horizon. Every node keeps its `(at, seq)` key and every bucket
    /// stays sorted, so pop order is unaffected — only the bucket an
    /// event is linked into changes. No payload moves.
    fn grow_wheel(&mut self) {
        let target = usize::try_from(self.max_gap.saturating_add(1))
            .unwrap_or(MAX_BUCKETS)
            .next_power_of_two()
            .clamp(self.wheel.len().saturating_mul(2), MAX_BUCKETS);
        if target <= self.wheel.len() {
            return;
        }
        let old = std::mem::replace(&mut self.wheel, vec![Bucket::EMPTY; target]);
        self.mask = (target - 1) as u64;
        self.occupied = vec![0; target.div_ceil(64)];
        for b in old {
            let mut slot = b.head;
            while let Some(node) = self.nodes.get(slot as usize) {
                let next = node.next;
                // Everything on the old wheel was inside the old horizon,
                // which the new, larger horizon contains.
                self.link(slot);
                slot = next;
            }
        }
        self.rebin_through(self.horizon() - 1);
        self.growths += 1;
    }

    /// Links `slot` into its wheel bucket, keeping the bucket sorted by
    /// `(at, seq)`. The common case — the newest event of the bucket's
    /// latest cycle — is an O(1) tail append.
    fn link(&mut self, slot: u32) {
        let Some(node) = self.nodes.get(slot as usize) else {
            return;
        };
        let key = (node.at, node.seq);
        let bucket = (node.at & self.mask) as usize;
        let b = &mut self.wheel[bucket];
        let tail_key = self.nodes.get(b.tail as usize).map(|t| (t.at, t.seq));
        let next = match tail_key {
            None => {
                b.head = slot;
                b.tail = slot;
                if let Some(w) = self.occupied.get_mut(bucket / 64) {
                    *w |= 1 << (bucket % 64);
                }
                NIL
            }
            Some(tk) if tk < key => {
                self.nodes[b.tail as usize].next = slot;
                b.tail = slot;
                NIL
            }
            Some(_) => {
                // Out of order: the tail sorts after `key`, so the walk
                // stops at a node before the tail and the tail stays put.
                let mut prev = NIL;
                let mut succ = b.head;
                while let Some(n) = self.nodes.get(succ as usize) {
                    if (n.at, n.seq) > key {
                        break;
                    }
                    prev = succ;
                    succ = n.next;
                }
                match self.nodes.get_mut(prev as usize) {
                    Some(p) => p.next = slot,
                    None => b.head = slot,
                }
                succ
            }
        };
        self.nodes[slot as usize].next = next;
    }

    /// Moves overflow events due at or before cycle `last` into their
    /// buckets; `last` is at most the last cycle inside the horizon.
    fn rebin_through(&mut self, last: Cycle) {
        while let Some(&Reverse((at, _, slot))) = self.overflow.peek() {
            if at > last {
                break;
            }
            self.overflow.pop();
            self.rebins += 1;
            self.link(slot);
        }
    }

    /// The first non-empty bucket at or after bucket `from`, without
    /// wrapping around.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.occupied.get(w)? & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.occupied.get(w)?;
        }
    }

    /// Smallest pending cycle across wheel and overflow; `None` when
    /// empty. Visits every non-empty bucket — used by the sparse-jump
    /// path and [`peek_cycle`](Self::peek_cycle), never by the dense
    /// fast path.
    fn min_pending_cycle(&self) -> Option<Cycle> {
        let mut wheel_min: Option<Cycle> = None;
        let mut from = 0;
        while let Some(b) = self.next_occupied(from) {
            let head = self
                .wheel
                .get(b)
                .and_then(|b| self.nodes.get(b.head as usize));
            if let Some(n) = head {
                wheel_min = Some(wheel_min.map_or(n.at, |m| m.min(n.at)));
            }
            from = b + 1;
        }
        let over_min = self.overflow.peek().map(|&Reverse((at, _, _))| at);
        wheel_min.into_iter().chain(over_min).min()
    }

    /// The wheel's earliest event if it is due within one revolution of
    /// the cursor: the first non-empty bucket, in cyclic order from the
    /// cursor's, whose head falls on the cycle that bucket stands for in
    /// this revolution. Returns that cycle and bucket. Every bucket in
    /// between is empty, and the overflow heap holds nothing before the
    /// horizon, so that head is the global minimum.
    fn next_due(&self) -> Option<(Cycle, usize)> {
        let start = (self.cur & self.mask) as usize;
        let mut from = start;
        let mut wrapped = false;
        loop {
            let b = match self.next_occupied(from) {
                Some(b) if !wrapped || b < start => b,
                _ if !wrapped => {
                    wrapped = true;
                    from = 0;
                    continue;
                }
                _ => return None,
            };
            let at = self.cur + ((b as u64).wrapping_sub(start as u64) & self.mask);
            let head = self
                .wheel
                .get(b)
                .and_then(|b| self.nodes.get(b.head as usize));
            if head.is_some_and(|n| n.at == at) {
                return Some((at, b));
            }
            from = b + 1;
        }
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.len == 0 {
            return None;
        }
        // Everything due before the horizon must be on the wheel.
        self.rebin_through(self.horizon() - 1);
        let (at, bucket) = loop {
            if let Some(due) = self.next_due() {
                break due;
            }
            // A full fruitless revolution: the next event is far away.
            // Jump straight to the global minimum.
            self.cur = self.min_pending_cycle()?;
            self.rebin_through(self.horizon() - 1);
        };
        self.cur = at;
        let b = self.wheel.get_mut(bucket)?;
        let head = b.head;
        let node = self.nodes.get_mut(head as usize)?;
        b.head = node.next;
        if b.head == NIL {
            b.tail = NIL;
            if let Some(w) = self.occupied.get_mut(bucket / 64) {
                *w &= !(1 << (bucket % 64));
            }
        }
        node.next = self.free;
        self.free = head;
        let ev = node.ev.take()?;
        self.len -= 1;
        self.popped += 1;
        Some((at, ev))
    }

    /// Cycle of the earliest pending event, without removing it.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.min_pending_cycle()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events processed (popped) so far.
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Pushes that landed beyond the wheel horizon and took the overflow
    /// heap instead of an O(1) bucket append.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// Overflow events migrated back onto the wheel as the cursor
    /// approached them.
    pub fn rebins(&self) -> u64 {
        self.rebins
    }

    /// Adaptive wheel resizes performed so far.
    pub fn growths(&self) -> u64 {
        self.growths
    }

    /// Current wheel size in buckets.
    pub fn buckets(&self) -> usize {
        self.wheel.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(5, "a");
        q.push(5, "b");
        assert_eq!(q.pop(), Some((5, "a")));
        q.push(5, "c");
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((5, "c")));
    }

    #[test]
    fn tracks_counts() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_cycle(), Some(1));
        q.pop();
        assert_eq!(q.processed(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events beyond the wheel ride the overflow heap and re-bin as
        // the cursor approaches; order must be unaffected.
        let mut q = EventQueue::new();
        q.push(1_000_000, "far");
        q.push(3, "near");
        q.push(2_000_000_000, "very far");
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.pop(), Some((1_000_000, "far")));
        assert_eq!(q.pop(), Some((2_000_000_000, "very far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_aliasing_keeps_cycle_order() {
        // Cycles that share a bucket (differ by the wheel size) must
        // still come out in cycle order, whatever the push order.
        let n = 4096u64;
        let mut q = EventQueue::new();
        q.push(5 + 2 * n, "c");
        q.push(5, "a");
        q.push(5 + n, "b");
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((5 + n, "b")));
        assert_eq!(q.pop(), Some((5 + 2 * n, "c")));
    }

    #[test]
    fn push_into_the_past_is_found() {
        let mut q = EventQueue::new();
        q.push(100, "late");
        assert_eq!(q.pop(), Some((100, "late")));
        q.push(40, "past");
        q.push(120, "future");
        assert_eq!(q.pop(), Some((40, "past")));
        assert_eq!(q.pop(), Some((120, "future")));
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::with_capacity(100_000);
        let mut b = EventQueue::new();
        for i in 0..1000u64 {
            a.push(i % 37, i);
            b.push(i % 37, i);
        }
        for _ in 0..1000 {
            assert_eq!(a.pop(), b.pop());
        }
    }

    /// Reference model: a stable sort over `(cycle, push order)`.
    fn reference_order(pushes: &[(Cycle, u64)]) -> Vec<(Cycle, u64)> {
        let mut v: Vec<(Cycle, u64)> = pushes.to_vec();
        v.sort_by_key(|&(at, i)| (at, i));
        v
    }

    #[test]
    fn property_matches_reference_model_on_random_schedules() {
        // Seeded random schedules spanning buckets, aliased cycles, and
        // far-overflow delays; pop order must equal the reference
        // stable sort for every seed.
        for seed in 0..8u64 {
            let mut rng = Rng::new(0xCA1E_0000 ^ seed);
            let mut q = EventQueue::new();
            let mut pushes: Vec<(Cycle, u64)> = Vec::new();
            for i in 0..2000u64 {
                // Mix of near, aliased, and far-future delays.
                let at = match rng.next_u64() % 10 {
                    0..=5 => rng.next_u64() % 512,
                    6..=7 => 4096 * (1 + rng.next_u64() % 3) + rng.next_u64() % 8,
                    8 => 100_000 + rng.next_u64() % 1000,
                    _ => 10_000_000 + rng.next_u64() % 100,
                };
                q.push(at, i);
                pushes.push((at, i));
            }
            let expect = reference_order(&pushes);
            for (at, i) in expect {
                assert_eq!(q.pop(), Some((at, i)), "seed {seed} diverged");
            }
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn adaptive_growth_fires_under_overflow_pressure() {
        let mut q = EventQueue::new();
        let before = q.buckets();
        // Sustained far-future pushes (gap ~16k) overwhelm the 4096-cycle
        // horizon; the wheel must grow and later pushes at that distance
        // must bin without spilling.
        for i in 0..200u64 {
            q.push(16_000 + i, i);
        }
        assert!(q.growths() > 0, "no adaptive resize happened");
        assert!(q.buckets() > before);
        assert!(q.buckets() <= MAX_BUCKETS);
        assert!(q.spills() >= GROW_PRESSURE as u64);
        let spills_after_growth = q.spills();
        for i in 0..100u64 {
            q.push(10_000 + i, 1000 + i);
        }
        assert_eq!(q.spills(), spills_after_growth, "grown wheel still spilled");
        // Order is untouched by the rebuild.
        let mut last = (0, 0);
        while let Some((at, v)) = q.pop() {
            assert!((at, v) >= last);
            last = (at, v);
        }
    }

    #[test]
    fn property_adaptive_sizing_preserves_cycle_seq_fifo_order() {
        // The satellite property: whatever resizes the wheel performs
        // mid-run, pop order must equal the (cycle, push-seq) stable sort
        // — including FIFO ties — across schedules engineered to trigger
        // growth at different moments.
        for seed in 0..12u64 {
            let mut rng = Rng::new(0xADA9_7100 ^ seed);
            let mut q = EventQueue::new();
            let mut model: Vec<(Cycle, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for round in 0..600u64 {
                // Burst far-future pushes occasionally so the overflow
                // heap crosses GROW_PRESSURE and the wheel grows while
                // ordinary near events are in flight.
                let burst = if round % 7 == 0 { 24 } else { 2 };
                for _ in 0..burst {
                    let at = now
                        + match rng.next_u64() % 10 {
                            0..=5 => rng.next_u64() % 256,
                            6..=7 => 4096 + rng.next_u64() % 4096,
                            8 => 20_000 + rng.next_u64() % 30_000,
                            _ => 80_000 + rng.next_u64() % 100,
                        };
                    // Duplicate cycles on purpose: FIFO ties are the point.
                    q.push(at, seq);
                    model.push((at, seq));
                    seq += 1;
                }
                for _ in 0..2 {
                    model.sort_by_key(|&(at, s)| (at, s));
                    let expect = (!model.is_empty()).then(|| model.remove(0));
                    let got = q.pop();
                    assert_eq!(got, expect, "seed {seed} round {round} diverged");
                    if let Some((at, _)) = got {
                        now = at;
                    }
                }
            }
            // Drain: the tail must match too.
            model.sort_by_key(|&(at, s)| (at, s));
            for &(at, s) in &model {
                assert_eq!(q.pop(), Some((at, s)), "seed {seed} tail diverged");
            }
            assert_eq!(q.pop(), None);
            assert!(
                q.growths() > 0,
                "seed {seed} never grew — test lost its bite"
            );
        }
    }

    #[test]
    fn spill_and_rebin_counters_track() {
        let mut q = EventQueue::new();
        q.push(3, "near");
        assert_eq!(q.spills(), 0);
        q.push(1_000_000, "far");
        assert_eq!(q.spills(), 1);
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.pop(), Some((1_000_000, "far")));
        assert_eq!(q.rebins(), 1, "far event should have re-binned once");
    }

    #[test]
    fn property_interleaved_pushes_respect_running_clock() {
        // Simulator-shaped usage: every push is at or after the cycle of
        // the last popped event. Compare against an incremental
        // reference model (a vec re-sorted by (cycle, seq) per pop).
        let mut rng = Rng::new(0xBEEF);
        let mut q = EventQueue::new();
        let mut model: Vec<(Cycle, u64)> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..200 {
            let at = rng.next_u64() % 64;
            q.push(at, seq);
            model.push((at, seq));
            seq += 1;
        }
        for _ in 0..5000 {
            model.sort_by_key(|&(at, s)| (at, s));
            let expect = (!model.is_empty()).then(|| model.remove(0));
            let got = q.pop();
            assert_eq!(got, expect);
            let Some((now, _)) = got else { break };
            // Push 0–2 new events at or after the running clock.
            for _ in 0..(rng.next_u64() % 3) {
                let delay = match rng.next_u64() % 8 {
                    0..=5 => rng.next_u64() % 300,
                    6 => 5000 + rng.next_u64() % 5000,
                    _ => 50_000 + rng.next_u64() % 10_000,
                };
                q.push(now + delay, seq);
                model.push((now + delay, seq));
                seq += 1;
            }
        }
    }

    #[test]
    fn node_slab_is_bounded_by_peak_pending_on_a_full_size_wheel() {
        // Storage follows pending events, not the wheel: grow the wheel
        // to MAX_BUCKETS, then keep at most 64 events pending for three
        // full revolutions. Every popped slot is reused, so the slab
        // never outgrows the peak pending count.
        let mut rng = Rng::new(0x51AB_0001);
        let mut q = EventQueue::new();
        let mut pushes: Vec<(Cycle, u64)> = Vec::new();
        let mut popped: Vec<(Cycle, u64)> = Vec::new();
        for i in 0..GROW_PRESSURE as u64 {
            q.push(40_000 + i, i);
            pushes.push((40_000 + i, i));
        }
        assert_eq!(q.buckets(), MAX_BUCKETS, "wheel did not grow to its cap");
        let mut peak = q.len();
        let mut id = pushes.len() as u64;
        let end = 3 * MAX_BUCKETS as u64;
        while let Some((now, v)) = q.pop() {
            popped.push((now, v));
            if now >= end {
                continue;
            }
            // Refill to at most 64 pending: mostly near events, some
            // aliasing a full wheel ahead, some past the horizon.
            for _ in 0..=(rng.next_below(2)) {
                if q.len() >= 64 {
                    break;
                }
                let at = now
                    + match rng.next_below(20) {
                        0..=17 => rng.next_below(512),
                        18 => MAX_BUCKETS as u64 + rng.next_below(8),
                        _ => 2 * MAX_BUCKETS as u64 + rng.next_below(1000),
                    };
                q.push(at, id);
                pushes.push((at, id));
                id += 1;
                peak = peak.max(q.len());
                assert!(
                    q.nodes.len() <= peak,
                    "slab {} > peak pending {peak}",
                    q.nodes.len()
                );
            }
        }
        assert!(peak <= 64);
        assert!(pushes.len() > 1000, "schedule too short to mean anything");
        assert!(q.spills() > 0, "no event crossed the horizon");
        assert_eq!(popped, reference_order(&pushes));
    }

    /// Every bucket's occupancy bit agrees with its list.
    fn assert_bitmap_consistent<E>(q: &EventQueue<E>, ctx: &str) {
        for (i, b) in q.wheel.iter().enumerate() {
            let bit = q.occupied[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(bit, b.head != NIL, "{ctx}: bucket {i} bit {bit}");
        }
    }

    #[test]
    fn aliased_heads_after_a_rewind_wait_their_revolution() {
        // After the cursor rewinds, a bucket can hold an event a whole
        // revolution past the cycle that bucket stands for; the scan must
        // skip it rather than pop it early.
        let mut q = EventQueue::new();
        q.push(100, "a");
        q.push(4000, "d");
        assert_eq!(q.pop(), Some((100, "a")));
        // Bucket 54 of the 4096, linked while the horizon was 4196.
        q.push(4150, "e");
        q.push(10, "past");
        q.push(60, "b");
        assert_eq!(q.pop(), Some((10, "past")));
        assert_eq!(q.pop(), Some((60, "b")));
        assert_eq!(q.pop(), Some((4000, "d")));
        assert_eq!(q.pop(), Some((4150, "e")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bitmap_pops_match_the_reference_across_growth_and_rewinds() {
        // Mixed schedules: near events, events a whole wheel ahead (the
        // bucket's head is not due this revolution), far-future bursts
        // that grow the wheel, sparse gaps that force the global-minimum
        // jump, and pushes into the past that rewind the cursor below
        // events already linked. Pop order must equal the stable
        // (cycle, push order) sort, and the bitmap must track every
        // bucket.
        for seed in 0..10u64 {
            let mut rng = Rng::new(0xB17_0000 ^ seed);
            let mut q = EventQueue::new();
            // Pending events by (cycle, push order): the incremental form
            // of `reference_order`.
            let mut model: std::collections::BTreeSet<(Cycle, u64)> = Default::default();
            let mut id = 0u64;
            let mut now = 0u64;
            let mut push =
                |q: &mut EventQueue<u64>, model: &mut std::collections::BTreeSet<_>, at| {
                    q.push(at, id);
                    model.insert((at, id));
                    id += 1;
                };
            for round in 0..3000u64 {
                for _ in 0..rng.next_below(3) {
                    let wheel = q.buckets() as u64;
                    let at = match rng.next_below(13) {
                        0..=5 => now + rng.next_below(200),
                        6 => now + wheel * (1 + rng.next_below(2)) + rng.next_below(4),
                        // The end of this revolution: a later rewind
                        // leaves these heads a revolution ahead.
                        12 => now + wheel - 1 - rng.next_below(64),
                        7 => now + 30_000 + rng.next_below(40_000),
                        8 => now + 500_000 + rng.next_below(1000),
                        // Into the past: rewinds the cursor.
                        9 => now.saturating_sub(1 + rng.next_below(3000)),
                        _ => now,
                    };
                    push(&mut q, &mut model, at);
                }
                if round % 11 == 0 {
                    for i in 0..GROW_PRESSURE as u64 {
                        push(&mut q, &mut model, now + 20_000 + i * 7);
                    }
                }
                let got = q.pop();
                assert_eq!(got, model.pop_first(), "seed {seed} round {round}");
                if let Some((at, _)) = got {
                    now = at;
                }
                if round % 500 == 0 {
                    assert_bitmap_consistent(&q, &format!("seed {seed} round {round}"));
                }
            }
            // Drain: the tail must come out as the stable sort of what
            // is still pending.
            let tail: Vec<(Cycle, u64)> = model.iter().copied().collect();
            let drained: Vec<(Cycle, u64)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(drained, reference_order(&tail), "seed {seed} tail");
            assert_bitmap_consistent(&q, &format!("seed {seed} drained"));
            assert!(q.occupied.iter().all(|&w| w == 0));
            assert!(q.growths() > 0, "seed {seed} never grew");
        }
    }

    #[test]
    fn reused_slots_in_aliasing_buckets_keep_no_stale_links() {
        // Pop a batch, so several slots sit on the free list with live
        // `next` links, then reuse them at once: one push per popped
        // event into its aliasing bucket (a whole wheel ahead), plus near
        // and out-of-order pushes. A burst of far-future pushes grows the
        // wheel mid-run. A `next` link that survived reuse would splice
        // a bucket onto the free list or another bucket and break order.
        for seed in 0..6u64 {
            let mut rng = Rng::new(0x5107_0000 ^ seed);
            let mut q = EventQueue::new();
            let mut model: Vec<(Cycle, u64)> = Vec::new();
            let mut id = 0u64;
            let mut push = |q: &mut EventQueue<u64>, model: &mut Vec<(Cycle, u64)>, at| {
                q.push(at, id);
                model.push((at, id));
                id += 1;
            };
            for c in 0..48u64 {
                push(&mut q, &mut model, c);
                push(&mut q, &mut model, c + DEFAULT_BUCKETS as u64);
            }
            for round in 0..1500u64 {
                if round == 500 {
                    for i in 0..GROW_PRESSURE as u64 {
                        push(&mut q, &mut model, 20_000 + round + i);
                    }
                }
                let mut batch = Vec::new();
                for _ in 0..=rng.next_below(8) {
                    model.sort_by_key(|&(at, s)| (at, s));
                    let expect = (!model.is_empty()).then(|| model.remove(0));
                    let got = q.pop();
                    assert_eq!(got, expect, "seed {seed} round {round} diverged");
                    batch.extend(got);
                }
                let Some(&(now, _)) = batch.last() else { break };
                let wheel = q.buckets() as u64;
                for &(at, _) in &batch {
                    push(&mut q, &mut model, at + wheel * (1 + rng.next_below(2)));
                }
                // Lands before events already queued in its bucket.
                push(&mut q, &mut model, now + rng.next_below(4));
                if rng.next_below(2) == 0 {
                    push(&mut q, &mut model, now + 1 + rng.next_below(64));
                }
            }
            model.sort_by_key(|&(at, s)| (at, s));
            for &(at, s) in &model {
                assert_eq!(q.pop(), Some((at, s)), "seed {seed} tail diverged");
            }
            assert_eq!(q.pop(), None);
            assert!(q.growths() > 0, "seed {seed} never grew");
            assert!(
                (q.nodes.len() as u64) < id / 2,
                "seed {seed} rarely reused a slot"
            );
        }
    }
}
