//! Per-chiplet GPU MMUs over a distributed page table (the MGvm substrate,
//! Pratheek et al. MICRO'22, used by §VII-F).
//!
//! Under MGvm there is no IOMMU on the translation path: each chiplet has
//! a private GMMU whose walkers access the page table in GPU memory. MGvm
//! distributes page-table pages next to the data they map, so a walk is
//! *local* when the leaf PTE lives in the walking chiplet's memory and
//! *remote* (mesh round-trip per walk) otherwise. Barre Chord integrates
//! by attaching a PEC logic to each GMMU: one walk then serves the whole
//! coalescing group, removing both local and remote walks (the red line of
//! Fig 21).

use std::collections::VecDeque;

use barre_core::{CoalMode, PecEntry};
use barre_iommu::{AtsRequest, AtsResponse, PecUnit, WalkedPte};
use barre_mem::{ChipletId, Pte, Vpn};
use barre_sim::{Counter, Cycle};

/// GMMU configuration (per chiplet).
#[derive(Debug, Clone)]
pub struct GmmuConfig {
    /// Walkers per chiplet GMMU (MGvm splits the IOMMU's 16 across
    /// chiplets: 4 per chiplet in the 4-chiplet baseline).
    pub walkers: usize,
    /// Walk-queue entries per GMMU.
    pub queue_entries: usize,
    /// Walk latency when the leaf PTE is in local memory.
    pub local_walk_latency: Cycle,
    /// Extra latency when the leaf PTE is homed on another chiplet.
    pub remote_walk_penalty: Cycle,
    /// Whether Barre's PEC calculation is attached.
    pub barre: bool,
    /// PTE layout in force.
    pub coal_mode: CoalMode,
    /// Per-calculated-response PEC latency.
    pub pec_calc_latency: Cycle,
    /// PEC buffer entries.
    pub pec_buffer_entries: usize,
}

impl Default for GmmuConfig {
    fn default() -> Self {
        Self {
            walkers: 4,
            queue_entries: 16,
            local_walk_latency: 300,
            remote_walk_penalty: 200,
            barre: false,
            coal_mode: CoalMode::Base,
            pec_calc_latency: 2,
            pec_buffer_entries: 5,
        }
    }
}

#[derive(Debug, Clone)]
struct GmmuWalk {
    req: AtsRequest,
    started_at: Cycle,
    done_at: Cycle,
    remote: bool,
}

/// One chiplet's GMMU.
#[derive(Debug)]
pub struct GmmuUnit {
    chiplet: ChipletId,
    cfg: GmmuConfig,
    queue: VecDeque<AtsRequest>,
    walks: Vec<Option<GmmuWalk>>,
    pec: PecUnit,
    /// Walks whose leaf PTE was local.
    pub local_walks: Counter,
    /// Walks that crossed the mesh for their PTE.
    pub remote_walks: Counter,
    /// Translations served by PEC calculation.
    pub coalesced: Counter,
    /// Requests rejected on a full queue.
    pub rejections: Counter,
}

impl GmmuUnit {
    /// Creates the GMMU of `chiplet`.
    ///
    /// # Panics
    ///
    /// Panics if walkers or queue entries are zero.
    pub fn new(chiplet: ChipletId, cfg: GmmuConfig) -> Self {
        assert!(cfg.walkers > 0, "GMMU needs walkers");
        assert!(cfg.queue_entries > 0, "GMMU needs a queue");
        Self {
            chiplet,
            pec: PecUnit::new(
                cfg.barre,
                cfg.coal_mode,
                cfg.pec_buffer_entries,
                cfg.pec_calc_latency,
            ),
            walks: vec![None; cfg.walkers],
            queue: VecDeque::new(),
            cfg,
            local_walks: Counter::new(),
            remote_walks: Counter::new(),
            coalesced: Counter::new(),
            rejections: Counter::new(),
        }
    }

    /// Registers a data object's PEC record.
    pub fn register_pec(&mut self, entry: PecEntry) {
        self.pec.register(entry);
    }

    /// Accepts a walk request; `false` when the queue is full.
    pub fn enqueue(&mut self, req: AtsRequest) -> bool {
        if self.queue.len() >= self.cfg.queue_entries {
            self.rejections.inc();
            return false;
        }
        self.queue.push_back(req);
        true
    }

    /// Starts walks on idle walkers, replacing `started` with
    /// `(walker, done_at)` for each. `pte_home` locates the chiplet whose
    /// memory holds the leaf PTE (MGvm co-locates it with the data).
    pub fn dispatch(
        &mut self,
        now: Cycle,
        pte_home: impl Fn(u16, Vpn) -> Option<ChipletId>,
        started: &mut Vec<(usize, Cycle)>,
    ) {
        started.clear();
        while let Some(slot) = self.walks.iter().position(Option::is_none) {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            let remote = pte_home(req.asid, req.vpn)
                .map(|h| h != self.chiplet)
                .unwrap_or(false);
            let latency = self.cfg.local_walk_latency
                + if remote {
                    self.cfg.remote_walk_penalty
                } else {
                    0
                };
            let done_at = now + latency;
            self.walks[slot] = Some(GmmuWalk {
                req,
                started_at: now,
                done_at,
                remote,
            });
            started.push((slot, done_at));
        }
    }

    /// Completes the walk on `walker`, replacing `out` with its
    /// responses. With Barre attached, the walked
    /// PTE serves the rest of its coalescing group from the local queue
    /// through the same [`PecUnit::complete`] pass as
    /// [`barre_iommu::Iommu::complete_walk`], so calculated responses
    /// carry their own coalescing bits. Responses always carry the PEC
    /// record: the chiplets' buffers are programmed with it anyway.
    pub fn complete_walk(
        &mut self,
        walker: usize,
        now: Cycle,
        lookup: impl Fn(u16, Vpn) -> Option<Pte>,
        out: &mut Vec<(Cycle, AtsResponse)>,
    ) {
        out.clear();
        // A completion event for an idle or out-of-range walker is a
        // scheduling bug upstream; respond with no translations instead
        // of tearing the simulation down.
        let Some(walk) = self.walks.get_mut(walker).and_then(Option::take) else {
            return;
        };
        debug_assert!(now >= walk.done_at);
        if walk.remote {
            self.remote_walks.inc();
        } else {
            self.local_walks.inc();
        }
        let walked = WalkedPte {
            req: walk.req,
            pte: lookup(walk.req.asid, walk.req.vpn),
            started_at: walk.started_at,
            tlb_hit: false,
        };
        self.pec.complete(walked, now, true, &mut self.queue, out);
        self.coalesced.add(out.len() as u64 - 1);
    }

    /// Whether the unit has no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.walks.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_core::driver::{BarreAllocator, MappingPlan};
    use barre_core::CoalInfo;
    use barre_mem::virt_alloc::VpnRange;
    use barre_mem::{FrameAllocator, PageTable};

    /// [`GmmuUnit::dispatch`] into a fresh vector.
    fn dispatch(
        g: &mut GmmuUnit,
        now: Cycle,
        pte_home: impl Fn(u16, Vpn) -> Option<ChipletId>,
    ) -> Vec<(usize, Cycle)> {
        let mut started = Vec::new();
        g.dispatch(now, pte_home, &mut started);
        started
    }

    /// [`GmmuUnit::complete_walk`] into a fresh vector.
    fn complete(
        g: &mut GmmuUnit,
        walker: usize,
        now: Cycle,
        lookup: impl Fn(u16, Vpn) -> Option<Pte>,
    ) -> Vec<(Cycle, AtsResponse)> {
        let mut out = Vec::new();
        g.complete_walk(walker, now, lookup, &mut out);
        out
    }

    fn fig7a() -> (PageTable, PecEntry) {
        let mut frames: Vec<FrameAllocator> = (0..4).map(|_| FrameAllocator::new(256)).collect();
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            &[ChipletId(0), ChipletId(1), ChipletId(2), ChipletId(3)],
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        let mut pt = PageTable::new(0);
        for (v, p) in out.ptes {
            pt.map(v, p);
        }
        (pt, out.pec)
    }

    fn req(id: u64, vpn: u64) -> AtsRequest {
        AtsRequest {
            id,
            asid: 0,
            vpn: Vpn(vpn),
            chiplet: ChipletId(0),
            issued_at: 0,
        }
    }

    #[test]
    fn local_vs_remote_walk_latency() {
        let (pt, _) = fig7a();
        let mut g = GmmuUnit::new(ChipletId(0), GmmuConfig::default());
        // 0x1 is mapped on chiplet 0 (local); 0x4 on chiplet 1 (remote).
        g.enqueue(req(1, 0x1));
        g.enqueue(req(2, 0x4));
        let home = |_: u16, v: Vpn| pt.lookup(v).map(|p| p.pfn().chiplet());
        let started = dispatch(&mut g, 0, home);
        assert_eq!(started[0].1, 300);
        assert_eq!(started[1].1, 500);
        complete(&mut g, started[0].0, 300, |_, v| pt.lookup(v));
        complete(&mut g, started[1].0, 500, |_, v| pt.lookup(v));
        assert_eq!(g.local_walks.get(), 1);
        assert_eq!(g.remote_walks.get(), 1);
    }

    #[test]
    fn barre_gmmu_coalesces_and_removes_remote_walks() {
        let (pt, pec) = fig7a();
        let mut g = GmmuUnit::new(
            ChipletId(0),
            GmmuConfig {
                barre: true,
                walkers: 1,
                ..GmmuConfig::default()
            },
        );
        g.register_pec(pec);
        g.enqueue(req(1, 0x1)); // local walk
        let home = |_: u16, v: Vpn| pt.lookup(v).map(|p| p.pfn().chiplet());
        let started = dispatch(&mut g, 0, home);
        // 0x4 and 0xA would both be remote walks; they pend instead.
        g.enqueue(req(2, 0x4));
        g.enqueue(req(3, 0xA));
        let rsp = complete(&mut g, started[0].0, 300, |_, v| pt.lookup(v));
        assert_eq!(rsp.len(), 3);
        assert_eq!(g.coalesced.get(), 2);
        assert_eq!(g.remote_walks.get(), 0);
        for (_, r) in &rsp {
            assert_eq!(r.pfn.unwrap(), pt.lookup(r.req.vpn).unwrap().pfn());
        }
    }

    #[test]
    fn calculated_coal_bits_match_the_iommu() {
        let (pt, pec) = fig7a();
        let lookup = |_: u16, v: Vpn| pt.lookup(v);
        // 0x1 (inter order 0) is walked; pending 0x4 is its group
        // member at inter order 1.
        let mut g = GmmuUnit::new(
            ChipletId(0),
            GmmuConfig {
                barre: true,
                walkers: 1,
                ..GmmuConfig::default()
            },
        );
        g.register_pec(pec);
        g.enqueue(req(1, 0x1));
        let started = dispatch(&mut g, 0, |_, _| Some(ChipletId(0)));
        g.enqueue(req(2, 0x4));
        let gmmu = complete(&mut g, started[0].0, 300, lookup);

        let mut io = barre_iommu::Iommu::new(barre_iommu::IommuConfig {
            barre: true,
            ptws: Some(1),
            ..barre_iommu::IommuConfig::default()
        });
        io.register_pec(pec);
        io.enqueue(req(1, 0x1));
        let (mut started, mut iommu) = (Vec::new(), Vec::new());
        io.dispatch(0, &mut started);
        io.enqueue(req(2, 0x4));
        io.complete_walk(started[0].0, 500, lookup, &mut iommu);

        let calculated = |rsp: &[(Cycle, AtsResponse)]| {
            rsp.iter()
                .find(|(_, r)| r.coalesced && r.req.vpn == Vpn(0x4))
                .map(|(_, r)| r.coal_bits)
                .expect("0x4 calculated")
        };
        let bits = calculated(&gmmu);
        assert_eq!(bits, calculated(&iommu));
        let info = CoalInfo::decode(bits, CoalMode::Base).expect("coalesced");
        assert_eq!(info.inter_order(), 1);
    }

    #[test]
    fn queue_capacity() {
        let mut g = GmmuUnit::new(
            ChipletId(0),
            GmmuConfig {
                queue_entries: 1,
                ..GmmuConfig::default()
            },
        );
        assert!(g.enqueue(req(1, 1)));
        assert!(!g.enqueue(req(2, 2)));
        assert_eq!(g.rejections.get(), 1);
    }

    #[test]
    fn idle_tracking() {
        let (pt, _) = fig7a();
        let mut g = GmmuUnit::new(ChipletId(0), GmmuConfig::default());
        assert!(g.is_idle());
        g.enqueue(req(1, 0x1));
        assert!(!g.is_idle());
        let s = dispatch(&mut g, 0, |_, _| Some(ChipletId(0)));
        complete(&mut g, s[0].0, 300, |_, v| pt.lookup(v));
        assert!(g.is_idle());
    }
}
