//! The IOMMU state machine.

use std::collections::VecDeque;

use barre_core::{CoalMode, PecEntry};
use barre_mem::{Pte, Vpn};
use barre_sim::{Counter, Cycle, Histogram, RatioStat};
use barre_tlb::{Tlb, TlbKey};

use crate::ats::{AtsRequest, AtsResponse};
use crate::pec_unit::{PecUnit, WalkedPte};

/// Static IOMMU configuration.
#[derive(Debug, Clone)]
pub struct IommuConfig {
    /// Page-walk queue capacity (Table II: 48).
    pub pw_queue_entries: usize,
    /// Number of page table walkers; `None` models the *infinite PTWs*
    /// limit study of Fig 1.
    pub ptws: Option<usize>,
    /// End-to-end page table walk latency in cycles (Table II: 500).
    pub walk_latency: Cycle,
    /// Whether Barre's PEC calculation is active.
    pub barre: bool,
    /// PTE layout in force (decides how coalescing bits decode).
    pub coal_mode: CoalMode,
    /// Whether responses carry the PEC record (F-Barre).
    pub ship_pec_entry: bool,
    /// Coalescing-aware PTW scheduling (§V-C).
    pub coalescing_sched: bool,
    /// Merge limit used by the scheduler's coalescibility estimate.
    pub max_merged: u8,
    /// Per-calculated-response PEC latency in cycles.
    pub pec_calc_latency: Cycle,
    /// Speculatively multicast every group member's calculated PFN to its
    /// owning chiplet on each walk (§IV-B evaluates and rejects this:
    /// the IOMMU's outbound bandwidth becomes the bottleneck).
    pub multicast: bool,
    /// Optional IOMMU TLB: `(entries, ways, access_latency)` (§VII-J uses
    /// 2048 entries at 200 cycles).
    pub iommu_tlb: Option<(usize, usize, Cycle)>,
    /// PEC buffer entries (Table II: 5).
    pub pec_buffer_entries: usize,
}

impl Default for IommuConfig {
    fn default() -> Self {
        Self {
            pw_queue_entries: 48,
            ptws: Some(16),
            walk_latency: 500,
            barre: false,
            coal_mode: CoalMode::Base,
            ship_pec_entry: false,
            coalescing_sched: false,
            max_merged: 1,
            pec_calc_latency: 2,
            multicast: false,
            iommu_tlb: None,
            pec_buffer_entries: 5,
        }
    }
}

/// Dynamic IOMMU statistics.
#[derive(Debug, Clone, Default)]
pub struct IommuStats {
    /// ATS requests accepted into the PW-queue.
    pub ats_received: Counter,
    /// Requests rejected because the PW-queue was full.
    pub queue_rejections: Counter,
    /// Page table walks performed.
    pub walks: Counter,
    /// Responses produced by PEC calculation.
    pub coalesced: Counter,
    /// IOMMU TLB hit rate (when configured).
    pub iommu_tlb: RatioStat,
    /// Head-of-queue rotations by the coalescing-aware scheduler.
    pub sched_rotations: Counter,
    /// ATS turnaround (enqueue → response ready), in cycles.
    pub ats_latency: Histogram,
    /// Gap between consecutive VPNs received (Fig 5's distribution).
    pub vpn_gap: Histogram,
    /// Total PTW-occupied cycles (utilization = busy / (ptws × span)).
    pub ptw_busy: Counter,
}

#[derive(Debug, Clone)]
struct Walk {
    req: AtsRequest,
    started_at: Cycle,
    done_at: Cycle,
    tlb_hit: bool,
}

/// The IOMMU.
///
/// Drive it with [`enqueue`](Self::enqueue) on ATS arrival, then
/// [`dispatch`](Self::dispatch) to start walks (schedule a completion
/// event per `(ptw, done_at)` it writes), then
/// [`complete_walk`](Self::complete_walk) when each fires.
#[derive(Debug)]
pub struct Iommu {
    cfg: IommuConfig,
    queue: VecDeque<AtsRequest>,
    walks: Vec<Option<Walk>>,
    pec: PecUnit,
    iommu_tlb: Option<Tlb<Pte>>,
    stats: IommuStats,
    last_vpn: Option<Vpn>,
    multicast_seq: u64,
}

impl Iommu {
    /// Creates an IOMMU from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the PW-queue capacity or a finite PTW count is zero.
    pub fn new(cfg: IommuConfig) -> Self {
        assert!(cfg.pw_queue_entries > 0, "PW-queue needs capacity");
        if let Some(n) = cfg.ptws {
            assert!(n > 0, "finite PTW pool must be nonempty");
        }
        let walks = match cfg.ptws {
            Some(n) => vec![None; n],
            None => Vec::new(),
        };
        Self {
            pec: PecUnit::new(
                cfg.barre,
                cfg.coal_mode,
                cfg.pec_buffer_entries,
                cfg.pec_calc_latency,
            ),
            iommu_tlb: cfg
                .iommu_tlb
                .map(|(entries, ways, _)| Tlb::new(entries, ways)),
            cfg,
            queue: VecDeque::new(),
            walks,
            stats: IommuStats::default(),
            last_vpn: None,
            multicast_seq: 0,
        }
    }

    /// Registers a data object's PEC record (done by the driver at
    /// allocation time, §IV-G).
    pub fn register_pec(&mut self, entry: PecEntry) {
        self.pec.register(entry);
    }

    /// Accepts an ATS request into the PW-queue; `false` means the queue
    /// is full and the packet must wait in the PCIe buffer (the caller
    /// retries after the next completion).
    pub fn enqueue(&mut self, req: AtsRequest) -> bool {
        if self.queue.len() >= self.cfg.pw_queue_entries {
            self.stats.queue_rejections.inc();
            return false;
        }
        if let Some(prev) = self.last_vpn {
            self.stats.vpn_gap.record(prev.0.abs_diff(req.vpn.0));
        }
        self.last_vpn = Some(req.vpn);
        self.stats.ats_received.inc();
        self.queue.push_back(req);
        true
    }

    /// Whether the PW-queue has space.
    pub fn has_queue_space(&self) -> bool {
        self.queue.len() < self.cfg.pw_queue_entries
    }

    /// Assigns queued requests to idle PTWs. Replaces `started` with
    /// `(ptw, done_at)` for every started walk; the caller schedules a
    /// completion event each.
    pub fn dispatch(&mut self, now: Cycle, started: &mut Vec<(usize, Cycle)>) {
        started.clear();
        loop {
            if self.queue.is_empty() {
                break;
            }
            let ptw = match self.idle_ptw() {
                Some(p) => p,
                None => break,
            };
            let req = match self.next_request() {
                Some(r) => r,
                None => break,
            };
            // IOMMU TLB: a hit answers after the TLB latency; a miss adds
            // it in front of the walk.
            let (latency, tlb_hit) = match (&mut self.iommu_tlb, self.cfg.iommu_tlb) {
                (Some(tlb), Some((_, _, tlat))) => {
                    let key = TlbKey {
                        asid: req.asid,
                        vpn: req.vpn,
                    };
                    if tlb.lookup(key).is_some() {
                        self.stats.iommu_tlb.record(true);
                        (tlat, true)
                    } else {
                        self.stats.iommu_tlb.record(false);
                        (tlat + self.cfg.walk_latency, false)
                    }
                }
                _ => (self.cfg.walk_latency, false),
            };
            let done_at = now + latency;
            self.walks[ptw] = Some(Walk {
                req,
                started_at: now,
                done_at,
                tlb_hit,
            });
            started.push((ptw, done_at));
        }
    }

    fn idle_ptw(&mut self) -> Option<usize> {
        match self.cfg.ptws {
            Some(_) => self.walks.iter().position(Option::is_none),
            None => {
                // Infinite pool: reuse a free slot or grow.
                if let Some(i) = self.walks.iter().position(Option::is_none) {
                    Some(i)
                } else {
                    self.walks.push(None);
                    Some(self.walks.len() - 1)
                }
            }
        }
    }

    /// Pops the next request to walk, applying coalescing-aware
    /// scheduling: a head request that an in-flight walk will cover is
    /// rotated to the tail (§V-C).
    fn next_request(&mut self) -> Option<AtsRequest> {
        if !self.cfg.coalescing_sched {
            return self.queue.pop_front();
        }
        let mut rotations = 0;
        let max_rot = self.queue.len();
        while rotations < max_rot {
            let head = *self.queue.front()?;
            let covered = self
                .walks
                .iter()
                .flatten()
                .any(|w| self.pec.covers(&w.req, &head, self.cfg.max_merged));
            if covered {
                // The front was just peeked, so the pop cannot miss; the
                // if-let keeps this path panic-free regardless.
                if let Some(r) = self.queue.pop_front() {
                    self.queue.push_back(r);
                }
                self.stats.sched_rotations.inc();
                rotations += 1;
            } else {
                return self.queue.pop_front();
            }
        }
        // Everything at the head is coalescible with in-flight walks;
        // serve FIFO to guarantee progress.
        self.queue.pop_front()
    }

    /// Completes the walk on `ptw` at `now`. `lookup` resolves
    /// `(asid, vpn)` to the leaf PTE (the actual radix-table access).
    /// Replaces `out` with the responses of [`PecUnit::complete`], each
    /// with the cycle it is ready to leave the IOMMU, plus the multicast
    /// ones when configured.
    pub fn complete_walk(
        &mut self,
        ptw: usize,
        now: Cycle,
        lookup: impl Fn(u16, Vpn) -> Option<Pte>,
        out: &mut Vec<(Cycle, AtsResponse)>,
    ) {
        out.clear();
        // A completion event for an idle or out-of-range PTW is a
        // scheduling bug upstream; respond with no translations instead
        // of tearing the simulation down.
        let Some(walk) = self.walks.get_mut(ptw).and_then(Option::take) else {
            return;
        };
        debug_assert!(now >= walk.done_at, "completion fired early");
        self.stats.ptw_busy.add(now - walk.started_at);
        if !walk.tlb_hit {
            self.stats.walks.inc();
        }
        let pte = lookup(walk.req.asid, walk.req.vpn);
        // Fill the IOMMU TLB on a walked translation.
        if let (Some(tlb), Some(p)) = (&mut self.iommu_tlb, pte) {
            if !walk.tlb_hit {
                tlb.insert(
                    TlbKey {
                        asid: walk.req.asid,
                        vpn: walk.req.vpn,
                    },
                    p,
                );
            }
        }
        let walked = WalkedPte {
            req: walk.req,
            pte,
            started_at: walk.started_at,
            tlb_hit: walk.tlb_hit,
        };
        self.pec
            .complete(walked, now, self.cfg.ship_pec_entry, &mut self.queue, out);
        for (ready, rsp) in out.iter() {
            self.stats.ats_latency.record(ready - rsp.req.issued_at);
            if rsp.coalesced {
                self.stats.coalesced.inc();
            }
        }
        // Each multicast response consumes outbound bandwidth whether or
        // not anyone wanted it — the reason the paper rejects this design.
        if self.cfg.multicast {
            self.pec.multicast(out, now, &mut self.multicast_seq);
        }
    }

    /// Invalidates an IOMMU TLB entry (page migration / shootdown).
    pub fn invalidate(&mut self, asid: u16, vpn: Vpn) {
        if let Some(tlb) = &mut self.iommu_tlb {
            tlb.invalidate(TlbKey { asid, vpn });
        }
    }

    /// Number of in-flight walks.
    pub fn active_walks(&self) -> usize {
        self.walks.iter().flatten().count()
    }

    /// Whether the IOMMU is completely idle.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active_walks() == 0
    }

    /// Statistics.
    pub fn stats(&self) -> &IommuStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_core::driver::{BarreAllocator, MappingPlan};
    use barre_core::CoalInfo;
    use barre_mem::virt_alloc::VpnRange;
    use barre_mem::{ChipletId, FrameAllocator, PageTable};

    /// [`Iommu::dispatch`] into a fresh vector.
    fn dispatch(io: &mut Iommu, now: Cycle) -> Vec<(usize, Cycle)> {
        let mut started = Vec::new();
        io.dispatch(now, &mut started);
        started
    }

    /// [`Iommu::complete_walk`] into a fresh vector.
    fn complete(
        io: &mut Iommu,
        ptw: usize,
        now: Cycle,
        lookup: impl Fn(u16, Vpn) -> Option<Pte>,
    ) -> Vec<(Cycle, AtsResponse)> {
        let mut out = Vec::new();
        io.complete_walk(ptw, now, lookup, &mut out);
        out
    }

    fn req(id: u64, vpn: u64, at: Cycle) -> AtsRequest {
        AtsRequest {
            id,
            asid: 0,
            vpn: Vpn(vpn),
            chiplet: ChipletId((id % 4) as u8),
            issued_at: at,
        }
    }

    /// Builds a Barre-mapped page table for the Fig 7a data-1 layout and
    /// returns (page table, PEC entry).
    fn fig7a_table(mode: CoalMode, max_merged: u8) -> (PageTable, PecEntry) {
        let mut frames: Vec<FrameAllocator> = (0..4).map(|_| FrameAllocator::new(1024)).collect();
        let mut d = BarreAllocator::new(mode, max_merged);
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

    #[test]
    fn baseline_walk_latency() {
        let mut io = Iommu::new(IommuConfig::default());
        let (pt, _) = fig7a_table(CoalMode::Base, 1);
        assert!(io.enqueue(req(1, 0x1, 0)));
        let started = dispatch(&mut io, 0);
        assert_eq!(started.len(), 1);
        let (ptw, done) = started[0];
        assert_eq!(done, 500);
        let rsp = complete(&mut io, ptw, done, |a, v| pt.lookup(v).filter(|_| a == 0));
        assert_eq!(rsp.len(), 1);
        assert!(rsp[0].1.pfn.is_some());
        assert!(!rsp[0].1.coalesced);
        assert_eq!(io.stats().walks.get(), 1);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut io = Iommu::new(IommuConfig {
            pw_queue_entries: 2,
            ..IommuConfig::default()
        });
        assert!(io.enqueue(req(1, 0x1, 0)));
        assert!(io.enqueue(req(2, 0x2, 0)));
        assert!(!io.enqueue(req(3, 0x3, 0)));
        assert_eq!(io.stats().queue_rejections.get(), 1);
    }

    #[test]
    fn finite_ptws_limit_parallelism() {
        let mut io = Iommu::new(IommuConfig {
            ptws: Some(2),
            ..IommuConfig::default()
        });
        for i in 0..5 {
            io.enqueue(req(i, 0x10 + i, 0));
        }
        assert_eq!(dispatch(&mut io, 0).len(), 2);
        assert_eq!(io.active_walks(), 2);
        assert_eq!(io.queue.len(), 3);
    }

    #[test]
    fn infinite_ptws_start_everything() {
        let mut io = Iommu::new(IommuConfig {
            ptws: None,
            ..IommuConfig::default()
        });
        for i in 0..40 {
            io.enqueue(req(i, 0x10 + i, 0));
        }
        assert_eq!(dispatch(&mut io, 0).len(), 40);
    }

    #[test]
    fn barre_coalesces_pending_requests() {
        let (pt, pec) = fig7a_table(CoalMode::Base, 1);
        let mut io = Iommu::new(IommuConfig {
            barre: true,
            ..IommuConfig::default()
        });
        io.register_pec(pec);
        // 0x1, 0x4, 0x7, 0xA are one group: walk 0x1, the rest pend.
        io.enqueue(req(1, 0x1, 0));
        let started = dispatch(&mut io, 0);
        assert_eq!(started.len(), 1);
        // These arrive while the walk is in flight (16 PTWs idle, but we
        // hold dispatch to model them still queued).
        io.enqueue(req(2, 0x4, 10));
        io.enqueue(req(3, 0xA, 10));
        io.enqueue(req(4, 0x2, 10)); // different group
        let rsp = complete(&mut io, started[0].0, 500, |_, v| pt.lookup(v));
        let coalesced: Vec<u64> = rsp
            .iter()
            .filter(|(_, r)| r.coalesced)
            .map(|(_, r)| r.req.vpn.0)
            .collect();
        assert_eq!(coalesced, vec![0x4, 0xA]);
        // The different-group request stays queued.
        assert_eq!(io.queue.len(), 1);
        // Calculated PFNs match the table.
        for (_, r) in &rsp {
            assert_eq!(r.pfn.unwrap(), pt.lookup(r.req.vpn).unwrap().pfn());
        }
        // Calculated responses carry their own inter order.
        let r4 = rsp.iter().find(|(_, r)| r.req.vpn == Vpn(0x4)).unwrap();
        let i4 = CoalInfo::decode(r4.1.coal_bits, CoalMode::Base).unwrap();
        assert_eq!(i4.inter_order(), 1);
        assert_eq!(io.stats().coalesced.get(), 2);
    }

    #[test]
    fn pec_entry_shipped_only_when_configured() {
        let (pt, pec) = fig7a_table(CoalMode::Base, 1);
        for ship in [false, true] {
            let mut io = Iommu::new(IommuConfig {
                barre: true,
                ship_pec_entry: ship,
                ..IommuConfig::default()
            });
            io.register_pec(pec);
            io.enqueue(req(1, 0x1, 0));
            let s = dispatch(&mut io, 0);
            let rsp = complete(&mut io, s[0].0, 500, |_, v| pt.lookup(v));
            assert_eq!(rsp[0].1.pec_entry.is_some(), ship);
        }
    }

    #[test]
    fn coalescing_sched_rotates_coalescible_head() {
        let (pt, pec) = fig7a_table(CoalMode::Base, 1);
        let mut io = Iommu::new(IommuConfig {
            barre: true,
            coalescing_sched: true,
            ptws: Some(1),
            ..IommuConfig::default()
        });
        io.register_pec(pec);
        io.enqueue(req(1, 0x1, 0));
        let s1 = dispatch(&mut io, 0);
        assert_eq!(s1.len(), 1);
        // 0x4 (same group as in-flight 0x1) sits at the head; 0x2 behind.
        io.enqueue(req(2, 0x4, 1));
        io.enqueue(req(3, 0x2, 1));
        // The single PTW frees at 500; the scheduler should skip 0x4 and
        // walk 0x2 instead.
        let rsp = complete(&mut io, s1[0].0, 500, |_, v| pt.lookup(v));
        // 0x4 got coalesced already by the completing walk...
        assert!(rsp
            .iter()
            .any(|(_, r)| r.req.vpn == Vpn(0x4) && r.coalesced));
        let s2 = dispatch(&mut io, 500);
        assert_eq!(s2.len(), 1);
        // ...so the next walk is 0x2 regardless; but the rotation stat
        // only moves when a coalescible head is skipped while its walk is
        // still active. Exercise that path directly:
        io.enqueue(req(4, 0x5, 501)); // same group as in-flight 0x2
        io.enqueue(req(5, 0xA1, 501)); // unrelated
                                       // no free PTWs -> nothing started
        assert!(dispatch(&mut io, 501).is_empty());
        let rsp2 = complete(&mut io, s2[0].0, 1000, |_, v| pt.lookup(v));
        assert!(rsp2
            .iter()
            .any(|(_, r)| r.req.vpn == Vpn(0x5) && r.coalesced));
    }

    #[test]
    fn iommu_tlb_hits_skip_walks() {
        let (pt, _) = fig7a_table(CoalMode::Base, 1);
        let mut io = Iommu::new(IommuConfig {
            iommu_tlb: Some((64, 4, 200)),
            ..IommuConfig::default()
        });
        // First translation: TLB miss, 200 + 500 cycles.
        io.enqueue(req(1, 0x1, 0));
        let s = dispatch(&mut io, 0);
        assert_eq!(s[0].1, 700);
        complete(&mut io, s[0].0, 700, |_, v| pt.lookup(v));
        // Second translation of the same page: 200-cycle TLB hit.
        io.enqueue(req(2, 0x1, 1000));
        let s = dispatch(&mut io, 1000);
        assert_eq!(s[0].1, 1200);
        let rsp = complete(&mut io, s[0].0, 1200, |_, v| pt.lookup(v));
        assert!(rsp[0].1.iommu_tlb_hit);
        assert_eq!(io.stats().walks.get(), 1);
        assert_eq!(io.stats().iommu_tlb.hits(), 1);
        // Invalidation forces a fresh walk.
        io.invalidate(0, Vpn(0x1));
        io.enqueue(req(3, 0x1, 2000));
        let s = dispatch(&mut io, 2000);
        assert_eq!(s[0].1, 2700);
    }

    #[test]
    fn unmapped_vpn_faults() {
        let mut io = Iommu::new(IommuConfig::default());
        let pt = PageTable::new(0);
        io.enqueue(req(1, 0x1, 0));
        let s = dispatch(&mut io, 0);
        let rsp = complete(&mut io, s[0].0, 500, |_, v| pt.lookup(v));
        assert!(rsp[0].1.pfn.is_none());
    }

    #[test]
    fn vpn_gap_histogram_records() {
        let mut io = Iommu::new(IommuConfig::default());
        io.enqueue(req(1, 0x100, 0));
        io.enqueue(req(2, 0x104, 0));
        io.enqueue(req(3, 0x100, 0));
        assert_eq!(io.stats().vpn_gap.count(), 2);
        assert_eq!(io.stats().vpn_gap.max(), 4);
    }

    #[test]
    fn expanded_mode_coalesces_merged_runs() {
        let (pt, pec) = fig7a_table(CoalMode::Expanded, 2);
        let mut io = Iommu::new(IommuConfig {
            barre: true,
            coal_mode: CoalMode::Expanded,
            max_merged: 2,
            ..IommuConfig::default()
        });
        io.register_pec(pec);
        io.enqueue(req(1, 0x1, 0));
        let s = dispatch(&mut io, 0);
        // Pending: same-chiplet sibling 0x2 (merged run) and remote 0xB.
        io.enqueue(req(2, 0x2, 1));
        io.enqueue(req(3, 0xB, 1));
        let rsp = complete(&mut io, s[0].0, 500, |_, v| pt.lookup(v));
        let coalesced: Vec<u64> = rsp
            .iter()
            .filter(|(_, r)| r.coalesced)
            .map(|(_, r)| r.req.vpn.0)
            .collect();
        assert_eq!(coalesced, vec![0x2, 0xB]);
        for (_, r) in &rsp {
            assert_eq!(r.pfn.unwrap(), pt.lookup(r.req.vpn).unwrap().pfn());
        }
    }
}
