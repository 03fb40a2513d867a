//! The PEC calculation step every translation unit runs when a walk
//! completes (§IV-F): answer the walked request, then serve each pending
//! request of the walked PTE's coalescing group by calculation. The
//! IOMMU's walkers and MGvm's per-chiplet GMMU walkers (§VII-F) share
//! this one pass.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use barre_core::{CoalInfo, CoalMode, GroupMember, PecBuffer, PecEntry, PecLogic};
use barre_mem::{GlobalPfn, Pte};
use barre_sim::Cycle;

use crate::ats::{AtsRequest, AtsResponse};

/// A finished walk: the request, its leaf PTE (`None` on a translation
/// fault), when the walker took it, and whether an IOMMU TLB hit
/// answered it.
#[derive(Debug, Clone, Copy)]
pub struct WalkedPte {
    pub req: AtsRequest,
    pub pte: Option<Pte>,
    pub started_at: Cycle,
    pub tlb_hit: bool,
}

/// The PEC logic and PEC buffer attached to one unit's walkers.
#[derive(Debug)]
pub struct PecUnit {
    logic: PecLogic,
    buffer: PecBuffer,
    /// Whether Barre's PEC calculation is active.
    barre: bool,
    /// Serial delay per calculated response.
    calc_latency: Cycle,
    /// The coalescing group of the last completed walk, if it had one.
    group: Option<GroupSource>,
    /// That group's members in enumeration order (reused buffer).
    members: Vec<GroupMember>,
}

/// One walked PTE with its data's PEC record: the source of every
/// calculated translation in its coalescing group.
#[derive(Debug, Clone, Copy)]
struct GroupSource {
    walked: AtsRequest,
    pfn: GlobalPfn,
    info: CoalInfo,
    entry: PecEntry,
    started_at: Cycle,
    ship: bool,
}

impl PecUnit {
    /// A unit for PTE layout `mode` with a `buffer_entries`-entry PEC
    /// buffer; it calculates only when `barre` is set.
    pub fn new(barre: bool, mode: CoalMode, buffer_entries: usize, calc_latency: Cycle) -> Self {
        Self {
            logic: PecLogic::new(mode),
            buffer: PecBuffer::new(buffer_entries),
            barre,
            calc_latency,
            group: None,
            members: Vec::new(),
        }
    }

    /// Registers a data object's PEC record.
    pub fn register(&mut self, entry: PecEntry) {
        self.buffer.insert(entry);
    }

    /// Whether the in-flight walk of `walking` will likely serve `pending`
    /// by calculation — §V-C's coalescibility estimate, made from the PEC
    /// record alone because no PTE is translated yet.
    pub fn covers(&self, walking: &AtsRequest, pending: &AtsRequest, max_merged: u8) -> bool {
        walking.asid == pending.asid
            && self
                .buffer
                .peek(pending.asid, pending.vpn)
                .is_some_and(|entry| {
                    self.logic
                        .likely_same_group(entry, walking.vpn, pending.vpn, max_merged)
                })
    }

    /// Serves `walk` at `now`, replacing `out` with the responses: the
    /// walked request's own response first,
    /// then, under Barre, a calculated response for each request in
    /// `queue` that is in the walked PTE's coalescing group. Those leave
    /// the queue in order, each ready `calc_latency` after the one
    /// before. `ship` attaches the data's PEC record to the responses
    /// (F-Barre chiplets learn it from them).
    ///
    /// The group is enumerated once; each pending request is then
    /// answered by matching its VPN against the members. The group stays
    /// with the unit for [`multicast`](Self::multicast).
    pub fn complete(
        &mut self,
        walk: WalkedPte,
        now: Cycle,
        ship: bool,
        queue: &mut VecDeque<AtsRequest>,
        out: &mut Vec<(Cycle, AtsResponse)>,
    ) {
        self.group = None;
        self.members.clear();
        out.clear();
        let coal_bits = walk.pte.filter(|_| self.barre).map_or(0, Pte::coal_bits);
        let info = if self.barre {
            CoalInfo::decode(coal_bits, self.logic.mode())
        } else {
            None
        };
        let entry = info.and_then(|_| self.buffer.lookup(walk.req.asid, walk.req.vpn).copied());
        out.push((
            now,
            AtsResponse {
                req: walk.req,
                pfn: walk.pte.map(Pte::pfn),
                coal_bits,
                pec_entry: entry.filter(|_| ship),
                coalesced: false,
                iommu_tlb_hit: walk.tlb_hit,
                walk_started_at: walk.started_at,
            },
        ));
        let (Some(info), Some(entry), Some(pte)) = (info, entry, walk.pte) else {
            return;
        };
        let source = GroupSource {
            walked: walk.req,
            pfn: pte.pfn(),
            info,
            entry,
            started_at: walk.started_at,
            ship,
        };
        let members = &mut self.members;
        self.logic
            .for_each_member(walk.req.vpn, &info, &entry, |m| {
                members.push(m);
                ControlFlow::Continue(())
            });
        let mut ready = now;
        queue.retain(|&pending| {
            let member = self
                .members
                .iter()
                .find(|m| pending.asid == source.walked.asid && m.vpn == pending.vpn);
            match member.and_then(|m| source.respond(&self.logic, m, pending)) {
                Some(resp) => {
                    ready += self.calc_latency;
                    out.push((ready, resp));
                    false
                }
                None => true,
            }
        });
        self.group = Some(source);
    }

    /// Speculative multicast (§IV-B) of the last completed walk's group:
    /// appends to `out` a calculated response for every group member
    /// `out` does not answer yet, addressed to the member's owning
    /// chiplet under a synthetic id counted down from `u64::MAX` by
    /// `seq`. Each is ready `calc_latency` after the last response in
    /// `out`. Does nothing when that walk had no group.
    pub fn multicast(&self, out: &mut Vec<(Cycle, AtsResponse)>, now: Cycle, seq: &mut u64) {
        let Some(source) = &self.group else {
            return;
        };
        let mut ready = out.last().map_or(now, |&(r, _)| r);
        for m in &self.members {
            if out.iter().any(|(_, r)| r.req.vpn == m.vpn) {
                continue;
            }
            let req = AtsRequest {
                id: u64::MAX - (*seq + 1),
                asid: source.walked.asid,
                vpn: m.vpn,
                chiplet: m.chiplet,
                issued_at: now,
            };
            if let Some(rsp) = source.respond(&self.logic, m, req) {
                *seq += 1;
                ready += self.calc_latency;
                out.push((ready, rsp));
            }
        }
    }
}

impl GroupSource {
    /// The calculated response to `req` for group `member`, with its
    /// frame and the coalescing bits of its own PTE.
    fn respond(
        &self,
        logic: &PecLogic,
        member: &GroupMember,
        req: AtsRequest,
    ) -> Option<AtsResponse> {
        let (pfn, coal_bits) = logic.translate_member(self.pfn, &self.info, member)?;
        Some(AtsResponse {
            req,
            pfn: Some(pfn),
            coal_bits,
            pec_entry: self.ship.then_some(self.entry),
            coalesced: true,
            iommu_tlb_hit: false,
            walk_started_at: self.started_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_core::driver::{BarreAllocator, MappingPlan};
    use barre_mem::virt_alloc::VpnRange;
    use barre_mem::{ChipletId, FrameAllocator, PageTable, Vpn};
    use barre_sim::Rng;

    /// The per-request pass `complete` replaced, kept as the reference:
    /// one full `calculate` (group enumeration included) per pending
    /// request.
    fn reference_complete(
        unit: &mut PecUnit,
        walk: WalkedPte,
        now: Cycle,
        ship: bool,
        queue: &mut VecDeque<AtsRequest>,
    ) -> Vec<(Cycle, AtsResponse)> {
        let coal_bits = walk.pte.filter(|_| unit.barre).map_or(0, Pte::coal_bits);
        let info = if unit.barre {
            CoalInfo::decode(coal_bits, unit.logic.mode())
        } else {
            None
        };
        let entry = info.and_then(|_| unit.buffer.lookup(walk.req.asid, walk.req.vpn).copied());
        let mut out = vec![(
            now,
            AtsResponse {
                req: walk.req,
                pfn: walk.pte.map(Pte::pfn),
                coal_bits,
                pec_entry: if ship { entry } else { None },
                coalesced: false,
                iommu_tlb_hit: walk.tlb_hit,
                walk_started_at: walk.started_at,
            },
        )];
        let (Some(info), Some(entry), Some(pte)) = (info, entry, walk.pte) else {
            return out;
        };
        let mut ready = now;
        queue.retain(|&pending| {
            if pending.asid != walk.req.asid {
                return true;
            }
            let Some((pfn, coal_bits)) =
                unit.logic
                    .calculate(walk.req.vpn, pte.pfn(), &info, &entry, pending.vpn)
            else {
                return true;
            };
            ready += unit.calc_latency;
            out.push((
                ready,
                AtsResponse {
                    req: pending,
                    pfn: Some(pfn),
                    coal_bits,
                    pec_entry: ship.then_some(entry),
                    coalesced: true,
                    iommu_tlb_hit: false,
                    walk_started_at: walk.started_at,
                },
            ));
            false
        });
        out
    }

    /// 48 pages interleaved over 4 chiplets at `gran` 3, mapped by Barre.
    fn layout(mode: CoalMode, max_merged: u8) -> (PageTable, PecEntry) {
        let mut frames: Vec<FrameAllocator> = (0..4).map(|_| FrameAllocator::new(1024)).collect();
        let mut d = BarreAllocator::new(mode, max_merged);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x40),
                pages: 48,
            },
            3,
            &[ChipletId(2), ChipletId(0), ChipletId(3), ChipletId(1)],
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        let mut pt = PageTable::new(0);
        for (v, p) in out.ptes {
            pt.map(v, p);
        }
        (pt, out.pec)
    }

    #[test]
    fn one_enumeration_matches_per_request_calculation() {
        // Random pending queues — in-group members, other-ASID twins,
        // non-members, VPNs outside the data and duplicates — answered by
        // the single-enumeration pass and by the per-request reference.
        // Both MMUs' settings: the IOMMU without the record shipped
        // (Barre) and with it (F-Barre), the GMMU always with it.
        for (mode, merged) in [(CoalMode::Base, 1u8), (CoalMode::Expanded, 2)] {
            let (pt, entry) = layout(mode, merged);
            for ship in [false, true] {
                let mut fast = PecUnit::new(true, mode, 5, 2);
                let mut slow = PecUnit::new(true, mode, 5, 2);
                fast.register(entry);
                slow.register(entry);
                let mut rng = Rng::new(0x9EC0 ^ u64::from(ship) ^ u64::from(merged) << 4);
                let mut served = 0usize;
                // One response buffer for every round, as the IOMMU reuses it.
                let mut got = Vec::new();
                for round in 0..300u64 {
                    let mut queue = VecDeque::new();
                    for i in 0..rng.next_below(24) {
                        let vpn = match rng.next_below(8) {
                            0 => 0x20 + rng.next_below(0x20),
                            1 => 0x70 + rng.next_below(0x20),
                            _ => 0x40 + rng.next_below(48),
                        };
                        queue.push_back(AtsRequest {
                            id: round * 100 + i,
                            asid: u16::from(rng.next_below(6) == 0),
                            vpn: Vpn(vpn),
                            chiplet: ChipletId(rng.next_below(4) as u8),
                            issued_at: round,
                        });
                        if rng.next_below(5) == 0 {
                            let dup = queue.back().copied();
                            queue.extend(dup);
                        }
                    }
                    let vpn = Vpn(0x38 + rng.next_below(60));
                    let walk = WalkedPte {
                        req: AtsRequest {
                            id: round,
                            asid: 0,
                            vpn,
                            chiplet: ChipletId(0),
                            issued_at: round,
                        },
                        pte: pt.lookup(vpn),
                        started_at: round,
                        tlb_hit: false,
                    };
                    let mut q_fast = queue.clone();
                    fast.complete(walk, 1000 + round, ship, &mut q_fast, &mut got);
                    let want = reference_complete(&mut slow, walk, 1000 + round, ship, &mut queue);
                    assert_eq!(got, want, "{mode:?} ship {ship} round {round}");
                    assert_eq!(q_fast, queue, "{mode:?} ship {ship} round {round}");
                    served += got.len() - 1;
                }
                assert!(served > 100, "{mode:?}: only {served} calculated responses");
            }
        }
    }

    #[test]
    fn multicast_covers_the_members_the_queue_left() {
        let (pt, entry) = layout(CoalMode::Base, 1);
        let mut unit = PecUnit::new(true, CoalMode::Base, 5, 2);
        unit.register(entry);
        let walk = |vpn: u64| WalkedPte {
            req: AtsRequest {
                id: 1,
                asid: 0,
                vpn: Vpn(vpn),
                chiplet: ChipletId(0),
                issued_at: 0,
            },
            pte: pt.lookup(Vpn(vpn)),
            started_at: 0,
            tlb_hit: false,
        };
        let mut out = Vec::new();
        unit.complete(walk(0x40), 10, false, &mut VecDeque::new(), &mut out);
        let mut seq = 0;
        unit.multicast(&mut out, 10, &mut seq);
        // The walked page plus the three other members of its group.
        let vpns: Vec<u64> = out.iter().map(|(_, r)| r.req.vpn.0).collect();
        assert_eq!(vpns, vec![0x40, 0x43, 0x46, 0x49]);
        assert_eq!(seq, 3);
        assert_eq!(out.last().map(|&(r, _)| r), Some(16));
        // A walk without a group (outside the data) multicasts nothing.
        unit.complete(walk(0x10), 10, false, &mut VecDeque::new(), &mut out);
        unit.multicast(&mut out, 10, &mut seq);
        assert_eq!(out.len(), 1);
    }
}
