//! The PEC calculation step every translation unit runs when a walk
//! completes (§IV-F): answer the walked request, then serve each pending
//! request of the walked PTE's coalescing group by calculation. The
//! IOMMU's walkers and MGvm's per-chiplet GMMU walkers (§VII-F) share
//! this one pass.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use barre_core::{CoalInfo, CoalMode, PecBuffer, PecEntry, PecLogic};
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

    /// Serves `walk` at `now`: the walked request's own response first,
    /// then, under Barre, a calculated response for each request in
    /// `queue` that is in the walked PTE's coalescing group. Those leave
    /// the queue in order, each ready `calc_latency` after the one
    /// before. `ship` attaches the data's PEC record to the responses
    /// (F-Barre chiplets learn it from them). The group source comes
    /// back too, for callers that calculate further members.
    pub fn complete(
        &mut self,
        walk: WalkedPte,
        now: Cycle,
        ship: bool,
        queue: &mut VecDeque<AtsRequest>,
    ) -> (Vec<(Cycle, AtsResponse)>, Option<GroupSource>) {
        let coal_bits = walk.pte.filter(|_| self.barre).map_or(0, Pte::coal_bits);
        let info = if self.barre {
            CoalInfo::decode(coal_bits, self.logic.mode())
        } else {
            None
        };
        let entry = info.and_then(|_| self.buffer.lookup(walk.req.asid, walk.req.vpn).cloned());
        let mut out = vec![(
            now,
            AtsResponse {
                req: walk.req,
                pfn: walk.pte.map(Pte::pfn),
                coal_bits,
                pec_entry: if ship { entry.clone() } else { None },
                coalesced: false,
                iommu_tlb_hit: walk.tlb_hit,
                walk_started_at: walk.started_at,
            },
        )];
        let (Some(info), Some(entry), Some(pte)) = (info, entry, walk.pte) else {
            return (out, None);
        };
        let source = GroupSource {
            logic: self.logic,
            walked: walk.req,
            pfn: pte.pfn(),
            info,
            entry,
            started_at: walk.started_at,
            ship,
            calc_latency: self.calc_latency,
        };
        let mut ready = now;
        queue.retain(|&pending| match source.respond(pending) {
            Some(resp) => {
                ready += self.calc_latency;
                out.push((ready, resp));
                false
            }
            None => true,
        });
        (out, Some(source))
    }
}

/// One walked PTE with its data's PEC record: the source of every
/// calculated translation in its coalescing group.
#[derive(Debug)]
pub struct GroupSource {
    logic: PecLogic,
    walked: AtsRequest,
    pfn: GlobalPfn,
    info: CoalInfo,
    entry: PecEntry,
    started_at: Cycle,
    ship: bool,
    calc_latency: Cycle,
}

impl GroupSource {
    /// Speculative multicast (§IV-B): appends to `out` a calculated
    /// response for every group member `out` does not answer yet,
    /// addressed to the member's owning chiplet under a synthetic id
    /// counted down from `u64::MAX` by `seq`. Each is ready
    /// `calc_latency` after the last response in `out`.
    pub fn multicast(&self, out: &mut Vec<(Cycle, AtsResponse)>, now: Cycle, seq: &mut u64) {
        let mut ready = out.last().map_or(now, |&(r, _)| r);
        let walked = self.walked;
        self.logic
            .for_each_member(walked.vpn, &self.info, &self.entry, |m| {
                if out.iter().any(|(_, r)| r.req.vpn == m.vpn) {
                    return ControlFlow::Continue(());
                }
                let req = AtsRequest {
                    id: u64::MAX - (*seq + 1),
                    asid: walked.asid,
                    vpn: m.vpn,
                    chiplet: m.chiplet,
                    issued_at: now,
                };
                if let Some(rsp) = self.respond(req) {
                    *seq += 1;
                    ready += self.calc_latency;
                    out.push((ready, rsp));
                }
                ControlFlow::Continue(())
            });
    }

    /// The calculated response to `req`, with its frame and the
    /// coalescing bits of its own PTE; `None` when `req` is not in the
    /// group.
    fn respond(&self, req: AtsRequest) -> Option<AtsResponse> {
        if req.asid != self.walked.asid {
            return None;
        }
        let (pfn, coal_bits) =
            self.logic
                .calculate(self.walked.vpn, self.pfn, &self.info, &self.entry, req.vpn)?;
        Some(AtsResponse {
            req,
            pfn: Some(pfn),
            coal_bits,
            pec_entry: self.ship.then(|| self.entry.clone()),
            coalesced: true,
            iommu_tlb_hit: false,
            walk_started_at: self.started_at,
        })
    }
}
