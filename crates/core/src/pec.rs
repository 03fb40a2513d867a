//! Page Entry Coalescing (PEC) logic and buffer (§IV-E, §IV-F, §V-B).
//!
//! A PEC logic sits next to each PTW (Barre) and inside each chiplet
//! (F-Barre). Given one translated PTE and the owning data's PEC-buffer
//! record, it enumerates the *coalescing VPNs* — the other pages of the
//! group — and calculates their physical frames without page table walks.

use std::ops::ControlFlow;

use barre_mem::{GlobalPfn, LocalPfn, Vpn};
use barre_sim::RatioStat;

use crate::encoding::{CoalInfo, CoalMode};
use crate::group::{GroupMember, PecEntry};

/// The shared PEC buffer: per-data records, smallest-data eviction
/// (§IV-E: "a new data overwrites an entry having smaller data's
/// information").
#[derive(Debug, Clone)]
pub struct PecBuffer {
    entries: Vec<PecEntry>,
    capacity: usize,
    lookups: RatioStat,
    evictions: u64,
}

impl PecBuffer {
    /// Creates a buffer with `capacity` entries (the paper uses 5).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PEC buffer needs at least one entry");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            lookups: RatioStat::new(),
            evictions: 0,
        }
    }

    /// The paper's 5-entry configuration.
    pub fn paper_default() -> Self {
        Self::new(5)
    }

    /// Registers a data object's record. If a record for the same range
    /// exists it is replaced in place; if the buffer is full, the entry
    /// describing the smallest data is overwritten (and only if the new
    /// data is at least as large — otherwise the new record is dropped).
    /// Returns whether the record was retained.
    pub fn insert(&mut self, entry: PecEntry) -> bool {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.asid == entry.asid && e.range.start == entry.range.start)
        {
            *e = entry;
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return true;
        }
        // The buffer is at capacity here, and capacity is nonzero, so a
        // smallest entry exists; treat an empty buffer as room to push.
        let Some((idx, smallest)) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.pages())
            .map(|(i, e)| (i, e.pages()))
        else {
            self.entries.push(entry);
            return true;
        };
        if entry.pages() >= smallest {
            self.entries[idx] = entry;
            self.evictions += 1;
            true
        } else {
            false
        }
    }

    /// The record covering `(asid, vpn)`, if resident.
    pub fn lookup(&mut self, asid: u16, vpn: Vpn) -> Option<&PecEntry> {
        let found = self.entries.iter().find(|e| e.contains(asid, vpn));
        self.lookups.record(found.is_some());
        found
    }

    /// Like [`lookup`](Self::lookup) but without touching statistics.
    pub fn peek(&self, asid: u16, vpn: Vpn) -> Option<&PecEntry> {
        self.entries.iter().find(|e| e.contains(asid, vpn))
    }

    /// Resident record count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no records are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hit/miss statistics.
    pub fn stats(&self) -> RatioStat {
        self.lookups
    }

    /// Records overwritten by larger data.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Forcibly discards the resident record at `index % len`, returning
    /// it. Fault injection uses this to model PEC-buffer corruption —
    /// affected pages fall back to conventional walks until the record
    /// is re-learned. Returns `None` on an empty buffer.
    pub fn evict_at(&mut self, index: usize) -> Option<PecEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let i = index % self.entries.len();
        self.evictions += 1;
        Some(self.entries.remove(i))
    }
}

/// The PEC calculation unit: two comparators and a small ALU in hardware;
/// here, the group-membership and PFN arithmetic of §IV-F and §V-B.
#[derive(Debug, Clone, Copy)]
pub struct PecLogic {
    mode: CoalMode,
}

impl PecLogic {
    /// Creates a logic for the platform's PTE layout.
    pub fn new(mode: CoalMode) -> Self {
        Self { mode }
    }

    /// The PTE layout in force.
    pub fn mode(&self) -> CoalMode {
        self.mode
    }

    /// Enumerates every member of the coalescing group of a translated
    /// PTE (`pte_vpn`, `info`), including the PTE's own page. Returns an
    /// empty vector if the PTE's position is inconsistent with `entry`
    /// (stale PEC record for a different layout — calculation must then
    /// be declined rather than produce a wrong frame).
    pub fn members(&self, pte_vpn: Vpn, info: &CoalInfo, entry: &PecEntry) -> Vec<GroupMember> {
        let mut out = Vec::new();
        self.for_each_member(pte_vpn, info, entry, |m| {
            out.push(m);
            ControlFlow::Continue(())
        });
        out
    }

    /// Visitor form of [`members`](Self::members): enumerates the group
    /// members in the same order without allocating, stopping early when
    /// the visitor breaks. This is the hot-path entry point — the
    /// simulator's per-miss probe must not heap-allocate.
    pub fn for_each_member<F>(&self, pte_vpn: Vpn, info: &CoalInfo, entry: &PecEntry, mut f: F)
    where
        F: FnMut(GroupMember) -> ControlFlow<()>,
    {
        let Some(coords) = entry.coords(pte_vpn) else {
            return;
        };
        if coords.inter != info.inter_order() {
            return;
        }
        let run_len = info.merged_groups() as u64;
        let intra_pte = info.intra_order() as u64;
        if intra_pte > coords.intra {
            return;
        }
        // A merged run never crosses a chiplet chunk boundary; a PTE that
        // claims otherwise is inconsistent with this PEC record.
        let run_start = coords.intra - intra_pte;
        if run_start + run_len > entry.gran {
            return;
        }
        // First VPN of the (merged) group: VPN_PTE − intra_order −
        // interlv_gran × inter_order (§V-B), generalized to any round.
        let Some(first) =
            pte_vpn.offset(-((intra_pte + entry.gran * info.inter_order() as u64) as i64))
        else {
            return;
        };
        for k in 0..entry.gpu_map.sharers() as u8 {
            let Some(chiplet) = entry.gpu_map.chiplet_at(k as usize) else {
                continue;
            };
            if !info.participates_position(k, chiplet) {
                continue;
            }
            for j in 0..run_len {
                let vpn = Vpn(first.0 + entry.gran * k as u64 + j);
                if !entry.range.contains(vpn) {
                    continue;
                }
                let m = GroupMember {
                    vpn,
                    inter_order: k,
                    intra_order: j as u8,
                    chiplet,
                };
                if f(m).is_break() {
                    return;
                }
            }
        }
    }

    /// The PFN calculator: `pending`'s physical frame, the frame half of
    /// [`calculate`](Self::calculate).
    pub fn calc_pfn(
        &self,
        pte_vpn: Vpn,
        pte_pfn: GlobalPfn,
        info: &CoalInfo,
        entry: &PecEntry,
        pending: Vpn,
    ) -> Option<GlobalPfn> {
        self.calculate(pte_vpn, pte_pfn, info, entry, pending)
            .map(|(pfn, _)| pfn)
    }

    /// Calculates `pending`'s translation from one translated `(pte_vpn,
    /// pte_pfn, info)` of the same group: its frame and the coalescing
    /// bits of its own PTE ([`member_bits`](Self::member_bits)) —
    /// everything a calculated TLB entry holds. `None` when `pending` is
    /// not in the group.
    ///
    /// The frame follows the §V-B equation `PFN_pending = PFN_PTE −
    /// base_PFN_PTE − intra_PTE + base_PFN_pending + intra_pending`,
    /// which for the base format degenerates to "same local PFN, pending
    /// chiplet's base".
    pub fn calculate(
        &self,
        pte_vpn: Vpn,
        pte_pfn: GlobalPfn,
        info: &CoalInfo,
        entry: &PecEntry,
        pending: Vpn,
    ) -> Option<(GlobalPfn, u16)> {
        let mut member = None;
        self.for_each_member(pte_vpn, info, entry, |m| {
            if m.vpn != pending {
                return ControlFlow::Continue(());
            }
            member = Some(m);
            ControlFlow::Break(())
        });
        self.translate_member(pte_pfn, info, &member?)
    }

    /// The translation of `member`, calculated from one translated page
    /// (`pte_pfn`, `info`) of its group: [`calculate`](Self::calculate)
    /// for a member already enumerated, so a caller that answers many
    /// pending requests from one walk enumerates the group once.
    pub fn translate_member(
        &self,
        pte_pfn: GlobalPfn,
        info: &CoalInfo,
        member: &GroupMember,
    ) -> Option<(GlobalPfn, u16)> {
        let run_base = pte_pfn.local().0.checked_sub(info.intra_order() as u64)?;
        let local = LocalPfn(run_base + member.intra_order as u64);
        let pfn = GlobalPfn::compose(member.chiplet, local);
        Some((pfn, self.member_bits(info, member)))
    }

    /// The coalescing bits of `member`'s own PTE, re-encoded from the
    /// decoded bits `info` of any translated page of its group: the
    /// member's inter/intra orders, the same participation and run
    /// length. A calculated TLB entry must carry these. With the
    /// translated page's bits instead, its inter order contradicts its
    /// position, so [`for_each_member`](Self::for_each_member) declines
    /// it: the entry could neither be advertised to peer filters nor
    /// serve as a calculation source.
    pub fn member_bits(&self, info: &CoalInfo, member: &GroupMember) -> u16 {
        let mut own = *info;
        match &mut own {
            CoalInfo::Base { inter_order, .. } | CoalInfo::Wide { inter_order, .. } => {
                *inter_order = member.inter_order;
            }
            CoalInfo::Expanded {
                inter_order,
                intra_order,
                ..
            } => {
                *inter_order = member.inter_order;
                *intra_order = member.intra_order;
            }
        }
        own.encode()
    }

    /// Visits every VPN that *could* share a coalescing group with `vpn`,
    /// derived from the data's PEC record alone (no translated PTE) — the
    /// candidate set a chiplet probes its LCF with on an L2 TLB miss
    /// (§V-A3: "coalescing VPNs can be calculated by decrementing or
    /// incrementing the requested VPN by interlv_gran"). Conservative
    /// under group expansion: run alignment is unknown until a PTE is
    /// seen, so every offset below the merge limit is a candidate.
    /// `vpn` itself is excluded. No allocation; the visit stops early
    /// when the visitor breaks (the LCF probe stops at the first
    /// confirmed hit).
    pub fn for_each_candidate<F>(&self, entry: &PecEntry, vpn: Vpn, max_merged: u8, mut f: F)
    where
        F: FnMut(Vpn) -> ControlFlow<()>,
    {
        let Some(c) = entry.coords(vpn) else {
            return;
        };
        let sharers = entry.gpu_map.sharers() as i64;
        let merge = match self.mode {
            CoalMode::Expanded => max_merged.max(1) as i64,
            _ => 1,
        };
        for dk in -(sharers - 1)..sharers {
            for dj in -(merge - 1)..merge {
                if dk == 0 && dj == 0 {
                    continue;
                }
                let inter = c.inter as i64 + dk;
                let intra = c.intra as i64 + dj;
                if inter < 0 || inter >= sharers || intra < 0 || intra >= entry.gran as i64 {
                    continue;
                }
                if let Some(w) = entry.vpn_at(crate::group::GroupCoords {
                    round: c.round,
                    inter: inter as u8,
                    intra: intra as u64,
                }) {
                    if f(w).is_break() {
                        return;
                    }
                }
            }
        }
    }

    /// Scheduler-side coalescibility estimate **without** a translated PTE
    /// (§V-C): would `a` and `b` land in the same coalescing group, given
    /// only the data's PEC record and the platform's merge limit? Used by
    /// coalescing-aware PTW scheduling to de-prioritize requests that an
    /// in-flight walk will cover.
    pub fn likely_same_group(&self, entry: &PecEntry, a: Vpn, b: Vpn, max_merged: u8) -> bool {
        let (Some(ca), Some(cb)) = (entry.coords(a), entry.coords(b)) else {
            return false;
        };
        if ca.round != cb.round {
            return false;
        }
        match self.mode {
            CoalMode::Base | CoalMode::Wide => ca.intra == cb.intra && ca.inter != cb.inter,
            CoalMode::Expanded => {
                let d = ca.intra.abs_diff(cb.intra);
                d < max_merged.max(1) as u64 && (ca.inter, ca.intra) != (cb.inter, cb.intra)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_mem::virt_alloc::VpnRange;
    use barre_mem::ChipletId;

    use crate::group::GpuMap;

    fn data1() -> PecEntry {
        // Fig 7a / Example 3: VPNs 0x1..=0xC, gran 3, linear over 4 GPUs.
        PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            GpuMap::linear(4),
        )
    }

    fn logic() -> PecLogic {
        PecLogic::new(CoalMode::Base)
    }

    /// Every candidate [`PecLogic::for_each_candidate`] visits, sorted.
    fn candidates(logic: PecLogic, entry: &PecEntry, vpn: Vpn, max_merged: u8) -> Vec<u64> {
        let mut v = Vec::new();
        logic.for_each_candidate(entry, vpn, max_merged, |w| {
            v.push(w.0);
            ControlFlow::Continue(())
        });
        v.sort();
        v
    }

    #[test]
    fn example4_pfn_calculation() {
        // Paper Example 4: a PTW translates VPN 0x4 -> GPU1 local 0x75.
        // Pending 0xA is in the same group; its PFN must be GPU3 + 0x75.
        let entry = data1();
        let info = CoalInfo::Base {
            bitmap: 0b1111,
            inter_order: 1,
        };
        let pte_pfn = GlobalPfn::compose(ChipletId(1), LocalPfn(0x75));
        let pfn = logic()
            .calc_pfn(Vpn(0x4), pte_pfn, &info, &entry, Vpn(0xA))
            .unwrap();
        assert_eq!(pfn, GlobalPfn::compose(ChipletId(3), LocalPfn(0x75)));
    }

    #[test]
    fn example4_membership_enumeration() {
        let entry = data1();
        let info = CoalInfo::Base {
            bitmap: 0b1111,
            inter_order: 1,
        };
        let members = logic().members(Vpn(0x4), &info, &entry);
        let vpns: Vec<u64> = members.iter().map(|m| m.vpn.0).collect();
        // Group of 0x4 (chunk offset 0): 0x1, 0x4, 0x7, 0xA.
        assert_eq!(vpns, vec![0x1, 0x4, 0x7, 0xA]);
        assert_eq!(members[3].chiplet, ChipletId(3));
        assert_eq!(members[3].inter_order, 3);
    }

    #[test]
    fn non_member_is_rejected() {
        let entry = data1();
        let info = CoalInfo::Base {
            bitmap: 0b1111,
            inter_order: 1,
        };
        let pte_pfn = GlobalPfn::compose(ChipletId(1), LocalPfn(0x75));
        // 0x5 is in the data but a different group (chunk offset 1).
        assert!(logic()
            .calc_pfn(Vpn(0x4), pte_pfn, &info, &entry, Vpn(0x5))
            .is_none());
        // 0x20 is outside the data range entirely.
        assert!(logic()
            .calc_pfn(Vpn(0x4), pte_pfn, &info, &entry, Vpn(0x20))
            .is_none());
    }

    #[test]
    fn excluded_chiplet_is_not_calculated() {
        let entry = data1();
        // GPU3 migrated its page away: bit 3 cleared.
        let info = CoalInfo::Base {
            bitmap: 0b0111,
            inter_order: 1,
        };
        let pte_pfn = GlobalPfn::compose(ChipletId(1), LocalPfn(0x75));
        assert!(logic()
            .calc_pfn(Vpn(0x4), pte_pfn, &info, &entry, Vpn(0xA))
            .is_none());
        // Remaining members still work.
        assert!(logic()
            .calc_pfn(Vpn(0x4), pte_pfn, &info, &entry, Vpn(0x7))
            .is_some());
    }

    #[test]
    fn stale_entry_declines_calculation() {
        let entry = data1();
        // inter_order disagrees with the VPN's actual position.
        let info = CoalInfo::Base {
            bitmap: 0b1111,
            inter_order: 2,
        };
        assert!(logic().members(Vpn(0x4), &info, &entry).is_empty());
    }

    #[test]
    fn expanded_walkthrough_fig13() {
        // 2 merged groups, gran 3, 4 chiplets: each chiplet holds VPN runs
        // of length 2 at local frames L, L+1.
        let entry = data1();
        let logic = PecLogic::new(CoalMode::Expanded);
        // PTE for VPN 0x5 = chunk offset 1 on GPU1, i.e. run j=1,
        // inter 1, at local 0x31 (run base 0x30).
        let info = CoalInfo::Expanded {
            bitmap: 0b1111,
            inter_order: 1,
            intra_order: 1,
            merged: 1,
        };
        let pte_pfn = GlobalPfn::compose(ChipletId(1), LocalPfn(0x31));
        let members = logic.members(Vpn(0x5), &info, &entry);
        // Every chiplet contributes 2 pages: 8 members.
        assert_eq!(members.len(), 8);
        // Pending 0xA (GPU3, j=0) -> GPU3 local 0x30.
        let pfn = logic
            .calc_pfn(Vpn(0x5), pte_pfn, &info, &entry, Vpn(0xA))
            .unwrap();
        assert_eq!(pfn, GlobalPfn::compose(ChipletId(3), LocalPfn(0x30)));
        // Pending 0xB (GPU3, j=1) -> GPU3 local 0x31.
        let pfn = logic
            .calc_pfn(Vpn(0x5), pte_pfn, &info, &entry, Vpn(0xB))
            .unwrap();
        assert_eq!(pfn, GlobalPfn::compose(ChipletId(3), LocalPfn(0x31)));
        // Same-chiplet sibling 0x4 (GPU1, j=0) -> GPU1 local 0x30.
        let pfn = logic
            .calc_pfn(Vpn(0x5), pte_pfn, &info, &entry, Vpn(0x4))
            .unwrap();
        assert_eq!(pfn, GlobalPfn::compose(ChipletId(1), LocalPfn(0x30)));
    }

    #[test]
    fn expanded_respects_data_tail() {
        // 2 chiplets, gran 2, but only 3 pages: GPU1's chunk has 1 page.
        let entry = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x10),
                pages: 3,
            },
            2,
            GpuMap::linear(2),
        );
        let logic = PecLogic::new(CoalMode::Expanded);
        let info = CoalInfo::Expanded {
            bitmap: 0b11,
            inter_order: 0,
            intra_order: 0,
            merged: 1,
        };
        let members = logic.members(Vpn(0x10), &info, &entry);
        let vpns: Vec<u64> = members.iter().map(|m| m.vpn.0).collect();
        // GPU0 run: 0x10, 0x11; GPU1 run truncated to 0x12.
        assert_eq!(vpns, vec![0x10, 0x11, 0x12]);
    }

    #[test]
    fn multi_round_groups_do_not_cross_rounds() {
        // 2 chiplets, gran 1, 4 pages => rounds 0 and 1.
        let entry = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x20),
                pages: 4,
            },
            1,
            GpuMap::linear(2),
        );
        let info = CoalInfo::Base {
            bitmap: 0b11,
            inter_order: 0,
        };
        // PTE for 0x20 (round 0): group is {0x20, 0x21} only — 0x22/0x23
        // are round 1 and must not be claimed.
        let members = logic().members(Vpn(0x20), &info, &entry);
        let vpns: Vec<u64> = members.iter().map(|m| m.vpn.0).collect();
        assert_eq!(vpns, vec![0x20, 0x21]);
    }

    #[test]
    fn likely_same_group_heuristic() {
        let entry = data1();
        let l = logic();
        // 0x4 and 0xA: same chunk offset, different chunks — coalescible.
        assert!(l.likely_same_group(&entry, Vpn(0x4), Vpn(0xA), 1));
        // 0x4 and 0x5: same chiplet chunk — not coalescible in base mode.
        assert!(!l.likely_same_group(&entry, Vpn(0x4), Vpn(0x5), 1));
        // Same VPN: not "another" request.
        assert!(!l.likely_same_group(&entry, Vpn(0x4), Vpn(0x4), 1));
        // Expanded mode tolerates intra deltas below the merge limit.
        let le = PecLogic::new(CoalMode::Expanded);
        assert!(le.likely_same_group(&entry, Vpn(0x4), Vpn(0x5), 2));
        assert!(!le.likely_same_group(&entry, Vpn(0x4), Vpn(0x6), 2));
    }

    #[test]
    fn candidates_base_mode_are_group_peers() {
        let entry = data1();
        assert_eq!(
            candidates(logic(), &entry, Vpn(0x4), 1),
            vec![0x1, 0x7, 0xA]
        );
    }

    #[test]
    fn candidates_expanded_include_run_neighbors() {
        let entry = data1();
        let le = PecLogic::new(CoalMode::Expanded);
        let v = candidates(le, &entry, Vpn(0x4), 2);
        // Positions ±1 intra around each group peer plus the local
        // sibling 0x5 (0x4 is chunk start: intra-1 is out of range).
        assert_eq!(v, vec![0x1, 0x2, 0x5, 0x7, 0x8, 0xA, 0xB]);
    }

    #[test]
    fn candidates_outside_data_are_empty() {
        let entry = data1();
        assert!(candidates(logic(), &entry, Vpn(0x40), 1).is_empty());
    }

    #[test]
    fn calculated_members_carry_their_own_bits() {
        // Expanded Fig 13 walkthrough: PTE 0x5 (GPU1, j=1) calculates
        // 0xA (GPU3, j=0) at GPU3 local 0x30.
        let entry = data1();
        let logic = PecLogic::new(CoalMode::Expanded);
        let info = CoalInfo::Expanded {
            bitmap: 0b1111,
            inter_order: 1,
            intra_order: 1,
            merged: 1,
        };
        let pte_pfn = GlobalPfn::compose(ChipletId(1), LocalPfn(0x31));
        let (pfn, bits) = logic
            .calculate(Vpn(0x5), pte_pfn, &info, &entry, Vpn(0xA))
            .unwrap();
        assert_eq!(
            Some(pfn),
            logic.calc_pfn(Vpn(0x5), pte_pfn, &info, &entry, Vpn(0xA))
        );
        let own = CoalInfo::decode(bits, CoalMode::Expanded).unwrap();
        assert_eq!(
            own,
            CoalInfo::Expanded {
                bitmap: 0b1111,
                inter_order: 3,
                intra_order: 0,
                merged: 1,
            }
        );
        // The calculated entry is itself a valid source: its own group
        // enumeration matches the translated page's.
        assert_eq!(
            logic.members(Vpn(0xA), &own, &entry),
            logic.members(Vpn(0x5), &info, &entry)
        );
        // A non-member calculates nothing.
        assert!(logic
            .calculate(Vpn(0x5), pte_pfn, &info, &entry, Vpn(0x40))
            .is_none());
    }

    #[test]
    fn buffer_insert_lookup_evict() {
        let mut buf = PecBuffer::new(2);
        let small = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x100),
                pages: 2,
            },
            1,
            GpuMap::linear(2),
        );
        let mid = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x200),
                pages: 8,
            },
            2,
            GpuMap::linear(2),
        );
        let big = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x300),
                pages: 64,
            },
            8,
            GpuMap::linear(2),
        );
        assert!(buf.insert(small));
        assert!(buf.insert(mid));
        // Full: the big data overwrites the smallest record.
        assert!(buf.insert(big));
        assert_eq!(buf.evictions(), 1);
        assert!(buf.lookup(0, Vpn(0x100)).is_none());
        assert!(buf.lookup(0, Vpn(0x300)).is_some());
        // A tiny data cannot displace anything now.
        assert!(!buf.insert(small));
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn buffer_replaces_same_range_in_place() {
        let mut buf = PecBuffer::paper_default();
        let a = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            GpuMap::linear(4),
        );
        let a2 = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            GpuMap::linear(2),
        );
        buf.insert(a);
        buf.insert(a2);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.peek(0, Vpn(0x1)), Some(&a2));
    }

    #[test]
    fn buffer_respects_asid() {
        let mut buf = PecBuffer::paper_default();
        let a = PecEntry::new(
            7,
            VpnRange {
                start: Vpn(0x1),
                pages: 4,
            },
            1,
            GpuMap::linear(4),
        );
        buf.insert(a);
        assert!(buf.lookup(0, Vpn(0x1)).is_none());
        assert!(buf.lookup(7, Vpn(0x1)).is_some());
        assert_eq!(buf.stats().hits(), 1);
        assert_eq!(buf.stats().total(), 2);
    }
}
