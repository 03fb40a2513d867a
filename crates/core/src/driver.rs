//! The Barre driver modification (§IV-G).
//!
//! The page-mapping policy (LASP & friends, in `barre-mapping`) decides
//! *which chiplet* each virtual page belongs to; this module decides *which
//! local frame*, enforcing the Barre invariant: pages at the same chunk
//! offset across sharer chiplets get the **same local PFN** ("we iterate
//! the available PFNs of one GPU chiplet and check if the PFN is also
//! available in the sharer chiplets").
//!
//! Under group expansion ([`CoalMode::Expanded`]) the search prefers runs
//! of up to `max_merged` *contiguous* commonly-free frames, falling back to
//! shorter runs and finally to single frames; when not even a single
//! common frame exists, pages are mapped individually with the driver's
//! default allocator ("we fall back to the driver's default memory
//! allocation") and carry no coalescing bits.

use barre_mem::virt_alloc::VpnRange;
use barre_mem::{ChipletId, FrameAllocator, GlobalPfn, LocalPfn, Pte, PteFlags, Vpn};

use crate::encoding::{CoalInfo, CoalMode};
use crate::group::{GpuMap, PecEntry};

/// A page-mapping policy's plan for one data object: `gran` consecutive
/// VPNs per chiplet, chunks distributed over `cycle` (repeating).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingPlan {
    /// Address space of the data.
    pub asid: u16,
    /// The data's VPN range.
    pub range: VpnRange,
    /// Consecutive VPNs per chiplet (`interlv_gran`).
    pub gran: u64,
    /// Chiplet order; chunk `c` goes to `cycle[c % cycle.len()]`.
    pub cycle: Vec<ChipletId>,
}

impl MappingPlan {
    /// Convenience constructor for an interleaved plan.
    ///
    /// # Panics
    ///
    /// Panics if `gran` is zero or `cycle` is empty/duplicated.
    pub fn interleaved(range: VpnRange, gran: u64, cycle: &[ChipletId]) -> Self {
        assert!(gran > 0, "interleave granularity must be nonzero");
        let plan = Self {
            asid: 0,
            range,
            gran,
            cycle: cycle.to_vec(),
        };
        plan.gpu_map(); // validates the cycle
        plan
    }

    /// Same plan under a different address space.
    pub fn with_asid(mut self, asid: u16) -> Self {
        self.asid = asid;
        self
    }

    /// Number of `gran`-page chunks (the last may be partial).
    pub fn chunks(&self) -> u64 {
        self.range.pages.div_ceil(self.gran)
    }

    /// Number of pages in chunk `c`.
    pub fn chunk_len(&self, c: u64) -> u64 {
        let start = c * self.gran;
        self.range.pages.saturating_sub(start).min(self.gran)
    }

    /// The chiplet a VPN is planned onto.
    pub fn chiplet_of(&self, vpn: Vpn) -> Option<ChipletId> {
        let idx = self.range.index_of(vpn)?;
        let chunk = idx / self.gran;
        Some(self.cycle[(chunk % self.cycle.len() as u64) as usize])
    }

    /// The VPN-order → chiplet map shared by all groups of this data.
    pub fn gpu_map(&self) -> GpuMap {
        GpuMap::new(&self.cycle)
    }

    /// The PEC-buffer record describing this data.
    pub fn pec_entry(&self) -> PecEntry {
        PecEntry::new(self.asid, self.range, self.gran, self.gpu_map())
    }
}

/// Outcome of allocating one data object.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Page table entries, one per page of the data, in VPN order.
    pub ptes: Vec<(Vpn, Pte)>,
    /// The PEC-buffer record to register.
    pub pec: PecEntry,
    /// Allocation statistics.
    pub stats: AllocStats,
}

/// Counters describing how a data object was mapped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Pages mapped under the coalescing invariant.
    pub coalesced_pages: u64,
    /// Pages that fell back to default (uncoalesced) allocation.
    pub fallback_pages: u64,
    /// Coalescing groups created.
    pub groups: u64,
    /// Groups whose run length exceeded one page (expansion hits).
    pub merged_groups: u64,
}

/// Errors from [`BarreAllocator::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// A chiplet ran out of frames entirely.
    OutOfMemory(ChipletId),
    /// A VPN was inside a plan's range but the plan could not name its
    /// chiplet — an internally inconsistent [`MappingPlan`].
    VpnOutsidePlan {
        /// Address space of the offending plan.
        asid: u16,
        /// The page that could not be placed.
        vpn: Vpn,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory(c) => write!(f, "chiplet {c} is out of physical frames"),
            AllocError::VpnOutsidePlan { asid, vpn } => {
                write!(f, "plan for asid {asid} cannot place vpn {vpn:?}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// The Barre-modified GPU memory allocator.
#[derive(Debug, Clone)]
pub struct BarreAllocator {
    mode: CoalMode,
    max_merged: u8,
}

impl BarreAllocator {
    /// Creates an allocator for the platform's PTE layout; `max_merged` is
    /// the group-expansion limit (1 = no merging; the paper evaluates 2
    /// and 4, and only `CoalMode::Expanded` can express more than 1).
    ///
    /// # Panics
    ///
    /// Panics if `max_merged` is 0, exceeds 4, or exceeds 1 outside the
    /// expanded layout.
    pub fn new(mode: CoalMode, max_merged: u8) -> Self {
        assert!((1..=4).contains(&max_merged), "max_merged must be 1..=4");
        assert!(
            max_merged == 1 || mode == CoalMode::Expanded,
            "group expansion requires the expanded PTE layout"
        );
        Self { mode, max_merged }
    }

    /// The PTE layout in force.
    pub fn mode(&self) -> CoalMode {
        self.mode
    }

    /// The expansion limit.
    pub fn max_merged(&self) -> u8 {
        self.max_merged
    }

    /// Maps one data object onto `frames` (one allocator per chiplet)
    /// according to `plan`, enforcing the same-local-PFN invariant
    /// wherever commonly-free frames exist.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] when even the fallback path
    /// cannot find a frame on the planned chiplet.
    pub fn allocate(
        &mut self,
        plan: &MappingPlan,
        frames: &mut [FrameAllocator],
    ) -> Result<Allocation, AllocError> {
        let mut ptes: Vec<(Vpn, Pte)> = Vec::with_capacity(plan.range.pages as usize);
        let mut stats = AllocStats::default();
        let sharers = plan.cycle.len() as u64;
        let rounds = plan.chunks().div_ceil(sharers);
        // Search hint: commonly-free frames tend to advance monotonically
        // within one allocation call.
        let mut hint = LocalPfn(0);

        for round in 0..rounds {
            let first_chunk = round * sharers;
            let chunks_in_round = (plan.chunks() - first_chunk).min(sharers);
            // Positions 0..gran, grouped into runs of up to max_merged.
            let max_pos = (0..chunks_in_round)
                .map(|k| plan.chunk_len(first_chunk + k))
                .max()
                .unwrap_or(0);
            let mut pos = 0u64;
            while pos < max_pos {
                // Chunks that have a page at this position.
                let holders: Vec<u64> = (0..chunks_in_round)
                    .filter(|&k| plan.chunk_len(first_chunk + k) > pos)
                    .collect();
                if holders.len() < 2 {
                    // Nothing to coalesce: default allocation.
                    for &k in &holders {
                        let chiplet = plan.cycle[k as usize];
                        self.fallback_page(plan, frames, first_chunk + k, pos, chiplet, &mut ptes)?;
                        stats.fallback_pages += 1;
                    }
                    pos += 1;
                    continue;
                }
                // Desired run length: bounded by the merge limit, the
                // chunk tail, and every holder still having those pages.
                let mut run = (self.max_merged as u64).min(plan.gran - pos);
                run = run.min(
                    holders
                        .iter()
                        .map(|&k| plan.chunk_len(first_chunk + k) - pos)
                        .min()
                        .unwrap_or(1),
                );
                // Find the longest commonly-free run, preferring `run`.
                let mut found: Option<(LocalPfn, u64)> = None;
                let mut len = run;
                while len >= 1 {
                    if let Some(l) =
                        common_free_run(frames, &plan.cycle, &holders, hint, len as usize)
                    {
                        found = Some((l, len));
                        break;
                    }
                    len -= 1;
                }
                match found {
                    Some((base, len)) => {
                        hint = base;
                        for &k in &holders {
                            let chiplet = plan.cycle[k as usize];
                            for j in 0..len {
                                let claimed =
                                    frames[chiplet.index()].alloc_specific(LocalPfn(base.0 + j));
                                debug_assert!(claimed, "common-free run raced");
                            }
                        }
                        let info_bitmap: u8 = holders
                            .iter()
                            .map(|&k| plan.cycle[k as usize])
                            .filter(|c| c.0 < 8)
                            .fold(0u8, |b, c| b | (1 << c.0));
                        for &k in &holders {
                            let chiplet = plan.cycle[k as usize];
                            for j in 0..len {
                                let vpn =
                                    plan.range.vpn_at((first_chunk + k) * plan.gran + pos + j);
                                let pfn = GlobalPfn::compose(chiplet, LocalPfn(base.0 + j));
                                let info = self.make_info(
                                    info_bitmap,
                                    holders.len() as u8,
                                    k as u8,
                                    j as u8,
                                    len as u8,
                                );
                                let pte = Pte::new(pfn, PteFlags::default())
                                    .with_coal_bits(info.map_or(0, |i| i.encode()));
                                ptes.push((vpn, pte));
                                stats.coalesced_pages += 1;
                            }
                        }
                        stats.groups += 1;
                        if len > 1 {
                            stats.merged_groups += 1;
                        }
                        pos += len;
                    }
                    None => {
                        // No commonly-free frame at all: fall back for
                        // this position on every holder.
                        for &k in &holders {
                            let chiplet = plan.cycle[k as usize];
                            self.fallback_page(
                                plan,
                                frames,
                                first_chunk + k,
                                pos,
                                chiplet,
                                &mut ptes,
                            )?;
                            stats.fallback_pages += 1;
                        }
                        pos += 1;
                    }
                }
            }
        }
        ptes.sort_by_key(|(v, _)| v.0);
        Ok(Allocation {
            ptes,
            pec: plan.pec_entry(),
            stats,
        })
    }

    fn make_info(
        &self,
        bitmap: u8,
        holders: u8,
        inter: u8,
        intra: u8,
        run_len: u8,
    ) -> Option<CoalInfo> {
        let info = match self.mode {
            CoalMode::Base => CoalInfo::Base {
                bitmap,
                inter_order: inter.min(7),
            },
            CoalMode::Expanded => CoalInfo::Expanded {
                bitmap: bitmap & 0xF,
                inter_order: inter.min(3),
                intra_order: intra,
                merged: run_len - 1,
            },
            CoalMode::Wide => CoalInfo::Wide {
                count: holders,
                inter_order: inter,
            },
        };
        // Out-of-field positions (e.g. a 5th chiplet under the expanded
        // layout) cannot be encoded; such pages stay uncoalesced.
        match self.mode {
            CoalMode::Base if inter > 7 => return None,
            CoalMode::Expanded if inter > 3 => return None,
            CoalMode::Wide if inter > 15 => return None,
            _ => {}
        }
        info.is_coalesced().then_some(info)
    }

    /// On-demand variant (§VI "Support for on-demand paging &
    /// migration"): maps only the coalescing group containing `vpn` —
    /// "pages will be fetched/evicted in the unit of coalescing groups".
    /// With `group_fetch == false` only the faulting page is mapped
    /// (conventional demand paging).
    ///
    /// Returns the newly created PTEs (empty if `vpn` is outside the
    /// plan). Previously mapped members must not be re-passed; the caller
    /// (the fault handler) checks the page table first.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] when no frame can be found.
    pub fn allocate_on_fault(
        &mut self,
        plan: &MappingPlan,
        vpn: Vpn,
        frames: &mut [FrameAllocator],
        group_fetch: bool,
    ) -> Result<Vec<(Vpn, Pte)>, AllocError> {
        let Some(idx) = plan.range.index_of(vpn) else {
            return Ok(Vec::new());
        };
        let sharers = plan.cycle.len() as u64;
        let chunk = idx / plan.gran;
        let pos = idx % plan.gran;
        let round = chunk / sharers;
        let first_chunk = round * sharers;
        let chunks_in_round = (plan.chunks() - first_chunk).min(sharers);
        let holders: Vec<u64> = (0..chunks_in_round)
            .filter(|&k| plan.chunk_len(first_chunk + k) > pos)
            .collect();
        // Group fetch maps one page per holder; the single-page path
        // maps exactly one.
        let mut ptes = Vec::with_capacity(holders.len().max(1));
        if group_fetch && holders.len() >= 2 {
            if let Some(base) = common_free_run(frames, &plan.cycle, &holders, LocalPfn(0), 1) {
                let info_bitmap: u8 = holders
                    .iter()
                    .map(|&k| plan.cycle[k as usize])
                    .filter(|c| c.0 < 8)
                    .fold(0u8, |b, c| b | (1 << c.0));
                for &k in &holders {
                    let chiplet = plan.cycle[k as usize];
                    let claimed = frames[chiplet.index()].alloc_specific(base);
                    debug_assert!(claimed, "common-free frame raced");
                    let member = plan.range.vpn_at((first_chunk + k) * plan.gran + pos);
                    let info = self.make_info(info_bitmap, holders.len() as u8, k as u8, 0, 1);
                    let pte = Pte::new(GlobalPfn::compose(chiplet, base), PteFlags::default())
                        .with_coal_bits(info.map_or(0, |i| i.encode()));
                    ptes.push((member, pte));
                }
                return Ok(ptes);
            }
        }
        // Single-page fault (or no common frame available).
        let chiplet = plan.chiplet_of(vpn).ok_or(AllocError::VpnOutsidePlan {
            asid: plan.asid,
            vpn,
        })?;
        let local = frames[chiplet.index()]
            .alloc_any()
            .ok_or(AllocError::OutOfMemory(chiplet))?;
        ptes.push((
            vpn,
            Pte::new(GlobalPfn::compose(chiplet, local), PteFlags::default()),
        ));
        Ok(ptes)
    }

    fn fallback_page(
        &self,
        plan: &MappingPlan,
        frames: &mut [FrameAllocator],
        chunk: u64,
        pos: u64,
        chiplet: ChipletId,
        ptes: &mut Vec<(Vpn, Pte)>,
    ) -> Result<(), AllocError> {
        let local = frames[chiplet.index()]
            .alloc_any()
            .ok_or(AllocError::OutOfMemory(chiplet))?;
        let vpn = plan.range.vpn_at(chunk * plan.gran + pos);
        let pfn = GlobalPfn::compose(chiplet, local);
        ptes.push((vpn, Pte::new(pfn, PteFlags::default())));
        Ok(())
    }
}

/// Lowest local frame `L ≥ hint` (wrapping to 0 if needed) such that
/// `L..L+len` is free on **every** holder chiplet.
fn common_free_run(
    frames: &[FrameAllocator],
    cycle: &[ChipletId],
    holders: &[u64],
    hint: LocalPfn,
    len: usize,
) -> Option<LocalPfn> {
    let cap = holders
        .iter()
        .map(|&k| frames[cycle[k as usize].index()].capacity())
        .min()?;
    let check = |l: u64| -> bool {
        holders.iter().all(|&k| {
            let a = &frames[cycle[k as usize].index()];
            (0..len as u64).all(|j| a.is_free(LocalPfn(l + j)))
        })
    };
    let start = (hint.0 as usize).min(cap);
    for l in start..cap.saturating_sub(len - 1) {
        if check(l as u64) {
            return Some(LocalPfn(l as u64));
        }
    }
    for l in 0..start.min(cap.saturating_sub(len - 1)) {
        if check(l as u64) {
            return Some(LocalPfn(l as u64));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_sim::Rng;

    fn chiplets(n: u8) -> Vec<ChipletId> {
        (0..n).map(ChipletId).collect()
    }

    fn fresh_frames(n: usize, cap: usize) -> Vec<FrameAllocator> {
        (0..n).map(|_| FrameAllocator::new(cap)).collect()
    }

    fn pte_of(alloc: &Allocation, vpn: u64) -> Pte {
        alloc
            .ptes
            .iter()
            .find(|(v, _)| v.0 == vpn)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| panic!("vpn {vpn:#x} not mapped"))
    }

    #[test]
    fn example1_fig7a_mapping() {
        // Data 1: 12 pages from 0x1, gran 3, four chiplets. Paper's
        // Example 1: VPNs 0x1..0x3 on GPU0 and 0x4..0x6 on GPU1 land on
        // identical local frames.
        let mut frames = fresh_frames(4, 1024);
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            &chiplets(4),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        assert_eq!(out.ptes.len(), 12);
        assert_eq!(out.stats.coalesced_pages, 12);
        assert_eq!(out.stats.groups, 3);
        for g in 0..3u64 {
            let locals: Vec<LocalPfn> = (0..4u64)
                .map(|k| pte_of(&out, 0x1 + k * 3 + g).pfn().local())
                .collect();
            assert!(
                locals.windows(2).all(|w| w[0] == w[1]),
                "group {g}: {locals:?}"
            );
            let chips: Vec<ChipletId> = (0..4u64)
                .map(|k| pte_of(&out, 0x1 + k * 3 + g).pfn().chiplet())
                .collect();
            assert_eq!(chips, chiplets(4));
        }
        // Distinct groups use distinct local frames.
        let l0 = pte_of(&out, 0x1).pfn().local();
        let l1 = pte_of(&out, 0x2).pfn().local();
        assert_ne!(l0, l1);
    }

    #[test]
    fn coal_bits_encode_group_structure() {
        let mut frames = fresh_frames(4, 256);
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            &chiplets(4),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        let info = CoalInfo::decode(pte_of(&out, 0x4).coal_bits(), CoalMode::Base).unwrap();
        assert_eq!(info.bitmap(), 0b1111);
        assert_eq!(info.inter_order(), 1);
        let info = CoalInfo::decode(pte_of(&out, 0xB).coal_bits(), CoalMode::Base).unwrap();
        assert_eq!(info.inter_order(), 3);
    }

    #[test]
    fn expansion_merges_contiguous_groups() {
        let mut frames = fresh_frames(4, 256);
        let mut d = BarreAllocator::new(CoalMode::Expanded, 2);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            &chiplets(4),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        // Fresh memory: positions 0,1 merge into one run, position 2 is a
        // second (single) group => 2 groups total, 1 merged.
        assert_eq!(out.stats.groups, 2);
        assert_eq!(out.stats.merged_groups, 1);
        // Contiguity on every chiplet: local(0x2) == local(0x1)+1.
        let a = pte_of(&out, 0x1).pfn();
        let b = pte_of(&out, 0x2).pfn();
        assert_eq!(b.local().0, a.local().0 + 1);
        let info = CoalInfo::decode(pte_of(&out, 0x2).coal_bits(), CoalMode::Expanded).unwrap();
        assert_eq!(info.intra_order(), 1);
        assert_eq!(info.merged_groups(), 2);
    }

    #[test]
    fn fragmentation_fig14_partial_runs() {
        // Fig 14: a 3-page-per-chiplet data under fragmentation maps as a
        // two-page merged group plus a one-page group, where super pages
        // would fail entirely.
        let mut frames = fresh_frames(2, 64);
        // Make contiguous triples unavailable on chiplet 1: occupy every
        // third frame.
        for f in (2..64).step_by(3) {
            frames[1].alloc_specific(LocalPfn(f));
        }
        let mut d = BarreAllocator::new(CoalMode::Expanded, 4);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x10),
                pages: 6,
            },
            3,
            &chiplets(2),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        assert_eq!(out.stats.coalesced_pages, 6);
        assert_eq!(out.stats.fallback_pages, 0);
        assert_eq!(out.stats.groups, 2);
        assert_eq!(out.stats.merged_groups, 1);
    }

    #[test]
    fn fallback_when_no_common_frame() {
        // Chiplet 0 free only in [0,8); chiplet 1 free only in [8,16):
        // no common frame exists, every page falls back.
        let mut frames = fresh_frames(2, 16);
        for f in 8..16 {
            frames[0].alloc_specific(LocalPfn(f));
        }
        for f in 0..8 {
            frames[1].alloc_specific(LocalPfn(f));
        }
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 4,
            },
            2,
            &chiplets(2),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        assert_eq!(out.stats.fallback_pages, 4);
        assert_eq!(out.stats.coalesced_pages, 0);
        for (_, pte) in &out.ptes {
            assert_eq!(pte.coal_bits(), 0);
        }
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut frames = fresh_frames(2, 2);
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            &chiplets(2),
        );
        let err = d.allocate(&plan, &mut frames).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory(_)));
    }

    #[test]
    fn tail_chunk_forms_smaller_groups() {
        // 7 pages, gran 2, 2 chiplets: chunks [2,2,2,1]; round 1 has
        // chunks of length 2 and 1 — position 1 of round 1 has a single
        // holder and must not coalesce.
        let mut frames = fresh_frames(2, 64);
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 7,
            },
            2,
            &chiplets(2),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        assert_eq!(out.ptes.len(), 7);
        // Round 1 position 1 exists only in chunk 2 (VPN 0x6): alone at
        // its position, so uncoalesced; the tail chunk's single page
        // (VPN 0x7, position 0) still pairs with chunk 2's VPN 0x5.
        assert_eq!(pte_of(&out, 0x6).coal_bits(), 0);
        assert_ne!(pte_of(&out, 0x7).coal_bits(), 0);
        assert_eq!(
            pte_of(&out, 0x7).pfn().local(),
            pte_of(&out, 0x5).pfn().local()
        );
        assert_eq!(out.stats.fallback_pages, 1);
        assert_eq!(out.stats.coalesced_pages, 6);
    }

    #[test]
    fn multi_round_groups_use_fresh_frames() {
        // 2 chiplets, gran 1, 8 pages => 4 rounds; every round's group
        // gets its own common local frame.
        let mut frames = fresh_frames(2, 64);
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 8,
            },
            1,
            &chiplets(2),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        assert_eq!(out.stats.groups, 4);
        let locals: std::collections::BTreeSet<u64> =
            out.ptes.iter().map(|(_, p)| p.pfn().local().0).collect();
        assert_eq!(locals.len(), 4);
    }

    #[test]
    fn fragmented_memory_still_coalesces_mostly() {
        let mut frames = fresh_frames(4, 4096);
        let mut rng = Rng::new(42);
        for f in frames.iter_mut() {
            f.fragment(&mut rng, 0.5);
        }
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 64,
            },
            4,
            &chiplets(4),
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        // (1-0.5)^4 ≈ 6% of frames are commonly free; 4096 frames leave
        // plenty, so everything should still coalesce.
        assert_eq!(out.stats.coalesced_pages, 64);
    }

    #[test]
    fn plan_accessors() {
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x10),
                pages: 10,
            },
            3,
            &chiplets(2),
        );
        assert_eq!(plan.chunks(), 4);
        assert_eq!(plan.chunk_len(3), 1);
        assert_eq!(plan.chiplet_of(Vpn(0x10)), Some(ChipletId(0)));
        assert_eq!(plan.chiplet_of(Vpn(0x13)), Some(ChipletId(1)));
        assert_eq!(plan.chiplet_of(Vpn(0x16)), Some(ChipletId(0)));
        assert_eq!(plan.chiplet_of(Vpn(0x30)), None);
        let pec = plan.pec_entry();
        assert_eq!(pec.gran, 3);
    }
}

#[cfg(test)]
mod wide_tests {
    use super::*;
    use crate::encoding::{CoalInfo, CoalMode};
    use crate::pec::PecLogic;
    use barre_mem::PageTable;

    /// The §VI wide layout: a 16-chiplet MCM coalesces full-width groups
    /// and the PFN calculator agrees with the page table for every
    /// member.
    #[test]
    fn wide_sixteen_chiplet_groups() {
        let n = 16u8;
        let mut frames: Vec<FrameAllocator> =
            (0..n as usize).map(|_| FrameAllocator::new(1024)).collect();
        let mut d = BarreAllocator::new(CoalMode::Wide, 1);
        let cycle: Vec<ChipletId> = (0..n).map(ChipletId).collect();
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x100),
                pages: 64,
            },
            2,
            &cycle,
        );
        let out = d.allocate(&plan, &mut frames).unwrap();
        assert_eq!(out.stats.coalesced_pages, 64);
        assert_eq!(out.stats.groups, 4); // 2 rounds × 2 positions
        let mut pt = PageTable::new(0);
        for (v, p) in &out.ptes {
            pt.map(*v, *p);
        }
        let logic = PecLogic::new(CoalMode::Wide);
        let (v0, p0) = out.ptes[0];
        let info = CoalInfo::decode(p0.coal_bits(), CoalMode::Wide).unwrap();
        assert_eq!(info.participants(), 16);
        let members = logic.members(v0, &info, &out.pec);
        assert_eq!(members.len(), 16);
        for m in &members {
            let calc = logic
                .calc_pfn(v0, p0.pfn(), &info, &out.pec, m.vpn)
                .expect("member calculable");
            assert_eq!(calc, pt.lookup(m.vpn).unwrap().pfn(), "{}", m.vpn);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::encoding::{CoalInfo, CoalMode};

    fn plan4() -> MappingPlan {
        MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            &[ChipletId(0), ChipletId(1), ChipletId(2), ChipletId(3)],
        )
    }

    #[test]
    fn group_fetch_maps_whole_group() {
        let mut frames: Vec<FrameAllocator> = (0..4).map(|_| FrameAllocator::new(64)).collect();
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let ptes = d
            .allocate_on_fault(&plan4(), Vpn(0x4), &mut frames, true)
            .unwrap();
        // Fault on 0x4 pulls in its whole group {0x1, 0x4, 0x7, 0xA}.
        let vpns: Vec<u64> = ptes.iter().map(|(v, _)| v.0).collect();
        assert_eq!(vpns, vec![0x1, 0x4, 0x7, 0xA]);
        // Same local frame, distinct chiplets, coalescing bits set.
        let locals: Vec<_> = ptes.iter().map(|(_, p)| p.pfn().local()).collect();
        assert!(locals.windows(2).all(|w| w[0] == w[1]));
        for (i, (_, p)) in ptes.iter().enumerate() {
            let info = CoalInfo::decode(p.coal_bits(), CoalMode::Base).unwrap();
            assert_eq!(info.inter_order() as usize, i);
        }
    }

    #[test]
    fn single_page_fault_maps_one() {
        let mut frames: Vec<FrameAllocator> = (0..4).map(|_| FrameAllocator::new(64)).collect();
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let ptes = d
            .allocate_on_fault(&plan4(), Vpn(0x4), &mut frames, false)
            .unwrap();
        assert_eq!(ptes.len(), 1);
        assert_eq!(ptes[0].0, Vpn(0x4));
        assert_eq!(ptes[0].1.coal_bits(), 0);
        assert_eq!(ptes[0].1.pfn().chiplet(), ChipletId(1));
    }

    #[test]
    fn fault_outside_plan_is_empty() {
        let mut frames: Vec<FrameAllocator> = (0..4).map(|_| FrameAllocator::new(64)).collect();
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let ptes = d
            .allocate_on_fault(&plan4(), Vpn(0x99), &mut frames, true)
            .unwrap();
        assert!(ptes.is_empty());
    }

    #[test]
    fn fault_group_fetch_falls_back_without_common_frames() {
        let mut frames: Vec<FrameAllocator> = (0..2).map(|_| FrameAllocator::new(8)).collect();
        for f in 0..8 {
            if f % 2 == 0 {
                frames[0].alloc_specific(LocalPfn(f));
            } else {
                frames[1].alloc_specific(LocalPfn(f));
            }
        }
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 4,
            },
            2,
            &[ChipletId(0), ChipletId(1)],
        );
        let mut d = BarreAllocator::new(CoalMode::Base, 1);
        let ptes = d
            .allocate_on_fault(&plan, Vpn(0x1), &mut frames, true)
            .unwrap();
        assert_eq!(ptes.len(), 1, "no common frame -> single page");
        assert_eq!(ptes[0].1.coal_bits(), 0);
    }
}
