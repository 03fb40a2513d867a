//! System configuration (Table II) and translation-mode selection.

use barre_core::group::GPU_MAP_MAX;
use barre_gpu::Topology;
use barre_mapping::PolicyKind;
use barre_mem::PageSize;
use barre_sim::{Cycle, FaultPlan};

use crate::error::SimError;

/// F-Barre feature toggles (the §VII-D breakdown and §VII-E oracle are
/// expressed by switching these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FBarreConfig {
    /// Group-expansion limit: 1 = `F-Barre-NoMerge`, 2/4 = the merged
    /// variants of Fig 15.
    pub max_merged: u8,
    /// Coalescing-aware PTW scheduling (§V-C).
    pub ptw_sched: bool,
    /// Intra-MCM translation through LCF/RCF sharing (§V-A).
    pub peer_sharing: bool,
    /// Fig 19's oracle: coalescing-information sharing at fixed latency
    /// without consuming mesh bandwidth.
    pub oracle_traffic: bool,
    /// Cuckoo-filter rows per LCF/RCF (Table II: 256; Fig 17b sweeps
    /// 512/1024).
    pub filter_rows: usize,
}

impl Default for FBarreConfig {
    fn default() -> Self {
        Self {
            max_merged: 2,
            ptw_sched: true,
            peer_sharing: true,
            oracle_traffic: false,
            filter_rows: 256,
        }
    }
}

/// Which translation architecture the machine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TranslationMode {
    /// Private L1/L2 TLBs, plain IOMMU walks.
    #[default]
    Baseline,
    /// Valkyrie (PACT'20): intra-chiplet peer-L1 probing + next-VPN L2
    /// TLB prefetch.
    Valkyrie,
    /// Least (MICRO'21): inter-chiplet L2 TLB sharing guided by ideal
    /// 1024-entry trackers.
    Least,
    /// The hypothetical MCM-wide shared L2 TLB of §III-C/D (4× entries,
    /// no added latency).
    SharedL2Ideal,
    /// Barre: PEC calculation in the IOMMU only (§IV).
    Barre,
    /// Full Barre (§V).
    FBarre(FBarreConfig),
}

impl TranslationMode {
    /// Whether PTEs carry coalescing bits under this mode.
    pub fn uses_barre(&self) -> bool {
        matches!(self, TranslationMode::Barre | TranslationMode::FBarre(_))
    }

    /// The group-expansion limit in force.
    pub fn max_merged(&self) -> u8 {
        match self {
            TranslationMode::FBarre(f) => f.max_merged,
            _ => 1,
        }
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            TranslationMode::Baseline => "baseline".into(),
            TranslationMode::Valkyrie => "Valkyrie".into(),
            TranslationMode::Least => "Least".into(),
            TranslationMode::SharedL2Ideal => "shared-L2(ideal)".into(),
            TranslationMode::Barre => "Barre".into(),
            TranslationMode::FBarre(f) => {
                if f.max_merged <= 1 {
                    "F-Barre-NoMerge".into()
                } else {
                    format!("F-Barre-{}Merge", f.max_merged)
                }
            }
        }
    }

    /// The revision of this mode's model, when its simulated output has
    /// moved since results were first stored: one more part of the
    /// address a run's result is cached and journaled under (`barre
    /// serve`'s cache, sweep journals), so a result of the older model is
    /// never served or replayed as this one's. `None` for a mode whose
    /// output never moved, so its addresses stay as they were.
    pub fn model_revision(&self) -> Option<&'static str> {
        match self {
            // F-Barre advertises each coalescing group once per chiplet.
            TranslationMode::FBarre(_) => Some("model:fbarre-2"),
            _ => None,
        }
    }
}

/// How translations leave the chiplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MmuKind {
    /// Host IOMMU over PCIe (the paper's baseline, following refs 8 and 27).
    #[default]
    Iommu,
    /// Per-chiplet GMMUs over a distributed page table (MGvm, §VII-F).
    Gmmu,
}

/// On-demand paging configuration (§VI "Support for on-demand paging").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandPagingConfig {
    /// Far-fault handling latency in cycles (GPU page faults cost tens of
    /// microseconds; 20 µs at 1 GHz by default).
    pub fault_latency: Cycle,
    /// Fetch the whole coalescing group on a fault (§VI: "pages will be
    /// fetched/evicted in the unit of coalescing groups"); `false` maps
    /// only the faulting page.
    pub group_fetch: bool,
}

impl Default for DemandPagingConfig {
    fn default() -> Self {
        Self {
            fault_latency: 20_000,
            group_fetch: true,
        }
    }
}

/// Page migration configuration (§VII-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationConfig {
    /// ACUD remote-access threshold (paper: 16).
    pub threshold: u32,
    /// Fixed migration overhead in cycles on top of the page copy
    /// (fault handling, TLB shootdown round).
    pub overhead: Cycle,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        Self {
            threshold: 16,
            overhead: 2_000,
        }
    }
}

/// ATS timeout/retry with capped exponential backoff (the graceful-
/// degradation layer the fault model exercises). A request outstanding
/// past `deadline` cycles is retried; the wait doubles per attempt up to
/// `max_backoff`; after `max_retries` retries the chiplet gives up on
/// ATS for that page and resolves it through the uncoalesced
/// conventional-walk fallback path.
///
/// Deadline timers are only armed when the active [`FaultPlan`] can
/// actually lose or delay ATS traffic — on a fault-free run the retry
/// machinery schedules no events, preserving cycle identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtsRetryConfig {
    /// Cycles an ATS request may stay outstanding before the first retry.
    pub deadline: Cycle,
    /// Retries before degrading to the conventional-walk fallback.
    pub max_retries: u8,
    /// Cap on the exponentially growing retry deadline.
    pub max_backoff: Cycle,
}

impl Default for AtsRetryConfig {
    fn default() -> Self {
        Self {
            // Generous vs. the ~800-cycle fault-free ATS turnaround
            // (PCIe RTT + walk + queueing): spurious timeouts are rare
            // even under load, real losses are detected quickly.
            deadline: 4_000,
            max_retries: 3,
            max_backoff: 32_000,
        }
    }
}

/// Full machine configuration. Defaults reproduce Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Package structure.
    pub topology: Topology,
    /// Translation granule.
    pub page_size: PageSize,
    /// Page mapping / CTA scheduling policy.
    pub policy: PolicyKind,
    /// Translation architecture.
    pub mode: TranslationMode,
    /// IOMMU vs GMMU platform.
    pub mmu: MmuKind,

    /// L1 TLB entries per CU (64, fully associative).
    pub l1_tlb_entries: usize,
    /// L1 TLB lookup latency.
    pub l1_tlb_latency: Cycle,
    /// L2 TLB entries per chiplet (512).
    pub l2_tlb_entries: usize,
    /// L2 TLB associativity (16).
    pub l2_tlb_ways: usize,
    /// L2 TLB lookup latency (10).
    pub l2_tlb_latency: Cycle,
    /// L2 TLB MSHRs (16; Fig 4 sweeps this).
    pub l2_tlb_mshrs: usize,

    /// Page table walkers (16; `None` = infinite, Fig 1).
    pub ptws: Option<usize>,
    /// PW-queue entries (48).
    pub pw_queue_entries: usize,
    /// Page-walk latency (500).
    pub walk_latency: Cycle,
    /// Optional IOMMU TLB `(entries, ways, latency)` (§VII-J).
    pub iommu_tlb: Option<(usize, usize, Cycle)>,
    /// PEC buffer entries (Table II: 5).
    pub pec_buffer_entries: usize,
    /// Speculative multicast of calculated PFNs (§IV-B ablation; the
    /// paper's chosen design leaves this off).
    pub barre_multicast: bool,

    /// PCIe propagation latency (150).
    pub pcie_latency: Cycle,
    /// PCIe bandwidth in bytes/cycle (Gen4 x16 ≈ 32 GB/s ⇒ 32 B/cy).
    pub pcie_bytes_per_cycle: u64,
    /// Mesh hop latency (32).
    pub mesh_latency: Cycle,
    /// Aggregate mesh bandwidth in bytes/cycle (768).
    pub mesh_bytes_per_cycle: u64,
    /// DRAM latency (100 ns = 100 cycles).
    pub dram_latency: Cycle,
    /// DRAM bandwidth per chiplet in bytes/cycle (1 TB/s ⇒ 1000).
    pub dram_bytes_per_cycle: u64,

    /// L1 data cache bytes per CU (16 KiB).
    pub l1d_bytes: u64,
    /// L1 data cache hit latency.
    pub l1d_latency: Cycle,
    /// L2 data cache bytes per chiplet (2 MiB).
    pub l2d_bytes: u64,
    /// L2 data cache hit latency.
    pub l2d_latency: Cycle,
    /// Cache line bytes (64).
    pub line_bytes: u64,

    /// Concurrent CTA streams per CU (warp-slot MLP).
    pub cu_slots: usize,
    /// Page migration, when enabled.
    pub migration: Option<MigrationConfig>,
    /// On-demand paging; `None` premaps everything before launch (the
    /// paper's default, following [8], [20], [27]).
    pub demand_paging: Option<DemandPagingConfig>,
    /// Physical frames per chiplet; `None` sizes automatically from the
    /// workload footprint.
    pub frames_per_chiplet: Option<usize>,
    /// Safety cap on simulated warp memory instructions per CTA stream
    /// (`None` = run to completion).
    pub max_warps_per_cta: Option<u64>,
    /// Faults to inject during the run (default: none).
    pub fault_plan: FaultPlan,
    /// ATS timeout/retry/fallback; `None` disables the recovery layer
    /// (faulted runs then surface as a watchdog diagnostic).
    pub ats_retry: Option<AtsRetryConfig>,
    /// Abort with a state dump when no warp memory instruction retires
    /// for this many cycles (`None` disables; the event-budget guard
    /// still catches runaway loops). The check is observation-only — it
    /// schedules no events, so it never perturbs cycle counts.
    pub watchdog_cycles: Option<Cycle>,
}

impl SystemConfig {
    /// Table II configuration (256 CUs) — faithful but slow; experiments
    /// default to [`scaled`](Self::scaled).
    pub fn paper() -> Self {
        Self {
            topology: Topology::paper_default(),
            page_size: PageSize::Size4K,
            policy: PolicyKind::Lasp,
            mode: TranslationMode::Baseline,
            mmu: MmuKind::Iommu,
            l1_tlb_entries: 64,
            l1_tlb_latency: 1,
            l2_tlb_entries: 512,
            l2_tlb_ways: 16,
            l2_tlb_latency: 10,
            l2_tlb_mshrs: 16,
            ptws: Some(16),
            pw_queue_entries: 48,
            walk_latency: 500,
            iommu_tlb: None,
            pec_buffer_entries: 5,
            barre_multicast: false,
            pcie_latency: 150,
            pcie_bytes_per_cycle: 32,
            mesh_latency: 32,
            mesh_bytes_per_cycle: 768,
            dram_latency: 100,
            dram_bytes_per_cycle: 1000,
            l1d_bytes: 16 * 1024,
            l1d_latency: 4,
            l2d_bytes: 2 * 1024 * 1024,
            l2d_latency: 30,
            line_bytes: 64,
            cu_slots: 4,
            migration: None,
            demand_paging: None,
            frames_per_chiplet: None,
            max_warps_per_cta: None,
            fault_plan: FaultPlan::default(),
            ats_retry: Some(AtsRetryConfig::default()),
            watchdog_cycles: Some(10_000_000),
        }
    }

    /// The scaled configuration every bench uses: same ratios, 32 CUs
    /// with 8 warp slots each (256 concurrent streams — the paper's
    /// 256-CU : 16-PTW pressure ratio), proportionally smaller TLBs and
    /// caches so the pressure classes are preserved while runs finish in
    /// seconds.
    pub fn scaled() -> Self {
        Self {
            topology: Topology::scaled(),
            l2_tlb_entries: 256,
            l2_tlb_ways: 8,
            l2d_bytes: 512 * 1024,
            ptws: Some(16),
            cu_slots: 8,
            max_warps_per_cta: Some(1_500),
            ..Self::paper()
        }
    }

    /// Builder-style mode override.
    pub fn with_mode(mut self, mode: TranslationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style page-size override.
    pub fn with_page_size(mut self, ps: PageSize) -> Self {
        self.page_size = ps;
        self
    }

    /// Builder-style PTW override.
    pub fn with_ptws(mut self, ptws: Option<usize>) -> Self {
        self.ptws = ptws;
        self
    }

    /// Builder-style migration toggle.
    pub fn with_migration(mut self, m: Option<MigrationConfig>) -> Self {
        self.migration = m;
        self
    }

    /// Builder-style fault-plan override.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Rejects internally inconsistent configurations before any
    /// component constructor can assert on them.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |why: String| Err(SimError::InvalidConfig(why));
        if self.topology.n_chiplets == 0 || self.topology.total_cus() == 0 {
            return bad("topology has no chiplets or no CUs".into());
        }
        if self.topology.n_chiplets > GPU_MAP_MAX {
            return bad(format!(
                "{} chiplets exceed the GPU map's limit of {GPU_MAP_MAX}",
                self.topology.n_chiplets
            ));
        }
        if self.l1_tlb_entries == 0 {
            return bad("l1_tlb_entries must be nonzero".into());
        }
        if self.l2_tlb_entries == 0 || self.l2_tlb_ways == 0 {
            return bad("L2 TLB entries/ways must be nonzero".into());
        }
        if !self.l2_tlb_entries.is_multiple_of(self.l2_tlb_ways)
            || !(self.l2_tlb_entries / self.l2_tlb_ways).is_power_of_two()
        {
            return bad(format!(
                "L2 TLB geometry {}e/{}w does not give a power-of-two set count",
                self.l2_tlb_entries, self.l2_tlb_ways
            ));
        }
        if self.l2_tlb_mshrs == 0 {
            return bad("l2_tlb_mshrs must be nonzero".into());
        }
        if self.pw_queue_entries == 0 {
            return bad("pw_queue_entries must be nonzero".into());
        }
        if self.ptws == Some(0) {
            return bad("ptws must be nonzero (use None for infinite)".into());
        }
        if self.pec_buffer_entries == 0 {
            return bad("pec_buffer_entries must be nonzero".into());
        }
        if self.pcie_bytes_per_cycle == 0
            || self.mesh_bytes_per_cycle == 0
            || self.dram_bytes_per_cycle == 0
        {
            return bad("link/DRAM bandwidth must be nonzero".into());
        }
        if self.line_bytes == 0
            || self.l1d_bytes < self.line_bytes
            || self.l2d_bytes < self.line_bytes
        {
            return bad("cache sizes must hold at least one line".into());
        }
        if self.cu_slots == 0 {
            return bad("cu_slots must be nonzero".into());
        }
        if self.frames_per_chiplet == Some(0) {
            return bad("frames_per_chiplet must be nonzero (use None to auto-size)".into());
        }
        if let Err(why) = self.fault_plan.validate() {
            return bad(format!("fault plan: {why}"));
        }
        if let Some(r) = self.ats_retry {
            if r.deadline == 0 {
                return bad("ats_retry.deadline must be nonzero".into());
            }
            if r.max_backoff < r.deadline {
                return bad("ats_retry.max_backoff must be >= deadline".into());
            }
        }
        if self.watchdog_cycles == Some(0) {
            return bad("watchdog_cycles must be nonzero (use None to disable)".into());
        }
        Ok(())
    }

    /// Renders the Table II parameter dump (the `table2_config` bench).
    pub fn table2(&self) -> String {
        let t = &self.topology;
        let mut s = String::new();
        let mut row = |k: &str, v: String| {
            s.push_str(&format!("{k:<28}| {v}\n"));
        };
        row("Number of GPU chiplets", t.n_chiplets.to_string());
        row("Number of SAs", format!("{} per Chip", t.sas_per_chiplet));
        row(
            "Number of CUs",
            format!("{} per SA. {} in total", t.cus_per_sa, t.total_cus()),
        );
        row(
            "L2 Cache",
            format!("{} KB, {} B lines", self.l2d_bytes / 1024, self.line_bytes),
        );
        row(
            "DRAM",
            format!(
                "{} B/cy, {} cy latency",
                self.dram_bytes_per_cycle, self.dram_latency
            ),
        );
        row(
            "L1 TLB",
            format!(
                "{} entries, fully assoc, {} cy, private to CU",
                self.l1_tlb_entries, self.l1_tlb_latency
            ),
        );
        row(
            "L2 TLB",
            format!(
                "{} entries, {}-way, chip-shared, {} cy, {} MSHRs",
                self.l2_tlb_entries, self.l2_tlb_ways, self.l2_tlb_latency, self.l2_tlb_mshrs
            ),
        );
        row(
            "IOMMU",
            format!(
                "{} PTWs, {}-cy walks, {} PW-queue entries",
                self.ptws.map_or("inf".into(), |p| p.to_string()),
                self.walk_latency,
                self.pw_queue_entries
            ),
        );
        row("CTA/Page Scheduling", self.policy.name().to_string());
        row(
            "Inter-chip",
            format!(
                "{} B/cy mesh, {} cy latency",
                self.mesh_bytes_per_cycle, self.mesh_latency
            ),
        );
        row(
            "CPU-GPU",
            format!(
                "PCIe {} B/cy, {} cy latency",
                self.pcie_bytes_per_cycle, self.pcie_latency
            ),
        );
        row("Page size", self.page_size.to_string());
        row("Translation mode", self.mode.label());
        s
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_table2() {
        let c = SystemConfig::paper();
        assert_eq!(c.topology.total_cus(), 256);
        assert_eq!(c.l2_tlb_entries, 512);
        assert_eq!(c.ptws, Some(16));
        assert_eq!(c.pw_queue_entries, 48);
        assert_eq!(c.walk_latency, 500);
        assert_eq!(c.pcie_latency, 150);
        assert_eq!(c.mesh_latency, 32);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(TranslationMode::Baseline.label(), "baseline");
        assert_eq!(
            TranslationMode::FBarre(FBarreConfig::default()).label(),
            "F-Barre-2Merge"
        );
        let nomerge = TranslationMode::FBarre(FBarreConfig {
            max_merged: 1,
            ..Default::default()
        });
        assert_eq!(nomerge.label(), "F-Barre-NoMerge");
        assert!(nomerge.uses_barre());
        assert!(!TranslationMode::Least.uses_barre());
        assert_eq!(TranslationMode::Barre.max_merged(), 1);
    }

    #[test]
    fn table2_dump_mentions_key_rows() {
        let s = SystemConfig::paper().table2();
        assert!(s.contains("IOMMU"));
        assert!(s.contains("LASP"));
        assert!(s.contains("512 entries"));
    }

    #[test]
    fn builders_chain() {
        let c = SystemConfig::scaled()
            .with_mode(TranslationMode::Barre)
            .with_ptws(None);
        assert_eq!(c.mode, TranslationMode::Barre);
        assert_eq!(c.ptws, None);
    }

    #[test]
    fn default_configs_validate() {
        assert!(SystemConfig::paper().validate().is_ok());
        assert!(SystemConfig::scaled().validate().is_ok());
    }

    #[test]
    fn validate_catches_misconfigurations() {
        let mut c = SystemConfig::scaled();
        c.l2_tlb_ways = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::scaled();
        c.l2_tlb_entries = 100; // 100/8 is not a power-of-two set count
        assert!(c.validate().is_err());

        let mut c = SystemConfig::scaled();
        c.ptws = Some(0);
        assert!(c.validate().is_err());

        let mut c = SystemConfig::scaled();
        c.fault_plan.ats_request_drop = 2.0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::scaled();
        c.ats_retry = Some(AtsRetryConfig {
            deadline: 0,
            ..Default::default()
        });
        assert!(c.validate().is_err());

        let mut c = SystemConfig::scaled();
        c.watchdog_cycles = Some(0);
        assert!(c.validate().is_err());

        let mut c = SystemConfig::scaled();
        c.topology = c.topology.with_chiplets(17);
        assert!(c.validate().is_err());
        c.topology = c.topology.with_chiplets(16);
        assert!(c.validate().is_ok());
    }
}
