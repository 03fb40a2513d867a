//! The full-machine event-driven model.
//!
//! One [`Machine`] owns every component: CU warp slots pulling accesses
//! from CTA streams, per-CU L1 TLBs and L1 data caches, per-chiplet L2
//! TLBs (with MSHRs), L2 data caches and DRAM, the mesh, the PCIe link,
//! the IOMMU (or per-chiplet GMMUs), and — depending on the translation
//! mode — Valkyrie's peer-L1 probing and prefetcher, Least's remote-L2
//! trackers, or F-Barre's LCF/RCF filter banks with PEC logic.
//!
//! The model is a single-threaded discrete-event simulation over
//! [`barre_sim::EventQueue`]; with a fixed seed, every run is
//! cycle-reproducible.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use barre_core::fbarre::{FilterBank, FilterCmd, Packet, PacketMemo, RcfCounters, StateIds};
use barre_core::{CoalInfo, CoalMode, PecBuffer, PecEntry, PecLogic};
use barre_filters::{Filter, IdealFilter};
use barre_gpu::pattern::{AccessPattern, Lanes, WarpAccess, WARP_LANES};
use barre_gpu::{CtaScheduler, GmmuConfig, GmmuUnit, Mesh, TagCache};
use barre_iommu::{
    AtsRequest, AtsResponse, Iommu, IommuConfig, ATS_REQUEST_BYTES, ATS_RESPONSE_BYTES,
};
use barre_mapping::Acud;
use barre_mem::{ChipletId, FrameAllocator, GlobalPfn, PageTable, Vpn};
use barre_sim::{Cycle, EventQueue, FaultInjector, Link, SeedTap};
use barre_tlb::{MshrFile, MshrOutcome, Tlb, TlbKey, WaiterLinks};
use barre_trace::{Sample, Stage, TraceOptions, TraceRecorder, Tracer};

use crate::config::{MmuKind, SystemConfig, TranslationMode};
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::reqtrack::{AtsPendingTable, PayloadSlab, PendingAts, ReqSlab};

/// Payload of an L2 TLB entry: the frame plus the coalescing bits the ATS
/// response carried (F-Barre stores them "with the PFN", §V-A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Payload {
    /// Translated frame.
    pub pfn: GlobalPfn,
    /// Raw 11-bit coalescing field (0 when uncoalesced).
    pub coal_bits: u16,
}

/// Wire size of an F-Barre filter-update message (43 bits → 6 bytes).
const FILTER_UPDATE_BYTES: u64 = 6;
/// Wire size of a peer translation probe / reply.
const PEER_MSG_BYTES: u64 = 16;
/// Hash seed of every chiplet's F-Barre filter bank: a constant of the
/// model, independent of the run seed.
const FILTER_SEED: u64 = 0xBA22E ^ 0xF117;
/// Mesh backlog (cycles) beyond which best-effort filter updates drop.
const FILTER_DROP_BACKLOG: Cycle = 768;
/// Retry interval when the L2 MSHR file is full.
const MSHR_RETRY: Cycle = 30;
/// Extra cycles for a Valkyrie sibling-L1 probe.
const L1_PEER_PROBE: Cycle = 5;
/// PEC calculation latency on the chiplet-side path.
const CHIPLET_PEC_CALC: Cycle = 2;
/// Offset separating ATS/PTW infrastructure span ids from per-request
/// journey ids in the trace (Chrome-trace `tid` namespace).
const ATS_TRACE_ID_BASE: u64 = 1 << 62;

/// VPNs per [`FilterBatch`]. Large enough for a full coalescing group in
/// every stock topology (≤8 sharers × 2 merged); oversized groups are
/// chunked into consecutive same-cycle events, which peers apply in the
/// identical order.
const FILTER_BATCH_MAX: usize = 16;

/// One advertisement packet, shared by every peer it is sent to: the
/// whole group's filter updates share a command, sender, and ASID, so the
/// packet stores the VPNs inline instead of heap-allocating a
/// `Vec<FilterUpdate>` per packet. Packets wait in the machine's batch
/// slab; each receiver's event carries the slot, and the last receiver
/// frees it.
#[derive(Debug, Clone, Copy)]
struct FilterBatch {
    cmd: FilterCmd,
    sender: ChipletId,
    asid: u16,
    len: u8,
    /// Receivers whose `Ev::FilterUpd` has not fired yet.
    receivers: u8,
    /// The first full application's record, for the later receivers.
    memo: PacketMemo,
    vpns: [Vpn; FILTER_BATCH_MAX],
}

/// One scheduled event. Payloads larger than a few words (filter
/// batches, ATS responses) wait in machine-owned slabs and the event
/// carries their slot, so every queue node stays small.
#[derive(Debug)]
enum Ev {
    Issue {
        chiplet: u8,
        cu: u16,
        slot: u8,
    },
    Translate {
        page: u32,
    },
    AtsArrive {
        req: AtsRequest,
    },
    WalkDone {
        ptw: usize,
    },
    GmmuWalkDone {
        chiplet: u8,
        walker: usize,
    },
    RespArrive {
        /// Slot in `Machine::responses`.
        resp: u32,
    },
    PeerProbe {
        page: u32,
        at: u8,
    },
    PeerReply {
        page: u32,
        result: Option<L2Payload>,
    },
    FilterUpd {
        at: u8,
        /// Slot in `Machine::batches`.
        batch: u32,
    },
    MemStart {
        page: u32,
    },
    MemDone {
        page: u32,
    },
    MshrRetry {
        page: u32,
    },
    /// ATS retry deadline for an outstanding `(chiplet, key)` attempt.
    /// Stale timers (epoch mismatch, or already-filled key) no-op.
    AtsDeadline {
        chiplet: u8,
        key: TlbKey,
        epoch: u64,
    },
    /// Conventional-walk fallback completes after retries are exhausted.
    FallbackDone {
        chiplet: u8,
        key: TlbKey,
    },
}

// The event queue moves every `Ev` once in and once out; keep it compact.
const _: () = assert!(std::mem::size_of::<Ev>() <= 40);

/// The engine's event classes, in the class-index order an event probe
/// ([`Machine::set_event_probe`]) reports them.
pub const EVENT_CLASSES: [&str; 14] = [
    "Issue",
    "Translate",
    "AtsArrive",
    "WalkDone",
    "GmmuWalkDone",
    "RespArrive",
    "PeerProbe",
    "PeerReply",
    "FilterUpd",
    "MemStart",
    "MemDone",
    "MshrRetry",
    "AtsDeadline",
    "FallbackDone",
];

/// The probe index reported right after a sampled pop, before the popped
/// event's handler runs ([`Machine::set_event_probe`]).
pub const PROBE_POPPED: usize = EVENT_CLASSES.len();

/// One pop in this many is reported to the event probe on its own.
pub const POP_SAMPLE_PERIOD: u64 = 256;

/// Events between two calls of a cancel check
/// ([`Machine::set_cancel_check`]): a fraction of a millisecond of host
/// time on the smoke and scaled configurations.
pub const CANCEL_CHECK_PERIOD: u64 = 2048;

impl Ev {
    /// Index of this event's class in [`EVENT_CLASSES`].
    fn class(&self) -> usize {
        match self {
            Ev::Issue { .. } => 0,
            Ev::Translate { .. } => 1,
            Ev::AtsArrive { .. } => 2,
            Ev::WalkDone { .. } => 3,
            Ev::GmmuWalkDone { .. } => 4,
            Ev::RespArrive { .. } => 5,
            Ev::PeerProbe { .. } => 6,
            Ev::PeerReply { .. } => 7,
            Ev::FilterUpd { .. } => 8,
            Ev::MemStart { .. } => 9,
            Ev::MemDone { .. } => 10,
            Ev::MshrRetry { .. } => 11,
            Ev::AtsDeadline { .. } => 12,
            Ev::FallbackDone { .. } => 13,
        }
    }
}

struct Stream {
    pattern: Box<dyn AccessPattern>,
    asid: u16,
    warps: u64,
}

struct CuState {
    slots: Vec<Option<Stream>>,
}

struct WarpInst {
    chiplet: u8,
    cu: u16,
    slot: u8,
    pages_left: u32,
}

#[derive(Debug)]
struct PageReq {
    inst: u32,
    asid: u16,
    vpn: Vpn,
    page_off: u64,
    write: bool,
    chiplet: u8,
    cu: u16,
    pfn: Option<GlobalPfn>,
    /// MSHR-full replay attempts (drives exponential backoff).
    attempts: u8,
    /// Unique journey id (tracing; assigned at issue).
    trace_id: u64,
    /// Cycle the warp issued this page access (journey-span anchor).
    issued_at: Cycle,
    /// Cycle this request entered the L2 miss path (fill-span anchor;
    /// 0 until the first primary/merged MSHR allocation).
    miss_at: Cycle,
    /// Next waiter on the same L2 MSHR register, while this request
    /// waits in one ([`PageLinks`]).
    next_waiter: u32,
}

/// The page-request slab as the L2 MSHR files' waiter lists: a waiting
/// request's `next_waiter` links it to the one merged after it.
struct PageLinks<'a>(&'a mut [PageReq]);

impl WaiterLinks for PageLinks<'_> {
    fn link(&mut self, w: u32) -> &mut u32 {
        &mut self.0[w as usize].next_waiter
    }
}

/// Slots in [`PageDedup`]'s table: twice a warp's lanes, so at most half
/// of them are ever taken.
const DEDUP_CELLS: usize = 2 * WARP_LANES;

/// The warp coalescer's page dedup, reused across warps: the distinct
/// pages of one instruction's lanes in first-occurrence order, found in
/// O(1) per lane through a small open-addressed table whose cells are
/// stamped per warp, so it is never cleared.
struct PageDedup {
    /// `(vpn, page offset)` of each distinct page, in lane order.
    pages: Vec<(Vpn, u64)>,
    /// `(vpn, stamp)` per cell; a cell is taken when its stamp is current.
    seen: [(u64, u32); DEDUP_CELLS],
    stamp: u32,
}

impl PageDedup {
    fn new() -> Self {
        Self {
            pages: Vec::with_capacity(WARP_LANES),
            seen: [(0, 0); DEDUP_CELLS],
            stamp: 0,
        }
    }

    /// Replaces `pages` with the distinct pages of `lanes`.
    fn distinct_pages(&mut self, lanes: &Lanes, page_shift: u32) {
        self.pages.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen = [(0, 0); DEDUP_CELLS];
            self.stamp = 1;
        }
        for a in lanes {
            let vpn = a.vpn(page_shift);
            let mut cell = (vpn.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
            // At most `WARP_LANES` lanes, so an untaken cell is always
            // reached within the table.
            for _ in 0..DEDUP_CELLS {
                let (v, stamp) = self.seen[cell];
                if stamp != self.stamp {
                    self.seen[cell] = (vpn.0, self.stamp);
                    self.pages.push((vpn, a.page_offset(page_shift)));
                    break;
                }
                if v == vpn.0 {
                    break;
                }
                cell = (cell + 1) % DEDUP_CELLS;
            }
        }
    }
}

struct ChipletState {
    l2_tlb: Tlb<L2Payload>,
    l2_mshr: MshrFile<TlbKey>,
    l1_tlbs: Vec<Tlb<GlobalPfn>>,
    l1d: Vec<TagCache>,
    l2d: TagCache,
    dram_free: Cycle,
    filters: Option<FilterBank>,
    pec_buffer: PecBuffer,
    gmmu: Option<GmmuUnit>,
}

/// The assembled machine. Build one with [`crate::runner::build_machine`]
/// (or [`crate::runner::Run::build`]), then call [`run`](Self::run).
pub struct Machine {
    cfg: SystemConfig,
    page_shift: u32,
    coal_mode: CoalMode,
    pec_logic: PecLogic,
    page_tables: Vec<PageTable>,
    frames: Vec<FrameAllocator>,
    master_pecs: Vec<PecEntry>,
    /// Mapping plans per data object (fault-time allocation under
    /// demand paging).
    plans: Vec<barre_core::MappingPlan>,
    driver: barre_core::driver::BarreAllocator,
    iommu: Iommu,
    iommu_overflow: VecDeque<AtsRequest>,
    pcie_up: Link,
    pcie_down: Link,
    mesh: Mesh,
    /// Low-priority virtual channel for F-Barre filter updates — they
    /// ride spare mesh bandwidth off the data path (§V-A2: best effort,
    /// "not in the critical path").
    filter_vc: Vec<Link>,
    chiplets: Vec<ChipletState>,
    shared_l2: Option<Tlb<L2Payload>>,
    least_trackers: Vec<IdealFilter>,
    /// Last L2-missed VPN per chiplet (Valkyrie's stride confirmation:
    /// prefetch vpn+1 only on a sequential miss streak).
    valkyrie_last_miss: Vec<Option<TlbKey>>,
    sched: CtaScheduler,
    cus: Vec<Vec<CuState>>,
    acud: Option<Acud>,
    insts: Vec<WarpInst>,
    free_insts: Vec<u32>,
    pages: Vec<PageReq>,
    free_pages: Vec<u32>,
    /// In-flight ATS request provenance, indexed by the request id itself.
    req_track: ReqSlab,
    queue: EventQueue<Ev>,
    /// Filter-update packets in flight (`Ev::FilterUpd` payloads).
    batches: PayloadSlab<FilterBatch>,
    /// Fresh RCF state ids for the filter banks' replica memo.
    rcf_states: StateIds,
    /// ATS responses in flight (`Ev::RespArrive` payloads).
    responses: PayloadSlab<AtsResponse>,
    now: Cycle,
    m: RunMetrics,
    /// Fault decision engine; `None` on fault-free runs (so they make no
    /// extra RNG draws and stay cycle-identical to pre-fault builds).
    injector: Option<FaultInjector>,
    /// Whether building the machine left the run seed unread.
    seed_free: bool,
    /// Whether ATS sends arm retry deadlines: requires a retry config
    /// AND a plan that can lose/delay ATS traffic. On fault-free runs no
    /// timer events are scheduled — an always-armed timer would extend
    /// the final event horizon and break cycle identity.
    arm_deadlines: bool,
    ats_pending: AtsPendingTable,
    ats_epoch: u64,
    /// Cycle of the last retired warp memory access (watchdog input).
    last_progress: Cycle,
    /// Translation-path tracer ([`Tracer::Noop`] unless the machine was
    /// started through [`Machine::run_traced`]). Tracing is passive — it
    /// never schedules events — so recording cannot perturb cycle
    /// counts, and the Noop arms keep the hot path on its profile.
    tracer: Tracer,
    /// Journey-id allocator for traced page requests.
    trace_seq: u64,
    /// Reused member-enumeration buffer for the broadcast path (cleared
    /// before each use; never escapes a single call).
    scratch_members: Vec<barre_core::GroupMember>,
    /// Reused sharer-peer buffer for the broadcast path.
    scratch_peers: Vec<ChipletId>,
    /// Reused batch-slot buffer for the broadcast path.
    scratch_slots: Vec<u32>,
    /// Reused `(walker, done_at)` buffer for IOMMU and GMMU dispatch.
    walks_started: Vec<(usize, Cycle)>,
    /// Reused response buffer for completed IOMMU and GMMU walks.
    walk_responses: Vec<(Cycle, AtsResponse)>,
    /// The warp instruction [`Machine::issue`] has its CTA's pattern
    /// write in place, reused across warps.
    warp: WarpAccess,
    /// Reused page dedup for [`Machine::issue`].
    dedup: PageDedup,
    /// Heap-allocation counter hook for the zero-alloc hot-path
    /// assertion. A test harness that owns a counting global allocator
    /// installs its counter via [`Machine::set_alloc_probe`]; the probe
    /// paths then `debug_assert` the count is unchanged across each
    /// probe. `None` (the default) costs one branch.
    #[cfg(debug_assertions)]
    alloc_probe: Option<fn() -> u64>,
    /// Wall-clock attribution hook ([`Machine::set_event_probe`]);
    /// `None` (the default) costs one branch per event.
    event_probe: Option<fn(usize)>,
    /// Receiver of the RCF counters at the end of a completed run
    /// ([`Machine::set_rcf_counter_sink`]).
    rcf_counter_sink: Option<fn(RcfCounters)>,
    /// Caller's cancel check ([`Machine::set_cancel_check`]), asked
    /// once every [`CANCEL_CHECK_PERIOD`] events.
    cancel_check: Option<Box<dyn FnMut() -> bool + Send>>,
    /// Accumulated conservation-law violations (sanitizer builds only).
    #[cfg(feature = "sanitizer")]
    san: crate::sanitizer::SanitizerReport,
    /// The group updates each chiplet sent, per coalescing group
    /// (sanitizer builds only).
    #[cfg(feature = "sanitizer")]
    group_ledger: std::collections::BTreeMap<(u8, u16, Vec<Vpn>), crate::sanitizer::GroupLedger>,
}

impl Machine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        cfg: SystemConfig,
        page_tables: Vec<PageTable>,
        frames: Vec<FrameAllocator>,
        master_pecs: Vec<PecEntry>,
        plans: Vec<barre_core::MappingPlan>,
        sched: CtaScheduler,
        mut tap: SeedTap,
    ) -> Self {
        let n = cfg.topology.n_chiplets;
        let page_shift = cfg.page_size.shift();
        let coal_mode = crate::runner::coal_mode_of(&cfg);
        let fbarre = match cfg.mode {
            TranslationMode::FBarre(f) => Some(f),
            _ => None,
        };
        let iommu = Iommu::new(IommuConfig {
            pw_queue_entries: cfg.pw_queue_entries,
            ptws: cfg.ptws,
            walk_latency: cfg.walk_latency,
            barre: cfg.mode.uses_barre(),
            coal_mode,
            ship_pec_entry: fbarre.is_some(),
            coalescing_sched: fbarre.map(|f| f.ptw_sched).unwrap_or(false),
            max_merged: cfg.mode.max_merged(),
            pec_calc_latency: 2,
            multicast: cfg.barre_multicast,
            iommu_tlb: cfg.iommu_tlb,
            pec_buffer_entries: cfg.pec_buffer_entries,
        });
        let mut iommu = iommu;
        for &e in &master_pecs {
            iommu.register_pec(e);
        }
        let mesh = Mesh::new(
            n,
            cfg.mesh_latency,
            (cfg.mesh_bytes_per_cycle / n as u64).max(1),
        );
        let filter_vc = (0..n)
            .map(|_| {
                Link::new(
                    cfg.mesh_latency,
                    (cfg.mesh_bytes_per_cycle / (8 * n as u64)).max(1),
                )
            })
            .collect();
        let gmmu_cfg = GmmuConfig {
            walkers: (cfg.ptws.unwrap_or(16) / n).max(1),
            queue_entries: (cfg.pw_queue_entries / n).max(4),
            local_walk_latency: cfg.walk_latency * 3 / 5,
            remote_walk_penalty: 2 * cfg.mesh_latency + cfg.walk_latency / 5,
            barre: cfg.mode.uses_barre(),
            coal_mode,
            pec_calc_latency: 2,
            pec_buffer_entries: cfg.pec_buffer_entries,
        };
        let chiplets: Vec<ChipletState> = (0..n)
            .map(|c| {
                let cid = ChipletId(c as u8);
                let cus = cfg.topology.cus_per_chiplet();
                let mut pec_buffer = PecBuffer::new(cfg.pec_buffer_entries);
                // F-Barre chiplets learn PEC records from ATS responses;
                // under GMMU+Barre the driver programs them directly.
                let gmmu = (cfg.mmu == MmuKind::Gmmu).then(|| {
                    let mut g = GmmuUnit::new(cid, gmmu_cfg.clone());
                    for &e in &master_pecs {
                        g.register_pec(e);
                    }
                    g
                });
                if gmmu.is_some() {
                    for &e in &master_pecs {
                        pec_buffer.insert(e);
                    }
                }
                ChipletState {
                    l2_tlb: Tlb::new(cfg.l2_tlb_entries, cfg.l2_tlb_ways),
                    l2_mshr: MshrFile::new(cfg.l2_tlb_mshrs),
                    l1_tlbs: (0..cus)
                        .map(|_| Tlb::new(cfg.l1_tlb_entries, cfg.l1_tlb_entries))
                        .collect(),
                    l1d: (0..cus)
                        .map(|_| TagCache::new(cfg.l1d_bytes, 4, cfg.line_bytes))
                        .collect(),
                    l2d: TagCache::new(cfg.l2d_bytes, 16, cfg.line_bytes),
                    dram_free: 0,
                    filters: fbarre
                        .filter(|f| f.peer_sharing)
                        .map(|f| FilterBank::new(cid, n, f.filter_rows, FILTER_SEED)),
                    pec_buffer,
                    gmmu,
                }
            })
            .collect();
        let shared_l2 = matches!(cfg.mode, TranslationMode::SharedL2Ideal)
            .then(|| Tlb::new(cfg.l2_tlb_entries * n, cfg.l2_tlb_ways));
        let least_trackers = (0..n).map(|_| IdealFilter::with_capacity(1024)).collect();
        let cus = (0..n)
            .map(|_| {
                (0..cfg.topology.cus_per_chiplet())
                    .map(|_| CuState {
                        slots: (0..cfg.cu_slots).map(|_| None).collect(),
                    })
                    .collect()
            })
            .collect();
        let acud = cfg.migration.map(|mc| Acud::new(mc.threshold, n));
        // Steady-state occupancy bound: every warp slot machine-wide can
        // hold one in-flight instruction, each touching up to four
        // distinct pages. Sizing the slabs and the event wheel from that
        // bound makes the hot loop allocation-free after warm-up.
        let warp_slots = n * cfg.topology.cus_per_chiplet() * cfg.cu_slots;
        let page_slots = warp_slots * 4;
        let injector = (!cfg.fault_plan.is_empty())
            .then(|| FaultInjector::new(cfg.fault_plan, tap.salted(0xFA01_7FA0)));
        Self {
            pec_logic: PecLogic::new(coal_mode),
            page_shift,
            coal_mode,
            page_tables,
            frames,
            master_pecs,
            driver: barre_core::driver::BarreAllocator::new(
                crate::runner::coal_mode_of(&cfg),
                cfg.mode.max_merged(),
            ),
            plans,
            iommu,
            iommu_overflow: VecDeque::with_capacity(64),
            filter_vc,
            pcie_up: Link::new(cfg.pcie_latency, cfg.pcie_bytes_per_cycle),
            pcie_down: Link::new(cfg.pcie_latency, cfg.pcie_bytes_per_cycle),
            mesh,
            chiplets,
            shared_l2,
            least_trackers,
            valkyrie_last_miss: vec![None; n],
            sched,
            cus,
            acud,
            insts: Vec::with_capacity(warp_slots),
            free_insts: Vec::with_capacity(warp_slots),
            pages: Vec::with_capacity(page_slots),
            free_pages: Vec::with_capacity(page_slots),
            req_track: ReqSlab::with_capacity(page_slots),
            queue: EventQueue::with_capacity(page_slots),
            batches: PayloadSlab::new(),
            rcf_states: StateIds::default(),
            responses: PayloadSlab::new(),
            now: 0,
            m: RunMetrics::default(),
            injector,
            seed_free: tap.untouched(),
            arm_deadlines: cfg.ats_retry.is_some() && cfg.fault_plan.affects_ats(),
            ats_pending: AtsPendingTable::new(n),
            ats_epoch: 0,
            last_progress: 0,
            tracer: Tracer::Noop,
            trace_seq: 0,
            scratch_members: Vec::new(),
            scratch_peers: Vec::new(),
            scratch_slots: Vec::new(),
            walks_started: Vec::new(),
            walk_responses: Vec::new(),
            warp: WarpAccess::default(),
            dedup: PageDedup::new(),
            #[cfg(debug_assertions)]
            alloc_probe: None,
            event_probe: None,
            rcf_counter_sink: None,
            cancel_check: None,
            #[cfg(feature = "sanitizer")]
            san: crate::sanitizer::SanitizerReport::default(),
            #[cfg(feature = "sanitizer")]
            group_ledger: Default::default(),
            cfg,
        }
    }

    /// Whether this run cannot depend on its seed: nothing read the
    /// seed while the machine was built. The seed reaches a machine only
    /// through the [`SeedTap`] that [`build_machine`] routes every read
    /// through (the per-CTA address-stream generators of the apps that
    /// draw random numbers, and the fault injector of a non-empty fault
    /// plan), and nothing reads it after the build, so two builds that
    /// differ only in their seed run identically when this is `true`.
    ///
    /// [`build_machine`]: crate::build_machine
    pub fn seed_free(&self) -> bool {
        self.seed_free
    }

    /// Installs a heap-allocation counter for the zero-alloc hot-path
    /// assertion (debug builds only). The counter is typically backed by
    /// a counting `#[global_allocator]` owned by an integration-test
    /// binary; with it installed, every F-Barre probe `debug_assert`s
    /// that it performed zero heap allocations.
    #[cfg(debug_assertions)]
    pub fn set_alloc_probe(&mut self, counter: fn() -> u64) {
        self.alloc_probe = Some(counter);
    }

    /// Installs an event probe: after every dispatched event the machine
    /// calls `probe` with the event's class index ([`EVENT_CLASSES`]),
    /// and right after every [`POP_SAMPLE_PERIOD`]-th pop also with
    /// [`PROBE_POPPED`]. A probe that reads a clock on each call and
    /// charges the time since its previous call to the reported index
    /// attributes the run's whole wall time — pop, handler and loop
    /// bookkeeping — to event classes, with sampled pops split out. The
    /// probe sees no simulation state and schedules nothing, so
    /// `RunMetrics` are unchanged.
    pub fn set_event_probe(&mut self, probe: fn(usize)) {
        self.event_probe = Some(probe);
    }

    /// Installs a sink for the filter banks' RCF counters, summed over
    /// the chiplets (all zero without F-Barre peer sharing): a run that
    /// completes calls `sink` once with them. They count the simulator's
    /// work, not the modeled machine's, so they stay out of `RunMetrics`,
    /// and the sink sees nothing else.
    pub fn set_rcf_counter_sink(&mut self, sink: fn(RcfCounters)) {
        self.rcf_counter_sink = Some(sink);
    }

    /// Installs a cancel check: every [`CANCEL_CHECK_PERIOD`] events the
    /// machine calls `check`, and stops with [`SimError::Cancelled`] once
    /// it returns `true`. The check sees no simulation state and
    /// schedules nothing, so a run it lets finish has the same
    /// `RunMetrics` as one without it. `barre serve` uses it to end a
    /// run at its request's deadline.
    pub fn set_cancel_check(&mut self, check: Box<dyn FnMut() -> bool + Send>) {
        self.cancel_check = Some(check);
    }

    /// Runs the machine to completion and returns the measurements.
    ///
    /// # Errors
    ///
    /// [`SimError::NoProgress`] when the watchdog sees no warp memory
    /// instruction retire within `cfg.watchdog_cycles`, or the event
    /// queue drains with live state behind (pending MSHRs, undispatched
    /// CTAs, outstanding ATS) — both carry a state dump and the metrics
    /// collected so far. [`SimError::EventBudgetExceeded`] on a runaway
    /// event loop, [`SimError::TranslationFault`] on an unmapped access
    /// without demand paging, [`SimError::OutOfFrames`] when a
    /// demand-paging fault cannot be served.
    pub fn run(mut self) -> Result<RunMetrics, SimError> {
        self.run_loop()?;
        Ok(self.finalize())
    }

    /// Runs the machine to completion with a recording tracer attached,
    /// returning the measurements together with the trace recorder
    /// (stage/chiplet latency histograms, the span ring, and the
    /// event-cadence time-series samples).
    ///
    /// Tracing is passive — it schedules nothing and reads no clocks —
    /// so the returned `RunMetrics` are byte-identical to an untraced
    /// [`Machine::run`] of the same machine, and the recorder's contents
    /// are deterministic for a fixed seed.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Machine::run`].
    pub fn run_traced(
        mut self,
        opts: &TraceOptions,
    ) -> Result<(RunMetrics, Box<TraceRecorder>), SimError> {
        self.tracer = Tracer::recording(opts);
        self.run_loop()?;
        let recorder = self
            .tracer
            .take_recorder()
            .unwrap_or_else(|| Box::new(TraceRecorder::new(&TraceOptions::default())));
        Ok((self.finalize(), recorder))
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        // Prime every CU slot, staggered: real kernels ramp up as blocks
        // arrive over thousands of cycles; starting every stream at t=0
        // phase-locks the whole machine into translation/memory waves.
        let mut flat = 0u64;
        for c in 0..self.cfg.topology.n_chiplets {
            for cu in 0..self.cfg.topology.cus_per_chiplet() {
                for s in 0..self.cfg.cu_slots {
                    let at = (flat.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16) % 40_000;
                    flat += 1;
                    self.queue.push(
                        at,
                        Ev::Issue {
                            chiplet: c as u8,
                            cu: cu as u16,
                            slot: s as u8,
                        },
                    );
                }
            }
        }
        let budget: u64 = 2_000_000_000;
        while let Some((t, ev)) = self.queue.pop() {
            let probe = self.event_probe;
            if let Some(p) = probe {
                if self.queue.processed().is_multiple_of(POP_SAMPLE_PERIOD) {
                    p(PROBE_POPPED);
                }
            }
            let class = probe.map(|_| ev.class());
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            // Watchdog: observation only — it schedules nothing, so an
            // armed watchdog never perturbs cycle counts.
            if let Some(k) = self.cfg.watchdog_cycles {
                if self.now.saturating_sub(self.last_progress) > k {
                    return Err(self.no_progress(format!(
                        "watchdog: no warp memory instruction retired in {k} cycles"
                    )));
                }
            }
            self.handle(ev)?;
            if let (Some(p), Some(class)) = (probe, class) {
                p(class);
            }
            #[cfg(feature = "sanitizer")]
            if self.queue.processed().is_multiple_of(SANITIZER_EPOCH) {
                self.sanitizer_check(false);
            }
            // Time-series sampling rides the sanitizer cadence (passive:
            // reads counters, schedules nothing).
            if self.tracer.is_enabled() && self.queue.processed().is_multiple_of(SANITIZER_EPOCH) {
                self.trace_sample();
            }
            if self.queue.processed().is_multiple_of(CANCEL_CHECK_PERIOD) {
                if let Some(check) = self.cancel_check.as_mut() {
                    if check() {
                        return Err(SimError::Cancelled {
                            processed: self.queue.processed(),
                            cycle: self.now,
                        });
                    }
                }
            }
            if self.queue.processed() >= budget {
                return Err(SimError::EventBudgetExceeded {
                    processed: self.queue.processed(),
                    cycle: self.now,
                });
            }
        }
        // The queue drained; a healthy machine leaves no live state.
        if let Some(leftovers) = self.leftover_state() {
            return Err(self.no_progress(format!("event queue drained with {leftovers}")));
        }
        #[cfg(feature = "sanitizer")]
        self.sanitizer_check(true);
        // Final sample at drain so the time series always covers the
        // run's tail.
        if self.tracer.is_enabled() {
            self.trace_sample();
        }
        Ok(())
    }

    /// Snapshots cumulative counters into the tracer's time series.
    fn trace_sample(&mut self) {
        let mut l1 = (0u64, 0u64);
        let mut l2 = (0u64, 0u64);
        for ch in &self.chiplets {
            for t in &ch.l1_tlbs {
                let (h, m) = t.hits_misses();
                l1.0 = l1.0.saturating_add(h);
                l1.1 = l1.1.saturating_add(m);
            }
            let (h, m) = ch.l2_tlb.hits_misses();
            l2.0 = l2.0.saturating_add(h);
            l2.1 = l2.1.saturating_add(m);
        }
        if let Some(shared) = &self.shared_l2 {
            let (h, m) = shared.hits_misses();
            l2.0 = l2.0.saturating_add(h);
            l2.1 = l2.1.saturating_add(m);
        }
        let sample = Sample {
            cycle: self.now,
            events: self.queue.processed(),
            l1_hits: l1.0,
            l1_misses: l1.1,
            l2_hits: l2.0,
            l2_misses: l2.1,
            ats_in_flight: self.req_track.len() as u64,
            pcie_bytes: self.pcie_up.total_bytes() + self.pcie_down.total_bytes(),
            mesh_bytes: self.mesh.total_bytes()
                + self.filter_vc.iter().map(Link::total_bytes).sum::<u64>(),
            queue_spills: self.queue.spills(),
            queue_rebins: self.queue.rebins(),
            queue_growths: self.queue.growths(),
            queue_buckets: self.queue.buckets() as u64,
        };
        self.tracer.sample(sample);
    }

    fn handle(&mut self, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::Issue { chiplet, cu, slot } => self.issue(chiplet, cu, slot),
            Ev::Translate { page } => self.translate(page),
            Ev::AtsArrive { req } => self.ats_arrive(req),
            Ev::WalkDone { ptw } => self.walk_done(ptw),
            Ev::GmmuWalkDone { chiplet, walker } => self.gmmu_walk_done(chiplet, walker),
            Ev::RespArrive { resp } => {
                if let Some(resp) = self.responses.take(resp) {
                    return self.resp_arrive(resp);
                }
            }
            Ev::PeerProbe { page, at } => self.peer_probe(page, at),
            Ev::PeerReply { page, result } => self.peer_reply(page, result),
            Ev::FilterUpd { at, batch } => self.filter_upd(at, batch),
            Ev::MemStart { page } => self.mem_start(page),
            Ev::MemDone { page } => self.mem_done(page),
            Ev::MshrRetry { page } => self.l2_miss_path(page),
            Ev::AtsDeadline {
                chiplet,
                key,
                epoch,
            } => return self.ats_deadline(chiplet, key, epoch),
            Ev::FallbackDone { chiplet, key } => self.fallback_done(chiplet, key),
        }
        Ok(())
    }

    /// Applies the shared packet in slot `batch` to chiplet `at`'s RCF for
    /// its sender, through the packet's replica memo; the last receiver
    /// frees the slot.
    fn filter_upd(&mut self, at: u8, batch: u32) {
        let Some(b) = self.batches.get_mut(batch) else {
            return;
        };
        b.receivers = b.receivers.saturating_sub(1);
        let last = b.receivers == 0;
        let at = at as usize;
        let recorder = b.memo.recorder().map(ChipletId::index);
        let (receiver, recorder) = match recorder
            .filter(|&r| r != at)
            .and_then(|r| self.chiplets.get_disjoint_mut([at, r]).ok())
        {
            Some([receiver, recorder]) => (Some(receiver), recorder.filters.as_ref()),
            None => (self.chiplets.get_mut(at), None),
        };
        if let Some(f) = receiver.and_then(|c| c.filters.as_mut()) {
            let packet = Packet {
                cmd: b.cmd,
                sender: b.sender,
                asid: b.asid,
                vpns: b.vpns.get(..b.len as usize).unwrap_or(&[]),
            };
            f.apply_batch(packet, &mut b.memo, recorder, &mut self.rcf_states);
        }
        if last {
            self.batches.release(batch);
        }
    }

    /// Builds the watchdog's abort error: state dump plus the metrics
    /// collected so far (marked `watchdog_fired`).
    fn no_progress(&mut self, detail: String) -> SimError {
        self.harvest();
        self.m.watchdog_fired = 1;
        let pending_mshrs: usize = self.chiplets.iter().map(|c| c.l2_mshr.in_use()).sum();
        let undispensed: usize = (0..self.chiplets.len())
            .map(|c| self.sched.pending(ChipletId(c as u8)))
            .sum();
        let dump = format!(
            "{detail} [cycle={} pending_mshrs={pending_mshrs} outstanding_ats={} \
             inflight_reqs={} undispensed_ctas={undispensed} iommu_overflow={} \
             events_processed={}]",
            self.now,
            self.ats_pending.len(),
            self.req_track.len(),
            self.iommu_overflow.len(),
            self.queue.processed(),
        );
        SimError::NoProgress {
            cycle: self.now,
            dump,
            metrics: Box::new(self.m.clone()),
        }
    }

    /// Live state remaining after the queue drained, if any — the quiet
    /// hang the watchdog window can miss when nothing is scheduled at
    /// all (e.g. every retry exhausted with recovery disabled).
    fn leftover_state(&self) -> Option<String> {
        let pending_mshrs: usize = self.chiplets.iter().map(|c| c.l2_mshr.in_use()).sum();
        let undispensed = !self.sched.is_drained();
        if pending_mshrs == 0 && !undispensed && self.ats_pending.is_empty() {
            return None;
        }
        Some(format!(
            "live state: pending_mshrs={pending_mshrs} outstanding_ats={} \
             scheduler_drained={}",
            self.ats_pending.len(),
            !undispensed,
        ))
    }

    // ----- CU issue -----

    fn issue(&mut self, chiplet: u8, cu: u16, slot: u8) {
        let now = self.now;
        loop {
            let slot_ref = &mut self.cus[chiplet as usize][cu as usize].slots[slot as usize];
            if slot_ref.is_none() {
                match self.sched.next_for(ChipletId(chiplet)) {
                    Some(cta) => {
                        *slot_ref = Some(Stream {
                            pattern: cta.pattern,
                            asid: cta.asid,
                            warps: 0,
                        });
                    }
                    None => return, // slot retires
                }
            }
            // The slot was just (re)filled above; an empty slot here
            // would be a scheduler bug — retire it instead of panicking.
            let Some(stream) =
                self.cus[chiplet as usize][cu as usize].slots[slot as usize].as_mut()
            else {
                return;
            };
            let capped = self
                .cfg
                .max_warps_per_cta
                .is_some_and(|cap| stream.warps >= cap);
            if capped || !stream.pattern.next_into(&mut self.warp) {
                // CTA finished; loop to fetch the next one.
                self.cus[chiplet as usize][cu as usize].slots[slot as usize] = None;
                continue;
            }
            stream.warps += 1;
            let insns = stream.pattern.insns_per_access();
            let asid = stream.asid;
            self.m.warp_mem_instructions += 1;
            self.m.warp_instructions += insns;
            // Hardware warp coalescer: dedup pages across lanes.
            self.dedup.distinct_pages(&self.warp.addrs, self.page_shift);
            let inst = self.alloc_inst(WarpInst {
                chiplet,
                cu,
                slot,
                pages_left: self.dedup.pages.len() as u32,
            });
            for i in 0..self.dedup.pages.len() {
                let (vpn, off) = self.dedup.pages[i];
                self.trace_seq += 1;
                let page = self.alloc_page(PageReq {
                    inst,
                    asid,
                    vpn,
                    page_off: off,
                    write: self.warp.write,
                    chiplet,
                    cu,
                    pfn: None,
                    attempts: 0,
                    trace_id: self.trace_seq,
                    issued_at: now,
                    miss_at: 0,
                    next_waiter: 0,
                });
                self.queue.push(now, Ev::Translate { page });
            }
            return;
        }
    }

    // ----- translation front end -----

    fn translate(&mut self, page: u32) {
        let now = self.now;
        let PageReq {
            asid,
            vpn,
            chiplet,
            cu,
            trace_id,
            issued_at,
            ..
        } = self.pages[page as usize];
        let key = TlbKey { asid, vpn };
        self.m.l1_tlb_lookups += 1;
        let l1_done = now + self.cfg.l1_tlb_latency;
        self.tracer
            .span(Stage::TlbL1, trace_id, chiplet as u16, now, l1_done);
        let cu_idx = self.cfg.topology.cu_index_flat(cu);
        let cu_l1 = &mut self.chiplets[chiplet as usize].l1_tlbs[cu_idx];
        if let Some(&pfn) = cu_l1.lookup(key) {
            self.pages[page as usize].pfn = Some(pfn);
            self.tracer
                .span(Stage::CuIssue, trace_id, chiplet as u16, issued_at, l1_done);
            self.queue
                .push(now + self.cfg.l1_tlb_latency, Ev::MemStart { page });
            return;
        }
        self.m.l1_tlb_misses += 1;
        // Valkyrie: probe sibling L1s in the chiplet.
        if matches!(self.cfg.mode, TranslationMode::Valkyrie) {
            let ch = &mut self.chiplets[chiplet as usize];
            let hit = ch
                .l1_tlbs
                .iter()
                .map(|t| t.probe(key).copied())
                .find(Option::is_some)
                .flatten();
            if let Some(pfn) = hit {
                self.m.l1_peer_hits += 1;
                let idx = self.cfg.topology.cu_index_flat(cu);
                ch.l1_tlbs[idx].insert(key, pfn);
                self.pages[page as usize].pfn = Some(pfn);
                self.tracer.span(
                    Stage::CuIssue,
                    trace_id,
                    chiplet as u16,
                    issued_at,
                    now + self.cfg.l1_tlb_latency + L1_PEER_PROBE,
                );
                self.queue.push(
                    now + self.cfg.l1_tlb_latency + L1_PEER_PROBE,
                    Ev::MemStart { page },
                );
                return;
            }
        }
        self.l2_miss_path(page);
    }

    /// L2 TLB lookup and, on miss, the mode-specific downstream path.
    /// Also the MSHR-retry entry point.
    fn l2_miss_path(&mut self, page: u32) {
        let now = self.now;
        let PageReq {
            asid,
            vpn,
            chiplet,
            cu,
            trace_id,
            issued_at,
            ..
        } = self.pages[page as usize];
        let key = TlbKey { asid, vpn };
        let t1 = now + self.cfg.l1_tlb_latency + self.cfg.l2_tlb_latency;
        self.m.l2_tlb_lookups += 1;
        let hit = match &mut self.shared_l2 {
            Some(shared) => shared.lookup(key).copied(),
            None => self.chiplets[chiplet as usize].l2_tlb.lookup(key).copied(),
        };
        if let Some(payload) = hit {
            self.tracer.span(
                Stage::TlbL2,
                trace_id,
                chiplet as u16,
                now + self.cfg.l1_tlb_latency,
                t1,
            );
            self.tracer
                .span(Stage::CuIssue, trace_id, chiplet as u16, issued_at, t1);
            self.fill_l1(chiplet, cu, key, payload.pfn);
            self.pages[page as usize].pfn = Some(payload.pfn);
            self.queue.push(t1, Ev::MemStart { page });
            return;
        }
        match self.chiplets[chiplet as usize].l2_mshr.allocate(
            key,
            Some(page),
            &mut PageLinks(&mut self.pages),
        ) {
            MshrOutcome::Merged => {
                self.tracer.span(
                    Stage::TlbL2,
                    trace_id,
                    chiplet as u16,
                    now + self.cfg.l1_tlb_latency,
                    t1,
                );
                self.pages[page as usize].miss_at = now;
            }
            MshrOutcome::Full => {
                // MSHR file full: the access replays with exponential
                // backoff plus a deterministic per-page jitter. The
                // jitter keeps rejected streams from phase-locking into
                // convoys; the exponential growth bounds replay traffic.
                self.m.l2_tlb_lookups -= 1;
                let attempts = self.pages[page as usize].attempts;
                self.pages[page as usize].attempts = attempts.saturating_add(1);
                let mix = (page as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(now)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let base = MSHR_RETRY << attempts.min(5);
                let backoff = base + mix % base.max(1);
                self.queue.push(t1 + backoff, Ev::MshrRetry { page });
            }
            MshrOutcome::Primary => {
                // MPKI counts unique (primary) misses; merged duplicates
                // ride the same outstanding translation.
                self.tracer.span(
                    Stage::TlbL2,
                    trace_id,
                    chiplet as u16,
                    now + self.cfg.l1_tlb_latency,
                    t1,
                );
                self.pages[page as usize].miss_at = now;
                self.pages[page as usize].attempts = 0;
                self.m.l2_tlb_misses += 1;
                // Miss-path replay overhead: the LSU re-plays the warp's
                // memory instruction and re-arbitrates the TLB port.
                // Deterministic per-page spread; without it, uniform
                // miss latencies phase-lock the closed loop into
                // translation/memory convoys no real warp scheduler
                // exhibits.
                let mix = (key.vpn.0)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(now)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let replay = mix % 240;
                self.downstream(page, key, t1 + replay);
                self.maybe_prefetch(chiplet, key, t1 + replay);
            }
        }
    }

    /// Valkyrie's next-VPN L2 prefetch, gated on a sequential miss
    /// streak so gather workloads do not flood the IOMMU with useless
    /// prefetches.
    fn maybe_prefetch(&mut self, chiplet: u8, key: TlbKey, t: Cycle) {
        if !matches!(self.cfg.mode, TranslationMode::Valkyrie) {
            return;
        }
        let confirmed = self.valkyrie_last_miss[chiplet as usize]
            .is_some_and(|prev| prev.asid == key.asid && prev.vpn.0 + 1 == key.vpn.0);
        self.valkyrie_last_miss[chiplet as usize] = Some(key);
        if !confirmed {
            return;
        }
        let next = TlbKey {
            asid: key.asid,
            vpn: Vpn(key.vpn.0 + 1),
        };
        {
            let ch = &self.chiplets[chiplet as usize];
            if ch.l2_tlb.probe(next).is_some() || ch.l2_mshr.is_pending(next) {
                return;
            }
        }
        // Only prefetch mapped pages.
        if self.page_tables[next.asid as usize]
            .lookup(next.vpn)
            .is_none()
        {
            return;
        }
        let links = &mut PageLinks(&mut self.pages);
        if self.chiplets[chiplet as usize]
            .l2_mshr
            .allocate(next, None, links)
            == MshrOutcome::Primary
        {
            self.m.prefetches += 1;
            self.send_ats_inner(chiplet, next, t, true);
        }
    }

    /// Mode-specific path below a primary L2 miss.
    fn downstream(&mut self, page: u32, key: TlbKey, t: Cycle) {
        let PageReq {
            chiplet, trace_id, ..
        } = self.pages[page as usize];
        match self.cfg.mode {
            TranslationMode::FBarre(f) if f.peer_sharing => {
                // 1) Local calculation through the LCF.
                let (local, lcf_hits) = self.chiplet_calculate(chiplet, key);
                self.m.lcf_hits += lcf_hits;
                if let Some(payload) = local {
                    self.m.lcf_true_hits += 1;
                    self.m.intra_mcm_translations += 1;
                    self.m.lcf_translations += 1;
                    let done = t + 1 + self.cfg.l2_tlb_latency + CHIPLET_PEC_CALC;
                    self.tracer
                        .span(Stage::PecLookup, trace_id, chiplet as u16, t, done);
                    self.finish_l2_miss_at(chiplet, key, payload, done);
                    return;
                }
                // 2) Remote calculation through the RCFs.
                let peer = self.chiplets[chiplet as usize]
                    .filters
                    .as_ref()
                    .and_then(|fb| fb.rcf_hit(key.asid, key.vpn));
                if let Some(peer) = peer {
                    self.m.peer_probes += 1;
                    self.m.rcf_remote_attempts += 1;
                    let at = if f.oracle_traffic {
                        t + self.cfg.mesh_latency
                    } else {
                        self.filter_vc[chiplet as usize].send(t, PEER_MSG_BYTES)
                    };
                    self.queue.push(at, Ev::PeerProbe { page, at: peer.0 });
                    return;
                }
                self.send_ats(page, key, t);
            }
            TranslationMode::Least => {
                let me = chiplet as usize;
                let fkey = barre_core::fbarre::filter_key(key.asid, key.vpn);
                let peer = (0..self.chiplets.len())
                    .find(|&c| c != me && self.least_trackers[c].contains(fkey));
                if let Some(peer) = peer {
                    self.m.peer_probes += 1;
                    // Like F-Barre's probes, Least's tracker probes are
                    // small control messages on their own traffic class.
                    let at = self.filter_vc[chiplet as usize].send(t, PEER_MSG_BYTES);
                    self.queue.push(
                        at,
                        Ev::PeerProbe {
                            page,
                            at: peer as u8,
                        },
                    );
                } else {
                    self.send_ats(page, key, t);
                }
            }
            _ => self.send_ats(page, key, t),
        }
    }

    /// F-Barre's chiplet-side calculator (§V-A3), serving both the
    /// requester's local path and a peer's probe: finds a coalescing VPN
    /// of `key` in `chiplet`'s own L2 TLB through its LCF and calculates
    /// the requested frame from it. Returns the payload and the number of
    /// LCF hits probed. Allocation-free: the PEC entry stays borrowed from
    /// the chiplet for the whole enumeration.
    fn chiplet_calculate(&self, chiplet: u8, key: TlbKey) -> (Option<L2Payload>, u64) {
        #[cfg(debug_assertions)]
        let allocs_before = self.alloc_probe.map(|f| f());
        let ch = &self.chiplets[chiplet as usize];
        let (Some(filters), Some(entry)) = (&ch.filters, ch.pec_buffer.peek(key.asid, key.vpn))
        else {
            return (None, 0);
        };
        let mut lcf_hits = 0u64;
        let mut found = None;
        let max_merged = self.cfg.mode.max_merged();
        self.pec_logic
            .for_each_candidate(entry, key.vpn, max_merged, |cand| {
                if !filters.lcf_contains(key.asid, cand) {
                    return ControlFlow::Continue(());
                }
                lcf_hits += 1;
                let ckey = TlbKey {
                    asid: key.asid,
                    vpn: cand,
                };
                // A miss here is a filter false positive.
                let calculated = ch.l2_tlb.probe(ckey).and_then(|payload| {
                    let info = CoalInfo::decode(payload.coal_bits, self.coal_mode)?;
                    self.pec_logic
                        .calculate(cand, payload.pfn, &info, entry, key.vpn)
                });
                match calculated {
                    Some((pfn, coal_bits)) => {
                        found = Some(L2Payload { pfn, coal_bits });
                        ControlFlow::Break(())
                    }
                    None => ControlFlow::Continue(()),
                }
            });
        #[cfg(debug_assertions)]
        if let (Some(f), Some(before)) = (self.alloc_probe, allocs_before) {
            debug_assert_eq!(
                f(),
                before,
                "F-Barre chiplet-side calculation heap-allocated on the hot path"
            );
        }
        (found, lcf_hits)
    }

    // ----- ATS path -----

    fn send_ats(&mut self, page: u32, key: TlbKey, t: Cycle) {
        let chiplet = self.pages[page as usize].chiplet;
        self.send_ats_inner(chiplet, key, t, false);
    }

    fn send_ats_inner(&mut self, chiplet: u8, key: TlbKey, t: Cycle, prefetch: bool) {
        // Retry layer: every attempt (re)arms a deadline under a fresh
        // epoch; timers for superseded epochs or already-filled keys
        // no-op. The wait doubles per timeout taken, capped.
        // `arm_deadlines` is only set when a retry config exists; the
        // tuple pattern makes that coupling panic-free.
        if let (true, Some(retry)) = (self.arm_deadlines, self.cfg.ats_retry) {
            self.ats_epoch += 1;
            let epoch = self.ats_epoch;
            let e = self.ats_pending.upsert(
                chiplet,
                key,
                PendingAts {
                    attempts: 0,
                    epoch,
                    prefetch,
                },
            );
            e.epoch = epoch;
            e.prefetch = prefetch;
            let wait = retry
                .deadline
                .checked_shl(e.attempts as u32)
                .unwrap_or(Cycle::MAX)
                .min(retry.max_backoff);
            self.queue.push(
                t.saturating_add(wait),
                Ev::AtsDeadline {
                    chiplet,
                    key,
                    epoch,
                },
            );
        }
        // Fault: the request vanishes in flight. The TLP left the
        // chiplet (upstream bandwidth is consumed) but never reaches the
        // translation service, so it is not a serviced request and does
        // not count toward `ats_requests`.
        if self
            .injector
            .as_mut()
            .is_some_and(FaultInjector::drop_request)
        {
            if self.cfg.mmu == MmuKind::Iommu {
                self.pcie_up.send(t, ATS_REQUEST_BYTES);
            }
            return;
        }
        let id = self.req_track.insert(prefetch);
        let req = AtsRequest {
            id,
            asid: key.asid,
            vpn: key.vpn,
            chiplet: ChipletId(chiplet),
            issued_at: t,
        };
        self.m.ats_requests += 1;
        match self.cfg.mmu {
            MmuKind::Iommu => {
                let spike = self.injector.as_mut().map_or(0, FaultInjector::pcie_spike);
                let at = self.pcie_up.send_jittered(t, ATS_REQUEST_BYTES, spike);
                self.queue.push(at, Ev::AtsArrive { req });
            }
            MmuKind::Gmmu => {
                // Walk locally; no PCIe.
                self.queue.push(t, Ev::AtsArrive { req });
            }
        }
    }

    /// An ATS deadline fired. Retry with backoff while attempts remain;
    /// then degrade to the uncoalesced conventional-walk path (the
    /// reliability analogue of the paper's coalesced → conventional
    /// fallback) so a lossy link cannot wedge the chiplet.
    fn ats_deadline(&mut self, chiplet: u8, key: TlbKey, epoch: u64) -> Result<(), SimError> {
        let now = self.now;
        let Some(p) = self.ats_pending.get(chiplet, key) else {
            return Ok(()); // already filled
        };
        if p.epoch != epoch {
            return Ok(()); // superseded by a newer attempt
        }
        // A deadline can only have been armed under a retry config;
        // treat its absence as the timer being disarmed.
        let Some(retry) = self.cfg.ats_retry else {
            return Ok(());
        };
        self.m.ats_timeouts += 1;
        let (attempts, prefetch) = (p.attempts, p.prefetch);
        if attempts < retry.max_retries {
            if let Some(pending) = self.ats_pending.get_mut(chiplet, key) {
                pending.attempts = attempts + 1;
            }
            self.m.ats_retries += 1;
            self.send_ats_inner(chiplet, key, now, prefetch);
            return Ok(());
        }
        self.ats_pending.remove(chiplet, key);
        if self.page_tables[key.asid as usize]
            .lookup(key.vpn)
            .is_none()
        {
            // Unmapped page: with demand paging the far fault maps it
            // (and restarts the ATS cycle); without, it is a genuine
            // translation fault.
            if self.cfg.demand_paging.is_some() {
                return self.page_fault(key.asid, key.vpn, chiplet, now);
            }
            return Err(SimError::TranslationFault {
                asid: key.asid,
                vpn: key.vpn,
            });
        }
        // The fallback is a synchronous slow-path walk over a clean
        // channel: full PCIe round trip plus an uncoalesced walk.
        let done = now + 2 * self.cfg.pcie_latency + self.cfg.walk_latency;
        self.queue.push(done, Ev::FallbackDone { chiplet, key });
        Ok(())
    }

    /// The conventional-walk fallback resolves: fill from the current
    /// PTE with no coalescing bits. Counts as one serviced translation
    /// (`ats_requests`) answered by `fallback_translations`, keeping
    /// `walks + coalesced + fallback == ats_requests`.
    fn fallback_done(&mut self, chiplet: u8, key: TlbKey) {
        let now = self.now;
        let Some(pfn) = self.page_tables[key.asid as usize]
            .lookup(key.vpn)
            .map(|p| p.pfn())
        else {
            return;
        };
        self.m.fallback_translations += 1;
        self.m.ats_requests += 1;
        self.finish_l2_miss_at(chiplet, key, L2Payload { pfn, coal_bits: 0 }, now);
    }

    fn ats_arrive(&mut self, req: AtsRequest) {
        match self.cfg.mmu {
            MmuKind::Iommu => {
                if !self.iommu.enqueue(req) {
                    self.iommu_overflow.push_back(req);
                }
                self.iommu_dispatch();
            }
            MmuKind::Gmmu => {
                let c = req.chiplet.index();
                // GMMU mode guarantees a per-chiplet GMMU; drop the
                // request rather than panic if one is missing.
                let Some(g) = self.chiplets[c].gmmu.as_mut() else {
                    return;
                };
                if !g.enqueue(req) {
                    self.iommu_overflow.push_back(req);
                }
                self.gmmu_dispatch(c);
            }
        }
    }

    fn iommu_dispatch(&mut self) {
        let mut started = std::mem::take(&mut self.walks_started);
        self.iommu.dispatch(self.now, &mut started);
        self.schedule_walks(&started, |ptw| Ev::WalkDone { ptw });
        self.walks_started = started;
    }

    fn gmmu_dispatch(&mut self, c: usize) {
        let now = self.now;
        let Machine {
            chiplets,
            page_tables,
            ..
        } = self;
        let Some(g) = chiplets[c].gmmu.as_mut() else {
            return;
        };
        let pte_home = |asid: u16, vpn| {
            page_tables
                .get(asid as usize)
                .and_then(|pt| pt.lookup(vpn))
                .map(|pte| pte.pfn().chiplet())
        };
        g.dispatch(now, pte_home, &mut self.walks_started);
        let started = std::mem::take(&mut self.walks_started);
        let chiplet = c as u8;
        self.schedule_walks(&started, |walker| Ev::GmmuWalkDone { chiplet, walker });
        self.walks_started = started;
    }

    /// Schedules the completion of each started `(walker, done_at)`.
    /// Fault: a walker stall (DRAM refresh collisions, memory
    /// contention) extends the walk.
    fn schedule_walks(&mut self, started: &[(usize, Cycle)], done: impl Fn(usize) -> Ev) {
        for &(walker, at) in started {
            let stall = self
                .injector
                .as_mut()
                .map_or(0, FaultInjector::walker_stall);
            self.queue.push(at.saturating_add(stall), done(walker));
        }
    }

    fn walk_done(&mut self, ptw: usize) {
        let now = self.now;
        let Machine {
            iommu,
            page_tables,
            walk_responses,
            ..
        } = self;
        let lookup = |asid: u16, vpn| page_tables.get(asid as usize).and_then(|pt| pt.lookup(vpn));
        iommu.complete_walk(ptw, now, lookup, walk_responses);
        let responses = std::mem::take(walk_responses);
        // Refill the queue from the PCIe overflow buffer.
        while self.iommu.has_queue_space() {
            let Some(r) = self.iommu_overflow.pop_front() else {
                break;
            };
            let accepted = self.iommu.enqueue(r);
            debug_assert!(accepted);
        }
        self.iommu_dispatch();
        self.deliver(&responses);
        self.walk_responses = responses;
    }

    fn gmmu_walk_done(&mut self, chiplet: u8, walker: usize) {
        let now = self.now;
        let c = chiplet as usize;
        let Machine {
            chiplets,
            page_tables,
            walk_responses,
            ..
        } = self;
        let Some(g) = chiplets[c].gmmu.as_mut() else {
            return;
        };
        let lookup = |asid: u16, vpn| page_tables.get(asid as usize).and_then(|pt| pt.lookup(vpn));
        g.complete_walk(walker, now, lookup, walk_responses);
        let responses = std::mem::take(walk_responses);
        let mut i = 0;
        while i < self.iommu_overflow.len() {
            let r = self.iommu_overflow[i];
            if r.chiplet.index() == c {
                let Some(g) = self.chiplets[c].gmmu.as_mut() else {
                    break;
                };
                if g.enqueue(r) {
                    self.iommu_overflow.remove(i);
                    continue;
                }
                break;
            }
            i += 1;
        }
        self.gmmu_dispatch(c);
        self.deliver(&responses);
        self.walk_responses = responses;
    }

    /// Sends completed-walk responses to their chiplets: over PCIe from
    /// the IOMMU, on package from a GMMU. A faulted response vanishes,
    /// though on PCIe it still occupies the link; the chiplet's deadline
    /// timer recovers it through retry or fallback.
    fn deliver(&mut self, responses: &[(Cycle, AtsResponse)]) {
        let pcie = self.cfg.mmu == MmuKind::Iommu;
        for &(ready, resp) in responses {
            if self
                .injector
                .as_mut()
                .is_some_and(FaultInjector::drop_response)
            {
                if pcie {
                    self.pcie_down.send(ready, ATS_RESPONSE_BYTES);
                }
                continue;
            }
            let at = if pcie {
                let spike = self.injector.as_mut().map_or(0, FaultInjector::pcie_spike);
                self.pcie_down
                    .send_jittered(ready, ATS_RESPONSE_BYTES, spike)
            } else {
                ready
            };
            self.tracer.span(
                Stage::Ptw,
                ATS_TRACE_ID_BASE.wrapping_add(resp.req.id),
                resp.req.chiplet.0 as u16,
                resp.walk_started_at,
                ready,
            );
            let resp = self.responses.insert(resp);
            self.queue.push(at, Ev::RespArrive { resp });
        }
    }

    fn resp_arrive(&mut self, resp: AtsResponse) -> Result<(), SimError> {
        let now = self.now;
        // Full PCIe round trip of this request: L2-miss issue to response
        // arrival. GMMU responses never cross PCIe, so they carry no
        // ats-pcie span.
        if self.cfg.mmu == MmuKind::Iommu {
            self.tracer.span(
                Stage::AtsPcie,
                ATS_TRACE_ID_BASE.wrapping_add(resp.req.id),
                resp.req.chiplet.0 as u16,
                resp.req.issued_at,
                now,
            );
        }
        let Some(pfn) = resp.pfn else {
            return self.page_fault(resp.req.asid, resp.req.vpn, resp.req.chiplet.0, now);
        };
        let chiplet = resp.req.chiplet.index();
        // F-Barre: learn the data's PEC record from the response — unless
        // the fault model corrupts the fill, in which case the incoming
        // record is discarded and a resident one evicted (affected pages
        // fall back to walks until the record is re-learned).
        if let Some(entry) = resp.pec_entry {
            match self.injector.as_mut().and_then(FaultInjector::corrupt_pec) {
                Some(victim) => {
                    self.chiplets[chiplet].pec_buffer.evict_at(victim as usize);
                }
                None => {
                    self.chiplets[chiplet].pec_buffer.insert(entry);
                }
            }
        }
        let key = TlbKey {
            asid: resp.req.asid,
            vpn: resp.req.vpn,
        };
        // Unknown ids (e.g. the IOMMU's synthetic multicast ids) miss
        // the slab and count as demand, exactly like the old map miss.
        let was_prefetch = self.req_track.take(resp.req.id).unwrap_or(false);
        // A response walked before a migration can arrive after it; the
        // IOMMU's invalidation makes such fills stale. Detect and retry
        // (the MSHR entry is still pending).
        let current = self.page_tables[key.asid as usize]
            .lookup(key.vpn)
            .map(|p| p.pfn());
        if current != Some(pfn) {
            self.send_ats_inner(chiplet as u8, key, now, was_prefetch);
            return Ok(());
        }
        // Prefetch and demand responses fill identically: a prefetch's
        // MSHR simply has no waiters.
        self.finish_l2_miss_at(
            chiplet as u8,
            key,
            L2Payload {
                pfn,
                coal_bits: resp.coal_bits,
            },
            now,
        );
        Ok(())
    }

    /// Demand-paging far fault (§VI): the driver maps the faulting page —
    /// or, under group fetch, its whole coalescing group — and the
    /// translation retries after the fault latency.
    ///
    /// # Errors
    ///
    /// [`SimError::TranslationFault`] when demand paging is disabled
    /// (premapped workloads never fault legitimately),
    /// [`SimError::VpnOutsidePlan`] when no data object owns the VPN,
    /// [`SimError::OutOfFrames`] when physical memory is exhausted.
    fn page_fault(&mut self, asid: u16, vpn: Vpn, chiplet: u8, now: Cycle) -> Result<(), SimError> {
        let Some(dp) = self.cfg.demand_paging else {
            return Err(SimError::TranslationFault { asid, vpn });
        };
        self.m.page_faults += 1;
        // A concurrent fault may already have mapped it.
        if self.page_tables[asid as usize].lookup(vpn).is_none() {
            let group_fetch = dp.group_fetch && self.cfg.mode.uses_barre();
            let plan = self
                .plans
                .iter()
                .find(|p| p.asid == asid && p.range.contains(vpn))
                .cloned()
                .ok_or(SimError::VpnOutsidePlan { asid, vpn })?;
            let ptes = self
                .driver
                .allocate_on_fault(&plan, vpn, &mut self.frames, group_fetch)
                .map_err(|e| match e {
                    barre_core::driver::AllocError::OutOfMemory(c) => {
                        SimError::OutOfFrames { chiplet: c.0 }
                    }
                    barre_core::driver::AllocError::VpnOutsidePlan { asid, vpn } => {
                        SimError::VpnOutsidePlan { asid, vpn }
                    }
                })?;
            for (v, pte) in ptes {
                // Group fetch can touch members another fault already
                // mapped; keep the first mapping.
                if self.page_tables[asid as usize].lookup(v).is_none() {
                    self.page_tables[asid as usize].map(v, pte);
                    self.m.demand_pages_mapped += 1;
                }
            }
        }
        let key = TlbKey { asid, vpn };
        self.send_ats_inner(chiplet, key, now + dp.fault_latency, false);
        Ok(())
    }

    // ----- peer sharing -----

    fn peer_probe(&mut self, page: u32, at: u8) {
        let now = self.now;
        let PageReq { asid, vpn, .. } = self.pages[page as usize];
        let key = TlbKey { asid, vpn };
        let reply_ready = now + 1 + self.cfg.l2_tlb_latency + CHIPLET_PEC_CALC;
        let result: Option<L2Payload> = match self.cfg.mode {
            TranslationMode::Least => self.chiplets[at as usize].l2_tlb.probe(key).copied(),
            _ => {
                // F-Barre peer-side translation: exact entry, else any
                // coalescing VPN present locally.
                let exact = self.chiplets[at as usize].l2_tlb.probe(key).copied();
                exact.or_else(|| self.chiplet_calculate(at, key).0)
            }
        };
        let back = match self.cfg.mode {
            TranslationMode::FBarre(f) if f.oracle_traffic => reply_ready + self.cfg.mesh_latency,
            // F-Barre's and Least's replies ride the control class.
            _ => self.filter_vc[at as usize].send(reply_ready, PEER_MSG_BYTES),
        };
        self.queue.push(back, Ev::PeerReply { page, result });
    }

    fn peer_reply(&mut self, page: u32, result: Option<L2Payload>) {
        let now = self.now;
        let PageReq {
            asid, vpn, chiplet, ..
        } = self.pages[page as usize];
        let key = TlbKey { asid, vpn };
        let current = self.page_tables[key.asid as usize]
            .lookup(key.vpn)
            .map(|pte| pte.pfn());
        match result {
            Some(payload) if current == Some(payload.pfn) => {
                if matches!(self.cfg.mode, TranslationMode::FBarre(_)) {
                    self.m.rcf_remote_hits += 1;
                }
                self.m.intra_mcm_translations += 1;
                self.finish_l2_miss_at(chiplet, key, payload, now);
            }
            _ => {
                self.m.peer_probe_nacks += 1;
                self.send_ats(page, key, now);
            }
        }
    }

    // ----- fills -----

    fn fill_l1(&mut self, chiplet: u8, cu: u16, key: TlbKey, pfn: GlobalPfn) {
        let idx = self.cfg.topology.cu_index_flat(cu);
        self.chiplets[chiplet as usize].l1_tlbs[idx].insert(key, pfn);
    }

    /// Completes an outstanding L2 miss: fills the L2 TLB (with filter and
    /// tracker maintenance), wakes every merged waiter.
    fn finish_l2_miss_at(&mut self, chiplet: u8, key: TlbKey, payload: L2Payload, t: Cycle) {
        // Every fill — walked, IOMMU-calculated, or chiplet-calculated —
        // must agree with the page table. A fill computed before a page
        // migration can arrive after it (or be calculated from an
        // in-flight payload whose bitmap predates the exclusion); the
        // shootdown protocol turns those into retries.
        let current = self.page_tables[key.asid as usize]
            .lookup(key.vpn)
            .map(|p| p.pfn());
        if current != Some(payload.pfn) {
            self.send_ats_inner(chiplet, key, t, false);
            return;
        }
        // The key is answered: retire any outstanding retry state so
        // in-flight deadline timers become stale no-ops.
        self.ats_pending.remove(chiplet, key);
        let c = chiplet as usize;
        // A refill replaces the key's entry in place; the filters need
        // the entry it replaces.
        let ch = &self.chiplets[c];
        let prior = ch
            .filters
            .as_ref()
            .and_then(|_| ch.l2_tlb.probe(key).copied());
        // The fill is tracked before its insert, while the entry it
        // displaces still covers its group; the eviction after it.
        self.track_l2(chiplet, key, payload, FilterCmd::Add, t);
        let evicted = match &mut self.shared_l2 {
            Some(shared) => shared.insert(key, payload),
            None => self.chiplets[c].l2_tlb.insert(key, payload),
        };
        if let Some((ekey, epayload)) = evicted {
            self.track_l2(chiplet, ekey, epayload, FilterCmd::Delete, t);
        }
        if let Some(old) = prior.filter(|&p| p != payload) {
            self.broadcast_filter_updates(chiplet, key, old, FilterCmd::Delete, t);
        }
        let mut waiters = self.chiplets[c].l2_mshr.complete(key);
        while let Some(w) = waiters.next(&mut PageLinks(&mut self.pages)) {
            let PageReq {
                chiplet: at,
                cu,
                trace_id,
                issued_at,
                miss_at,
                ..
            } = self.pages[w as usize];
            self.fill_l1(at, cu, key, payload.pfn);
            self.pages[w as usize].pfn = Some(payload.pfn);
            // Per-waiter fill span (miss to wake) plus the whole-journey
            // span; prefetch fills have no waiters and trace nothing.
            self.tracer
                .span(Stage::Fill, trace_id, at as u16, miss_at, t);
            self.tracer
                .span(Stage::CuIssue, trace_id, at as u16, issued_at, t);
            self.queue.push(t, Ev::MemStart { page: w });
        }
    }

    /// Keeps Least's tracker and F-Barre's LCF in step with an L2 TLB
    /// insert (`Add`) or eviction (`Delete`), and advertises the change
    /// to the peers' RCFs.
    fn track_l2(&mut self, chiplet: u8, key: TlbKey, payload: L2Payload, cmd: FilterCmd, t: Cycle) {
        let c = chiplet as usize;
        if matches!(self.cfg.mode, TranslationMode::Least) {
            let fkey = barre_core::fbarre::filter_key(key.asid, key.vpn);
            match cmd {
                FilterCmd::Add => self.least_trackers[c].insert(fkey),
                FilterCmd::Delete => self.least_trackers[c].remove(fkey),
            };
        }
        let Some(f) = &mut self.chiplets[c].filters else {
            return;
        };
        match cmd {
            FilterCmd::Add => f.lcf_insert(key.asid, key.vpn),
            FilterCmd::Delete => f.lcf_remove(key.asid, key.vpn),
        }
        self.broadcast_filter_updates(chiplet, key, payload, cmd, t);
    }

    /// Advertises (or retracts) a TLB entry's exact VPN plus all its
    /// coalescing VPNs in the sharer peers' RCFs, best effort — when the
    /// change moves the group at all: the first resident member of a
    /// group advertises it and the last retracts it
    /// ([`group_update_due`](barre_core::fbarre::group_update_due)).
    /// The membership check is an L2 TLB lookup, so an update leaves one
    /// L2 TLB latency after the fill or eviction at `t`, as every other
    /// L2 TLB probe in the model pays it.
    fn broadcast_filter_updates(
        &mut self,
        chiplet: u8,
        key: TlbKey,
        payload: L2Payload,
        cmd: FilterCmd,
        t: Cycle,
    ) {
        let Some(info) = CoalInfo::decode(payload.coal_bits, self.coal_mode) else {
            return;
        };
        // Reused scratch buffers: after warm-up this path performs no
        // heap allocation besides the batched event payloads it queues.
        let pec_logic = self.pec_logic;
        let mut members = std::mem::take(&mut self.scratch_members);
        members.clear();
        {
            let ch = &self.chiplets[chiplet as usize];
            if let Some(entry) = ch.pec_buffer.peek(key.asid, key.vpn) {
                // Which VPN anchors the member enumeration: the entry itself.
                pec_logic.for_each_member(key.vpn, &info, entry, |m| {
                    members.push(m);
                    ControlFlow::Continue(())
                });
            }
        }
        if members.is_empty() {
            #[cfg(feature = "sanitizer")]
            self.note_unjudged_group(chiplet, key, &info);
            self.scratch_members = members;
            return;
        }
        let ch = &mut self.chiplets[chiplet as usize];
        let tlb = &ch.l2_tlb;
        let due = barre_core::fbarre::group_update_due(
            &members,
            |m| pec_logic.member_bits(&info, m),
            |vpn| tlb.probe(TlbKey { vpn, ..key }).map(|p| p.coal_bits),
        );
        if !due {
            if let Some(f) = &mut ch.filters {
                f.note_absorbed(cmd);
            }
            self.scratch_members = members;
            return;
        }
        #[cfg(feature = "sanitizer")]
        {
            let group = self
                .group_ledger
                .entry((chiplet, key.asid, members.iter().map(|m| m.vpn).collect()))
                .or_default();
            group.net += if cmd == FilterCmd::Add { 1 } else { -1 };
            group.bits = members
                .iter()
                .map(|m| pec_logic.member_bits(&info, m))
                .collect();
        }
        let t = t + self.cfg.l2_tlb_latency;
        let mut peers = std::mem::take(&mut self.scratch_peers);
        peers.clear();
        peers.extend(members.iter().map(|m| m.chiplet).filter(|c| c.0 != chiplet));
        peers.sort_unstable();
        peers.dedup();
        let oracle = matches!(self.cfg.mode, TranslationMode::FBarre(f) if f.oracle_traffic);
        let mut slots = std::mem::take(&mut self.scratch_slots);
        slots.clear();
        for &peer in &peers {
            // One batched message per peer carries the whole group's
            // advertisement (n × 43-bit records in a single mesh packet).
            self.m.filter_updates_sent += members.len() as u64;
            let bytes = 4 + FILTER_UPDATE_BYTES * members.len() as u64;
            let at = if oracle {
                t + self.cfg.mesh_latency
            } else {
                let vc = &mut self.filter_vc[chiplet as usize];
                if vc.backlog(t) > FILTER_DROP_BACKLOG {
                    self.m.filter_updates_dropped += members.len() as u64;
                    continue;
                }
                vc.send(t, bytes)
            };
            // Inline-array batches, stored once for all peers; a group
            // larger than FILTER_BATCH_MAX is split into consecutive
            // same-cycle events, which the peer applies back-to-back in
            // the original order.
            if slots.is_empty() {
                for chunk in members.chunks(FILTER_BATCH_MAX) {
                    let mut batch = FilterBatch {
                        cmd,
                        sender: ChipletId(chiplet),
                        asid: key.asid,
                        len: chunk.len() as u8,
                        receivers: 0,
                        memo: PacketMemo::default(),
                        vpns: [Vpn(0); FILTER_BATCH_MAX],
                    };
                    for (slot, m) in batch.vpns.iter_mut().zip(chunk) {
                        *slot = m.vpn;
                    }
                    slots.push(self.batches.insert(batch));
                }
            }
            for &batch in &slots {
                if let Some(b) = self.batches.get_mut(batch) {
                    b.receivers += 1;
                }
                self.queue.push(at, Ev::FilterUpd { at: peer.0, batch });
            }
        }
        self.scratch_members = members;
        self.scratch_peers = peers;
        self.scratch_slots = slots;
    }

    // ----- data access -----

    fn mem_start(&mut self, page: u32) {
        let now = self.now;
        let PageReq {
            asid,
            vpn,
            page_off,
            write,
            chiplet,
            cu,
            pfn,
            ..
        } = self.pages[page as usize];
        // Translation always precedes the data access; an untranslated
        // page here is an event-ordering bug — drop the access.
        let Some(pfn) = pfn else {
            return;
        };
        // The page may have migrated while this access was in flight
        // (its TLB entry was shot down, but the access already held the
        // frame). Re-translate instead of touching the stale frame —
        // and, crucially, instead of feeding the migration engine a
        // stale home that it would "migrate" (and double-free) again.
        if self.cfg.migration.is_some() {
            let current = self.page_tables[asid as usize].lookup(vpn).map(|e| e.pfn());
            if current != Some(pfn) {
                self.queue.push(now, Ev::Translate { page });
                return;
            }
        }
        // Migration engine observes every data access.
        if self.acud.is_some() {
            if let Some(done) = self.try_migration(asid, vpn, chiplet, pfn, now) {
                // The access restarts after migration (retranslate: the
                // page moved, TLBs were shot down).
                self.queue.push(done, Ev::Translate { page });
                return;
            }
        }
        self.m.data_accesses += 1;
        let paddr = barre_mem::PhysAddr(
            (pfn.0 << self.page_shift) | (page_off & ((1 << self.page_shift) - 1)),
        );
        let home = pfn.chiplet();
        let local = home.0 == chiplet;
        let cu_idx = self.cfg.topology.cu_index_flat(cu);
        let l1_hit = self.chiplets[chiplet as usize].l1d[cu_idx].access(paddr);
        if l1_hit {
            self.queue
                .push(now + self.cfg.l1d_latency, Ev::MemDone { page });
            return;
        }
        let t_req = if local {
            now + self.cfg.l1d_latency
        } else {
            self.m.remote_data_accesses += 1;
            // Stores carry the line with the request; loads send a small
            // request and fetch the line on the reply.
            let req_bytes = if write {
                self.cfg.line_bytes
            } else {
                self.cfg.line_bytes / 2
            };
            self.mesh.send(
                now + self.cfg.l1d_latency,
                ChipletId(chiplet),
                home,
                req_bytes,
            )
        };
        let l2_hit = self.chiplets[home.index()].l2d.access(paddr);
        let t_data = if l2_hit {
            t_req + self.cfg.l2d_latency
        } else {
            // DRAM channel occupancy: only the line transfer holds the
            // channel; the L2D lookup and DRAM access latencies pipeline.
            let ch = &mut self.chiplets[home.index()];
            let start = t_req.max(ch.dram_free);
            let ser = (self.cfg.line_bytes / self.cfg.dram_bytes_per_cycle).max(1);
            ch.dram_free = start + ser;
            start + ser + self.cfg.l2d_latency + self.cfg.dram_latency
        };
        let t_done = if local {
            t_data
        } else {
            let reply_bytes = if write { 8 } else { self.cfg.line_bytes };
            self.mesh
                .send(t_data, home, ChipletId(chiplet), reply_bytes)
        };
        self.queue.push(t_done, Ev::MemDone { page });
    }

    /// Checks ACUD counters; performs a migration when triggered. Returns
    /// the cycle the migration completes (the triggering access then
    /// retries), or `None` when no migration happens.
    fn try_migration(
        &mut self,
        asid: u16,
        vpn: Vpn,
        chiplet: u8,
        pfn: GlobalPfn,
        now: Cycle,
    ) -> Option<Cycle> {
        let acud = self.acud.as_mut()?;
        let decision = acud.record(asid, vpn, ChipletId(chiplet), pfn.chiplet())?;
        // Destination must have a free frame.
        let local = self.frames[decision.to.index()].alloc_any()?;
        let acud = self.acud.as_mut()?;
        acud.migrated(asid, vpn);
        self.m.migrations += 1;
        let old = pfn;
        let new = GlobalPfn::compose(decision.to, local);
        self.frames[old.chiplet().index()].free(old.local());
        // Rewrite the PTE: new frame, excluded from its coalescing group.
        self.page_tables[asid as usize].update(vpn, |pte| pte.with_pfn(new).with_coal_bits(0));
        // Remaining group members drop the leaving chiplet from their
        // bitmaps (§VI). Their cached translations still carry the old
        // bitmap, so the shootdown must cover the whole group — a member
        // entry left in a TLB could otherwise calculate the migrated
        // page's *old* frame. Under F-Barre each evicted L2 entry retracts
        // its own filter entry (a `Delete` update); §VI's full reset of
        // every LCF and RCF on a shootdown is not modeled.
        let group = self.exclude_from_group(asid, vpn, old.chiplet());
        for member in group.into_iter().chain(std::iter::once(vpn)) {
            let key = TlbKey { asid, vpn: member };
            for c in 0..self.chiplets.len() {
                let evicted = self.chiplets[c].l2_tlb.invalidate(key);
                if let Some(epayload) = evicted {
                    self.track_l2(c as u8, key, epayload, FilterCmd::Delete, now);
                }
                for l1 in &mut self.chiplets[c].l1_tlbs {
                    l1.invalidate(key);
                }
            }
            if let Some(shared) = &mut self.shared_l2 {
                shared.invalidate(key);
            }
            self.iommu.invalidate(asid, member);
        }
        // Invalidate cached lines of the old frame.
        let page_bytes = 1u64 << self.page_shift;
        let old_base = barre_mem::PhysAddr(old.0 << self.page_shift);
        let old_end = barre_mem::PhysAddr((old.0 << self.page_shift) + page_bytes);
        for ch in &mut self.chiplets {
            ch.l2d.invalidate_range(old_base, old_end);
        }
        // Copy cost: the page crosses the mesh, plus fixed overhead.
        let copy_done = self.mesh.send(now, old.chiplet(), decision.to, page_bytes);
        let overhead = self.cfg.migration.map(|mc| mc.overhead).unwrap_or(0);
        Some(copy_done + overhead)
    }

    /// Clears `leaving`'s participation bit in every remaining member of
    /// the coalescing group containing `(asid, vpn)`; returns the member
    /// VPNs so the caller can shoot their translations down.
    fn exclude_from_group(&mut self, asid: u16, vpn: Vpn, leaving: ChipletId) -> Vec<Vpn> {
        let Some(entry) = self
            .master_pecs
            .iter()
            .find(|e| e.contains(asid, vpn))
            .copied()
        else {
            return Vec::new();
        };
        // Use any member's PTE to enumerate the group.
        let Some(pte) = self.page_tables[asid as usize].lookup(vpn) else {
            return Vec::new();
        };
        let Some(info) = CoalInfo::decode(pte.coal_bits(), self.coal_mode) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for m in self.pec_logic.members(vpn, &info, &entry) {
            if m.vpn == vpn {
                continue;
            }
            out.push(m.vpn);
            self.page_tables[asid as usize].update(m.vpn, |p| {
                let bits = CoalInfo::decode(p.coal_bits(), self.coal_mode)
                    .map(|i| i.exclude(leaving))
                    .map(|i| if i.is_coalesced() { i.encode() } else { 0 })
                    .unwrap_or(0);
                p.with_coal_bits(bits)
            });
        }
        out
    }

    fn mem_done(&mut self, page: u32) {
        let now = self.now;
        self.last_progress = now;
        let i = self.pages[page as usize].inst;
        self.free_page(page);
        let inst = &mut self.insts[i as usize];
        inst.pages_left -= 1;
        if inst.pages_left == 0 {
            let (chiplet, cu, slot) = (inst.chiplet, inst.cu, inst.slot);
            self.free_inst(i);
            // Compute gap before the stream's next memory instruction,
            // plus a small deterministic per-warp jitter (instruction-mix
            // variation). Without it, streams served by synchronized
            // fills phase-lock into convoys that leave the PTWs idle
            // between bursts — real warp schedulers never do.
            let stream = self.cus[chiplet as usize][cu as usize].slots[slot as usize].as_ref();
            let (gap, warps) = stream
                .map(|s| (s.pattern.insns_per_access(), s.warps))
                .unwrap_or((10, 0));
            let mix = (chiplet as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((cu as u64) << 17)
                .wrapping_add((slot as u64) << 9)
                .wrapping_add(warps)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let jitter = mix % (gap / 2 + 8);
            self.queue
                .push(now + gap + jitter, Ev::Issue { chiplet, cu, slot });
        }
    }

    // ----- slabs -----

    fn alloc_inst(&mut self, inst: WarpInst) -> u32 {
        match self.free_insts.pop() {
            Some(i) => {
                self.insts[i as usize] = inst;
                i
            }
            None => {
                self.insts.push(inst);
                (self.insts.len() - 1) as u32
            }
        }
    }

    fn free_inst(&mut self, i: u32) {
        self.free_insts.push(i);
    }

    fn alloc_page(&mut self, p: PageReq) -> u32 {
        match self.free_pages.pop() {
            Some(i) => {
                self.pages[i as usize] = p;
                i
            }
            None => {
                self.pages.push(p);
                (self.pages.len() - 1) as u32
            }
        }
    }

    fn free_page(&mut self, i: u32) {
        self.free_pages.push(i);
    }

    // ----- finalization -----

    /// Copies component statistics into `self.m`. Idempotent (every
    /// field is assigned, not accumulated), so both the clean-finish and
    /// the watchdog-abort paths can call it.
    fn harvest(&mut self) {
        self.m.total_cycles = self.now;
        self.m.events_processed = self.queue.processed();
        let io = self.iommu.stats();
        self.m.walks = io.walks.get();
        self.m.coalesced_translations = io.coalesced.get();
        self.m.ats_latency = io.ats_latency.clone();
        self.m.vpn_gap = io.vpn_gap.clone();
        self.m.gmmu_local_walks = 0;
        self.m.gmmu_remote_walks = 0;
        for ch in &self.chiplets {
            if let Some(g) = &ch.gmmu {
                self.m.walks += g.local_walks.get() + g.remote_walks.get();
                self.m.gmmu_local_walks += g.local_walks.get();
                self.m.gmmu_remote_walks += g.remote_walks.get();
                self.m.coalesced_translations += g.coalesced.get();
            }
        }
        self.m.ptw_busy_cycles = io.ptw_busy.get();
        self.m.pw_queue_rejections = io.queue_rejections.get();
        self.m.pcie_bytes = self.pcie_up.total_bytes() + self.pcie_down.total_bytes();
        self.m.mesh_bytes =
            self.mesh.total_bytes() + self.filter_vc.iter().map(Link::total_bytes).sum::<u64>();
        self.m.faults_injected = self.injector.as_ref().map_or(0, |i| i.counts().total());
    }

    fn finalize(mut self) -> RunMetrics {
        self.harvest();
        if let Some(sink) = self.rcf_counter_sink {
            let mut counters = RcfCounters::default();
            for f in self.chiplets.iter().filter_map(|c| c.filters.as_ref()) {
                counters += f.rcf_counters();
            }
            sink(counters);
        }
        self.m
    }
}

/// Events between conservation-law checks (sanitizer builds) and
/// tracer time-series samples — one cadence so a traced sanitizer run
/// lines the two up.
const SANITIZER_EPOCH: u64 = 65_536;

#[cfg(feature = "sanitizer")]
impl Machine {
    /// Translations serviced so far — walks, coalesced calculations, and
    /// fallback walks — from live counters (harvest-equivalent).
    fn serviced_translations(&self) -> u64 {
        let io = self.iommu.stats();
        let mut serviced = io.walks.get() + io.coalesced.get() + self.m.fallback_translations;
        for ch in &self.chiplets {
            if let Some(g) = &ch.gmmu {
                serviced += g.local_walks.get() + g.remote_walks.get() + g.coalesced.get();
            }
        }
        serviced
    }

    /// Evaluates conservation laws 1–4 against the machine's current
    /// state (the epoch check adds law 5). `at_drain` upgrades the translation law from `<=` to exact
    /// equality (mid-run, serviced requests lag issued ones).
    pub fn conservation_violations(&self, at_drain: bool) -> Vec<crate::sanitizer::Violation> {
        use crate::sanitizer::Violation;
        let cycle = self.now;
        let mut v = Vec::new();

        // Law 1: translation conservation. An IOMMU TLB services
        // requests without a counted walk and speculative multicast
        // services requests that were never issued; both decouple the
        // two sides, so the law only holds with them off.
        if self.cfg.iommu_tlb.is_none() && !self.cfg.barre_multicast {
            let serviced = self.serviced_translations();
            let requests = self.m.ats_requests;
            let broken = if at_drain {
                serviced != requests
            } else {
                serviced > requests
            };
            if broken {
                v.push(Violation {
                    law: "translation-conservation",
                    detail: format!(
                        "serviced {serviced} (walks + coalesced + fallback) vs \
                         {requests} ats_requests{}",
                        if at_drain {
                            " at drain (must be equal)"
                        } else {
                            ""
                        }
                    ),
                    cycle,
                });
            }
        }

        // Law 2: frame accounting — the allocator's bitmap and its
        // cached free counter must agree with capacity.
        for (i, f) in self.frames.iter().enumerate() {
            let allocated = f.allocated_frames();
            if allocated + f.free_frames() != f.capacity() as u64 {
                v.push(Violation {
                    law: "frame-accounting",
                    detail: format!(
                        "chiplet {i}: allocated {allocated} + free {} != capacity {}",
                        f.free_frames(),
                        f.capacity()
                    ),
                    cycle,
                });
            }
        }

        // Law 3: MSHR bounds — in-flight misses within the register file.
        for (i, ch) in self.chiplets.iter().enumerate() {
            let (in_use, cap) = (ch.l2_mshr.in_use(), ch.l2_mshr.capacity());
            if in_use > cap {
                v.push(Violation {
                    law: "mshr-bounds",
                    detail: format!(
                        "chiplet {i}: {in_use} in-flight misses exceed {cap} registers"
                    ),
                    cycle,
                });
            }
        }

        // Law 4: link accounting — serialization takes at least one
        // cycle per message and at least bytes/bandwidth cycles overall.
        let mut check_link = |name: String, l: &Link| {
            let (msgs, busy, bytes) = (l.total_msgs(), l.busy_cycles(), l.total_bytes());
            if msgs > busy || bytes > busy.saturating_mul(l.bytes_per_cycle()) {
                v.push(Violation {
                    law: "link-accounting",
                    detail: format!(
                        "{name}: msgs={msgs} bytes={bytes} busy_cycles={busy} \
                         bytes_per_cycle={}",
                        l.bytes_per_cycle()
                    ),
                    cycle,
                });
            }
        };
        check_link("pcie-up".to_string(), &self.pcie_up);
        check_link("pcie-down".to_string(), &self.pcie_down);
        for (i, l) in self.filter_vc.iter().enumerate() {
            check_link(format!("filter-vc[{i}]"), l);
        }
        v
    }

    /// Law 5, group advertisement: a chiplet's sent group updates (adds
    /// minus deletes) come to one while a member covers the group in its
    /// L2 TLB and to none once no member does. Private, so the TLB
    /// probes it makes stay off the public entry points' panic paths.
    fn group_advertisement_violations(&self) -> Vec<crate::sanitizer::Violation> {
        use crate::sanitizer::Violation;
        let cycle = self.now;
        let mut v = Vec::new();
        for ((c, asid, vpns), group) in &self.group_ledger {
            if group.unjudged {
                continue;
            }
            let (net, bits) = (group.net, &group.bits);
            let Some(tlb) = self.chiplets.get(*c as usize).map(|ch| &ch.l2_tlb) else {
                continue;
            };
            let covered = vpns.iter().zip(bits).any(|(&vpn, &b)| {
                tlb.probe(TlbKey { asid: *asid, vpn })
                    .is_some_and(|p| p.coal_bits == b)
            });
            if net != i64::from(covered) {
                v.push(Violation {
                    law: "group-advertisement",
                    detail: format!(
                        "chiplet {c}: group {:x?} sent {net} net updates while {}",
                        vpns.iter().map(|v| v.0).collect::<Vec<_>>(),
                        if covered { "covered" } else { "uncovered" }
                    ),
                    cycle,
                });
            }
        }
        v
    }

    /// One epoch check: records violations and `debug_assert!`s clean,
    /// dumping the structured report on failure.
    fn sanitizer_check(&mut self, at_drain: bool) {
        self.san.epochs_checked += 1;
        let mut found = self.conservation_violations(at_drain);
        found.extend(self.group_advertisement_violations());
        // Retracted groups have nothing left to check.
        self.group_ledger.retain(|_, g| g.net != 0 || g.unjudged);
        if !found.is_empty() {
            self.san.violations.extend(found);
            debug_assert!(false, "{}", self.san.render());
        }
    }

    /// Marks the group of an L2 TLB fill or eviction that its chiplet
    /// could not judge for want of the data's PEC record (it learns the
    /// record from its first ATS response for the data). The updates it
    /// sends for that group no longer follow residence, so the group law
    /// leaves the group out.
    fn note_unjudged_group(&mut self, chiplet: u8, key: TlbKey, info: &CoalInfo) {
        let Some(entry) = self
            .master_pecs
            .iter()
            .find(|e| e.contains(key.asid, key.vpn))
        else {
            return;
        };
        let mut vpns = Vec::new();
        self.pec_logic.for_each_member(key.vpn, info, entry, |m| {
            vpns.push(m.vpn);
            ControlFlow::Continue(())
        });
        if !vpns.is_empty() {
            let group = self
                .group_ledger
                .entry((chiplet, key.asid, vpns))
                .or_default();
            group.unjudged = true;
        }
    }

    /// Violations recorded so far (release sanitizer builds accumulate
    /// instead of asserting).
    pub fn sanitizer_report(&self) -> &crate::sanitizer::SanitizerReport {
        &self.san
    }

    /// Test hook: fabricates a serviced translation that answers no ATS
    /// request — the accounting-bug shape the sanitizer exists to catch.
    #[doc(hidden)]
    pub fn sanitizer_inject_accounting_skew(&mut self) {
        self.m.fallback_translations += 1;
    }
}

/// Extension used by the machine to flatten CU ids (CU index within a
/// chiplet).
trait TopoExt {
    fn cu_index_flat(&self, cu: u16) -> usize;
}

impl TopoExt for barre_gpu::Topology {
    fn cu_index_flat(&self, cu: u16) -> usize {
        cu as usize
    }
}
