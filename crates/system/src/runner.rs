//! Building and running experiments.
//!
//! [`build_machine`] performs everything the host software stack would:
//! virtual allocation per data object, policy planning (LASP & friends),
//! driver page mapping (Barre-enforced or default), page-table and
//! PEC-record construction, CTA creation and scheduling. A [`Run`] is
//! one simulation (workloads, machine, seed), and the one description
//! every front end executes: `barre run`, `barre serve`, sweeps, and the
//! figure registry.

use barre_core::driver::{AllocError, BarreAllocator, MappingPlan};
use barre_core::{CoalMode, PecEntry};
use barre_gpu::{Cta, CtaId, CtaScheduler};
use barre_mem::{FrameAllocator, GlobalPfn, PageTable, Pte, PteFlags, VirtAddr, VirtAllocator};
use barre_sim::SeedTap;
use barre_workloads::{AppId, WorkloadSpec};

use crate::config::{SystemConfig, TranslationMode};
use crate::error::SimError;
use crate::machine::Machine;
use crate::metrics::RunMetrics;

/// The PTE coalescing layout a configuration implies.
pub fn coal_mode_of(cfg: &SystemConfig) -> CoalMode {
    if cfg.topology.n_chiplets > 8 {
        // Beyond 8 chiplets only the §VI wide layout fits the PTE bits;
        // it cannot express merged runs, so callers must use
        // `max_merged == 1` there.
        return CoalMode::Wide;
    }
    match cfg.mode {
        TranslationMode::FBarre(f) if f.max_merged > 1 => CoalMode::Expanded,
        _ => CoalMode::Base,
    }
}

/// Builds a ready-to-run machine executing `specs` concurrently (one
/// address space each).
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for an inconsistent configuration,
/// [`SimError::OutOfFrames`] when a chiplet runs out of physical frames
/// during premapping (auto-sizing leaves ample headroom, so this
/// indicates undersized `frames_per_chiplet`).
pub fn build_machine(
    specs: &[WorkloadSpec],
    cfg: &SystemConfig,
    seed: u64,
) -> Result<Machine, SimError> {
    cfg.validate()?;
    let n = cfg.topology.n_chiplets;
    let shift = cfg.page_size.shift();
    let total_pages: u64 = specs
        .iter()
        .flat_map(|s| s.datasets())
        .map(|d| d.bytes.div_ceil(1 << shift))
        .sum();
    let frames_per_chiplet = cfg
        .frames_per_chiplet
        .unwrap_or(((total_pages * 2 / n as u64) + 512) as usize);
    let mut frames: Vec<FrameAllocator> = (0..n)
        .map(|_| FrameAllocator::new(frames_per_chiplet))
        .collect();

    let use_barre = cfg.mode.uses_barre();
    let demand = cfg.demand_paging.is_some();
    let mut driver = BarreAllocator::new(coal_mode_of(cfg), cfg.mode.max_merged());
    // One page table per app, one plan/PEC per dataset, and the CTA
    // count is known per spec up front — size everything exactly.
    let n_datasets: usize = specs.iter().map(|s| s.datasets().len()).sum();
    let total_ctas: usize = specs
        .iter()
        .map(|s| s.n_ctas(cfg.topology.total_cus()) as usize)
        .sum();
    let mut page_tables = Vec::with_capacity(specs.len());
    let mut master_pecs: Vec<PecEntry> = Vec::with_capacity(n_datasets);
    let mut plans: Vec<MappingPlan> = Vec::with_capacity(n_datasets);
    let mut ctas = Vec::with_capacity(total_ctas);
    let mut next_cta = 0u32;
    // Every read of the run seed goes through this one tap, so the
    // machine can tell whether its run depends on the seed at all.
    let mut tap = SeedTap::new(seed);

    for (asid, spec) in specs.iter().enumerate() {
        let asid = asid as u16;
        let mut va = VirtAllocator::new();
        let mut pt = PageTable::new(asid);
        let mut bases = Vec::new();
        for decl in spec.datasets() {
            let pages = decl.bytes.div_ceil(1 << shift).max(1);
            let (_, range) = va.alloc(pages);
            bases.push(range.start.base_addr(shift));
            let hint = decl.hint(shift, n);
            let plan: MappingPlan = cfg.policy.plan(asid, range, hint, n);
            if demand {
                // On-demand paging: nothing premapped; the PEC record is
                // still programmed (the driver knows the layout).
                if use_barre {
                    master_pecs.push(plan.pec_entry());
                }
            } else if use_barre {
                let out = driver.allocate(&plan, &mut frames).map_err(|e| match e {
                    AllocError::OutOfMemory(c) => SimError::OutOfFrames { chiplet: c.0 },
                    AllocError::VpnOutsidePlan { asid, vpn } => {
                        SimError::VpnOutsidePlan { asid, vpn }
                    }
                })?;
                for (v, pte) in out.ptes {
                    pt.map(v, pte);
                }
                master_pecs.push(out.pec);
            } else {
                allocate_plain(&plan, &mut frames, &mut pt)?;
            }
            plans.push(plan);
        }
        let n_ctas = spec.n_ctas(cfg.topology.total_cus());
        for cta in 0..n_ctas {
            let home = cfg.policy.cta_home(cta, n_ctas, n).chiplet;
            let pattern =
                spec.cta_pattern_tapped(cta, n_ctas, &bases, &mut tap, (asid as u64) << 32);
            ctas.push(Cta {
                id: CtaId(next_cta),
                asid,
                home,
                pattern,
            });
            next_cta += 1;
        }
        page_tables.push(pt);
    }
    // Interleave multi-app CTAs so co-running kernels share CUs
    // fine-grained (§VII-I) rather than running back to back.
    if specs.len() > 1 {
        ctas.sort_by_key(|c| (c.id.0 % 97, c.id.0));
    }
    let sched = CtaScheduler::new(n, ctas);
    Ok(Machine::assemble(
        cfg.clone(),
        page_tables,
        frames,
        master_pecs,
        plans,
        sched,
        tap,
    ))
}

/// Default driver allocation: each page individually on its planned
/// chiplet, no coalescing bits.
fn allocate_plain(
    plan: &MappingPlan,
    frames: &mut [FrameAllocator],
    pt: &mut PageTable,
) -> Result<(), SimError> {
    for vpn in plan.range.iter() {
        let chiplet = plan.chiplet_of(vpn).ok_or(SimError::VpnOutsidePlan {
            asid: plan.asid,
            vpn,
        })?;
        let local = frames[chiplet.index()]
            .alloc_any()
            .ok_or(SimError::OutOfFrames { chiplet: chiplet.0 })?;
        let pfn = GlobalPfn::compose(chiplet, local);
        pt.map(vpn, Pte::new(pfn, PteFlags::default()));
    }
    Ok(())
}

/// Runs one workload spec under `cfg`.
///
/// # Errors
///
/// Everything [`build_machine`] and [`Machine::run`] can report.
pub fn run_spec(spec: WorkloadSpec, cfg: &SystemConfig, seed: u64) -> Result<RunMetrics, SimError> {
    build_machine(&[spec], cfg, seed)?.run()
}

/// One simulation: the workloads it co-runs (one app, or a §VII-I
/// pair), the machine, and the seed. Two runs that compare equal are the
/// same simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Co-scheduled workloads, one address space each.
    pub specs: Vec<WorkloadSpec>,
    /// The machine.
    pub cfg: SystemConfig,
    /// Run seed.
    pub seed: u64,
}

impl Run {
    /// `app` alone on `cfg`.
    pub fn app(app: AppId, cfg: SystemConfig, seed: u64) -> Run {
        Run {
            specs: vec![app.spec()],
            cfg,
            seed,
        }
    }

    /// The ready-to-run machine ([`build_machine`]).
    ///
    /// # Errors
    ///
    /// Everything [`build_machine`] can report.
    pub fn build(&self) -> Result<Machine, SimError> {
        build_machine(&self.specs, &self.cfg, self.seed)
    }

    /// Builds and runs the machine.
    ///
    /// # Errors
    ///
    /// Everything [`build_machine`] and [`Machine::run`] can report.
    pub fn simulate(&self) -> Result<RunMetrics, SimError> {
        self.build()?.run()
    }

    /// The workloads, `+`-joined, each with any footprint scale:
    /// `gups`, `gemv+gups`, `bicg x16`.
    pub fn apps(&self) -> String {
        let apps: Vec<String> = self
            .specs
            .iter()
            .map(|s| match s.scale {
                1 => s.app.name().to_string(),
                n => format!("{} x{n}", s.app.name()),
            })
            .collect();
        apps.join("+")
    }

    /// Names the run in an error: its workloads and translation mode,
    /// e.g. `gemv+gups / Barre`.
    pub fn label(&self) -> String {
        format!("{} / {}", self.apps(), self.cfg.mode.label())
    }
}

/// A run plus the human label every harness (inline sweep, the
/// crash-isolated supervisor, journal records) uses for it. Keeping the
/// label on the job — rather than re-deriving it per frontend — is what
/// makes a resumed sweep's rows match an uninterrupted run's exactly.
#[derive(Debug, Clone)]
pub struct LabeledJob {
    /// Display/journal label, e.g. `"gups/fbarre"` or `"gups/drop=0.01"`.
    pub label: String,
    /// The simulation to run.
    pub run: Run,
}

/// The canonical job list of `barre sweep`: per app, a baseline run then
/// a `cfg.mode` run. Every execution path (in-process pool, supervised
/// children, `--job-index` replay) derives its work from this one
/// function, so a job index means the same simulation everywhere.
pub fn sweep_jobs(apps: &[AppId], cfg: &SystemConfig, seed: u64) -> Vec<LabeledJob> {
    let base_cfg = cfg.clone().with_mode(TranslationMode::Baseline);
    apps.iter()
        .flat_map(|&app| {
            [
                LabeledJob {
                    label: format!("{app}/baseline"),
                    run: Run::app(app, base_cfg.clone(), seed),
                },
                LabeledJob {
                    label: format!("{app}/{}", cfg.mode.label()),
                    run: Run::app(app, cfg.clone(), seed),
                },
            ]
        })
        .collect()
}

/// The canonical job list of `barre chaos`: one run per ATS-request drop
/// rate. Same single-source-of-truth contract as [`sweep_jobs`].
pub fn chaos_jobs(app: AppId, cfg: &SystemConfig, seed: u64, rates: &[f64]) -> Vec<LabeledJob> {
    rates
        .iter()
        .map(|&rate| {
            let plan = barre_sim::FaultPlan {
                ats_request_drop: rate,
                ..barre_sim::FaultPlan::none()
            };
            LabeledJob {
                label: format!("{app}/drop={rate}"),
                run: Run::app(app, cfg.clone().with_fault_plan(plan), seed),
            }
        })
        .collect()
}

/// Simulates independent runs across `threads` pool workers
/// ([`barre_sim::pool`]), returning each run's own `Result` in input
/// order. Every simulation stays single-threaded and deterministic — the
/// batch output is identical at any `threads`.
///
/// # Errors
///
/// [`SimError::WorkerPanicked`] when a pool worker died; per-run
/// simulation failures come back inside the vector, not as an `Err`.
pub fn run_batch(
    runs: &[Run],
    threads: usize,
) -> Result<Vec<Result<RunMetrics, SimError>>, SimError> {
    let closures: Vec<_> = runs.iter().map(|r| move || r.simulate()).collect();
    barre_sim::pool::run_ordered(closures, threads).map_err(SimError::from)
}

/// A tiny smoke workload used by unit/integration tests: a strided kernel
/// small enough to finish in well under a second in debug builds.
pub fn smoke_config() -> SystemConfig {
    let mut cfg = SystemConfig::scaled();
    cfg.topology = barre_gpu::Topology {
        n_chiplets: 4,
        sas_per_chiplet: 1,
        cus_per_sa: 2,
    };
    cfg.cu_slots = 6;
    cfg.max_warps_per_cta = Some(120);
    cfg
}

/// Ignore-the-details helper for examples: pretty-prints a metrics
/// one-liner.
pub fn summary_line(label: &str, m: &RunMetrics) -> String {
    format!(
        "{label:<18} cycles={:<12} MPKI={:<8.2} ATS={:<8} walks={:<8} coalesced={:<8} intra-MCM={:<8} remote-data={:.1}%",
        m.total_cycles,
        m.mpki(),
        m.ats_requests,
        m.walks,
        m.coalesced_translations,
        m.intra_mcm_translations,
        m.remote_access_rate() * 100.0
    )
}

// `VirtAddr` is used in doc examples.
#[allow(unused_imports)]
use barre_mem::Vpn;
const _: fn() -> VirtAddr = || VirtAddr(0);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FBarreConfig;
    use crate::metrics::speedup;
    use barre_workloads::AppPair;

    fn run_app(app: AppId, cfg: &SystemConfig, seed: u64) -> RunMetrics {
        Run::app(app, cfg.clone(), seed)
            .simulate()
            .expect("run failed")
    }

    #[test]
    fn baseline_smoke_run_completes() {
        let cfg = smoke_config();
        let m = run_app(AppId::Gemv, &cfg, 1);
        assert!(m.total_cycles > 0);
        assert!(m.warp_instructions > 0);
        assert!(m.data_accesses > 0);
    }

    #[test]
    fn deterministic_runs() {
        let cfg = smoke_config();
        let a = run_app(AppId::Jac2d, &cfg, 5);
        let b = run_app(AppId::Jac2d, &cfg, 5);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
        assert_eq!(a.ats_requests, b.ats_requests);
    }

    #[test]
    fn barre_coalesces_on_synchronized_app() {
        // Stencil slices progress in lockstep across chiplets, so group
        // members reach the PW-queue together — the condition Barre's
        // IOMMU-side coalescing exploits (§IV-B). Needs enough run
        // length for the queue to back up, so use the scaled config with
        // a modest warp cap.
        let mut cfg = crate::config::SystemConfig::scaled();
        cfg.max_warps_per_cta = Some(400);
        let barre = run_app(
            AppId::St2d,
            &cfg.clone().with_mode(TranslationMode::Barre),
            2,
        );
        assert!(barre.coalesced_translations > 0, "no coalescing happened");
        assert_eq!(
            barre.walks + barre.coalesced_translations,
            barre.ats_requests,
            "every ATS answered by exactly one walk or calculation"
        );
    }

    #[test]
    fn fbarre_cuts_ats_traffic() {
        let cfg = smoke_config();
        let base = run_app(AppId::Bicg, &cfg, 3);
        let fb = run_app(
            AppId::Bicg,
            &cfg.clone()
                .with_mode(TranslationMode::FBarre(FBarreConfig::default())),
            3,
        );
        assert!(fb.intra_mcm_translations > 0, "no intra-MCM translations");
        assert!(
            fb.ats_requests < base.ats_requests,
            "ATS {} !< {}",
            fb.ats_requests,
            base.ats_requests
        );
        assert!(speedup(&base, &fb) > 0.5);
    }

    #[test]
    fn tracing_is_passive() {
        // Recording must not perturb the simulation: metrics digests of
        // a traced and an untraced simulation of one `Run` are
        // identical, and the recorder actually saw the journey.
        let run = Run::app(AppId::Gups, smoke_config(), 7);
        let plain = run.simulate().expect("run failed");
        let (traced, rec) = run
            .build()
            .and_then(|m| m.run_traced(&barre_trace::TraceOptions::default()))
            .expect("traced run failed");
        assert_eq!(
            crate::journal::metrics_digest(&plain),
            crate::journal::metrics_digest(&traced)
        );
        assert!(rec.ring().recorded() > 0, "no spans recorded");
        assert!(
            rec.stage_histogram(barre_trace::Stage::CuIssue).count() > 0,
            "no journeys recorded"
        );
    }

    #[test]
    fn event_queue_growth_policy_is_pinned() {
        // The calendar wheel's adaptive growth is observable only through
        // the trace `Sample` channel. Pin the last sample's queue
        // counters, `(spills, rebins, growths, buckets)`, for the gups
        // smoke cells at the CLI's default seed — the `event queue:` line
        // `barre report` prints for `barre trace gups --mode <m> --smoke`.
        let cfg = smoke_config();
        let cells = [
            (
                cfg.clone()
                    .with_mode(TranslationMode::FBarre(FBarreConfig::default())),
                (76, 76, 1, 65_536),
            ),
            (
                cfg.clone().with_mode(TranslationMode::Baseline),
                (357, 357, 1, 65_536),
            ),
        ];
        for (cfg, want) in cells {
            let (_, rec) = Run::app(AppId::Gups, cfg.clone(), 0x15CA_2024)
                .build()
                .and_then(|m| m.run_traced(&barre_trace::TraceOptions::default()))
                .expect("traced run failed");
            let last = rec.samples().last().expect("no samples");
            let got = (
                last.queue_spills,
                last.queue_rebins,
                last.queue_growths,
                last.queue_buckets,
            );
            assert_eq!(got, want, "{}", cfg.mode.label());
        }
    }

    #[test]
    fn multi_app_pair_runs() {
        let cfg = smoke_config();
        let pair = AppPair {
            a: AppId::Gemv,
            b: AppId::Gups,
        };
        let run = Run {
            specs: vec![pair.a.spec(), pair.b.spec()],
            cfg,
            seed: 4,
        };
        assert_eq!(run.label(), "gemv+gups / baseline");
        let m = run.simulate().expect("run failed");
        assert!(m.total_cycles > 0);
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = smoke_config();
        cfg.l2_tlb_ways = 0;
        let err = Run::app(AppId::Gemv, cfg, 1).simulate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn frame_exhaustion_is_an_error_not_a_panic() {
        let mut cfg = smoke_config();
        cfg.frames_per_chiplet = Some(1); // far too small for any app
        let err = Run::app(AppId::Gemv, cfg, 1).simulate().unwrap_err();
        assert!(matches!(err, SimError::OutOfFrames { .. }), "{err}");
    }
}
