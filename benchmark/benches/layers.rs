//! Per-layer numbers: host time per call into the simulator's layers,
//! the modelled components' own counts, and the host cost of single
//! structure operations replayed on the workload's VPN stream.

use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

use barre_core::fbarre::{filter_key, FilterBank, FilterCmd, FilterUpdate, FILTER_KICK_BUDGET};
use barre_core::{BarreAllocator, CoalInfo, PecEntry, PecLogic};
use barre_filters::{CuckooFilter, Filter};
use barre_mem::{ChipletId, FrameAllocator, GlobalPfn, PageTable, VirtAllocator, Vpn};
use barre_sim::{EventQueue, Histogram, Rng};
use barre_system::runner::coal_mode_of;
use barre_system::{RunMetrics, SystemConfig, TranslationMode};
use barre_tlb::{Tlb, TlbKey};
use barre_workloads::AppId;

use crate::metrics::Values;
use crate::sim::{self, with_mode, Cell, CellRun, MODES};
use crate::spans::Spans;
use crate::stats::geomean;

/// Layer metrics of the worker pool.
pub const POOL: &[&str] = &["pool.busy_frac"];
/// Layer metrics of `barre serve`.
pub const SERVE: &[&str] = &[
    "serve.server_ms_mean",
    "serve.wire_ms_mean",
    "serve.cache_hit_ratio",
    "serve.queue_max_depth",
    "serve.shed",
    "serve.child_retries",
];
/// Layer metrics of the per-job child process (serve and the queue
/// worker both spawn one per simulation).
pub const CLI: &[&str] = &[
    "cli.run_child_ms",
    "system.simulate_ms",
    "serve.spawn_overhead_ms",
];
/// Layer metrics of the job queue.
pub const JOBQ: &[&str] = &[
    "jobq.queued_ms_p50",
    "jobq.attempt_ms_p50",
    "jobq.collect_lag_ms_p50",
    "jobq.lease_expiries",
    "jobq.heartbeats_lost",
    "jobq.overhead_frac",
];

/// Reports the layers a workload's path does not pass through as 0.
pub fn absent(v: &mut Values, groups: &[&[&'static str]]) {
    for name in groups.iter().flat_map(|g| g.iter()) {
        v.insert(name, 0.0);
    }
}

/// The simulator-layer, model and structure metrics of a daemon
/// workload, whose simulations run in child processes: its apps in every
/// mode, run once in-process through each layer under spans. Returns
/// the cell runs.
pub fn in_process(
    apps: &[AppId],
    seed: u64,
    spans: &Spans,
    v: &mut Values,
) -> Result<Vec<(Cell, CellRun)>, String> {
    let cells = sim::cells(apps, &barre_system::smoke_config(), &[seed]);
    let pass = sim::run_pass(&cells, 1, spans, "layer pass");
    let mut clock = Clock::default();
    let mut done = Vec::new();
    for (c, r) in cells.iter().zip(pass.runs) {
        let r = r?;
        clock.add(c.mode, &r);
        done.push((c.clone(), r));
    }
    clock.finish(v);
    let ms: Vec<RunMetrics> = done.iter().map(|(_, r)| r.metrics.clone()).collect();
    model(&cells, &ms, v);
    structures(apps, &barre_system::smoke_config(), seed, &ms, v);
    Ok(done)
}

/// Accumulated host time of each layer call over traced cells.
#[derive(Debug, Default)]
pub struct Clock {
    cells: u64,
    build_s: f64,
    run_s: [f64; 3],
    events: [u64; 3],
    encode_s: f64,
    decode_s: f64,
    digest_s: f64,
}

impl Clock {
    /// Adds one cell run in `mode`.
    pub fn add(&mut self, mode: &str, r: &CellRun) {
        let m = MODES.iter().position(|x| *x == mode).unwrap_or(0);
        self.cells += 1;
        self.build_s += r.build_s;
        self.run_s[m] += r.run_s;
        self.events[m] += r.metrics.events_processed;
        self.encode_s += r.encode_s;
        self.decode_s += r.decode_s;
        self.digest_s += r.digest_s;
    }

    /// Writes the per-call means.
    pub fn finish(&self, out: &mut Values) {
        let n = self.cells.max(1) as f64;
        out.insert("runner.build_machine_ms", self.build_s / n * 1e3);
        for (i, name) in [
            "machine.run_ns_per_event.baseline",
            "machine.run_ns_per_event.barre",
            "machine.run_ns_per_event.fbarre",
        ]
        .into_iter()
        .enumerate()
        {
            let ev = self.events[i];
            out.insert(
                name,
                if ev == 0 {
                    0.0
                } else {
                    self.run_s[i] / ev as f64 * 1e9
                },
            );
        }
        out.insert("journal.encode_us", self.encode_s / n * 1e6);
        out.insert("journal.decode_us", self.decode_s / n * 1e6);
        out.insert("journal.digest_us", self.digest_s / n * 1e6);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `baseline cycles / mode cycles` geomean over the (app, seed) pairs of
/// `cells`.
fn speedup(cells: &[Cell], ms: &[RunMetrics], mode: &str) -> f64 {
    let cycles = |of: &Cell, m: &str| {
        cells
            .iter()
            .zip(ms)
            .find(|(c, _)| c.app == of.app && c.seed == of.seed && c.mode == m)
            .map(|(_, r)| r.total_cycles as f64)
    };
    geomean(
        cells
            .iter()
            .filter(|c| c.mode == "baseline")
            .filter_map(|c| Some(cycles(c, "baseline")? / cycles(c, mode)?)),
    )
}

/// Simulated-time speedups, for the human-readable report.
pub fn speedup_lines(cells: &[Cell], ms: &[RunMetrics]) -> Vec<String> {
    ["barre", "fbarre"]
        .iter()
        .map(|m| {
            format!(
                "sim_speedup.{m} (simulated cycles, unvalidated model): {:.4}",
                speedup(cells, ms, m)
            )
        })
        .collect()
}

/// Cycle value below which a share `q` of the histogram's samples fall
/// (the power-of-two bucket's upper bound).
fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let want = (q * h.count() as f64).ceil() as u64;
    let mut seen = 0;
    for (upper, c) in h.buckets() {
        seen += c;
        if seen >= want.max(1) {
            return upper as f64;
        }
    }
    0.0
}

fn merged_ats_latency(ms: &[RunMetrics]) -> Histogram {
    let mut buckets: Vec<u64> = Vec::new();
    let (mut count, mut sum, mut max) = (0u64, 0u128, 0u64);
    for m in ms {
        let h = &m.ats_latency;
        if buckets.len() < h.raw_buckets().len() {
            buckets.resize(h.raw_buckets().len(), 0);
        }
        for (b, c) in buckets.iter_mut().zip(h.raw_buckets()) {
            *b += c;
        }
        count += h.count();
        sum += h.sum();
        max = max.max(h.max());
    }
    Histogram::from_raw(buckets, count, sum, max)
}

/// The modelled components' counts over one pass of `cells` (results in
/// `ms`, same order). Deterministic for a given seed.
pub fn model(cells: &[Cell], ms: &[RunMetrics], out: &mut Values) {
    let sum = |f: fn(&RunMetrics) -> u64| ms.iter().map(f).sum::<u64>();
    for (i, mode) in MODES.iter().enumerate() {
        let ev: u64 = cells
            .iter()
            .zip(ms)
            .filter(|(c, _)| c.mode == *mode)
            .map(|(_, m)| m.events_processed)
            .sum();
        let name = [
            "machine.events.baseline",
            "machine.events.barre",
            "machine.events.fbarre",
        ][i];
        out.insert(name, ev as f64);
    }
    out.insert("sim_speedup.barre", speedup(cells, ms, "barre"));
    out.insert("sim_speedup.fbarre", speedup(cells, ms, "fbarre"));
    out.insert(
        "tlb.l1_miss_rate",
        ratio(sum(|m| m.l1_tlb_misses), sum(|m| m.l1_tlb_lookups)),
    );
    out.insert(
        "tlb.l2_miss_rate",
        ratio(sum(|m| m.l2_tlb_misses), sum(|m| m.l2_tlb_lookups)),
    );
    out.insert("iommu.ats_requests", sum(|m| m.ats_requests) as f64);
    out.insert("iommu.walks", sum(|m| m.walks) as f64);
    out.insert(
        "iommu.pw_queue_rejections",
        sum(|m| m.pw_queue_rejections) as f64,
    );
    let lat = merged_ats_latency(ms);
    out.insert("iommu.ats_latency_p50_cycles", hist_quantile(&lat, 0.5));
    out.insert("iommu.ats_latency_p99_cycles", hist_quantile(&lat, 0.99));
    out.insert("pec.coalesced", sum(|m| m.coalesced_translations) as f64);
    out.insert(
        "filters.lcf_true_hit_ratio",
        ratio(sum(|m| m.lcf_true_hits), sum(|m| m.lcf_hits)),
    );
    out.insert(
        "filters.peer_probe_nack_ratio",
        ratio(sum(|m| m.peer_probe_nacks), sum(|m| m.peer_probes)),
    );
    out.insert(
        "filters.updates_sent",
        sum(|m| m.filter_updates_sent) as f64,
    );
    out.insert(
        "filters.updates_dropped",
        sum(|m| m.filter_updates_dropped) as f64,
    );
    out.insert("mesh.bytes", sum(|m| m.mesh_bytes) as f64);
    out.insert("pcie.bytes", sum(|m| m.pcie_bytes) as f64);
}

/// One app laid out the way `build_machine` lays it out under F-Barre
/// (address space 0), plus the pages its CTAs touch, in the order a
/// round-robin CTA scheduler runs them.
struct Replay {
    vpns: Vec<Vpn>,
    pt: PageTable,
    pecs: Vec<PecEntry>,
}

fn replay(app: AppId, cfg: &SystemConfig, seed: u64, cap: usize) -> Result<Replay, String> {
    let spec = app.spec();
    let n = cfg.topology.n_chiplets;
    let shift = cfg.page_size.shift();
    let total_pages: u64 = spec
        .datasets()
        .iter()
        .map(|d| d.bytes.div_ceil(1 << shift))
        .sum();
    let frames_per_chiplet = (total_pages * 2 / n as u64 + 512) as usize;
    let mut frames: Vec<FrameAllocator> = (0..n)
        .map(|_| FrameAllocator::new(frames_per_chiplet))
        .collect();
    let mut barre = BarreAllocator::new(coal_mode_of(cfg), cfg.mode.max_merged());
    let (mut va, mut pt) = (VirtAllocator::new(), PageTable::new(0));
    let (mut bases, mut pecs) = (Vec::new(), Vec::new());
    for decl in spec.datasets() {
        let (_, range) = va.alloc(decl.bytes.div_ceil(1 << shift).max(1));
        bases.push(range.start.base_addr(shift));
        let plan = cfg.policy.plan(0, range, decl.hint(shift, n), n);
        let out = barre
            .allocate(&plan, &mut frames)
            .map_err(|e| format!("{app}: allocate: {e:?}"))?;
        for (v, pte) in out.ptes {
            pt.map(v, pte);
        }
        pecs.push(out.pec);
    }
    let n_ctas = spec.n_ctas(cfg.topology.total_cus());
    let mut patterns: Vec<_> = (0..n_ctas)
        .map(|cta| spec.cta_pattern(cta, n_ctas, &bases, seed))
        .collect();
    let warp_cap = cfg.max_warps_per_cta.unwrap_or(u64::MAX);
    let mut vpns = Vec::with_capacity(cap);
    let mut page_set: Vec<Vpn> = Vec::with_capacity(32);
    'warps: for _ in 0..warp_cap {
        let mut live = false;
        for p in &mut patterns {
            let Some(w) = p.next_warp() else { continue };
            live = true;
            page_set.clear();
            for a in &w.addrs {
                let v = Vpn(a.0 >> shift);
                if !page_set.contains(&v) {
                    page_set.push(v);
                }
            }
            vpns.extend_from_slice(&page_set);
            if vpns.len() >= cap {
                break 'warps;
            }
        }
        if !live {
            break;
        }
    }
    vpns.truncate(cap);
    Ok(Replay { vpns, pt, pecs })
}

/// Nanoseconds per call of `op` over `items`.
fn per_op<T>(items: &[T], mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for x in items {
        op(x);
    }
    t0.elapsed().as_secs_f64() * 1e9 / items.len() as f64
}

/// Time and operation count per structure, summed over apps.
#[derive(Default)]
struct OpTimes(Vec<(&'static str, f64, u64)>);

impl OpTimes {
    fn add(&mut self, name: &'static str, ns_per_op: f64, ops: usize) {
        let ops = ops as u64;
        match self.0.iter_mut().find(|e| e.0 == name) {
            Some(e) => {
                e.1 += ns_per_op * ops as f64;
                e.2 += ops;
            }
            None => self.0.push((name, ns_per_op * ops as f64, ops)),
        }
    }
}

/// Host nanoseconds per structure operation, replaying each app's own
/// VPN stream through the public structure APIs under the F-Barre
/// configuration of `base`. Event gaps for the calendar queue come from
/// the workload's observed ATS latencies (`sample`).
pub fn structures(
    apps: &[AppId],
    base: &SystemConfig,
    seed: u64,
    sample: &[RunMetrics],
    out: &mut Values,
) {
    let cfg = with_mode(base, "fbarre");
    let rows = match cfg.mode {
        TranslationMode::FBarre(f) => f.filter_rows,
        _ => 256,
    };
    let n = cfg.topology.n_chiplets;
    let logic = PecLogic::new(coal_mode_of(&cfg));
    let merge = cfg.mode.max_merged();
    let cap = 400_000 / apps.len().max(1);
    let mut t = OpTimes::default();
    for &app in apps {
        let Ok(r) = replay(app, &cfg, seed, cap) else {
            continue;
        };
        let keys: Vec<u64> = r.vpns.iter().map(|&v| filter_key(0, v)).collect();

        let mut f = CuckooFilter::with_max_kicks(rows, 4, 9, seed, FILTER_KICK_BUDGET);
        t.add(
            "filters.key_hash_ns",
            per_op(&keys, |&k| {
                black_box(f.key_hash(black_box(k)));
            }),
            keys.len(),
        );
        t.add(
            "filters.insert_ns",
            per_op(&keys, |&k| {
                black_box(f.insert(black_box(k)));
            }),
            keys.len(),
        );
        let hashes: Vec<_> = keys.iter().map(|&k| f.key_hash(k)).collect();
        t.add(
            "filters.contains_hashed_ns",
            per_op(&hashes, |&h| {
                black_box(f.contains_hashed(black_box(h)));
            }),
            hashes.len(),
        );
        let mut bank = FilterBank::new(ChipletId(0), n, rows, seed);
        for (i, &vpn) in r.vpns.iter().enumerate() {
            let sender = ChipletId(1 + (i % (n - 1)) as u8);
            bank.apply_update(FilterUpdate {
                cmd: FilterCmd::Add,
                sender,
                asid: 0,
                vpn,
            });
        }
        t.add(
            "filters.rcf_probe_ns",
            per_op(&r.vpns, |&v| {
                black_box(bank.rcf_hit_cached(0, black_box(v)));
            }),
            r.vpns.len(),
        );

        let covered: Vec<(Vpn, &PecEntry)> = r
            .vpns
            .iter()
            .filter_map(|&v| Some((v, r.pecs.iter().find(|e| e.contains(0, v))?)))
            .collect();
        t.add(
            "pec.for_each_candidate_ns",
            per_op(&covered, |(v, e)| {
                let mut k = 0u32;
                logic.for_each_candidate(e, *v, merge, |w| {
                    k += 1;
                    black_box(w);
                    ControlFlow::Continue(())
                });
                black_box(k);
            }),
            covered.len(),
        );
        let calcs: Vec<(Vpn, GlobalPfn, CoalInfo, &PecEntry, Vpn)> = covered
            .iter()
            .filter_map(|&(v, e)| {
                let pte = r.pt.lookup(v)?;
                let info = CoalInfo::decode(pte.coal_bits(), logic.mode())?;
                let mut pending = None;
                logic.for_each_candidate(e, v, merge, |w| {
                    pending = Some(w);
                    ControlFlow::Break(())
                });
                Some((v, pte.pfn(), info, e, pending?))
            })
            .collect();
        t.add(
            "pec.calc_pfn_ns",
            per_op(&calcs, |(v, pfn, info, e, p)| {
                black_box(logic.calc_pfn(black_box(*v), *pfn, info, e, *p));
            }),
            calcs.len(),
        );

        let key = |v: Vpn| TlbKey { asid: 0, vpn: v };
        let mut tlb: Tlb<u64> = Tlb::new(cfg.l2_tlb_entries, cfg.l2_tlb_ways);
        t.add(
            "tlb.insert_ns",
            per_op(&r.vpns, |&v| {
                black_box(tlb.insert(key(black_box(v)), v.0));
            }),
            r.vpns.len(),
        );
        t.add(
            "tlb.lookup_ns",
            per_op(&r.vpns, |&v| {
                black_box(tlb.lookup(key(black_box(v))).copied());
            }),
            r.vpns.len(),
        );
        t.add(
            "mem.page_table_walk_ns",
            per_op(&r.vpns, |&v| {
                black_box(r.pt.walk(black_box(v)));
            }),
            r.vpns.len(),
        );
    }

    // Calendar queue: a hold model — pop the earliest event, push a new
    // one a gap later — with gaps drawn from the observed ATS latency
    // distribution, over a standing population of 1024 events.
    let lat = merged_ats_latency(sample);
    let weighted: Vec<(u64, u64)> = lat.buckets().collect();
    let total: u64 = weighted.iter().map(|b| b.1).sum();
    let mut rng = Rng::new(seed ^ 0x0E0E);
    let gaps: Vec<u64> = (0..4096)
        .map(|_| {
            if total == 0 {
                return 1;
            }
            let mut pick = rng.next_below(total);
            let (upper, _) = weighted
                .iter()
                .copied()
                .find(|&(_, c)| {
                    let hit = pick < c;
                    pick = pick.saturating_sub(c);
                    hit
                })
                .unwrap_or((1, 1));
            (upper / 2).max(1) + rng.next_below((upper / 2).max(1))
        })
        .collect();
    let mut q: EventQueue<u64> = EventQueue::new();
    for (i, g) in gaps.iter().take(1024).enumerate() {
        q.push(*g, i as u64);
    }
    let steps: Vec<u64> = gaps.iter().cycle().take(400_000).copied().collect();
    t.add(
        "sim.queue_push_pop_ns",
        per_op(&steps, |&g| {
            if let Some((at, ev)) = q.pop() {
                q.push(at + g, black_box(ev));
            }
        }),
        steps.len(),
    );
    for (name, ns, ops) in t.0 {
        out.insert(name, if ops == 0 { 0.0 } else { ns / ops as f64 });
    }
}
