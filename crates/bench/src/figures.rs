//! The figure registry: one entry per paper table or figure, each
//! holding its cells and the extractor that turns their metrics into a
//! [`Table`](crate::results::Table). `barre repro` runs a selection of
//! entries; the committed `RESULTS.json` is the whole registry's output.
//!
//! Most entries are column tables: each row owns a run of cells (one
//! workload under the entry's configs), each column reads one number
//! from a row's metrics, and a footer row aggregates every column.

use barre_core::overhead::{OverheadParams, OverheadReport};
use barre_filters::CuckooFilter;
use barre_mapping::PolicyKind;
use barre_mem::PageSize;
use barre_system::{
    geomean, speedup, DemandPagingConfig, FBarreConfig, MigrationConfig, MmuKind, Run, RunMetrics,
    SystemConfig, TranslationMode,
};
use barre_workloads::{AppId, AppPair, Category, WorkloadSpec};

use crate::results::{Fmt, Value};
use crate::SEED;

/// One table row: its label and one value per column.
type Row = (String, Vec<Value>);

type Extract = Box<dyn Fn(&[&RunMetrics]) -> Vec<Row>>;

/// A registry entry: the cells one table or figure simulates and the
/// extractor that turns their metrics, in cell order, into its rows.
pub struct Figure {
    /// Registry name, as `barre repro` takes it (`fig15`).
    pub name: &'static str,
    /// What the table shows.
    pub title: &'static str,
    pub(crate) key: &'static str,
    /// The simulations, in the order the extractor reads them.
    pub cells: Vec<Run>,
    pub(crate) columns: Vec<(String, Fmt)>,
    pub(crate) extract: Extract,
}

/// How a footer row aggregates a column.
#[derive(Clone, Copy)]
enum Agg {
    None,
    Mean,
    Geomean,
    Sum,
}

/// What a column reads from one row's metrics (`None`: no value).
type Reader = Box<dyn Fn(&[&RunMetrics]) -> Option<f64>>;

/// A column of a column table: its header, format, footer aggregate,
/// and its reader.
struct Col {
    name: String,
    fmt: Fmt,
    agg: Agg,
    value: Reader,
}

fn col(
    name: impl Into<String>,
    fmt: Fmt,
    agg: Agg,
    value: impl Fn(&[&RunMetrics]) -> Option<f64> + 'static,
) -> Col {
    Col {
        name: name.into(),
        fmt,
        agg,
        value: Box::new(value),
    }
}

/// Speedup of row cell `j` over row cell `i`, geomean footer.
fn sp(name: impl Into<String>, i: usize, j: usize) -> Col {
    col(name, Fmt::X, Agg::Geomean, move |r| {
        Some(speedup(r.get(i)?, r.get(j)?))
    })
}

/// A count read from row cell `i`.
fn count(name: &str, agg: Agg, i: usize, f: fn(&RunMetrics) -> u64) -> Col {
    col(name, Fmt::Dec(0), agg, move |r| Some(f(r.get(i)?) as f64))
}

/// A labelled run of cells.
type RowCells = (String, Vec<Run>);

/// Rows of cells, then the footer label (empty for none).
type Group = (Vec<RowCells>, &'static str);

/// A column table over row groups, each closed by its footer row.
fn columns(
    name: &'static str,
    title: &'static str,
    key: &'static str,
    groups: Vec<Group>,
    cols: Vec<Col>,
) -> Figure {
    let shape: Vec<(Vec<(String, usize)>, &str)> = groups
        .iter()
        .map(|(rows, footer)| {
            (
                rows.iter().map(|(l, c)| (l.clone(), c.len())).collect(),
                *footer,
            )
        })
        .collect();
    let cells = groups
        .into_iter()
        .flat_map(|g| g.0)
        .flat_map(|r| r.1)
        .collect();
    let headers = cols.iter().map(|c| (c.name.clone(), c.fmt)).collect();
    let extract = move |ms: &[&RunMetrics]| {
        let (mut out, mut next) = (Vec::new(), 0);
        for (rows, footer) in &shape {
            let mut seen = vec![Vec::new(); cols.len()];
            for (label, n) in rows {
                let r = ms.get(next..next + n).unwrap_or_default();
                next += n;
                let row = cols.iter().zip(&mut seen).map(|(c, s)| {
                    let v = (c.value)(r);
                    s.extend(v);
                    v.map_or(Value::Empty, Value::num)
                });
                out.push((label.clone(), row.collect()));
            }
            if !footer.is_empty() {
                let agg = cols.iter().zip(&seen).map(|(c, v)| match c.agg {
                    Agg::None => Value::Empty,
                    Agg::Mean => Value::num(v.iter().sum::<f64>() / v.len() as f64),
                    Agg::Geomean => Value::num(geomean(v.iter().copied())),
                    Agg::Sum => Value::num(v.iter().sum()),
                });
                out.push((footer.to_string(), agg.collect()));
            }
        }
        out
    };
    Figure {
        name,
        title,
        key,
        cells,
        columns: headers,
        extract: Box::new(extract),
    }
}

/// One row per workload: its cells under every config, in order.
fn rows(specs: &[WorkloadSpec], cfgs: &[SystemConfig], suffix: &str) -> Vec<RowCells> {
    specs
        .iter()
        .map(|s| {
            let cells = cfgs.iter().map(|c| cell(vec![*s], c)).collect();
            (format!("{}{suffix}", s.app), cells)
        })
        .collect()
}

fn cell(specs: Vec<WorkloadSpec>, cfg: &SystemConfig) -> Run {
    Run {
        specs,
        cfg: cfg.clone(),
        seed: SEED,
    }
}

fn specs(apps: &[AppId], scale: u64) -> Vec<WorkloadSpec> {
    apps.iter()
        .map(|&app| WorkloadSpec { app, scale })
        .collect()
}

/// Speedup of every config over the first, per workload, geomean
/// footer.
fn speedups(
    name: &'static str,
    title: &'static str,
    specs: &[WorkloadSpec],
    cfgs: Vec<(&str, SystemConfig)>,
) -> Figure {
    let cols = (1..cfgs.len()).map(|j| sp(cfgs[j].0, 0, j)).collect();
    let cfgs: Vec<SystemConfig> = cfgs.into_iter().map(|c| c.1).collect();
    columns(
        name,
        title,
        "app",
        vec![(rows(specs, &cfgs, ""), "geomean")],
        cols,
    )
}

/// F-Barre over its own baseline at every point of an axis: per
/// workload, a `(baseline, F-Barre)` cell pair per point.
fn axis(bases: &[SystemConfig], mode: TranslationMode) -> Vec<SystemConfig> {
    bases
        .iter()
        .flat_map(|b| [b.clone(), b.clone().with_mode(mode)])
        .collect()
}

/// One speedup column per axis point (cell pair).
fn axis_cols(names: &[&str]) -> Vec<Col> {
    names
        .iter()
        .enumerate()
        .map(|(k, n)| sp(*n, 2 * k, 2 * k + 1))
        .collect()
}

fn fbarre(f: impl FnOnce(&mut FBarreConfig)) -> TranslationMode {
    let mut c = FBarreConfig::default();
    f(&mut c);
    TranslationMode::FBarre(c)
}

fn pct_cut(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (1.0 - new / base) * 100.0
    }
}

/// The balanced low/mid/high subset the paper uses for its heaviest
/// sweeps (§VII-H4 "a balanced number of workloads from each TLB MPKI
/// class").
pub const BALANCED: [AppId; 9] = [
    AppId::Gemv,
    AppId::Fft,
    AppId::Pr,
    AppId::Jac2d,
    AppId::Lu,
    AppId::St2d,
    AppId::Matr,
    AppId::Gups,
    AppId::Spmv,
];

/// The entries `names` selects, in registry order; no names selects
/// every entry.
///
/// # Errors
///
/// A message naming the first unknown name and listing the known ones.
pub fn select(names: &[String]) -> Result<Vec<Figure>, String> {
    let all = registry();
    if let Some(bad) = names.iter().find(|n| !all.iter().any(|f| f.name == *n)) {
        let known: Vec<&str> = all.iter().map(|f| f.name).collect();
        return Err(format!("unknown figure {bad} (known: {})", known.join(" ")));
    }
    Ok(all
        .into_iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f.name))
        .collect())
}

/// Every entry, in EXPERIMENTS.md order.
pub fn registry() -> Vec<Figure> {
    let all = specs(&AppId::all(), 1);
    let s = SystemConfig::scaled;
    let with = |mode| s().with_mode(mode);
    let fb = TranslationMode::FBarre(FBarreConfig::default());
    let oracle = fbarre(|c| c.oracle_traffic = true);
    let migration = Some(MigrationConfig::default());
    let mshrs = |mult: usize| {
        let mut c = s();
        c.l2_tlb_mshrs *= mult;
        c
    };
    let merged = |n: u8| with(fbarre(|c| c.max_merged = n));
    let parts = |ptw_sched: bool, peer_sharing: bool| {
        with(fbarre(|c| {
            c.max_merged = 1;
            c.ptw_sched = ptw_sched;
            c.peer_sharing = peer_sharing;
        }))
    };
    let chiplets = |n: usize| {
        let mut c = s();
        c.topology = c.topology.with_chiplets(n);
        c
    };
    let mut iommu_tlb = s();
    iommu_tlb.iommu_tlb = Some((2048, 8, 200));
    let paged =
        [PageSize::Size4K, PageSize::Size64K, PageSize::Size2M].map(|p| s().with_page_size(p));
    let policies = [
        PolicyKind::RoundRobin,
        PolicyKind::Chunking,
        PolicyKind::Coda,
    ]
    .map(|p| s().with_policy(p));
    vec![
        table1(&all),
        table2(),
        speedups(
            "fig1",
            "Fig 1: speedup over 8 PTWs with 16, 32 and infinite PTWs (baseline translation)",
            &all,
            vec![
                ("8 PTWs", s().with_ptws(Some(8))),
                ("16 PTWs", s().with_ptws(Some(16))),
                ("32 PTWs", s().with_ptws(Some(32))),
                ("inf PTWs", s().with_ptws(None)),
            ],
        ),
        speedups(
            "fig2",
            "Fig 2: 2 MiB super page speedup over 4 KiB pages, migration on, 8x inputs",
            &specs(&AppId::all(), 8),
            vec![
                ("4KB+migration", s().with_migration(migration)),
                (
                    "2MB+migration",
                    s().with_migration(migration)
                        .with_page_size(PageSize::Size2M),
                ),
            ],
        ),
        speedups(
            "fig4",
            "Fig 4: speedup with 1x/2x/4x L2 TLB MSHRs (baseline translation)",
            &all,
            vec![
                ("16 MSHRs", mshrs(1)),
                ("32 MSHRs", mshrs(2)),
                ("64 MSHRs", mshrs(4)),
            ],
        ),
        fig5(),
        speedups(
            "fig6",
            "Fig 6: ideal shared L2 TLB (4x entries, no added latency) vs private",
            &all,
            vec![
                ("private", s()),
                ("shared-ideal", with(TranslationMode::SharedL2Ideal)),
            ],
        ),
        speedups(
            "fig15",
            "Fig 15: overall speedup vs baseline, all translation architectures",
            &all,
            vec![
                ("baseline", s()),
                ("Valkyrie", with(TranslationMode::Valkyrie)),
                ("Least", with(TranslationMode::Least)),
                ("Barre", with(TranslationMode::Barre)),
                ("F-Barre-NoMerge", merged(1)),
                ("F-Barre-2Merge", merged(2)),
                ("F-Barre-4Merge", merged(4)),
            ],
        ),
        fig16(&all),
        columns(
            "fig17",
            "Fig 17: (a) RCF remote and LCF local hit rates at 256 rows (blank: no probes); \
             (b) speedup of 512/1024-row filters over 256",
            "app",
            vec![(
                rows(
                    &all,
                    &[256, 512, 1024].map(|n| with(fbarre(|c| c.filter_rows = n))),
                    "",
                ),
                "mean / geomean",
            )],
            vec![
                col("remote hit", Fmt::Pct, Agg::Mean, |r| {
                    (r[0].rcf_remote_attempts > 0).then(|| r[0].remote_hit_rate() * 100.0)
                }),
                col("local hit", Fmt::Pct, Agg::Mean, |r| {
                    (r[0].lcf_hits > 0).then(|| r[0].local_hit_rate() * 100.0)
                }),
                sp("512 rows", 0, 1),
                sp("1024 rows", 0, 2),
            ],
        ),
        speedups(
            "fig18",
            "Fig 18: F-Barre-NoMerge feature breakdown, speedup over plain Barre",
            &all,
            vec![
                ("Barre", with(TranslationMode::Barre)),
                ("+PTW-sched", parts(true, false)),
                ("+peer-sharing", parts(false, true)),
                ("+both", parts(true, true)),
            ],
        ),
        columns(
            "fig19",
            "Fig 19: F-Barre vs oracle (traffic-free) coalescing-information sharing, \
             speedup over baseline",
            "app",
            vec![(rows(&all, &[s(), with(fb), with(oracle)], ""), "geomean")],
            vec![
                sp("F-Barre", 0, 1),
                sp("Oracle", 0, 2),
                col("% of oracle", Fmt::Pct, Agg::Geomean, |r| {
                    Some(speedup(r[0], r[1]) / speedup(r[0], r[2]) * 100.0)
                }),
            ],
        ),
        columns(
            "fig20",
            "Fig 20: F-Barre-NoMerge speedup vs baseline at 2/4/8/16 chiplets (balanced subset)",
            "app",
            vec![(
                rows(
                    &specs(&BALANCED, 1),
                    &axis(&[2, 4, 8, 16].map(chiplets), fbarre(|c| c.max_merged = 1)),
                    "",
                ),
                "geomean",
            )],
            axis_cols(&["2 chiplets", "4 chiplets", "8 chiplets", "16 chiplets"]),
        ),
        fig21(&all),
        columns(
            "fig22",
            "Fig 22: speedup of ACUD+BarreChord over ACUD (migration threshold 16)",
            "app",
            vec![(
                rows(
                    &all,
                    &[
                        s().with_migration(migration),
                        with(fb).with_migration(migration),
                    ],
                    "",
                ),
                "geomean / total",
            )],
            vec![
                sp("ACUD+BarreChord", 0, 1),
                count("migrations", Agg::Sum, 1, |m| m.migrations),
            ],
        ),
        columns(
            "fig23",
            "Fig 23: F-Barre speedup over the same-PTW baseline at 8/16/32 PTWs",
            "app",
            vec![(
                rows(
                    &all,
                    &axis(&[8, 16, 32].map(|p| s().with_ptws(Some(p))), fb),
                    "",
                ),
                "geomean",
            )],
            axis_cols(&["8 PTWs", "16 PTWs", "32 PTWs"]),
        ),
        columns(
            "fig24",
            "Fig 24: F-Barre speedup under 4 KiB/64 KiB/2 MiB pages; \
             x16 rows run the balanced subset at 16x inputs",
            "app",
            vec![
                (rows(&all, &axis(&paged, fb), ""), "geomean"),
                (
                    rows(&specs(&BALANCED, 16), &axis(&paged[..2], fb), " x16"),
                    "geomean x16",
                ),
            ],
            axis_cols(&["4KB", "64KB", "2MB"]),
        ),
        speedups(
            "fig25",
            "Fig 25: Barre Chord at 4 KiB over 2 MiB super pages, both with ACUD migration, \
             8x inputs",
            &specs(&AppId::all(), 8),
            vec![
                (
                    "superpage",
                    s().with_page_size(PageSize::Size2M)
                        .with_migration(migration),
                ),
                ("BarreChord/superpage", with(fb).with_migration(migration)),
            ],
        ),
        columns(
            "fig26",
            "Fig 26: F-Barre speedup vs the same-policy baseline, per page-mapping policy",
            "app",
            vec![(rows(&all, &axis(&policies, fb), ""), "geomean")],
            axis_cols(&["round-robin", "chunking", "CODA"]),
        ),
        columns(
            "fig27a",
            "Fig 27a: F-Barre speedup for co-scheduled app pairs",
            "classes (pair)",
            vec![(
                AppPair::fig27_pairs()
                    .into_iter()
                    .map(|(l, p)| {
                        let pair = || vec![p.a.spec(), p.b.spec()];
                        let cells = vec![cell(pair(), &s()), cell(pair(), &with(fb))];
                        (format!("{l} ({})", p.label()), cells)
                    })
                    .collect(),
                "geomean",
            )],
            vec![sp("speedup", 0, 1)],
        ),
        speedups(
            "fig27b",
            "Fig 27b: F-Barre speedup on a system with a 2048-entry IOMMU TLB",
            &all,
            vec![
                ("IOMMU-TLB", iommu_tlb.clone()),
                ("IOMMU-TLB+F-Barre", iommu_tlb.with_mode(fb)),
            ],
        ),
        sec7k(),
        ablation_multicast(),
        ablation_pec(),
        columns(
            "ablation-drop",
            "Ablation (§V-A2): best-effort vs oracle filter-update delivery, speedup over baseline",
            "app",
            vec![(
                rows(&all, &[s(), with(fb), with(oracle)], ""),
                "geomean / total",
            )],
            vec![
                sp("best-effort", 0, 1),
                sp("oracle", 0, 2),
                count("updates sent", Agg::Sum, 1, |m| m.filter_updates_sent),
                count("updates dropped", Agg::Sum, 1, |m| m.filter_updates_dropped),
            ],
        ),
        sec6(),
    ]
}

/// A table whose rows need more than one row's metrics (app constants,
/// text, or no simulation at all).
fn custom(
    name: &'static str,
    title: &'static str,
    key: &'static str,
    cells: Vec<RowCells>,
    columns: &[(&str, Fmt)],
    extract: impl Fn(&[&RunMetrics]) -> Vec<Row> + 'static,
) -> Figure {
    Figure {
        name,
        title,
        key,
        cells: cells.into_iter().flat_map(|r| r.1).collect(),
        columns: columns.iter().map(|(n, f)| (n.to_string(), *f)).collect(),
        extract: Box::new(extract),
    }
}

fn table1(all: &[WorkloadSpec]) -> Figure {
    let apps = AppId::all();
    custom(
        "table1",
        "Table I: L2 TLB MPKI and intensity class (baseline, LASP, 4 chiplets)",
        "app",
        rows(all, &[SystemConfig::scaled()], ""),
        &[
            ("paper MPKI", Fmt::Dec(3)),
            ("MPKI", Fmt::Dec(2)),
            ("paper class", Fmt::Text),
            ("class", Fmt::Text),
        ],
        move |ms| {
            let row = |a: &AppId, m: &RunMetrics| {
                let v = [Value::num(a.paper_mpki()), Value::num(m.mpki())];
                let c = [a.category(), Category::of_mpki(m.mpki())];
                let c = c.map(|c| Value::Text(c.to_string()));
                (a.name().to_string(), v.into_iter().chain(c).collect())
            };
            apps.iter().zip(ms).map(|(a, m)| row(a, m)).collect()
        },
    )
}

fn table2() -> Figure {
    let text = |c: SystemConfig| -> Vec<(String, String)> {
        let lines = c.table2();
        let rows = lines.lines().filter_map(|l| l.split_once("| "));
        rows.map(|(k, v)| (k.trim_end().into(), v.into())).collect()
    };
    let rows: Vec<Row> = text(SystemConfig::paper())
        .into_iter()
        .zip(text(SystemConfig::scaled()))
        .map(|((k, p), (_, s))| (k, vec![Value::Text(p), Value::Text(s)]))
        .collect();
    custom(
        "table2",
        "Table II: simulation parameters, paper machine and the scaled machine every figure runs",
        "parameter",
        Vec::new(),
        &[("paper", Fmt::Text), ("scaled", Fmt::Text)],
        move |_| rows.clone(),
    )
}

fn fig5() -> Figure {
    let modes = [
        ("private", TranslationMode::Baseline),
        ("shared", TranslationMode::SharedL2Ideal),
    ];
    let cfgs = modes.map(|(_, m)| SystemConfig::scaled().with_mode(m));
    let apps = specs(&[AppId::Jac2d, AppId::Atax, AppId::Gups], 1);
    let labels: Vec<String> = apps
        .iter()
        .flat_map(|a| modes.map(|(l, _)| format!("{} {l}", a.app)))
        .collect();
    custom(
        "fig5",
        "Fig 5: power-of-two histogram of |VPN_i - VPN_(i-1)| at the IOMMU, \
         private vs shared L2 TLB",
        "app / L2 TLB",
        rows(&apps, &cfgs, ""),
        &[
            ("gaps", Fmt::Dec(0)),
            ("mean gap", Fmt::Dec(1)),
            ("max gap", Fmt::Dec(0)),
            ("gaps <= 7 pages", Fmt::Pct),
            ("gaps <= 15 pages", Fmt::Pct),
            ("gaps <= bound: count", Fmt::Text),
        ],
        move |ms| {
            let row = |m: &RunMetrics| {
                let h = &m.vpn_gap;
                let buckets: Vec<String> = h.buckets().map(|(b, c)| format!("{b}:{c}")).collect();
                let le = |v| h.fraction_le(v) * 100.0;
                let nums = [h.count() as f64, h.mean(), h.max() as f64, le(7), le(15)];
                let text = Value::Text(buckets.join(" "));
                nums.map(Value::num).into_iter().chain([text]).collect()
            };
            labels
                .iter()
                .zip(ms)
                .map(|(l, m)| (l.clone(), row(m)))
                .collect()
        },
    )
}

fn fig16(all: &[WorkloadSpec]) -> Figure {
    let cfgs = [
        TranslationMode::Baseline,
        TranslationMode::Barre,
        TranslationMode::FBarre(FBarreConfig::default()),
    ]
    .map(|m| SystemConfig::scaled().with_mode(m));
    let time_cut = |j: usize| {
        move |r: &[&RunMetrics]| Some(pct_cut(r[0].mean_ats_latency(), r[j].mean_ats_latency()))
    };
    let coalesced = |j: usize| move |r: &[&RunMetrics]| Some(r[j].coalescing_rate() * 100.0);
    columns(
        "fig16",
        "Fig 16: ATS processing-time cut, coalesced fraction and ATS traffic cut vs baseline",
        "app",
        vec![(rows(all, &cfgs, ""), "average")],
        vec![
            col("ATS time cut Barre", Fmt::Pct, Agg::Mean, time_cut(1)),
            col("ATS time cut F-Barre", Fmt::Pct, Agg::Mean, time_cut(2)),
            col("coalesced Barre", Fmt::Pct, Agg::Mean, coalesced(1)),
            col("coalesced F-Barre", Fmt::Pct, Agg::Mean, coalesced(2)),
            col("traffic cut F-Barre", Fmt::Pct, Agg::Mean, |r| {
                Some(pct_cut(r[0].ats_requests as f64, r[2].ats_requests as f64))
            }),
        ],
    )
}

fn fig21(all: &[WorkloadSpec]) -> Figure {
    let mut mgvm = SystemConfig::scaled();
    mgvm.mmu = MmuKind::Gmmu;
    let with_bc = mgvm
        .clone()
        .with_mode(TranslationMode::FBarre(FBarreConfig::default()));
    columns(
        "fig21",
        "Fig 21: MGvm (per-chiplet GMMU) with and without Barre Chord",
        "app",
        vec![(rows(all, &[mgvm, with_bc], ""), "geomean / total")],
        vec![
            sp("speedup", 0, 1),
            count("remote walks", Agg::Sum, 0, |m| m.gmmu_remote_walks),
            count("remote walks +BC", Agg::Sum, 1, |m| m.gmmu_remote_walks),
            col("remote walks removed", Fmt::Pct, Agg::None, |r| {
                Some(pct_cut(
                    r[0].gmmu_remote_walks as f64,
                    r[1].gmmu_remote_walks as f64,
                ))
            }),
        ],
    )
}

fn sec7k() -> Figure {
    let r = OverheadReport::paper_default();
    let fp = CuckooFilter::paper_default(1).theoretical_fp_rate() * 100.0;
    let lcf_rcfs = format!(
        "{} (1 LCF + {} RCFs)",
        r.filters_per_chiplet,
        r.filters_per_chiplet - 1
    );
    let mut rows: Vec<Row> = [
        (
            "cuckoo filter",
            format!("{} bits", r.filter_bits),
            "256 rows x 4 ways x 9 b",
        ),
        ("filters per chiplet", lcf_rcfs, "4"),
        (
            "PEC buffer",
            format!("{} bits", r.pec_buffer_bits),
            "5 x 118 b",
        ),
        (
            "per-chiplet storage",
            format!("{:.2} KiB", r.per_chiplet_kib()),
            "4.57 KiB",
        ),
        (
            "ratio to L2 TLB",
            format!("{:.2}%", r.ratio_to_l2_tlb * 100.0),
            "4.21-4.22%",
        ),
        (
            "ATS response extra bits",
            r.ats_extra_bits.to_string(),
            "10 + 118",
        ),
        ("filter theoretical FP", format!("{fp:.2}%"), "1.53%"),
    ]
    .into_iter()
    .map(|(k, m, p)| (k.to_string(), vec![Value::Text(m), Value::Text(p.into())]))
    .collect();
    for n in [2u64, 4, 8, 16] {
        let r = OverheadReport::compute(OverheadParams {
            n_chiplets: n,
            ..OverheadParams::default()
        });
        let kib = Value::Text(format!("{:.2} KiB", r.per_chiplet_kib()));
        rows.push((
            format!("per-chiplet storage, {n} chiplets"),
            vec![kib, Value::Empty],
        ));
    }
    custom(
        "sec7k",
        "§VII-K: hardware overhead accounting",
        "quantity",
        Vec::new(),
        &[("measured", Fmt::Text), ("paper", Fmt::Text)],
        move |_| rows.clone(),
    )
}

fn ablation_multicast() -> Figure {
    let barre = SystemConfig::scaled().with_mode(TranslationMode::Barre);
    let mut multicast = barre.clone();
    multicast.barre_multicast = true;
    let apps = [
        AppId::Jac2d,
        AppId::St2d,
        AppId::Fdtd2d,
        AppId::Fwt,
        AppId::Gups,
    ];
    let kib = |name, i| count(name, Agg::None, i, |m| m.pcie_bytes / 1024);
    columns(
        "ablation-multicast",
        "Ablation (§IV-B): Barre pending-only coalescing vs speculative multicast, \
         speedup over baseline",
        "app",
        vec![(
            rows(
                &specs(&apps, 1),
                &[SystemConfig::scaled(), barre, multicast],
                "",
            ),
            "geomean",
        )],
        vec![
            sp("Barre", 0, 1),
            sp("Barre+multicast", 0, 2),
            kib("PCIe KiB", 1),
            kib("PCIe KiB (multicast)", 2),
        ],
    )
}

fn ablation_pec() -> Figure {
    let apps = specs(
        &[
            AppId::Fdtd2d,
            AppId::Jac2d,
            AppId::Atax,
            AppId::Bicg,
            AppId::Spmv,
        ],
        1,
    );
    let row = |n: usize| {
        let mut f =
            SystemConfig::scaled().with_mode(TranslationMode::FBarre(FBarreConfig::default()));
        f.pec_buffer_entries = n;
        let cells = rows(&apps, &[SystemConfig::scaled(), f], "")
            .into_iter()
            .flat_map(|r| r.1);
        (n.to_string(), cells.collect())
    };
    columns(
        "ablation-pec",
        "Ablation (§IV-E): PEC buffer entries vs F-Barre speedup on multi-dataset apps",
        "PEC entries",
        vec![([1, 2, 3, 5, 8].map(row).to_vec(), "")],
        vec![
            col("geomean speedup", Fmt::X, Agg::None, |r| {
                Some(geomean(r.chunks(2).map(|p| speedup(p[0], p[1]))))
            }),
            col("coalesced", Fmt::Dec(0), Agg::None, |r| {
                let c = r
                    .chunks(2)
                    .map(|p| p[1].coalesced_translations + p[1].intra_mcm_translations);
                Some(c.sum::<u64>() as f64)
            }),
        ],
    )
}

fn sec6() -> Figure {
    let premapped =
        SystemConfig::scaled().with_mode(TranslationMode::FBarre(FBarreConfig::default()));
    let demand = |group_fetch| {
        let mut c = premapped.clone();
        c.demand_paging = Some(DemandPagingConfig {
            fault_latency: 20_000,
            group_fetch,
        });
        c
    };
    let apps = [
        AppId::Jac2d,
        AppId::St2d,
        AppId::Fwt,
        AppId::Lu,
        AppId::Gups,
    ];
    let cfgs = [premapped.clone(), demand(false), demand(true)];
    columns(
        "sec6",
        "§VI: on-demand paging, single-page faults vs coalescing-group fetch (F-Barre); \
         speedup over premapped",
        "app",
        vec![(rows(&specs(&apps, 1), &cfgs, ""), "geomean")],
        vec![
            count("faults (1 page)", Agg::None, 1, |m| m.page_faults),
            count("faults (group)", Agg::None, 2, |m| m.page_faults),
            sp("speedup (1 page)", 0, 1),
            sp("speedup (group)", 0, 2),
            col("pages/fault (group)", Fmt::Dec(2), Agg::None, |r| {
                Some(r[2].demand_pages_mapped as f64 / r[2].page_faults.max(1) as f64)
            }),
        ],
    )
}
