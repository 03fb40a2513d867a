//! Checks over the committed `RESULTS.json`: it covers the registry,
//! EXPERIMENTS.md embeds its tables verbatim, one entry regenerates
//! byte for byte, a registry run simulates each distinct cell once (in
//! the same tables on any worker count, a failing cell named in its
//! error), the balanced app set holds three apps per class, and
//! every shape claim EXPERIMENTS.md marks ✅ holds on the committed
//! records (no simulation needed).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use barre_bench::figures::{registry, select, BALANCED};
use barre_bench::results::{from_json, run, to_json, Table, Value};
use barre_system::{Run, RunMetrics, SimError};
use barre_workloads::{AppId, Category};

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn committed() -> Vec<Table> {
    from_json(&repo_file("RESULTS.json")).expect("RESULTS.json parses")
}

fn table(name: &str) -> Table {
    committed()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("RESULTS.json has no {name}"))
}

fn value<'t>(t: &'t Table, row: &str, column: &str) -> &'t Value {
    let c = t.columns.iter().position(|(n, _)| n == column);
    let r = t.rows.iter().find(|(l, _)| l == row);
    c.zip(r)
        .and_then(|(c, r)| r.1.get(c))
        .unwrap_or_else(|| panic!("{}: no cell ({row}, {column})", t.name))
}

fn at(t: &Table, row: &str, column: &str) -> f64 {
    match value(t, row, column) {
        Value::Num(x) => *x,
        v => panic!("{}: ({row}, {column}) is {v:?}", t.name),
    }
}

fn text<'t>(t: &'t Table, row: &str, column: &str) -> &'t str {
    match value(t, row, column) {
        Value::Text(s) => s,
        v => panic!("{}: ({row}, {column}) is {v:?}", t.name),
    }
}

#[test]
fn results_json_covers_the_registry_and_is_canonical() {
    let src = repo_file("RESULTS.json");
    let tables = from_json(&src).expect("parses");
    let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
    let registry_names: Vec<&str> = registry().iter().map(|f| f.name).collect();
    assert_eq!(names, registry_names);
    assert_eq!(to_json(&tables), src, "re-encoding changes bytes");
}

#[test]
fn experiments_md_blocks_match_results_json() {
    let doc = repo_file("EXPERIMENTS.md");
    let mut seen = Vec::new();
    let mut rest = doc.as_str();
    while let Some(start) = rest.find("<!-- repro:") {
        let after = &rest[start + "<!-- repro:".len()..];
        let (name, body) = after.split_once(" -->\n").expect("marker closes");
        let (block, tail) = body.split_once("<!-- /repro -->").expect("block ends");
        assert_eq!(
            block,
            table(name).to_markdown(),
            "EXPERIMENTS.md block {name} differs from its RESULTS.json rendering"
        );
        seen.push(name.to_string());
        rest = tail;
    }
    let names: Vec<String> = committed().into_iter().map(|t| t.name).collect();
    assert_eq!(seen, names, "one block per table, in RESULTS.json order");
}

#[test]
fn fig5_regenerates_the_committed_records() {
    let figs = select(&["fig5".to_string()]).expect("known");
    let fresh = run(&figs, 2, Run::simulate).expect("fig5 simulates");
    assert_eq!(fresh.tables, vec![table("fig5")]);
}

static SIMULATED: AtomicUsize = AtomicUsize::new(0);

fn count(_: &Run) -> Result<RunMetrics, SimError> {
    SIMULATED.fetch_add(1, Ordering::Relaxed);
    Ok(RunMetrics::default())
}

#[test]
fn a_registry_run_simulates_each_distinct_cell_once() {
    let figs = registry();
    let distinct: BTreeSet<String> = figs
        .iter()
        .flat_map(|f| f.cells.iter().map(|c| format!("{c:?}")))
        .collect();
    let out = run(&figs, 2, count).expect("fake runs cannot fail");
    assert_eq!(SIMULATED.load(Ordering::Relaxed), distinct.len());
    assert_eq!(out.simulated, distinct.len());
    // 1,365 cell references (1,353 single-app cells and 12 Fig 27a pair
    // cells) collapse to 878 distinct simulations.
    assert_eq!((out.cells, out.simulated), (1365, 878));
}

/// A fake simulator whose metrics depend on the cell alone, so a result
/// handed to the wrong cell changes some table.
fn fingerprint(c: &Run) -> Result<RunMetrics, SimError> {
    let h = format!("{c:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    Ok(RunMetrics {
        total_cycles: h % 1_000_000 + 1,
        ..RunMetrics::default()
    })
}

#[test]
fn a_registry_run_gives_the_same_tables_on_any_worker_count() {
    let serial = run(&registry(), 1, fingerprint).expect("fake runs cannot fail");
    let parallel = run(&registry(), 3, fingerprint).expect("fake runs cannot fail");
    assert_eq!(serial.tables, parallel.tables);
}

/// Fails every cell that runs gups.
fn gups_fails(c: &Run) -> Result<RunMetrics, SimError> {
    if c.specs.iter().any(|s| s.app == AppId::Gups) {
        Err(SimError::InvalidConfig("injected".into()))
    } else {
        Ok(RunMetrics::default())
    }
}

#[test]
fn a_failing_cell_comes_back_as_an_error_naming_it() {
    let figs = select(&["fig5".to_string()]).expect("known");
    let err = run(&figs, 2, gups_fails).expect_err("a failing cell must surface");
    // Fig 5 collects gups private (baseline) before gups shared: the
    // first failing cell in collection order is the one reported.
    assert_eq!(err.label, "gups / baseline");
    assert!(matches!(&err.error, SimError::InvalidConfig(why) if why == "injected"));
    assert_eq!(
        err.to_string(),
        format!("config gups / baseline: {}", err.error)
    );
}

#[test]
fn the_balanced_set_holds_three_apps_of_each_class() {
    for c in [Category::Low, Category::Mid, Category::High] {
        assert_eq!(
            BALANCED.iter().filter(|a| a.category() == c).count(),
            3,
            "class {c} misrepresented"
        );
    }
}

#[test]
fn table1_every_app_lands_in_its_paper_class() {
    let t = table("table1");
    for app in AppId::all() {
        assert_eq!(
            text(&t, app.name(), "paper class"),
            app.category().to_string()
        );
        assert_eq!(
            text(&t, app.name(), "class"),
            app.category().to_string(),
            "{app}"
        );
    }
}

#[test]
fn fig1_gains_rise_to_32_ptws_then_plateau() {
    let t = table("fig1");
    let g = |c: &str| at(&t, "geomean", c);
    assert!(1.0 < g("16 PTWs") && g("16 PTWs") < g("32 PTWs"));
    let inf = g("inf PTWs");
    assert!(
        (inf / g("32 PTWs") - 1.0).abs() < 0.05,
        "inf PTWs {inf} is no plateau"
    );
}

#[test]
fn fig4_more_mshrs_buy_little_and_most_apps_stay_flat() {
    let t = table("fig4");
    assert!((1.0..1.1).contains(&at(&t, "geomean", "64 MSHRs")));
    let flat = AppId::all()
        .iter()
        .filter(|a| (at(&t, a.name(), "64 MSHRs") - 1.0).abs() <= 0.02)
        .count();
    assert!(flat * 2 > AppId::all().len(), "only {flat} apps flat");
}

#[test]
fn fig15_merging_orders_the_fbarre_variants_and_high_apps_gain_most() {
    let t = table("fig15");
    let g = |c: &str| at(&t, "geomean", c);
    assert!(g("F-Barre-NoMerge") < g("F-Barre-2Merge"));
    assert!(g("F-Barre-2Merge") < g("F-Barre-4Merge"));
    assert!(g("F-Barre-NoMerge") > g("Barre"));
    let class_mean = |c: Category| {
        let apps: Vec<f64> = AppId::all()
            .iter()
            .filter(|a| a.category() == c)
            .map(|a| at(&t, a.name(), "F-Barre-2Merge"))
            .collect();
        barre_system::geomean(apps)
    };
    assert!(class_mean(Category::High) > class_mean(Category::Mid));
    assert!(class_mean(Category::Mid) > class_mean(Category::Low));
}

#[test]
fn fig16_fbarre_cuts_ats_time_more_than_barre() {
    let t = table("fig16");
    assert!(at(&t, "average", "ATS time cut F-Barre") > at(&t, "average", "ATS time cut Barre"));
    assert!(at(&t, "average", "ATS time cut Barre") > 0.0);
    assert!(at(&t, "average", "traffic cut F-Barre") > 50.0);
}

#[test]
fn fig19_fbarre_reaches_80_percent_of_the_oracle() {
    assert!(at(&table("fig19"), "geomean", "% of oracle") >= 80.0);
}

#[test]
fn fig20_fbarre_gain_grows_with_chiplets() {
    let t = table("fig20");
    let g: Vec<f64> = ["2 chiplets", "4 chiplets", "8 chiplets", "16 chiplets"]
        .iter()
        .map(|c| at(&t, "geomean", c))
        .collect();
    assert!(g.windows(2).all(|w| w[0] < w[1]), "{g:?}");
}

#[test]
fn fig21_barre_chord_speeds_up_mgvm_and_removes_remote_walks() {
    let t = table("fig21");
    assert!(at(&t, "geomean / total", "speedup") > 1.0);
    let walks = |c: &str| at(&t, "geomean / total", c);
    assert!(walks("remote walks +BC") < 0.7 * walks("remote walks"));
}

#[test]
fn fig22_barre_chord_helps_under_migration() {
    assert!(at(&table("fig22"), "geomean / total", "ACUD+BarreChord") > 1.0);
}

#[test]
fn fig23_gain_shrinks_with_more_ptws_but_stays_positive() {
    let t = table("fig23");
    let g: Vec<f64> = ["8 PTWs", "16 PTWs", "32 PTWs"]
        .iter()
        .map(|c| at(&t, "geomean", c))
        .collect();
    assert!(g[0] > g[1] && g[1] > g[2] && g[2] > 1.0, "{g:?}");
}

#[test]
fn fig26_fbarre_gains_under_every_policy_least_under_round_robin() {
    let t = table("fig26");
    let rr = at(&t, "geomean", "round-robin");
    assert!(rr > 1.0);
    assert!(rr < at(&t, "geomean", "chunking") && rr < at(&t, "geomean", "CODA"));
}

#[test]
fn fig27a_pairs_gain_most_at_mid_mid() {
    let t = table("fig27a");
    assert!(at(&t, "geomean", "speedup") > 1.0);
    let best = t
        .rows
        .iter()
        .filter(|(l, _)| l != "geomean")
        .max_by(|a, b| at(&t, &a.0, "speedup").total_cmp(&at(&t, &b.0, "speedup")))
        .map(|(l, _)| l.as_str());
    assert_eq!(best, Some("mid-mid (fwt+cov)"));
}

#[test]
fn fig27b_fbarre_still_gains_over_an_iommu_tlb() {
    assert!(at(&table("fig27b"), "geomean", "IOMMU-TLB+F-Barre") > 1.0);
}

#[test]
fn sec7k_storage_matches_the_paper() {
    let t = table("sec7k");
    assert_eq!(text(&t, "per-chiplet storage", "measured"), "4.57 KiB");
    assert_eq!(text(&t, "ratio to L2 TLB", "measured"), "4.21%");
}

#[test]
fn ablation_pec_five_entries_sit_on_the_plateau() {
    let t = table("ablation-pec");
    let sp = |n: &str| at(&t, n, "geomean speedup");
    assert!(sp("1") < sp("5"));
    assert_eq!(sp("5"), sp("8"));
}

#[test]
fn ablation_drop_guaranteed_delivery_buys_little() {
    let t = table("ablation-drop");
    let g = |c: &str| at(&t, "geomean / total", c);
    // Since each coalescing group is advertised once per chiplet, the
    // control VC drops no update in these cells, and the two modes differ
    // only in update latency: the gap can fall either side of zero.
    let gap = g("oracle") / g("best-effort") - 1.0;
    assert!(gap.abs() < 0.02, "oracle gains {gap}");
}

#[test]
fn sec6_group_fetch_takes_fewer_faults_and_runs_faster() {
    let t = table("sec6");
    for (app, _) in t.rows.iter().filter(|(l, _)| l != "geomean") {
        assert!(
            at(&t, app, "faults (group)") < at(&t, app, "faults (1 page)"),
            "{app}"
        );
        assert!(
            at(&t, app, "speedup (group)") > at(&t, app, "speedup (1 page)"),
            "{app}"
        );
    }
}
