//! Wall-clock bench harness behind `barre bench`.
//!
//! Runs a pinned smoke sweep (the balanced 9-app subset × 3 translation
//! modes on [`barre_system::smoke_config`]) twice — once serially, once
//! on the worker pool — measuring wall time and events/sec per run, and
//! cross-checks that both passes produced identical [`RunMetrics`]. The
//! rendered report is written to `BENCH_sweep.json`, giving the repo a
//! perf trajectory to compare commits against.
//!
//! Wall time never enters `RunMetrics` (that would break the
//! serial/parallel byte-identity the harness itself asserts); it lives
//! only in this report.

use std::fmt::Write as _;
use std::time::Instant;

use barre_system::journal::json_escape;
use barre_system::{run_spec, smoke_config, RunMetrics, SystemConfig, TranslationMode};
use barre_workloads::AppId;

use crate::figures::BALANCED;
use crate::{SweepError, SEED};

/// One `(app, mode)` cell of the sweep.
#[derive(Debug)]
pub struct BenchRun {
    /// Application name (Table I spelling).
    pub app: &'static str,
    /// Translation-mode label.
    pub mode: &'static str,
    /// Simulated cycles (deterministic).
    pub total_cycles: u64,
    /// Events executed by the event loop (deterministic).
    pub events: u64,
    /// Wall time of this run in the serial pass, milliseconds.
    pub wall_ms_serial: f64,
    /// Wall time of this run in the parallel pass, milliseconds.
    pub wall_ms_parallel: f64,
    /// Simulator throughput: events / serial wall seconds (the serial
    /// pass is uncontended, so it is the cleaner per-run number).
    pub events_per_sec: f64,
}

/// The full report `barre bench` renders to `BENCH_sweep.json`.
#[derive(Debug)]
pub struct BenchReport {
    /// Worker threads used for the parallel pass.
    pub jobs: usize,
    /// Whether the quick (3-app) subset ran instead of the full 9.
    pub quick: bool,
    /// End-to-end wall time of the serial pass, milliseconds.
    pub serial_wall_ms: f64,
    /// End-to-end wall time of the parallel pass, milliseconds.
    pub parallel_wall_ms: f64,
    /// `serial_wall_ms / parallel_wall_ms`.
    pub speedup: f64,
    /// `app/mode` labels whose serial and parallel metrics differed.
    /// Always empty unless determinism is broken.
    pub divergent: Vec<String>,
    /// Per-run measurements, sweep order.
    pub runs: Vec<BenchRun>,
}

/// The three pinned translation modes the bench sweeps.
pub fn bench_modes() -> Vec<(&'static str, SystemConfig)> {
    let base = smoke_config();
    vec![
        ("baseline", base.clone()),
        ("barre", base.clone().with_mode(TranslationMode::Barre)),
        (
            "fbarre",
            base.with_mode(TranslationMode::FBarre(Default::default())),
        ),
    ]
}

/// The pinned app set: the balanced 9, or one app per MPKI class for
/// `--quick`.
pub fn bench_apps(quick: bool) -> Vec<AppId> {
    if quick {
        vec![AppId::Gemv, AppId::Jac2d, AppId::Gups]
    } else {
        BALANCED.to_vec()
    }
}

fn timed_pass(
    cases: &[(AppId, &'static str, SystemConfig)],
    threads: usize,
) -> Result<(f64, Vec<(f64, RunMetrics)>), SweepError> {
    let jobs: Vec<_> = cases
        .iter()
        .map(|(app, _, cfg)| {
            let spec = app.spec();
            let cfg = cfg.clone();
            move || {
                let t0 = Instant::now();
                let m = run_spec(spec, &cfg, SEED);
                (t0.elapsed().as_secs_f64() * 1e3, m)
            }
        })
        .collect();
    let t0 = Instant::now();
    let out = barre_sim::pool::run_ordered(jobs, threads).map_err(|e| SweepError {
        label: "<worker pool>".into(),
        error: e.into(),
    })?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut runs = Vec::with_capacity(out.len());
    for ((app, mode, _), (ms, res)) in cases.iter().zip(out) {
        let m = res.map_err(|error| SweepError {
            label: format!("{}/{mode}", app.name()),
            error,
        })?;
        runs.push((ms, m));
    }
    Ok((total_ms, runs))
}

/// Runs the pinned sweep serially and then on `jobs` workers, returning
/// the timed, cross-checked report.
///
/// # Errors
///
/// [`SweepError`] when any simulation fails or a pool worker dies.
pub fn run_bench(quick: bool, jobs: usize) -> Result<BenchReport, SweepError> {
    let modes = bench_modes();
    let cases: Vec<(AppId, &'static str, SystemConfig)> = bench_apps(quick)
        .into_iter()
        .flat_map(|app| {
            modes
                .iter()
                .map(move |(label, cfg)| (app, *label, cfg.clone()))
        })
        .collect();
    let (serial_wall_ms, serial) = timed_pass(&cases, 1)?;
    let (parallel_wall_ms, parallel) = timed_pass(&cases, jobs)?;
    let mut divergent = Vec::new();
    let mut runs = Vec::with_capacity(cases.len());
    for (((app, mode, _), (s_ms, s_m)), (p_ms, p_m)) in cases.iter().zip(serial).zip(parallel) {
        if s_m != p_m {
            divergent.push(format!("{}/{mode}", app.name()));
        }
        let events_per_sec = if s_ms > 0.0 {
            s_m.events_processed as f64 / (s_ms / 1e3)
        } else {
            0.0
        };
        runs.push(BenchRun {
            app: app.name(),
            mode,
            total_cycles: s_m.total_cycles,
            events: s_m.events_processed,
            wall_ms_serial: s_ms,
            wall_ms_parallel: p_ms,
            events_per_sec,
        });
    }
    let speedup = if parallel_wall_ms > 0.0 {
        serial_wall_ms / parallel_wall_ms
    } else {
        0.0
    };
    Ok(BenchReport {
        jobs,
        quick,
        serial_wall_ms,
        parallel_wall_ms,
        speedup,
        divergent,
        runs,
    })
}

impl BenchReport {
    /// Renders the report as the `BENCH_sweep.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"barre-bench-sweep/1\",\n");
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!(
            "  \"serial_wall_ms\": {:.3},\n",
            self.serial_wall_ms
        ));
        s.push_str(&format!(
            "  \"parallel_wall_ms\": {:.3},\n",
            self.parallel_wall_ms
        ));
        s.push_str(&format!("  \"speedup\": {:.3},\n", self.speedup));
        s.push_str("  \"divergent\": [");
        for (i, d) in self.divergent.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_escape(d));
        }
        s.push_str("],\n");
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"app\": {}, \"mode\": {}, \"total_cycles\": {}, \"events\": {}, \
                 \"wall_ms_serial\": {:.3}, \"wall_ms_parallel\": {:.3}, \
                 \"events_per_sec\": {:.0}}}{}\n",
                json_escape(r.app),
                json_escape(r.mode),
                r.total_cycles,
                r.events,
                r.wall_ms_serial,
                r.wall_ms_parallel,
                r.events_per_sec,
                if i + 1 < self.runs.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Cells whose serial throughput is more than `ratio` times slower
    /// than the same app's baseline run — the `--gate` perf contract.
    /// A cell that processed zero events/sec (a degenerate run) always
    /// violates; a missing baseline cell never does (nothing to gate
    /// against).
    pub fn gate_violations(&self, ratio: f64) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.runs {
            if r.mode == "baseline" {
                continue;
            }
            let Some(base) = self
                .runs
                .iter()
                .find(|b| b.mode == "baseline" && b.app == r.app)
            else {
                continue;
            };
            if base.events_per_sec <= 0.0 {
                continue;
            }
            let slowdown = if r.events_per_sec > 0.0 {
                base.events_per_sec / r.events_per_sec
            } else {
                f64::INFINITY
            };
            if slowdown > ratio {
                out.push(format!(
                    "{}/{}: {slowdown:.2}x slower than baseline ({:.0} vs {:.0} events/sec, \
                     gate {ratio:.1}x)",
                    r.app, r.mode, r.events_per_sec, base.events_per_sec,
                ));
            }
        }
        out
    }

    /// Human-readable summary lines for the terminal.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "bench: {} runs, serial {:.0} ms, parallel {:.0} ms at {} jobs ({:.2}x)\n",
            self.runs.len(),
            self.serial_wall_ms,
            self.parallel_wall_ms,
            self.jobs,
            self.speedup,
        ));
        if self.divergent.is_empty() {
            s.push_str("serial/parallel metrics: identical\n");
        } else {
            s.push_str(&format!(
                "DIVERGENCE in {} run(s): {}\n",
                self.divergent.len(),
                self.divergent.join(", "),
            ));
        }
        s
    }
}

/// Folds per-shard `BENCH_sweep.json` fragments into one merged report
/// (`barre-bench-merged/1`): the union of `(app, mode)` rows in
/// first-seen order. The deterministic fields (`total_cycles`, `events`)
/// must agree wherever two shards cover the same cell — a mismatch means
/// the shards came from diverging binaries or configurations and is
/// refused. Wall-clock fields are per-shard measurements and are carried
/// from the first shard that has the row; `events_per_sec` is recomputed
/// from the carried `events` and `wall_ms_serial` (the same formula
/// [`run_bench`] uses), so a merged row is always internally consistent
/// instead of echoing whatever throughput the shard claimed.
///
/// # Errors
///
/// A description of the first unparsable shard or conflicting cell.
pub fn merge_reports(docs: &[String]) -> Result<String, String> {
    use barre_system::journal::Json;
    use std::collections::BTreeMap;

    fn num_text(v: Option<&Json>) -> String {
        match v {
            Some(Json::Num(t)) => t.clone(),
            _ => "0".to_string(),
        }
    }

    let mut order: Vec<String> = Vec::new();
    let mut dets: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut rows: BTreeMap<String, String> = BTreeMap::new();
    for (si, doc) in docs.iter().enumerate() {
        let v = Json::parse(doc).map_err(|e| format!("bench shard {si}: {e}"))?;
        let runs = v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("bench shard {si}: no runs array"))?;
        for r in runs {
            let app = r
                .get("app")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("bench shard {si}: run without app"))?;
            let mode = r
                .get("mode")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("bench shard {si}: run without mode"))?;
            let cycles = r
                .get("total_cycles")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("bench shard {si}: {app}/{mode} without total_cycles"))?;
            let events = r
                .get("events")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("bench shard {si}: {app}/{mode} without events"))?;
            let key = format!("{app}\u{1f}{mode}");
            if let Some(&(c0, e0)) = dets.get(&key) {
                if (c0, e0) != (cycles, events) {
                    return Err(format!(
                        "bench merge conflict for {app}/{mode}: \
                         total_cycles/events {c0}/{e0} vs {cycles}/{events}"
                    ));
                }
                continue;
            }
            dets.insert(key.clone(), (cycles, events));
            let wall_ms_serial = num_text(r.get("wall_ms_serial"));
            let eps = match wall_ms_serial.parse::<f64>() {
                Ok(ms) if ms > 0.0 => events as f64 / (ms / 1e3),
                _ => 0.0,
            };
            rows.insert(
                key.clone(),
                format!(
                    "    {{\"app\": {}, \"mode\": {}, \"total_cycles\": {cycles}, \
                     \"events\": {events}, \"wall_ms_serial\": {wall_ms_serial}, \
                     \"wall_ms_parallel\": {}, \"events_per_sec\": {eps:.0}}}",
                    json_escape(app),
                    json_escape(mode),
                    num_text(r.get("wall_ms_parallel")),
                ),
            );
            order.push(key);
        }
    }
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    s.push_str("  \"schema\": \"barre-bench-merged/1\",\n");
    s.push_str(&format!("  \"shards\": {},\n", docs.len()));
    s.push_str("  \"runs\": [\n");
    for (i, key) in order.iter().enumerate() {
        if let Some(row) = rows.get(key) {
            s.push_str(row);
            s.push_str(if i + 1 < order.len() { ",\n" } else { "\n" });
        }
    }
    s.push_str("  ]\n}\n");
    Ok(s)
}

/// One `(app, mode)` row of a [`diff_reports`] comparison.
#[derive(Debug)]
pub struct BenchDiffRow {
    /// `app/mode` label.
    pub label: String,
    /// Serial events/sec in the old report.
    pub old_eps: f64,
    /// Serial events/sec in the new report.
    pub new_eps: f64,
    /// `old_eps / new_eps` — above 1.0 means the new run is slower.
    pub slowdown: f64,
    /// Whether the deterministic columns (`total_cycles`, `events`)
    /// changed between the reports — a result change, not just noise.
    pub results_changed: bool,
}

/// The outcome of comparing two `BENCH_sweep.json` documents.
#[derive(Debug)]
pub struct BenchDiff {
    /// Rows present in both reports, old-report order.
    pub rows: Vec<BenchDiffRow>,
    /// `app/mode` labels present in only one of the reports.
    pub missing: Vec<String>,
    /// The threshold rows were judged against.
    pub threshold: f64,
}

impl BenchDiff {
    /// Rows slower than the threshold (the regressions the CI step
    /// fails on).
    pub fn regressions(&self) -> Vec<&BenchDiffRow> {
        self.rows
            .iter()
            .filter(|r| r.slowdown > self.threshold)
            .collect()
    }

    /// Renders the comparison as a terminal table plus verdict line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<22} {:>12} {:>12} {:>9}",
            "app/mode", "old ev/s", "new ev/s", "ratio"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<22} {:>12.0} {:>12.0} {:>8.2}x{}{}",
                r.label,
                r.old_eps,
                r.new_eps,
                r.slowdown,
                if r.slowdown > self.threshold {
                    "  REGRESSED"
                } else {
                    ""
                },
                if r.results_changed {
                    "  (results changed)"
                } else {
                    ""
                },
            );
        }
        for m in &self.missing {
            let _ = writeln!(s, "{m:<22} only in one report");
        }
        let regs = self.regressions();
        if regs.is_empty() {
            let _ = writeln!(
                s,
                "no regressions beyond {:.2}x across {} comparable cell(s)",
                self.threshold,
                self.rows.len()
            );
        } else {
            let _ = writeln!(
                s,
                "{} regression(s) beyond {:.2}x",
                regs.len(),
                self.threshold
            );
        }
        s
    }
}

/// Compares two bench-sweep JSON documents (`barre-bench-sweep/1` or
/// `barre-bench-merged/1`) cell by cell: `old_eps / new_eps` per
/// `(app, mode)` row, regression when the ratio exceeds `threshold`.
/// Wall-clock noise is expected — pick thresholds accordingly (the CI
/// step uses a generous one); deterministic drift is flagged separately
/// via [`BenchDiffRow::results_changed`].
///
/// # Errors
///
/// A description of the first unparsable document.
pub fn diff_reports(old: &str, new: &str, threshold: f64) -> Result<BenchDiff, String> {
    use barre_system::journal::Json;

    fn rows_of(doc: &str, which: &str) -> Result<Vec<(String, u64, u64, f64)>, String> {
        let v = Json::parse(doc).map_err(|e| format!("{which} report: {e}"))?;
        let runs = v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{which} report: no runs array"))?;
        let mut out = Vec::with_capacity(runs.len());
        for r in runs {
            let app = r
                .get("app")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{which} report: run without app"))?;
            let mode = r
                .get("mode")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{which} report: run without mode"))?;
            let cycles = r.get("total_cycles").and_then(Json::as_u64).unwrap_or(0);
            let events = r.get("events").and_then(Json::as_u64).unwrap_or(0);
            let eps = r
                .get("events_per_sec")
                .and_then(Json::as_u64)
                .map_or(0.0, |n| n as f64);
            out.push((format!("{app}/{mode}"), cycles, events, eps));
        }
        Ok(out)
    }

    let old_rows = rows_of(old, "old")?;
    let new_rows = rows_of(new, "new")?;
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (label, oc, oe, oeps) in &old_rows {
        match new_rows.iter().find(|(l, ..)| l == label) {
            Some((_, nc, ne, neps)) => rows.push(BenchDiffRow {
                label: label.clone(),
                old_eps: *oeps,
                new_eps: *neps,
                slowdown: if *neps > 0.0 {
                    oeps / neps
                } else if *oeps > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                },
                results_changed: (oc, oe) != (nc, ne),
            }),
            None => missing.push(label.clone()),
        }
    }
    for (label, ..) in &new_rows {
        if !old_rows.iter().any(|(l, ..)| l == label) {
            missing.push(label.clone());
        }
    }
    Ok(BenchDiff {
        rows,
        missing,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(rows: &str) -> String {
        format!("{{\"schema\": \"barre-bench-sweep/1\", \"runs\": [{rows}]}}")
    }

    #[test]
    fn merge_reports_unions_and_detects_conflicts() {
        let a = shard(
            "{\"app\": \"gemv\", \"mode\": \"barre\", \"total_cycles\": 100, \"events\": 10, \
             \"wall_ms_serial\": 1.5, \"wall_ms_parallel\": 0.9, \"events_per_sec\": 6667}",
        );
        let b = shard(
            "{\"app\": \"gups\", \"mode\": \"barre\", \"total_cycles\": 200, \"events\": 20, \
             \"wall_ms_serial\": 2.5, \"wall_ms_parallel\": 1.9, \"events_per_sec\": 8000}",
        );
        let merged = merge_reports(&[a.clone(), b.clone()]).expect("merge");
        assert!(merged.contains("\"schema\": \"barre-bench-merged/1\""));
        assert!(merged.contains("\"shards\": 2"));
        assert!(merged.contains("\"app\": \"gemv\""));
        assert!(merged.contains("\"app\": \"gups\""));
        // Wall times survive verbatim from the owning shard.
        assert!(merged.contains("\"wall_ms_serial\": 1.5"));
        // Overlapping cells with equal deterministic fields are fine
        // (wall times may differ — they are measurements, not results).
        let a2 = shard(
            "{\"app\": \"gemv\", \"mode\": \"barre\", \"total_cycles\": 100, \"events\": 10, \
             \"wall_ms_serial\": 9.9, \"wall_ms_parallel\": 9.9, \"events_per_sec\": 1}",
        );
        assert!(merge_reports(&[a.clone(), a2]).is_ok());
        // Diverging cycles are a conflict.
        let bad = shard(
            "{\"app\": \"gemv\", \"mode\": \"barre\", \"total_cycles\": 101, \"events\": 10, \
             \"wall_ms_serial\": 1.5, \"wall_ms_parallel\": 0.9, \"events_per_sec\": 6667}",
        );
        let err = merge_reports(&[a, bad]).expect_err("conflict");
        assert!(err.contains("conflict"), "{err}");
        // Garbage shards are rejected with the shard index.
        assert!(merge_reports(&["not json".to_string()]).is_err());
    }

    #[test]
    fn merge_recomputes_events_per_sec() {
        // A shard claiming a bogus throughput: the merged row derives
        // events/sec from the carried events and wall_ms_serial rather
        // than echoing the claim, so the row stays self-consistent.
        let a = shard(
            "{\"app\": \"gemv\", \"mode\": \"barre\", \"total_cycles\": 100, \"events\": 10, \
             \"wall_ms_serial\": 2.0, \"wall_ms_parallel\": 0.9, \"events_per_sec\": 123456}",
        );
        let merged = merge_reports(&[a]).expect("merge");
        assert!(merged.contains("\"events_per_sec\": 5000"), "{merged}");
        assert!(!merged.contains("123456"), "{merged}");
        // Zero wall time degrades to 0 instead of dividing by zero.
        let z = shard(
            "{\"app\": \"gups\", \"mode\": \"barre\", \"total_cycles\": 1, \"events\": 5, \
             \"wall_ms_serial\": 0.0, \"wall_ms_parallel\": 0.0, \"events_per_sec\": 99}",
        );
        let merged = merge_reports(&[z]).expect("merge");
        assert!(merged.contains("\"events_per_sec\": 0"), "{merged}");
    }

    #[test]
    fn quick_bench_is_consistent_and_renders() {
        let r = run_bench(true, 2).expect("bench run");
        assert_eq!(r.runs.len(), 9); // 3 apps x 3 modes
        assert!(r.divergent.is_empty(), "divergent: {:?}", r.divergent);
        assert!(r.runs.iter().all(|x| x.events > 0 && x.total_cycles > 0));
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"barre-bench-sweep/1\""));
        assert!(json.contains("\"divergent\": []"));
        assert!(r.summary().contains("identical"));
    }

    fn run(app: &'static str, mode: &'static str, eps: f64) -> BenchRun {
        BenchRun {
            app,
            mode,
            total_cycles: 1,
            events: 1,
            wall_ms_serial: 1.0,
            wall_ms_parallel: 1.0,
            events_per_sec: eps,
        }
    }

    #[test]
    fn gate_flags_cells_beyond_ratio() {
        let report = BenchReport {
            jobs: 1,
            quick: true,
            serial_wall_ms: 1.0,
            parallel_wall_ms: 1.0,
            speedup: 1.0,
            divergent: Vec::new(),
            runs: vec![
                run("gups", "baseline", 6_000_000.0),
                run("gups", "barre", 5_000_000.0),  // 1.2x: fine
                run("gups", "fbarre", 1_000_000.0), // 6.0x: violation
                run("gemv", "baseline", 2_000_000.0),
                run("gemv", "fbarre", 500_000.0), // 4.0x: fine at 5.0
                run("spmv", "fbarre", 1.0),       // no baseline cell: skipped
            ],
        };
        let v = report.gate_violations(5.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("gups/fbarre: 6.00x"), "{}", v[0]);
        // Tighter gate catches more; looser gate passes everything.
        assert_eq!(report.gate_violations(1.1).len(), 3);
        assert!(report.gate_violations(10.0).is_empty());
        // A dead cell (0 events/sec) is always a violation.
        let mut dead = report;
        dead.runs.push(run("gups", "fbarre1", 0.0));
        let v = dead.gate_violations(5.0);
        assert!(v.iter().any(|s| s.contains("gups/fbarre1: inf")), "{v:?}");
    }

    #[test]
    fn diff_reports_ranks_and_flags_regressions() {
        let old = shard(
            "{\"app\": \"gups\", \"mode\": \"fbarre\", \"total_cycles\": 10, \"events\": 4, \
             \"wall_ms_serial\": 1.0, \"wall_ms_parallel\": 1.0, \"events_per_sec\": 4000},\n\
             {\"app\": \"gemv\", \"mode\": \"barre\", \"total_cycles\": 7, \"events\": 3, \
             \"wall_ms_serial\": 1.0, \"wall_ms_parallel\": 1.0, \"events_per_sec\": 3000}",
        );
        let new = shard(
            "{\"app\": \"gups\", \"mode\": \"fbarre\", \"total_cycles\": 10, \"events\": 4, \
             \"wall_ms_serial\": 4.0, \"wall_ms_parallel\": 4.0, \"events_per_sec\": 1000},\n\
             {\"app\": \"spmv\", \"mode\": \"barre\", \"total_cycles\": 9, \"events\": 9, \
             \"wall_ms_serial\": 1.0, \"wall_ms_parallel\": 1.0, \"events_per_sec\": 9000}",
        );
        let d = diff_reports(&old, &new, 1.5).expect("diff");
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.rows[0].label, "gups/fbarre");
        assert!((d.rows[0].slowdown - 4.0).abs() < 1e-9);
        assert!(!d.rows[0].results_changed);
        assert_eq!(d.regressions().len(), 1);
        // Cells present on only one side are reported, not compared.
        assert_eq!(d.missing, vec!["gemv/barre", "spmv/barre"]);
        let rendered = d.render();
        assert!(rendered.contains("REGRESSED"), "{rendered}");
        assert!(
            rendered.contains("1 regression(s) beyond 1.50x"),
            "{rendered}"
        );
        // Same docs: no regressions, and the verdict line says so.
        let same = diff_reports(&old, &old, 1.5).expect("diff");
        assert!(same.regressions().is_empty());
        assert!(same.render().contains("no regressions"));
        // Deterministic drift is flagged even when throughput is fine.
        let drift = shard(
            "{\"app\": \"gups\", \"mode\": \"fbarre\", \"total_cycles\": 11, \"events\": 4, \
             \"wall_ms_serial\": 1.0, \"wall_ms_parallel\": 1.0, \"events_per_sec\": 4000}",
        );
        let d = diff_reports(&old, &drift, 1.5).expect("diff");
        assert!(d.rows[0].results_changed);
        assert!(d.render().contains("results changed"));
        // Garbage inputs name the side that failed to parse.
        assert!(diff_reports("nope", &new, 1.5).unwrap_err().contains("old"));
        assert!(diff_reports(&old, "nope", 1.5).unwrap_err().contains("new"));
    }

    #[test]
    fn mode_labels_are_pinned() {
        let labels: Vec<_> = bench_modes().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["baseline", "barre", "fbarre"]);
        assert_eq!(bench_apps(true).len(), 3);
        assert_eq!(bench_apps(false).len(), 9);
    }
}
