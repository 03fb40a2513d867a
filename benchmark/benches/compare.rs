//! `barre-perf compare <parent-dir> <change-dir>`: the gain and
//! regression rules of the choosing-metrics guide (§8) applied to two
//! sets of untraced runs, one row per (workload, metric).
//!
//! Runs are paired by seed, so each side should have run the same seeds,
//! alternating which side goes first. Rules:
//! * fewer than 10 pairs: `insufficient`;
//! * more failed operations than the parent (by count or by share of
//!   those attempted), or any change run not `correct`: every row of the
//!   workload is `REGRESSED`, and none can be a gain;
//! * a gain needs the change to win at least 9/10 of the pairs (ties
//!   count for neither) and the medians to differ by more than the
//!   parent's interquartile range;
//! * a regression is a median worse than the parent's by more than the
//!   metric's bound in `BENCHMARK.json`; when either side's spread
//!   (IQR / median) is wider than the bound the row is `unresolved`
//!   instead, unless every change run beats every parent run.
//!
//! A workload with runs in only one of the two directories is an error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use barre_system::Json;

use crate::metrics::{bounds, Better, END_TO_END};
use crate::stats::{median, quartiles, rel_iqr};
use crate::WORKLOADS;

/// One untraced run's result line.
#[derive(Debug, Clone)]
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Seed → untraced run in `dir`; `None` when `dir` holds no runs of
/// `workload`.
fn runs(dir: &Path, workload: &str) -> Result<Option<BTreeMap<u64, Run>>, String> {
    let path = dir.join(format!("{workload}.runs.jsonl"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut out = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = || format!("{}:{}: malformed run record", path.display(), i + 1);
        let rec = Json::parse(line).map_err(|_| bad())?;
        if rec.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let seed = rec.get("seed").and_then(Json::as_u64).ok_or_else(bad)?;
        let result = rec.get("result").ok_or_else(bad)?;
        let count = |k: &str| result.get(k).and_then(Json::as_u64).ok_or_else(bad);
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(bad)?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        let run = Run {
            correct: result.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        };
        out.insert(seed, run);
    }
    Ok(Some(out))
}

/// Whether the change failed more operations than the parent over the
/// paired runs, by count or by share, or produced a run that is not
/// `correct`. Also returns the `failed/attempted` of each side.
fn failures_worse(pairs: &[(&Run, &Run)]) -> (bool, String, String) {
    let (mut pf, mut pa, mut cf, mut ca) = (0u64, 0u64, 0u64, 0u64);
    for (p, c) in pairs {
        (pf, pa) = (pf + p.failed, pa + p.attempted);
        (cf, ca) = (cf + c.failed, ca + c.attempted);
    }
    let share = |f: u64, a: u64| if a == 0 { 0.0 } else { f as f64 / a as f64 };
    let worse = cf > pf || share(cf, ca) > share(pf, pa) || pairs.iter().any(|(_, c)| !c.correct);
    (worse, format!("{pf}/{pa}"), format!("{cf}/{ca}"))
}

/// One compared (workload, metric) pair.
struct Row {
    pairs: usize,
    parent: Vec<f64>,
    change: Vec<f64>,
    wins: usize,
    verdict: &'static str,
}

fn judge(p: &[f64], c: &[f64], better: Better, bound: f64, failures_worse: bool) -> Row {
    let sign = if better == Better::Lower { -1.0 } else { 1.0 };
    let wins = p
        .iter()
        .zip(c)
        .filter(|(a, b)| sign * (*b - *a) > 0.0)
        .count();
    let (pm, cm) = (median(p), median(c));
    let improvement = sign * (cm - pm);
    let worse_frac = if pm == 0.0 {
        0.0
    } else {
        -improvement / pm.abs()
    };
    let p_iqr = quartiles(p).map_or(0.0, |(q1, q3)| q3 - q1);
    let dominates = p.iter().all(|a| c.iter().all(|b| sign * (b - a) > 0.0));
    let verdict = if p.len() < 10 {
        "insufficient"
    } else if failures_worse {
        "REGRESSED"
    } else if improvement > 0.0 && wins * 10 >= p.len() * 9 && improvement > p_iqr {
        "GAIN"
    } else if (rel_iqr(p) > bound || rel_iqr(c) > bound) && !dominates {
        "unresolved"
    } else if worse_frac > bound {
        "REGRESSED"
    } else {
        "ok"
    };
    Row {
        pairs: p.len(),
        parent: p.to_vec(),
        change: c.to_vec(),
        wins,
        verdict,
    }
}

/// `median [q1 q3] spread%`, the spread being IQR / median.
fn summary(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
    let n = |v: f64| format!("{v:.*}", if v.abs() >= 100.0 { 1 } else { 6 });
    format!(
        "{} [{} {}] {:.1}%",
        n(median(xs)),
        n(q1),
        n(q3),
        rel_iqr(xs) * 100.0
    )
}

/// Compares the untraced runs under `parent` and `change`. Returns the
/// rendered table and whether any row regressed.
pub fn compare(parent: &Path, change: &Path) -> Result<(String, bool), String> {
    let bounds = bounds()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<13} {:>5}  {:<40} {:<40} {:>8} {:>5}  verdict",
        "workload",
        "metric",
        "pairs",
        "parent median [q1 q3] spread",
        "change median [q1 q3] spread",
        "change",
        "wins"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        let (p, c) = match (runs(parent, w)?, runs(change, w)?) {
            (Some(p), Some(c)) => (p, c),
            (None, None) => continue,
            (Some(_), None) => return Err(format!("{w}: no runs in {}", change.display())),
            (None, Some(_)) => return Err(format!("{w}: no runs in {}", parent.display())),
        };
        let paired: Vec<(&Run, &Run)> = p
            .iter()
            .filter_map(|(seed, pr)| Some((pr, c.get(seed)?)))
            .collect();
        let (fail_worse, pf, cf) = failures_worse(&paired);
        regressed |= fail_worse;
        let _ = writeln!(
            out,
            "{w:<15} {:<13} {:>5}  {pf:<40} {cf:<40} {:>8} {:>5}  {}",
            "failed",
            paired.len(),
            "",
            "",
            if fail_worse { "REGRESSED" } else { "ok" }
        );
        for (name, _, better) in END_TO_END {
            let (pv, cv): (Vec<f64>, Vec<f64>) = paired
                .iter()
                .filter_map(|(pr, cr)| Some((*pr.metrics.get(*name)?, *cr.metrics.get(*name)?)))
                .unzip();
            if pv.is_empty() {
                continue;
            }
            let bound = bounds.get(*name).copied().unwrap_or(0.0);
            let row = judge(&pv, &cv, *better, bound, fail_worse);
            regressed |= row.verdict == "REGRESSED";
            let pm = median(&row.parent);
            let delta = if pm == 0.0 {
                0.0
            } else {
                (median(&row.change) - pm) / pm * 100.0
            };
            let _ = writeln!(
                out,
                "{w:<15} {name:<13} {:>5}  {:<40} {:<40} {:>+7.2}% {:>2}/{:<2}  {} (bound {:.0}%)",
                row.pairs,
                summary(&row.parent),
                summary(&row.change),
                delta,
                row.wins,
                row.pairs,
                row.verdict,
                bound * 100.0
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr() {
        let parent = ten(100.0, 0.1);
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            judge(&parent, &faster, Better::Lower, 0.1, false).verdict,
            "GAIN"
        );
        // Only 8/10 wins: no gain, but no regression either.
        let mut mixed = faster.clone();
        mixed[0] = parent[0] + 0.01;
        mixed[1] = parent[1] + 0.01;
        assert_eq!(
            judge(&parent, &mixed, Better::Lower, 0.5, false).verdict,
            "ok"
        );
        // All wins but inside the parent's own spread: no gain.
        let wide = ten(100.0, 5.0);
        let nudged: Vec<f64> = wide.iter().map(|x| x - 1.0).collect();
        assert_ne!(
            judge(&wide, &nudged, Better::Lower, 0.5, false).verdict,
            "GAIN"
        );
    }

    #[test]
    fn regressions_use_the_bound_and_wide_spreads_are_unresolved() {
        let parent = ten(100.0, 0.1);
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let verdict = |p: &[f64], c: &[f64], b: Better, bound: f64| judge(p, c, b, bound, false);
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1).verdict,
            "REGRESSED"
        );
        assert_eq!(verdict(&parent, &slower, Better::Lower, 0.25).verdict, "ok");
        // Throughput: lower is worse.
        assert_eq!(
            verdict(&parent, &slower, Better::Higher, 0.1).verdict,
            "GAIN"
        );
        let noisy = ten(50.0, 20.0);
        assert_eq!(
            verdict(&noisy, &slower, Better::Lower, 0.1).verdict,
            "unresolved"
        );
        assert_eq!(
            verdict(&parent[..5], &slower[..5], Better::Lower, 0.1).verdict,
            "insufficient"
        );
    }

    fn run(correct: bool, attempted: u64, failed: u64, value: f64) -> Run {
        Run {
            correct,
            attempted,
            failed,
            metrics: [("op_ms.p50".to_string(), value)].into(),
        }
    }

    /// A fresh directory next to the test binary.
    fn scratch(name: &str) -> std::path::PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        let dir = exe.parent().expect("binary directory").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_runs(dir: &Path, workload: &str, runs: &[Run]) {
        std::fs::create_dir_all(dir).expect("create run dir");
        let lines: String = runs
            .iter()
            .enumerate()
            .map(|(seed, r)| {
                format!(
                    "{{\"seed\": {seed}, \"trace\": 0, \"result\": {{\"correct\": {}, \"attempted\": {}, \
                     \"failed\": {}, \"metrics\": {{\"op_ms.p50\": {{\"value\": {}, \"unit\": \"ms\"}}}}}}}}\n",
                    r.correct,
                    r.attempted,
                    r.failed,
                    r.metrics["op_ms.p50"]
                )
            })
            .collect();
        std::fs::write(dir.join(format!("{workload}.runs.jsonl")), lines).expect("write runs");
    }

    #[test]
    fn more_failures_or_an_incorrect_run_regress_and_block_a_gain() {
        let ok: Vec<Run> = (0..10)
            .map(|i| run(true, 100, 0, 100.0 + f64::from(i)))
            .collect();
        let worse_than = |p: &[Run], c: &[Run]| {
            let refs: Vec<(&Run, &Run)> = p.iter().zip(c).collect();
            failures_worse(&refs).0
        };
        assert!(!worse_than(&ok, &ok));
        // Much faster, but one operation failed and its run is not correct.
        let mut fast: Vec<Run> = ok
            .iter()
            .map(|r| run(true, 100, 0, r.metrics["op_ms.p50"] * 0.5))
            .collect();
        assert!(!worse_than(&ok, &fast));
        fast[3] = run(false, 100, 1, 50.0);
        assert!(worse_than(&ok, &fast));
        // Against a parent that failed once in 1000: the same count out of
        // more attempts is fine, the same count out of fewer is a higher
        // share and is not.
        let mut parent_failed = ok.clone();
        parent_failed[0] = run(true, 100, 1, 100.0);
        let mut more = ok.clone();
        more[0] = run(true, 200, 1, 100.0);
        assert!(!worse_than(&parent_failed, &more));
        more[0] = run(true, 50, 1, 100.0);
        assert!(worse_than(&parent_failed, &more));

        let p: Vec<f64> = ok.iter().map(|r| r.metrics["op_ms.p50"]).collect();
        let c: Vec<f64> = p.iter().map(|x| x * 0.5).collect();
        assert_eq!(judge(&p, &c, Better::Lower, 0.1, true).verdict, "REGRESSED");

        // End to end through the run files: the table flags it, and the
        // command reports a regression.
        let dir = scratch("compare-failures");
        write_runs(&dir.join("parent"), "sim-heavy", &ok);
        write_runs(&dir.join("change"), "sim-heavy", &fast);
        let (table, regressed) =
            compare(&dir.join("parent"), &dir.join("change")).expect("compare");
        assert!(regressed, "{table}");
        assert!(!table.contains("GAIN"), "{table}");
        assert!(
            table.contains("0/1000") && table.contains("1/1000"),
            "{table}"
        );
    }

    #[test]
    fn a_workload_with_runs_on_one_side_only_is_an_error() {
        let ok: Vec<Run> = (0..10)
            .map(|i| run(true, 10, 0, 100.0 + f64::from(i)))
            .collect();
        let dir = scratch("compare-missing");
        write_runs(&dir.join("parent"), "sim-heavy", &ok);
        write_runs(&dir.join("parent"), "serve-mix", &ok);
        write_runs(&dir.join("change"), "sim-heavy", &ok);
        let err = compare(&dir.join("parent"), &dir.join("change")).expect_err("serve-mix missing");
        assert!(err.contains("serve-mix"), "{err}");
        // A workload neither side ran is simply not compared.
        write_runs(&dir.join("change"), "serve-mix", &ok);
        let (table, regressed) =
            compare(&dir.join("parent"), &dir.join("change")).expect("compare");
        assert!(!regressed, "{table}");
        assert!(!table.contains("dispatch-sweep"), "{table}");
    }
}
