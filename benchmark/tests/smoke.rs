//! One-second runs of every workload through the real binaries, untraced
//! and traced: outputs must check out, the emitted metric names must be
//! exactly `BENCHMARK.json`'s, and no child process may outlive a run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Once;

use barre_system::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// The daemon workloads drive the `barre` binary of this checkout.
fn build_barre() {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let st = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--quiet",
                "--offline",
                "-p",
                "barre-cli",
            ])
            .current_dir(root())
            .status()
            .expect("run cargo");
        assert!(st.success(), "building barre failed");
    });
}

fn names(key: &str) -> Vec<String> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Processes whose working directory lies under `dir`: every child the
/// benchmark starts runs there.
fn survivors(dir: &Path) -> Vec<String> {
    let dir = dir.canonicalize().expect("out dir exists");
    std::fs::read_dir("/proc")
        .expect("procfs")
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .chars()
                .all(|c| c.is_ascii_digit())
        })
        .filter(|e| std::fs::read_link(e.path().join("cwd")).is_ok_and(|c| c.starts_with(&dir)))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// Runs one workload for a second; returns (stdout, result object).
fn run(workload: &str, trace: bool) -> (String, Json) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{}", u8::from(trace)));
    let _ = std::fs::remove_dir_all(&out);
    let o = Command::new(env!("CARGO_BIN_EXE_barre-perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(if trace { "1" } else { "0" })
        .arg("--out")
        .arg(&out)
        .current_dir(root())
        .output()
        .expect("run barre-perf");
    let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
    assert!(
        o.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&o.stderr)
    );
    assert!(
        survivors(&out).is_empty(),
        "{workload}: child processes survived: {:?}",
        survivors(&out)
    );
    let last = stdout.lines().last().expect("output");
    let res = Json::parse(last).expect("last line is JSON");
    let keys: Vec<&str> = res
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        res.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    assert!(res.get("attempted").and_then(Json::as_u64) >= Some(1));
    assert_eq!(res.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    let metrics: Vec<String> = res
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(
        metrics,
        names(if trace { "per_layer" } else { "end_to_end" })
    );
    if trace {
        let chrome = std::fs::read_to_string(out.join(format!("{workload}.trace.json")))
            .expect("trace file");
        let doc = Json::parse(&chrome).expect("trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
    }
    (stdout, res)
}

/// An untraced and a traced run; returns the traced run's stdout.
fn smoke(workload: &str) -> String {
    build_barre();
    let (_, res) = run(workload, false);
    let metrics = res.get("metrics").expect("metrics");
    for name in names("end_to_end") {
        let v = metrics
            .get(&name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert!(v.is_some_and(|v| v > 0.0), "{workload}: {name} = {v:?}");
    }
    run(workload, true).0
}

#[test]
fn sim_heavy() {
    smoke("sim-heavy");
}

#[test]
fn sim_small_spans_cover_cells_and_passes() {
    let stdout = smoke("sim-small");
    let line = stdout
        .lines()
        .find(|l| l.contains("span coverage"))
        .expect("coverage line");
    let shares: Vec<f64> = line
        .split(">= ")
        .skip(1)
        .filter_map(|s| s.split('%').next()?.parse().ok())
        .collect();
    assert_eq!(shares.len(), 2, "{line}");
    assert!(shares.iter().all(|&s| s >= 95.0), "{line}");
}

#[test]
fn serve_mix() {
    smoke("serve-mix");
}

#[test]
fn dispatch_sweep() {
    smoke("dispatch-sweep");
}

#[test]
fn refuses_unknown_workloads() {
    let o = Command::new(env!("CARGO_BIN_EXE_barre-perf"))
        .args(["run", "--workload", "nosuch", "--seed", "1"])
        .current_dir(root())
        .output()
        .expect("run barre-perf");
    assert!(!o.status.success());
    assert!(o.stdout.is_empty());
}
