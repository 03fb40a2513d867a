//! `barre-perf`: the repository's benchmark.
//!
//! ```text
//! barre-perf run --workload <w> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! barre-perf compare <parent-dir> <change-dir>
//! ```
//!
//! `run` measures one workload from outside the program — timing calls
//! into the library's public functions and driving the `barre` daemons
//! over their sockets — checks every output, prints each metric by name
//! with its unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics plus a
//! Chrome trace of the benchmark's spans. See README.md.

mod compare;
mod dispatch;
mod layers;
mod metrics;
mod procs;
mod serve;
mod sim;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use barre_system::journal::json_escape;

use crate::metrics::{Def, Values, END_TO_END, PER_LAYER};
use crate::spans::Spans;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sim-heavy", "sim-small", "serve-mix", "dispatch-sweep"];

/// Settings of one `run`.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Repository root (the current directory).
    pub root: PathBuf,
    /// Scratch directory for caches, journals and logs of this run.
    pub work: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong, missing or refused.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// End-to-end metrics (from untraced operations).
    pub e2e: Values,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Values>,
    /// Human-readable extra lines (sample counts, per-class figures).
    pub detail: Vec<String>,
}

const USAGE: &str = "usage:
  barre-perf run --workload <sim-heavy|sim-small|serve-mix|dispatch-sweep> --seed <n>
                 [--seconds <s>] [--trace 0|1] [--out <dir>]
  barre-perf compare <parent-dir> <change-dir>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match run_cmd(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("barre-perf: {e}");
                1
            }
        },
        Some("compare") if args.len() == 3 => {
            match compare::compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok((table, regressed)) => {
                    print!("{table}");
                    i32::from(regressed)
                }
                Err(e) => {
                    eprintln!("barre-perf: {e}");
                    2
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run_cmd(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, 1u64, 20.0f64, false, None::<PathBuf>);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{USAGE}"));
    }
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() {
        return Err("run from the repository root (no crates/ here)".into());
    }
    let out = out.unwrap_or_else(|| procs::target_dir(&root).join("barre-perf"));
    let work = out.join("work").join(&workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let opts = RunOpts {
        workload: workload.clone(),
        seed,
        seconds,
        root,
        work,
    };
    let spans = Spans::new(trace);
    let outcome = match workload.as_str() {
        "serve-mix" => serve::run(&opts, &spans)?,
        "dispatch-sweep" => dispatch::run(&opts, &spans)?,
        _ => sim::run(&opts, &spans)?,
    };
    let (defs, values): (&[Def], &Values) = if trace {
        (
            PER_LAYER,
            outcome
                .layers
                .as_ref()
                .ok_or("traced run produced no layers")?,
        )
    } else {
        (END_TO_END, &outcome.e2e)
    };
    let mut errors = outcome.errors.clone();
    let mut metrics_json = String::new();
    for (i, (name, unit, _)) in defs.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(f64::NAN);
        let v = if v.is_finite() {
            v
        } else {
            errors.push(format!("metric {name} was not measured"));
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics_json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = outcome.failed == 0 && errors.is_empty() && outcome.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        outcome.attempted, outcome.failed
    );

    println!(
        "barre-perf {workload}: seed {seed}, {seconds} s window, trace {}, {} host threads",
        u8::from(trace),
        barre_sim::pool::default_jobs()
    );
    for line in &outcome.detail {
        println!("  {line}");
    }
    for (name, unit, _) in defs {
        println!(
            "  {name:<36} {:>18.6} {unit}",
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    for e in &errors {
        println!("  FAILED: {e}");
    }

    let detail: Vec<String> = outcome.detail.iter().map(|d| json_escape(d)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"result\": {result}, \"detail\": [{}]}}",
        json_escape(&workload),
        u8::from(trace),
        detail.join(", ")
    );
    let file = if trace { ".layers" } else { "" };
    write_file(
        &out.join(format!("{workload}{file}.json")),
        &format!("{record}\n"),
    )?;
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join(format!("{workload}.runs.jsonl")))
        .map_err(|e| e.to_string())?;
    writeln!(log, "{record}").map_err(|e| e.to_string())?;
    if trace {
        let chrome = spans::chrome_trace(&spans.finished(), &format!("barre-perf {workload}"));
        write_file(&out.join(format!("{workload}.trace.json")), &chrome)?;
    }
    println!("{result}");
    Ok(())
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}
