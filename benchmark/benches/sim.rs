//! The in-process simulator workloads, `sim-heavy` and `sim-small`, and
//! the cell runner every workload uses to time the simulator's layers.
//!
//! A cell is one `(app, mode)` simulation. Running it calls the layers
//! in the order a sweep does — `build_machine`, `Machine::run`, then the
//! journal's encode, decode and digest — each inside its own span.

use std::sync::Mutex;
use std::time::Instant;

use barre_system::{
    build_machine, metrics_digest, metrics_from_json, metrics_to_json, smoke_config, FBarreConfig,
    RunMetrics, SystemConfig, TranslationMode,
};
use barre_workloads::AppId;

use crate::layers;
use crate::metrics::Values;
use crate::procs::{self, max_rss_mb};
use crate::spans::{self, Spans};
use crate::stats::{median, tail};
use crate::{Outcome, RunOpts};

/// The translation modes every workload compares.
pub const MODES: [&str; 3] = ["baseline", "barre", "fbarre"];

/// `base` switched to translation mode `mode` (one of [`MODES`]).
pub fn with_mode(base: &SystemConfig, mode: &str) -> SystemConfig {
    let m = match mode {
        "barre" => TranslationMode::Barre,
        "fbarre" => TranslationMode::FBarre(FBarreConfig::default()),
        _ => TranslationMode::Baseline,
    };
    base.clone().with_mode(m)
}

/// One simulation of a pass.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Application.
    pub app: AppId,
    /// Translation mode label (one of [`MODES`]).
    pub mode: &'static str,
    /// Full configuration, mode applied.
    pub cfg: SystemConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl Cell {
    /// `app/mode`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.app.name(), self.mode)
    }
}

/// Every app of `apps` on every seed of `seeds` in every mode of
/// [`MODES`] on `base`, app-major.
pub fn cells(apps: &[AppId], base: &SystemConfig, seeds: &[u64]) -> Vec<Cell> {
    apps.iter()
        .flat_map(|&app| {
            seeds.iter().flat_map(move |&seed| {
                MODES.map(|mode| Cell {
                    app,
                    mode,
                    cfg: with_mode(base, mode),
                    seed,
                })
            })
        })
        .collect()
}

/// What one cell produced and what each layer call cost (host seconds).
#[derive(Debug, Clone)]
pub struct CellRun {
    /// `metrics_digest` of the result.
    pub digest: String,
    /// The result.
    pub metrics: RunMetrics,
    /// `build_machine`.
    pub build_s: f64,
    /// `Machine::run`.
    pub run_s: f64,
    /// `metrics_to_json`.
    pub encode_s: f64,
    /// `metrics_from_json`.
    pub decode_s: f64,
    /// `metrics_digest`.
    pub digest_s: f64,
    /// The whole cell.
    pub wall_s: f64,
}

fn timed<R>(
    spans: &Spans,
    layer: &'static str,
    name: &str,
    track: u32,
    parent: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    spans.span(layer, name, track, parent, |_| {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed().as_secs_f64())
    })
}

/// Runs one cell through every layer, checking that the journal encoding
/// round-trips exactly.
pub fn run_cell(cell: &Cell, spans: &Spans, track: u32, parent: u64) -> Result<CellRun, String> {
    let label = cell.label();
    let t0 = Instant::now();
    let mut out = spans.span("sim", &format!("cell {label}"), track, parent, |id| {
        let (machine, build_s) = timed(spans, "system.runner", "build_machine", track, id, || {
            build_machine(&[cell.app.spec()], &cell.cfg, cell.seed)
        });
        let machine = machine.map_err(|e| format!("{label}: build_machine: {e}"))?;
        let (metrics, run_s) = timed(spans, "system.machine", "run", track, id, || machine.run());
        let metrics = metrics.map_err(|e| format!("{label}: run: {e}"))?;
        let (json, encode_s) = timed(spans, "system.journal", "journal.encode", track, id, || {
            metrics_to_json(&metrics)
        });
        let (back, decode_s) = timed(spans, "system.journal", "journal.decode", track, id, || {
            metrics_from_json(&json)
        });
        if back.as_ref() != Ok(&metrics) {
            return Err(format!("{label}: journal encoding does not round-trip"));
        }
        let (digest, digest_s) =
            timed(spans, "system.journal", "journal.digest", track, id, || {
                metrics_digest(&metrics)
            });
        Ok(CellRun {
            digest,
            metrics,
            build_s,
            run_s,
            encode_s,
            decode_s,
            digest_s,
            wall_s: 0.0,
        })
    })?;
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// One pass over `cells` on `threads` pool workers (inline when 1).
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Per-cell results, input order.
    pub runs: Vec<Result<CellRun, String>>,
}

/// Runs every cell once, serially or through `barre_sim::pool::run_ordered`.
pub fn run_pass(cells: &[Cell], threads: usize, spans: &Spans, name: &str) -> Pass {
    // Pool workers claim a free track so concurrent cells never share one.
    let free = Mutex::new(vec![true; threads.max(1)]);
    let claim = || {
        let mut f = free.lock().expect("track list poisoned");
        let i = f.iter().position(|&x| x).unwrap_or(0);
        f[i] = false;
        i
    };
    let release = |i: usize| free.lock().expect("track list poisoned")[i] = true;
    let t0 = Instant::now();
    let runs = spans.span("sim", name, 0, 0, |pass| {
        let jobs: Vec<_> = cells
            .iter()
            .map(|c| {
                let (claim, release) = (&claim, &release);
                move || {
                    let slot = claim();
                    let r = run_cell(c, spans, slot as u32 + 1, pass);
                    release(slot);
                    r
                }
            })
            .collect();
        barre_sim::pool::run_ordered(jobs, threads)
            .unwrap_or_else(|e| cells.iter().map(|_| Err(format!("pool: {e}"))).collect())
    });
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        runs,
    }
}

/// `barre run` arguments of one smoke cell, in the canonical order
/// `barre serve` spawns its children with.
pub fn run_args(app: AppId, mode: &str, seed: u64) -> Vec<String> {
    let mut v: Vec<String> = [
        "run",
        "--metrics-json",
        "--smoke",
        "--app",
        app.name(),
        "--mode",
        mode,
        "--seed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    v.push(seed.to_string());
    v
}

/// The apps of a simulator workload, whether its passes run on the pool
/// (`sim-small`) or serially (`sim-heavy`), and on how many simulation
/// seeds a pass runs each app.
pub fn workload_apps(name: &str) -> Option<(Vec<AppId>, bool, u64)> {
    match name {
        "sim-heavy" => Some((vec![AppId::Gups, AppId::Spmv], false, 1)),
        // pr's cells cost about ten times any other's. Queued first, they
        // spread over the pool before the short cells fill in, so a pass
        // does not depend on which thread happens to draw two of them.
        // pr's host time also depends on the graph its seed draws, by
        // about a third at the same event count; four seeds per pass
        // average that out, so runs on different seeds agree.
        "sim-small" => Some((
            vec![
                AppId::Pr,
                AppId::Gemv,
                AppId::Fft,
                AppId::Jac2d,
                AppId::Lu,
                AppId::St2d,
                AppId::Matr,
            ],
            true,
            4,
        )),
        _ => None,
    }
}

/// Runs `sim-heavy` or `sim-small`: passes over the workload's cells for
/// `opts.seconds`, then one cross-check pass on the other execution path
/// (pool vs serial). Every cell's digest must match across all passes.
///
/// Traced runs alternate traced and untraced passes so the tracing
/// overhead is measured on the same machine state.
pub fn run(opts: &RunOpts, spans: &Spans) -> Result<Outcome, String> {
    let (apps, pooled, k) = workload_apps(&opts.workload).ok_or("not a simulator workload")?;
    let seeds: Vec<u64> = (0..k)
        .map(|i| opts.seed.wrapping_mul(k).wrapping_add(i))
        .collect();
    let cells = cells(&apps, &smoke_config(), &seeds);
    let nproc = barre_sim::pool::default_jobs();
    let threads = if pooled { nproc } else { 1 };
    let quiet = Spans::new(false);

    // Untraced runs first run each cell as its own `barre run` process,
    // as serve and the queue worker do: the largest of them is the memory
    // one simulation needs. They go first because a child's peak RSS
    // includes this process's resident set at the moment it is spawned.
    let children = if spans.enabled() {
        None
    } else {
        let bin = procs::barre_binary(&opts.root)?;
        let log = opts.work.join("children.log");
        let mut digests = Vec::new();
        for cell in &cells {
            let args = run_args(cell.app, cell.mode, cell.seed);
            let (code, out, _) = procs::run_to_end(&bin, &args, &opts.work, &log)?;
            digests.push(match code {
                0 => metrics_from_json(out.trim()).map(|m| metrics_digest(&m)),
                _ => Err(format!("exit {code}")),
            });
        }
        Some((digests, max_rss_mb(true)))
    };

    let mut reference: Option<Vec<String>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut check = |pass: &Pass, errors: &mut Vec<String>| {
        let digests: Vec<String> = pass
            .runs
            .iter()
            .map(|r| {
                r.as_ref()
                    .map_or_else(|e| format!("error: {e}"), |c| c.digest.clone())
            })
            .collect();
        let want = reference.get_or_insert_with(|| digests.clone());
        for ((cell, got), want) in cells.iter().zip(&digests).zip(want.iter()) {
            attempted += 1;
            if got != want || got.starts_with("error") {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(format!(
                        "{}: digest {got} != first pass {want}",
                        cell.label()
                    ));
                }
            }
        }
    };

    let (mut walls, mut setups, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut busy) = (0u64, 0.0f64);
    let mut clock = layers::Clock::default();
    let start = Instant::now();
    let mut i = 0usize;
    while i < 2 || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = spans.enabled() && i % 2 == 1;
        let pass = run_pass(
            &cells,
            threads,
            if traced { spans } else { &quiet },
            &format!("pass {i}"),
        );
        check(&pass, &mut errors);
        let ok: Vec<&CellRun> = pass.runs.iter().filter_map(|r| r.as_ref().ok()).collect();
        if traced {
            traced_walls.push(pass.wall_s);
            for (c, r) in cells.iter().zip(&pass.runs) {
                if let Ok(r) = r {
                    clock.add(c.mode, r);
                }
            }
            busy += ok.iter().map(|r| r.wall_s).sum::<f64>() / (threads as f64 * pass.wall_s);
        } else {
            walls.push(pass.wall_s);
            setups.push(ok.iter().map(|r| r.build_s).sum::<f64>());
            events += ok.iter().map(|r| r.metrics.events_processed).sum::<u64>();
        }
        i += 1;
    }
    let window_s: f64 = walls.iter().sum();
    let cross = run_pass(
        &cells,
        if pooled { 1 } else { nproc },
        &quiet,
        "cross-check",
    );
    check(&cross, &mut errors);

    let mut e2e = Values::new();
    e2e.insert("op_ms.p50", median(&walls) * 1e3);
    e2e.insert("events_per_s", events as f64 / window_s);
    e2e.insert("setup_s", median(&setups));
    if let Some((children, peak)) = children {
        // The children must agree with the in-process passes.
        let want = reference.unwrap_or_default();
        for ((cell, got), want) in cells.iter().zip(&children).zip(&want) {
            attempted += 1;
            if got.as_ref() != Ok(want) {
                failed += 1;
                errors.push(format!(
                    "{}: `barre run` answered {got:?}, passes {want}",
                    cell.label()
                ));
            }
        }
        e2e.insert("peak_rss_mb", peak);
    }

    let mut detail = vec![format!(
        "passes: {} timed, {} traced, 1 cross-check on {} thread(s); {} cells each",
        walls.len(),
        traced_walls.len(),
        if pooled { 1 } else { nproc },
        cells.len()
    )];
    if let Some((p, v)) = tail(&walls).filter(|t| t.0 > 50.0) {
        detail.push(format!("pass_ms.p{p}: {:.3}", v * 1e3));
    }
    // One result per cell (a failed cell, already counted, reads as empty).
    let sample: Vec<RunMetrics> = cross
        .runs
        .iter()
        .map(|r| r.as_ref().map(|c| c.metrics.clone()).unwrap_or_default())
        .collect();
    detail.extend(layers::speedup_lines(&cells, &sample));

    let layer_values = if spans.enabled() {
        let mut v = Values::new();
        clock.finish(&mut v);
        layers::model(&cells, &sample, &mut v);
        layers::structures(&apps, &smoke_config(), opts.seed, &sample, &mut v);
        let n = traced_walls.len().max(1) as f64;
        v.insert("pool.busy_frac", if pooled { busy / n } else { 0.0 });
        layers::absent(&mut v, &[layers::SERVE, layers::CLI, layers::JOBQ]);
        v.insert(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        let all = spans.finished();
        let cell_cover = spans::min_child_coverage(&all, "cell").unwrap_or(0.0);
        let pass_cover = spans::min_child_coverage(&all, "pass").unwrap_or(0.0);
        detail.push(format!(
            "span coverage: layer calls cover >= {:.1}% of each cell, cells cover >= {:.1}% of each pass",
            cell_cover * 100.0,
            pass_cover * 100.0
        ));
        Some(v)
    } else {
        None
    };
    Ok(Outcome {
        attempted,
        failed,
        errors,
        e2e,
        layers: layer_values,
        detail,
    })
}
