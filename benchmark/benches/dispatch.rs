//! `dispatch-sweep`: `barre sweep --dispatch` against a `barre queue`
//! coordinator and one `barre worker --jobs 2`.
//!
//! Every repetition starts a fresh coordinator with an empty journal and
//! a fresh client journal — idempotent submit would otherwise answer
//! from the previous repetition's results. The sweep is submitted first
//! and the worker started once all six jobs are queued, after a seeded
//! random delay of up to one collect-poll period (300 ms). The delay is
//! subtracted from the makespan; it spreads the finish uniformly over
//! the client's poll period, so the median does not jump between ticks
//! when a job's duration moves by a few milliseconds.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use barre_sim::Rng;
use barre_system::{metrics_digest, read_journal, JournalEvent, Json, JOURNAL_FILE};
use barre_workloads::AppId;

use crate::layers;
use crate::metrics::Values;
use crate::procs::{self, http_get, max_rss_mb, prom_value, wait_ready, Daemon, Stdout};
use crate::spans::Spans;
use crate::stats::median;
use crate::{Outcome, RunOpts};

const APPS: [AppId; 3] = [AppId::Gups, AppId::Spmv, AppId::Pr];
/// The dispatch client's collect-poll period.
const POLL_MS: u64 = 300;

/// `barre sweep` arguments of this run, plus `extra`.
fn sweep_args(seed: u64, extra: &[String]) -> Vec<String> {
    let apps: Vec<&str> = APPS.iter().map(|a| a.name()).collect();
    let mut v: Vec<String> = [
        "sweep",
        "--apps",
        &apps.join(","),
        "--mode",
        "fbarre",
        "--smoke",
        "--seed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    v.push(seed.to_string());
    v.extend_from_slice(extra);
    v
}

/// One dispatched repetition.
struct Rep {
    makespan_s: f64,
    setup_s: f64,
    code: i32,
    stdout: String,
    digests: Vec<String>,
    events: u64,
    lease_expiries: f64,
    heartbeats_lost: f64,
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

fn rep(
    bin: &Path,
    dir: &Path,
    seed: u64,
    delay: Duration,
    fleet: Option<&Path>,
) -> Result<Rep, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let envs: Vec<(&str, &Path)> = fleet
        .map(|f| ("BARRE_FLEET_TRACE", f))
        .into_iter()
        .collect();
    let qj = path_str(&dir.join("queue-journal"))?;
    let cj = dir.join("client-journal");

    let t0 = Instant::now();
    let coord = Daemon::spawn(
        bin,
        &["queue", "--port", "0", "--journal", &qj],
        dir,
        &envs,
        &dir.join("queue.log"),
        Stdout::Handshake,
    )?;
    // Ready at its `listening on` line. Probing `/readyz` as serve-mix
    // does would race the accept loop's 20 ms poll and make the sample
    // bimodal; the probe still runs so the sweep meets a serving daemon.
    let coord_ready = t0.elapsed().as_secs_f64();
    wait_ready(&coord.addr)?;

    let t1 = Instant::now();
    let extra = [
        "--dispatch".to_string(),
        coord.addr.clone(),
        "--journal".to_string(),
        path_str(&cj)?,
    ];
    let client = Daemon::spawn(
        bin,
        &sweep_args(seed, &extra),
        dir,
        &envs,
        &dir.join("client.log"),
        Stdout::Capture,
    )?;
    let queued_by = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, m) = http_get(&coord.addr, "/metrics")?;
        if prom_value(&m, "barre_queue_jobs_queued").unwrap_or(0.0) >= (APPS.len() * 2) as f64 {
            break;
        }
        if Instant::now() > queued_by {
            return Err("the sweep never queued its jobs".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(delay);
    // Ready at its `start` log record, which it writes before polling.
    let (worker, worker_ready) = Daemon::spawn_until_logged(
        bin,
        &["worker", "--connect", &coord.addr, "--jobs", "2"],
        dir,
        &envs,
        &dir.join("worker.log"),
    )?;
    let (code, stdout) = client.wait_output()?;
    let makespan_s = t1.elapsed().as_secs_f64() - delay.as_secs_f64();
    let m = http_get(&coord.addr, "/metrics")?.1;
    worker.stop();
    coord.stop();

    let records =
        read_journal(&cj.join(JOURNAL_FILE)).map_err(|e| format!("client journal: {e}"))?;
    let (mut digests, mut events) = (Vec::new(), 0u64);
    for r in records {
        if let JournalEvent::Done {
            digest, metrics, ..
        } = r.event
        {
            digests.push(digest);
            events += metrics.events_processed;
        }
    }
    Ok(Rep {
        makespan_s,
        setup_s: coord_ready + worker_ready.as_secs_f64(),
        code,
        stdout,
        digests,
        events,
        lease_expiries: prom_value(&m, "barre_queue_lease_expiries_total").unwrap_or(0.0),
        heartbeats_lost: prom_value(&m, "barre_queue_heartbeats_lost_total").unwrap_or(0.0),
    })
}

/// Per-job milliseconds from one repetition's fleet-trace files:
/// (queued → leased, attempt start → end, queue done → client collected).
fn fleet_spans(dir: &Path, spans: &Spans, track: u32, out: &mut [Vec<f64>; 3]) {
    let mut by_fp: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    let files = std::fs::read_dir(dir).into_iter().flatten().flatten();
    for f in files {
        let text = std::fs::read_to_string(f.path()).unwrap_or_default();
        for line in text.lines() {
            let Ok(v) = Json::parse(line) else { continue };
            let get = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
            let (Some(fp), Some(ev), Some(ts)) = (
                get("fp"),
                get("event"),
                v.get("ts_ms").and_then(Json::as_u64),
            ) else {
                continue;
            };
            by_fp.entry(fp).or_default().entry(ev).or_insert(ts);
        }
    }
    for ev in by_fp.values() {
        for (i, (a, b, name)) in [
            ("queued", "leased", "queued"),
            ("attempt_start", "attempt_end", "attempt"),
            ("done", "collected", "collect lag"),
        ]
        .into_iter()
        .enumerate()
        {
            if let (Some(&s), Some(&e)) = (ev.get(a), ev.get(b)) {
                out[i].push(e.saturating_sub(s) as f64);
                spans.push_wall("jobq", name, track, s, e);
            }
        }
    }
}

/// Runs `dispatch-sweep`.
pub fn run(opts: &RunOpts, spans: &Spans) -> Result<Outcome, String> {
    let bin = procs::barre_binary(&opts.root)?;
    let mut rng = Rng::new(opts.seed ^ 0xD15_7A7C);
    let (mut reps, mut traced) = (Vec::new(), Vec::new());
    let mut jobq: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    let min_reps = if spans.enabled() { 2 } else { 1 };
    let mut i = 0;
    while i < min_reps || start.elapsed().as_secs_f64() < opts.seconds {
        let dir = opts.work.join(format!("rep-{i}"));
        let fleet = (spans.enabled() && i % 2 == 1).then(|| dir.join("fleet"));
        let delay = Duration::from_millis(rng.next_below(POLL_MS));
        let r = spans.span("jobq", &format!("repetition {i}"), 0, 0, |_| {
            rep(&bin, &dir, opts.seed, delay, fleet.as_deref())
        })?;
        match &fleet {
            Some(f) => {
                fleet_spans(f, spans, i as u32 + 1, &mut jobq);
                traced.push(r);
            }
            None => reps.push(r),
        }
        i += 1;
    }
    let peak_rss = max_rss_mb(true);

    // The same jobs in one process: stdout must be byte-identical.
    let log = opts.work.join("reference.log");
    let (code, reference, ref_wall) = procs::run_to_end(
        &bin,
        &sweep_args(opts.seed, &["--jobs".into(), "2".into()]),
        &opts.work,
        &log,
    )?;
    let (mut failed, mut errors) = (0u64, Vec::new());
    if code != 0 {
        errors.push(format!("in-process reference sweep exited {code}"));
    }
    for (k, r) in reps.iter().chain(&traced).enumerate() {
        if r.code != 0 || r.stdout != reference || r.digests.len() != APPS.len() * 2 {
            failed += 1;
            errors.push(format!(
                "repetition {k}: exit {}, stdout {} the in-process sweep",
                r.code,
                if r.stdout == reference {
                    "matches"
                } else {
                    "differs from"
                }
            ));
        }
    }

    let makespans: Vec<f64> = reps.iter().map(|r| r.makespan_s).collect();
    let events: u64 = reps.iter().map(|r| r.events).sum();
    let setups: Vec<f64> = reps.iter().chain(&traced).map(|r| r.setup_s).collect();
    let mut e2e = Values::new();
    e2e.insert("op_ms.p50", median(&makespans) * 1e3);
    e2e.insert(
        "events_per_s",
        events as f64 / makespans.iter().sum::<f64>(),
    );
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss);
    let detail = vec![
        format!(
            "repetitions: {} timed, {} traced; 6 jobs each",
            reps.len(),
            traced.len()
        ),
        format!(
            "makespan_ms: p50 {:.3}, min {:.3}, max {:.3}; in-process --jobs 2: {:.3}",
            median(&makespans) * 1e3,
            makespans.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            makespans.iter().copied().fold(0.0, f64::max) * 1e3,
            ref_wall.as_secs_f64() * 1e3
        ),
    ];

    let layers = if spans.enabled() {
        let mut v = Values::new();
        v.insert("jobq.queued_ms_p50", median(&jobq[0]));
        v.insert("jobq.attempt_ms_p50", median(&jobq[1]));
        v.insert("jobq.collect_lag_ms_p50", median(&jobq[2]));
        let all = reps.iter().chain(&traced);
        v.insert(
            "jobq.lease_expiries",
            all.clone().map(|r| r.lease_expiries).sum(),
        );
        v.insert("jobq.heartbeats_lost", all.map(|r| r.heartbeats_lost).sum());
        v.insert(
            "jobq.overhead_frac",
            1.0 - ref_wall.as_secs_f64() / median(&makespans),
        );
        let traced_p50 = median(&traced.iter().map(|r| r.makespan_s).collect::<Vec<_>>());
        v.insert("trace.overhead_frac", traced_p50 / median(&makespans) - 1.0);

        // Each job's child, spawned exactly as the worker spawns it,
        // against the same simulation in-process (`sweep` orders each
        // app's baseline job before its fbarre job).
        let cells = layers::in_process(&APPS, opts.seed, spans, &mut v).unwrap_or_else(|e| {
            failed += 1;
            errors.push(e);
            Vec::new()
        });
        let want = reps.first().map(|r| r.digests.clone()).unwrap_or_default();
        let (mut child_ms, mut sim_ms) = (Vec::new(), Vec::new());
        for (k, app) in APPS.iter().flat_map(|&a| [a, a]).enumerate() {
            let mode = ["baseline", "fbarre"][k % 2];
            let Some((_, local)) = cells.iter().find(|(c, _)| c.app == app && c.mode == mode)
            else {
                continue;
            };
            let args = sweep_args(opts.seed, &["--job-index".into(), k.to_string()]);
            let (code, out, took) =
                spans.span("cli", &format!("job child {app}/{mode}"), 0, 0, |_| {
                    procs::run_to_end(&bin, &args, &opts.work, &log)
                })?;
            child_ms.push(took.as_secs_f64() * 1e3);
            sim_ms.push((local.build_s + local.run_s) * 1e3);
            let child = barre_system::metrics_from_json(out.trim()).map(|m| metrics_digest(&m));
            if code != 0
                || child.as_ref().ok() != Some(&local.digest)
                || want.get(k) != Some(&local.digest)
            {
                failed += 1;
                errors.push(format!(
                    "{app}/{mode}: child, in-process and dispatched digests disagree"
                ));
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        v.insert("cli.run_child_ms", mean(&child_ms));
        v.insert("system.simulate_ms", mean(&sim_ms));
        v.insert("serve.spawn_overhead_ms", mean(&child_ms) - mean(&sim_ms));
        layers::absent(&mut v, &[layers::POOL, layers::SERVE]);
        Some(v)
    } else {
        None
    };
    Ok(Outcome {
        attempted: (reps.len() + traced.len()) as u64,
        failed,
        errors,
        e2e,
        layers,
        detail,
    })
}
