//! `barre trace` and `barre report` — record one traced run and
//! summarize trace (or journal) files.
//!
//! `trace` runs a single app with the lifecycle tracer attached and
//! writes either a Chrome-trace/Perfetto JSON document (default) or the
//! compact JSONL stream (when `--out` ends in `.jsonl`). `report` reads
//! either export back — or a sweep journal — and prints per-stage
//! p50/p95/p99 latency tables plus the top-N slowest journeys. All
//! parsing goes through `barre_system::Json`, whose exact-text number
//! handling keeps round-trips lossless.
//!
//! `report --fleet <dirs…>` stitches the per-process
//! `fleet-<role>-<pid>.trace.jsonl` files a `BARRE_FLEET_TRACE`d sweep
//! leaves behind into one Perfetto timeline: events are joined by
//! correlation id (falling back to job fingerprint), and each job's
//! queued → leased → attempt phases become spans on its own track.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use barre_system::{JournalEvent, Json, Run};
use barre_trace::export::{chrome_trace, jsonl, TraceMeta};
use barre_trace::json::json_escape;
use barre_trace::{LatencyHistogram, Stage, TraceOptions};

/// Journeys shown by default in the slowest-journeys table.
pub const DEFAULT_TOP: usize = 10;

/// Simulates `run` traced and writes the export to `out`. Returns the
/// process exit code.
pub fn run_trace(run: &Run, out: &Path, opts: &TraceOptions) -> i32 {
    let (m, rec) = match run.build().and_then(|machine| machine.run_traced(opts)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let meta = TraceMeta {
        app: run.apps(),
        mode: run.cfg.mode.label(),
        seed: run.seed,
        window: opts.window as u64,
    };
    let doc = if out.extension().is_some_and(|e| e == "jsonl") {
        jsonl(&rec, &meta)
    } else {
        chrome_trace(&rec, &meta)
    };
    if let Err(e) = std::fs::write(out, &doc) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return 1;
    }
    println!(
        "traced {}/{} seed={}: {} cycles, {} span(s) recorded ({} dropped, {} filtered), {} sample(s)",
        meta.app,
        meta.mode,
        run.seed,
        m.total_cycles,
        rec.ring().recorded(),
        rec.ring().dropped(),
        rec.filtered(),
        rec.samples().len()
    );
    let stage_hists: Vec<(String, LatencyHistogram)> = Stage::ALL
        .iter()
        .map(|s| (s.name().to_string(), rec.stage_histogram(*s).clone()))
        .collect();
    print!("{}", render_stage_table(&stage_hists));
    println!("trace written to {}", out.display());
    0
}

/// Summarizes a trace export or a sweep journal. Returns the process
/// exit code.
pub fn run_report(input: &Path, top: usize) -> i32 {
    let doc = match std::fs::read_to_string(input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", input.display());
            return 1;
        }
    };
    let parsed = if doc.trim_start().starts_with("{\"traceEvents\"") {
        parse_chrome_trace(&doc)
    } else if doc
        .lines()
        .next()
        .is_some_and(|l| l.contains("\"t\":\"meta\""))
    {
        parse_trace_jsonl(&doc)
    } else {
        return report_journal(input, &doc);
    };
    match parsed {
        Ok(t) => {
            print!("{}", render_trace_report(&t, top));
            0
        }
        Err(e) => {
            eprintln!("error: {}: {e}", input.display());
            1
        }
    }
}

/// A trace export read back for reporting.
struct TraceDoc {
    header: String,
    stage_hists: Vec<(String, LatencyHistogram)>,
    /// `(id, chiplet, start, duration)` of every retained whole-journey
    /// (`cu-issue`) span.
    journeys: Vec<(u64, u64, u64, u64)>,
    samples: usize,
    /// `(spills, rebins, growths, buckets)` from the last sample, when
    /// the trace carries event-queue counters (schema >= this version).
    queue: Option<(u64, u64, u64, u64)>,
}

fn queue_of_sample(v: &Json) -> Option<(u64, u64, u64, u64)> {
    let n = |k: &str| v.get(k).and_then(Json::as_u64);
    Some((
        n("queue_spills")?,
        n("queue_rebins")?,
        n("queue_growths")?,
        n("queue_buckets")?,
    ))
}

fn hist_from_value(v: &Json) -> Result<LatencyHistogram, String> {
    let pairs = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram missing buckets")?
        .iter()
        .map(|p| {
            let a = p.as_arr().ok_or("bucket pair not an array")?;
            let i = a.first().and_then(Json::as_u64).ok_or("bad bucket index")?;
            let c = a.get(1).and_then(Json::as_u64).ok_or("bad bucket count")?;
            Ok((i as usize, c))
        })
        .collect::<Result<Vec<(usize, u64)>, String>>()?;
    let sum = v
        .get("sum")
        .and_then(Json::as_u128)
        .ok_or("histogram missing sum")?;
    let min = v
        .get("min")
        .and_then(Json::as_u64)
        .ok_or("histogram missing min")?;
    let max = v
        .get("max")
        .and_then(Json::as_u64)
        .ok_or("histogram missing max")?;
    Ok(LatencyHistogram::from_parts(&pairs, sum, min, max))
}

fn header_of(v: &Json) -> String {
    let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    format!(
        "app={} mode={} seed={} window={} spans: {} recorded, {} dropped, {} filtered",
        s("app"),
        s("mode"),
        n("seed"),
        n("window"),
        n("spans_recorded"),
        n("spans_dropped"),
        n("spans_filtered"),
    )
}

fn parse_chrome_trace(doc: &str) -> Result<TraceDoc, String> {
    let v = Json::parse(doc)?;
    let barre = v
        .get("barre")
        .ok_or("no barre section (not a barre trace?)")?;
    let mut stage_hists = Vec::with_capacity(Stage::COUNT);
    for (name, hv) in barre
        .get("stage_histograms")
        .and_then(Json::as_obj)
        .ok_or("no stage_histograms")?
    {
        stage_hists.push((name.clone(), hist_from_value(hv)?));
    }
    let mut journeys = Vec::new();
    for ev in v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents")?
    {
        if ev.get("name").and_then(Json::as_str) == Some(Stage::CuIssue.name()) {
            let g = |k: &str| ev.get(k).and_then(Json::as_u64).ok_or("bad traceEvent");
            journeys.push((g("tid")?, g("pid")?, g("ts")?, g("dur")?));
        }
    }
    let sample_arr = barre.get("samples").and_then(Json::as_arr);
    let samples = sample_arr.map_or(0, <[Json]>::len);
    let queue = sample_arr
        .and_then(<[Json]>::last)
        .and_then(queue_of_sample);
    Ok(TraceDoc {
        header: header_of(barre),
        stage_hists,
        journeys,
        samples,
        queue,
    })
}

fn parse_trace_jsonl(doc: &str) -> Result<TraceDoc, String> {
    let mut header = String::new();
    let mut stage_hists = Vec::new();
    let mut journeys = Vec::new();
    let mut samples = 0usize;
    let mut queue = None;
    for (lineno, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        match v.get("t").and_then(Json::as_str) {
            Some("meta") => header = header_of(&v),
            Some("hist") => {
                if v.get("scope").and_then(Json::as_str) == Some("stage") {
                    let name = v
                        .get("stage")
                        .and_then(Json::as_str)
                        .ok_or("hist line missing stage")?;
                    let h = hist_from_value(v.get("hist").ok_or("hist line missing hist")?)?;
                    stage_hists.push((name.to_string(), h));
                }
            }
            Some("sample") => {
                samples += 1;
                if let Some(s) = v.get("sample") {
                    queue = queue_of_sample(s).or(queue);
                }
            }
            Some("span") => {
                if v.get("stage").and_then(Json::as_str) == Some(Stage::CuIssue.name()) {
                    let g = |k: &str| v.get(k).and_then(Json::as_u64).ok_or("bad span line");
                    let (start, end) = (g("start")?, g("end")?);
                    journeys.push((g("id")?, g("chiplet")?, start, end.saturating_sub(start)));
                }
            }
            _ => return Err(format!("line {}: unknown record", lineno + 1)),
        }
    }
    Ok(TraceDoc {
        header,
        stage_hists,
        journeys,
        samples,
        queue,
    })
}

fn render_stage_table(stage_hists: &[(String, LatencyHistogram)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "stage", "count", "p50", "p95", "p99", "mean", "max"
    );
    for (name, h) in stage_hists {
        if h.count() == 0 {
            let _ = writeln!(
                s,
                "{name:<10} {:>10} {:>9} {:>9} {:>9} {:>11} {:>9}",
                0, "-", "-", "-", "-", "-"
            );
            continue;
        }
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>9} {:>9} {:>9} {:>11.1} {:>9}",
            name,
            h.count(),
            h.p50(),
            h.p95(),
            h.p99(),
            h.mean(),
            h.max()
        );
    }
    s
}

fn render_trace_report(t: &TraceDoc, top: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{}; {} sample(s)", t.header, t.samples);
    if let Some((spills, rebins, growths, buckets)) = t.queue {
        let _ = writeln!(
            s,
            "event queue: {spills} spill(s), {rebins} rebin(s), {growths} wheel growth(s), \
             {buckets} bucket(s)"
        );
    }
    s.push_str(&render_stage_table(&t.stage_hists));
    let mut slowest = t.journeys.clone();
    // Duration-descending; break ties deterministically on (start, id).
    slowest.sort_by_key(|&(id, _, start, dur)| (std::cmp::Reverse(dur), start, id));
    slowest.truncate(top);
    if !slowest.is_empty() {
        let _ = writeln!(
            s,
            "top {} slowest journeys (cu-issue spans):",
            slowest.len()
        );
        let _ = writeln!(
            s,
            "  {:>20} {:>8} {:>12} {:>10}",
            "id", "chiplet", "start", "cycles"
        );
        for (id, chiplet, start, dur) in slowest {
            let _ = writeln!(s, "  {id:>20} {chiplet:>8} {start:>12} {dur:>10}");
        }
    }
    s
}

/// `barre report` on a sweep journal: one line per completed job whose
/// digests verify (the last such record per fingerprint). The
/// percentile tables need a trace export; journals carry aggregate
/// metrics only.
fn report_journal(input: &Path, _doc: &str) -> i32 {
    let path = barre_system::journal_file_of(input);
    let records = match barre_system::read_journal(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot read journal {}: {e}", path.display());
            return 1;
        }
    };
    let (done, _) = barre_system::verified_done_index(&records);
    println!(
        "journal {}: {} record(s), {} job(s) done",
        path.display(),
        records.len(),
        done.len()
    );
    println!(
        "{:<24} {:>12} {:>10} {:>12} {:>12} {:>18} {:>18}",
        "job", "cycles", "ATS", "lat mean", "lat max", "digest", "hist"
    );
    for rec in done.values() {
        if let JournalEvent::Done {
            metrics,
            digest,
            hist_digest,
            ..
        } = &rec.event
        {
            let lat = &metrics.ats_latency;
            let mean = if lat.count() == 0 {
                0.0
            } else {
                lat.sum() as f64 / lat.count() as f64
            };
            let hist = hist_digest.as_deref().unwrap_or("-");
            println!(
                "{:<24} {:>12} {:>10} {:>12.1} {:>12} {:>18} {:>18}",
                rec.label,
                metrics.total_cycles,
                metrics.ats_requests,
                mean,
                lat.max(),
                digest,
                hist
            );
        }
    }
    0
}

// ---------------------------------------------------------------------
// `barre report --fleet`: cross-process trace stitching.

/// One parsed fleet-trace point event (a line of some process's
/// `fleet-<role>-<pid>.trace.jsonl`).
#[derive(Debug, Clone)]
struct FleetEvent {
    ts_ms: u64,
    role: String,
    event: String,
    corr: String,
    fp: String,
    label: String,
    worker: String,
    exit: String,
}

/// One derived phase span on a job's stitched timeline.
#[derive(Debug)]
struct FleetSpan {
    name: &'static str,
    start_ms: u64,
    end_ms: u64,
    /// What closed the span: a verdict, an exit class, or a worker.
    detail: String,
}

/// One job's stitched view across every fleet process that touched it.
#[derive(Debug)]
struct FleetJob {
    /// Correlation id, or `fp:<fingerprint>` when none was ever minted.
    key: String,
    label: String,
    fp: String,
    /// `done`, `failed`, `quarantined`, or `pending`.
    verdict: String,
    spans: Vec<FleetSpan>,
    events: Vec<FleetEvent>,
}

fn parse_fleet_line(line: &str) -> Result<FleetEvent, String> {
    let v = Json::parse(line)?;
    let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    Ok(FleetEvent {
        ts_ms: v
            .get("ts_ms")
            .and_then(Json::as_u64)
            .ok_or("missing ts_ms")?,
        role: v
            .get("role")
            .and_then(Json::as_str)
            .ok_or("missing role")?
            .to_string(),
        event: v
            .get("event")
            .and_then(Json::as_str)
            .ok_or("missing event")?
            .to_string(),
        corr: s("corr"),
        fp: s("fp"),
        label: s("label"),
        worker: s("worker"),
        exit: s("exit"),
    })
}

/// Groups events into jobs (by correlation id, falling back to
/// fingerprint) and derives each job's phase spans. Jobs come back
/// sorted by (label, fingerprint, key) for stable output.
fn stitch_fleet(mut events: Vec<FleetEvent>) -> Vec<FleetJob> {
    // Learn fp → corr from events carrying both, so corr-less records
    // (a lease for a job submitted without an id) still join the job.
    let mut corr_of_fp: BTreeMap<String, String> = BTreeMap::new();
    for e in &events {
        if !e.corr.is_empty() && !e.fp.is_empty() {
            corr_of_fp
                .entry(e.fp.clone())
                .or_insert_with(|| e.corr.clone());
        }
    }
    events.sort_by_key(|e| e.ts_ms);
    let mut jobs: BTreeMap<String, FleetJob> = BTreeMap::new();
    for e in events {
        let key = if !e.corr.is_empty() {
            e.corr.clone()
        } else if let Some(c) = corr_of_fp.get(&e.fp) {
            c.clone()
        } else if !e.fp.is_empty() {
            format!("fp:{}", e.fp)
        } else {
            // Process-level noise with nothing to join on.
            continue;
        };
        let job = jobs.entry(key.clone()).or_insert_with(|| FleetJob {
            key,
            label: String::new(),
            fp: String::new(),
            verdict: "pending".to_string(),
            spans: Vec::new(),
            events: Vec::new(),
        });
        if job.label.is_empty() && !e.label.is_empty() {
            job.label = e.label.clone();
        }
        if job.fp.is_empty() && !e.fp.is_empty() {
            job.fp = e.fp.clone();
        }
        job.events.push(e);
    }
    let mut out: Vec<FleetJob> = jobs.into_values().collect();
    for job in &mut out {
        derive_spans(job);
    }
    out.sort_by(|a, b| (&a.label, &a.fp, &a.key).cmp(&(&b.label, &b.fp, &b.key)));
    out
}

/// Walks one job's time-ordered events and derives its phase spans:
/// `queued` (enqueue → lease), `leased` (lease → verdict), `attempt`
/// (child spawn → exit). A requeue or lease expiry reopens the queued
/// phase; phases still open at the last event are closed there as
/// `unfinished` so interrupted sweeps render too.
fn derive_spans(job: &mut FleetJob) {
    let last_ts = job.events.last().map_or(0, |e| e.ts_ms);
    let mut queued: Option<u64> = None;
    let mut leased: Option<(u64, String)> = None;
    let mut attempt: Option<u64> = None;
    let mut spans = Vec::new();
    for e in &job.events {
        match e.event.as_str() {
            "submitted" | "queued" if queued.is_none() && leased.is_none() => {
                queued = Some(e.ts_ms);
            }
            "submitted" | "queued" => {}
            "leased" => {
                if let Some(start) = queued.take() {
                    spans.push(FleetSpan {
                        name: "queued",
                        start_ms: start,
                        end_ms: e.ts_ms,
                        detail: e.worker.clone(),
                    });
                }
                leased = Some((e.ts_ms, e.worker.clone()));
            }
            "attempt_start" => attempt = Some(e.ts_ms),
            "attempt_end" => {
                if let Some(start) = attempt.take() {
                    spans.push(FleetSpan {
                        name: "attempt",
                        start_ms: start,
                        end_ms: e.ts_ms,
                        detail: e.exit.clone(),
                    });
                }
            }
            "done" | "failed" | "quarantined" | "requeued" | "lease_expired" => {
                if let Some((start, worker)) = leased.take() {
                    let detail = if worker.is_empty() {
                        e.event.clone()
                    } else {
                        format!("{} ({worker})", e.event)
                    };
                    spans.push(FleetSpan {
                        name: "leased",
                        start_ms: start,
                        end_ms: e.ts_ms,
                        detail,
                    });
                }
                match e.event.as_str() {
                    "done" | "failed" | "quarantined" => job.verdict = e.event.clone(),
                    // Back in the queue: a fresh queued phase opens here.
                    _ => queued = Some(e.ts_ms),
                }
            }
            // heartbeat_lost, reported, collected: instants only.
            _ => {}
        }
    }
    if let Some(start) = attempt {
        spans.push(FleetSpan {
            name: "attempt",
            start_ms: start,
            end_ms: last_ts,
            detail: "unfinished".to_string(),
        });
    }
    if let Some((start, _)) = leased {
        spans.push(FleetSpan {
            name: "leased",
            start_ms: start,
            end_ms: last_ts,
            detail: "unfinished".to_string(),
        });
    }
    if let Some(start) = queued {
        spans.push(FleetSpan {
            name: "queued",
            start_ms: start,
            end_ms: last_ts,
            detail: "unfinished".to_string(),
        });
    }
    spans.sort_by_key(|s| s.start_ms);
    job.spans = spans;
}

/// Renders the stitched jobs as one Chrome-trace/Perfetto document:
/// a single `barre fleet` process with one thread (track) per job,
/// phase spans as `X` events and the raw point events as instants.
/// Timestamps are microseconds relative to `t0` (the fleet's first
/// event) so the timeline starts at zero.
fn render_fleet_chrome(jobs: &[FleetJob], t0: u64) -> String {
    let us = |ms: u64| ms.saturating_sub(t0) * 1000;
    let mut s = String::from("{\"traceEvents\":[\n");
    s.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"barre fleet\"}}");
    for (i, job) in jobs.iter().enumerate() {
        let tid = i + 1;
        let track = if job.label.is_empty() {
            &job.key
        } else {
            &job.label
        };
        let _ = write!(
            s,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            json_escape(track)
        );
        for span in &job.spans {
            let dur = us(span.end_ms).saturating_sub(us(span.start_ms)).max(1);
            let _ = write!(
                s,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":1,\"tid\":{tid},\"args\":{{\"corr\":{},\"fp\":{},\"detail\":{}}}}}",
                span.name,
                us(span.start_ms),
                json_escape(&job.key),
                json_escape(&job.fp),
                json_escape(&span.detail),
            );
        }
        for e in &job.events {
            let _ = write!(
                s,
                ",\n{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"role\":{}",
                json_escape(&e.event),
                us(e.ts_ms),
                json_escape(&e.role),
            );
            if !e.worker.is_empty() {
                let _ = write!(s, ",\"worker\":{}", json_escape(&e.worker));
            }
            if !e.exit.is_empty() {
                let _ = write!(s, ",\"exit\":{}", json_escape(&e.exit));
            }
            s.push_str("}}");
        }
    }
    s.push_str("\n]}\n");
    s
}

/// `barre report --fleet <dirs…>`: reads every `fleet-*.trace.jsonl`
/// under the given directories, stitches the events into per-job
/// timelines, prints a per-job summary, and writes one Perfetto
/// document (default `fleet-trace.json`). Returns the process exit
/// code.
pub fn run_fleet_report(dirs: &[std::path::PathBuf], out: Option<&Path>) -> i32 {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for dir in dirs {
        let rd = match std::fs::read_dir(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", dir.display());
                return 1;
            }
        };
        for entry in rd.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("fleet-") && name.ends_with(".trace.jsonl") {
                files.push(entry.path());
            }
        }
    }
    files.sort();
    if files.is_empty() {
        eprintln!(
            "error: no fleet-*.trace.jsonl files found; run the fleet with \
             BARRE_FLEET_TRACE=<dir> set"
        );
        return 1;
    }
    let mut events = Vec::new();
    for f in &files {
        let body = match std::fs::read_to_string(f) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", f.display());
                return 1;
            }
        };
        for (lineno, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_fleet_line(line) {
                Ok(e) => events.push(e),
                Err(e) => {
                    eprintln!("error: {}:{}: {e}", f.display(), lineno + 1);
                    return 1;
                }
            }
        }
    }
    let n_events = events.len();
    let roles: BTreeSet<String> = events.iter().map(|e| e.role.clone()).collect();
    let roles: Vec<String> = roles.into_iter().collect();
    let t0 = events.iter().map(|e| e.ts_ms).min().unwrap_or(0);
    let jobs = stitch_fleet(events);
    println!(
        "fleet: {n_events} event(s) in {} file(s); {} job(s); roles: {}",
        files.len(),
        jobs.len(),
        roles.join(",")
    );
    println!(
        "{:<24} {:<19} {:<12} {:>6} {:>10}",
        "job", "corr", "verdict", "spans", "wall ms"
    );
    for job in &jobs {
        let name = if job.label.is_empty() {
            job.fp.as_str()
        } else {
            job.label.as_str()
        };
        let first = job.events.first().map_or(0, |e| e.ts_ms);
        let last = job.events.last().map_or(0, |e| e.ts_ms);
        println!(
            "{:<24} {:<19} {:<12} {:>6} {:>10}",
            name,
            job.key,
            job.verdict,
            job.spans.len(),
            last.saturating_sub(first)
        );
    }
    let doc = render_fleet_chrome(&jobs, t0);
    let out = out.unwrap_or_else(|| Path::new("fleet-trace.json"));
    if let Err(e) = std::fs::write(out, &doc) {
        eprintln!("error: cannot write {}: {e}", out.display());
        return 1;
    }
    println!("fleet timeline written to {}", out.display());
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_trace::{Sample, StageMask, Tracer};

    fn recorder() -> Box<barre_trace::TraceRecorder> {
        let mut t = Tracer::recording(&TraceOptions {
            window: 64,
            filter: StageMask::all(),
        });
        t.span(Stage::CuIssue, 1, 0, 0, 100);
        t.span(Stage::CuIssue, 2, 1, 10, 400);
        t.span(Stage::TlbL1, 1, 0, 0, 4);
        t.span(Stage::Ptw, 1 << 62, 0, 20, 320);
        t.sample(Sample::default());
        t.take_recorder().expect("recording")
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            app: "gups".into(),
            mode: "fbarre".into(),
            seed: 9,
            window: 64,
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_report_parser() {
        let rec = recorder();
        let doc = chrome_trace(&rec, &meta());
        let t = parse_chrome_trace(&doc).expect("parse");
        assert_eq!(t.journeys.len(), 2);
        assert_eq!(t.samples, 1);
        let (name, h) = t
            .stage_hists
            .iter()
            .find(|(n, _)| n == "ptw")
            .expect("ptw hist");
        assert_eq!(name, "ptw");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 300);
        assert_eq!(h.max(), rec.stage_histogram(Stage::Ptw).max());
        assert_eq!(h.p99(), rec.stage_histogram(Stage::Ptw).p99());
        assert!(t.header.contains("app=gups"));
    }

    #[test]
    fn jsonl_round_trips_through_report_parser() {
        let rec = recorder();
        let doc = jsonl(&rec, &meta());
        let t = parse_trace_jsonl(&doc).expect("parse");
        assert_eq!(t.journeys.len(), 2);
        assert_eq!(t.samples, 1);
        assert_eq!(t.stage_hists.len(), Stage::COUNT);
        let cu = &t
            .stage_hists
            .iter()
            .find(|(n, _)| n == "cu-issue")
            .expect("cu-issue hist")
            .1;
        assert_eq!(cu.count(), 2);
        assert_eq!(cu.min(), 100);
    }

    #[test]
    fn report_renders_percentiles_and_slowest_journeys() {
        let doc = chrome_trace(&recorder(), &meta());
        let t = parse_chrome_trace(&doc).expect("parse");
        let out = render_trace_report(&t, 1);
        assert!(out.contains("tlb-l1"));
        assert!(out.contains("p99"));
        assert!(out.contains("top 1 slowest journeys"));
        // Journey 2 (390 cycles) beats journey 1 (100 cycles).
        let tail = out.lines().last().expect("rows");
        assert!(tail.trim_start().starts_with('2'), "{tail}");
    }

    fn fe(ts_ms: u64, role: &str, event: &str, corr: &str, fp: &str) -> FleetEvent {
        FleetEvent {
            ts_ms,
            role: role.to_string(),
            event: event.to_string(),
            corr: corr.to_string(),
            fp: fp.to_string(),
            label: String::new(),
            worker: String::new(),
            exit: String::new(),
        }
    }

    #[test]
    fn fleet_stitch_derives_queued_leased_attempt_spans() {
        let mut ev = vec![
            fe(100, "client", "submitted", "cA", "f1"),
            fe(101, "queue", "queued", "cA", "f1"),
            fe(150, "queue", "leased", "cA", "f1"),
            fe(160, "worker", "attempt_start", "cA", "f1"),
            fe(400, "worker", "attempt_end", "cA", "f1"),
            fe(410, "queue", "done", "cA", "f1"),
            fe(420, "client", "collected", "cA", "f1"),
        ];
        ev[1].label = "gups/barre".to_string();
        ev[2].worker = "w1".to_string();
        ev[4].exit = "ok".to_string();
        let jobs = stitch_fleet(ev);
        assert_eq!(jobs.len(), 1);
        let job = &jobs[0];
        assert_eq!(job.label, "gups/barre");
        assert_eq!(job.verdict, "done");
        let names: Vec<&str> = job.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["queued", "leased", "attempt"]);
        assert_eq!(job.spans[0].start_ms, 100);
        assert_eq!(job.spans[0].end_ms, 150);
        assert_eq!(job.spans[1].end_ms, 410);
        assert!(job.spans[1].detail.contains("done"), "{:?}", job.spans[1]);
        assert_eq!(job.spans[2].detail, "ok");
    }

    #[test]
    fn fleet_stitch_requeue_reopens_queued_and_fp_fallback_joins() {
        // Lease expiry puts the job back in the queue; a corr-less
        // event joins via the fp → corr mapping learned elsewhere.
        let ev = vec![
            fe(10, "queue", "queued", "cB", "f2"),
            fe(20, "queue", "leased", "cB", "f2"),
            fe(90, "queue", "lease_expired", "", "f2"),
            fe(120, "queue", "leased", "cB", "f2"),
            fe(200, "queue", "done", "cB", "f2"),
        ];
        let jobs = stitch_fleet(ev);
        assert_eq!(jobs.len(), 1, "{jobs:?}");
        let job = &jobs[0];
        assert_eq!(job.verdict, "done");
        let names: Vec<&str> = job.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["queued", "leased", "queued", "leased"]);
        // The reopened queued phase runs expiry → second lease.
        assert_eq!(job.spans[2].start_ms, 90);
        assert_eq!(job.spans[2].end_ms, 120);
    }

    #[test]
    fn fleet_chrome_doc_escapes_hostile_labels() {
        let label = "say \"hi\" \\ then\nnewline";
        let mut ev = vec![
            fe(1000, "queue", "queued", "cD", "f4"),
            fe(1200, "worker", "odd \"event\"", "cD", "f4"),
        ];
        ev[0].label = label.to_string();
        ev[1].exit = "exit\\\"1\"".to_string();
        let doc = render_fleet_chrome(&stitch_fleet(ev), 1000);
        let v = Json::parse(&doc).expect("valid chrome trace json");
        let evs = v.get("traceEvents").and_then(Json::as_arr).expect("events");
        let track = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .expect("thread_name meta");
        assert_eq!(
            track
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some(label)
        );
        let odd = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("odd \"event\""))
            .expect("instant event");
        assert_eq!(
            odd.get("args")
                .and_then(|a| a.get("exit"))
                .and_then(Json::as_str),
            Some("exit\\\"1\"")
        );
    }

    #[test]
    fn fleet_chrome_doc_parses_and_carries_job_tracks() {
        let mut ev = vec![
            fe(1000, "queue", "queued", "cC", "f3"),
            fe(1500, "queue", "leased", "cC", "f3"),
            fe(2000, "queue", "done", "cC", "f3"),
        ];
        ev[0].label = "radix/chord".to_string();
        let jobs = stitch_fleet(ev);
        let doc = render_fleet_chrome(&jobs, 1000);
        let v = Json::parse(&doc).expect("valid chrome trace json");
        let evs = v.get("traceEvents").and_then(Json::as_arr).expect("events");
        let track = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .expect("thread_name meta");
        assert_eq!(
            track
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("radix/chord")
        );
        let queued = evs
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("queued")
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .expect("queued span");
        assert_eq!(queued.get("ts").and_then(Json::as_u64), Some(0));
        assert_eq!(queued.get("dur").and_then(Json::as_u64), Some(500_000));
    }
}
