//! The dispatch side of `barre sweep --dispatch`: enqueue the sweep's
//! jobs on a queue coordinator, stream completion, and come home with
//! results in job order plus a client-side journal of the terminal
//! records.
//!
//! Submission is idempotent (the coordinator dedups by fingerprint), so
//! the client resubmits freely: on startup, after its own restart, and
//! whenever a collect reply reports unknown fingerprints (a coordinator
//! that restarted without its journal). Collect is a long-poll: the
//! coordinator holds it until a job reaches a terminal state, so a
//! finished sweep comes home as soon as its last record exists. Polling
//! survives coordinator crashes — connection errors just mean "try
//! again after a pause".

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use barre_obs::log as olog;
use barre_obs::{Field, FleetTracer};
use barre_system::{JournalEvent, JournalRecord, JournalWriter, RunMetrics};

use super::state::JobSpec;
use super::wire::{answered_early, exchange, exchange_until, Reply, Request, LONG_POLL_MS};
use crate::signal::{shutting_down, sleep_interruptible};

/// One dispatched job's terminal failure, mirroring the supervisor's
/// `JobFailure` so the CLI reports both paths identically.
#[derive(Debug, Clone)]
pub struct DispatchFailure {
    /// Index into the sweep's job list.
    pub index: usize,
    /// Human label.
    pub label: String,
    /// Last exit classification.
    pub exit: String,
    /// Attempts (leases, for quarantined jobs) consumed.
    pub attempts: u32,
    /// Whether the coordinator quarantined the job as poison.
    pub quarantined: bool,
}

/// Outcome of a dispatched sweep.
#[derive(Debug)]
pub struct DispatchOutcome {
    /// Per-job metrics, input order. `None` for failed/quarantined jobs.
    pub results: Vec<Option<RunMetrics>>,
    /// Jobs that ended failed or quarantined, input order.
    pub failures: Vec<DispatchFailure>,
    /// Whether a drain signal cut the wait short (resubmit to resume).
    pub interrupted: bool,
}

/// Pause before the next collect when the coordinator answered without
/// holding the request: it is down, draining, or predates long-polls.
const COLLECT_PAUSE: Duration = Duration::from_millis(300);

/// Submits `jobs`, retrying until the coordinator acknowledges. Returns
/// false when interrupted first.
fn submit_all(addr: &str, jobs: &[JobSpec]) -> Result<bool, String> {
    let req = Request::Submit {
        jobs: jobs.to_vec(),
    };
    let mut reported = false;
    loop {
        if shutting_down() {
            return Ok(false);
        }
        match exchange(addr, &req) {
            Ok(Reply::Submitted {
                accepted, known, ..
            }) => {
                olog::info(
                    "dispatch",
                    "submitted",
                    &[
                        ("jobs", Field::U(jobs.len() as u64)),
                        ("accepted", Field::U(accepted)),
                        ("known", Field::U(known)),
                    ],
                    &format!(
                        "dispatch: submitted {} job(s) to {addr} ({accepted} new, {known} already known)",
                        jobs.len()
                    ),
                );
                return Ok(true);
            }
            Ok(Reply::Draining) => {
                if !reported {
                    olog::warn(
                        "dispatch",
                        "coordinator_draining",
                        &[],
                        "dispatch: coordinator draining; waiting for it to come back",
                    );
                    reported = true;
                }
                sleep_interruptible(Duration::from_millis(500));
            }
            Ok(Reply::Error { error }) => return Err(format!("submit rejected: {error}")),
            Ok(_) => return Err("unexpected reply to submit".to_string()),
            Err(why) => {
                if !reported {
                    olog::warn(
                        "dispatch",
                        "coordinator_unreachable",
                        &[],
                        &format!("dispatch: cannot reach {addr} yet ({why}); retrying"),
                    );
                    reported = true;
                }
                sleep_interruptible(Duration::from_millis(500));
            }
        }
    }
}

/// The `verdict` field of a `collected` trace event.
fn verdict_of(rec: &JournalRecord) -> &'static str {
    match &rec.event {
        JournalEvent::Done { .. } => "done",
        JournalEvent::Quarantined { .. } => "quarantined",
        _ => "failed",
    }
}

/// Enqueues the sweep on the coordinator at `addr`, polls to completion
/// (streaming progress to stderr), writes the terminal records to
/// `journal` in job order, and returns results aligned with `jobs`.
///
/// # Errors
///
/// Unrecoverable protocol or journal-write failures only; job failures
/// come back in [`DispatchOutcome::failures`] and coordinator outages
/// are ridden out with retries.
pub fn dispatch_sweep(
    addr: &str,
    jobs: &[JobSpec],
    journal: &Path,
) -> Result<DispatchOutcome, String> {
    let tracer = FleetTracer::from_env("client");
    if !submit_all(addr, jobs)? {
        return Ok(DispatchOutcome {
            results: vec![None; jobs.len()],
            failures: Vec::new(),
            interrupted: true,
        });
    }
    if let Some(t) = &tracer {
        for j in jobs {
            t.event(
                "submitted",
                j.corr.as_deref().unwrap_or(""),
                &[
                    ("fp", Field::S(&j.fingerprint)),
                    ("label", Field::S(&j.label)),
                ],
            );
        }
    }
    let fps: Vec<String> = jobs.iter().map(|j| j.fingerprint.clone()).collect();
    // Jobs whose terminal record has not arrived yet, for the per-job
    // `collected` trace events.
    let mut uncollected: BTreeMap<&str, &JobSpec> =
        jobs.iter().map(|j| (j.fingerprint.as_str(), j)).collect();
    // Terminal records held; `None` until the first answer, which is
    // asked for unheld so progress starts at once.
    let mut seen: Option<usize> = None;
    let terminal: Vec<JournalRecord> = loop {
        if shutting_down() {
            olog::warn(
                "dispatch",
                "interrupted",
                &[],
                &format!(
                    "dispatch: interrupted; jobs stay queued — rerun with --dispatch {addr} to resume"
                ),
            );
            return Ok(DispatchOutcome {
                results: vec![None; jobs.len()],
                failures: Vec::new(),
                interrupted: true,
            });
        }
        let collect = Request::Collect {
            fingerprints: fps.clone(),
            seen: seen.map(|n| n as u64),
            wait_ms: Some(LONG_POLL_MS),
        };
        let sent = Instant::now();
        match exchange_until(addr, &collect, shutting_down) {
            Ok(Reply::Collected {
                pending,
                unknown,
                records,
            }) => {
                if unknown > 0 {
                    // The coordinator lost its journal; re-seed it.
                    olog::warn(
                        "dispatch",
                        "resubmitting",
                        &[("unknown", Field::U(unknown))],
                        &format!("dispatch: coordinator is missing {unknown} job(s); resubmitting"),
                    );
                    if !submit_all(addr, jobs)? {
                        return Ok(DispatchOutcome {
                            results: vec![None; jobs.len()],
                            failures: Vec::new(),
                            interrupted: true,
                        });
                    }
                    continue;
                }
                if let Some(t) = &tracer {
                    for rec in &records {
                        if let Some(job) = uncollected.remove(rec.fingerprint.as_str()) {
                            t.event(
                                "collected",
                                job.corr.as_deref().unwrap_or(""),
                                &[
                                    ("fp", Field::S(&rec.fingerprint)),
                                    ("verdict", Field::S(verdict_of(rec))),
                                ],
                            );
                        }
                    }
                }
                if seen != Some(records.len()) {
                    olog::info(
                        "dispatch",
                        "progress",
                        &[
                            ("done", Field::U(records.len() as u64)),
                            ("total", Field::U(jobs.len() as u64)),
                        ],
                        &format!("dispatch: {}/{} done", records.len(), jobs.len()),
                    );
                } else if answered_early(sent) {
                    sleep_interruptible(COLLECT_PAUSE);
                }
                if pending == 0 {
                    break records;
                }
                seen = Some(records.len());
            }
            Ok(Reply::Error { error }) => return Err(format!("collect rejected: {error}")),
            // Draining, or down and restarting: keep polling.
            Ok(_) | Err(_) => sleep_interruptible(COLLECT_PAUSE),
        }
    };

    // Client-side journal: the terminal records, in job order — the
    // distributed twin of the supervisor's journal, built for
    // `barre merge` against other shards or the serial run.
    if let Some(dir) = journal.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("journal dir: {e}"))?;
        }
    }
    // Fresh file: this journal is a rendering of the coordinator's
    // authoritative state, not an append-only log of our own.
    std::fs::write(journal, b"").map_err(|e| format!("journal truncate: {e}"))?;
    let writer = JournalWriter::open(journal).map_err(|e| format!("journal open: {e}"))?;
    for rec in &terminal {
        writer
            .append(rec)
            .map_err(|e| format!("journal append: {e}"))?;
    }

    let mut results: Vec<Option<RunMetrics>> = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (index, (job, rec)) in jobs.iter().zip(terminal.iter()).enumerate() {
        if rec.fingerprint != job.fingerprint {
            return Err(format!(
                "coordinator returned records out of order (job {index}: expected {}, got {})",
                job.fingerprint, rec.fingerprint
            ));
        }
        match &rec.event {
            JournalEvent::Done { metrics, .. } => results.push(Some(metrics.as_ref().clone())),
            JournalEvent::Failed { attempts, exit, .. } => {
                results.push(None);
                failures.push(DispatchFailure {
                    index,
                    label: job.label.clone(),
                    exit: exit.clone(),
                    attempts: *attempts,
                    quarantined: false,
                });
            }
            JournalEvent::Quarantined { leases, exit } => {
                results.push(None);
                failures.push(DispatchFailure {
                    index,
                    label: job.label.clone(),
                    exit: exit.clone(),
                    attempts: *leases,
                    quarantined: true,
                });
            }
            other => {
                return Err(format!(
                    "coordinator returned a non-terminal record for {}: {other:?}",
                    job.label
                ))
            }
        }
    }
    Ok(DispatchOutcome {
        results,
        failures,
        interrupted: false,
    })
}
