//! The dispatch side of `barre sweep --dispatch`: enqueue the sweep's
//! jobs on a queue coordinator, stream completion, and come home with
//! results in job order plus a client-side journal of the terminal
//! records.
//!
//! Submission is idempotent (the coordinator dedups by fingerprint), so
//! the client resubmits freely: on startup, after its own restart, and
//! whenever a collect reply reports unknown fingerprints (a coordinator
//! that restarted without its journal). Polling survives coordinator
//! crashes — connection errors just mean "try again with backoff".

use std::path::Path;
use std::time::Duration;

use barre_obs::log as olog;
use barre_obs::{Field, FleetTracer};
use barre_system::{JournalEvent, JournalRecord, JournalWriter, RunMetrics};

use super::state::JobSpec;
use super::wire::{exchange, Reply, Request};
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
    let collect = Request::Collect {
        fingerprints: fps.clone(),
    };
    let mut last_done = usize::MAX;
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
        match exchange(addr, &collect) {
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
                if records.len() != last_done {
                    olog::info(
                        "dispatch",
                        "progress",
                        &[
                            ("done", Field::U(records.len() as u64)),
                            ("total", Field::U(jobs.len() as u64)),
                        ],
                        &format!("dispatch: {}/{} done", records.len(), jobs.len()),
                    );
                    last_done = records.len();
                }
                if pending == 0 {
                    break records;
                }
            }
            Ok(Reply::Error { error }) => return Err(format!("collect rejected: {error}")),
            Ok(_) => {}
            // Coordinator down or restarting: keep polling.
            Err(_) => {}
        }
        sleep_interruptible(Duration::from_millis(300));
    };
    if let Some(t) = &tracer {
        for (job, rec) in jobs.iter().zip(terminal.iter()) {
            let verdict = match &rec.event {
                JournalEvent::Done { .. } => "done",
                JournalEvent::Quarantined { .. } => "quarantined",
                _ => "failed",
            };
            t.event(
                "collected",
                job.corr.as_deref().unwrap_or(""),
                &[
                    ("fp", Field::S(&rec.fingerprint)),
                    ("verdict", Field::S(verdict)),
                ],
            );
        }
    }

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
