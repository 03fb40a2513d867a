//! `barre worker`: pulls jobs from a queue coordinator under
//! time-bounded leases and executes them in crash-isolated children.
//!
//! Each slot thread loops lease → execute → report. While a child runs,
//! a heartbeat thread extends the lease; a `lost` heartbeat reply means
//! the coordinator already re-dispatched the job (the lease expired
//! behind a partition), so the child is killed and the attempt abandoned
//! — finishing it could only produce a duplicate. Result delivery
//! retries with the supervisor's capped backoff, so a coordinator crash
//! between completion and acknowledgement loses nothing: the worker
//! keeps re-offering the result and the restarted coordinator's dedup
//! absorbs it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use barre_obs::log as olog;
use barre_obs::{Field, FleetTracer, CORR_ENV};
use barre_system::{metrics_digest, metrics_hist_digest, JournalEvent, JournalRecord};

use super::wire::{answered_early, exchange, exchange_until, Reply, Request, LONG_POLL_MS};
use crate::attempt::{backoff_delay, parse_child_metrics, run_attempt_cancellable_env};
use crate::daemon;
use crate::signal::{drain_exit_code, shutting_down, sleep_interruptible};

/// How a worker runs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Worker identity; defaults to `worker-<pid>`.
    pub name: Option<String>,
    /// Concurrent leases (slot threads).
    pub slots: usize,
    /// Per-attempt wall-clock budget; `None` = unlimited. A hanging
    /// child is killed at this deadline and reported as a transient
    /// failure, which burns one of the job's leases.
    pub timeout: Option<Duration>,
    /// Redirect structured logs to this file instead of stderr.
    pub log_file: Option<PathBuf>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            connect: "127.0.0.1:7342".to_string(),
            name: None,
            slots: 1,
            timeout: None,
            log_file: None,
        }
    }
}

/// Sends `req` until the coordinator acknowledges it, with capped
/// backoff — riding out coordinator restarts. Gives up only after
/// `tries` consecutive failures.
fn exchange_with_retry(addr: &str, req: &Request, tries: u32) -> Result<Reply, String> {
    let mut last = String::new();
    for attempt in 1..=tries.max(1) {
        match exchange(addr, req) {
            Ok(reply) => return Ok(reply),
            Err(why) => last = why,
        }
        if attempt < tries {
            sleep_interruptible(backoff_delay(attempt));
        }
    }
    Err(last)
}

/// Runs one leased job to a report (or a deliberate abandonment).
#[allow(clippy::too_many_arguments)]
fn run_leased_job(
    program: &Path,
    opts: &WorkerOptions,
    name: &str,
    fingerprint: &str,
    label: &str,
    args: &[String],
    lease_ms: u64,
    corr: &str,
    tracer: Option<&FleetTracer>,
) {
    let trace = |event: &str, extra: &[(&str, Field<'_>)]| {
        if let Some(t) = tracer {
            let mut fields: Vec<(&str, Field<'_>)> =
                vec![("fp", Field::S(fingerprint)), ("label", Field::S(label))];
            fields.extend_from_slice(extra);
            t.event(event, corr, &fields);
        }
    };
    let cancel = Arc::new(AtomicBool::new(false));
    // Dropping `finished` ends the heartbeat thread at once.
    let (finished, beat) = mpsc::channel::<()>();
    let hb = {
        let cancel = Arc::clone(&cancel);
        let addr = opts.connect.clone();
        let (name, fp) = (name.to_string(), fingerprint.to_string());
        let interval = Duration::from_millis((lease_ms / 3).max(100));
        std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = beat.recv_timeout(interval) {
                let req = Request::Heartbeat {
                    worker: name.clone(),
                    fingerprint: fp.clone(),
                };
                // Any other reply — or a dropped/partitioned heartbeat —
                // means "keep going"; the next beat retries.
                if let Ok(Reply::HeartbeatLost) = exchange(&addr, &req) {
                    // The coordinator re-dispatched this job; kill
                    // the child rather than produce a duplicate.
                    cancel.store(true, Ordering::SeqCst);
                    return;
                }
            }
        })
    };
    trace("attempt_start", &[]);
    // The correlation id rides into the simulating child via the
    // environment — argv feeds the job fingerprint and must not change.
    let envs: Vec<(String, String)> = if corr.is_empty() {
        Vec::new()
    } else {
        vec![(CORR_ENV.to_string(), corr.to_string())]
    };
    let a = run_attempt_cancellable_env(program, args, &envs, opts.timeout, &cancel);
    drop(finished);
    let _ = hb.join();
    trace("attempt_end", &[("exit", Field::S(&a.exit))]);
    if a.exit == "cancelled" {
        olog::warn(
            "worker",
            "lease_lost",
            &[("fp", Field::S(fingerprint)), ("label", Field::S(label))],
            &format!("worker {name}: abandoned {label} (lease lost)"),
        );
        return;
    }
    let report = if a.exit == "ok" {
        match parse_child_metrics(&a.stdout) {
            Ok(metrics) => {
                let metrics = Box::new(metrics);
                Request::Complete {
                    worker: name.to_string(),
                    record: Box::new(JournalRecord {
                        fingerprint: fingerprint.to_string(),
                        label: label.to_string(),
                        event: JournalEvent::Done {
                            attempts: 1,
                            exit: a.exit,
                            digest: metrics_digest(&metrics),
                            hist_digest: Some(metrics_hist_digest(&metrics)),
                            worker: None,
                            metrics,
                        },
                    }),
                }
            }
            Err(why) => Request::Fail {
                worker: name.to_string(),
                fingerprint: fingerprint.to_string(),
                attempts: 1,
                exit: format!("badoutput:{why}"),
                permanent: false,
            },
        }
    } else {
        Request::Fail {
            worker: name.to_string(),
            fingerprint: fingerprint.to_string(),
            attempts: 1,
            exit: a.exit.clone(),
            permanent: !a.transient,
        }
    };
    // Deliver the verdict, riding out coordinator restarts; dedup on the
    // other side makes redelivery safe.
    let fields = [("fp", Field::S(fingerprint)), ("label", Field::S(label))];
    match exchange_with_retry(&opts.connect, &report, 8) {
        Ok(Reply::Completed { verdict }) => {
            trace("reported", &[("verdict", Field::S(&verdict))]);
            olog::info(
                "worker",
                "job_done",
                &fields,
                &format!("worker {name}: {label} done ({verdict})"),
            );
        }
        Ok(Reply::Failed { quarantined, .. }) => {
            trace(
                "reported",
                &[(
                    "verdict",
                    Field::S(if quarantined {
                        "quarantined"
                    } else {
                        "requeued"
                    }),
                )],
            );
            if quarantined {
                olog::warn(
                    "worker",
                    "job_quarantined",
                    &fields,
                    &format!("worker {name}: {label} failed; coordinator quarantined it"),
                );
            } else {
                olog::warn(
                    "worker",
                    "job_requeued",
                    &fields,
                    &format!("worker {name}: {label} failed; re-queued"),
                );
            }
        }
        Ok(_) => olog::warn(
            "worker",
            "report_unexpected_reply",
            &fields,
            &format!("worker {name}: unexpected reply reporting {label}"),
        ),
        Err(why) => olog::error(
            "worker",
            "report_failed",
            &fields,
            &format!("worker {name}: could not report {label}: {why}"),
        ),
    }
}

/// One slot: lease → execute → report, until a drain signal. An idle
/// slot's lease is a long-poll: the coordinator holds it until a job is
/// leasable, so a submit reaches an idle worker without a poll period.
fn slot_loop(program: &Path, opts: &WorkerOptions, name: &str, tracer: Option<&FleetTracer>) {
    let req = Request::Lease {
        worker: name.to_string(),
        wait_ms: Some(LONG_POLL_MS),
    };
    while !shutting_down() {
        let sent = Instant::now();
        match exchange_until(&opts.connect, &req, shutting_down) {
            Ok(Reply::Job {
                fingerprint,
                label,
                args,
                lease_ms,
                corr,
            }) => run_leased_job(
                program,
                opts,
                name,
                &fingerprint,
                &label,
                &args,
                lease_ms,
                corr.as_deref().unwrap_or(""),
                tracer,
            ),
            // A coordinator that predates long-polls answers at once.
            Ok(Reply::Empty { retry_after_ms, .. }) if answered_early(sent) => {
                sleep_interruptible(Duration::from_millis(retry_after_ms.clamp(50, 2_000)));
            }
            Ok(Reply::Empty { .. }) => {}
            Ok(Reply::Draining) | Ok(_) => sleep_interruptible(Duration::from_millis(500)),
            Err(_) => sleep_interruptible(Duration::from_millis(500)),
        }
    }
}

/// Runs the worker until a drain signal. Returns the process exit code
/// (128 + signal after a drain, matching the supervisor's convention).
pub fn run_worker(opts: &WorkerOptions) -> i32 {
    if !daemon::init("worker", opts.log_file.as_deref()) {
        return 1;
    }
    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            olog::error(
                "worker",
                "startup_failed",
                &[],
                &format!("error: cannot resolve own binary: {e}"),
            );
            return 1;
        }
    };
    let name = opts
        .name
        .clone()
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    olog::info(
        "worker",
        "start",
        &[
            ("connect", Field::S(&opts.connect)),
            ("slots", Field::U(opts.slots.max(1) as u64)),
        ],
        &format!(
            "worker {name}: polling {} with {} slot(s)",
            opts.connect,
            opts.slots.max(1)
        ),
    );
    let tracer = Arc::new(FleetTracer::from_env("worker"));
    let mut handles = Vec::with_capacity(opts.slots.max(1));
    for _ in 0..opts.slots.max(1) {
        let program = program.clone();
        let opts = opts.clone();
        let name = name.clone();
        let tracer = Arc::clone(&tracer);
        handles.push(std::thread::spawn(move || {
            slot_loop(&program, &opts, &name, tracer.as_ref().as_ref())
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    olog::info(
        "worker",
        "drained",
        &[("connect", Field::S(&opts.connect))],
        &format!(
            "worker {name}: drained; in-flight leases will expire and re-dispatch \
             (resume with `barre worker --connect {}`)",
            opts.connect
        ),
    );
    drain_exit_code()
}
