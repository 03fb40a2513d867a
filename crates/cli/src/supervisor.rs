//! The crash-isolated sweep supervisor behind `barre sweep --supervise`.
//!
//! Each sweep job runs in a child process — a self-exec of the `barre`
//! binary with the original command line plus `--job-index <i>` — so a
//! panicking, hanging, or killed configuration takes down only its own
//! attempt, never the campaign. The supervisor enforces a per-job
//! wall-clock timeout, retries transient failures (timeout, nonzero
//! exit, signal, watchdog fire) with capped exponential backoff, drains
//! in-flight children on SIGINT *or* SIGTERM, and records every
//! transition in the append-only write-ahead journal
//! (`sweep.journal.jsonl`) so `--resume` skips finished configs and
//! reproduces the uninterrupted output byte for byte. Permanent
//! failures (invalid configuration, deterministic translation faults —
//! child exit `EXIT_PERMANENT`) are reported immediately without
//! burning retries.
//!
//! The attempt machinery (child spawn/kill/classify, deterministic
//! backoff) and the drain-signal handler are shared with the `barre
//! serve` daemon and live in [`barre_serve::attempt`] and
//! [`barre_serve::signal`]; this module re-exports them under their
//! historical names.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use barre_serve::attempt::{parse_child_metrics, run_attempt, Attempt};
use barre_serve::signal::sleep_interruptible;
use barre_system::journal::{
    completed_index, fingerprint, metrics_digest, metrics_hist_digest, read_journal, JournalError,
    JournalEvent, JournalRecord, JournalWriter, JOURNAL_FILE,
};
use barre_system::{LabeledJob, RunMetrics};

/// Set once a drain signal (SIGINT or SIGTERM) lands; checked between
/// job dispatches and during backoff sleeps. Once set, no new children
/// are spawned — in-flight jobs finish and their results are journaled
/// before the supervisor exits with [`interrupt_exit_code`].
pub use barre_serve::signal::SHUTDOWN as INTERRUPTED;

/// Installs the SIGINT/SIGTERM drain handlers (the first signal drains;
/// the default disposition is not restored, so the journal always stays
/// consistent).
pub use barre_serve::signal::install_drain_handlers;

/// The supervisor's retry backoff and child usage exit code, shared with
/// the daemon.
pub use barre_serve::attempt::{backoff_delay, EXIT_USAGE};

/// Process exit code after a graceful SIGINT drain (128 + SIGINT). Kept
/// for callers that pinned the historical constant; prefer
/// [`interrupt_exit_code`], which reports 143 after a SIGTERM drain.
pub const EXIT_INTERRUPTED: i32 = 130;

/// Exit code for the drain that just happened: 128 + the signal number
/// (130 for SIGINT, 143 for SIGTERM), following shell convention so
/// callers can tell which signal ended the campaign.
pub fn interrupt_exit_code() -> i32 {
    barre_serve::signal::drain_exit_code()
}

/// Raises SIGKILL on the current process — the crash hook the
/// kill-and-resume integration test uses to simulate a hard child death.
#[cfg(unix)]
pub fn kill_self() -> ! {
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    // SAFETY: raise(SIGKILL) terminates this process; nothing after it
    // executes.
    unsafe {
        let _ = raise(SIGKILL);
    }
    std::process::exit(137)
}

/// Off unix, approximate a SIGKILL death with the conventional code.
#[cfg(not(unix))]
pub fn kill_self() -> ! {
    std::process::exit(137)
}

/// How a supervised sweep runs: journal location, resume mode, per-job
/// timeout, retry budget, and the argument list children are re-executed
/// with (the original command line minus supervisor-only flags).
#[derive(Debug, Clone)]
pub struct SuperviseOpts {
    /// Journal directory or `.jsonl` file path (see [`journal_file_of`]).
    pub journal: PathBuf,
    /// Whether to skip jobs already recorded as done in the journal.
    pub resume: bool,
    /// Per-job wall-clock budget; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Transient-failure retries per job (attempts = retries + 1).
    pub retries: u32,
    /// Base argument list for children; `--job-index <i>` is appended.
    pub child_args: Vec<String>,
}

/// One job's labeled failure, reported after the rest of the sweep has
/// still run to completion.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Index into the sweep's job list.
    pub index: usize,
    /// Human label (`"gups/fbarre"`).
    pub label: String,
    /// Last attempt's exit status (`"exit:65"`, `"signal:9"`, `"timeout"`).
    pub exit: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Per-job state-dump file under the journal directory, when written.
    pub dump: Option<PathBuf>,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FAILED {} after {} attempt(s): {}",
            self.label, self.attempts, self.exit
        )?;
        if let Some(d) = &self.dump {
            write!(f, " (state dump: {})", d.display())?;
        }
        Ok(())
    }
}

/// The supervisor's verdict on a whole sweep.
#[derive(Debug)]
pub struct SupervisedRun {
    /// Per-job metrics, input order. `None` for failed or skipped jobs.
    pub results: Vec<Option<RunMetrics>>,
    /// Jobs that exhausted their retries (or failed permanently).
    pub failures: Vec<JobFailure>,
    /// Jobs taken from the journal rather than re-run.
    pub resumed: usize,
    /// Whether a SIGINT drain cut the campaign short.
    pub interrupted: bool,
}

/// Resolves a `--journal`/`--resume` path to the journal file: a path
/// ending in `.jsonl` is used as-is, anything else is treated as the
/// journal directory and gets [`JOURNAL_FILE`] appended.
pub fn journal_file_of(path: &Path) -> PathBuf {
    if path.extension().is_some_and(|e| e == "jsonl") {
        path.to_path_buf()
    } else {
        path.join(JOURNAL_FILE)
    }
}

/// The fingerprint identifying job `index` of a sweep launched with
/// `child_args`: stable across supervisor and resume invocations, and
/// across shards launched with the same command line.
pub fn job_fingerprint(child_args: &[String], index: usize, label: &str) -> String {
    let joined = child_args.join("\u{1f}");
    let idx = index.to_string();
    fingerprint(&[&joined, &idx, label])
}

/// The worker identity stamped onto supervised `done` journal records:
/// `$BARRE_WORKER_ID` when set and non-empty (e.g. one value per host in
/// a hand-sharded campaign), otherwise `None` — so merged multi-host
/// journals are attributable without perturbing single-host output.
pub fn worker_identity() -> Option<String> {
    std::env::var("BARRE_WORKER_ID")
        .ok()
        .filter(|s| !s.is_empty())
}

enum JobOutcome {
    Done(Box<RunMetrics>),
    Failed(JobFailure),
    /// A drain signal arrived before the job reached a terminal state;
    /// the journal holds no terminal record, so `--resume` reruns it.
    Skipped,
}

/// Writes the per-job state dump (captured child output) under the
/// journal directory, returning its path. Called on terminal failures —
/// watchdog fires and timeouts land here with the machine-state summary
/// the child printed to stderr.
fn write_dump(
    dir: &Path,
    index: usize,
    fp: &str,
    label: &str,
    exit: &str,
    attempts: u32,
    a: &Attempt,
) -> Option<PathBuf> {
    let path = dir.join(format!("job-{index:03}-{fp}.dump.txt"));
    let body = format!(
        "job: {label}\nfingerprint: {fp}\nexit: {exit}\nattempts: {attempts}\n\
         --- stdout ---\n{}\n--- stderr ---\n{}\n",
        a.stdout, a.stderr
    );
    std::fs::write(&path, body).ok().map(|()| path)
}

/// Runs one job to a terminal state: attempt, classify, retry transient
/// failures with backoff, journal every transition.
fn supervise_job(
    program: &Path,
    opts: &SuperviseOpts,
    writer: &JournalWriter,
    dump_dir: &Path,
    index: usize,
    label: &str,
    fp: &str,
) -> Result<JobOutcome, JournalError> {
    let mut args = opts.child_args.clone();
    args.push("--job-index".to_string());
    args.push(index.to_string());
    let max_attempts = opts.retries.saturating_add(1);
    let mut attempt = 1u32;
    loop {
        if INTERRUPTED.load(Ordering::SeqCst) {
            return Ok(JobOutcome::Skipped);
        }
        // Write-ahead: the attempt is journaled before it runs.
        writer.append(&JournalRecord {
            fingerprint: fp.to_string(),
            label: label.to_string(),
            event: JournalEvent::Start { attempt },
        })?;
        let a = run_attempt(program, &args, opts.timeout);
        if a.exit == "ok" {
            match parse_child_metrics(&a.stdout) {
                Ok(metrics) => {
                    let metrics = Box::new(metrics);
                    writer.append(&JournalRecord {
                        fingerprint: fp.to_string(),
                        label: label.to_string(),
                        event: JournalEvent::Done {
                            attempts: attempt,
                            exit: a.exit,
                            digest: metrics_digest(&metrics),
                            hist_digest: Some(metrics_hist_digest(&metrics)),
                            worker: worker_identity(),
                            metrics: metrics.clone(),
                        },
                    })?;
                    return Ok(JobOutcome::Done(metrics));
                }
                Err(why) => {
                    // A zero exit with unreadable metrics is a protocol
                    // failure; retry it like any other transient fault.
                    let exit = format!("badoutput:{why}");
                    if attempt < max_attempts && !INTERRUPTED.load(Ordering::SeqCst) {
                        sleep_interruptible(backoff_delay(attempt));
                        attempt += 1;
                        continue;
                    }
                    let dump = write_dump(dump_dir, index, fp, label, &exit, attempt, &a);
                    writer.append(&JournalRecord {
                        fingerprint: fp.to_string(),
                        label: label.to_string(),
                        event: JournalEvent::Failed {
                            attempts: attempt,
                            exit: exit.clone(),
                            dump: dump.as_ref().map(|p| p.display().to_string()),
                        },
                    })?;
                    return Ok(JobOutcome::Failed(JobFailure {
                        index,
                        label: label.to_string(),
                        exit,
                        attempts: attempt,
                        dump,
                    }));
                }
            }
        }
        if a.transient && attempt < max_attempts && !INTERRUPTED.load(Ordering::SeqCst) {
            sleep_interruptible(backoff_delay(attempt));
            attempt += 1;
            continue;
        }
        let dump = write_dump(dump_dir, index, fp, label, &a.exit, attempt, &a);
        writer.append(&JournalRecord {
            fingerprint: fp.to_string(),
            label: label.to_string(),
            event: JournalEvent::Failed {
                attempts: attempt,
                exit: a.exit.clone(),
                dump: dump.as_ref().map(|p| p.display().to_string()),
            },
        })?;
        return Ok(JobOutcome::Failed(JobFailure {
            index,
            label: label.to_string(),
            exit: a.exit,
            attempts: attempt,
            dump,
        }));
    }
}

/// Runs the sweep's jobs under supervision, fanning children across
/// `threads` pool workers. Jobs already `done` in the journal (when
/// `opts.resume`) are replayed from their recorded metrics without
/// spawning anything.
///
/// # Errors
///
/// [`JournalError`] when the journal cannot be read or written (a
/// per-job failure is NOT an error — it comes back in
/// [`SupervisedRun::failures`] while the other jobs keep running).
pub fn run_supervised(
    jobs: &[LabeledJob],
    threads: usize,
    opts: &SuperviseOpts,
) -> Result<SupervisedRun, JournalError> {
    install_drain_handlers();
    let journal_path = journal_file_of(&opts.journal);
    let dump_dir = journal_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    std::fs::create_dir_all(&dump_dir)?;
    let prior = if opts.resume {
        completed_index(&read_journal(&journal_path)?)
    } else {
        Default::default()
    };
    let writer = JournalWriter::open(&journal_path)?;
    let program = std::env::current_exe()?;

    let fps: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| job_fingerprint(&opts.child_args, i, &j.label))
        .collect();

    let mut results: Vec<Option<RunMetrics>> = vec![None; jobs.len()];
    let mut failures = Vec::new();
    let mut resumed = 0usize;
    let mut pending: Vec<usize> = Vec::new();
    for (i, fp) in fps.iter().enumerate() {
        match prior.get(fp) {
            Some(JournalRecord {
                event: JournalEvent::Done { metrics, .. },
                ..
            }) => {
                results[i] = Some(metrics.as_ref().clone());
                resumed += 1;
            }
            _ => pending.push(i),
        }
    }

    let closures: Vec<_> = pending
        .iter()
        .map(|&i| {
            let (program, opts, writer, dump_dir) = (&program, opts, &writer, &dump_dir);
            let (label, fp) = (&jobs[i].label, &fps[i]);
            move || supervise_job(program, opts, writer, dump_dir, i, label, fp)
        })
        .collect();
    let outcomes = barre_sim::pool::run_cancellable(closures, threads, &INTERRUPTED)
        .map_err(|e| JournalError::Io(e.to_string()))?;
    for (&i, outcome) in pending.iter().zip(outcomes) {
        match outcome {
            Some(Ok(JobOutcome::Done(metrics))) => results[i] = Some(*metrics),
            Some(Ok(JobOutcome::Failed(f))) => failures.push(f),
            Some(Ok(JobOutcome::Skipped)) | None => {}
            Some(Err(e)) => return Err(e),
        }
    }
    Ok(SupervisedRun {
        results,
        failures,
        resumed,
        interrupted: INTERRUPTED.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_path_resolution() {
        assert_eq!(
            journal_file_of(Path::new("shards/a")),
            PathBuf::from("shards/a").join(JOURNAL_FILE)
        );
        assert_eq!(
            journal_file_of(Path::new("shards/a/custom.jsonl")),
            PathBuf::from("shards/a/custom.jsonl")
        );
    }

    #[test]
    fn fingerprints_distinguish_jobs_and_command_lines() {
        let args_a = vec![
            "sweep".to_string(),
            "--apps".to_string(),
            "gemv".to_string(),
        ];
        let args_b = vec![
            "sweep".to_string(),
            "--apps".to_string(),
            "gups".to_string(),
        ];
        assert_ne!(
            job_fingerprint(&args_a, 0, "gemv/baseline"),
            job_fingerprint(&args_a, 1, "gemv/barre")
        );
        assert_ne!(
            job_fingerprint(&args_a, 0, "gemv/baseline"),
            job_fingerprint(&args_b, 0, "gemv/baseline")
        );
        assert_eq!(
            job_fingerprint(&args_a, 0, "gemv/baseline"),
            job_fingerprint(&args_a, 0, "gemv/baseline")
        );
    }
}
