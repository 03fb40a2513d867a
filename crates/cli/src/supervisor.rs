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
//! The attempt machinery (child spawn/kill, the attempt's verdict,
//! deterministic backoff) and the drain-signal handler are shared with
//! `barre worker` and the `barre serve` daemon; they live in
//! [`barre_serve::attempt`] and [`barre_serve::signal`].

use std::path::{Path, PathBuf};
use std::time::Duration;

use barre_obs::log as olog;
use barre_obs::Field;
use barre_serve::attempt::{backoff_delay, run_attempt, Attempt};
use barre_serve::signal::{install_drain_handlers, shutting_down, sleep_interruptible, SHUTDOWN};
use barre_system::journal::{
    fingerprint, journal_file_of, read_journal, verified_done_index, JournalError, JournalEvent,
    JournalRecord, JournalWriter,
};
use barre_system::LabeledJob;

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

/// The fingerprint identifying `job`, job `index` of a sweep launched
/// with `child_args`: stable across supervisor and resume invocations,
/// and across shards launched with the same command line. A job whose
/// mode has a [`model_revision`](barre_system::TranslationMode::model_revision)
/// hashes it too, so a journal of the older model is not replayed.
pub fn job_fingerprint(child_args: &[String], index: usize, job: &LabeledJob) -> String {
    let joined = child_args.join("\u{1f}");
    let idx = index.to_string();
    let revision = job.run.cfg.mode.model_revision();
    let parts: Vec<&str> = [joined.as_str(), &idx, &job.label]
        .into_iter()
        .chain(revision)
        .collect();
    fingerprint(&parts)
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

/// Writes the per-job state dump (captured child output) under the
/// journal directory, returning its path for the `failed` record. Called
/// on terminal failures — watchdog fires and timeouts land here with the
/// machine-state summary the child printed to stderr.
fn write_dump(
    dir: &Path,
    index: usize,
    fp: &str,
    label: &str,
    exit: &str,
    attempts: u32,
    a: &Attempt,
) -> Option<String> {
    let path = dir.join(format!("job-{index:03}-{fp}.dump.txt"));
    let body = format!(
        "job: {label}\nfingerprint: {fp}\nexit: {exit}\nattempts: {attempts}\n\
         --- stdout ---\n{}\n--- stderr ---\n{}\n",
        a.stdout, a.stderr
    );
    std::fs::write(&path, body)
        .ok()
        .map(|()| path.display().to_string())
}

/// Runs one job to a terminal state: attempt, judge, retry transient
/// failures with backoff, journal every transition. Returns the terminal
/// record it journaled, or `None` when a drain signal arrived first (the
/// journal then holds no terminal record, so `--resume` reruns the job).
fn supervise_job(
    program: &Path,
    opts: &SuperviseOpts,
    writer: &JournalWriter,
    dump_dir: &Path,
    index: usize,
    label: &str,
    fp: &str,
) -> Result<Option<JournalRecord>, JournalError> {
    let mut args = opts.child_args.clone();
    args.push("--job-index".to_string());
    args.push(index.to_string());
    let max_attempts = opts.retries.saturating_add(1);
    let mut attempt = 1u32;
    loop {
        if shutting_down() {
            return Ok(None);
        }
        // Write-ahead: the attempt is journaled before it runs.
        writer.append(&JournalRecord {
            fingerprint: fp.to_string(),
            label: label.to_string(),
            event: JournalEvent::Start { attempt },
        })?;
        let a = run_attempt(program, &args, opts.timeout);
        let rec = match a.verdict() {
            Ok(metrics) => {
                JournalRecord::done(fp, label, attempt, worker_identity(), Box::new(metrics))
            }
            Err(f) if f.transient && attempt < max_attempts && !shutting_down() => {
                sleep_interruptible(backoff_delay(attempt));
                attempt += 1;
                continue;
            }
            Err(f) => {
                let dump = write_dump(dump_dir, index, fp, label, &f.exit, attempt, &a);
                JournalRecord {
                    fingerprint: fp.to_string(),
                    label: label.to_string(),
                    event: JournalEvent::Failed {
                        attempts: attempt,
                        exit: f.exit,
                        dump,
                    },
                }
            }
        };
        writer.append(&rec)?;
        return Ok(Some(rec));
    }
}

/// Runs the sweep's jobs under supervision, fanning children across
/// `threads` pool workers, and returns each job's terminal record in job
/// order (`None` for a job a drain signal skipped). Under `opts.resume`
/// a job with a verified `done` record in the journal is replayed from
/// it without spawning anything; a `done` record that fails its digest
/// check is rerun.
///
/// # Errors
///
/// [`JournalError`] when the journal cannot be read or written (a
/// per-job failure is NOT an error — it comes back as its `failed`
/// record while the other jobs keep running).
pub fn run_supervised(
    jobs: &[LabeledJob],
    threads: usize,
    opts: &SuperviseOpts,
) -> Result<Vec<Option<JournalRecord>>, JournalError> {
    install_drain_handlers();
    let journal_path = journal_file_of(&opts.journal);
    let dump_dir = journal_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    std::fs::create_dir_all(&dump_dir)?;
    let mut prior = if opts.resume {
        verified_done_index(&read_journal(&journal_path)?).0
    } else {
        Default::default()
    };
    let writer = JournalWriter::open(&journal_path)?;
    let program = std::env::current_exe()?;

    let fps: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| job_fingerprint(&opts.child_args, i, j))
        .collect();
    let mut records: Vec<Option<JournalRecord>> = fps.iter().map(|fp| prior.remove(fp)).collect();
    let resumed = records.iter().flatten().count();
    if resumed > 0 {
        olog::info(
            "supervisor",
            "resumed",
            &[("jobs", Field::U(resumed as u64))],
            &format!(
                "resumed {resumed} finished job(s) from {}",
                journal_path.display()
            ),
        );
    }

    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| records[i].is_none()).collect();
    let closures: Vec<_> = pending
        .iter()
        .map(|&i| {
            let (program, opts, writer, dump_dir) = (&program, opts, &writer, &dump_dir);
            let (label, fp) = (&jobs[i].label, &fps[i]);
            move || supervise_job(program, opts, writer, dump_dir, i, label, fp)
        })
        .collect();
    let outcomes = barre_sim::pool::run_cancellable(closures, threads, &SHUTDOWN)
        .map_err(|e| JournalError::Io(e.to_string()))?;
    for (&i, outcome) in pending.iter().zip(outcomes) {
        records[i] = outcome.transpose()?.flatten();
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_system::{TranslationMode, JOURNAL_FILE};

    /// Supervises one `/bin/sh -c <script>` job; returns its terminal
    /// record and the journal text.
    #[cfg(unix)]
    fn supervise_sh(tag: &str, script: &str, retries: u32) -> (Option<JournalRecord>, String) {
        let dir = std::env::temp_dir().join(format!("barre-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        let opts = SuperviseOpts {
            journal: path.clone(),
            resume: false,
            timeout: Some(Duration::from_secs(10)),
            retries,
            child_args: vec!["-c".to_string(), script.to_string()],
        };
        let writer = JournalWriter::open(&path).expect("journal");
        let rec = supervise_job(Path::new("/bin/sh"), &opts, &writer, &dir, 0, "sh", "f0")
            .expect("supervise");
        let journal = std::fs::read_to_string(&path).expect("read journal");
        let _ = std::fs::remove_dir_all(&dir);
        (rec, journal)
    }

    #[cfg(unix)]
    #[test]
    fn a_permanent_exit_is_not_retried() {
        let code = barre_system::error::EXIT_PERMANENT;
        let (rec, journal) = supervise_sh("permanent", &format!("exit {code}"), 3);
        assert_eq!(journal.matches("\"event\":\"start\"").count(), 1);
        match rec.map(|r| r.event) {
            Some(JournalEvent::Failed { attempts, exit, .. }) => {
                assert_eq!((attempts, exit), (1, format!("exit:{code}")));
            }
            other => panic!("expected a failed record, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn unreadable_output_is_retried_then_failed_as_badoutput() {
        let (rec, journal) = supervise_sh("badoutput", "echo garbage", 1);
        assert_eq!(journal.matches("\"event\":\"start\"").count(), 2);
        match rec.map(|r| r.event) {
            Some(JournalEvent::Failed {
                attempts,
                exit,
                dump,
            }) => {
                assert_eq!(attempts, 2);
                assert!(exit.starts_with("badoutput:"), "{exit}");
                assert!(dump.is_some(), "no state dump");
            }
            other => panic!("expected a failed record, got {other:?}"),
        }
    }

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
        let job = |label: &str, mode| LabeledJob {
            label: label.to_string(),
            run: barre_system::Run::app(
                barre_workloads::AppId::Gemv,
                barre_system::smoke_config().with_mode(mode),
                1,
            ),
        };
        let base = job("gemv/baseline", TranslationMode::Baseline);
        let barre = job("gemv/barre", TranslationMode::Barre);
        assert_ne!(
            job_fingerprint(&args_a, 0, &base),
            job_fingerprint(&args_a, 1, &barre)
        );
        assert_ne!(
            job_fingerprint(&args_a, 0, &base),
            job_fingerprint(&args_b, 0, &base)
        );
        assert_eq!(
            job_fingerprint(&args_a, 0, &base),
            job_fingerprint(&args_a, 0, &base)
        );
        // Only a mode with a model revision moves its jobs' addresses.
        let joined = args_a.join("\u{1f}");
        assert_eq!(
            job_fingerprint(&args_a, 1, &barre),
            fingerprint(&[&joined, "1", "gemv/barre"])
        );
        let fbarre = job(
            "gemv/fbarre",
            TranslationMode::FBarre(barre_system::FBarreConfig::default()),
        );
        assert_ne!(
            job_fingerprint(&args_a, 1, &fbarre),
            fingerprint(&[&joined, "1", "gemv/fbarre"])
        );
    }
}
