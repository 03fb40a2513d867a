//! One crash-isolated child attempt: spawn, drain pipes, wait with a
//! wall-clock deadline, classify the outcome as transient or permanent.
//!
//! Extracted from the sweep supervisor so the daemon's per-request
//! deadline path and `barre sweep --supervise` share one classification
//! and one deterministic backoff schedule.

use std::io::Read;
use std::path::Path;
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use barre_system::error::EXIT_PERMANENT;
use barre_system::{metrics_from_json, RunMetrics};

/// Exit code a child reports when invoked with unusable arguments —
/// treated as permanent (retrying the same argv cannot help).
pub const EXIT_USAGE: i32 = 2;

/// Outcome of one child attempt.
pub struct Attempt {
    /// `"ok"`, `"exit:N"`, `"signal:N"`, `"timeout"`, or `"spawn:…"`.
    pub exit: String,
    /// Whether retrying could plausibly change the outcome.
    pub transient: bool,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Everything the child wrote to stderr.
    pub stderr: String,
}

fn drain_pipe<R: Read + Send + 'static>(r: Option<R>) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut buf = String::new();
        if let Some(mut r) = r {
            let _ = r.read_to_string(&mut buf);
        }
        buf
    })
}

#[cfg(unix)]
fn signal_of(status: std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn signal_of(_status: std::process::ExitStatus) -> Option<i32> {
    None
}

/// Spawns one child attempt and waits for exit or timeout. Pipes are
/// drained on dedicated threads so a chatty child can never dead-lock
/// against the poll loop; on timeout the child is SIGKILLed and whatever
/// it wrote is kept for diagnostics.
pub fn run_attempt(program: &Path, args: &[String], timeout: Option<Duration>) -> Attempt {
    run_attempt_cancellable(program, args, timeout, &AtomicBool::new(false))
}

/// [`run_attempt`] with an external cancellation flag: when `cancel`
/// flips true mid-attempt the child is SIGKILLed and the attempt comes
/// back with exit `"cancelled"`. Used by `barre worker` to abandon a
/// child whose lease the coordinator has already re-dispatched —
/// finishing it would only produce a duplicate result.
pub fn run_attempt_cancellable(
    program: &Path,
    args: &[String],
    timeout: Option<Duration>,
    cancel: &AtomicBool,
) -> Attempt {
    run_attempt_cancellable_env(program, args, &[], timeout, cancel)
}

/// [`run_attempt_cancellable`] with extra environment variables for the
/// child. Used by `barre worker` to hand the job's fleet-trace
/// correlation id (`BARRE_CORR_ID`) to the simulating child without
/// touching its argv — argv feeds the job fingerprint, env does not.
pub fn run_attempt_cancellable_env(
    program: &Path,
    args: &[String],
    envs: &[(String, String)],
    timeout: Option<Duration>,
    cancel: &AtomicBool,
) -> Attempt {
    let spawned = std::process::Command::new(program)
        .args(args)
        .envs(envs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            return Attempt {
                exit: format!("spawn:{e}"),
                transient: true,
                stdout: String::new(),
                stderr: String::new(),
            }
        }
    };
    let out = drain_pipe(child.stdout.take());
    let err = drain_pipe(child.stderr.take());
    let deadline = timeout.map(|t| Instant::now() + t);
    let mut cancelled = false;
    let (status, timed_out) = loop {
        match child.try_wait() {
            Ok(Some(status)) => break (Some(status), false),
            Ok(None) => {}
            Err(_) => break (None, false),
        }
        if cancel.load(Ordering::SeqCst) {
            cancelled = true;
            let _ = child.kill();
            let _ = child.wait();
            break (None, false);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = child.kill();
            let _ = child.wait();
            break (None, true);
        }
        std::thread::sleep(Duration::from_millis(15));
    };
    let stdout = out.join().unwrap_or_default();
    let stderr = err.join().unwrap_or_default();
    let (exit, transient) = match (status, timed_out) {
        _ if cancelled => ("cancelled".to_string(), true),
        (_, true) => ("timeout".to_string(), true),
        (Some(s), _) if s.success() => ("ok".to_string(), true),
        (Some(s), _) => match (s.code(), signal_of(s)) {
            (Some(c), _) => (format!("exit:{c}"), c != EXIT_PERMANENT && c != EXIT_USAGE),
            (None, Some(sig)) => (format!("signal:{sig}"), true),
            (None, None) => ("exit:?".to_string(), true),
        },
        (None, false) => ("wait-failed".to_string(), true),
    };
    Attempt {
        exit,
        transient,
        stdout,
        stderr,
    }
}

/// Reads a successful child's metrics from its stdout: the last
/// non-empty line, which `barre run --metrics-json` and supervised
/// `--job-index` children print as canonical metrics JSON.
pub fn parse_child_metrics(stdout: &str) -> Result<RunMetrics, String> {
    stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| "empty child output".to_string())
        .and_then(metrics_from_json)
}

/// Capped exponential backoff before retry `attempt` (1-based): 100 ms
/// doubling to a 6.4 s ceiling. Deterministic — no jitter — so test runs
/// are reproducible.
pub fn backoff_delay(attempt: u32) -> Duration {
    Duration::from_millis(100u64 << attempt.min(6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_delay(1), Duration::from_millis(200));
        assert_eq!(backoff_delay(2), Duration::from_millis(400));
        assert_eq!(backoff_delay(6), Duration::from_millis(6400));
        assert_eq!(backoff_delay(60), Duration::from_millis(6400));
    }

    #[test]
    fn spawn_failure_is_transient() {
        let a = run_attempt(Path::new("/nonexistent/barre-no-such-binary"), &[], None);
        assert!(a.exit.starts_with("spawn:"), "{}", a.exit);
        assert!(a.transient);
    }

    #[cfg(unix)]
    #[test]
    fn pre_set_cancel_kills_the_child_as_cancelled() {
        let cancel = AtomicBool::new(true);
        let a = run_attempt_cancellable(Path::new("/bin/sleep"), &["5".to_string()], None, &cancel);
        assert_eq!(a.exit, "cancelled");
        assert!(a.transient);
    }
}
