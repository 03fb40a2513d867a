//! One crash-isolated child attempt: spawn, drain pipes, wait with a
//! wall-clock deadline, classify the outcome as transient or permanent.
//!
//! The wait is event-driven: a watcher thread blocks until the child has
//! exited (without reaping it, so its pid cannot be reused under us) and
//! signals a channel. The attempt blocks on that channel until the exit,
//! the deadline, or a cancel-check interval, whichever comes first. A
//! finished child is answered the moment it exits; the cancel cadence
//! only bounds how quickly a cancelled child is killed.
//!
//! Shared by `barre sweep --supervise` and `barre worker`, so both
//! classify a child's exit and judge its output ([`Attempt::verdict`])
//! the same way. `barre serve` simulates in-process but retries on the
//! same deterministic backoff schedule ([`backoff_delay`]).

use std::io::Read;
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use barre_system::error::EXIT_PERMANENT;
use barre_system::{metrics_from_json, RunMetrics};

/// How often a waiting attempt checks its cancel flag.
const CANCEL_CHECK: Duration = Duration::from_millis(50);

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

/// A thread that signals `rx` once the child has exited, leaving it
/// unreaped. `rx` disconnects without a message when no watcher runs on
/// this platform, or when waiting fails.
struct ExitWatch {
    rx: Receiver<()>,
    thread: Option<JoinHandle<()>>,
}

impl ExitWatch {
    fn start(child: &Child) -> ExitWatch {
        let (tx, rx) = mpsc::channel();
        let pid = child.id();
        #[cfg(target_os = "linux")]
        let thread = Some(std::thread::spawn(move || {
            if wait_exited_unreaped(pid) {
                let _ = tx.send(());
            }
        }));
        #[cfg(not(target_os = "linux"))]
        let thread = {
            let _ = (tx, pid);
            None
        };
        ExitWatch { rx, thread }
    }

    /// Joins the watcher, which returns once the child has exited.
    /// Reaping only after this means the watcher never waits on a pid
    /// that a later child has reused.
    fn join(self) {
        if let Some(t) = self.thread {
            let _ = t.join();
        }
    }
}

/// Blocks until child `pid` has exited, leaving it a zombie for
/// [`Child::wait`] to reap. False when waiting failed.
#[cfg(target_os = "linux")]
fn wait_exited_unreaped(pid: u32) -> bool {
    extern "C" {
        fn waitid(idtype: i32, id: u32, infop: *mut u64, options: i32) -> i32;
    }
    const P_PID: i32 = 1;
    const WEXITED: i32 = 4;
    const WNOWAIT: i32 = 0x0100_0000;
    // siginfo_t is 128 bytes on every Linux target.
    let mut info = [0u64; 16];
    loop {
        // SAFETY: `info` is a writable, aligned siginfo_t-sized buffer.
        // WNOWAIT leaves the child unreaped, so the pid stays this
        // process's child until `Child::wait` reaps it.
        let r = unsafe { waitid(P_PID, pid, info.as_mut_ptr(), WEXITED | WNOWAIT) };
        if r == 0 {
            return true;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return false;
        }
    }
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
/// against the wait; on timeout the child is SIGKILLed and whatever
/// it wrote is kept for diagnostics.
pub fn run_attempt(program: &Path, args: &[String], timeout: Option<Duration>) -> Attempt {
    run_attempt_cancellable_env(program, args, &[], timeout, &AtomicBool::new(false))
}

/// [`run_attempt`] with an external cancellation flag and extra
/// environment variables for the child. When `cancel` flips true
/// mid-attempt the child is SIGKILLed and the attempt comes back with
/// exit `"cancelled"`. Used by `barre worker` to abandon a child whose
/// lease the coordinator has already re-dispatched — finishing it would
/// only produce a duplicate result — and to hand the child the job's
/// fleet-trace correlation id (`BARRE_CORR_ID`) without touching its
/// argv: argv feeds the job fingerprint, env does not.
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
    let exited = ExitWatch::start(&child);
    let deadline = timeout.map(|t| Instant::now() + t);
    let mut cancelled = false;
    let mut timed_out = false;
    loop {
        if cancel.load(Ordering::SeqCst) {
            cancelled = true;
            break;
        }
        let now = Instant::now();
        let wait = match deadline {
            Some(d) if now >= d => {
                timed_out = true;
                break;
            }
            Some(d) => (d - now).min(CANCEL_CHECK),
            None => CANCEL_CHECK,
        };
        match exited.rx.recv_timeout(wait) {
            Ok(()) => break,
            Err(RecvTimeoutError::Timeout) => {}
            // No watcher: fall back to polling at the cancel cadence.
            Err(RecvTimeoutError::Disconnected) => match child.try_wait() {
                Ok(None) => std::thread::sleep(wait),
                Ok(Some(_)) | Err(_) => break,
            },
        }
    }
    if cancelled || timed_out {
        let _ = child.kill();
    }
    exited.join();
    let status = child.wait().ok().filter(|_| !cancelled && !timed_out);
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

/// Why an attempt produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptFailure {
    /// The attempt's exit class, or `"badoutput:…"` for a zero exit
    /// without readable metrics.
    pub exit: String,
    /// Whether retrying could plausibly change the outcome.
    pub transient: bool,
}

impl Attempt {
    /// The attempt's verdict, the one both `barre sweep --supervise` and
    /// `barre worker` act on: the metrics a successful child printed as
    /// the last non-empty line of its stdout, or why there are none. A
    /// zero exit with unreadable metrics is a protocol failure, retried
    /// like any other transient fault.
    pub fn verdict(&self) -> Result<RunMetrics, AttemptFailure> {
        if self.exit != "ok" {
            return Err(AttemptFailure {
                exit: self.exit.clone(),
                transient: self.transient,
            });
        }
        self.stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| "empty child output".to_string())
            .and_then(metrics_from_json)
            .map_err(|why| AttemptFailure {
                exit: format!("badoutput:{why}"),
                transient: true,
            })
    }
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

    fn finished(exit: &str, transient: bool, stdout: &str) -> Attempt {
        Attempt {
            exit: exit.to_string(),
            transient,
            stdout: stdout.to_string(),
            stderr: String::new(),
        }
    }

    #[test]
    fn a_zero_exit_yields_the_last_metrics_line() {
        let m = RunMetrics {
            total_cycles: 42,
            ..Default::default()
        };
        let out = format!("noise\n{}\n\n", barre_system::metrics_to_json(&m));
        assert_eq!(finished("ok", true, &out).verdict(), Ok(m));
    }

    #[test]
    fn a_zero_exit_with_unreadable_stdout_is_transient_badoutput() {
        for stdout in ["", "  \n", "not json\n"] {
            let f = finished("ok", true, stdout).verdict().expect_err(stdout);
            assert!(f.exit.starts_with("badoutput:"), "{}", f.exit);
            assert!(f.transient, "{stdout:?}");
        }
    }

    #[test]
    fn a_failed_exit_keeps_its_class() {
        let permanent = format!("exit:{EXIT_PERMANENT}");
        let f = finished(&permanent, false, "")
            .verdict()
            .expect_err("exit 64");
        assert_eq!(
            f,
            AttemptFailure {
                exit: permanent,
                transient: false
            }
        );
        let f = finished("signal:9", true, "")
            .verdict()
            .expect_err("signal");
        assert!(f.transient);
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
        let a = run_attempt_cancellable_env(
            Path::new("/bin/sleep"),
            &["5".to_string()],
            &[],
            None,
            &cancel,
        );
        assert_eq!(a.exit, "cancelled");
        assert!(a.transient);
    }

    #[cfg(unix)]
    #[test]
    fn a_hung_child_times_out_at_its_deadline() {
        let t0 = Instant::now();
        let a = run_attempt(
            Path::new("/bin/sleep"),
            &["5".to_string()],
            Some(Duration::from_millis(200)),
        );
        assert_eq!(a.exit, "timeout");
        assert!(a.transient);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "timeout took {took:?}");
    }

    #[cfg(unix)]
    #[test]
    fn a_cancel_flipped_mid_attempt_kills_the_child() {
        let cancel = std::sync::Arc::new(AtomicBool::new(false));
        let flip = {
            let cancel = std::sync::Arc::clone(&cancel);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(150));
                cancel.store(true, Ordering::SeqCst);
            })
        };
        let t0 = Instant::now();
        let a = run_attempt_cancellable_env(
            Path::new("/bin/sleep"),
            &["5".to_string()],
            &[],
            None,
            &cancel,
        );
        let _ = flip.join();
        assert_eq!(a.exit, "cancelled");
        assert!(a.transient);
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "cancel took {took:?}");
    }

    #[cfg(unix)]
    #[test]
    fn a_chatty_child_returns_every_byte() {
        // 200 000 bytes, three times a pipe buffer: the child blocks
        // unless its stdout is drained while the attempt waits.
        let a = run_attempt(
            Path::new("/bin/sh"),
            &[
                "-c".to_string(),
                "head -c 200000 /dev/zero | tr '\\0' x; echo done >&2".to_string(),
            ],
            Some(Duration::from_secs(10)),
        );
        assert_eq!(a.exit, "ok", "{}", a.stderr);
        assert_eq!(a.stdout.len(), 200_000);
        assert!(a.stdout.bytes().all(|b| b == b'x'));
        assert_eq!(a.stderr, "done\n");
    }
}
