//! End-to-end crash/kill/resume tests for the sweep supervisor.
//!
//! These drive the real `barre` binary: children are SIGKILLed or hung
//! via the `BARRE_TEST_KILL` / `BARRE_TEST_HANG` hooks, and the resumed
//! output is compared byte-for-byte against an uninterrupted serial run
//! — the acceptance criterion of the supervisor design.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_barre");

/// The sweep under test: one app, two jobs (gemv/baseline, gemv/Barre),
/// on the fast smoke configuration so debug-mode children finish quickly.
const SWEEP: &[&str] = &["sweep", "--smoke", "--apps", "gemv", "--mode", "barre"];

fn barre(dir: &Path, args: &[&str], envs: &[(&str, String)]) -> Output {
    let mut c = Command::new(BIN);
    c.args(args).current_dir(dir);
    for (k, v) in envs {
        c.env(k, v);
    }
    c.output().expect("spawn barre")
}

fn sweep_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = SWEEP.to_vec();
    v.extend_from_slice(extra);
    v
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("barre-sup-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn sigkilled_child_resumes_byte_identical() {
    let dir = tmpdir("kill");
    // Uninterrupted serial reference run.
    let reference = barre(&dir, &sweep_args(&["--jobs", "1"]), &[]);
    assert!(
        reference.status.success(),
        "reference run failed: {}",
        text(&reference.stderr)
    );

    // Supervised run with child 1 SIGKILLed mid-sweep and no retries:
    // the killed job becomes a labeled failure, the other job still
    // completes and lands in the journal, exit code is 1.
    let sentinel = dir.join("kill-sentinel");
    let kill_env = [("BARRE_TEST_KILL", format!("1:{}", sentinel.display()))];
    let killed = barre(
        &dir,
        &sweep_args(&[
            "--supervise",
            "--journal",
            "j",
            "--retries",
            "0",
            "--jobs",
            "1",
        ]),
        &kill_env,
    );
    assert_eq!(
        killed.status.code(),
        Some(1),
        "stderr: {}",
        text(&killed.stderr)
    );
    let err = text(&killed.stderr);
    assert!(err.contains("FAILED"), "no labeled failure in: {err}");
    assert!(err.contains("signal:9") || err.contains("exit:"), "{err}");
    assert!(sentinel.exists(), "kill hook never fired");
    assert!(killed.stdout.is_empty(), "partial table printed on failure");
    assert!(dir.join("j").join("sweep.journal.jsonl").exists());

    // Resume from the journal (sentinel now spent, so no more kills):
    // the finished job is replayed from the journal, the killed one is
    // rerun, and stdout equals the uninterrupted run byte-for-byte.
    let resumed = barre(
        &dir,
        &sweep_args(&["--resume", "j", "--jobs", "1"]),
        &kill_env,
    );
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        text(&resumed.stderr)
    );
    assert_eq!(
        text(&resumed.stdout),
        text(&reference.stdout),
        "resumed sweep must be byte-identical to the uninterrupted run"
    );
    assert!(
        text(&resumed.stderr).contains("resumed 1 finished job(s)"),
        "resume did not replay the journaled job: {}",
        text(&resumed.stderr)
    );
}

#[test]
fn retry_recovers_a_killed_child_in_one_invocation() {
    let dir = tmpdir("retry");
    let reference = barre(&dir, &sweep_args(&["--jobs", "1"]), &[]);
    assert!(reference.status.success());

    // One SIGKILL, one retry: the supervisor retries with backoff and
    // the campaign still succeeds with identical output.
    let sentinel = dir.join("retry-sentinel");
    let run = barre(
        &dir,
        &sweep_args(&[
            "--supervise",
            "--journal",
            "j",
            "--retries",
            "1",
            "--jobs",
            "1",
        ]),
        &[("BARRE_TEST_KILL", format!("0:{}", sentinel.display()))],
    );
    assert!(
        run.status.success(),
        "retry did not recover: {}",
        text(&run.stderr)
    );
    assert_eq!(text(&run.stdout), text(&reference.stdout));
    assert!(sentinel.exists());
    // Journal shows the extra attempt: 2 jobs + 1 retry = 3 starts.
    let journal =
        std::fs::read_to_string(dir.join("j").join("sweep.journal.jsonl")).expect("journal");
    assert_eq!(journal.matches("\"event\":\"start\"").count(), 3);
    assert_eq!(journal.matches("\"event\":\"done\"").count(), 2);
}

#[test]
fn timed_out_child_fails_with_state_dump() {
    let dir = tmpdir("timeout");
    // Job 0 hangs forever; a 1-second budget kills it. No retries, so it
    // is reported as a labeled timeout failure with a dump file, while
    // job 1 still completes and is journaled.
    let run = barre(
        &dir,
        &sweep_args(&[
            "--supervise",
            "--journal",
            "j",
            "--timeout",
            "1",
            "--retries",
            "0",
        ]),
        &[("BARRE_TEST_HANG", "0".to_string())],
    );
    assert_eq!(run.status.code(), Some(1), "stderr: {}", text(&run.stderr));
    let err = text(&run.stderr);
    assert!(err.contains("timeout"), "{err}");
    assert!(err.contains("state dump:"), "{err}");
    let journal =
        std::fs::read_to_string(dir.join("j").join("sweep.journal.jsonl")).expect("journal");
    assert!(journal.contains("\"exit\":\"timeout\""));
    assert!(journal.contains("\"dump\":"));
    assert_eq!(journal.matches("\"event\":\"done\"").count(), 1);
    // The dump file named in the journal exists under the journal dir.
    let dumps: Vec<_> = std::fs::read_dir(dir.join("j"))
        .expect("read journal dir")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".dump.txt"))
        .collect();
    assert_eq!(dumps.len(), 1, "expected exactly one dump file");
}

#[test]
fn merge_folds_shards_and_resume_replays_everything() {
    let dir = tmpdir("merge");
    // One clean supervised run to obtain a complete journal.
    let full = barre(
        &dir,
        &sweep_args(&["--supervise", "--journal", "full", "--jobs", "1"]),
        &[],
    );
    assert!(full.status.success(), "stderr: {}", text(&full.stderr));
    let journal =
        std::fs::read_to_string(dir.join("full").join("sweep.journal.jsonl")).expect("journal");

    // Split its records into two shard files, as if two machines each
    // ran part of the sweep with the same command line.
    let done_lines: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"event\":\"done\""))
        .collect();
    assert_eq!(done_lines.len(), 2);
    std::fs::write(dir.join("shard-a.jsonl"), format!("{}\n", done_lines[0])).expect("shard a");
    std::fs::write(dir.join("shard-b.jsonl"), format!("{}\n", done_lines[1])).expect("shard b");

    let merged = barre(
        &dir,
        &["merge", "--out", "merged", "shard-a.jsonl", "shard-b.jsonl"],
        &[],
    );
    assert!(merged.status.success(), "stderr: {}", text(&merged.stderr));
    assert!(text(&merged.stdout).contains("2 done"));

    // Resuming from the merged journal replays every job — zero
    // simulations run — and stdout still matches the supervised run.
    let resumed = barre(
        &dir,
        &sweep_args(&["--resume", "merged", "--jobs", "1"]),
        &[],
    );
    assert!(
        resumed.status.success(),
        "stderr: {}",
        text(&resumed.stderr)
    );
    assert_eq!(text(&resumed.stdout), text(&full.stdout));
    assert!(text(&resumed.stderr).contains("resumed 2 finished job(s)"));

    // A tampered digest is a conflict, not a silent merge.
    let tampered = done_lines[1].replacen("\"digest\":\"", "\"digest\":\"x", 1);
    std::fs::write(dir.join("shard-c.jsonl"), format!("{tampered}\n")).expect("shard c");
    let conflict = barre(
        &dir,
        &["merge", "--out", "m2", "shard-b.jsonl", "shard-c.jsonl"],
        &[],
    );
    assert_eq!(conflict.status.code(), Some(1));
    assert!(text(&conflict.stderr).contains("conflict"));
}

/// `line` with one digit of its `total_cycles` changed: the record still
/// parses, but its digest no longer matches its metrics.
fn alter_total_cycles(line: &str) -> String {
    let key = "\"total_cycles\":";
    let at = line.find(key).expect("total_cycles") + key.len();
    let digit = line.as_bytes()[at];
    assert!(digit.is_ascii_digit(), "{line}");
    let new = if digit == b'9' {
        '8'
    } else {
        char::from(digit + 1)
    };
    format!("{}{new}{}", &line[..at], &line[at + 1..])
}

#[test]
fn resume_reruns_a_done_record_whose_metrics_were_altered() {
    let dir = tmpdir("altered");
    let reference = barre(&dir, &sweep_args(&["--jobs", "1"]), &[]);
    assert!(reference.status.success(), "{}", text(&reference.stderr));
    let full = barre(
        &dir,
        &sweep_args(&["--supervise", "--journal", "j", "--jobs", "1"]),
        &[],
    );
    assert!(full.status.success(), "stderr: {}", text(&full.stderr));

    let path = dir.join("j").join("sweep.journal.jsonl");
    let journal = std::fs::read_to_string(&path).expect("journal");
    let first = journal
        .lines()
        .find(|l| l.contains("\"event\":\"done\""))
        .expect("a done record");
    let altered = journal.replacen(first, &alter_total_cycles(first), 1);
    std::fs::write(&path, altered).expect("alter journal");

    // Resume replays only the intact record and reruns the altered job.
    let resumed = barre(&dir, &sweep_args(&["--resume", "j", "--jobs", "1"]), &[]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        text(&resumed.stderr)
    );
    assert_eq!(text(&resumed.stdout), text(&reference.stdout));
    assert!(
        text(&resumed.stderr).contains("resumed 1 finished job(s)"),
        "{}",
        text(&resumed.stderr)
    );
}

#[test]
fn merge_drops_done_records_that_fail_verification() {
    let dir = tmpdir("unverified");
    let full = barre(
        &dir,
        &sweep_args(&["--supervise", "--journal", "full", "--jobs", "1"]),
        &[],
    );
    assert!(full.status.success(), "stderr: {}", text(&full.stderr));
    let journal =
        std::fs::read_to_string(dir.join("full").join("sweep.journal.jsonl")).expect("journal");
    let done: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"event\":\"done\""))
        .collect();
    assert_eq!(done.len(), 2);
    // The altered copy of job 0 comes first; its intact twin must win.
    let altered = alter_total_cycles(done[0]);
    std::fs::write(dir.join("a.jsonl"), format!("{altered}\n")).expect("shard a");
    std::fs::write(dir.join("b.jsonl"), format!("{}\n{}\n", done[0], done[1])).expect("b");

    let merged = barre(&dir, &["merge", "--out", "m", "a.jsonl", "b.jsonl"], &[]);
    assert!(merged.status.success(), "stderr: {}", text(&merged.stderr));
    assert!(text(&merged.stdout).contains("2 done"));
    assert!(
        text(&merged.stderr).contains("dropped 1 done record(s) that fail digest verification"),
        "{}",
        text(&merged.stderr)
    );
    let out = std::fs::read_to_string(dir.join("m").join("sweep.journal.jsonl")).expect("merged");
    assert_eq!(out, format!("{}\n{}\n", done[0], done[1]));
}

#[cfg(unix)]
#[test]
fn sigint_drains_and_journal_resumes() {
    let dir = tmpdir("sigint");
    let reference = barre(&dir, &sweep_args(&["--jobs", "1"]), &[]);
    assert!(reference.status.success());

    // Job 0 hangs (3 s budget); SIGINT the supervisor while it is in
    // flight. The drain must wait the hung child out, journal the
    // timeout, skip the rest, and exit 130.
    let child = Command::new(BIN)
        .args(sweep_args(&[
            "--supervise",
            "--journal",
            "j",
            "--jobs",
            "1",
            "--timeout",
            "3",
            "--retries",
            "0",
        ]))
        .current_dir(&dir)
        .env("BARRE_TEST_HANG", "0")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn supervisor");
    std::thread::sleep(std::time::Duration::from_millis(800));
    let _ = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("send SIGINT");
    let out = child.wait_with_output().expect("wait supervisor");
    assert_eq!(
        out.status.code(),
        Some(130),
        "stderr: {}",
        text(&out.stderr)
    );
    assert!(text(&out.stderr).contains("interrupted"));

    // Resume (no hang) completes the campaign byte-identically.
    let resumed = barre(&dir, &sweep_args(&["--resume", "j", "--jobs", "1"]), &[]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        text(&resumed.stderr)
    );
    assert_eq!(text(&resumed.stdout), text(&reference.stdout));
}

#[cfg(unix)]
#[test]
fn sigterm_drains_identically_to_sigint() {
    let dir = tmpdir("sigterm");
    let reference = barre(&dir, &sweep_args(&["--jobs", "1"]), &[]);
    assert!(reference.status.success());

    // Same shape as the SIGINT test, but with the signal a process
    // manager actually sends. The drain must behave identically: wait
    // out the hung child, journal, print the resume hint, and exit
    // 128 + SIGTERM = 143.
    let child = Command::new(BIN)
        .args(sweep_args(&[
            "--supervise",
            "--journal",
            "j",
            "--jobs",
            "1",
            "--timeout",
            "3",
            "--retries",
            "0",
        ]))
        .current_dir(&dir)
        .env("BARRE_TEST_HANG", "0")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn supervisor");
    std::thread::sleep(std::time::Duration::from_millis(800));
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    let out = child.wait_with_output().expect("wait supervisor");
    assert_eq!(
        out.status.code(),
        Some(143),
        "stderr: {}",
        text(&out.stderr)
    );
    let err = text(&out.stderr);
    assert!(err.contains("interrupted"), "{err}");
    assert!(err.contains("--resume"), "no resume hint: {err}");

    // Resume (no hang) completes the campaign byte-identically.
    let resumed = barre(&dir, &sweep_args(&["--resume", "j", "--jobs", "1"]), &[]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        text(&resumed.stderr)
    );
    assert_eq!(text(&resumed.stdout), text(&reference.stdout));
}
