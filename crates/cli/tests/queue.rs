//! End-to-end chaos tests for the distributed dispatch stack: `barre
//! queue` + `barre worker` + `barre sweep --dispatch`.
//!
//! These drive the real binary through the failure modes the queue was
//! built for — a worker SIGKILLed mid-lease, the coordinator SIGKILLed
//! and restarted from its journal, a poison job burning its lease
//! budget — and hold the acceptance bar from the design: a churn-heavy
//! distributed sweep must produce stdout and a merged journal
//! byte-identical to an uninterrupted serial `barre sweep`.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

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
    let d = std::env::temp_dir().join(format!("barre-queue-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// Picks a free TCP port by binding an ephemeral socket and dropping it
/// — needed when a test must restart a daemon on the *same* address.
fn free_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .expect("probe port")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// A spawned daemon (coordinator or worker) with piped output.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(dir: &Path, args: &[&str], envs: &[(&str, String)]) -> Daemon {
        let mut c = Command::new(BIN);
        c.args(args)
            .current_dir(dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in envs {
            c.env(k, v);
        }
        Daemon {
            child: c.spawn().expect("spawn daemon"),
        }
    }

    /// Reads the `listening on <addr>` handshake from stdout.
    fn addr(&mut self) -> String {
        let out = self.child.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(out).read_line(&mut line).expect("handshake");
        line.trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("bad handshake: {line:?}"))
            .to_string()
    }

    fn signal(&self, sig: &str) {
        let _ = Command::new("kill")
            .args([sig, &self.child.id().to_string()])
            .status()
            .expect("send signal");
    }

    fn wait(self) -> Output {
        self.child.wait_with_output().expect("wait daemon")
    }

    /// Waits for exit without draining the output pipes — for SIGKILLed
    /// daemons whose orphaned children still hold the pipe write ends
    /// (`wait_with_output` would block on them forever).
    fn reap(mut self) {
        let _ = self.child.wait();
    }

    /// Direct child pids, from procfs (Linux). Used to reap the orphans a
    /// SIGKILLed worker leaves behind. Each thread lists the children it
    /// spawned itself, so every thread's list is read.
    fn children(&self) -> Vec<u32> {
        let pid = self.child.id();
        let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
            .map(|d| d.flatten().map(|e| e.path()).collect::<Vec<_>>())
            .unwrap_or_default();
        tasks
            .iter()
            .flat_map(|t| {
                std::fs::read_to_string(t.join("children"))
                    .unwrap_or_default()
                    .split_whitespace()
                    .filter_map(|t| t.parse().ok())
                    .collect::<Vec<u32>>()
            })
            .collect()
    }
}

/// Whether `pid` runs `… --job-index 0`, the child `BARRE_TEST_HANG=0`
/// hangs (procfs, Linux).
fn is_job_zero(pid: u32) -> bool {
    let argv = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
    argv.split(|&b| b == 0)
        .collect::<Vec<_>>()
        .windows(2)
        .any(|w| w[0] == b"--job-index" && w[1] == b"0")
}

/// HTTP GET against a daemon's shim; returns (status, headers, body).
fn http_get(addr: &str, path: &str) -> (u16, String, String) {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect http");
    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
    s.flush().expect("flush");
    let mut doc = String::new();
    s.read_to_string(&mut doc).expect("read http response");
    let code: u16 = doc
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("bad HTTP response: {doc:?}"));
    let (head, body) = doc
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (code, head, body)
}

/// Waits (bounded) until the queue's stats report no active work, so
/// tests can tear daemons down without racing in-flight transitions.
fn wait_until_exit(mut child: Child, budget: Duration) -> Output {
    let start = std::time::Instant::now();
    loop {
        if child.try_wait().expect("try_wait").is_some() {
            return child.wait_with_output().expect("wait");
        }
        if start.elapsed() > budget {
            let _ = child.kill();
            let out = child.wait_with_output().expect("wait");
            panic!(
                "client did not finish within {budget:?}\nstdout: {}\nstderr: {}",
                text(&out.stdout),
                text(&out.stderr)
            );
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[cfg(unix)]
#[test]
fn distributed_sweep_is_byte_identical_to_serial() {
    let dir = tmpdir("identical");
    // Uninterrupted serial supervised reference: journal + stdout.
    let reference = barre(
        &dir,
        &sweep_args(&["--supervise", "--journal", "serial", "--jobs", "1"]),
        &[],
    );
    assert!(
        reference.status.success(),
        "reference failed: {}",
        text(&reference.stderr)
    );

    // Coordinator on an ephemeral port, two workers.
    let mut queue = Daemon::spawn(
        &dir,
        &["queue", "--port", "0", "--journal", "q", "--lease", "5"],
        &[],
    );
    let addr = queue.addr();
    // Liveness and readiness probes share the wire protocol's listener.
    let (code, head, body) = http_get(&addr, "/healthz");
    assert_eq!(
        (code, body.as_str()),
        (200, "{\"status\":\"ok\"}"),
        "{head}"
    );
    let (code, head, body) = http_get(&addr, "/readyz");
    assert_eq!((code, body.as_str()), (200, "{\"ready\":true}"), "{head}");
    let w1 = Daemon::spawn(&dir, &["worker", "--connect", &addr, "--name", "w1"], &[]);
    let w2 = Daemon::spawn(&dir, &["worker", "--connect", &addr, "--name", "w2"], &[]);

    let dispatched = barre(
        &dir,
        &sweep_args(&["--dispatch", &addr, "--journal", "shard"]),
        &[],
    );
    assert!(
        dispatched.status.success(),
        "dispatch failed: {}",
        text(&dispatched.stderr)
    );
    assert_eq!(
        text(&dispatched.stdout),
        text(&reference.stdout),
        "distributed sweep must be byte-identical to the serial run"
    );

    // Merge both journals; the merged files must be byte-identical (the
    // merge strips worker stamps and reports attribution on stderr).
    let m1 = barre(&dir, &["merge", "--out", "m1", "serial"], &[]);
    assert!(m1.status.success(), "stderr: {}", text(&m1.stderr));
    let m2 = barre(&dir, &["merge", "--out", "m2", "shard"], &[]);
    assert!(m2.status.success(), "stderr: {}", text(&m2.stderr));
    assert!(
        text(&m2.stderr).contains("workers:"),
        "no worker attribution: {}",
        text(&m2.stderr)
    );
    let serial_merged = std::fs::read(dir.join("m1").join("sweep.journal.jsonl")).expect("m1");
    let shard_merged = std::fs::read(dir.join("m2").join("sweep.journal.jsonl")).expect("m2");
    assert_eq!(
        text(&serial_merged),
        text(&shard_merged),
        "merged journals must be byte-identical"
    );
    // Same record/done summary on stdout (paths differ, prefix must not).
    assert!(text(&m1.stdout).contains("2 record(s), 2 done"));
    assert!(text(&m2.stdout).contains("2 record(s), 2 done"));

    // Graceful teardown: workers drain with a resume hint, the
    // coordinator compacts its journal and reports a clean drain.
    w1.signal("-TERM");
    w2.signal("-TERM");
    let w1 = w1.wait();
    assert_eq!(w1.status.code(), Some(143), "stderr: {}", text(&w1.stderr));
    assert!(text(&w1.stderr).contains("drained"), "{}", text(&w1.stderr));
    let w2 = w2.wait();
    // Each accepted completion reads back as a completion, never as a
    // heartbeat acknowledgement.
    let werr = format!("{}{}", text(&w1.stderr), text(&w2.stderr));
    assert!(!werr.contains("report_unexpected_reply"), "{werr}");
    assert!(werr.contains("done (ok)"), "{werr}");
    queue.signal("-TERM");
    let q = queue.wait();
    assert_eq!(q.status.code(), Some(0), "stderr: {}", text(&q.stderr));
    let qerr = text(&q.stderr);
    assert!(qerr.contains("journal compacted"), "{qerr}");
    assert!(qerr.contains("2 done"), "{qerr}");
}

#[cfg(unix)]
#[test]
fn sigkilled_worker_lease_expires_and_redispatches() {
    let dir = tmpdir("worker-kill");
    let reference = barre(&dir, &sweep_args(&["--jobs", "1"]), &[]);
    assert!(reference.status.success());

    // Short leases so the dead worker's job comes back quickly. The
    // whole fleet writes span events under fleet/ for stitching below.
    let fleet = ("BARRE_FLEET_TRACE", "fleet".to_string());
    let mut queue = Daemon::spawn(
        &dir,
        &["queue", "--port", "0", "--journal", "q", "--lease", "1"],
        std::slice::from_ref(&fleet),
    );
    let addr = queue.addr();
    // w1 hangs on job 0 forever (heartbeating all the while) — the only
    // way its job finishes is w1 dying and the lease lapsing.
    let w1 = Daemon::spawn(
        &dir,
        &["worker", "--connect", &addr, "--name", "w1"],
        &[("BARRE_TEST_HANG", "0".to_string()), fleet.clone()],
    );

    // Dispatch in the background while the chaos plays out.
    let mut client = Command::new(BIN);
    client
        .args(sweep_args(&["--dispatch", &addr, "--journal", "shard"]))
        .current_dir(&dir)
        .env(fleet.0, &fleet.1)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let client = client.spawn().expect("spawn dispatch client");

    // Let w1 lease job 0 and start hanging, then SIGKILL it mid-lease.
    // Its hung child would be orphaned in an hour-long sleep, so wait
    // (bounded) until that child exists, note the child pids, and kill
    // them too.
    let hung = Instant::now() + Duration::from_secs(5);
    while !w1.children().iter().any(|&pid| is_job_zero(pid)) && Instant::now() < hung {
        std::thread::sleep(Duration::from_millis(20));
    }
    let orphans = w1.children();
    w1.signal("-KILL");
    w1.reap();
    for pid in orphans {
        let _ = Command::new("kill")
            .args(["-KILL", &pid.to_string()])
            .status();
    }

    // A healthy worker picks up the expired lease and finishes the sweep.
    let w2 = Daemon::spawn(
        &dir,
        &["worker", "--connect", &addr, "--name", "w2"],
        std::slice::from_ref(&fleet),
    );
    let out = wait_until_exit(client, Duration::from_secs(60));
    assert!(
        out.status.success(),
        "dispatch failed: {}",
        text(&out.stderr)
    );
    assert_eq!(
        text(&out.stdout),
        text(&reference.stdout),
        "re-dispatched sweep must still be byte-identical"
    );

    w2.signal("-TERM");
    let _ = w2.wait();
    queue.signal("-TERM");
    let q = queue.wait();
    let qerr = text(&q.stderr);
    assert!(
        qerr.contains("expired; re-queued"),
        "no lease-expiry evidence: {qerr}"
    );

    // The per-process fleet traces stitch into one timeline: both jobs
    // show queued → leased phases (the churned job twice) and end done.
    let report = barre(
        &dir,
        &["report", "--fleet", "fleet", "--out", "fleet.json"],
        &[],
    );
    assert!(
        report.status.success(),
        "fleet report failed: {}",
        text(&report.stderr)
    );
    let rout = text(&report.stdout);
    assert!(rout.contains("2 job(s)"), "{rout}");
    assert_eq!(rout.matches(" done ").count(), 2, "{rout}");
    let doc = std::fs::read_to_string(dir.join("fleet.json")).expect("fleet.json");
    let v = barre_system::Json::parse(&doc).expect("fleet timeline parses");
    let evs = v
        .get("traceEvents")
        .and_then(barre_system::Json::as_arr)
        .expect("traceEvents");
    let spans: Vec<&str> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(barre_system::Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(barre_system::Json::as_str))
        .collect();
    assert!(
        spans.iter().filter(|n| **n == "queued").count() >= 2,
        "{spans:?}"
    );
    assert!(
        spans.iter().filter(|n| **n == "leased").count() >= 2,
        "{spans:?}"
    );
    // The SIGKILLed worker's burned lease is visible in the timeline.
    assert!(
        doc.contains("lease_expired"),
        "no expiry event in the stitched timeline"
    );
}

#[cfg(unix)]
#[test]
fn sigkilled_coordinator_restarts_from_journal_and_resumes() {
    let dir = tmpdir("coord-kill");
    let reference = barre(&dir, &sweep_args(&["--jobs", "1"]), &[]);
    assert!(reference.status.success());

    // Fixed port so the restarted coordinator is reachable at the same
    // address the client and workers already hold.
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let mut queue = Daemon::spawn(
        &dir,
        &["queue", "--port", &port.to_string(), "--journal", "q"],
        &[],
    );
    assert_eq!(queue.addr(), addr);

    // No workers yet: the client submits, the jobs sit queued.
    let mut client = Command::new(BIN);
    client
        .args(sweep_args(&["--dispatch", &addr, "--journal", "shard"]))
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let client = client.spawn().expect("spawn dispatch client");
    std::thread::sleep(Duration::from_millis(1200));

    // SIGKILL the coordinator — no drain, no compaction, just death —
    // then restart it on the same port from the same journal.
    queue.signal("-KILL");
    let _ = queue.wait();
    let mut queue = Daemon::spawn(
        &dir,
        &["queue", "--port", &port.to_string(), "--journal", "q"],
        &[],
    );
    assert_eq!(queue.addr(), addr);

    // The restarted coordinator's shim accounts for the replay: journal
    // records read back, jobs re-queued, plus the startup compaction.
    let (code, head, stats) = http_get(&addr, "/stats");
    assert_eq!(code, 200);
    assert!(
        head.to_lowercase()
            .contains("content-type: application/json"),
        "{head}"
    );
    let v = barre_system::Json::parse(stats.trim()).expect("stats json");
    let n = |k: &str| {
        v.get(k)
            .and_then(barre_system::Json::as_u64)
            .unwrap_or_else(|| panic!("missing {k} in {stats}"))
    };
    assert!(n("replayed_records") >= 2, "{stats}");
    assert_eq!(n("replayed_requeued"), 2, "{stats}");
    assert!(n("compactions") >= 1, "{stats}");
    assert_eq!(n("queued"), 2, "{stats}");

    // Same numbers in Prometheus exposition on /metrics.
    let (code, head, metrics) = http_get(&addr, "/metrics");
    assert_eq!(code, 200);
    assert!(
        head.to_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    assert!(metrics.contains("barre_queue_jobs_queued 2\n"), "{metrics}");
    assert!(
        metrics.contains("# TYPE barre_queue_replayed_records_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("barre_queue_replayed_requeued_total 2\n"),
        "{metrics}"
    );

    // A worker drains the restored queue; the client (which rode out the
    // crash polling) comes back byte-identical.
    let w = Daemon::spawn(&dir, &["worker", "--connect", &addr, "--name", "w1"], &[]);
    let out = wait_until_exit(client, Duration::from_secs(60));
    assert!(
        out.status.success(),
        "dispatch failed: {}",
        text(&out.stderr)
    );
    assert_eq!(text(&out.stdout), text(&reference.stdout));

    w.signal("-TERM");
    let _ = w.wait();
    queue.signal("-TERM");
    let q = queue.wait();
    assert_eq!(q.status.code(), Some(0), "stderr: {}", text(&q.stderr));
    let qerr = text(&q.stderr);
    assert!(
        qerr.contains("restored") && qerr.contains("from journal"),
        "restart never replayed the journal: {qerr}"
    );
}

#[cfg(unix)]
#[test]
fn poison_job_is_quarantined_and_reported() {
    let dir = tmpdir("poison");
    // Two burned leases quarantine a job; the worker's 1-second budget
    // turns the hung job into a lease burn quickly.
    let mut queue = Daemon::spawn(
        &dir,
        &[
            "queue",
            "--port",
            "0",
            "--journal",
            "q",
            "--max-leases",
            "2",
        ],
        &[],
    );
    let addr = queue.addr();
    let w = Daemon::spawn(
        &dir,
        &[
            "worker",
            "--connect",
            &addr,
            "--name",
            "w1",
            "--timeout",
            "1",
        ],
        &[("BARRE_TEST_HANG", "0".to_string())],
    );

    let dispatched = barre(
        &dir,
        &sweep_args(&["--dispatch", &addr, "--journal", "shard"]),
        &[],
    );
    // The poisoned job fails the campaign; the healthy job completed.
    assert_eq!(
        dispatched.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        text(&dispatched.stdout),
        text(&dispatched.stderr)
    );
    let err = text(&dispatched.stderr);
    assert!(err.contains("POISON"), "no poison verdict: {err}");
    assert!(err.contains("quarantined after 2 lease(s)"), "{err}");
    assert!(err.contains("1 of 2 job(s) failed"), "{err}");
    assert!(
        dispatched.stdout.is_empty(),
        "partial table printed on failure"
    );
    // The client journal carries the quarantine record for `barre merge`.
    let shard =
        std::fs::read_to_string(dir.join("shard").join("sweep.journal.jsonl")).expect("shard");
    assert!(shard.contains("\"event\":\"quarantined\""), "{shard}");
    assert_eq!(shard.matches("\"event\":\"done\"").count(), 1);

    w.signal("-TERM");
    let _ = w.wait();
    queue.signal("-TERM");
    let q = queue.wait();
    let qerr = text(&q.stderr);
    assert!(
        qerr.contains("POISON"),
        "coordinator never reported: {qerr}"
    );
}

#[test]
fn merge_surfaces_skipped_corrupt_lines() {
    let dir = tmpdir("skipped");
    // A clean supervised run provides genuine journal lines.
    let full = barre(
        &dir,
        &sweep_args(&["--supervise", "--journal", "full", "--jobs", "1"]),
        &[],
    );
    assert!(full.status.success(), "stderr: {}", text(&full.stderr));
    let journal =
        std::fs::read_to_string(dir.join("full").join("sweep.journal.jsonl")).expect("journal");

    // A shard with interior corruption: garbage between valid records.
    let mut lines: Vec<&str> = journal.lines().collect();
    lines.insert(1, "{\"this is\": not even close");
    lines.insert(3, "%%%% bit rot %%%%");
    std::fs::write(dir.join("rotten.jsonl"), format!("{}\n", lines.join("\n"))).expect("shard");

    let merged = barre(&dir, &["merge", "--out", "m", "rotten.jsonl"], &[]);
    assert!(merged.status.success(), "stderr: {}", text(&merged.stderr));
    let out = text(&merged.stdout);
    assert!(out.contains("2 done"), "{out}");
    assert!(out.contains("2 line(s) skipped"), "{out}");
    assert!(
        text(&merged.stderr).contains("skipped 2 corrupt line(s)"),
        "{}",
        text(&merged.stderr)
    );
    // The merged journal itself is clean and resumable.
    let resumed = barre(&dir, &sweep_args(&["--resume", "m", "--jobs", "1"]), &[]);
    assert!(
        resumed.status.success(),
        "stderr: {}",
        text(&resumed.stderr)
    );
    assert_eq!(text(&resumed.stdout), text(&full.stdout));
}
