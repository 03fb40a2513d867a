//! End-to-end tests for the `barre serve` daemon: admission control,
//! deadlines, load shedding, the circuit breaker, the verified result
//! cache, graceful drain on SIGINT/SIGTERM, and answers equal to what
//! `barre run --metrics-json` prints — all driven over real TCP against
//! the real binary, including a 1000-request soak against a saturated
//! two-worker daemon.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_barre");

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("barre-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// A running daemon plus the address it bound.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

/// Starts `barre serve --port 0 <extra>` in `dir` and waits for its
/// `listening on <addr>` handshake line.
fn start_daemon(dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
    let mut c = Command::new(BIN);
    c.args(["serve", "--port", "0"])
        .args(extra)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        c.env(k, v);
    }
    let mut child = c.spawn().expect("spawn daemon");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("handshake line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad handshake: {line:?}"))
        .trim()
        .to_string();
    Daemon {
        child,
        stdout,
        addr,
    }
}

impl Daemon {
    fn connect(&self) -> (BufReader<TcpStream>, TcpStream) {
        let s = TcpStream::connect(&self.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(120))).ok();
        let r = BufReader::new(s.try_clone().expect("clone"));
        (r, s)
    }

    /// One request line on a fresh connection, one response line back.
    fn request(&self, line: &str) -> String {
        let (mut r, mut w) = self.connect();
        writeln!(w, "{line}").expect("send");
        w.flush().expect("flush");
        let mut resp = String::new();
        r.read_line(&mut resp).expect("response");
        resp.trim_end().to_string()
    }

    /// HTTP GET against the shim; returns (status_code, headers, body).
    fn http_get_full(&self, path: &str) -> (u16, String, String) {
        let (mut r, mut w) = self.connect();
        write!(w, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        w.flush().expect("flush");
        let mut doc = String::new();
        r.read_to_string(&mut doc).expect("read response");
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

    /// HTTP GET against the shim; returns (status_code, body).
    fn http_get(&self, path: &str) -> (u16, String) {
        let (code, _, body) = self.http_get_full(path);
        (code, body)
    }

    fn signal(&self, sig: &str) {
        Command::new("kill")
            .args([sig, &self.child.id().to_string()])
            .status()
            .expect("kill");
    }

    /// Signals, waits, and returns (exit_code, stderr).
    fn stop(mut self, sig: &str) -> (i32, String) {
        self.signal(sig);
        // Drain the remaining stdout so the daemon can never block on a
        // full pipe, then collect stderr via wait_with_output.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let out = self.child.wait_with_output().expect("wait daemon");
        (
            out.status.code().unwrap_or(-1),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }
}

/// The pids of `pid`'s child processes, from every thread's
/// `/proc/<pid>/task/<tid>/children`.
#[cfg(target_os = "linux")]
fn children_of(pid: u32) -> Vec<String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("task dir");
    let mut read = 0;
    let mut kids = Vec::new();
    for t in tasks.flatten() {
        if let Ok(text) = std::fs::read_to_string(t.path().join("children")) {
            read += 1;
            kids.extend(text.split_whitespace().map(str::to_string));
        }
    }
    assert!(read > 0, "no /proc/{pid}/task/*/children file");
    kids
}

/// The raw `metrics` object of an `ok` response line.
fn metrics_text(resp: &str) -> &str {
    let at = resp
        .find(",\"metrics\":")
        .unwrap_or_else(|| panic!("no metrics in {resp}"));
    resp[at + ",\"metrics\":".len()..]
        .strip_suffix('}')
        .unwrap_or_else(|| panic!("bad response end {resp}"))
}

fn json_u64(doc: &str, path: &[&str]) -> u64 {
    let v = barre_system::Json::parse(doc.trim()).unwrap_or_else(|e| panic!("bad JSON {e}: {doc}"));
    let mut cur = &v;
    for p in path {
        cur = cur.get(p).unwrap_or_else(|| panic!("missing {p} in {doc}"));
    }
    cur.as_u64()
        .unwrap_or_else(|| panic!("non-u64 at {path:?}"))
}

fn str_field(doc: &str, key: &str) -> String {
    let v = barre_system::Json::parse(doc.trim()).unwrap_or_else(|e| panic!("bad JSON {e}: {doc}"));
    v.get(key)
        .and_then(barre_system::Json::as_str)
        .unwrap_or_else(|| panic!("missing {key} in {doc}"))
        .to_string()
}

const GUPS: &str = r#"{"app":"gups","smoke":true,"seed":7}"#;

#[test]
fn serve_cache_hits_are_byte_identical_and_survive_restart() {
    let dir = tmpdir("cache");
    let d = start_daemon(&dir, &["--workers", "1", "--cache-dir", "cache"], &[]);

    // Health shim is green from the start.
    let (code, body) = d.http_get("/healthz");
    assert_eq!((code, body.contains("ok")), (200, true));
    let (code, _) = d.http_get("/readyz");
    assert_eq!(code, 200);
    let (code, _) = d.http_get("/nope");
    assert_eq!(code, 404);

    // Cold run, then a cache hit: byte-identical responses.
    let cold = d.request(GUPS);
    assert_eq!(str_field(&cold, "status"), "ok", "{cold}");
    // The cold run simulated in the daemon itself: no child process.
    #[cfg(target_os = "linux")]
    assert_eq!(children_of(d.child.id()), Vec::<String>::new());
    let hit = d.request(GUPS);
    assert_eq!(cold, hit, "cache hit must be byte-identical to cold run");
    // Alias spellings collide on the same cache entry.
    let alias = d.request(r#"{"seed":7,"smoke":true,"app":"gups"}"#);
    assert_eq!(cold, alias);

    // Invalid requests are structured 400s, not dropped connections.
    let bad = d.request(r#"{"app":"nosuch"}"#);
    assert_eq!(str_field(&bad, "status"), "error");
    assert_eq!(json_u64(&bad, &["code"]), 400);
    let typo = d.request(r#"{"app":"gups","warp":9}"#);
    assert_eq!(json_u64(&typo, &["code"]), 400);

    // /stats reflects all of it — and says it is JSON.
    let (code, head, stats) = d.http_get_full("/stats");
    assert_eq!(code, 200);
    assert!(
        head.to_lowercase()
            .contains("content-type: application/json"),
        "{head}"
    );
    assert_eq!(json_u64(&stats, &["requests", "ok"]), 1);
    assert_eq!(json_u64(&stats, &["requests", "cache_hits"]), 2);
    assert_eq!(json_u64(&stats, &["requests", "invalid"]), 2);
    assert_eq!(json_u64(&stats, &["cache", "entries"]), 1);
    assert!(json_u64(&stats, &["latency_ms", "count"]) >= 3);

    // /metrics serves the same counters in Prometheus text exposition,
    // with the exposition-format content type.
    let (code, head, metrics) = d.http_get_full("/metrics");
    assert_eq!(code, 200);
    assert!(
        head.to_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    assert!(
        metrics.contains("barre_serve_requests_ok_cold_total 1\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("barre_serve_cache_hits_total 2\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE barre_serve_request_latency_ms histogram"),
        "{metrics}"
    );
    assert!(
        metrics.contains("barre_serve_request_latency_ms_bucket{le=\"+Inf\"}"),
        "{metrics}"
    );
    assert!(metrics.ends_with('\n'), "exposition must end with newline");

    // SIGTERM: graceful drain, exit 0, flushed cache index.
    let (exit, stderr) = d.stop("-TERM");
    assert_eq!(exit, 0, "stderr: {stderr}");
    assert!(stderr.contains("drain"), "{stderr}");
    let index = dir.join("cache").join("serve-cache.jsonl");
    let (records, skipped) =
        barre_system::read_journal_lenient(&index).expect("cache index parses");
    assert_eq!((records.len(), skipped), (1, 0));

    // `barre report` summarizes the cache index like any journal.
    let report = Command::new(BIN)
        .args(["report", "cache/serve-cache.jsonl"])
        .current_dir(&dir)
        .output()
        .expect("report");
    assert!(
        report.status.success(),
        "report failed: {}",
        String::from_utf8_lossy(&report.stderr)
    );

    // Warm restart: the same request is served from the reloaded cache,
    // byte-identical, with zero cold runs.
    let d2 = start_daemon(&dir, &["--workers", "1", "--cache-dir", "cache"], &[]);
    let warm = d2.request(GUPS);
    assert_eq!(cold, warm, "warm-cache response must match the cold run");
    let (_, stats) = d2.http_get("/stats");
    assert_eq!(json_u64(&stats, &["requests", "ok"]), 0);
    assert_eq!(json_u64(&stats, &["requests", "cache_hits"]), 1);
    let (exit, _) = d2.stop("-TERM");
    assert_eq!(exit, 0);
}

#[test]
fn deadlines_fire_and_full_queue_sheds() {
    let dir = tmpdir("deadline");
    // Scaled gups with one walker per chiplet simulates for seconds, far
    // past the 600 ms deadline; workers=1, queue-cap=1. The first
    // request occupies the worker, the second fills the queue, the third
    // is shed instantly.
    let d = start_daemon(
        &dir,
        &[
            "--workers",
            "1",
            "--queue-cap",
            "1",
            "--breaker",
            "0",
            "--retries",
            "0",
            "--cache-dir",
            "cache",
        ],
        &[],
    );
    let long = |seed: u32| format!(r#"{{"app":"gups","ptws":1,"seed":{seed},"timeout_ms":600}}"#);

    let send = |line: &str| {
        let (r, mut w) = d.connect();
        writeln!(w, "{line}").expect("send");
        w.flush().expect("flush");
        (r, w)
    };
    let sent1 = Instant::now();
    let (mut r1, _w1) = send(&long(1));
    std::thread::sleep(Duration::from_millis(150));
    let (mut r2, _w2) = send(&long(2));
    std::thread::sleep(Duration::from_millis(150));
    // Queue now holds request 2; this one must be shed without waiting.
    let shed = d.request(&long(3));
    assert_eq!(str_field(&shed, "status"), "shed", "{shed}");
    assert_eq!(json_u64(&shed, &["code"]), 429);
    assert!(json_u64(&shed, &["retry_after_ms"]) >= 1);
    // The worker is busy simulating, in the daemon's own process.
    #[cfg(target_os = "linux")]
    assert_eq!(children_of(d.child.id()), Vec::<String>::new());

    // Both admitted requests hit their wall-clock deadline. The run
    // checks its deadline every few thousand events, so the answer comes
    // a fraction of a millisecond after it, far inside the slack here.
    let mut resp1 = String::new();
    r1.read_line(&mut resp1).expect("deadline response 1");
    let took = sent1.elapsed();
    assert_eq!(
        resp1.trim_end(),
        r#"{"status":"timeout","code":504,"error":"deadline exceeded"}"#
    );
    assert!(
        took >= Duration::from_millis(600) && took < Duration::from_millis(1600),
        "deadline answered after {took:?}"
    );
    let mut resp2 = String::new();
    r2.read_line(&mut resp2).expect("deadline response 2");
    assert_eq!(str_field(&resp2, "status"), "timeout", "{resp2}");

    // The cancelled run freed the worker: a small cell is answered now.
    let asked = Instant::now();
    let next = d.request(r#"{"app":"gemv","smoke":true,"seed":5}"#);
    assert_eq!(str_field(&next, "status"), "ok", "{next}");
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(5), "next request took {took:?}");

    let (_, stats) = d.http_get("/stats");
    assert_eq!(json_u64(&stats, &["requests", "timeouts"]), 2);
    assert_eq!(json_u64(&stats, &["requests", "shed"]), 1);
    assert_eq!(json_u64(&stats, &["queue", "max_depth"]), 1);
    assert_eq!(json_u64(&stats, &["simulate_ms", "count"]), 3);

    let (exit, stderr) = d.stop("-TERM");
    assert_eq!(exit, 0, "stderr: {stderr}");
}

/// Every request shape answers exactly what `barre run --metrics-json`
/// prints for the request's canonical argv, under the fingerprint the
/// daemon has always given it, and failures answer with the bodies a
/// `barre run` child's exit produced.
#[test]
fn in_process_answers_match_barre_run() {
    let dir = tmpdir("equiv");
    let d = start_daemon(
        &dir,
        &["--workers", "2", "--retries", "0", "--cache-dir", "cache"],
        &[],
    );
    let mut lines: Vec<String> = [
        "baseline",
        "valkyrie",
        "least",
        "shared-l2",
        "barre",
        "fbarre",
        "fbarre2",
        "fbarre1",
        "fbarre-nomerge",
        "fbarre4",
    ]
    .iter()
    .map(|m| format!(r#"{{"app":"gemv","smoke":true,"mode":"{m}"}}"#))
    .collect();
    lines.extend(
        [
            r#"{"app":"jac2d","smoke":true,"policy":"lasp"}"#,
            r#"{"app":"jac2d","smoke":true,"policy":"coda","mode":"barre"}"#,
            r#"{"app":"jac2d","smoke":true,"policy":"round-robin"}"#,
            r#"{"app":"jac2d","smoke":true,"policy":"chunking","mode":"fbarre"}"#,
            r#"{"app":"lu","smoke":true,"page_size":"4kb"}"#,
            r#"{"app":"lu","smoke":true,"page_size":"64k","mode":"fbarre"}"#,
            r#"{"app":"lu","smoke":true,"page_size":"2mb"}"#,
            r#"{"app":"st2d","smoke":true,"ptws":"inf","mode":"barre"}"#,
            r#"{"app":"st2d","smoke":true,"ptws":2}"#,
            r#"{"app":"gemv","smoke":true,"chiplets":2}"#,
            r#"{"app":"gemv","smoke":true,"chiplets":8,"mode":"fbarre"}"#,
            r#"{"app":"gemv","smoke":true,"gmmu":true,"mode":"barre"}"#,
            r#"{"app":"gemv","smoke":true,"migration":true,"frames":4096}"#,
            r#"{"app":"gemv","smoke":true,"frames":40,"gmmu":false}"#,
            r#"{"app":"gemv","smoke":true,"seed":0,"migration":false}"#,
            r#"{"app":"gemv","smoke":true,"seed":18446744073709551615,"id":"max"}"#,
            r#"{"app":"gemv","mode":"least"}"#,
            r#"{"app":"gemv","paper":true,"smoke":false}"#,
        ]
        .map(str::to_string),
    );
    for line in &lines {
        let req = barre_serve::request::parse_request(line).expect("valid request");
        let resp = d.request(line);
        assert_eq!(str_field(&resp, "status"), "ok", "{line}: {resp}");
        assert_eq!(str_field(&resp, "fingerprint"), req.fingerprint, "{line}");
        let out = Command::new(BIN)
            .args(&req.argv)
            .output()
            .expect("barre run");
        assert!(out.status.success(), "{line}: {:?}", req.argv);
        let run = String::from_utf8(out.stdout).expect("utf-8");
        assert_eq!(metrics_text(&resp), run.trim_end(), "{line}");
    }
    // Fingerprints the daemon gave these requests before it simulated
    // in-process.
    for (line, fp) in [
        (GUPS, "fffe4f32e6015a31"),
        (
            r#"{"app":"gemv","smoke":true,"mode":"fbarre4","ptws":"inf","seed":2}"#,
            "53e06729fde2d43e",
        ),
        (
            r#"{"app":"lu","smoke":true,"mode":"barre","policy":"rr","gmmu":true,"id":"x"}"#,
            "20693c4cf78f5c82",
        ),
    ] {
        let req = barre_serve::request::parse_request(line).expect("valid request");
        assert_eq!(req.fingerprint, fp, "{line}");
    }
    // Failure bodies, byte for byte as the child path answered them: a
    // transient SimError and an invalid request. More than 16 chiplets
    // (which panics the model) and a frame count the daemon could not
    // allocate are rejected before any simulation starts.
    for (line, body) in [
        (
            r#"{"app":"gups","smoke":true,"frames":1}"#,
            r#"{"status":"failed","code":500,"error":"chiplet 0 is out of physical frames (exit:65)"}"#,
        ),
        (
            r#"{"app":"nosuch"}"#,
            r#"{"status":"error","code":400,"error":"unknown app nosuch"}"#,
        ),
        (
            r#"{"app":"gups","smoke":true,"chiplets":64}"#,
            r#"{"status":"error","code":400,"error":"chiplets 64 outside 1..=16"}"#,
        ),
        (
            r#"{"app":"gups","smoke":true,"frames":35184372088832}"#,
            r#"{"status":"error","code":400,"error":"frames 35184372088832 above 65536"}"#,
        ),
    ] {
        assert_eq!(d.request(line), body, "{line}");
    }
    // The daemon still serves.
    let after = d.request(r#"{"app":"gemv","smoke":true,"seed":9}"#);
    assert_eq!(str_field(&after, "status"), "ok", "{after}");
    #[cfg(target_os = "linux")]
    assert_eq!(children_of(d.child.id()), Vec::<String>::new());
    let (exit, _) = d.stop("-TERM");
    assert_eq!(exit, 0);
}

/// A cache file written when every request ran in a `barre run` child
/// warm-loads and answers its requests as hits.
#[test]
fn a_cache_written_by_child_runs_serves_hits() {
    let dir = tmpdir("legacy");
    std::fs::create_dir_all(dir.join("cache")).expect("mkdir");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve-cache-v1.jsonl");
    std::fs::copy(&fixture, dir.join("cache").join("serve-cache.jsonl")).expect("copy fixture");
    let d = start_daemon(&dir, &["--workers", "1", "--cache-dir", "cache"], &[]);
    let lines = [
        GUPS,
        r#"{"app":"gemv","smoke":true,"mode":"fbarre4","ptws":"inf","seed":2}"#,
        r#"{"app":"lu","smoke":true,"mode":"barre","policy":"rr","gmmu":true,"id":"x"}"#,
        r#"{"app":"gups","smoke":true,"chiplets":3}"#,
        r#"{"app":"gemv","smoke":true,"page_size":"2m","frames":2}"#,
        r#"{"app":"gemv","smoke":true,"migration":true,"frames":40}"#,
    ];
    for line in lines {
        let resp = d.request(line);
        assert_eq!(str_field(&resp, "status"), "ok", "{line}: {resp}");
    }
    let (_, stats) = d.http_get("/stats");
    assert_eq!(json_u64(&stats, &["requests", "cache_hits"]), 6, "{stats}");
    assert_eq!(json_u64(&stats, &["requests", "ok"]), 0, "{stats}");
    assert_eq!(json_u64(&stats, &["cache", "evictions"]), 0, "{stats}");
    let (exit, _) = d.stop("-TERM");
    assert_eq!(exit, 0);
}

#[test]
fn breaker_quarantines_a_crashing_config() {
    let dir = tmpdir("breaker");
    let d = start_daemon(
        &dir,
        &[
            "--workers",
            "1",
            "--breaker",
            "2",
            "--retries",
            "0",
            "--cache-dir",
            "cache",
        ],
        &[],
    );
    // frames:1 exhausts physical frames instantly — a deterministic
    // transient-class failure (exit 65), perfect breaker bait.
    let bad = r#"{"app":"gups","smoke":true,"frames":1}"#;
    let r1 = d.request(bad);
    assert_eq!(str_field(&r1, "status"), "failed", "{r1}");
    assert_eq!(json_u64(&r1, &["code"]), 500);
    assert!(
        str_field(&r1, "error").contains("out of physical frames"),
        "{r1}"
    );
    let r2 = d.request(bad);
    assert_eq!(str_field(&r2, "status"), "failed", "{r2}");
    // Two consecutive failures tripped the breaker: no more children.
    let r3 = d.request(bad);
    assert_eq!(str_field(&r3, "status"), "quarantined", "{r3}");
    assert_eq!(json_u64(&r3, &["code"]), 503);

    // Other fingerprints are unaffected.
    let ok = d.request(GUPS);
    assert_eq!(str_field(&ok, "status"), "ok", "{ok}");

    let (_, stats) = d.http_get("/stats");
    assert_eq!(json_u64(&stats, &["requests", "failed_transient"]), 2);
    assert_eq!(json_u64(&stats, &["requests", "quarantined"]), 1);
    assert_eq!(json_u64(&stats, &["breaker", "open"]), 1);

    let (exit, _) = d.stop("-TERM");
    assert_eq!(exit, 0);
}

#[test]
fn sigint_drains_as_cleanly_as_sigterm() {
    let dir = tmpdir("sigint");
    let d = start_daemon(&dir, &["--workers", "1", "--cache-dir", "cache"], &[]);
    let cold = d.request(GUPS);
    assert_eq!(str_field(&cold, "status"), "ok");
    let (exit, stderr) = d.stop("-INT");
    assert_eq!(exit, 0, "stderr: {stderr}");
    let index = dir.join("cache").join("serve-cache.jsonl");
    let (records, skipped) = barre_system::read_journal_lenient(&index).expect("index parses");
    assert_eq!((records.len(), skipped), (1, 0));
}

/// Hostile request lines get a 400 and leave the daemon serving: nesting
/// deep enough to overflow a recursive parser, a 1 MiB string, and lone
/// UTF-16 surrogates. An escaped surrogate pair is one character.
#[test]
fn hostile_lines_get_400s_and_the_daemon_keeps_serving() {
    let dir = tmpdir("hostile");
    let d = start_daemon(&dir, &["--workers", "1"], &[]);

    let deep = d.request(&"[".repeat(200_000));
    assert_eq!(json_u64(&deep, &["code"]), 400, "{deep}");
    assert!(str_field(&deep, "error").contains("nesting"), "{deep}");

    let long_id = format!(r#"{{"app":"gemv","id":"{}"}}"#, "x".repeat(1 << 20));
    let started = std::time::Instant::now();
    let long = d.request(&long_id);
    let took = started.elapsed();
    assert_eq!(json_u64(&long, &["code"]), 400, "{long}");
    assert_eq!(str_field(&long, "error"), "field id longer than 128 bytes");
    assert!(took < Duration::from_secs(2), "1 MiB id took {took:?}");

    for lone in [r#"\ud83d"#, r#"\ude00"#, r#"\ud83dx"#] {
        let resp = d.request(&format!(r#"{{"app":"gemv","smoke":true,"id":"{lone}"}}"#));
        assert_eq!(json_u64(&resp, &["code"]), 400, "{resp}");
        assert!(
            str_field(&resp, "error").contains("unpaired surrogate"),
            "{resp}"
        );
    }

    let ok = d.request(r#"{"app":"gemv","smoke":true,"seed":3,"id":"\ud83d\ude00"}"#);
    assert_eq!(str_field(&ok, "status"), "ok", "{ok}");
    assert_eq!(str_field(&ok, "id"), "\u{1F600}", "{ok}");

    let (exit, stderr) = d.stop("-TERM");
    assert_eq!(exit, 0, "stderr: {stderr}");
    assert!(!stderr.contains("overflow"), "{stderr}");
}

/// The acceptance soak: 1000 mixed requests from 8 client threads
/// against a saturated 2-worker daemon with a small bounded queue.
/// Every request gets exactly one response, no panics, shed counts in
/// /stats match what clients saw, and every `ok` for a given config is
/// byte-identical.
#[test]
fn soak_1000_requests_against_saturated_daemon() {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let dir = tmpdir("soak");
    let d = start_daemon(
        &dir,
        &["--workers", "2", "--queue-cap", "8", "--cache-dir", "cache"],
        &[],
    );

    // Four distinct valid configs; every thread interleaves them with
    // duplicates and ~10% invalid requests.
    let configs: Vec<String> = (0..4)
        .map(|i| {
            format!(
                r#"{{"app":"{}","smoke":true,"seed":{}}}"#,
                ["gups", "gemv"][i % 2],
                i / 2
            )
        })
        .collect();
    let shed_seen = Arc::new(AtomicU64::new(0));
    let addr = d.addr.clone();
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let configs = configs.clone();
        let shed_seen = Arc::clone(&shed_seen);
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let s = TcpStream::connect(&addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(300))).ok();
            let mut r = BufReader::new(s.try_clone().expect("clone"));
            let mut w = s;
            // Per-config responses this thread saw, for identity checks.
            let mut ok_by_cfg: BTreeMap<usize, Vec<String>> = BTreeMap::new();
            let mut answered = 0u64;
            for i in 0..125u64 {
                let pick = ((t + i) % 10) as usize;
                let line = if pick == 9 {
                    // ~10% invalid: unknown app or malformed field.
                    if i % 2 == 0 {
                        r#"{"app":"nosuch"}"#.to_string()
                    } else {
                        r#"{"app":"gups","chiplets":0}"#.to_string()
                    }
                } else {
                    configs[pick % configs.len()].clone()
                };
                writeln!(w, "{line}").expect("send");
                w.flush().expect("flush");
                let mut resp = String::new();
                r.read_line(&mut resp).expect("response");
                let resp = resp.trim_end().to_string();
                assert!(!resp.is_empty(), "empty response");
                answered += 1;
                let status = str_field(&resp, "status");
                match status.as_str() {
                    "ok" => {
                        if pick != 9 {
                            ok_by_cfg
                                .entry(pick % configs.len())
                                .or_default()
                                .push(resp);
                        }
                    }
                    "shed" => {
                        shed_seen.fetch_add(1, Ordering::Relaxed);
                        assert!(json_u64(&resp, &["retry_after_ms"]) >= 1, "{resp}");
                    }
                    "error" => assert_eq!(json_u64(&resp, &["code"]), 400, "{resp}"),
                    other => panic!("unexpected status {other}: {resp}"),
                }
            }
            (answered, ok_by_cfg)
        }));
    }

    // Scrape /metrics while the daemon is saturated: the exposition must
    // stay valid and the scrape must never block behind simulation work.
    for _ in 0..5 {
        let (code, head, body) = d.http_get_full("/metrics");
        assert_eq!(code, 200, "mid-soak scrape failed");
        assert!(
            head.to_lowercase()
                .contains("content-type: text/plain; version=0.0.4"),
            "{head}"
        );
        assert!(
            body.contains("# TYPE barre_serve_requests_received_total counter"),
            "{body}"
        );
        assert!(body.ends_with('\n'), "{body}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut total_answered = 0u64;
    let mut ok_by_cfg: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for h in handles {
        let (answered, per_cfg) = h.join().expect("client thread");
        total_answered += answered;
        for (cfg, responses) in per_cfg {
            ok_by_cfg.entry(cfg).or_default().extend(responses);
        }
    }
    assert_eq!(total_answered, 1000, "every request must be answered");

    // All ok responses for one config — cold or cached, any thread —
    // are byte-identical.
    for (cfg, responses) in &ok_by_cfg {
        assert!(!responses.is_empty());
        for resp in responses {
            assert_eq!(
                resp, &responses[0],
                "config {cfg}: cache-hit response diverged from cold response"
            );
        }
    }

    let (_, stats) = d.http_get("/stats");
    assert_eq!(
        json_u64(&stats, &["requests", "shed"]),
        shed_seen.load(Ordering::Relaxed),
        "daemon shed count must match what clients observed: {stats}"
    );
    assert!(json_u64(&stats, &["queue", "max_depth"]) <= 8, "{stats}");
    assert_eq!(json_u64(&stats, &["requests", "received"]), 1000);
    assert_eq!(json_u64(&stats, &["cache", "entries"]), 4);

    // The final exposition agrees with /stats.
    let (_, metrics) = d.http_get("/metrics");
    assert!(
        metrics.contains("barre_serve_requests_received_total 1000\n"),
        "{metrics}"
    );
    assert!(
        metrics.contains("barre_serve_cache_entries 4\n"),
        "{metrics}"
    );

    let (exit, stderr) = d.stop("-TERM");
    assert_eq!(exit, 0, "stderr: {stderr}");
    assert!(
        !stderr.to_lowercase().contains("panic"),
        "daemon panicked during soak: {stderr}"
    );
    // The flushed index warm-loads: 4 verified entries, nothing skipped.
    let index = dir.join("cache").join("serve-cache.jsonl");
    let (records, skipped) = barre_system::read_journal_lenient(&index).expect("index parses");
    let (verified, dropped) = barre_system::verified_done_index(&records);
    assert_eq!(skipped, 0);
    assert_eq!(dropped, 0);
    assert_eq!(verified.len(), 4);
}
