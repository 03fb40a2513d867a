//! Child processes of the system under test (`barre serve`, `barre
//! queue`, `barre worker`, `barre sweep`) and the plumbing to talk to
//! them from outside: handshake parsing, HTTP probes, signals, and peak
//! memory.
//!
//! Every daemon is owned by a [`Daemon`] guard whose `Drop` sends
//! SIGTERM and waits, so no child outlives the benchmark, even on panic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const SIGTERM: i32 = 15;
const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// Sends SIGTERM to `pid`, ignoring a process that already exited.
fn sigterm(pid: u32) {
    let Ok(pid) = i32::try_from(pid) else {
        return;
    };
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // `pid` is the id of a child this process spawned and has not reaped.
    unsafe {
        kill(pid, SIGTERM);
    }
}

/// Peak resident set size in MB (`ru_maxrss`) of this process
/// (`children == false`), or of the largest of its terminated and reaped
/// descendants (`children == true`).
pub fn max_rss_mb(children: bool) -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 × i64) followed
    // by 14 longs, `ru_maxrss` (KiB) first.
    let mut usage = [0i64; 18];
    let who = if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    };
    // SAFETY: `usage` is a writable buffer of exactly the 144 bytes
    // getrusage(2) fills on 64-bit Linux, and it outlives the call.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc == 0 {
        usage[4] as f64 / 1024.0
    } else {
        0.0
    }
}

/// Path of the `barre` binary built from this checkout: the Cargo target
/// directory (`CARGO_TARGET_DIR`, else `target/`) under `root`.
pub fn barre_binary(root: &Path) -> Result<PathBuf, String> {
    let bin = target_dir(root).join("release").join("barre");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "no barre binary at {}; build it with `cargo build --release -p barre-cli` \
             (benchmark/run.sh does this)",
            bin.display()
        ))
    }
}

/// The Cargo target directory for builds from `root`.
pub fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(d) if !d.is_empty() => root.join(d),
        _ => root.join("target"),
    }
}

/// What a spawned child's stdout is used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stdout {
    /// A daemon announcing `listening on <addr>` as its first line.
    Handshake,
    /// Output collected by [`Daemon::wait_output`].
    Capture,
}

/// A running child owned by the benchmark; SIGTERMed and reaped on drop.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: Option<BufReader<ChildStdout>>,
    /// Address from the `listening on <addr>` handshake (empty for
    /// processes without one).
    pub addr: String,
}

impl Daemon {
    /// Spawns `bin args…` in `cwd` with stderr appended to `log`, waiting
    /// for the handshake line when `stdout` asks for one.
    pub fn spawn<S: AsRef<std::ffi::OsStr> + std::fmt::Debug>(
        bin: &Path,
        args: &[S],
        cwd: &Path,
        envs: &[(&str, &Path)],
        log: &Path,
        stdout: Stdout,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(append(log)?);
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {} {args:?}: {e}", bin.display()))?;
        let mut d = Daemon {
            stdout: child.stdout.take().map(BufReader::new),
            child,
            addr: String::new(),
        };
        if stdout != Stdout::Handshake {
            return Ok(d);
        }
        if let Some(out) = d.stdout.as_mut() {
            let mut line = String::new();
            out.read_line(&mut line)
                .map_err(|e| format!("{args:?}: handshake: {e}"))?;
            d.addr = line
                .trim()
                .strip_prefix("listening on ")
                .ok_or_else(|| format!("{args:?}: bad handshake {line:?}"))?
                .to_string();
        }
        Ok(d)
    }

    /// Spawns `bin args…` in `cwd` with stdout discarded and returns once
    /// its first stderr line (its start-up log record) arrives, with the
    /// time since the spawn. A thread appends that line and the rest of
    /// its stderr to `log`, ending when the child does.
    pub fn spawn_until_logged(
        bin: &Path,
        args: &[&str],
        cwd: &Path,
        envs: &[(&str, &Path)],
        log: &Path,
    ) -> Result<(Daemon, Duration), String> {
        let mut sink = append(log)?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .current_dir(cwd)
            .envs(envs.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {} {args:?}: {e}", bin.display()))?;
        let mut err = BufReader::new(child.stderr.take().ok_or("no stderr pipe")?);
        let d = Daemon {
            child,
            stdout: None,
            addr: String::new(),
        };
        let mut first = String::new();
        err.read_line(&mut first)
            .map_err(|e| format!("{args:?}: first log line: {e}"))?;
        let took = t0.elapsed();
        if first.is_empty() {
            return Err(format!("{args:?}: exited before logging"));
        }
        std::thread::spawn(move || {
            let _ = sink.write_all(first.as_bytes());
            let _ = std::io::copy(&mut err, &mut sink);
        });
        Ok((d, took))
    }

    /// SIGTERMs the process and waits for it; SIGKILL after 20 s.
    /// Returns the exit code (`None` when killed by a signal).
    pub fn stop(mut self) -> Option<i32> {
        self.drain()
    }

    /// Waits for a [`Stdout::Capture`] child to exit on its own:
    /// `(exit code, stdout)`.
    pub fn wait_output(mut self) -> Result<(i32, String), String> {
        let mut out = String::new();
        if let Some(s) = self.stdout.as_mut() {
            s.read_to_string(&mut out).map_err(|e| e.to_string())?;
        }
        let st = self.child.wait().map_err(|e| e.to_string())?;
        Ok((st.code().unwrap_or(-1), out))
    }

    fn drain(&mut self) -> Option<i32> {
        if let Ok(Some(st)) = self.child.try_wait() {
            return st.code();
        }
        sigterm(self.child.id());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(st)) => {
                    if let Some(out) = self.stdout.as_mut() {
                        let mut rest = Vec::new();
                        let _ = out.read_to_end(&mut rest);
                    }
                    return st.code();
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return None;
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.drain();
    }
}

/// `path` opened for appending, created if missing.
fn append(path: &Path) -> Result<std::fs::File, String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))
}

/// One HTTP/1.1 GET against a daemon's shim: `(status, body)`.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").map_err(|e| e.to_string())?;
    let mut doc = String::new();
    s.read_to_string(&mut doc).map_err(|e| e.to_string())?;
    let code = doc
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad HTTP response from {addr}{path}"))?;
    let body = doc
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((code, body))
}

/// Polls `GET /readyz` until it answers 200 (10 s budget).
pub fn wait_ready(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = http_get(addr, "/readyz") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The value of an unlabeled sample `name` in Prometheus text exposition.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == name).then(|| v.trim().parse().ok())?
    })
}

/// Runs `bin args…` to completion in `cwd`, returning (exit code,
/// stdout) and the wall time it took. Stderr goes to `log`.
pub fn run_to_end(
    bin: &Path,
    args: &[String],
    cwd: &Path,
    log: &Path,
) -> Result<(i32, String, Duration), String> {
    let t0 = Instant::now();
    let (code, out) = Daemon::spawn(bin, args, cwd, &[], log, Stdout::Capture)?.wait_output()?;
    Ok((code, out, t0.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_values_are_found_by_exact_name() {
        let text = "# HELP x y\nbarre_a_total 3\nbarre_a_total_more 9\nbarre_h_sum 12.5\n";
        assert_eq!(prom_value(text, "barre_a_total"), Some(3.0));
        assert_eq!(prom_value(text, "barre_h_sum"), Some(12.5));
        assert_eq!(prom_value(text, "missing"), None);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(max_rss_mb(false) > 0.0);
    }
}
