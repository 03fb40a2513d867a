//! Leveled structured logging as JSONL.
//!
//! One line per event, stable field order:
//!
//! ```text
//! {"ts_ms":1723111845123,"level":"info","component":"queue","event":"restored","jobs":27,"msg":"queue: restored 27 job(s) ..."}
//! ```
//!
//! * `ts_ms` — wall-clock milliseconds since the Unix epoch;
//! * `level`, `component`, `event` — fixed taxonomy fields;
//! * caller-supplied fields (job fingerprints, labels, counts) in the
//!   caller's order;
//! * `msg` — the human-readable message, verbatim, always last.
//!
//! The threshold comes from `BARRE_LOG` (`error`, `warn`, `info`,
//! `debug`, `trace`, `off`; default `info`) and the sink is stderr
//! unless [`set_log_file`] (the daemons' `--log-file` flag) points it at
//! a file. Logging is best-effort: sink errors are swallowed, nothing
//! here panics, and nothing here is called from simulation code.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use barre_trace::json::json_escape;

/// Environment variable controlling the log threshold.
pub const LOG_ENV: &str = "BARRE_LOG";

/// Severity levels, most to least severe. `Off` disables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or operator-visible faults.
    Error = 1,
    /// Degraded but self-healing conditions (lost leases, retries).
    Warn = 2,
    /// Lifecycle events (startup, drain, per-job terminal states).
    Info = 3,
    /// Per-request detail (streaming trace summaries).
    Debug = 4,
    /// Everything, including heartbeats.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a `BARRE_LOG` value; `None` for unknown spellings (which
    /// fall back to the default threshold) and `Some(None)`-like `off`
    /// is mapped to threshold 0 by the caller.
    fn parse(s: &str) -> Option<u8> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(0),
            "error" => Some(Level::Error as u8),
            "warn" | "warning" => Some(Level::Warn as u8),
            "info" => Some(Level::Info as u8),
            "debug" => Some(Level::Debug as u8),
            "trace" => Some(Level::Trace as u8),
            _ => None,
        }
    }
}

/// Threshold not yet resolved from the environment.
const UNINIT: u8 = u8::MAX;

static THRESHOLD: AtomicU8 = AtomicU8::new(UNINIT);
static SINK: Mutex<Option<File>> = Mutex::new(None);

fn threshold() -> u8 {
    let t = THRESHOLD.load(Ordering::Relaxed);
    if t != UNINIT {
        return t;
    }
    let resolved = std::env::var(LOG_ENV)
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Info as u8);
    THRESHOLD.store(resolved, Ordering::Relaxed);
    resolved
}

/// Whether events at `level` currently reach the sink.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= threshold()
}

/// Turns every level off for the rest of the process, whatever
/// `BARRE_LOG` says. For unit tests that drive logging code on purpose:
/// the test harness captures `print!`-family output only, so events
/// written to the stderr sink would land between its progress lines.
pub fn silence() {
    THRESHOLD.store(0, Ordering::Relaxed);
}

/// Redirects the sink from stderr to an append-mode file (`--log-file`).
///
/// # Errors
///
/// A human-readable message when the file cannot be opened.
pub fn set_log_file(path: &Path) -> Result<(), String> {
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open log file {}: {e}", path.display()))?;
    *SINK.lock().unwrap_or_else(PoisonError::into_inner) = Some(file);
    Ok(())
}

/// A structured field value; renders as native JSON.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// A string value (JSON-escaped).
    S(&'a str),
    /// An unsigned integer.
    U(u64),
    /// A signed integer.
    I(i64),
    /// A boolean.
    B(bool),
}

pub(crate) fn push_field(out: &mut String, key: &str, value: &Field<'_>) {
    out.push_str(&json_escape(key));
    out.push(':');
    match value {
        Field::S(s) => out.push_str(&json_escape(s)),
        Field::U(v) => out.push_str(&v.to_string()),
        Field::I(v) => out.push_str(&v.to_string()),
        Field::B(v) => out.push_str(if *v { "true" } else { "false" }),
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before 1970).
pub(crate) fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Renders one log line (no trailing newline) — the pure core of
/// [`log`], separated so tests can pin the exact format.
pub fn render_line(
    ts_ms: u64,
    level: Level,
    component: &str,
    event: &str,
    fields: &[(&str, Field<'_>)],
    msg: &str,
) -> String {
    let mut out = String::with_capacity(96 + msg.len());
    out.push_str("{\"ts_ms\":");
    out.push_str(&ts_ms.to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.as_str());
    out.push_str("\",\"component\":");
    out.push_str(&json_escape(component));
    out.push_str(",\"event\":");
    out.push_str(&json_escape(event));
    for (k, v) in fields {
        out.push(',');
        push_field(&mut out, k, v);
    }
    out.push_str(",\"msg\":");
    out.push_str(&json_escape(msg));
    out.push('}');
    out
}

fn emit(line: &str) {
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(file) = sink.as_mut() {
        let _ = writeln!(file, "{line}");
        return;
    }
    drop(sink);
    let mut err = std::io::stderr().lock();
    let _ = writeln!(err, "{line}");
}

/// Emits one structured event when `level` clears the threshold.
pub fn log(level: Level, component: &str, event: &str, fields: &[(&str, Field<'_>)], msg: &str) {
    if !enabled(level) {
        return;
    }
    emit(&render_line(now_ms(), level, component, event, fields, msg));
}

/// [`log`] at [`Level::Error`].
pub fn error(component: &str, event: &str, fields: &[(&str, Field<'_>)], msg: &str) {
    log(Level::Error, component, event, fields, msg);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(component: &str, event: &str, fields: &[(&str, Field<'_>)], msg: &str) {
    log(Level::Warn, component, event, fields, msg);
}

/// [`log`] at [`Level::Info`].
pub fn info(component: &str, event: &str, fields: &[(&str, Field<'_>)], msg: &str) {
    log(Level::Info, component, event, fields, msg);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(component: &str, event: &str, fields: &[(&str, Field<'_>)], msg: &str) {
    log(Level::Debug, component, event, fields, msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_format_is_stable() {
        let line = render_line(
            42,
            Level::Info,
            "queue",
            "restored",
            &[("jobs", Field::U(27)), ("journal", Field::S("q/x.jsonl"))],
            "queue: restored 27 job(s)",
        );
        assert_eq!(
            line,
            "{\"ts_ms\":42,\"level\":\"info\",\"component\":\"queue\",\
             \"event\":\"restored\",\"jobs\":27,\"journal\":\"q/x.jsonl\",\
             \"msg\":\"queue: restored 27 job(s)\"}"
        );
    }

    #[test]
    fn messages_are_json_escaped() {
        let line = render_line(
            0,
            Level::Error,
            "serve",
            "fail",
            &[("why", Field::S("a\"b\\c\nd"))],
            "tab\there",
        );
        assert!(line.contains("\"why\":\"a\\\"b\\\\c\\nd\""), "{line}");
        assert!(line.contains("\"msg\":\"tab\\there\""), "{line}");
    }

    #[test]
    fn field_kinds_render_as_native_json() {
        let line = render_line(
            1,
            Level::Warn,
            "w",
            "e",
            &[
                ("u", Field::U(7)),
                ("i", Field::I(-3)),
                ("b", Field::B(true)),
            ],
            "",
        );
        assert!(line.contains("\"u\":7,\"i\":-3,\"b\":true"), "{line}");
    }

    #[test]
    fn silence_turns_every_level_off() {
        silence();
        assert!(!enabled(Level::Error));
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("info"), Some(3));
        assert_eq!(Level::parse("WARN"), Some(2));
        assert_eq!(Level::parse("off"), Some(0));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
    }
}
