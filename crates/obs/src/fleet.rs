//! Cross-process fleet tracing: per-process span-event JSONL plus the
//! correlation-id plumbing that stitches a distributed sweep together.
//!
//! When `BARRE_FLEET_TRACE=<dir>` is set, each fleet process (dispatch
//! client, queue coordinator, worker, serve daemon) appends point
//! events to its own `<dir>/fleet-<role>-<pid>.trace.jsonl`:
//!
//! ```text
//! {"ts_ms":1723111845123,"role":"worker","pid":4242,"event":"attempt_start","corr":"c9f2...","fp":"ab12...","label":"gups/barre"}
//! ```
//!
//! A correlation id minted by the dispatch client ([`corr_id`]) rides
//! the wire protocol to the coordinator, comes back with each lease,
//! and reaches the simulating child through the `BARRE_CORR_ID`
//! environment variable — never through any journal, so every
//! byte-identity contract on journals and stdout is untouched.
//! `barre report --fleet <dirs…>` groups the events by job fingerprint
//! and renders one Perfetto timeline from them.
//!
//! Like the rest of this crate, tracing is best-effort: an unwritable
//! directory silently disables it.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use barre_trace::json::json_escape;

use crate::log::{now_ms, push_field, Field};

/// Environment variable naming the fleet-trace output directory.
pub const FLEET_TRACE_ENV: &str = "BARRE_FLEET_TRACE";

/// Environment variable carrying a job's correlation id into the
/// simulating child process.
pub const CORR_ENV: &str = "BARRE_CORR_ID";

/// Per-invocation counter folded into [`corr_id`] so ids minted in the
/// same nanosecond stay distinct.
static CORR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Mints a correlation id: `c` + 16 hex digits, FNV-1a over the pid,
/// the wall clock, and a process-local counter. Not cryptographic —
/// just unique enough to join trace events across a fleet.
pub fn corr_id() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let seq = CORR_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    fold(&std::process::id().to_le_bytes());
    fold(&nanos.to_le_bytes());
    fold(&seq.to_le_bytes());
    format!("c{h:016x}")
}

/// A handle appending span events to this process's fleet-trace file.
#[derive(Debug)]
pub struct FleetTracer {
    role: String,
    pid: u32,
    file: Mutex<File>,
}

impl FleetTracer {
    /// Opens the tracer for `role` when `BARRE_FLEET_TRACE` names a
    /// directory; `None` (tracing disabled) otherwise, or when the
    /// directory cannot be created or the file cannot be opened.
    pub fn from_env(role: &str) -> Option<FleetTracer> {
        let dir = std::env::var(FLEET_TRACE_ENV)
            .ok()
            .filter(|d| !d.is_empty())?;
        Self::open(Path::new(&dir), role)
    }

    /// Opens the tracer writing under `dir` (used directly by tests).
    pub fn open(dir: &Path, role: &str) -> Option<FleetTracer> {
        std::fs::create_dir_all(dir).ok()?;
        let pid = std::process::id();
        let path = dir.join(format!("fleet-{role}-{pid}.trace.jsonl"));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .ok()?;
        Some(FleetTracer {
            role: role.to_string(),
            pid,
            file: Mutex::new(file),
        })
    }

    /// Appends one point event. `corr` may be empty when the id is not
    /// known at this point (e.g. a lease for a job submitted without
    /// one); the stitcher falls back to joining on `fp`.
    pub fn event(&self, event: &str, corr: &str, fields: &[(&str, Field<'_>)]) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"ts_ms\":");
        line.push_str(&now_ms().to_string());
        line.push_str(",\"role\":");
        line.push_str(&json_escape(&self.role));
        line.push_str(",\"pid\":");
        line.push_str(&self.pid.to_string());
        line.push_str(",\"event\":");
        line.push_str(&json_escape(event));
        if !corr.is_empty() {
            line.push(',');
            push_field(&mut line, "corr", &Field::S(corr));
        }
        for (k, v) in fields {
            line.push(',');
            push_field(&mut line, k, v);
        }
        line.push('}');
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(file, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corr_ids_are_distinct_and_well_formed() {
        let a = corr_id();
        let b = corr_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 17, "{id}");
            assert!(id.starts_with('c'), "{id}");
            assert!(id[1..].chars().all(|c| c.is_ascii_hexdigit()), "{id}");
        }
    }

    #[test]
    fn events_append_as_jsonl() {
        let dir = std::env::temp_dir().join(format!("barre-fleet-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = FleetTracer::open(&dir, "worker").expect("open tracer");
        t.event(
            "attempt_start",
            "c0123456789abcdef",
            &[("fp", Field::S("ab12")), ("label", Field::S("gups/barre"))],
        );
        t.event("attempt_end", "", &[("fp", Field::S("ab12"))]);
        let path = dir.join(format!("fleet-worker-{}.trace.jsonl", std::process::id()));
        let body = std::fs::read_to_string(path).expect("read trace");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "{body}");
        assert!(
            lines[0].contains("\"event\":\"attempt_start\"")
                && lines[0].contains("\"corr\":\"c0123456789abcdef\"")
                && lines[0].contains("\"label\":\"gups/barre\""),
            "{}",
            lines[0]
        );
        // An empty corr id is omitted entirely, not rendered as "".
        assert!(!lines[1].contains("corr"), "{}", lines[1]);
    }
}
