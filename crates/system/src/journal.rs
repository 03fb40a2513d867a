//! The write-ahead run journal behind `barre sweep --resume` and
//! `barre merge`.
//!
//! A supervised sweep appends one record per job transition to an
//! append-only JSONL file (`sweep.journal.jsonl`): a `start` record
//! *before* each attempt is dispatched (the write-ahead part), then a
//! terminal `done` or `failed` record carrying the attempt count, exit
//! status, a fingerprint identifying the job spec, and — for `done` —
//! the full [`RunMetrics`] plus a digest over their canonical JSON
//! encoding. Because the metrics round-trip exactly (every counter and
//! both histograms), a resumed sweep renders output byte-identical to an
//! uninterrupted run, and `barre merge` can fold per-shard journals into
//! one trajectory while detecting digest conflicts.
//!
//! Everything here is hand-rolled so the workspace keeps its
//! zero-dependency, offline build; JSON goes through the shared reader
//! and escaper in [`barre_trace::json`], re-exported here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use barre_sim::Histogram;

use crate::metrics::RunMetrics;

/// The shared JSON reader and string escaper, re-exported for callers
/// that reach them through the journal.
pub use barre_trace::json::{json_escape, Json};

/// Default file name of the journal inside a journal directory.
pub const JOURNAL_FILE: &str = "sweep.journal.jsonl";

/// Resolves a journal path option to the journal file: a path ending in
/// `.jsonl` is used as-is, anything else is treated as the journal
/// directory and gets [`JOURNAL_FILE`] appended.
pub fn journal_file_of(path: &Path) -> PathBuf {
    if path.extension().is_some_and(|e| e == "jsonl") {
        path.to_path_buf()
    } else {
        path.join(JOURNAL_FILE)
    }
}

/// Why a journal could not be read, parsed, or written.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (open/append/flush/read).
    Io(String),
    /// A record line that is not valid journal JSON. Carries the 1-based
    /// line number. A malformed *final* line is tolerated by
    /// [`read_journal`] (a crash mid-append truncates exactly there);
    /// malformed interior lines are corruption and surface as this.
    Malformed {
        /// 1-based line number of the bad record.
        line: usize,
        /// What was wrong with it.
        why: String,
    },
    /// Two shards carry `done` records for the same fingerprint with
    /// different metrics digests — the shards were produced by different
    /// binaries/configs and must not be merged silently.
    Conflict {
        /// Job fingerprint both shards claim to have completed.
        fingerprint: String,
        /// Human label of the conflicting job.
        label: String,
        /// Digest recorded by the first shard.
        digest_a: String,
        /// Digest recorded by the second shard.
        digest_b: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Malformed { line, why } => {
                write!(f, "malformed journal record at line {line}: {why}")
            }
            JournalError::Conflict {
                fingerprint,
                label,
                digest_a,
                digest_b,
            } => write!(
                f,
                "merge conflict on {label} ({fingerprint}): digests {digest_a} != {digest_b}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Fingerprints and digests
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over `bytes` — the journal's stable, dependency-free
/// hash for job fingerprints and metrics digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv_feed(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`.
fn fnv_feed(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes an ordered list of string parts (length-prefixed so `["ab",
/// "c"]` and `["a", "bc"]` differ) into a 16-hex-digit fingerprint.
pub fn fingerprint(parts: &[&str]) -> String {
    let mut buf = Vec::new();
    for p in parts {
        buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
        buf.extend_from_slice(p.as_bytes());
    }
    format!("{:016x}", fnv64(&buf))
}

/// Digest of a run's metrics: FNV-1a over the canonical JSON encoding.
/// Two runs with equal digests produced byte-identical [`RunMetrics`].
pub fn metrics_digest(m: &RunMetrics) -> String {
    format!("{:016x}", fnv64(metrics_to_json(m).as_bytes()))
}

/// Digest of a run's latency-shape evidence: FNV-1a over the canonical
/// JSON of the ATS-latency and VPN-gap histograms only. Two runs with
/// equal hist digests saw identical latency/locality *distributions*,
/// even if scalar counters differ — the signal `barre report` uses to
/// spot drift between sweep shards.
pub fn metrics_hist_digest(m: &RunMetrics) -> String {
    metrics_text_digests(&metrics_to_json(m)).1
}

/// `(digest, hist_digest)` of a metrics JSON text, taken over the text
/// itself: the metrics digest over all of it, the hist digest over its
/// `"ats_latency"` and `"vpn_gap"` values joined by `|`. For the text
/// [`metrics_to_json`] renders of `m` they equal [`metrics_digest`] and
/// [`metrics_hist_digest`] of `m`, with nothing encoded again.
pub fn metrics_text_digests(metrics_json: &str) -> (String, String) {
    // A histogram's JSON is a flat object: its value ends at the first `}`.
    let value = |key: &str| {
        let at = metrics_json
            .find(key)
            .map_or(metrics_json.len(), |i| i + key.len());
        let rest = metrics_json.get(at..).unwrap_or_default();
        rest.find('}')
            .and_then(|end| rest.get(..=end))
            .unwrap_or_default()
    };
    let ats = fnv_feed(fnv64(value(",\"ats_latency\":").as_bytes()), b"|");
    let hist = fnv_feed(ats, value(",\"vpn_gap\":").as_bytes());
    (
        format!("{:016x}", fnv64(metrics_json.as_bytes())),
        format!("{hist:016x}"),
    )
}

// ---------------------------------------------------------------------------
// RunMetrics <-> JSON
// ---------------------------------------------------------------------------

/// Appends `h`'s canonical JSON to `out`.
fn write_histogram(out: &mut String, h: &Histogram) {
    out.push_str("{\"buckets\":[");
    for (i, b) in h.raw_buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    let _ = write!(
        out,
        "],\"count\":{},\"sum\":{},\"max\":{}}}",
        h.count(),
        h.sum(),
        h.max()
    );
}

fn histogram_from_json(v: &Json) -> Result<Histogram, String> {
    let buckets = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram missing buckets")?
        .iter()
        .map(|b| b.as_u64().ok_or("non-integer bucket"))
        .collect::<Result<Vec<u64>, _>>()?;
    let count = v
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("histogram missing count")?;
    let sum = v
        .get("sum")
        .and_then(Json::as_u128)
        .ok_or("histogram missing sum")?;
    let max = v
        .get("max")
        .and_then(Json::as_u64)
        .ok_or("histogram missing max")?;
    Ok(Histogram::from_raw(buckets, count, sum, max))
}

/// Every `u64` counter field of [`RunMetrics`], in struct order, as
/// `(name, getter)` — the single source of truth both serialization
/// directions share.
macro_rules! metrics_u64_fields {
    ($m:ident, $f:ident) => {
        $f!($m, total_cycles);
        $f!($m, warp_instructions);
        $f!($m, warp_mem_instructions);
        $f!($m, l1_tlb_lookups);
        $f!($m, l1_tlb_misses);
        $f!($m, l2_tlb_lookups);
        $f!($m, l2_tlb_misses);
        $f!($m, ats_requests);
        $f!($m, walks);
        $f!($m, coalesced_translations);
        $f!($m, intra_mcm_translations);
        $f!($m, lcf_translations);
        $f!($m, peer_probes);
        $f!($m, peer_probe_nacks);
        $f!($m, l1_peer_hits);
        $f!($m, prefetches);
        $f!($m, filter_updates_sent);
        $f!($m, filter_updates_dropped);
        $f!($m, remote_data_accesses);
        $f!($m, data_accesses);
        $f!($m, migrations);
        $f!($m, page_faults);
        $f!($m, demand_pages_mapped);
        $f!($m, gmmu_remote_walks);
        $f!($m, gmmu_local_walks);
        $f!($m, pcie_bytes);
        $f!($m, mesh_bytes);
        $f!($m, ptw_busy_cycles);
        $f!($m, pw_queue_rejections);
        $f!($m, rcf_remote_attempts);
        $f!($m, rcf_remote_hits);
        $f!($m, lcf_true_hits);
        $f!($m, lcf_hits);
        $f!($m, faults_injected);
        $f!($m, ats_retries);
        $f!($m, ats_timeouts);
        $f!($m, fallback_translations);
        $f!($m, watchdog_fired);
        $f!($m, events_processed);
    };
}

/// Renders a run's metrics as one line of canonical JSON — fixed field
/// order, no whitespace — so equal metrics always produce equal bytes
/// (the property [`metrics_digest`] relies on).
pub fn metrics_to_json(m: &RunMetrics) -> String {
    let mut s = String::with_capacity(1024);
    s.push('{');
    macro_rules! emit {
        ($m:ident, $field:ident) => {
            let _ = write!(s, concat!("\"", stringify!($field), "\":{},"), $m.$field);
        };
    }
    metrics_u64_fields!(m, emit);
    s.push_str("\"ats_latency\":");
    write_histogram(&mut s, &m.ats_latency);
    s.push_str(",\"vpn_gap\":");
    write_histogram(&mut s, &m.vpn_gap);
    s.push('}');
    s
}

/// Parses metrics previously rendered by [`metrics_to_json`]. Strict:
/// every field must be present with the right type, so a journal written
/// by a binary with a different `RunMetrics` shape is rejected rather
/// than silently zero-filled.
///
/// # Errors
///
/// A description of the first missing or ill-typed field.
pub fn metrics_from_json(src: &str) -> Result<RunMetrics, String> {
    let v = Json::parse(src)?;
    metrics_from_value(&v)
}

/// [`metrics_from_json`] on an already-parsed [`Json`] value.
///
/// # Errors
///
/// A description of the first missing or ill-typed field.
pub fn metrics_from_value(v: &Json) -> Result<RunMetrics, String> {
    let mut m = RunMetrics::default();
    macro_rules! take {
        ($m:ident, $field:ident) => {
            $m.$field = v
                .get(stringify!($field))
                .and_then(Json::as_u64)
                .ok_or(concat!("missing or non-integer field ", stringify!($field)))?;
        };
    }
    metrics_u64_fields!(m, take);
    m.ats_latency = histogram_from_json(v.get("ats_latency").ok_or("missing ats_latency")?)?;
    m.vpn_gap = histogram_from_json(v.get("vpn_gap").ok_or("missing vpn_gap")?)?;
    // Completeness guard: a field added to RunMetrics without updating
    // `metrics_u64_fields!` would round-trip as zero and silently break
    // resume byte-identity. Destructuring without `..` turns that drift
    // into a compile error instead.
    let RunMetrics {
        total_cycles: _,
        warp_instructions: _,
        warp_mem_instructions: _,
        l1_tlb_lookups: _,
        l1_tlb_misses: _,
        l2_tlb_lookups: _,
        l2_tlb_misses: _,
        ats_requests: _,
        walks: _,
        coalesced_translations: _,
        intra_mcm_translations: _,
        lcf_translations: _,
        peer_probes: _,
        peer_probe_nacks: _,
        l1_peer_hits: _,
        prefetches: _,
        filter_updates_sent: _,
        filter_updates_dropped: _,
        remote_data_accesses: _,
        data_accesses: _,
        migrations: _,
        page_faults: _,
        demand_pages_mapped: _,
        gmmu_remote_walks: _,
        gmmu_local_walks: _,
        ats_latency: _,
        vpn_gap: _,
        pcie_bytes: _,
        mesh_bytes: _,
        ptw_busy_cycles: _,
        pw_queue_rejections: _,
        rcf_remote_attempts: _,
        rcf_remote_hits: _,
        lcf_true_hits: _,
        lcf_hits: _,
        faults_injected: _,
        ats_retries: _,
        ats_timeouts: _,
        fallback_translations: _,
        watchdog_fired: _,
        events_processed: _,
    } = &m;
    Ok(m)
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

/// What happened to a job, as recorded in the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// Appended *before* an attempt is dispatched (write-ahead): if the
    /// supervisor dies here, resume sees an unfinished job and reruns it.
    Start {
        /// 1-based attempt number about to run.
        attempt: u32,
    },
    /// The job completed; its metrics are stored for replay.
    Done {
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
        /// Exit status of the successful attempt (normally `"ok"`).
        exit: String,
        /// [`metrics_digest`] of `metrics`.
        digest: String,
        /// [`metrics_hist_digest`] of `metrics` — latency/locality
        /// distribution fingerprint. `None` on records written by
        /// older supervisors; readers must tolerate its absence.
        hist_digest: Option<String>,
        /// Identity of the worker (queue worker name, or
        /// `$BARRE_WORKER_ID` for supervised sweeps) that produced the
        /// result. `None` on records written by older binaries or
        /// unattributed runs; readers must tolerate its absence —
        /// the same migration contract as `hist_digest`.
        worker: Option<String>,
        /// The run's full metrics.
        metrics: Box<RunMetrics>,
    },
    /// The job exhausted its retries (or failed permanently).
    Failed {
        /// Attempts consumed.
        attempts: u32,
        /// Exit status of the last attempt (`"exit:N"`, `"signal:N"`,
        /// `"timeout"`, `"spawn:…"`).
        exit: String,
        /// Path of the per-job state-dump file, when one was written
        /// (watchdog fire, timeout, or any captured crash output).
        dump: Option<String>,
    },
    /// The job was accepted by a queue coordinator (write-ahead: the
    /// full child argv is stored so a restarted coordinator can rebuild
    /// the job list from its journal alone).
    Queued {
        /// Child argv to execute (includes `--job-index`).
        args: Vec<String>,
    },
    /// A queue coordinator granted a time-bounded lease on the job.
    Leased {
        /// Name of the worker holding the lease.
        worker: String,
        /// 1-based lease number (how many leases this job has consumed,
        /// including this one).
        lease: u32,
    },
    /// The job burned through the coordinator's lease budget and was
    /// quarantined as a poison job — reported, never retried again.
    Quarantined {
        /// Leases consumed before quarantine.
        leases: u32,
        /// Exit status of the last observed attempt (`"timeout"`,
        /// `"signal:N"`, `"lease-expired"`, …).
        exit: String,
    },
}

/// One journal line: which job, and what happened to it.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Stable identity of the job spec ([`fingerprint`] over the child
    /// command line, job index, and label).
    pub fingerprint: String,
    /// Human-readable job label (`"gups/fbarre"`, `"gups/drop=0.01"`).
    pub label: String,
    /// The transition being recorded.
    pub event: JournalEvent,
}

impl JournalRecord {
    /// The `done` record of a successful run (exit `"ok"`), its `digest`
    /// and `hist_digest` computed here over `metrics`.
    pub fn done(
        fingerprint: &str,
        label: &str,
        attempts: u32,
        worker: Option<String>,
        metrics: Box<RunMetrics>,
    ) -> JournalRecord {
        let (digest, hist_digest) = metrics_text_digests(&metrics_to_json(&metrics));
        JournalRecord {
            fingerprint: fingerprint.to_string(),
            label: label.to_string(),
            event: JournalEvent::Done {
                attempts,
                exit: "ok".to_string(),
                digest,
                hist_digest: Some(hist_digest),
                worker,
                metrics,
            },
        }
    }

    /// Whether this is a `done` record whose stored `digest` (and
    /// `hist_digest`, when present) match recomputation over its own
    /// metrics. A parseable record that fails is bit-rot or a corrupt
    /// transmission, and serving it would break byte identity.
    pub fn verified(&self) -> bool {
        match &self.event {
            JournalEvent::Done {
                digest,
                hist_digest,
                metrics,
                ..
            } => {
                let (want, want_hist) = metrics_text_digests(&metrics_to_json(metrics));
                *digest == want && hist_digest.as_ref().is_none_or(|h| *h == want_hist)
            }
            _ => false,
        }
    }

    /// Renders the record as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let head = format!(
            "\"fingerprint\":{},\"label\":{}",
            json_escape(&self.fingerprint),
            json_escape(&self.label)
        );
        match &self.event {
            JournalEvent::Start { attempt } => {
                format!("{{\"event\":\"start\",{head},\"attempt\":{attempt}}}")
            }
            JournalEvent::Done {
                attempts,
                exit,
                digest,
                hist_digest,
                worker,
                metrics,
            } => done_line(
                &head,
                *attempts,
                exit,
                digest,
                hist_digest.as_deref(),
                worker.as_deref(),
                &metrics_to_json(metrics),
            ),
            JournalEvent::Failed {
                attempts,
                exit,
                dump,
            } => {
                let dump = match dump {
                    Some(p) => format!(",\"dump\":{}", json_escape(p)),
                    None => String::new(),
                };
                format!(
                    "{{\"event\":\"failed\",{head},\"attempts\":{attempts},\"exit\":{}{dump}}}",
                    json_escape(exit)
                )
            }
            JournalEvent::Queued { args } => {
                let args: Vec<String> = args.iter().map(|a| json_escape(a)).collect();
                format!(
                    "{{\"event\":\"queued\",{head},\"args\":[{}]}}",
                    args.join(",")
                )
            }
            JournalEvent::Leased { worker, lease } => {
                format!(
                    "{{\"event\":\"leased\",{head},\"worker\":{},\"lease\":{lease}}}",
                    json_escape(worker)
                )
            }
            JournalEvent::Quarantined { leases, exit } => {
                format!(
                    "{{\"event\":\"quarantined\",{head},\"leases\":{leases},\"exit\":{}}}",
                    json_escape(exit)
                )
            }
        }
    }

    /// Parses one JSONL line back into a record.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem.
    pub fn from_line(line: &str) -> Result<JournalRecord, String> {
        let v = Json::parse(line)?;
        let field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing field {k}"))
        };
        let attempts = |k: &str| -> Result<u32, String> {
            let n = v
                .get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing field {k}"))?;
            u32::try_from(n).map_err(|_| format!("field {k} out of range"))
        };
        let fingerprint = field("fingerprint")?;
        let label = field("label")?;
        let event = match field("event")?.as_str() {
            "start" => JournalEvent::Start {
                attempt: attempts("attempt")?,
            },
            "done" => JournalEvent::Done {
                attempts: attempts("attempts")?,
                exit: field("exit")?,
                digest: field("digest")?,
                hist_digest: v
                    .get("hist_digest")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                worker: v.get("worker").and_then(Json::as_str).map(str::to_string),
                metrics: Box::new(metrics_from_value(
                    v.get("metrics").ok_or("missing metrics")?,
                )?),
            },
            "failed" => JournalEvent::Failed {
                attempts: attempts("attempts")?,
                exit: field("exit")?,
                dump: v.get("dump").and_then(Json::as_str).map(str::to_string),
            },
            "queued" => JournalEvent::Queued {
                args: v
                    .get("args")
                    .and_then(Json::as_arr)
                    .ok_or("missing field args")?
                    .iter()
                    .map(|a| {
                        a.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "non-string queued arg".to_string())
                    })
                    .collect::<Result<Vec<String>, String>>()?,
            },
            "leased" => JournalEvent::Leased {
                worker: field("worker")?,
                lease: attempts("lease")?,
            },
            "quarantined" => JournalEvent::Quarantined {
                leases: attempts("leases")?,
                exit: field("exit")?,
            },
            other => return Err(format!("unknown event {other}")),
        };
        Ok(JournalRecord {
            fingerprint,
            label,
            event,
        })
    }
}

/// The line of a `done` record: the one layout [`JournalRecord::to_line`]
/// and [`DoneLine::to_line`] write. `head` holds the fingerprint and
/// label members.
fn done_line(
    head: &str,
    attempts: u32,
    exit: &str,
    digest: &str,
    hist_digest: Option<&str>,
    worker: Option<&str>,
    metrics_json: &str,
) -> String {
    let mut s = String::with_capacity(metrics_json.len() + head.len() + 128);
    let _ = write!(
        s,
        "{{\"event\":\"done\",{head},\"attempts\":{attempts},\"exit\":{},\"digest\":{}",
        json_escape(exit),
        json_escape(digest)
    );
    if let Some(h) = hist_digest {
        let _ = write!(s, ",\"hist_digest\":{}", json_escape(h));
    }
    if let Some(w) = worker {
        let _ = write!(s, ",\"worker\":{}", json_escape(w));
    }
    s.push_str(",\"metrics\":");
    s.push_str(metrics_json);
    s.push('}');
    s
}

/// A `done` line read in place, its fields borrowed from the line: the
/// record a reader can check and serve without decoding its metrics.
///
/// [`DoneLine::parse`] accepts only the exact layout
/// [`JournalRecord::to_line`] writes for a record with a `hist_digest`
/// and no `worker`, with no escape sequence in any string; it declines
/// every other line, which the caller then decodes with
/// [`JournalRecord::from_line`]. [`DoneLine::verified`] hashes the
/// line's own metrics text: the digest was taken over the canonical
/// encoding of the metrics, so a text that matches it is that encoding,
/// and the record decodes to the same digests and the same
/// [`metrics_to_json`] text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneLine<'a> {
    /// The record's fingerprint.
    pub fingerprint: &'a str,
    /// The record's label.
    pub label: &'a str,
    /// Attempts consumed.
    pub attempts: u32,
    /// Exit status of the successful attempt.
    pub exit: &'a str,
    /// The stored [`metrics_digest`].
    pub digest: &'a str,
    /// The stored [`metrics_hist_digest`].
    pub hist_digest: &'a str,
    /// The metrics as stored: canonical JSON once [`Self::verified`].
    pub metrics: &'a str,
}

/// A JSON string at the start of `s` that holds no escape and no control
/// character, so its text is its value, and what follows it.
fn plain_string(s: &str) -> Option<(&str, &str)> {
    let s = s.strip_prefix('"')?;
    let end = s.find(|c: char| c == '"' || c == '\\' || c < ' ')?;
    let rest = s.get(end..)?.strip_prefix('"')?;
    Some((s.get(..end)?, rest))
}

/// A `u32` in its shortest decimal spelling at the start of `s`, and
/// what follows it.
fn plain_u32(s: &str) -> Option<(u32, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let digits = s.get(..end)?;
    if digits.len() > 1 && digits.starts_with('0') {
        return None;
    }
    Some((digits.parse().ok()?, s.get(end..)?))
}

impl<'a> DoneLine<'a> {
    /// Reads `line` in place, or `None` when it is not a `done` line in
    /// the exact layout [`JournalRecord::to_line`] writes with a
    /// `hist_digest`, no `worker` and no escaped string. Checks nothing
    /// inside the metrics text; see [`Self::verified`].
    pub fn parse(line: &'a str) -> Option<DoneLine<'a>> {
        let rest = line.strip_prefix("{\"event\":\"done\",\"fingerprint\":")?;
        let (fingerprint, rest) = plain_string(rest)?;
        let (label, rest) = plain_string(rest.strip_prefix(",\"label\":")?)?;
        let (attempts, rest) = plain_u32(rest.strip_prefix(",\"attempts\":")?)?;
        let (exit, rest) = plain_string(rest.strip_prefix(",\"exit\":")?)?;
        let (digest, rest) = plain_string(rest.strip_prefix(",\"digest\":")?)?;
        let (hist_digest, rest) = plain_string(rest.strip_prefix(",\"hist_digest\":")?)?;
        let metrics = rest.strip_prefix(",\"metrics\":")?.strip_suffix('}')?;
        Some(DoneLine {
            fingerprint,
            label,
            attempts,
            exit,
            digest,
            hist_digest,
            metrics,
        })
    }

    /// Whether the stored digests match [`metrics_text_digests`] of the
    /// stored metrics text, the check [`JournalRecord::verified`] makes
    /// after a decode.
    pub fn verified(&self) -> bool {
        let (digest, hist_digest) = metrics_text_digests(self.metrics);
        self.digest == digest && self.hist_digest == hist_digest
    }

    /// Renders the line; [`Self::parse`] of a line it rendered gives back
    /// the same fields whenever no string needed an escape.
    pub fn to_line(&self) -> String {
        let head = format!(
            "\"fingerprint\":{},\"label\":{}",
            json_escape(self.fingerprint),
            json_escape(self.label)
        );
        done_line(
            &head,
            self.attempts,
            self.exit,
            self.digest,
            Some(self.hist_digest),
            None,
            self.metrics,
        )
    }
}

/// An append-only journal file handle, safe to share across the
/// supervisor's worker threads. Every append flushes, so a record is on
/// disk before the result it describes is consumed.
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<fs::File>,
}

impl JournalWriter {
    /// Opens (creating or appending to) the journal at `path`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be opened.
    pub fn open(path: &Path) -> Result<JournalWriter, JournalError> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JournalWriter {
            file: Mutex::new(file),
        })
    }

    /// Appends one record and flushes it to disk.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write or flush fails.
    pub fn append(&self, rec: &JournalRecord) -> Result<(), JournalError> {
        let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        writeln!(f, "{}", rec.to_line())?;
        f.flush()?;
        Ok(())
    }
}

/// Reads every record of the journal at `path`, in file order.
///
/// A malformed or truncated *final* line is tolerated and dropped — that
/// is exactly the state a crash mid-append leaves behind, and the
/// write-ahead discipline means the dropped record described work that
/// will simply be redone. Malformed interior lines are corruption and
/// error out.
///
/// # Errors
///
/// [`JournalError::Io`] / [`JournalError::Malformed`].
pub fn read_journal(path: &Path) -> Result<Vec<JournalRecord>, JournalError> {
    let text = fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = Vec::with_capacity(lines.len());
    for (idx, line) in lines.iter().enumerate() {
        match JournalRecord::from_line(line) {
            Ok(rec) => out.push(rec),
            Err(why) if idx + 1 == lines.len() => {
                // Torn tail from a crash mid-append; resume redoes it.
                let _ = why;
            }
            Err(why) => return Err(JournalError::Malformed { line: idx + 1, why }),
        }
    }
    Ok(out)
}

/// Reads the journal at `path` *leniently*: malformed lines anywhere in
/// the file are skipped (and counted) instead of erroring out.
///
/// This is the corruption-tolerant reader behind the `barre serve`
/// cache-index loader, where the right response to a damaged record is
/// to drop it and recompute — the strict [`read_journal`] stays the
/// right tool for `--resume`/`merge`, where interior corruption must
/// surface rather than silently shrink a campaign.
///
/// # Errors
///
/// [`JournalError::Io`] only; parse failures never error. Even invalid
/// UTF-8 (bit rot inside a record) is decoded lossily so the damage
/// stays confined to the lines it touched.
pub fn read_journal_lenient(path: &Path) -> Result<(Vec<JournalRecord>, usize), JournalError> {
    let bytes = fs::read(path)?;
    let text = String::from_utf8_lossy(&bytes);
    let mut out = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match JournalRecord::from_line(line) {
            Ok(rec) => out.push(rec),
            Err(_) => skipped = skipped.saturating_add(1),
        }
    }
    Ok((out, skipped))
}

/// Folds records into a digest-*verified* completed index: fingerprint →
/// last `Done` record that [`JournalRecord::verified`] accepts. `Done`
/// records that fail verification are dropped and counted.
pub fn verified_done_index(records: &[JournalRecord]) -> (BTreeMap<String, JournalRecord>, usize) {
    let mut index = BTreeMap::new();
    let mut dropped = 0usize;
    for rec in records {
        if rec.verified() {
            index.insert(rec.fingerprint.clone(), rec.clone());
        } else if matches!(rec.event, JournalEvent::Done { .. }) {
            dropped = dropped.saturating_add(1);
        }
    }
    (index, dropped)
}

/// A sweep job that ended without a result: its `failed` or
/// `quarantined` terminal record, as the sweep reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Human label (`"gups/fbarre"`).
    pub label: String,
    /// Exit class of the last attempt (`"exit:65"`, `"signal:9"`,
    /// `"timeout"`, `"lease-expired"`).
    pub exit: String,
    /// Attempts consumed; leases for a quarantined job.
    pub attempts: u32,
    /// State-dump file of a failed job, when one was written.
    pub dump: Option<String>,
    /// Whether a queue coordinator quarantined the job as poison.
    pub quarantined: bool,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let JobFailure {
            label,
            exit,
            attempts,
            dump,
            quarantined,
        } = self;
        if *quarantined {
            return write!(
                f,
                "POISON {label} quarantined after {attempts} lease(s): {exit}"
            );
        }
        write!(f, "FAILED {label} after {attempts} attempt(s): {exit}")?;
        if let Some(d) = dump {
            write!(f, " (state dump: {d})")?;
        }
        Ok(())
    }
}

/// A sweep's terminal records, folded in job order.
#[derive(Debug, Default, PartialEq)]
pub struct SweepOutcome {
    /// Per-job metrics in job order; `None` for a job that failed or did
    /// not finish.
    pub results: Vec<Option<RunMetrics>>,
    /// Jobs that failed or were quarantined, in job order.
    pub failures: Vec<JobFailure>,
    /// Jobs without a terminal record: skipped or cut short by a drain.
    pub unfinished: usize,
}

/// Folds a sweep's terminal records into its outcome: `records[i]` is
/// the terminal record of the job whose fingerprint is
/// `fingerprints[i]`, or `None` when that job did not finish. Supervised
/// and dispatched sweeps both report through this one fold.
///
/// # Errors
///
/// A record count other than the job count, a record of another job
/// (out of job order), or a non-terminal record.
pub fn fold_terminal(
    fingerprints: &[String],
    records: Vec<Option<JournalRecord>>,
) -> Result<SweepOutcome, String> {
    if records.len() != fingerprints.len() {
        return Err(format!(
            "{} terminal record(s) for {} job(s)",
            records.len(),
            fingerprints.len()
        ));
    }
    let mut out = SweepOutcome::default();
    for (index, (fp, rec)) in fingerprints.iter().zip(records).enumerate() {
        let Some(rec) = rec else {
            out.results.push(None);
            out.unfinished += 1;
            continue;
        };
        if rec.fingerprint != *fp {
            return Err(format!(
                "record out of job order (job {index}: expected {fp}, got {})",
                rec.fingerprint
            ));
        }
        let (exit, attempts, dump, quarantined) = match rec.event {
            JournalEvent::Done { metrics, .. } => {
                out.results.push(Some(*metrics));
                continue;
            }
            JournalEvent::Failed {
                attempts,
                exit,
                dump,
            } => (exit, attempts, dump, false),
            JournalEvent::Quarantined { leases, exit } => (exit, leases, None, true),
            other => return Err(format!("non-terminal record for {}: {other:?}", rec.label)),
        };
        out.results.push(None);
        out.failures.push(JobFailure {
            label: rec.label,
            exit,
            attempts,
            dump,
            quarantined,
        });
    }
    Ok(out)
}

/// Merges per-shard journals into one: the union of terminal records,
/// first-seen order, `done` preferred over `failed`/`quarantined` for
/// the same fingerprint. Non-terminal records (`start`, `queued`,
/// `leased`) are bookkeeping and are skipped.
///
/// # Errors
///
/// [`JournalError::Conflict`] when two shards completed the same
/// fingerprint with different metrics digests — evidence the shards came
/// from diverging binaries or configurations.
pub fn merge_journals(shards: &[Vec<JournalRecord>]) -> Result<Vec<JournalRecord>, JournalError> {
    let mut order: Vec<String> = Vec::new();
    let mut best: BTreeMap<String, JournalRecord> = BTreeMap::new();
    for shard in shards {
        for rec in shard {
            let (is_done, digest) = match &rec.event {
                JournalEvent::Done { digest, .. } => (true, Some(digest.clone())),
                JournalEvent::Failed { .. } | JournalEvent::Quarantined { .. } => (false, None),
                JournalEvent::Start { .. }
                | JournalEvent::Queued { .. }
                | JournalEvent::Leased { .. } => continue,
            };
            match best.get(&rec.fingerprint) {
                None => {
                    order.push(rec.fingerprint.clone());
                    best.insert(rec.fingerprint.clone(), rec.clone());
                }
                Some(prev) => match (&prev.event, is_done) {
                    (JournalEvent::Done { digest: d0, .. }, true) => {
                        let d1 = digest.unwrap_or_default();
                        if *d0 != d1 {
                            return Err(JournalError::Conflict {
                                fingerprint: rec.fingerprint.clone(),
                                label: rec.label.clone(),
                                digest_a: d0.clone(),
                                digest_b: d1,
                            });
                        }
                    }
                    (_, true) => {
                        // done beats failed/quarantined.
                        best.insert(rec.fingerprint.clone(), rec.clone());
                    }
                    // failed/quarantined never displace anything.
                    _ => {}
                },
            }
        }
    }
    Ok(order
        .into_iter()
        .filter_map(|fp| best.remove(&fp))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_metrics() -> RunMetrics {
        let mut m = RunMetrics {
            total_cycles: u64::MAX - 7,
            events_processed: 123_456_789_012_345,
            walks: 42,
            ..Default::default()
        };
        for v in [0, 1, 3, 900, u64::MAX / 2] {
            m.ats_latency.record(v);
        }
        m.vpn_gap.record(7);
        m
    }

    #[test]
    fn metrics_roundtrip_is_exact() {
        let m = busy_metrics();
        let json = metrics_to_json(&m);
        let back = metrics_from_json(&json).expect("roundtrip");
        assert_eq!(m, back);
        assert_eq!(json, metrics_to_json(&back), "canonical encoding stable");
        assert_eq!(metrics_digest(&m), metrics_digest(&back));
    }

    #[test]
    fn the_digests_hash_the_canonical_text_and_both_histograms() {
        for m in [busy_metrics(), RunMetrics::default()] {
            let hist = |h: &Histogram| {
                let mut s = String::new();
                write_histogram(&mut s, h);
                s
            };
            let evidence = format!("{}|{}", hist(&m.ats_latency), hist(&m.vpn_gap));
            assert_eq!(
                (metrics_digest(&m), metrics_hist_digest(&m)),
                (
                    format!("{:016x}", fnv64(metrics_to_json(&m).as_bytes())),
                    format!("{:016x}", fnv64(evidence.as_bytes()))
                )
            );
        }
    }

    #[test]
    fn a_done_line_reads_in_place_and_renders_back() {
        let rec = JournalRecord::done("f1", "gups/barre", 3, None, Box::new(busy_metrics()));
        let line = rec.to_line();
        let view = DoneLine::parse(&line).expect("canonical line");
        let JournalEvent::Done {
            digest,
            hist_digest,
            metrics,
            ..
        } = &rec.event
        else {
            panic!("done record");
        };
        assert_eq!(
            (view.fingerprint, view.label, view.attempts, view.exit),
            ("f1", "gups/barre", 3, "ok")
        );
        assert_eq!(view.digest, digest);
        assert_eq!(Some(view.hist_digest), hist_digest.as_deref());
        assert_eq!(view.metrics, metrics_to_json(metrics));
        assert!(view.verified());
        assert_eq!(view.to_line(), line);
        // A changed metrics byte or a changed digest fails the check.
        let bumped = line.replace("\"walks\":42,", "\"walks\":43,");
        assert!(!DoneLine::parse(&bumped).expect("layout").verified());
        let other = line.replacen(digest.as_str(), "0000000000000000", 1);
        assert!(!DoneLine::parse(&other).expect("layout").verified());
    }

    #[test]
    fn a_done_line_in_any_other_layout_is_declined() {
        let m = busy_metrics();
        let rec = |label: &str, worker: Option<&str>| {
            JournalRecord::done(
                "f1",
                label,
                1,
                worker.map(str::to_string),
                Box::new(m.clone()),
            )
        };
        let plain = rec("a/b", None).to_line();
        let no_hist = JournalRecord {
            event: match rec("a/b", None).event {
                JournalEvent::Done {
                    hist_digest: _,
                    attempts,
                    exit,
                    digest,
                    worker,
                    metrics,
                } => JournalEvent::Done {
                    attempts,
                    exit,
                    digest,
                    hist_digest: None,
                    worker,
                    metrics,
                },
                other => other,
            },
            ..rec("a/b", None)
        }
        .to_line();
        for declined in [
            rec("a/b", Some("w1")).to_line(),
            rec("a\"b", None).to_line(),
            rec("a\tb", None).to_line(),
            no_hist,
            plain.replace("\"attempts\":1,", "\"attempts\":01,"),
            plain.replace("\"attempts\":1,", "\"attempts\":4294967296,"),
            plain.replace("\"attempts\":1,", "\"attempts\":1.0,"),
            plain.replace("{\"event\":\"done\"", "{ \"event\":\"done\""),
            format!("{plain} "),
            JournalRecord {
                fingerprint: "f1".into(),
                label: "a/b".into(),
                event: JournalEvent::Start { attempt: 1 },
            }
            .to_line(),
        ] {
            assert_eq!(DoneLine::parse(&declined), None, "{declined}");
        }
        assert!(DoneLine::parse(&plain).is_some_and(|v| v.verified()));
    }

    #[test]
    fn metrics_json_rejects_missing_fields() {
        let err = metrics_from_json("{\"total_cycles\":1}").expect_err("must fail");
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn fingerprint_is_order_and_boundary_sensitive() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_ne!(fingerprint(&["a", "b"]), fingerprint(&["b", "a"]));
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
    }

    #[test]
    fn hist_digest_tracks_distributions_not_counters() {
        let a = busy_metrics();
        let mut b = busy_metrics();
        // A scalar-counter difference changes the metrics digest but not
        // the distribution fingerprint…
        b.walks = 43;
        assert_ne!(metrics_digest(&a), metrics_digest(&b));
        assert_eq!(metrics_hist_digest(&a), metrics_hist_digest(&b));
        // …while one extra histogram observation flips it.
        b.ats_latency.record(77);
        assert_ne!(metrics_hist_digest(&a), metrics_hist_digest(&b));
    }

    #[test]
    fn done_records_without_hist_digest_still_parse() {
        // A line written by an older supervisor has no hist_digest field.
        let rec = JournalRecord {
            fingerprint: "f1".into(),
            label: "a/b".into(),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&busy_metrics()),
                hist_digest: None,
                worker: None,
                metrics: Box::new(busy_metrics()),
            },
        };
        let line = rec.to_line();
        assert!(!line.contains("hist_digest"), "{line}");
        let back = JournalRecord::from_line(&line).expect("parse legacy line");
        assert_eq!(rec, back);
    }

    #[test]
    fn done_records_without_worker_still_parse_as_none() {
        // Same migration contract as hist_digest: lines written before
        // the worker field existed parse with `worker: None`, and a
        // record with no worker emits no worker key.
        let rec = JournalRecord {
            fingerprint: "f1".into(),
            label: "a/b".into(),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&busy_metrics()),
                hist_digest: Some(metrics_hist_digest(&busy_metrics())),
                worker: None,
                metrics: Box::new(busy_metrics()),
            },
        };
        let line = rec.to_line();
        assert!(!line.contains("\"worker\""), "{line}");
        assert_eq!(JournalRecord::from_line(&line).expect("parse"), rec);
        // And a stamped record round-trips the identity.
        let stamped = JournalRecord {
            event: match rec.event.clone() {
                JournalEvent::Done {
                    attempts,
                    exit,
                    digest,
                    hist_digest,
                    metrics,
                    ..
                } => JournalEvent::Done {
                    attempts,
                    exit,
                    digest,
                    hist_digest,
                    worker: Some("w\"1".into()),
                    metrics,
                },
                other => other,
            },
            ..rec
        };
        let line = stamped.to_line();
        assert!(line.contains("\"worker\""), "{line}");
        assert_eq!(JournalRecord::from_line(&line).expect("parse"), stamped);
    }

    #[test]
    fn queue_events_roundtrip_through_lines() {
        let recs = [
            JournalRecord {
                fingerprint: "f1".into(),
                label: "gups/barre".into(),
                event: JournalEvent::Queued {
                    args: vec![
                        "sweep".into(),
                        "--smoke".into(),
                        "--job-index".into(),
                        "0".into(),
                    ],
                },
            },
            JournalRecord {
                fingerprint: "f1".into(),
                label: "gups/barre".into(),
                event: JournalEvent::Leased {
                    worker: "w1".into(),
                    lease: 2,
                },
            },
            JournalRecord {
                fingerprint: "f1".into(),
                label: "gups/barre".into(),
                event: JournalEvent::Quarantined {
                    leases: 3,
                    exit: "timeout".into(),
                },
            },
        ];
        for rec in &recs {
            let line = rec.to_line();
            let back = JournalRecord::from_line(&line).expect("parse line");
            assert_eq!(*rec, back, "{line}");
        }
    }

    #[test]
    fn merge_skips_queue_bookkeeping_and_done_beats_quarantined() {
        let done = |fp: &str, cycles: u64| JournalRecord {
            fingerprint: fp.into(),
            label: format!("app/{fp}"),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&RunMetrics {
                    total_cycles: cycles,
                    ..Default::default()
                }),
                hist_digest: None,
                worker: Some("w1".into()),
                metrics: Box::new(RunMetrics {
                    total_cycles: cycles,
                    ..Default::default()
                }),
            },
        };
        let queued = |fp: &str| JournalRecord {
            fingerprint: fp.into(),
            label: format!("app/{fp}"),
            event: JournalEvent::Queued { args: vec![] },
        };
        let leased = |fp: &str| JournalRecord {
            fingerprint: fp.into(),
            label: format!("app/{fp}"),
            event: JournalEvent::Leased {
                worker: "w1".into(),
                lease: 1,
            },
        };
        let poison = |fp: &str| JournalRecord {
            fingerprint: fp.into(),
            label: format!("app/{fp}"),
            event: JournalEvent::Quarantined {
                leases: 3,
                exit: "timeout".into(),
            },
        };
        // Bookkeeping records never surface in the merge; a late done
        // from a slow worker displaces an earlier quarantine verdict.
        let merged = merge_journals(&[
            vec![
                queued("f1"),
                leased("f1"),
                poison("f1"),
                queued("f2"),
                leased("f2"),
            ],
            vec![done("f1", 10), done("f2", 20)],
        ])
        .expect("merge");
        assert_eq!(merged.len(), 2);
        assert!(matches!(merged[0].event, JournalEvent::Done { .. }));
        assert!(matches!(merged[1].event, JournalEvent::Done { .. }));
        // …and a quarantine never displaces a completed result.
        let merged = merge_journals(&[vec![done("f1", 10)], vec![poison("f1")]]).expect("merge");
        assert_eq!(merged.len(), 1);
        assert!(matches!(merged[0].event, JournalEvent::Done { .. }));
    }

    #[test]
    fn records_roundtrip_through_lines() {
        let recs = [
            JournalRecord {
                fingerprint: "f1".into(),
                label: "gups/barre".into(),
                event: JournalEvent::Start { attempt: 1 },
            },
            JournalRecord {
                fingerprint: "f1".into(),
                label: "gups/barre".into(),
                event: JournalEvent::Done {
                    attempts: 2,
                    exit: "ok".into(),
                    digest: metrics_digest(&busy_metrics()),
                    hist_digest: Some(metrics_hist_digest(&busy_metrics())),
                    worker: Some("host-a".into()),
                    metrics: Box::new(busy_metrics()),
                },
            },
            JournalRecord {
                fingerprint: "f2".into(),
                label: "gemv \"odd\"/x".into(),
                event: JournalEvent::Failed {
                    attempts: 3,
                    exit: "signal:9".into(),
                    dump: Some("j/job-2.txt".into()),
                },
            },
        ];
        for rec in &recs {
            let line = rec.to_line();
            let back = JournalRecord::from_line(&line).expect("parse line");
            assert_eq!(*rec, back, "{line}");
        }
    }

    #[test]
    fn done_lines_with_the_old_tab_and_cr_escapes_still_decode() {
        let rec = JournalRecord {
            fingerprint: "f1".into(),
            label: "gups\tbarre".into(),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&busy_metrics()),
                hist_digest: Some(metrics_hist_digest(&busy_metrics())),
                worker: Some("host\ra".into()),
                metrics: Box::new(busy_metrics()),
            },
        };
        let line = rec.to_line();
        assert!(line.contains("\"gups\\tbarre\"") && line.contains("\"host\\ra\""));
        // Journals written before the escapers were merged spelled both
        // characters as `\u00XX`.
        let old = line.replace("\\t", "\\u0009").replace("\\r", "\\u000d");
        assert_ne!(old, line);
        assert_eq!(JournalRecord::from_line(&old).expect("old line"), rec);
    }

    fn terminal(fp: &str, event: JournalEvent) -> Option<JournalRecord> {
        Some(JournalRecord {
            fingerprint: fp.into(),
            label: format!("app/{fp}"),
            event,
        })
    }

    #[test]
    fn fold_sorts_terminal_records_into_results_and_failures() {
        let fps: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
        let done = JournalRecord::done("a", "app/a", 1, None, Box::new(busy_metrics()));
        let records = vec![
            Some(done),
            terminal(
                "b",
                JournalEvent::Failed {
                    attempts: 3,
                    exit: "timeout".into(),
                    dump: Some("j/job-001.dump.txt".into()),
                },
            ),
            terminal(
                "c",
                JournalEvent::Quarantined {
                    leases: 2,
                    exit: "signal:9".into(),
                },
            ),
            None,
        ];
        let out = fold_terminal(&fps, records).expect("fold");
        assert_eq!(out.results, vec![Some(busy_metrics()), None, None, None]);
        assert_eq!(out.unfinished, 1);
        let reports: Vec<String> = out.failures.iter().map(ToString::to_string).collect();
        assert_eq!(
            reports,
            [
                "FAILED app/b after 3 attempt(s): timeout (state dump: j/job-001.dump.txt)",
                "POISON app/c quarantined after 2 lease(s): signal:9",
            ]
        );
        assert!(out.failures[1].quarantined && out.failures[1].dump.is_none());
    }

    #[test]
    fn fold_rejects_misordered_non_terminal_and_missing_records() {
        let fps: Vec<String> = ["a", "b"].map(String::from).to_vec();
        let failed = |fp: &str| {
            terminal(
                fp,
                JournalEvent::Failed {
                    attempts: 1,
                    exit: "exit:64".into(),
                    dump: None,
                },
            )
        };
        let swapped = fold_terminal(&fps, vec![failed("b"), failed("a")]).expect_err("order");
        assert!(swapped.contains("out of job order"), "{swapped}");
        let start = terminal("b", JournalEvent::Start { attempt: 1 });
        let open = fold_terminal(&fps, vec![failed("a"), start]).expect_err("start");
        assert!(open.contains("non-terminal record for app/b"), "{open}");
        let short = fold_terminal(&fps, vec![failed("a")]).expect_err("count");
        assert!(
            short.contains("1 terminal record(s) for 2 job(s)"),
            "{short}"
        );
    }

    #[test]
    fn journal_file_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("barre-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        let _ = std::fs::remove_file(&path);
        let w = JournalWriter::open(&path).expect("open");
        let rec = JournalRecord {
            fingerprint: "f1".into(),
            label: "a/b".into(),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&busy_metrics()),
                hist_digest: None,
                worker: None,
                metrics: Box::new(busy_metrics()),
            },
        };
        w.append(&rec).expect("append");
        // Simulate a crash mid-append: a torn trailing line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open raw");
            write!(f, "{{\"event\":\"done\",\"finger").expect("torn write");
        }
        let recs = read_journal(&path).expect("read");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0], rec);
        let (index, dropped) = verified_done_index(&recs);
        assert!(index.contains_key("f1"));
        assert_eq!(dropped, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_trace_jsonl_tail_is_dropped_and_duplicate_done_last_wins() {
        let dir =
            std::env::temp_dir().join(format!("barre-journal-trace-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        let _ = std::fs::remove_file(&path);
        let w = JournalWriter::open(&path).expect("open");
        let done = |cycles: u64| JournalRecord {
            fingerprint: "f1".into(),
            label: "gups/fbarre".into(),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&RunMetrics {
                    total_cycles: cycles,
                    ..Default::default()
                }),
                hist_digest: Some(metrics_hist_digest(&RunMetrics::default())),
                worker: None,
                metrics: Box::new(RunMetrics {
                    total_cycles: cycles,
                    ..Default::default()
                }),
            },
        };
        // The same fingerprint completes twice (a rerun shard); then the
        // process dies mid-append while writing an attached trace-JSONL
        // histogram payload, leaving a torn tail that is valid JSON
        // *prefix* but not a journal record.
        w.append(&done(10)).expect("append 1");
        w.append(&done(20)).expect("append 2");
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("open raw");
            write!(
                f,
                "{{\"t\":\"hist\",\"scope\":\"stage\",\"stage\":\"ptw\",\"hist\":{{\"buckets\":[[12,"
            )
            .expect("torn write");
        }
        let recs = read_journal(&path).expect("read");
        assert_eq!(recs.len(), 2);
        let (index, _) = verified_done_index(&recs);
        assert_eq!(index.len(), 1);
        match &index["f1"].event {
            JournalEvent::Done { metrics, .. } => assert_eq!(metrics.total_cycles, 20),
            other => panic!("expected done, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn complete_trace_jsonl_interior_line_is_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "barre-journal-trace-interior-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(JOURNAL_FILE);
        let _ = std::fs::remove_file(&path);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&path).expect("create");
            // A syntactically complete trace-JSONL line in the middle of
            // a journal is not a crash artifact — it must error, not be
            // silently skipped.
            writeln!(
                f,
                "{{\"t\":\"span\",\"stage\":\"ptw\",\"id\":1,\"chiplet\":0,\"start\":5,\"end\":9}}"
            )
            .expect("write");
            writeln!(
                f,
                "{}",
                JournalRecord {
                    fingerprint: "f2".into(),
                    label: "a/b".into(),
                    event: JournalEvent::Start { attempt: 1 },
                }
                .to_line()
            )
            .expect("write");
        }
        let err = read_journal(&path).expect_err("interior corruption");
        assert!(
            matches!(err, JournalError::Malformed { line: 1, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn merge_unions_and_detects_conflicts() {
        let done = |fp: &str, cycles: u64| JournalRecord {
            fingerprint: fp.into(),
            label: format!("app/{fp}"),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&RunMetrics {
                    total_cycles: cycles,
                    ..Default::default()
                }),
                hist_digest: Some(metrics_hist_digest(&RunMetrics {
                    total_cycles: cycles,
                    ..Default::default()
                })),
                worker: None,
                metrics: Box::new(RunMetrics {
                    total_cycles: cycles,
                    ..Default::default()
                }),
            },
        };
        let failed = |fp: &str| JournalRecord {
            fingerprint: fp.into(),
            label: format!("app/{fp}"),
            event: JournalEvent::Failed {
                attempts: 2,
                exit: "timeout".into(),
                dump: None,
            },
        };
        // Union: f1 from shard A, f2 failed in A but done in B.
        let merged = merge_journals(&[vec![done("f1", 10), failed("f2")], vec![done("f2", 20)]])
            .expect("merge");
        assert_eq!(merged.len(), 2);
        assert!(matches!(merged[0].event, JournalEvent::Done { .. }));
        assert!(matches!(merged[1].event, JournalEvent::Done { .. }));
        // Identical completions merge fine.
        assert!(merge_journals(&[vec![done("f1", 10)], vec![done("f1", 10)]]).is_ok());
        // Diverging digests are a conflict.
        let err =
            merge_journals(&[vec![done("f1", 10)], vec![done("f1", 11)]]).expect_err("conflict");
        assert!(matches!(err, JournalError::Conflict { .. }), "{err}");
    }
}
