//! The queue's JSONL wire protocol: one request line in, one reply line
//! out, over the same TCP framing `barre serve` uses.
//!
//! Completed results travel as embedded journal lines (a `done` record
//! rendered by [`JournalRecord::to_line`], escaped as a JSON string), so
//! the wire format inherits the journal's digest discipline and both
//! ends reuse one parser instead of re-describing `RunMetrics` here.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use barre_system::journal::json_escape;
use barre_system::{JournalRecord, Json};

use super::state::JobSpec;

/// One request/reply exchange with the coordinator over a fresh
/// connection. A fresh connection per exchange is deliberate: it makes
/// every call independently survivable across coordinator crashes and
/// restarts — there is no session state to lose.
pub fn exchange(addr: &str, req: &Request) -> Result<Reply, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut out = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    // One write: a separate newline write would wait behind Nagle for
    // the coordinator's delayed ACK.
    let mut msg = req.to_line();
    msg.push('\n');
    out.write_all(msg.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("connection closed without a reply".to_string()),
        Ok(_) => Reply::from_line(line.trim()),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// A request a dispatch client or worker sends the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue jobs (idempotent per fingerprint).
    Submit {
        /// Jobs to enqueue.
        jobs: Vec<JobSpec>,
    },
    /// Ask for one job under a lease.
    Lease {
        /// Worker identity.
        worker: String,
    },
    /// Extend a held lease.
    Heartbeat {
        /// Worker identity.
        worker: String,
        /// Leased job.
        fingerprint: String,
    },
    /// Deliver a finished job's `done` journal record.
    Complete {
        /// Worker identity (stamped onto the accepted record).
        worker: String,
        /// The worker's `done` record, digest included.
        record: Box<JournalRecord>,
    },
    /// Report an attempt that did not produce a result.
    Fail {
        /// Worker identity.
        worker: String,
        /// Leased job.
        fingerprint: String,
        /// Attempts the worker made under this lease.
        attempts: u32,
        /// Exit classification (`"signal:9"`, `"timeout"`, …).
        exit: String,
        /// Whether retrying is pointless (usage/permanent exits).
        permanent: bool,
    },
    /// Fetch terminal records for a fingerprint list.
    Collect {
        /// Fingerprints the client is waiting on.
        fingerprints: Vec<String>,
    },
}

/// A coordinator reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Submit acknowledged.
    Submitted {
        /// Newly enqueued jobs.
        accepted: u64,
        /// Fingerprints already known (dedup).
        known: u64,
        /// Total jobs tracked.
        total: u64,
    },
    /// A lease grant.
    Job {
        /// Job identity.
        fingerprint: String,
        /// Human label.
        label: String,
        /// Child argv to execute.
        args: Vec<String>,
        /// Lease duration; heartbeat well within it.
        lease_ms: u64,
        /// Fleet-trace correlation id from the submitting client, if
        /// any. Older coordinators simply omit the field.
        corr: Option<String>,
    },
    /// Nothing leasable right now.
    Empty {
        /// Suggested poll delay.
        retry_after_ms: u64,
        /// Jobs not yet terminal.
        active: u64,
    },
    /// Coordinator is draining; stop asking.
    Draining,
    /// Heartbeat accepted — the lease still belongs to this worker.
    HeartbeatOk,
    /// The lease is gone (expired, finished, or never granted) — the
    /// worker must abandon its attempt.
    HeartbeatLost,
    /// Completion verdict: `"ok"`, `"duplicate"`, `"conflict"`,
    /// `"requeued"` (digest mismatch), or `"unknown"`.
    Completed {
        /// The verdict string.
        verdict: String,
    },
    /// Failure acknowledged.
    Failed {
        /// The job went back to the queue with backoff.
        requeued: bool,
        /// The job was quarantined as poison.
        quarantined: bool,
    },
    /// Terminal records for a collect request.
    Collected {
        /// Jobs not yet terminal.
        pending: u64,
        /// Fingerprints the coordinator has never seen (the client
        /// should resubmit).
        unknown: u64,
        /// Terminal records, in request order.
        records: Vec<JournalRecord>,
    },
    /// Malformed or unserviceable request.
    Error {
        /// Human-readable reason.
        error: String,
    },
}

fn arr_of_strings(v: &Json) -> Result<Vec<String>, String> {
    let items = v.as_arr().ok_or_else(|| "expected array".to_string())?;
    let mut out = Vec::with_capacity(items.len());
    for it in items {
        out.push(
            it.as_str()
                .map(str::to_string)
                .ok_or_else(|| "expected string array".to_string())?,
        );
    }
    Ok(out)
}

fn want_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/invalid \"{key}\""))
}

fn want_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid \"{key}\""))
}

fn want_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing/invalid \"{key}\"")),
    }
}

fn render_args(args: &[String]) -> String {
    let parts: Vec<String> = args.iter().map(|a| json_escape(a)).collect();
    format!("[{}]", parts.join(","))
}

impl Request {
    /// Renders the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Submit { jobs } => {
                let parts: Vec<String> = jobs
                    .iter()
                    .map(|j| {
                        let corr = j
                            .corr
                            .as_deref()
                            .map(|c| format!(",\"corr\":{}", json_escape(c)))
                            .unwrap_or_default();
                        format!(
                            "{{\"fingerprint\":{},\"label\":{},\"args\":{}{corr}}}",
                            json_escape(&j.fingerprint),
                            json_escape(&j.label),
                            render_args(&j.args),
                        )
                    })
                    .collect();
                format!("{{\"op\":\"submit\",\"jobs\":[{}]}}", parts.join(","))
            }
            Request::Lease { worker } => {
                format!("{{\"op\":\"lease\",\"worker\":{}}}", json_escape(worker))
            }
            Request::Heartbeat {
                worker,
                fingerprint,
            } => format!(
                "{{\"op\":\"heartbeat\",\"worker\":{},\"fingerprint\":{}}}",
                json_escape(worker),
                json_escape(fingerprint),
            ),
            Request::Complete { worker, record } => format!(
                "{{\"op\":\"complete\",\"worker\":{},\"record\":{}}}",
                json_escape(worker),
                json_escape(&record.to_line()),
            ),
            Request::Fail {
                worker,
                fingerprint,
                attempts,
                exit,
                permanent,
            } => format!(
                "{{\"op\":\"fail\",\"worker\":{},\"fingerprint\":{},\"attempts\":{attempts},\"exit\":{},\"permanent\":{permanent}}}",
                json_escape(worker),
                json_escape(fingerprint),
                json_escape(exit),
            ),
            Request::Collect { fingerprints } => format!(
                "{{\"op\":\"collect\",\"fingerprints\":{}}}",
                render_args(fingerprints),
            ),
        }
    }

    /// Parses one wire line into a request.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let op = want_str(&v, "op")?;
        match op.as_str() {
            "submit" => {
                let items = v
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "missing/invalid \"jobs\"".to_string())?;
                let mut jobs = Vec::with_capacity(items.len());
                for it in items {
                    jobs.push(JobSpec {
                        fingerprint: want_str(it, "fingerprint")?,
                        label: want_str(it, "label")?,
                        args: arr_of_strings(
                            it.get("args")
                                .ok_or_else(|| "missing \"args\"".to_string())?,
                        )?,
                        corr: it.get("corr").and_then(Json::as_str).map(str::to_string),
                    });
                }
                Ok(Request::Submit { jobs })
            }
            "lease" => Ok(Request::Lease {
                worker: want_str(&v, "worker")?,
            }),
            "heartbeat" => Ok(Request::Heartbeat {
                worker: want_str(&v, "worker")?,
                fingerprint: want_str(&v, "fingerprint")?,
            }),
            "complete" => {
                let raw = want_str(&v, "record")?;
                let record = JournalRecord::from_line(&raw)
                    .map_err(|e| format!("bad embedded record: {e}"))?;
                Ok(Request::Complete {
                    worker: want_str(&v, "worker")?,
                    record: Box::new(record),
                })
            }
            "fail" => Ok(Request::Fail {
                worker: want_str(&v, "worker")?,
                fingerprint: want_str(&v, "fingerprint")?,
                attempts: u32::try_from(want_u64(&v, "attempts")?).unwrap_or(u32::MAX),
                exit: want_str(&v, "exit")?,
                permanent: want_bool(&v, "permanent")?,
            }),
            "collect" => Ok(Request::Collect {
                fingerprints: arr_of_strings(
                    v.get("fingerprints")
                        .ok_or_else(|| "missing \"fingerprints\"".to_string())?,
                )?,
            }),
            other => Err(format!("unknown op \"{other}\"")),
        }
    }
}

impl Reply {
    /// Renders the reply as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Reply::Submitted {
                accepted,
                known,
                total,
            } => format!(
                "{{\"status\":\"submitted\",\"accepted\":{accepted},\"known\":{known},\"total\":{total}}}"
            ),
            Reply::Job {
                fingerprint,
                label,
                args,
                lease_ms,
                corr,
            } => {
                let corr = corr
                    .as_deref()
                    .map(|c| format!(",\"corr\":{}", json_escape(c)))
                    .unwrap_or_default();
                format!(
                    "{{\"status\":\"job\",\"fingerprint\":{},\"label\":{},\"args\":{},\"lease_ms\":{lease_ms}{corr}}}",
                    json_escape(fingerprint),
                    json_escape(label),
                    render_args(args),
                )
            }
            Reply::Empty {
                retry_after_ms,
                active,
            } => format!(
                "{{\"status\":\"empty\",\"retry_after_ms\":{retry_after_ms},\"active\":{active}}}"
            ),
            Reply::Draining => "{\"status\":\"draining\"}".to_string(),
            Reply::HeartbeatOk => "{\"status\":\"ok\"}".to_string(),
            Reply::HeartbeatLost => "{\"status\":\"lost\"}".to_string(),
            Reply::Completed { verdict } => {
                format!(
                    "{{\"status\":\"completed\",\"verdict\":{}}}",
                    json_escape(verdict)
                )
            }
            Reply::Failed {
                requeued,
                quarantined,
            } => format!(
                "{{\"status\":\"failed\",\"requeued\":{requeued},\"quarantined\":{quarantined}}}"
            ),
            Reply::Collected {
                pending,
                unknown,
                records,
            } => {
                let parts: Vec<String> =
                    records.iter().map(|r| json_escape(&r.to_line())).collect();
                format!(
                    "{{\"status\":\"collected\",\"pending\":{pending},\"unknown\":{unknown},\"records\":[{}]}}",
                    parts.join(","),
                )
            }
            Reply::Error { error } => {
                format!("{{\"status\":\"error\",\"error\":{}}}", json_escape(error))
            }
        }
    }

    /// Parses one wire line into a reply.
    pub fn from_line(line: &str) -> Result<Reply, String> {
        let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let status = want_str(&v, "status")?;
        match status.as_str() {
            "submitted" => Ok(Reply::Submitted {
                accepted: want_u64(&v, "accepted")?,
                known: want_u64(&v, "known")?,
                total: want_u64(&v, "total")?,
            }),
            "job" => Ok(Reply::Job {
                fingerprint: want_str(&v, "fingerprint")?,
                label: want_str(&v, "label")?,
                args: arr_of_strings(
                    v.get("args")
                        .ok_or_else(|| "missing \"args\"".to_string())?,
                )?,
                lease_ms: want_u64(&v, "lease_ms")?,
                corr: v.get("corr").and_then(Json::as_str).map(str::to_string),
            }),
            "empty" => Ok(Reply::Empty {
                retry_after_ms: want_u64(&v, "retry_after_ms")?,
                active: want_u64(&v, "active")?,
            }),
            "draining" => Ok(Reply::Draining),
            "ok" => Ok(Reply::HeartbeatOk),
            "lost" => Ok(Reply::HeartbeatLost),
            "completed" => Ok(Reply::Completed {
                verdict: want_str(&v, "verdict")?,
            }),
            "failed" => Ok(Reply::Failed {
                requeued: want_bool(&v, "requeued")?,
                quarantined: want_bool(&v, "quarantined")?,
            }),
            "collected" => {
                let items = v
                    .get("records")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| "missing/invalid \"records\"".to_string())?;
                let mut records = Vec::with_capacity(items.len());
                for it in items {
                    let raw = it
                        .as_str()
                        .ok_or_else(|| "record entries must be strings".to_string())?;
                    records.push(
                        JournalRecord::from_line(raw)
                            .map_err(|e| format!("bad embedded record: {e}"))?,
                    );
                }
                Ok(Reply::Collected {
                    pending: want_u64(&v, "pending")?,
                    unknown: want_u64(&v, "unknown")?,
                    records,
                })
            }
            "error" => Ok(Reply::Error {
                error: want_str(&v, "error")?,
            }),
            other => Err(format!("unknown status \"{other}\"")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_system::{metrics_digest, JournalEvent, RunMetrics};

    fn roundtrip_req(req: Request) {
        let line = req.to_line();
        let back = Request::from_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(back, req, "{line}");
    }

    fn roundtrip_reply(reply: Reply) {
        let line = reply.to_line();
        let back = Reply::from_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(back, reply, "{line}");
    }

    #[test]
    fn requests_roundtrip_including_awkward_strings() {
        roundtrip_req(Request::Submit {
            jobs: vec![
                JobSpec {
                    fingerprint: "abc123".into(),
                    label: "gups/\"quoted\"".into(),
                    args: vec!["sweep".into(), "--ptw-share".into(), "0.5\n".into()],
                    corr: Some("c0011223344556677".into()),
                },
                JobSpec {
                    fingerprint: "def456".into(),
                    label: "gups/plain".into(),
                    args: vec!["sweep".into()],
                    corr: None,
                },
            ],
        });
        roundtrip_req(Request::Lease {
            worker: "host-a:1".into(),
        });
        roundtrip_req(Request::Heartbeat {
            worker: "w".into(),
            fingerprint: "f".into(),
        });
        roundtrip_req(Request::Fail {
            worker: "w".into(),
            fingerprint: "f".into(),
            attempts: 3,
            exit: "signal:9".into(),
            permanent: false,
        });
        roundtrip_req(Request::Collect {
            fingerprints: vec!["f1".into(), "f2".into()],
        });
    }

    #[test]
    fn complete_embeds_a_done_record_verbatim() {
        let m = Box::new(RunMetrics {
            total_cycles: 42,
            ..Default::default()
        });
        let rec = JournalRecord {
            fingerprint: "f1".into(),
            label: "gups/barre".into(),
            event: JournalEvent::Done {
                attempts: 1,
                exit: "ok".into(),
                digest: metrics_digest(&m),
                hist_digest: None,
                worker: None,
                metrics: m,
            },
        };
        let req = Request::Complete {
            worker: "w1".into(),
            record: Box::new(rec.clone()),
        };
        let line = req.to_line();
        match Request::from_line(&line).expect("parse") {
            Request::Complete { worker, record } => {
                assert_eq!(worker, "w1");
                assert_eq!(record.to_line(), rec.to_line());
            }
            other => panic!("expected complete, got {other:?}"),
        }
    }

    #[test]
    fn replies_roundtrip_including_embedded_records() {
        roundtrip_reply(Reply::Submitted {
            accepted: 3,
            known: 2,
            total: 5,
        });
        roundtrip_reply(Reply::Job {
            fingerprint: "f1".into(),
            label: "gups/barre".into(),
            args: vec!["sweep".into(), "--job-index".into(), "7".into()],
            lease_ms: 10_000,
            corr: Some("c8899aabbccddeeff".into()),
        });
        // Older peers omit "corr" entirely: the field parses as absent.
        match Reply::from_line(
            "{\"status\":\"job\",\"fingerprint\":\"f1\",\"label\":\"l\",\"args\":[],\"lease_ms\":5}",
        )
        .expect("legacy job reply")
        {
            Reply::Job { corr, .. } => assert_eq!(corr, None),
            other => panic!("expected job, got {other:?}"),
        }
        roundtrip_reply(Reply::Empty {
            retry_after_ms: 250,
            active: 4,
        });
        roundtrip_reply(Reply::Draining);
        roundtrip_reply(Reply::HeartbeatOk);
        roundtrip_reply(Reply::HeartbeatLost);
        // An accepted completion must not read back as a heartbeat ack.
        roundtrip_reply(Reply::Completed {
            verdict: "ok".into(),
        });
        roundtrip_reply(Reply::Completed {
            verdict: "duplicate".into(),
        });
        roundtrip_reply(Reply::Failed {
            requeued: true,
            quarantined: false,
        });
        let m = Box::new(RunMetrics {
            total_cycles: 7,
            ..Default::default()
        });
        roundtrip_reply(Reply::Collected {
            pending: 1,
            unknown: 0,
            records: vec![JournalRecord {
                fingerprint: "f1".into(),
                label: "gups/barre".into(),
                event: JournalEvent::Done {
                    attempts: 2,
                    exit: "ok".into(),
                    digest: metrics_digest(&m),
                    hist_digest: None,
                    worker: Some("w1".into()),
                    metrics: m,
                },
            }],
        });
    }

    #[test]
    fn garbage_lines_are_rejected_with_context() {
        assert!(Request::from_line("not json").is_err());
        assert!(Request::from_line("{\"op\":\"noop\"}").is_err());
        assert!(Request::from_line("{\"op\":\"lease\"}").is_err());
        assert!(Reply::from_line("{\"no\":\"status\"}").is_err());
        assert!(Reply::from_line("{\"status\":\"bogus\"}").is_err());
        assert!(Request::from_line(
            "{\"op\":\"complete\",\"worker\":\"w\",\"record\":\"garbage\"}"
        )
        .is_err());
    }
}
