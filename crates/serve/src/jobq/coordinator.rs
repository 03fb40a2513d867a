//! `barre queue`: the lease-based job-queue coordinator daemon.
//!
//! The listener, connection threads, HTTP health shim, and drain
//! discipline are the shared [`daemon`](crate::daemon) skeleton, the
//! same one `barre serve` runs on; this module is the coordinator's
//! [`Service`]. Instead of executing jobs it *owns* them: every state
//! transition goes through [`QueueState`] under one lock
//! and is appended to a write-ahead journal before the reply leaves the
//! socket. A SIGKILLed coordinator restarts from that journal with no
//! lost or duplicated work; terminal records stand, in-flight leases
//! are re-queued, and burned lease budgets survive so a poison job
//! cannot launder its history through a coordinator crash.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use barre_obs::log as olog;
use barre_obs::{Field, FleetTracer, PromText};
use barre_sim::fault::NetFaultInjector;
use barre_system::{read_journal, JournalError, JournalRecord, JournalWriter, JOURNAL_FILE};

use super::state::{IngestReply, LeaseReply, QueueState};
use super::wire::{Reply, Request};
use crate::daemon::{self, Daemon, Service};
use crate::signal::shutting_down;

/// How the coordinator runs.
#[derive(Debug, Clone)]
pub struct QueueOptions {
    /// Bind host (default `127.0.0.1`).
    pub host: String,
    /// Bind port; `0` picks an ephemeral port (printed on stdout).
    pub port: u16,
    /// Write-ahead journal path (a `.jsonl` file, or a directory that
    /// gets the standard journal file name).
    pub journal: PathBuf,
    /// Lease duration granted to workers.
    pub lease: Duration,
    /// Burned leases before a job is quarantined as poison (0 disables).
    pub max_leases: u32,
    /// Redirect structured logs to this file instead of stderr.
    pub log_file: Option<PathBuf>,
}

impl Default for QueueOptions {
    fn default() -> Self {
        QueueOptions {
            host: "127.0.0.1".to_string(),
            port: 7342,
            journal: PathBuf::from("queue-journal"),
            lease: Duration::from_secs(10),
            max_leases: 3,
            log_file: None,
        }
    }
}

fn journal_file_of(path: &Path) -> PathBuf {
    if path.extension().is_some_and(|e| e == "jsonl") {
        path.to_path_buf()
    } else {
        path.join(JOURNAL_FILE)
    }
}

/// The queue state and its write-ahead journal under one lock, so the
/// journal order always matches the transition order.
struct Core {
    state: QueueState,
    writer: JournalWriter,
}

impl Core {
    /// Appends the records a transition produced. An append failure is
    /// fatal by design: a coordinator that cannot journal must not keep
    /// accepting transitions, or a crash would forget them.
    fn journal_all(&self, records: &[JournalRecord]) -> Result<(), JournalError> {
        for rec in records {
            self.writer.append(rec)?;
        }
        Ok(())
    }
}

struct Shared {
    core: Mutex<Core>,
    journal_path: PathBuf,
    epoch: Instant,
    /// Fault injection for heartbeat drops (`BARRE_QUEUE_FAULTS`).
    faults: Option<Mutex<NetFaultInjector>>,
    journal_failures: AtomicU64,
    /// Journal records read back at startup (0 on a fresh queue).
    replayed_records: u64,
    /// In-flight leases the startup replay re-queued.
    replayed_requeued: u64,
    /// Journal compactions performed (startup + drain).
    compactions: AtomicU64,
    /// Heartbeats answered with `lost` — the worker's lease was gone.
    heartbeats_lost: AtomicU64,
    /// Fleet-trace sink (`BARRE_FLEET_TRACE`), if enabled.
    tracer: Option<FleetTracer>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn trace(&self, event: &str, corr: &str, fields: &[(&str, Field<'_>)]) {
        if let Some(t) = &self.tracer {
            t.event(event, corr, fields);
        }
    }

    /// True when the simulated network ate this heartbeat.
    fn drop_heartbeat(&self) -> bool {
        match &self.faults {
            Some(m) => m
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .drop_message(),
            None => false,
        }
    }
}

impl Service for Shared {
    fn handle_line(&self, line: &str) -> Option<String> {
        handle_request_line(self, line)
    }

    fn stats_body(&self) -> String {
        let core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let c = core.state.counts();
        drop(core);
        format!(
            "{{\"queued\":{},\"leased\":{},\"done\":{},\"failed\":{},\"quarantined\":{},\"expired\":{},\"conflicts\":{},\"duplicates\":{},\"replayed_records\":{},\"replayed_requeued\":{},\"compactions\":{},\"heartbeats_lost\":{},\"journal_failures\":{},\"draining\":{}}}",
            c.queued,
            c.leased,
            c.done,
            c.failed,
            c.quarantined,
            c.expired,
            c.conflicts,
            c.duplicates,
            self.replayed_records,
            self.replayed_requeued,
            self.compactions.load(Ordering::SeqCst),
            self.heartbeats_lost.load(Ordering::SeqCst),
            self.journal_failures.load(Ordering::SeqCst),
            shutting_down(),
        )
    }

    fn metrics_body(&self) -> String {
        let core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let c = core.state.counts();
        drop(core);
        let mut p = PromText::new();
        p.gauge(
            "barre_queue_jobs_queued",
            "Jobs waiting for a worker (including backoff waits).",
            c.queued as u64,
        );
        p.gauge(
            "barre_queue_jobs_leased",
            "Jobs currently held under a worker lease.",
            c.leased as u64,
        );
        p.gauge(
            "barre_queue_jobs_done",
            "Jobs with a verified completion.",
            c.done as u64,
        );
        p.gauge(
            "barre_queue_jobs_failed",
            "Jobs failed permanently.",
            c.failed as u64,
        );
        p.gauge(
            "barre_queue_jobs_quarantined",
            "Jobs quarantined as poison.",
            c.quarantined as u64,
        );
        p.counter(
            "barre_queue_lease_expiries_total",
            "Leases that expired without a result.",
            c.expired,
        );
        p.counter(
            "barre_queue_ingest_conflicts_total",
            "Completions rejected because a different digest already won.",
            c.conflicts,
        );
        p.counter(
            "barre_queue_ingest_duplicates_total",
            "Identical duplicate completions dropped (first wins).",
            c.duplicates,
        );
        p.counter(
            "barre_queue_heartbeats_lost_total",
            "Heartbeats answered with lost: the worker's lease was gone.",
            self.heartbeats_lost.load(Ordering::SeqCst),
        );
        p.counter(
            "barre_queue_replayed_records_total",
            "Journal records replayed at startup.",
            self.replayed_records,
        );
        p.counter(
            "barre_queue_replayed_requeued_total",
            "In-flight leases the startup replay re-queued.",
            self.replayed_requeued,
        );
        p.counter(
            "barre_queue_journal_compactions_total",
            "Journal compactions performed (startup and drain).",
            self.compactions.load(Ordering::SeqCst),
        );
        p.counter(
            "barre_queue_journal_failures_total",
            "Journal appends that failed (fatal at drain).",
            self.journal_failures.load(Ordering::SeqCst),
        );
        p.gauge_bool(
            "barre_queue_draining",
            "Whether the coordinator is draining.",
            shutting_down(),
        );
        p.render()
    }
}

/// A fleet-trace event collected under the core lock and emitted after
/// it is released, so trace I/O never extends the critical section.
struct TraceEvent {
    event: &'static str,
    corr: String,
    fp: String,
    worker: String,
}

/// Handles one request line: transition under the core lock, journal the
/// records, reply. Returns `None` to drop the connection without a reply
/// (simulated network fault).
fn handle_request_line(sh: &Shared, line: &str) -> Option<String> {
    let req = match Request::from_line(line) {
        Ok(r) => r,
        Err(why) => return Some(Reply::Error { error: why }.to_line()),
    };
    if matches!(req, Request::Heartbeat { .. }) && sh.drop_heartbeat() {
        return None;
    }
    let now = sh.now_ms();
    let tracing = sh.tracer.is_some();
    let mut traces: Vec<TraceEvent> = Vec::new();
    let mut core = sh.core.lock().unwrap_or_else(PoisonError::into_inner);
    let (reply, records) = match req {
        Request::Submit { jobs } => {
            if shutting_down() {
                (Reply::Draining, Vec::new())
            } else {
                let (accepted, known, records) = core.state.submit(&jobs);
                if tracing {
                    // Only newly accepted jobs (the ones with a queued
                    // record) get a trace event; resubmits are no-ops.
                    for rec in &records {
                        let corr = jobs
                            .iter()
                            .find(|j| j.fingerprint == rec.fingerprint)
                            .and_then(|j| j.corr.clone())
                            .unwrap_or_default();
                        traces.push(TraceEvent {
                            event: "queued",
                            corr,
                            fp: rec.fingerprint.clone(),
                            worker: String::new(),
                        });
                    }
                }
                let total = core.state.counts().total();
                (
                    Reply::Submitted {
                        accepted: accepted as u64,
                        known: known as u64,
                        total: total as u64,
                    },
                    records,
                )
            }
        }
        Request::Lease { worker } => {
            if shutting_down() {
                (Reply::Draining, Vec::new())
            } else {
                let (reply, records) = core.state.lease(&worker, now);
                let reply = match reply {
                    LeaseReply::Job {
                        fingerprint,
                        label,
                        args,
                        lease_ms,
                        corr,
                    } => {
                        if tracing {
                            traces.push(TraceEvent {
                                event: "leased",
                                corr: corr.clone().unwrap_or_default(),
                                fp: fingerprint.clone(),
                                worker: worker.clone(),
                            });
                        }
                        Reply::Job {
                            fingerprint,
                            label,
                            args,
                            lease_ms,
                            corr,
                        }
                    }
                    LeaseReply::Empty {
                        retry_after_ms,
                        active,
                    } => Reply::Empty {
                        retry_after_ms,
                        active: active as u64,
                    },
                };
                (reply, records)
            }
        }
        Request::Heartbeat {
            worker,
            fingerprint,
        } => {
            let live = core.state.heartbeat(&fingerprint, &worker, now);
            if !live {
                sh.heartbeats_lost.fetch_add(1, Ordering::SeqCst);
                if tracing {
                    traces.push(TraceEvent {
                        event: "heartbeat_lost",
                        corr: core.state.corr_of(&fingerprint).unwrap_or("").to_string(),
                        fp: fingerprint.clone(),
                        worker: worker.clone(),
                    });
                }
            }
            (
                if live {
                    Reply::HeartbeatOk
                } else {
                    Reply::HeartbeatLost
                },
                Vec::new(),
            )
        }
        Request::Complete { worker, record } => {
            let (verdict, records) = match record.event {
                barre_system::JournalEvent::Done {
                    attempts,
                    exit,
                    digest,
                    hist_digest,
                    metrics,
                    ..
                } => {
                    let (reply, records) = core.state.complete(
                        &record.fingerprint,
                        &worker,
                        attempts,
                        &exit,
                        &digest,
                        hist_digest.as_deref(),
                        metrics,
                        now,
                    );
                    let verdict = match reply {
                        IngestReply::Accepted => "ok",
                        IngestReply::Duplicate => "duplicate",
                        IngestReply::Conflict => "conflict",
                        IngestReply::BadDigest => "requeued",
                        IngestReply::Unknown => "unknown",
                    };
                    if tracing && reply == IngestReply::Accepted {
                        traces.push(TraceEvent {
                            event: "done",
                            corr: core
                                .state
                                .corr_of(&record.fingerprint)
                                .unwrap_or("")
                                .to_string(),
                            fp: record.fingerprint.clone(),
                            worker: worker.clone(),
                        });
                    }
                    (verdict, records)
                }
                _ => ("not-a-done-record", Vec::new()),
            };
            (
                Reply::Completed {
                    verdict: verdict.to_string(),
                },
                records,
            )
        }
        Request::Fail {
            worker,
            fingerprint,
            attempts,
            exit,
            permanent,
        } => {
            let (reply, records) = core
                .state
                .fail(&fingerprint, attempts, &exit, permanent, now);
            if reply.quarantined {
                // The tick path logs expiry-driven quarantines; reported
                // failures that burn the last lease are poison too.
                if let Some(rec) = records.last() {
                    olog::warn(
                        "queue",
                        "job_quarantined",
                        &[
                            ("fp", Field::S(&rec.fingerprint)),
                            ("label", Field::S(&rec.label)),
                            ("worker", Field::S(&worker)),
                        ],
                        &format!(
                            "queue: POISON {} quarantined after repeated failures (last worker {worker})",
                            rec.label
                        ),
                    );
                }
            }
            if tracing {
                traces.push(TraceEvent {
                    event: if reply.quarantined {
                        "quarantined"
                    } else if reply.requeued {
                        "requeued"
                    } else {
                        "failed"
                    },
                    corr: core.state.corr_of(&fingerprint).unwrap_or("").to_string(),
                    fp: fingerprint.clone(),
                    worker: worker.clone(),
                });
            }
            (
                Reply::Failed {
                    requeued: reply.requeued,
                    quarantined: reply.quarantined,
                },
                records,
            )
        }
        Request::Collect { fingerprints } => {
            let (records, pending, unknown) = core.state.collect(&fingerprints);
            (
                Reply::Collected {
                    pending: pending as u64,
                    unknown: unknown as u64,
                    records,
                },
                Vec::new(),
            )
        }
    };
    if let Err(e) = core.journal_all(&records) {
        sh.journal_failures.fetch_add(1, Ordering::SeqCst);
        drop(core);
        olog::error(
            "queue",
            "journal_append_failed",
            &[],
            &format!("error: journal append failed: {e}"),
        );
        return Some(
            Reply::Error {
                error: format!("journal append failed: {e}"),
            }
            .to_line(),
        );
    }
    drop(core);
    for t in traces {
        let mut fields: Vec<(&str, Field<'_>)> = vec![("fp", Field::S(&t.fp))];
        if !t.worker.is_empty() {
            fields.push(("worker", Field::S(&t.worker)));
        }
        sh.trace(t.event, &t.corr, &fields);
    }
    Some(reply.to_line())
}

/// Atomically replaces the journal with the compacted record sequence
/// (temp file + rename), then reopens an append writer on it.
fn compact_journal(path: &Path, state: &QueueState) -> Result<JournalWriter, JournalError> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let writer = JournalWriter::open(&tmp)?;
        for rec in state.compacted() {
            writer.append(&rec)?;
        }
    }
    std::fs::rename(&tmp, path)?;
    JournalWriter::open(path)
}

/// Runs the coordinator until a drain signal, then compacts the journal
/// and exits. Returns the process exit code: 0 after a graceful drain,
/// 1 on a startup or flush failure.
pub fn run_queue(opts: &QueueOptions) -> i32 {
    if !daemon::init("queue", opts.log_file.as_deref()) {
        return 1;
    }
    let journal_path = journal_file_of(&opts.journal);
    if let Some(dir) = journal_path.parent() {
        if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
            olog::error(
                "queue",
                "journal_dir_failed",
                &[],
                &format!("error: cannot create journal directory {}", dir.display()),
            );
            return 1;
        }
    }
    let lease_ms = u64::try_from(opts.lease.as_millis()).unwrap_or(u64::MAX);
    // Restore: strict read (interior corruption of the WAL must surface,
    // not silently shrink the campaign), replay, compact.
    let restored = if journal_path.exists() {
        match read_journal(&journal_path) {
            Ok(records) => records,
            Err(e) => {
                olog::error(
                    "queue",
                    "journal_restore_failed",
                    &[],
                    &format!("error: cannot restore queue journal: {e}"),
                );
                return 1;
            }
        }
    } else {
        Vec::new()
    };
    let replayed_records = restored.len() as u64;
    let state = QueueState::replay(&restored, lease_ms, opts.max_leases);
    let counts = state.counts();
    let replayed_requeued = counts.queued as u64;
    if counts.total() > 0 {
        olog::info(
            "queue",
            "restored",
            &[
                ("jobs", Field::U(counts.total() as u64)),
                ("records", Field::U(replayed_records)),
                ("requeued", Field::U(replayed_requeued)),
            ],
            &format!(
                "queue: restored {} job(s) from journal ({} done, {} failed, {} quarantined, {} re-queued)",
                counts.total(),
                counts.done,
                counts.failed,
                counts.quarantined,
                counts.queued,
            ),
        );
    }
    let writer = match compact_journal(&journal_path, &state) {
        Ok(w) => w,
        Err(e) => {
            olog::error(
                "queue",
                "journal_compact_failed",
                &[],
                &format!("error: cannot compact queue journal: {e}"),
            );
            return 1;
        }
    };
    let faults = match std::env::var("BARRE_QUEUE_FAULTS") {
        Ok(spec) => match NetFaultInjector::parse(&spec) {
            Ok(inj) => {
                olog::info(
                    "queue",
                    "fault_injection",
                    &[("spec", Field::S(&spec))],
                    &format!("queue: fault injection enabled ({spec})"),
                );
                Some(Mutex::new(inj))
            }
            Err(why) => {
                olog::error(
                    "queue",
                    "fault_spec_invalid",
                    &[],
                    &format!("error: bad BARRE_QUEUE_FAULTS: {why}"),
                );
                return 1;
            }
        },
        Err(_) => None,
    };
    let Some(daemon) = Daemon::bind("queue", &opts.host, opts.port) else {
        return 1;
    };
    let sh = Arc::new(Shared {
        core: Mutex::new(Core { state, writer }),
        journal_path: journal_path.clone(),
        epoch: Instant::now(),
        faults,
        journal_failures: AtomicU64::new(0),
        replayed_records,
        replayed_requeued,
        compactions: AtomicU64::new(1),
        heartbeats_lost: AtomicU64::new(0),
        tracer: FleetTracer::from_env("queue"),
    });

    // Lease-expiry ticker: burned leases re-queue (or quarantine) even
    // when no request traffic arrives to observe them.
    let tick_sh = Arc::clone(&sh);
    let ticker = std::thread::spawn(move || {
        while !shutting_down() {
            std::thread::sleep(Duration::from_millis(100));
            let now = tick_sh.now_ms();
            let mut core = tick_sh.core.lock().unwrap_or_else(PoisonError::into_inner);
            let (records, expiries) = core.state.tick(now);
            if let Err(e) = core.journal_all(&records) {
                tick_sh.journal_failures.fetch_add(1, Ordering::SeqCst);
                olog::error(
                    "queue",
                    "journal_append_failed",
                    &[],
                    &format!("error: journal append failed: {e}"),
                );
            }
            let corrs: Vec<String> = expiries
                .iter()
                .map(|x| core.state.corr_of(&x.fingerprint).unwrap_or("").to_string())
                .collect();
            drop(core);
            for (x, corr) in expiries.iter().zip(&corrs) {
                let fields = [
                    ("fp", Field::S(&x.fingerprint)),
                    ("label", Field::S(&x.label)),
                    ("worker", Field::S(&x.worker)),
                ];
                if x.quarantined {
                    olog::warn(
                        "queue",
                        "job_quarantined",
                        &fields,
                        &format!(
                            "queue: POISON {} quarantined after lease expiry (last worker {})",
                            x.label, x.worker
                        ),
                    );
                    tick_sh.trace("quarantined", corr, &fields);
                } else {
                    olog::warn(
                        "queue",
                        "lease_expired",
                        &fields,
                        &format!(
                            "queue: lease on {} held by {} expired; re-queued with backoff",
                            x.label, x.worker
                        ),
                    );
                    tick_sh.trace("lease_expired", corr, &fields);
                }
            }
        }
    });

    let conn_handles = daemon.serve(&sh);

    // Graceful drain: connection threads notice the flag via their read
    // timeouts; then compact the journal so a restart replays a file
    // proportional to the job count, not the churn.
    for h in conn_handles {
        let _ = h.join();
    }
    let _ = ticker.join();
    let mut core = sh.core.lock().unwrap_or_else(PoisonError::into_inner);
    match compact_journal(&sh.journal_path, &core.state) {
        Ok(w) => {
            core.writer = w;
            sh.compactions.fetch_add(1, Ordering::SeqCst);
            let c = core.state.counts();
            olog::info(
                "queue",
                "drain_compacted",
                &[
                    ("jobs", Field::U(c.total() as u64)),
                    ("done", Field::U(c.done as u64)),
                    ("active", Field::U(c.active() as u64)),
                ],
                &format!(
                    "drain: queue journal compacted ({} job(s): {} done, {} active)",
                    c.total(),
                    c.done,
                    c.active(),
                ),
            );
            if c.active() > 0 {
                olog::info(
                    "queue",
                    "drain_unfinished",
                    &[("active", Field::U(c.active() as u64))],
                    &format!(
                        "drain: {} job(s) unfinished; resume with `barre queue --journal {}`",
                        c.active(),
                        sh.journal_path.display(),
                    ),
                );
            }
            if sh.journal_failures.load(Ordering::SeqCst) > 0 {
                olog::error(
                    "queue",
                    "journal_failures",
                    &[],
                    "error: some transitions could not be journaled",
                );
                return 1;
            }
            0
        }
        Err(e) => {
            olog::error(
                "queue",
                "journal_compact_failed",
                &[],
                &format!("error: queue journal compaction failed: {e}"),
            );
            1
        }
    }
}
