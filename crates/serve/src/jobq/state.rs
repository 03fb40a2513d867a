//! The queue coordinator's state machine — pure and deterministic.
//!
//! Every transition takes the current time as a parameter and returns
//! the journal records describing it, so the whole lease protocol is
//! unit-testable without sockets, threads, or a clock. The coordinator
//! wraps one `QueueState` in a mutex, feeds it wall-clock milliseconds,
//! and appends whatever records come back to its write-ahead journal.
//!
//! Job lifecycle:
//!
//! ```text
//! queued ──lease──▶ leased ──complete──▶ done        (terminal)
//!   ▲                  │ ├──fail(permanent)──▶ failed (terminal)
//!   │                  │ └──fail(transient)─┐
//!   └── backoff ◀──────┴──lease expiry──────┤
//!                                           └─▶ quarantined when the
//!                                               job burned max_leases
//!                                               leases     (terminal)
//! ```
//!
//! Re-dispatch after an expired or transiently-failed lease waits a
//! deterministic capped backoff ([`backoff_delay`] of the lease count);
//! quarantine reuses the serve [`CircuitBreaker`]: each burned lease is
//! a recorded failure, and the breaker tripping open is the poison
//! verdict. Results are digest-verified on ingest and deduplicated
//! first-wins with conflict detection — the same contract
//! `merge_journals` enforces across shards, so a slow worker's late
//! duplicate is byte-compatible with the winner or loudly rejected.

use std::collections::BTreeMap;

use barre_system::{JournalEvent, JournalRecord};

use crate::attempt::backoff_delay;
use crate::breaker::CircuitBreaker;

/// One job as submitted by a dispatch client.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Stable identity (the supervisor's `job_fingerprint`).
    pub fingerprint: String,
    /// Human label (`"gups/barre"`).
    pub label: String,
    /// Child argv to execute (includes `--job-index`).
    pub args: Vec<String>,
    /// Fleet-trace correlation id minted by the dispatch client, if
    /// any. Held in memory only — it never enters the journal, so
    /// journal bytes stay identical whether or not tracing is on.
    pub corr: Option<String>,
}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone)]
enum Slot {
    /// Waiting for a worker; not leasable before `not_before_ms`.
    Queued { not_before_ms: u64 },
    /// Held by `worker` until `deadline_ms` (heartbeats extend it).
    Leased { worker: String, deadline_ms: u64 },
    /// Finished: the terminal journal record (`done`/`failed`/
    /// `quarantined`) is the state.
    Terminal(JournalRecord),
}

#[derive(Debug, Clone)]
struct Entry {
    label: String,
    args: Vec<String>,
    slot: Slot,
    /// Leases granted so far (1-based lease numbers come from here).
    leases: u32,
    /// Last worker that held a lease, for compaction/attribution.
    last_worker: Option<String>,
    /// Correlation id from the submitting client (in-memory only; lost
    /// on coordinator restart, by design — journals stay byte-stable).
    corr: Option<String>,
}

/// Reply to a lease request.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseReply {
    /// A job to run, with the lease duration the worker must heartbeat
    /// within.
    Job {
        /// Job identity.
        fingerprint: String,
        /// Human label.
        label: String,
        /// Child argv to execute.
        args: Vec<String>,
        /// Lease duration in milliseconds.
        lease_ms: u64,
        /// Correlation id from the submitting client, forwarded so the
        /// worker can stitch its attempt into the same fleet trace.
        corr: Option<String>,
    },
    /// Nothing leasable right now.
    Empty {
        /// Suggested poll delay.
        retry_after_ms: u64,
        /// Jobs not yet terminal (0 = the sweep is finished).
        active: usize,
    },
}

/// Verdict on an ingested completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestReply {
    /// First verified result for this job — recorded.
    Accepted,
    /// The job was already done with an identical digest (slow-worker
    /// duplicate) — dropped, first wins.
    Duplicate,
    /// The job was already done with a *different* digest — rejected
    /// and counted; the first result stands.
    Conflict,
    /// The stored digest does not match the metrics payload (corrupt
    /// transmission) — rejected, and the lease is burned so the job
    /// re-dispatches.
    BadDigest,
    /// No such fingerprint.
    Unknown,
}

/// Verdict on a reported failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailReply {
    /// The job went back to the queue (with backoff).
    pub requeued: bool,
    /// The job was quarantined as poison.
    pub quarantined: bool,
}

/// What lease expiry found, for the coordinator's log.
#[derive(Debug, Clone)]
pub struct Expiry {
    /// Job identity.
    pub fingerprint: String,
    /// Human label.
    pub label: String,
    /// Worker whose lease lapsed.
    pub worker: String,
    /// Whether the expiry quarantined the job.
    pub quarantined: bool,
}

/// Counters for `/stats` and the drain summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Jobs waiting (including backoff waits).
    pub queued: usize,
    /// Jobs currently under lease.
    pub leased: usize,
    /// Jobs completed.
    pub done: usize,
    /// Jobs failed permanently.
    pub failed: usize,
    /// Jobs quarantined as poison.
    pub quarantined: usize,
    /// Leases that expired without a result.
    pub expired: u64,
    /// Digest conflicts rejected on ingest.
    pub conflicts: u64,
    /// Identical duplicate completions dropped.
    pub duplicates: u64,
}

impl QueueCounts {
    /// Jobs in a non-terminal state.
    pub fn active(&self) -> usize {
        self.queued.saturating_add(self.leased)
    }

    /// All jobs ever submitted.
    pub fn total(&self) -> usize {
        self.active()
            .saturating_add(self.done)
            .saturating_add(self.failed)
            .saturating_add(self.quarantined)
    }
}

/// The coordinator's whole job table. See the module docs for the
/// lifecycle.
pub struct QueueState {
    lease_ms: u64,
    max_leases: u32,
    entries: BTreeMap<String, Entry>,
    /// Submission order — the order `collect` and compaction preserve,
    /// which is what makes a distributed sweep's merged journal
    /// byte-identical to a serial one.
    order: Vec<String>,
    breaker: CircuitBreaker,
    expired: u64,
    conflicts: u64,
    duplicates: u64,
}

impl QueueState {
    /// An empty queue granting `lease_ms` leases and quarantining a job
    /// after `max_leases` burned leases (0 disables quarantine).
    pub fn new(lease_ms: u64, max_leases: u32) -> Self {
        QueueState {
            lease_ms: lease_ms.max(1),
            max_leases,
            entries: BTreeMap::new(),
            order: Vec::new(),
            breaker: CircuitBreaker::new(max_leases),
            expired: 0,
            conflicts: 0,
            duplicates: 0,
        }
    }

    /// The lease duration granted to workers, in milliseconds.
    pub fn lease_ms(&self) -> u64 {
        self.lease_ms
    }

    /// Accepts new jobs; fingerprints already known (in any state) are
    /// skipped, so resubmission after a client reconnect is idempotent.
    /// Returns `(accepted, already_known)` plus the `queued` records to
    /// journal.
    pub fn submit(&mut self, specs: &[JobSpec]) -> (usize, usize, Vec<JournalRecord>) {
        let mut accepted = 0usize;
        let mut known = 0usize;
        let mut records = Vec::new();
        for spec in specs {
            if self.entries.contains_key(&spec.fingerprint) {
                known = known.saturating_add(1);
                continue;
            }
            self.entries.insert(
                spec.fingerprint.clone(),
                Entry {
                    label: spec.label.clone(),
                    args: spec.args.clone(),
                    slot: Slot::Queued { not_before_ms: 0 },
                    leases: 0,
                    last_worker: None,
                    corr: spec.corr.clone(),
                },
            );
            self.order.push(spec.fingerprint.clone());
            records.push(JournalRecord {
                fingerprint: spec.fingerprint.clone(),
                label: spec.label.clone(),
                event: JournalEvent::Queued {
                    args: spec.args.clone(),
                },
            });
            accepted = accepted.saturating_add(1);
        }
        (accepted, known, records)
    }

    /// Grants the first leasable job (submission order) to `worker`.
    pub fn lease(&mut self, worker: &str, now_ms: u64) -> (LeaseReply, Vec<JournalRecord>) {
        let mut next_wait: Option<u64> = None;
        for fp in &self.order {
            let Some(e) = self.entries.get_mut(fp) else {
                continue;
            };
            match &e.slot {
                Slot::Queued { not_before_ms } if *not_before_ms <= now_ms => {
                    e.leases = e.leases.saturating_add(1);
                    e.last_worker = Some(worker.to_string());
                    e.slot = Slot::Leased {
                        worker: worker.to_string(),
                        deadline_ms: now_ms.saturating_add(self.lease_ms),
                    };
                    let rec = JournalRecord {
                        fingerprint: fp.clone(),
                        label: e.label.clone(),
                        event: JournalEvent::Leased {
                            worker: worker.to_string(),
                            lease: e.leases,
                        },
                    };
                    let reply = LeaseReply::Job {
                        fingerprint: fp.clone(),
                        label: e.label.clone(),
                        args: e.args.clone(),
                        lease_ms: self.lease_ms,
                        corr: e.corr.clone(),
                    };
                    return (reply, vec![rec]);
                }
                Slot::Queued { not_before_ms } => {
                    let wait = not_before_ms.saturating_sub(now_ms);
                    next_wait = Some(next_wait.map_or(wait, |w| w.min(wait)));
                }
                Slot::Leased { deadline_ms, .. } => {
                    let wait = deadline_ms.saturating_sub(now_ms);
                    next_wait = Some(next_wait.map_or(wait, |w| w.min(wait)));
                }
                Slot::Terminal(_) => {}
            }
        }
        let counts = self.counts();
        let retry_after_ms = next_wait
            .unwrap_or(self.lease_ms)
            .clamp(50, self.lease_ms.max(50));
        (
            LeaseReply::Empty {
                retry_after_ms,
                active: counts.active(),
            },
            Vec::new(),
        )
    }

    /// When the earliest backoff wait among queued jobs ends, if one
    /// ends after `now_ms`: the next time a lease can succeed without
    /// another transition.
    pub fn next_ready_ms(&self, now_ms: u64) -> Option<u64> {
        self.entries
            .values()
            .filter_map(|e| match e.slot {
                Slot::Queued { not_before_ms } if not_before_ms > now_ms => Some(not_before_ms),
                _ => None,
            })
            .min()
    }

    /// The earliest lease deadline, if any job is leased:
    /// [`tick`](Self::tick) has nothing to expire before it passes.
    pub fn next_deadline_ms(&self) -> Option<u64> {
        self.entries
            .values()
            .filter_map(|e| match e.slot {
                Slot::Leased { deadline_ms, .. } => Some(deadline_ms),
                _ => None,
            })
            .min()
    }

    /// Extends `worker`'s lease on `fp`. Returns false when the lease is
    /// lost (expired and re-dispatched, finished, or never granted) —
    /// the worker should abandon its attempt.
    pub fn heartbeat(&mut self, fp: &str, worker: &str, now_ms: u64) -> bool {
        let Some(e) = self.entries.get_mut(fp) else {
            return false;
        };
        match &mut e.slot {
            Slot::Leased {
                worker: holder,
                deadline_ms,
            } if holder == worker => {
                *deadline_ms = now_ms.saturating_add(self.lease_ms);
                true
            }
            _ => false,
        }
    }

    /// Ingests a completion — a worker's `done` record: digest-verify,
    /// dedup first-wins, detect conflicts. A verified first result is
    /// terminal regardless of who holds the lease — work done is work
    /// done, even if the lease expired and the job was re-dispatched
    /// meanwhile. The journaled record carries the job's own label and
    /// `worker` as its producer.
    pub fn complete(
        &mut self,
        mut rec: JournalRecord,
        worker: &str,
        now_ms: u64,
    ) -> (IngestReply, Vec<JournalRecord>) {
        let fp = rec.fingerprint.clone();
        if !self.entries.contains_key(&fp) {
            return (IngestReply::Unknown, Vec::new());
        }
        if !rec.verified() {
            // Corrupt transmission: burn the lease so the job re-runs.
            let (_, records) = self.burn_lease(&fp, "bad-digest", now_ms);
            return (IngestReply::BadDigest, records);
        }
        let JournalEvent::Done {
            digest,
            worker: producer,
            ..
        } = &mut rec.event
        else {
            return (IngestReply::Unknown, Vec::new());
        };
        let Some(e) = self.entries.get_mut(&fp) else {
            return (IngestReply::Unknown, Vec::new());
        };
        if let Slot::Terminal(prev) = &e.slot {
            if let JournalEvent::Done { digest: d0, .. } = &prev.event {
                return if d0 == digest {
                    self.duplicates = self.duplicates.saturating_add(1);
                    (IngestReply::Duplicate, Vec::new())
                } else {
                    self.conflicts = self.conflicts.saturating_add(1);
                    (IngestReply::Conflict, Vec::new())
                };
            }
            // A verified completion displaces failed/quarantined — the
            // same done-beats-failed rule merge_journals applies.
        }
        *producer = Some(worker.to_string());
        rec.label = e.label.clone();
        e.slot = Slot::Terminal(rec.clone());
        self.breaker.record_success(&fp);
        (IngestReply::Accepted, vec![rec])
    }

    /// Ingests a reported failure: permanent failures are terminal;
    /// transient ones burn the lease (requeue with backoff, or
    /// quarantine once the budget is gone).
    pub fn fail(
        &mut self,
        fp: &str,
        attempts: u32,
        exit: &str,
        permanent: bool,
        now_ms: u64,
    ) -> (FailReply, Vec<JournalRecord>) {
        let Some(e) = self.entries.get_mut(fp) else {
            return (
                FailReply {
                    requeued: false,
                    quarantined: false,
                },
                Vec::new(),
            );
        };
        if matches!(e.slot, Slot::Terminal(_)) {
            return (
                FailReply {
                    requeued: false,
                    quarantined: false,
                },
                Vec::new(),
            );
        }
        if permanent {
            let rec = JournalRecord {
                fingerprint: fp.to_string(),
                label: e.label.clone(),
                event: JournalEvent::Failed {
                    attempts,
                    exit: exit.to_string(),
                    dump: None,
                },
            };
            e.slot = Slot::Terminal(rec.clone());
            return (
                FailReply {
                    requeued: false,
                    quarantined: false,
                },
                vec![rec],
            );
        }
        let (quarantined, records) = self.burn_lease(fp, exit, now_ms);
        (
            FailReply {
                requeued: !quarantined,
                quarantined,
            },
            records,
        )
    }

    /// Expires lapsed leases: each is a burned lease (requeue with
    /// backoff, or quarantine). Returns the records to journal and what
    /// happened, for the coordinator's log.
    pub fn tick(&mut self, now_ms: u64) -> (Vec<JournalRecord>, Vec<Expiry>) {
        let lapsed: Vec<(String, String)> = self
            .entries
            .iter()
            .filter_map(|(fp, e)| match &e.slot {
                Slot::Leased {
                    worker,
                    deadline_ms,
                } if *deadline_ms < now_ms => Some((fp.clone(), worker.clone())),
                _ => None,
            })
            .collect();
        let mut records = Vec::new();
        let mut expiries = Vec::new();
        for (fp, worker) in lapsed {
            self.expired = self.expired.saturating_add(1);
            let label = self
                .entries
                .get(&fp)
                .map(|e| e.label.clone())
                .unwrap_or_default();
            let (quarantined, recs) = self.burn_lease(&fp, "lease-expired", now_ms);
            records.extend(recs);
            expiries.push(Expiry {
                fingerprint: fp,
                label,
                worker,
                quarantined,
            });
        }
        (records, expiries)
    }

    /// A lease ended without a verified result: record the failure on
    /// the breaker and either requeue with deterministic capped backoff
    /// or quarantine. Returns whether the job was quarantined.
    fn burn_lease(&mut self, fp: &str, exit: &str, now_ms: u64) -> (bool, Vec<JournalRecord>) {
        let tripped = self.breaker.record_failure(fp) || self.breaker.is_open(fp);
        let Some(e) = self.entries.get_mut(fp) else {
            return (false, Vec::new());
        };
        if matches!(e.slot, Slot::Terminal(_)) {
            return (false, Vec::new());
        }
        if tripped && self.max_leases > 0 {
            let rec = JournalRecord {
                fingerprint: fp.to_string(),
                label: e.label.clone(),
                event: JournalEvent::Quarantined {
                    leases: e.leases,
                    exit: exit.to_string(),
                },
            };
            e.slot = Slot::Terminal(rec.clone());
            return (true, vec![rec]);
        }
        let delay = u64::try_from(backoff_delay(e.leases).as_millis()).unwrap_or(u64::MAX);
        e.slot = Slot::Queued {
            not_before_ms: now_ms.saturating_add(delay),
        };
        (false, Vec::new())
    }

    /// The correlation id the submitting client attached to `fp`, if
    /// any — for the coordinator's fleet-trace events on transitions
    /// that arrive without one (expiry, completion, failure).
    pub fn corr_of(&self, fp: &str) -> Option<&str> {
        self.entries.get(fp).and_then(|e| e.corr.as_deref())
    }

    /// Terminal records for the requested fingerprints, in request
    /// order, plus how many are still pending and how many are unknown
    /// (a client seeing `unknown > 0` resubmits — the coordinator lost
    /// its journal).
    pub fn collect(&self, fps: &[String]) -> (Vec<JournalRecord>, usize, usize) {
        let mut records = Vec::new();
        let mut pending = 0usize;
        let mut unknown = 0usize;
        for fp in fps {
            match self.entries.get(fp) {
                Some(Entry {
                    slot: Slot::Terminal(rec),
                    ..
                }) => records.push(rec.clone()),
                Some(_) => pending = pending.saturating_add(1),
                None => unknown = unknown.saturating_add(1),
            }
        }
        (records, pending, unknown)
    }

    /// Current counters.
    pub fn counts(&self) -> QueueCounts {
        let mut c = QueueCounts {
            expired: self.expired,
            conflicts: self.conflicts,
            duplicates: self.duplicates,
            ..Default::default()
        };
        for e in self.entries.values() {
            match &e.slot {
                Slot::Queued { .. } => c.queued = c.queued.saturating_add(1),
                Slot::Leased { .. } => c.leased = c.leased.saturating_add(1),
                Slot::Terminal(rec) => match &rec.event {
                    JournalEvent::Done { .. } => c.done = c.done.saturating_add(1),
                    JournalEvent::Quarantined { .. } => {
                        c.quarantined = c.quarantined.saturating_add(1);
                    }
                    _ => c.failed = c.failed.saturating_add(1),
                },
            }
        }
        c
    }

    /// Rebuilds the state a write-ahead journal describes. Terminal
    /// records stand; anything else is re-queued immediately (a lease
    /// in flight at crash time either re-reports — dedup absorbs it —
    /// or is simply redone). Burned leases are replayed onto the
    /// breaker so a poison job cannot reset its budget by crashing the
    /// coordinator.
    pub fn replay(records: &[JournalRecord], lease_ms: u64, max_leases: u32) -> Self {
        let mut st = QueueState::new(lease_ms, max_leases);
        for rec in records {
            match &rec.event {
                JournalEvent::Queued { args } => {
                    if !st.entries.contains_key(&rec.fingerprint) {
                        st.entries.insert(
                            rec.fingerprint.clone(),
                            Entry {
                                label: rec.label.clone(),
                                args: args.clone(),
                                slot: Slot::Queued { not_before_ms: 0 },
                                leases: 0,
                                last_worker: None,
                                corr: None,
                            },
                        );
                        st.order.push(rec.fingerprint.clone());
                    }
                }
                JournalEvent::Leased { worker, lease } => {
                    if let Some(e) = st.entries.get_mut(&rec.fingerprint) {
                        if !matches!(e.slot, Slot::Terminal(_)) {
                            e.leases = e.leases.max(*lease);
                            e.last_worker = Some(worker.clone());
                        }
                    }
                }
                JournalEvent::Done { .. }
                | JournalEvent::Failed { .. }
                | JournalEvent::Quarantined { .. } => {
                    if let Some(e) = st.entries.get_mut(&rec.fingerprint) {
                        e.slot = Slot::Terminal(rec.clone());
                    } else {
                        // Terminal record without its queued line (an
                        // older journal form): tolerate it.
                        st.entries.insert(
                            rec.fingerprint.clone(),
                            Entry {
                                label: rec.label.clone(),
                                args: Vec::new(),
                                slot: Slot::Terminal(rec.clone()),
                                leases: 0,
                                last_worker: None,
                                corr: None,
                            },
                        );
                        st.order.push(rec.fingerprint.clone());
                    }
                }
                JournalEvent::Start { .. } => {}
            }
        }
        // Seed the breaker with the burned leases of unfinished jobs.
        let unfinished: Vec<(String, u32)> = st
            .entries
            .iter()
            .filter(|(_, e)| !matches!(e.slot, Slot::Terminal(_)))
            .map(|(fp, e)| (fp.clone(), e.leases))
            .collect();
        for (fp, leases) in unfinished {
            for _ in 0..leases {
                let _ = st.breaker.record_failure(&fp);
            }
        }
        st
    }

    /// The minimal record sequence reproducing this state (one `queued`
    /// per job, a lease-count marker for unfinished jobs, the terminal
    /// record where one exists) — what compaction writes at drain and
    /// after replay so the journal stays proportional to the job count.
    pub fn compacted(&self) -> Vec<JournalRecord> {
        let mut out = Vec::with_capacity(self.entries.len() * 2);
        for fp in &self.order {
            let Some(e) = self.entries.get(fp) else {
                continue;
            };
            out.push(JournalRecord {
                fingerprint: fp.clone(),
                label: e.label.clone(),
                event: JournalEvent::Queued {
                    args: e.args.clone(),
                },
            });
            match &e.slot {
                Slot::Terminal(rec) => out.push(rec.clone()),
                _ if e.leases > 0 => out.push(JournalRecord {
                    fingerprint: fp.clone(),
                    label: e.label.clone(),
                    event: JournalEvent::Leased {
                        worker: e.last_worker.clone().unwrap_or_default(),
                        lease: e.leases,
                    },
                }),
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use barre_system::RunMetrics;

    fn spec(fp: &str) -> JobSpec {
        JobSpec {
            fingerprint: fp.to_string(),
            label: format!("app/{fp}"),
            args: vec!["sweep".into(), "--job-index".into(), "0".into()],
            corr: Some(format!("c{fp}")),
        }
    }

    fn metrics(cycles: u64) -> Box<RunMetrics> {
        Box::new(RunMetrics {
            total_cycles: cycles,
            ..Default::default()
        })
    }

    /// A worker's verified `done` record for job `fp`.
    fn done(fp: &str, cycles: u64) -> JournalRecord {
        JournalRecord::done(fp, "app/worker-label", 1, None, metrics(cycles))
    }

    fn complete_ok(
        st: &mut QueueState,
        fp: &str,
        worker: &str,
        cycles: u64,
        now: u64,
    ) -> IngestReply {
        st.complete(done(fp, cycles), worker, now).0
    }

    #[test]
    fn lease_complete_happy_path() {
        let mut st = QueueState::new(1000, 3);
        let (acc, known, recs) = st.submit(&[spec("f1"), spec("f2"), spec("f1")]);
        assert_eq!((acc, known), (2, 1));
        assert_eq!(recs.len(), 2);
        let (reply, recs) = st.lease("w1", 0);
        assert!(matches!(reply, LeaseReply::Job { ref fingerprint, .. } if fingerprint == "f1"));
        assert_eq!(recs.len(), 1);
        assert!(st.heartbeat("f1", "w1", 500));
        assert!(!st.heartbeat("f1", "w2", 500), "wrong holder");
        assert_eq!(
            complete_ok(&mut st, "f1", "w1", 10, 600),
            IngestReply::Accepted
        );
        let c = st.counts();
        assert_eq!((c.done, c.queued, c.leased), (1, 1, 0));
        // The stamped record carries the worker identity.
        let (recs, pending, unknown) = st.collect(&["f1".into(), "f2".into(), "fx".into()]);
        assert_eq!((recs.len(), pending, unknown), (1, 1, 1));
        match &recs[0].event {
            JournalEvent::Done { worker, .. } => assert_eq!(worker.as_deref(), Some("w1")),
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn wake_times_follow_deadlines_and_backoffs() {
        let mut st = QueueState::new(100, 3);
        assert_eq!((st.next_deadline_ms(), st.next_ready_ms(0)), (None, None));
        st.submit(&[spec("f1"), spec("f2")]);
        // Fresh jobs are leasable now: nothing to wait for.
        assert_eq!(st.next_ready_ms(0), None);
        let _ = st.lease("w1", 10);
        let _ = st.lease("w2", 30);
        assert_eq!(st.next_deadline_ms(), Some(110));
        // Nothing is overdue until `now` passes the deadline.
        assert!(st.tick(110).1.is_empty());
        assert_eq!(st.tick(111).1.len(), 1);
        // f1 waits out its 200 ms backoff; f2's lease is the next deadline.
        assert_eq!(st.next_ready_ms(111), Some(311));
        assert_eq!(st.next_ready_ms(311), None);
        assert_eq!(st.next_deadline_ms(), Some(130));
    }

    #[test]
    fn expired_lease_requeues_with_backoff_then_quarantines() {
        let mut st = QueueState::new(100, 3);
        st.submit(&[spec("f1")]);
        // Lease 1 expires.
        let (reply, _) = st.lease("w1", 0);
        assert!(matches!(reply, LeaseReply::Job { .. }));
        let (recs, exp) = st.tick(101);
        assert!(recs.is_empty(), "requeue writes no record");
        assert_eq!(exp.len(), 1);
        assert!(!exp[0].quarantined);
        assert_eq!(st.counts().expired, 1);
        // Backoff: not leasable immediately.
        let (reply, _) = st.lease("w1", 102);
        let hint = match reply {
            LeaseReply::Empty {
                retry_after_ms,
                active,
            } => {
                assert_eq!(active, 1);
                retry_after_ms
            }
            other => panic!("expected empty, got {other:?}"),
        };
        assert!(hint >= 50, "{hint}");
        // After backoff (200ms for lease 1), leasable again.
        let (reply, _) = st.lease("w1", 400);
        assert!(matches!(reply, LeaseReply::Job { .. }));
        let _ = st.tick(501);
        // Third lease; its expiry trips the breaker (max_leases = 3).
        let (reply, _) = st.lease("w2", 1000);
        assert!(matches!(reply, LeaseReply::Job { .. }));
        let (recs, exp) = st.tick(1101);
        assert_eq!(recs.len(), 1);
        assert!(exp[0].quarantined);
        match &recs[0].event {
            JournalEvent::Quarantined { leases, exit } => {
                assert_eq!(*leases, 3);
                assert_eq!(exit, "lease-expired");
            }
            other => panic!("expected quarantined, got {other:?}"),
        }
        assert_eq!(st.counts().quarantined, 1);
        // Quarantined jobs are never re-leased.
        let (reply, _) = st.lease("w1", 9999);
        assert!(matches!(reply, LeaseReply::Empty { active: 0, .. }));
    }

    #[test]
    fn ingest_dedups_first_wins_and_detects_conflicts() {
        let mut st = QueueState::new(1000, 3);
        st.submit(&[spec("f1")]);
        let _ = st.lease("w1", 0);
        assert_eq!(
            complete_ok(&mut st, "f1", "w1", 10, 1),
            IngestReply::Accepted
        );
        // Identical duplicate from a slow worker: dropped silently.
        assert_eq!(
            complete_ok(&mut st, "f1", "w2", 10, 2),
            IngestReply::Duplicate
        );
        // Different digest: conflict, first result stands.
        assert_eq!(
            complete_ok(&mut st, "f1", "w2", 11, 3),
            IngestReply::Conflict
        );
        let c = st.counts();
        assert_eq!((c.duplicates, c.conflicts, c.done), (1, 1, 1));
        let (recs, _, _) = st.collect(&["f1".into()]);
        match &recs[0].event {
            JournalEvent::Done {
                metrics, worker, ..
            } => {
                assert_eq!(metrics.total_cycles, 10);
                assert_eq!(worker.as_deref(), Some("w1"));
            }
            other => panic!("expected done, got {other:?}"),
        }
    }

    #[test]
    fn bad_digest_burns_the_lease_and_success_resets_the_budget() {
        let mut st = QueueState::new(1000, 2);
        st.submit(&[spec("f1")]);
        let _ = st.lease("w1", 0);
        let mut rec = done("f1", 10);
        if let JournalEvent::Done { digest, .. } = &mut rec.event {
            *digest = "not-the-digest".to_string();
        }
        let (reply, _) = st.complete(rec, "w1", 1);
        assert_eq!(reply, IngestReply::BadDigest);
        // Burned lease 1 of 2; re-leasable after backoff, and a clean
        // completion then lands and resets the breaker.
        let (reply, _) = st.lease("w1", 500);
        assert!(matches!(reply, LeaseReply::Job { .. }));
        assert_eq!(
            complete_ok(&mut st, "f1", "w1", 10, 501),
            IngestReply::Accepted
        );
        assert_eq!(st.counts().done, 1);
    }

    #[test]
    fn permanent_failure_is_terminal_and_transient_failures_quarantine() {
        let mut st = QueueState::new(1000, 2);
        st.submit(&[spec("f1"), spec("f2")]);
        let _ = st.lease("w1", 0); // f1
        let (reply, recs) = st.fail("f1", 1, "exit:64", true, 1);
        assert!(!reply.requeued && !reply.quarantined);
        assert!(matches!(recs[0].event, JournalEvent::Failed { .. }));
        // f2 fails transiently twice → quarantined on the second burn.
        let _ = st.lease("w1", 2); // f2
        let (reply, _) = st.fail("f2", 1, "signal:9", false, 3);
        assert!(reply.requeued && !reply.quarantined);
        let (reply, _) = st.lease("w1", 500);
        assert!(matches!(reply, LeaseReply::Job { .. }));
        let (reply, recs) = st.fail("f2", 1, "signal:9", false, 501);
        assert!(!reply.requeued && reply.quarantined);
        assert!(matches!(recs[0].event, JournalEvent::Quarantined { .. }));
        let c = st.counts();
        assert_eq!((c.failed, c.quarantined, c.active()), (1, 1, 0));
    }

    #[test]
    fn late_completion_displaces_quarantine() {
        let mut st = QueueState::new(100, 1);
        st.submit(&[spec("f1")]);
        let _ = st.lease("w1", 0);
        let (_, exp) = st.tick(101);
        assert!(
            exp[0].quarantined,
            "max_leases=1 quarantines on first expiry"
        );
        // The SIGKILLed-looking worker was actually alive and delivers.
        assert_eq!(
            complete_ok(&mut st, "f1", "w1", 10, 200),
            IngestReply::Accepted
        );
        let c = st.counts();
        assert_eq!((c.done, c.quarantined), (1, 0));
    }

    #[test]
    fn replay_restores_state_and_poison_budget() {
        let mut st = QueueState::new(1000, 2);
        st.submit(&[spec("f1"), spec("f2"), spec("f3")]);
        let mut wal = Vec::new();
        let (_, recs) = st.lease("w1", 0); // f1
        wal.extend(recs);
        let (_, recs) = st.lease("w2", 0); // f2
        wal.extend(recs);
        let (_, recs) = st.complete(done("f1", 10), "w1", 1);
        wal.extend(recs);
        // Rebuild from submit records + the WAL above.
        let mut records: Vec<JournalRecord> = st
            .compacted()
            .into_iter()
            .filter(|r| matches!(r.event, JournalEvent::Queued { .. }))
            .collect();
        records.extend(wal);
        let st2 = QueueState::replay(&records, 1000, 2);
        let c = st2.counts();
        // f1 done; f2's in-flight lease was reset to queued; f3 queued.
        assert_eq!((c.done, c.queued, c.leased), (1, 2, 0));
        // f2 already burned one of its two leases: one more failed
        // lease must quarantine it, not restart the budget.
        let mut st2 = st2;
        let (reply, _) = st2.lease("w3", 0);
        assert!(matches!(reply, LeaseReply::Job { ref fingerprint, .. } if fingerprint == "f2"));
        let (reply, _) = st2.fail("f2", 1, "signal:9", false, 1);
        assert!(reply.quarantined, "replayed lease counts toward poison");
    }

    #[test]
    fn corr_ids_flow_to_leases_but_never_into_journals() {
        let mut st = QueueState::new(1000, 3);
        let (_, _, recs) = st.submit(&[spec("f1")]);
        assert!(!recs[0].to_line().contains("cf1"), "corr leaked to journal");
        let (reply, recs) = st.lease("w1", 0);
        match reply {
            LeaseReply::Job { corr, .. } => assert_eq!(corr.as_deref(), Some("cf1")),
            other => panic!("expected job, got {other:?}"),
        }
        assert!(!recs[0].to_line().contains("cf1"), "corr leaked to journal");
        assert_eq!(st.corr_of("f1"), Some("cf1"));
        assert_eq!(st.corr_of("nope"), None);
        for r in st.compacted() {
            assert!(!r.to_line().contains("cf1"), "corr leaked to compaction");
        }
    }

    #[test]
    fn compaction_roundtrips_through_replay() {
        let mut st = QueueState::new(1000, 3);
        st.submit(&[spec("f1"), spec("f2"), spec("f3"), spec("f4")]);
        let _ = st.lease("w1", 0); // f1 leased
        assert_eq!(
            complete_ok(&mut st, "f1", "w1", 10, 1),
            IngestReply::Accepted
        );
        let _ = st.lease("w1", 2); // f2 leased, left in flight
        let _ = st.fail("f3", 1, "exit:64", true, 3);
        let compact = st.compacted();
        let st2 = QueueState::replay(&compact, 1000, 3);
        let (c1, c2) = (st.counts(), st2.counts());
        assert_eq!(c1.done, c2.done);
        assert_eq!(c1.failed, c2.failed);
        assert_eq!(c1.quarantined, c2.quarantined);
        // In-flight leases come back as queued work.
        assert_eq!(c2.leased, 0);
        assert_eq!(c2.queued, c1.queued + c1.leased);
        // Collect order and payload survive.
        let fps: Vec<String> = vec!["f1".into(), "f2".into(), "f3".into(), "f4".into()];
        let (r1, _, _) = st.collect(&fps);
        let (r2, _, _) = st2.collect(&fps);
        let l1: Vec<String> = r1.iter().map(JournalRecord::to_line).collect();
        let l2: Vec<String> = r2.iter().map(JournalRecord::to_line).collect();
        assert_eq!(l1, l2);
    }
}
