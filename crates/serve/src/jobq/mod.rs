//! The lease-based shared job queue behind `barre queue`, `barre
//! worker`, and `barre sweep --dispatch`.
//!
//! Three roles, one wire protocol:
//!
//! * [`coordinator`] — `barre queue`: owns the jobs. Every transition
//!   (`queued → leased → done/failed/quarantined`) goes through the
//!   pure [`state::QueueState`] machine and is appended to a
//!   write-ahead journal before the reply leaves the socket, so a
//!   SIGKILLed coordinator restarts with no lost or duplicated work.
//! * [`worker`] — `barre worker`: pulls jobs under time-bounded leases,
//!   heartbeats to keep them, executes in crash-isolated children, and
//!   abandons attempts whose lease the coordinator re-dispatched.
//! * [`client`] — the dispatch side of `barre sweep --dispatch`:
//!   submits jobs idempotently, streams completion, and rebuilds the
//!   sweep's results (and journal) in job order so a distributed run's
//!   output is byte-identical to a serial one.
//!
//! Robustness properties: expired leases re-dispatch with the
//! supervisor's deterministic capped backoff; a job that burns its
//! lease budget is quarantined as poison (the serve circuit breaker is
//! the counter) and reported instead of retried forever; completions
//! are digest-verified on ingest and deduplicated first-wins with
//! conflict detection — the same contract `merge_journals` enforces
//! across shards.

pub mod client;
pub mod coordinator;
pub mod state;
pub mod wire;
pub mod worker;

pub use client::dispatch_sweep;
pub use coordinator::{run_queue, QueueOptions};
pub use state::JobSpec;
pub use worker::{run_worker, WorkerOptions};
