//! `barre serve` — a hardened simulation-as-a-service daemon.
//!
//! A long-running process that accepts simulation requests as JSONL over
//! TCP (one JSON object per line, one JSON response line per request, in
//! order) plus a minimal hand-rolled HTTP/1.1 shim for `GET /healthz`,
//! `GET /readyz`, `GET /stats` (JSON), and `GET /metrics` (Prometheus
//! text exposition). Every request is validated into the
//! same canonical job the CLI would run (its machine built by the
//! CLI's own [`request::build_config`]), simulated on a worker thread of
//! the daemon, and cached content-addressed by the journal fingerprint
//! of its canonical `barre run --metrics-json …` argument vector. The
//! answer is byte-identical to what that command prints.
//!
//! Robustness machinery, in the order a request meets it:
//!
//! * **Validation** — unknown fields, unknown apps/modes, and
//!   out-of-range values are rejected immediately (`400`-style).
//! * **Circuit breaker** — a fingerprint that keeps producing terminal
//!   failures is quarantined ([`breaker`]) and answered `503` without
//!   simulating anything.
//! * **Result cache** — completed runs are served from a torn-tail-
//!   tolerant journal file through an in-memory offset index, each
//!   record digest-verified as it is read back ([`cache`]); hits are
//!   byte-identical to the first computation.
//! * **Admission queue** — a bounded queue ([`queue`]); when full the
//!   request is shed with a `429`-style response and a deterministic
//!   `retry_after_ms` hint instead of queuing unboundedly.
//! * **Deadline** — each request carries a wall-clock budget spanning
//!   queue wait and all attempts; the running machine checks it every
//!   [`barre_system::CANCEL_CHECK_PERIOD`] events and stops at expiry
//!   (`504`). Transient `SimError`s and panics (caught on the worker)
//!   retry with the supervisor's deterministic capped backoff
//!   ([`attempt::backoff_delay`]); permanent `SimError`s return
//!   structured errors and never retry. Failures read as the matching
//!   `barre run` child exit would have (`exit:64`, `exit:65`,
//!   `exit:101` for a panic).
//! * **Graceful drain** — SIGINT/SIGTERM ([`signal`]) stops accepting,
//!   lets queued and in-flight jobs finish (or hit their deadlines),
//!   flushes a compacted cache index, and exits 0; a restart warm-loads
//!   the cache.
//!
//! Per-request latency, per-attempt simulate time and queue depth are
//! recorded in `barre-trace` fixed-bucket histograms and exposed via
//! `/stats` (percentiles) and `/metrics` (cumulative buckets)
//! ([`stats`]). Diagnostics are leveled
//! JSONL structured log events (`barre-obs`; `BARRE_LOG`, `--log-file`),
//! including a per-request debug-level trace summary, and the daemon
//! participates in fleet tracing (`BARRE_FLEET_TRACE`, `BARRE_CORR_ID`)
//! stitched by `barre report --fleet`.
//!
//! The crate also hosts the serve-adjacent distributed dispatch stack
//! ([`jobq`]): the `barre queue` lease-based job-queue coordinator, the
//! `barre worker` executor, and the `barre sweep --dispatch` client —
//! built on the same TCP/JSONL framing and drain signals as the daemon.
//! The worker keeps crash-isolated child attempts ([`attempt`]), which
//! `barre sweep --supervise` uses too.
//!
//! Both daemons run on one skeleton, [`daemon`]: it owns bind, the
//! `listening on <addr>` handshake, the accept loop, the per-connection
//! JSONL loop, and the HTTP shim ([`http`]). [`server`] and
//! [`jobq::coordinator`] each supply only a [`daemon::Service`].

pub mod attempt;
pub mod breaker;
pub mod cache;
pub mod daemon;
pub mod http;
pub mod jobq;
pub mod queue;
pub mod request;
pub mod server;
pub mod signal;
pub mod stats;

pub use server::{run_serve, ServeOptions};
