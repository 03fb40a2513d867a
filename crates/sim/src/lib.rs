//! Deterministic discrete-event simulation kernel for the Barre Chord
//! MCM-GPU model.
//!
//! The whole reproduction is built on this small crate: a cycle-accurate
//! event queue with deterministic tie-breaking ([`EventQueue`]), a
//! latency/bandwidth link model ([`link::Link`]), statistics primitives
//! ([`stats`]) and a seedable, wall-clock-free RNG ([`rng`]).
//!
//! Determinism is a hard requirement — two runs with the same seed must
//! produce identical cycle counts — so each simulation is single-threaded,
//! events at the same cycle are ordered by insertion sequence, and no
//! `std::time` or hash-map iteration order leaks into results. Parallelism
//! lives strictly *between* independent runs: [`pool`] fans a batch of
//! simulation jobs across scoped worker threads and hands results back in
//! input order, so a sweep's output is identical at any thread count.
//!
//! # Example
//!
//! ```
//! use barre_sim::EventQueue;
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.push(10, Ev::Pong);
//! q.push(5, Ev::Ping);
//! assert_eq!(q.pop(), Some((5, Ev::Ping)));
//! assert_eq!(q.pop(), Some((10, Ev::Pong)));
//! ```

pub mod fault;
pub mod link;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;

pub use fault::{FaultCounts, FaultInjector, FaultPlan};
pub use link::Link;
pub use pool::PoolError;
pub use queue::EventQueue;
pub use rng::{Rng, SeedTap};
pub use stats::{Counter, Histogram, RatioStat};

/// Simulation time, in GPU core cycles (the model assumes a 1 GHz clock, so
/// one cycle is one nanosecond when converting from the paper's latencies).
pub type Cycle = u64;
