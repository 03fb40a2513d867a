//! The experiment harness: the figure registry behind `barre repro`,
//! and the wall-clock sweep behind `barre bench`.
//!
//! [`figures::registry`] holds one entry per paper table or figure: its
//! cells (workloads, `SystemConfig`, seed) and an extractor that turns
//! their `RunMetrics` into a uniform [`results::Table`].
//! [`results::run`] simulates each distinct cell of a selection once on
//! the run-level worker pool. The committed `RESULTS.json` is the whole
//! registry's output, and `EXPERIMENTS.md` embeds its tables.

use barre_system::SimError;

pub mod figures;
pub mod results;
pub mod wallclock;

/// A sweep failure: which configuration died, and the underlying error.
#[derive(Debug)]
pub struct SweepError {
    /// Label of the offending configuration.
    pub label: String,
    /// What went wrong.
    pub error: SimError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config {}: {}", self.label, self.error)
    }
}

impl std::error::Error for SweepError {}

/// Standard experiment seed (fixed for reproducibility).
pub const SEED: u64 = 0x15CA_2024;
