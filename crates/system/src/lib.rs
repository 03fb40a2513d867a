//! Full-machine composition: the runnable MCM-GPU translation-path model.
//!
//! Everything the paper's evaluation needs funnels through this crate:
//!
//! * [`SystemConfig`] — Table II parameters plus translation-mode,
//!   policy, page-size, PTW, MSHR, migration and topology knobs;
//! * [`TranslationMode`] — baseline, Valkyrie, Least, ideal shared L2,
//!   Barre, and F-Barre with its feature toggles;
//! * [`Run`] — one simulation (workloads, machine, seed): the one
//!   description every front end executes; [`Run::simulate`] returns
//!   `Result<RunMetrics, SimError>`;
//! * [`SimError`] — the failure taxonomy (misconfiguration, frame
//!   exhaustion, translation faults, watchdog aborts);
//! * [`speedup`] / [`geomean`] — the ratios the figures plot.
//!
//! # Example
//!
//! ```
//! use barre_system::{smoke_config, speedup, Run, TranslationMode};
//! use barre_workloads::AppId;
//!
//! let cfg = smoke_config();
//! let base = Run::app(AppId::Gups, cfg.clone(), 42).simulate().unwrap();
//! let barre = Run::app(AppId::Gups, cfg.with_mode(TranslationMode::Barre), 42);
//! assert!(speedup(&base, &barre.simulate().unwrap()) > 0.0);
//! ```

/// System configuration (Table II) and translation-mode selection.
pub mod config;
/// The failure taxonomy of the build/run pipeline.
pub mod error;
/// Write-ahead run journal behind `barre sweep --resume` / `barre merge`.
pub mod journal;
/// The full-machine event-driven model.
pub mod machine;
/// Per-run measurements — everything the figures are plotted from.
pub mod metrics;
mod reqtrack;
/// Building and running experiments (single runs, batches, sweeps).
pub mod runner;
/// Conservation-law sanitizer (compiled under `--features sanitizer`).
#[cfg(feature = "sanitizer")]
pub mod sanitizer;

pub use config::{
    AtsRetryConfig, DemandPagingConfig, FBarreConfig, MigrationConfig, MmuKind, SystemConfig,
    TranslationMode,
};
pub use error::SimError;
pub use journal::{
    fingerprint, fold_terminal, journal_file_of, merge_journals, metrics_digest, metrics_from_json,
    metrics_hist_digest, metrics_text_digests, metrics_to_json, read_journal, read_journal_lenient,
    verified_done_index, DoneLine, JobFailure, JournalError, JournalEvent, JournalRecord,
    JournalWriter, Json, SweepOutcome, JOURNAL_FILE,
};
pub use machine::{
    L2Payload, Machine, CANCEL_CHECK_PERIOD, EVENT_CLASSES, POP_SAMPLE_PERIOD, PROBE_POPPED,
};
pub use metrics::{geomean, speedup, RunMetrics};
pub use runner::{
    build_machine, chaos_jobs, run_batch, run_spec, smoke_config, summary_line, sweep_jobs,
    LabeledJob, Run,
};
#[cfg(feature = "sanitizer")]
pub use sanitizer::{SanitizerReport, Violation};
