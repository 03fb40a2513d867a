//! Full-machine composition: the runnable MCM-GPU translation-path model.
//!
//! Everything the paper's evaluation needs funnels through this crate:
//!
//! * [`SystemConfig`] — Table II parameters plus translation-mode,
//!   policy, page-size, PTW, MSHR, migration and topology knobs;
//! * [`TranslationMode`] — baseline, Valkyrie, Least, ideal shared L2,
//!   Barre, and F-Barre with its feature toggles;
//! * [`run_app`] / [`run_spec`] / [`run_pair`] — build and run one
//!   experiment, returning `Result<RunMetrics, SimError>`;
//! * [`SimError`] — the failure taxonomy (misconfiguration, frame
//!   exhaustion, translation faults, watchdog aborts);
//! * [`speedup`] / [`geomean`] — the ratios the figures plot.
//!
//! # Example
//!
//! ```
//! use barre_system::{run_app, smoke_config, speedup, SystemConfig, TranslationMode};
//! use barre_workloads::AppId;
//!
//! let cfg = smoke_config();
//! let base = run_app(AppId::Gups, &cfg, 42).unwrap();
//! let barre = run_app(AppId::Gups, &cfg.clone().with_mode(TranslationMode::Barre), 42).unwrap();
//! assert!(speedup(&base, &barre) > 0.0);
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
    completed_index, fingerprint, merge_journals, metrics_digest, metrics_from_json,
    metrics_hist_digest, metrics_to_json, read_journal, read_journal_lenient, verified_done_index,
    JournalError, JournalEvent, JournalRecord, JournalWriter, Json, JOURNAL_FILE,
};
pub use machine::{
    L2Payload, Machine, CANCEL_CHECK_PERIOD, EVENT_CLASSES, POP_SAMPLE_PERIOD, PROBE_POPPED,
};
pub use metrics::{geomean, speedup, RunMetrics};
pub use runner::{
    build_machine, chaos_jobs, run_app, run_batch, run_pair, run_spec, smoke_config, summary_line,
    sweep_jobs, trace_app, BatchJob, LabeledJob,
};
#[cfg(feature = "sanitizer")]
pub use sanitizer::{SanitizerReport, Violation};
