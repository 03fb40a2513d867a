//! # Barre Chord
//!
//! A from-scratch Rust reproduction of *Barre Chord: Efficient Virtual
//! Memory Translation for Multi-Chip-Module GPUs* (ISCA 2024), together
//! with every substrate the paper depends on: a deterministic MCM-GPU
//! translation-path simulator, an IOMMU model, page mapping policies,
//! synthetic versions of the 19 evaluated workloads, and the state-of-the-art
//! baselines (Valkyrie, Least, MGvm, ACUD, super pages).
//!
//! This facade crate re-exports the public API of every workspace crate so
//! downstream users can depend on a single package:
//!
//! ```
//! use barre_chord::system::{smoke_config, Run, TranslationMode};
//! use barre_chord::workloads::AppId;
//!
//! let cfg = smoke_config().with_mode(TranslationMode::FBarre(Default::default()));
//! let metrics = Run::app(AppId::Gups, cfg, 42).simulate().expect("simulation failed");
//! assert!(metrics.total_cycles > 0);
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use barre_core as core;
pub use barre_filters as filters;
pub use barre_gpu as gpu;
pub use barre_iommu as iommu;
pub use barre_mapping as mapping;
pub use barre_mem as mem;
pub use barre_sim as sim;
pub use barre_system as system;
pub use barre_tlb as tlb;
pub use barre_workloads as workloads;
