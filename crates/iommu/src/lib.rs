//! The IOMMU model.
//!
//! The host-side translation agent of the MCM-GPU (Fig 3): address
//! translation service (ATS) requests arrive over PCIe, wait in a 48-entry
//! page-walk queue, and are served by 16 page table walkers with a
//! 500-cycle walk latency (Table II). This crate models the IOMMU as a
//! passive state machine — the system event loop drives it with
//! `enqueue` / `dispatch` / `complete_walk` calls and schedules the
//! completion times it returns — so the same component serves every
//! translation mode:
//!
//! * plain walks (baseline, Valkyrie, Least),
//! * **Barre**: a PEC logic per PTW scans the PW-queue on walk completion
//!   and serves same-group pending requests by calculation,
//! * **F-Barre**: additionally ships the PEC-buffer record and coalescing
//!   bits in the ATS response, and applies coalescing-aware PTW
//!   scheduling (§V-C),
//! * an optional 2048-entry / 200-cycle IOMMU TLB (§VII-J).

pub mod ats;
pub mod iommu;
pub mod pec_unit;

pub use ats::{AtsRequest, AtsResponse, ATS_REQUEST_BYTES, ATS_RESPONSE_BYTES};
pub use iommu::{Iommu, IommuConfig, IommuStats};
pub use pec_unit::{PecUnit, WalkedPte};
