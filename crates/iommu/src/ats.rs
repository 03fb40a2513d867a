//! Address Translation Service packets.

use barre_core::PecEntry;
use barre_mem::{ChipletId, GlobalPfn, Vpn};
use barre_sim::Cycle;

/// Wire size of an ATS translation request (PCIe TLP header + address),
/// used for PCIe serialization accounting.
pub const ATS_REQUEST_BYTES: u64 = 16;

/// Wire size of an ATS translation response. A coalesced response carries
/// the 11 coalescing bits plus the 118-bit PEC record (§V-A3) — still
/// under one additional DWORD-aligned unit, so the model charges a flat
/// 32 bytes.
pub const ATS_RESPONSE_BYTES: u64 = 32;

/// One translation request as seen by the IOMMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtsRequest {
    /// System-wide unique id (assigned by the requesting chiplet).
    pub id: u64,
    /// Address space of the faulting access.
    pub asid: u16,
    /// Virtual page to translate.
    pub vpn: Vpn,
    /// Requesting chiplet.
    pub chiplet: ChipletId,
    /// Cycle the L2 TLB miss was issued (ATS latency accounting).
    pub issued_at: Cycle,
}

/// A translation response returned to a chiplet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtsResponse {
    /// The request being answered.
    pub req: AtsRequest,
    /// The translated frame; `None` signals a translation fault.
    pub pfn: Option<GlobalPfn>,
    /// Raw 11-bit coalescing field of the translated PTE (0 when
    /// uncoalesced or when Barre is disabled).
    pub coal_bits: u16,
    /// The data's PEC record, piggybacked when the page is coalesced and
    /// the platform runs F-Barre.
    pub pec_entry: Option<PecEntry>,
    /// Whether this response was produced by PEC calculation rather than
    /// a page table walk.
    pub coalesced: bool,
    /// Whether the producing walk hit the IOMMU TLB.
    pub iommu_tlb_hit: bool,
    /// Cycle the serving walk occupied its walker slot (PTW-stage
    /// tracing seam). Calculated and multicast responses carry the
    /// primary walk's start, since that walk served them.
    pub walk_started_at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_copy_and_comparable() {
        let r = AtsRequest {
            id: 1,
            asid: 0,
            vpn: Vpn(0xA1),
            chiplet: ChipletId(2),
            issued_at: 100,
        };
        let r2 = r;
        assert_eq!(r, r2);
    }

    #[test]
    fn packet_sizes_are_pcie_plausible() {
        const { assert!(ATS_REQUEST_BYTES >= 12) };
        const { assert!(ATS_RESPONSE_BYTES > ATS_REQUEST_BYTES) };
    }
}
