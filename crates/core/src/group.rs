//! Coalescing-group vocabulary.
//!
//! A *coalescing group* is a batch of pages of one data object mapped to
//! the same local PFN across 2..=N chiplets (§IV-A). The group itself is
//! never materialized in hardware; it is implied by three pieces of state:
//!
//! 1. the PTE's coalescing bits ([`crate::encoding::CoalInfo`]),
//! 2. the data object's PEC-buffer record ([`PecEntry`]), and
//! 3. the MCM-wide invariant that group members share a local PFN.

use barre_mem::virt_alloc::VpnRange;
use barre_mem::{ChipletId, Vpn};

/// Most chiplets a [`GpuMap`] can name (the wide mode's limit).
pub const GPU_MAP_MAX: usize = 16;

/// VPN-order → chiplet mapping of one data object (§IV-E, Fig 10).
///
/// Entry `k` is the chiplet that holds the `k`-th VPN of every coalescing
/// group of the data. LASP guarantees all groups of a data object share one
/// order, so a single map per data suffices. At most 8 chiplets (3-bit
/// entries × 8 in the 24-bit PEC field); the wide scalability mode
/// (`CoalMode::Wide`, §VI) raises the limit to 16 at the cost of a larger
/// PEC record, which [`encode`](Self::encode) does not cover.
///
/// The order is stored inline (unused positions hold chiplet 0), so a
/// map — and the [`PecEntry`] around it — is `Copy`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GpuMap {
    order: [ChipletId; GPU_MAP_MAX],
    len: u8,
}

impl std::fmt::Debug for GpuMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuMap")
            .field("order", &self.order())
            .finish()
    }
}

impl GpuMap {
    /// Builds a map from a chiplet order.
    ///
    /// # Panics
    ///
    /// Panics if the order is empty, longer than 16, or contains duplicate
    /// chiplets (group members must live on distinct chiplets).
    pub fn new(order: &[ChipletId]) -> Self {
        assert!(!order.is_empty(), "GPU map cannot be empty");
        assert!(
            order.len() <= GPU_MAP_MAX,
            "GPU map supports at most 16 chiplets"
        );
        let mut map = Self {
            order: [ChipletId(0); GPU_MAP_MAX],
            len: 0,
        };
        for &c in order {
            assert!(
                !map.order().contains(&c),
                "duplicate chiplet {c} in GPU map"
            );
            if let Some(slot) = map.order.get_mut(map.len as usize) {
                *slot = c;
            }
            map.len += 1;
        }
        map
    }

    /// The linear order `GPU0, GPU1, …, GPUn-1`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above 16.
    pub fn linear(n: usize) -> Self {
        assert!(n <= GPU_MAP_MAX, "GPU map supports at most 16 chiplets");
        let mut order = [ChipletId(0); GPU_MAP_MAX];
        for (k, c) in order.iter_mut().enumerate() {
            *c = ChipletId(k as u8);
        }
        Self::new(order.get(..n).unwrap_or(&[]))
    }

    /// Number of sharer chiplets.
    pub fn sharers(&self) -> usize {
        self.len as usize
    }

    /// Chiplet at group position `k` (the `inter-GPU_coal_order`).
    pub fn chiplet_at(&self, k: usize) -> Option<ChipletId> {
        self.order().get(k).copied()
    }

    /// The raw order.
    pub fn order(&self) -> &[ChipletId] {
        // `len <= GPU_MAP_MAX` by construction.
        self.order.get(..self.len as usize).unwrap_or(&[])
    }

    /// Packs the map into the PEC-buffer wire format (3 bits per entry,
    /// up to 24 bits).
    ///
    /// # Panics
    ///
    /// Panics when the map exceeds the 8-chiplet wire format (wide-mode
    /// maps are modeled but have no 118-bit PEC encoding).
    pub fn encode(&self) -> u32 {
        assert!(
            self.len <= 8 && self.order().iter().all(|c| c.0 < 8),
            "wire format covers at most 8 chiplets"
        );
        let mut w = 0u32;
        for (k, c) in self.order().iter().enumerate() {
            w |= (c.0 as u32 & 0x7) << (3 * k);
        }
        w
    }

    /// Unpacks a wire-format map of `sharers` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sharers` is 0 or above 8, or the word repeats a chiplet.
    pub fn decode(w: u32, sharers: usize) -> Self {
        assert!(sharers <= 8, "wire format covers at most 8 chiplets");
        let mut order = [ChipletId(0); 8];
        for (k, c) in order.iter_mut().enumerate() {
            *c = ChipletId(((w >> (3 * k)) & 0x7) as u8);
        }
        Self::new(order.get(..sharers).unwrap_or(&[]))
    }
}

/// One PEC-buffer record: the per-data information needed to enumerate
/// coalescing VPNs and calculate PFNs (§IV-E).
///
/// The hardware encoding is 118 bits: 40 (start VPN) + 40 (end VPN) +
/// 14 (`interlv_gran`) + 24 (GPU map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PecEntry {
    /// Address-space the data belongs to.
    pub asid: u16,
    /// The data object's VPN range.
    pub range: VpnRange,
    /// Pages per chiplet per round (`interlv_gran`).
    pub gran: u64,
    /// VPN-order → chiplet mapping.
    pub gpu_map: GpuMap,
}

/// Size of one PEC buffer entry in bits (§V-A3).
pub const PEC_ENTRY_BITS: usize = 40 + 40 + 14 + 24;

impl PecEntry {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// Panics if `gran` is zero.
    pub fn new(asid: u16, range: VpnRange, gran: u64, gpu_map: GpuMap) -> Self {
        assert!(gran > 0, "interleave granularity must be nonzero");
        Self {
            asid,
            range,
            gran,
            gpu_map,
        }
    }

    /// Whether `vpn` lies inside this data object.
    pub fn contains(&self, asid: u16, vpn: Vpn) -> bool {
        self.asid == asid && self.range.contains(vpn)
    }

    /// Data size in pages (the eviction priority of the PEC buffer).
    pub fn pages(&self) -> u64 {
        self.range.pages
    }

    /// Decomposes a VPN of this data into
    /// `(round, inter_position, intra_position)`:
    ///
    /// * `intra` — offset within the chiplet's `gran`-page chunk,
    /// * `inter` — chunk position within the round (the group position),
    /// * `round` — which repetition of the full chiplet cycle.
    pub fn coords(&self, vpn: Vpn) -> Option<GroupCoords> {
        let idx = self.range.index_of(vpn)?;
        let chunk = idx / self.gran;
        let intra = idx % self.gran;
        let sharers = self.gpu_map.sharers() as u64;
        Some(GroupCoords {
            round: chunk / sharers,
            inter: (chunk % sharers) as u8,
            intra,
        })
    }

    /// Inverse of [`coords`](Self::coords): the VPN at the given position.
    /// Returns `None` if that position is past the end of the data.
    pub fn vpn_at(&self, c: GroupCoords) -> Option<Vpn> {
        let sharers = self.gpu_map.sharers() as u64;
        let idx = (c.round * sharers + c.inter as u64) * self.gran + c.intra;
        (idx < self.range.pages).then(|| self.range.vpn_at(idx))
    }

    /// Chiplet holding the VPN at group position `inter`.
    pub fn chiplet_of(&self, inter: u8) -> Option<ChipletId> {
        self.gpu_map.chiplet_at(inter as usize)
    }
}

/// Position of a page within its data's interleaving structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCoords {
    /// Repetition of the full chiplet cycle.
    pub round: u64,
    /// Chunk position within the round = `inter-GPU_coal_order`.
    pub inter: u8,
    /// Offset within the chiplet's chunk; its low bits are the
    /// `intra-GPU_coal_order` under group expansion.
    pub intra: u64,
}

/// A resolved member of a coalescing group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMember {
    /// The member's VPN.
    pub vpn: Vpn,
    /// Its `inter-GPU_coal_order`.
    pub inter_order: u8,
    /// Its `intra-GPU_coal_order` (0 in base Barre).
    pub intra_order: u8,
    /// The chiplet it is mapped on.
    pub chiplet: ChipletId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> PecEntry {
        // The paper's data 1 (Fig 7a / Example 3): VPNs 0x1..=0xC,
        // gran 3, linear GPU map over 4 chiplets.
        PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            GpuMap::linear(4),
        )
    }

    #[test]
    fn example3_pec_entry() {
        let e = entry();
        assert!(e.contains(0, Vpn(0x1)));
        assert!(e.contains(0, Vpn(0xC)));
        assert!(!e.contains(0, Vpn(0xD)));
        assert!(!e.contains(1, Vpn(0x1)));
        assert_eq!(e.pages(), 12);
    }

    #[test]
    fn coords_match_paper_layout() {
        let e = entry();
        // 0x1..0x3 -> GPU0 chunk, 0x4..0x6 -> GPU1 chunk, ...
        let c = e.coords(Vpn(0x4)).unwrap();
        assert_eq!((c.round, c.inter, c.intra), (0, 1, 0));
        let c = e.coords(Vpn(0xB)).unwrap();
        // 0xB is index 10: chunk 3 (GPU3), intra 1.
        assert_eq!((c.round, c.inter, c.intra), (0, 3, 1));
        assert_eq!(e.coords(Vpn(0xD)), None);
    }

    #[test]
    fn coords_roundtrip() {
        let e = entry();
        for v in e.range.iter() {
            let c = e.coords(v).unwrap();
            assert_eq!(e.vpn_at(c), Some(v));
        }
        // Past-the-end position.
        assert_eq!(
            e.vpn_at(GroupCoords {
                round: 1,
                inter: 0,
                intra: 0
            }),
            None
        );
    }

    #[test]
    fn multi_round_coords() {
        // 2 chiplets, gran 2, 12 pages => 3 rounds.
        let e = PecEntry::new(
            0,
            VpnRange {
                start: Vpn(0x100),
                pages: 12,
            },
            2,
            GpuMap::linear(2),
        );
        let c = e.coords(Vpn(0x100 + 9)).unwrap();
        // idx 9: chunk 4 (round 2, inter 0), intra 1.
        assert_eq!((c.round, c.inter, c.intra), (2, 0, 1));
    }

    #[test]
    fn gpu_map_arbitrary_order() {
        // Fig 10 right: 0th VPN on GPU1.
        let m = GpuMap::new(&[ChipletId(1), ChipletId(0), ChipletId(3), ChipletId(2)]);
        assert_eq!(m.chiplet_at(0), Some(ChipletId(1)));
        assert_eq!(m.chiplet_at(2), Some(ChipletId(3)));
        assert_eq!(m.chiplet_at(4), None);
    }

    #[test]
    fn gpu_map_encode_roundtrip() {
        let m = GpuMap::new(&[ChipletId(2), ChipletId(7), ChipletId(0), ChipletId(5)]);
        let w = m.encode();
        assert_eq!(GpuMap::decode(w, 4), m);
        // Example 3's linear map: 000 001 010 011 packed little-endian
        // per position: k=0 -> 0, k=1 -> 1, ...
        let lin = GpuMap::linear(4);
        assert_eq!(lin.encode(), 0b011_010_001_000);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn gpu_map_rejects_duplicates() {
        GpuMap::new(&[ChipletId(1), ChipletId(1)]);
    }

    #[test]
    fn pec_entry_is_118_bits() {
        assert_eq!(PEC_ENTRY_BITS, 118);
    }
}
