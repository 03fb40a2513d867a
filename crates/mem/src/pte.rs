//! x86-64-style page table entries.
//!
//! The layout follows the hardware format the paper extends (Fig 8):
//!
//! ```text
//!  63      62..52       51..12   11..9  8..0
//!  NX   [ignored: 11b]   PFN     avail  flags
//! ```
//!
//! Bits 52–62 are ignored by the hardware walker and are where Barre Chord
//! stores its coalescing information (`coal_bitmap`, `inter-GPU_coal_order`,
//! and in the expanded format `intra-GPU_coal_order` and
//! `#_merged_coal_groups`). This crate only exposes the raw 11-bit field;
//! `barre-core` defines the two encodings on top of it.

use std::fmt;

use crate::addr::GlobalPfn;

/// Low-order architectural flag bits of a PTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PteFlags {
    /// Entry maps a frame.
    pub present: bool,
    /// Writable mapping.
    pub writable: bool,
    /// User-accessible (GPU process) mapping.
    pub user: bool,
    /// Set by the walker on first access.
    pub accessed: bool,
    /// Set on first write.
    pub dirty: bool,
}

impl Default for PteFlags {
    fn default() -> Self {
        Self {
            present: true,
            writable: true,
            user: true,
            accessed: false,
            dirty: false,
        }
    }
}

const BIT_PRESENT: u64 = 1 << 0;
const BIT_WRITABLE: u64 = 1 << 1;
const BIT_USER: u64 = 1 << 2;
const BIT_ACCESSED: u64 = 1 << 5;
const BIT_DIRTY: u64 = 1 << 6;
const PFN_SHIFT: u32 = 12;
const PFN_MASK: u64 = ((1u64 << 40) - 1) << PFN_SHIFT; // bits 12..51
const COAL_SHIFT: u32 = 52;
const COAL_MASK: u64 = ((1u64 << 11) - 1) << COAL_SHIFT; // bits 52..62

/// A 64-bit page table entry.
///
/// # Example
///
/// ```
/// use barre_mem::{ChipletId, GlobalPfn, LocalPfn, Pte, PteFlags};
///
/// let pfn = GlobalPfn::compose(ChipletId(1), LocalPfn(0x75));
/// let pte = Pte::new(pfn, PteFlags::default());
/// assert!(pte.flags().present);
/// assert_eq!(pte.pfn(), pfn);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(u64);

impl Pte {
    /// An all-zero (non-present) entry.
    pub const NOT_PRESENT: Pte = Pte(0);

    /// Builds an entry mapping `pfn` with `flags` and zeroed coalescing bits.
    ///
    /// # Panics
    ///
    /// Panics if the PFN does not fit the 40-bit frame field.
    pub fn new(pfn: GlobalPfn, flags: PteFlags) -> Self {
        assert!(pfn.0 < (1 << 40), "PFN exceeds 40-bit field");
        let mut w = pfn.0 << PFN_SHIFT;
        if flags.present {
            w |= BIT_PRESENT;
        }
        if flags.writable {
            w |= BIT_WRITABLE;
        }
        if flags.user {
            w |= BIT_USER;
        }
        if flags.accessed {
            w |= BIT_ACCESSED;
        }
        if flags.dirty {
            w |= BIT_DIRTY;
        }
        Pte(w)
    }

    /// Raw 64-bit word.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an entry from a raw word.
    pub fn from_raw(raw: u64) -> Self {
        Pte(raw)
    }

    /// Whether the entry maps a frame.
    pub fn is_present(self) -> bool {
        self.0 & BIT_PRESENT != 0
    }

    /// The mapped global frame number.
    pub fn pfn(self) -> GlobalPfn {
        GlobalPfn((self.0 & PFN_MASK) >> PFN_SHIFT)
    }

    /// Replaces the frame number, keeping flags and coalescing bits.
    pub fn with_pfn(self, pfn: GlobalPfn) -> Self {
        assert!(pfn.0 < (1 << 40), "PFN exceeds 40-bit field");
        Pte((self.0 & !PFN_MASK) | (pfn.0 << PFN_SHIFT))
    }

    /// Architectural flags.
    pub fn flags(self) -> PteFlags {
        PteFlags {
            present: self.0 & BIT_PRESENT != 0,
            writable: self.0 & BIT_WRITABLE != 0,
            user: self.0 & BIT_USER != 0,
            accessed: self.0 & BIT_ACCESSED != 0,
            dirty: self.0 & BIT_DIRTY != 0,
        }
    }

    /// The 11 ignored bits (52–62) Barre Chord repurposes for coalescing
    /// information.
    pub fn coal_bits(self) -> u16 {
        ((self.0 & COAL_MASK) >> COAL_SHIFT) as u16
    }

    /// Returns a copy with the 11-bit coalescing field replaced.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds 11 bits.
    pub fn with_coal_bits(self, bits: u16) -> Self {
        assert!(bits < (1 << 11), "coalescing field exceeds 11 bits");
        Pte((self.0 & !COAL_MASK) | ((bits as u64) << COAL_SHIFT))
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_present() {
            return write!(f, "PTE[not-present]");
        }
        write!(f, "PTE[{} coal={:#05x}]", self.pfn(), self.coal_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ChipletId, LocalPfn};

    fn pfn(c: u8, l: u64) -> GlobalPfn {
        GlobalPfn::compose(ChipletId(c), LocalPfn(l))
    }

    #[test]
    fn roundtrips_pfn_and_flags() {
        let p = pfn(3, 0x114);
        let pte = Pte::new(p, PteFlags::default());
        assert_eq!(pte.pfn(), p);
        assert!(pte.is_present());
        assert!(pte.flags().writable);
        assert!(!pte.flags().dirty);
    }

    #[test]
    fn coal_bits_are_independent_of_pfn() {
        let pte = Pte::new(pfn(1, 0x75), PteFlags::default()).with_coal_bits(0b111_0000_0101);
        assert_eq!(pte.coal_bits(), 0b111_0000_0101);
        assert_eq!(pte.pfn(), pfn(1, 0x75));
        let moved = pte.with_pfn(pfn(2, 0x88));
        assert_eq!(moved.coal_bits(), 0b111_0000_0101);
        assert_eq!(moved.pfn(), pfn(2, 0x88));
    }

    #[test]
    #[should_panic(expected = "11 bits")]
    fn coal_bits_bounds_checked() {
        let _ = Pte::default().with_coal_bits(1 << 11);
    }

    #[test]
    fn not_present_default() {
        assert!(!Pte::NOT_PRESENT.is_present());
        assert_eq!(Pte::default(), Pte::NOT_PRESENT);
    }

    #[test]
    fn accessed_dirty_marks() {
        let flags = PteFlags {
            accessed: true,
            dirty: true,
            ..PteFlags::default()
        };
        let pte = Pte::new(pfn(0, 1), flags);
        assert!(pte.flags().accessed);
        assert!(pte.flags().dirty);
    }

    #[test]
    fn raw_roundtrip() {
        let pte = Pte::new(pfn(2, 42), PteFlags::default()).with_coal_bits(0x55);
        assert_eq!(Pte::from_raw(pte.raw()), pte);
    }

    #[test]
    fn display_shows_structure() {
        let pte = Pte::new(pfn(1, 0x75), PteFlags::default());
        assert!(pte.to_string().contains("GPU1"));
        assert!(Pte::NOT_PRESENT.to_string().contains("not-present"));
    }
}
