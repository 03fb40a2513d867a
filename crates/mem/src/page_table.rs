//! A 4-level radix page table.
//!
//! Mirrors the x86-64 structure the IOMMU walks: four levels of 512-entry
//! tables indexed by 9-bit VPN slices. The simulator's walkers charge the
//! paper's 500-cycle walk latency; this structure provides the actual
//! mapping state, the PTE storage for coalescing bits, and the level count
//! used by partial-walk models.

use std::fmt;

use crate::addr::Vpn;
use crate::pte::Pte;

const LEVELS: u32 = 4;
const BITS_PER_LEVEL: u32 = 9;
const FANOUT: usize = 1 << BITS_PER_LEVEL;

/// Outcome of a page-table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// The leaf entry, if the VPN is mapped with a present entry.
    pub pte: Option<Pte>,
    /// Number of table levels touched (1..=4); a hole high in the tree
    /// terminates the walk early.
    pub levels: u32,
}

enum Node {
    Interior(Box<[Option<Node>; FANOUT]>),
    Leaf(Box<[Pte; FANOUT]>),
}

impl Node {
    fn interior() -> Node {
        Node::Interior(Box::new(std::array::from_fn(|_| None)))
    }

    fn leaf() -> Node {
        Node::Leaf(Box::new([Pte::NOT_PRESENT; FANOUT]))
    }
}

/// A per-address-space 4-level page table.
///
/// # Example
///
/// ```
/// use barre_mem::{ChipletId, GlobalPfn, LocalPfn, PageTable, Pte, PteFlags, Vpn};
///
/// let mut pt = PageTable::new(1);
/// let pfn = GlobalPfn::compose(ChipletId(0), LocalPfn(0x75));
/// pt.map(Vpn(0x1), Pte::new(pfn, PteFlags::default()));
/// assert_eq!(pt.lookup(Vpn(0x1)).unwrap().pfn(), pfn);
/// assert!(pt.lookup(Vpn(0x2)).is_none());
/// ```
pub struct PageTable {
    asid: u16,
    root: Node,
    mapped: u64,
}

impl PageTable {
    /// Creates an empty table for address-space `asid`.
    pub fn new(asid: u16) -> Self {
        Self {
            asid,
            root: Node::interior(),
            mapped: 0,
        }
    }

    /// Address-space id this table translates.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// Number of present leaf entries.
    pub fn len(&self) -> u64 {
        self.mapped
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }

    fn index_at(vpn: Vpn, level: u32) -> usize {
        // level 0 = root, level 3 = leaf table.
        let shift = BITS_PER_LEVEL * (LEVELS - 1 - level);
        ((vpn.0 >> shift) as usize) & (FANOUT - 1)
    }

    /// Installs (or replaces) the leaf entry for `vpn`.
    ///
    /// Returns the previous entry if one was present.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` exceeds the 36-bit space covered by four levels.
    pub fn map(&mut self, vpn: Vpn, pte: Pte) -> Option<Pte> {
        assert!(
            vpn.0 < (1u64 << (BITS_PER_LEVEL * LEVELS)),
            "VPN out of range"
        );
        let mut node = &mut self.root;
        for level in 0..LEVELS - 1 {
            let idx = Self::index_at(vpn, level);
            let Node::Interior(children) = node else {
                // barre:allow(P001) tree shape invariant upheld by this function
                unreachable!("leaf encountered above the bottom level")
            };
            node = children[idx].get_or_insert_with(|| {
                if level == LEVELS - 2 {
                    Node::leaf()
                } else {
                    Node::interior()
                }
            });
        }
        let Node::Leaf(ptes) = node else {
            // barre:allow(P001) tree shape invariant upheld by this function
            unreachable!("interior node at leaf level")
        };
        let idx = Self::index_at(vpn, LEVELS - 1);
        let prev = ptes[idx];
        ptes[idx] = pte;
        match (prev.is_present(), pte.is_present()) {
            (false, true) => self.mapped += 1,
            (true, false) => self.mapped -= 1,
            _ => {}
        }
        if prev.is_present() {
            Some(prev)
        } else {
            None
        }
    }

    /// Leaf entry for `vpn` if mapped and present.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pte> {
        let r = self.walk(vpn);
        r.pte
    }

    /// Full walk, reporting the number of levels touched. This is what a
    /// hardware walker experiences: a hole at level `k` stops the walk
    /// after `k+1` accesses.
    pub fn walk(&self, vpn: Vpn) -> WalkResult {
        if vpn.0 >= (1u64 << (BITS_PER_LEVEL * LEVELS)) {
            return WalkResult {
                pte: None,
                levels: 1,
            };
        }
        let mut node = &self.root;
        for level in 0..LEVELS - 1 {
            let idx = Self::index_at(vpn, level);
            let Node::Interior(children) = node else {
                // Shape corruption cannot happen (`map` maintains it);
                // degrade to a hole at this level rather than panic.
                return WalkResult {
                    pte: None,
                    levels: level + 1,
                };
            };
            match &children[idx] {
                Some(next) => node = next,
                None => {
                    return WalkResult {
                        pte: None,
                        levels: level + 1,
                    }
                }
            }
        }
        let Node::Leaf(ptes) = node else {
            // Same degradation as above: a malformed bottom level reads
            // as unmapped.
            return WalkResult {
                pte: None,
                levels: LEVELS,
            };
        };
        let pte = ptes[Self::index_at(vpn, LEVELS - 1)];
        WalkResult {
            pte: pte.is_present().then_some(pte),
            levels: LEVELS,
        }
    }

    /// Rewrites the entry for an already-mapped `vpn` in place (migration,
    /// coalescing-bit updates). Returns `false` if `vpn` was not mapped.
    pub fn update(&mut self, vpn: Vpn, f: impl FnOnce(Pte) -> Pte) -> bool {
        match self.lookup(vpn) {
            Some(old) => {
                let new = f(old);
                self.map(vpn, new);
                true
            }
            None => false,
        }
    }

    /// Total number of walker memory accesses used so far... not tracked
    /// here; timing belongs to the IOMMU model. Number of levels is exposed
    /// for it instead.
    pub const fn levels() -> u32 {
        LEVELS
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageTable")
            .field("asid", &self.asid)
            .field("mapped", &self.mapped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ChipletId, GlobalPfn, LocalPfn};
    use crate::pte::PteFlags;

    fn pte(c: u8, l: u64) -> Pte {
        Pte::new(
            GlobalPfn::compose(ChipletId(c), LocalPfn(l)),
            PteFlags::default(),
        )
    }

    #[test]
    fn map_lookup_unmap() {
        let mut pt = PageTable::new(0);
        assert!(pt.is_empty());
        pt.map(Vpn(0xABCDE), pte(1, 7));
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.lookup(Vpn(0xABCDE)).unwrap().pfn().local(), LocalPfn(7));
        let old = pt.map(Vpn(0xABCDE), Pte::NOT_PRESENT);
        assert_eq!(old.unwrap().pfn().local(), LocalPfn(7));
        assert!(pt.lookup(Vpn(0xABCDE)).is_none());
        assert!(pt.is_empty());
    }

    #[test]
    fn remap_returns_previous() {
        let mut pt = PageTable::new(0);
        assert!(pt.map(Vpn(5), pte(0, 1)).is_none());
        let prev = pt.map(Vpn(5), pte(0, 2)).unwrap();
        assert_eq!(prev.pfn().local(), LocalPfn(1));
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn walk_levels_reflect_tree_shape() {
        let mut pt = PageTable::new(0);
        // Unmapped space: hole at the root.
        assert_eq!(pt.walk(Vpn(0)).levels, 1);
        pt.map(Vpn(0), pte(0, 1));
        // Mapped VPN: full 4-level walk.
        assert_eq!(pt.walk(Vpn(0)).levels, 4);
        // Sibling in the same leaf table: 4 levels but absent.
        let r = pt.walk(Vpn(1));
        assert_eq!(r.levels, 4);
        assert!(r.pte.is_none());
        // A VPN in a different top-level subtree: early hole again.
        let far = Vpn(1 << 27);
        assert_eq!(pt.walk(far).levels, 1);
    }

    #[test]
    fn sparse_vpns_do_not_collide() {
        let mut pt = PageTable::new(0);
        let vpns = [0u64, 1, 511, 512, 0x3FFFF, 0xFFFFFFF, (1 << 36) - 1];
        for (i, &v) in vpns.iter().enumerate() {
            pt.map(Vpn(v), pte(0, i as u64 + 1));
        }
        for (i, &v) in vpns.iter().enumerate() {
            assert_eq!(
                pt.lookup(Vpn(v)).unwrap().pfn().local(),
                LocalPfn(i as u64 + 1),
                "vpn {v:#x}"
            );
        }
        assert_eq!(pt.len(), vpns.len() as u64);
    }

    #[test]
    fn update_in_place() {
        let mut pt = PageTable::new(0);
        pt.map(Vpn(9), pte(0, 1));
        assert!(pt.update(Vpn(9), |p| p.with_coal_bits(0x7F)));
        assert_eq!(pt.lookup(Vpn(9)).unwrap().coal_bits(), 0x7F);
        assert!(!pt.update(Vpn(10), |p| p));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vpn_out_of_range_panics() {
        let mut pt = PageTable::new(0);
        pt.map(Vpn(1 << 36), pte(0, 1));
    }
}
