//! Counter-based page migration (ACUD, Griffin — Baruah et al. HPCA'20).
//!
//! Each page carries per-chiplet access counters. When a *remote* chiplet's
//! counter reaches the threshold (16 in §VII-G), the page is migrated to
//! that chiplet. The engine here makes the decisions and keeps the
//! counters; the system model charges the copy/shootdown costs and rewrites
//! the PTE (excluding the page from its coalescing group per §VI).

use std::collections::BTreeMap;

use barre_mem::{ChipletId, Vpn};

/// A migration the engine has decided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDecision {
    /// Address space of the page.
    pub asid: u16,
    /// The page to move.
    pub vpn: Vpn,
    /// Destination chiplet (the hot accessor).
    pub to: ChipletId,
}

/// The ACUD counter engine.
///
/// # Example
///
/// ```
/// use barre_mapping::Acud;
/// use barre_mem::{ChipletId, Vpn};
///
/// let mut acud = Acud::new(4, 2);
/// // Three remote accesses from GPU1 to a GPU0-homed page…
/// assert!(acud.record(0, Vpn(0x9), ChipletId(1), ChipletId(0)).is_none());
/// // …the fourth reaches the threshold and triggers a migration.
/// let d = acud.record(0, Vpn(0x9), ChipletId(1), ChipletId(0));
/// assert!(d.is_none());
/// let d = acud.record(0, Vpn(0x9), ChipletId(1), ChipletId(0));
/// assert!(d.is_none());
/// let d = acud.record(0, Vpn(0x9), ChipletId(1), ChipletId(0)).unwrap();
/// assert_eq!(d.to, ChipletId(1));
/// ```
#[derive(Debug, Clone)]
pub struct Acud {
    threshold: u32,
    n_chiplets: usize,
    counters: BTreeMap<(u16, Vpn), Vec<u32>>,
    migrations: u64,
}

impl Acud {
    /// Creates an engine with the given remote-access `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` or `n_chiplets` is zero.
    pub fn new(threshold: u32, n_chiplets: usize) -> Self {
        assert!(threshold > 0, "threshold must be nonzero");
        assert!(n_chiplets > 0, "need at least one chiplet");
        Self {
            threshold,
            n_chiplets,
            counters: BTreeMap::new(),
            migrations: 0,
        }
    }

    /// The paper's configuration (threshold 16).
    pub fn paper_default(n_chiplets: usize) -> Self {
        Self::new(16, n_chiplets)
    }

    /// Records one access to `(asid, vpn)` homed on `home` issued by
    /// `accessor`. Returns a migration decision when a remote accessor
    /// crosses the threshold; the caller performs the move and must then
    /// call [`migrated`](Self::migrated).
    pub fn record(
        &mut self,
        asid: u16,
        vpn: Vpn,
        accessor: ChipletId,
        home: ChipletId,
    ) -> Option<MigrationDecision> {
        if accessor == home {
            return None;
        }
        let counts = self
            .counters
            .entry((asid, vpn))
            .or_insert_with(|| vec![0; self.n_chiplets]);
        // Every counter row has one slot per chiplet; an accessor outside
        // the machine has nothing to count.
        let c = counts.get_mut(accessor.index())?;
        *c += 1;
        (*c >= self.threshold).then_some(MigrationDecision {
            asid,
            vpn,
            to: accessor,
        })
    }

    /// Acknowledges that a decided migration completed; resets the page's
    /// counters so ping-pong requires a fresh burst.
    pub fn migrated(&mut self, asid: u16, vpn: Vpn) {
        self.counters.remove(&(asid, vpn));
        self.migrations += 1;
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_accesses_never_trigger() {
        let mut a = Acud::new(1, 2);
        for _ in 0..100 {
            assert!(a.record(0, Vpn(1), ChipletId(0), ChipletId(0)).is_none());
        }
        assert!(a.counters.is_empty());
    }

    #[test]
    fn threshold_triggers_migration_to_hot_chiplet() {
        let mut a = Acud::new(16, 4);
        let mut decision = None;
        for _ in 0..16 {
            decision = a.record(0, Vpn(0x10), ChipletId(2), ChipletId(0));
        }
        let d = decision.unwrap();
        assert_eq!(d.to, ChipletId(2));
        assert_eq!(d.vpn, Vpn(0x10));
        a.migrated(0, Vpn(0x10));
        assert_eq!(a.migrations(), 1);
        // Counters reset: next access does not immediately re-trigger.
        assert!(a.record(0, Vpn(0x10), ChipletId(0), ChipletId(2)).is_none());
    }

    #[test]
    fn counters_are_per_accessor() {
        let mut a = Acud::new(3, 4);
        // Two remote chiplets alternate: neither reaches 3 after 4 total.
        assert!(a.record(0, Vpn(5), ChipletId(1), ChipletId(0)).is_none());
        assert!(a.record(0, Vpn(5), ChipletId(2), ChipletId(0)).is_none());
        assert!(a.record(0, Vpn(5), ChipletId(1), ChipletId(0)).is_none());
        assert!(a.record(0, Vpn(5), ChipletId(2), ChipletId(0)).is_none());
        // The third from chiplet 1 triggers.
        let d = a.record(0, Vpn(5), ChipletId(1), ChipletId(0)).unwrap();
        assert_eq!(d.to, ChipletId(1));
    }

    #[test]
    fn pages_are_independent() {
        let mut a = Acud::new(2, 2);
        assert!(a.record(0, Vpn(1), ChipletId(1), ChipletId(0)).is_none());
        assert!(a.record(0, Vpn(2), ChipletId(1), ChipletId(0)).is_none());
        assert!(a.record(0, Vpn(1), ChipletId(1), ChipletId(0)).is_some());
    }

    #[test]
    fn asid_separates_counters() {
        let mut a = Acud::new(2, 2);
        assert!(a.record(1, Vpn(1), ChipletId(1), ChipletId(0)).is_none());
        assert!(a.record(2, Vpn(1), ChipletId(1), ChipletId(0)).is_none());
        assert!(a.record(1, Vpn(1), ChipletId(1), ChipletId(0)).is_some());
    }
}
