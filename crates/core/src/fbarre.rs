//! F-Barre per-chiplet filter banks (§V-A).
//!
//! Each chiplet carries one *local coalescing-group filter* (LCF) shadowing
//! its own L2 TLB contents, and one *remote coalescing-group filter*
//! (RCF<sub>p</sub>) per peer `p` shadowing the coalescing VPNs reachable
//! through `p`'s TLB. On an L2 TLB miss the chiplet probes TLB, LCF and all
//! RCFs in parallel; an RCF hit names the peer to ask, an LCF hit (on a
//! *coalescing* VPN) means the translation is calculable locally.
//!
//! Filters are updated by best-effort 43-bit messages; the timing (and the
//! drops that produce Fig 17a's ~75% remote hit rate) belongs to the system
//! model — this module owns the state and the key scheme.

use barre_filters::{CuckooFilter, Filter};
use barre_mem::{ChipletId, Vpn};

/// Bits of one filter-update message (§V-A2: 1-bit command, 3-bit sender
/// chiplet id, 40-bit coalescing VPN).
pub const FILTER_UPDATE_BITS: u64 = 44;

/// Displacement budget of the bank's cuckoo filters. Hardware filter
/// pipelines complete an insert in a fixed number of swap stages; a small
/// budget also bounds the simulation cost of the advertisement stream,
/// which can run the RCFs to saturation (hundreds of futile kicks per
/// insert under the unbounded walk) on irregular workloads.
pub const FILTER_KICK_BUDGET: usize = 8;

/// Filter-update command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterCmd {
    /// Insert the VPN into the receiver's RCF for the sender.
    Add,
    /// Delete the VPN from the receiver's RCF for the sender.
    Delete,
}

/// One best-effort filter-update message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterUpdate {
    /// Add or delete.
    pub cmd: FilterCmd,
    /// Chiplet whose TLB changed.
    pub sender: ChipletId,
    /// Address space of the entry.
    pub asid: u16,
    /// Exact or coalescing VPN being advertised.
    pub vpn: Vpn,
}

/// Folds `(asid, vpn)` into the 64-bit filter key space.
pub fn filter_key(asid: u16, vpn: Vpn) -> u64 {
    ((asid as u64) << 40) ^ vpn.0
}

/// The filter bank of one chiplet.
#[derive(Debug)]
pub struct FilterBank {
    chiplet: ChipletId,
    lcf: CuckooFilter,
    rcfs: Vec<Option<CuckooFilter>>,
}

impl FilterBank {
    /// Creates the bank for `chiplet` in an `n_chiplets` MCM, with cuckoo
    /// filters of `rows` rows (4-way, 9-bit fingerprints as in Table II)
    /// and a [`FILTER_KICK_BUDGET`]-swap insert pipeline.
    ///
    /// Every RCF of a bank shares one hash seed, so a single
    /// [`CuckooFilter::key_hash`] serves the whole per-peer probe fan-out;
    /// the RCFs are still independent tables (one per peer), they merely
    /// alias identically. The LCF keeps its own seed.
    ///
    /// # Panics
    ///
    /// Panics if `chiplet` is outside `n_chiplets` or `rows` is not a
    /// power of two.
    pub fn new(chiplet: ChipletId, n_chiplets: usize, rows: usize, seed: u64) -> Self {
        assert!(chiplet.index() < n_chiplets, "chiplet outside the MCM");
        let mk =
            |salt: u64| CuckooFilter::with_max_kicks(rows, 4, 9, seed ^ salt, FILTER_KICK_BUDGET);
        let rcfs = (0..n_chiplets)
            .map(|p| (p != chiplet.index()).then(|| mk(0x2CF_0000)))
            .collect();
        Self {
            chiplet,
            lcf: mk(0x10CA1),
            rcfs,
        }
    }

    /// This bank's chiplet.
    pub fn chiplet(&self) -> ChipletId {
        self.chiplet
    }

    /// Records a local L2 TLB insertion in the LCF (exact VPN only,
    /// §V-A2: "LCFs are updated with the newly inserted entry's VPN only").
    pub fn lcf_insert(&mut self, asid: u16, vpn: Vpn) {
        self.lcf.insert(filter_key(asid, vpn));
    }

    /// Records a local L2 TLB eviction in the LCF.
    pub fn lcf_remove(&mut self, asid: u16, vpn: Vpn) {
        self.lcf.remove(filter_key(asid, vpn));
    }

    /// Whether the local TLB may hold `vpn` (subject to false positives).
    pub fn lcf_contains(&self, asid: u16, vpn: Vpn) -> bool {
        self.lcf.contains(filter_key(asid, vpn))
    }

    /// Applies a peer's filter-update message to the matching RCF.
    /// Messages from unknown peers (or from this chiplet itself) are
    /// ignored, as a best-effort receiver would.
    pub fn apply_update(&mut self, upd: FilterUpdate) {
        self.apply_batch(upd.cmd, upd.sender, upd.asid, &[upd.vpn]);
    }

    /// Applies one advertisement packet — `sender`'s `cmd` for every VPN
    /// of `vpns`, in order — with one RCF lookup for the whole batch: the
    /// filters end as one [`apply_update`](Self::apply_update) per VPN
    /// would leave them.
    pub fn apply_batch(&mut self, cmd: FilterCmd, sender: ChipletId, asid: u16, vpns: &[Vpn]) {
        let Some(Some(rcf)) = self.rcfs.get_mut(sender.index()) else {
            return;
        };
        let keys = vpns.iter().map(|&vpn| filter_key(asid, vpn));
        rcf.apply_all(cmd == FilterCmd::Add, keys);
    }

    /// Probes every RCF with `vpn`; returns the first peer whose filter
    /// hits (the predicted sharer). One key hash serves all RCFs (they
    /// share a seed — see [`new`](Self::new)).
    pub fn rcf_hit(&self, asid: u16, vpn: Vpn) -> Option<ChipletId> {
        let key = filter_key(asid, vpn);
        let mut hash = None;
        self.rcfs.iter().enumerate().find_map(|(p, rcf)| {
            let rcf = rcf.as_ref()?;
            let h = *hash.get_or_insert_with(|| rcf.key_hash(key));
            rcf.contains_hashed(h).then_some(ChipletId(p as u8))
        })
    }

    /// [`rcf_hit`](Self::rcf_hit). The name and the `&mut self` receiver
    /// are kept for the benchmark's `filters.rcf_probe_ns` layer, which
    /// times the probe through this method.
    pub fn rcf_hit_cached(&mut self, asid: u16, vpn: Vpn) -> Option<ChipletId> {
        self.rcf_hit(asid, vpn)
    }

    /// All peers whose RCF hits (for multi-candidate probing studies).
    pub fn rcf_hits(&self, asid: u16, vpn: Vpn) -> Vec<ChipletId> {
        let key = filter_key(asid, vpn);
        let mut hash = None;
        self.rcfs
            .iter()
            .enumerate()
            .filter_map(|(p, rcf)| {
                let rcf = rcf.as_ref()?;
                let h = *hash.get_or_insert_with(|| rcf.key_hash(key));
                rcf.contains_hashed(h).then_some(ChipletId(p as u8))
            })
            .collect()
    }

    /// Resets every filter — the TLB-shootdown path of §VI ("we reset all
    /// LCFs and RCFs such that any residue values do not lead to
    /// mispredictions").
    pub fn shootdown(&mut self) {
        self.lcf.clear();
        for rcf in self.rcfs.iter_mut().flatten() {
            rcf.clear();
        }
    }

    /// Total fingerprints across LCF and RCFs (occupancy diagnostics).
    pub fn total_entries(&self) -> usize {
        self.lcf.len() + self.rcfs.iter().flatten().map(Filter::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(c: u8) -> FilterBank {
        FilterBank::new(ChipletId(c), 4, 256, 99)
    }

    #[test]
    fn fig12_walkthrough_filters() {
        // GPU0 translates 0xA1; 0xA1/0xA2 are a coalescing group shared
        // with GPU1. Step 1-2: GPU0 updates its LCF and GPU1's RCF0 with
        // both VPNs.
        let mut gpu0 = bank(0);
        let mut gpu1 = bank(1);
        gpu0.lcf_insert(0, Vpn(0xA1));
        for vpn in [0xA1u64, 0xA2] {
            gpu1.apply_update(FilterUpdate {
                cmd: FilterCmd::Add,
                sender: ChipletId(0),
                asid: 0,
                vpn: Vpn(vpn),
            });
        }
        // Step 3: GPU1 misses 0xA2 in TLB/LCF but hits RCF0.
        assert!(!gpu1.lcf_contains(0, Vpn(0xA2)));
        assert_eq!(gpu1.rcf_hit(0, Vpn(0xA2)), Some(ChipletId(0)));
        // Step 5: GPU0 finds the coalescing VPN 0xA1 in its LCF.
        assert!(gpu0.lcf_contains(0, Vpn(0xA1)));
    }

    #[test]
    fn eviction_removes_advertisements() {
        let mut gpu1 = bank(1);
        let add = |vpn| FilterUpdate {
            cmd: FilterCmd::Add,
            sender: ChipletId(0),
            asid: 0,
            vpn: Vpn(vpn),
        };
        let del = |vpn| FilterUpdate {
            cmd: FilterCmd::Delete,
            sender: ChipletId(0),
            asid: 0,
            vpn: Vpn(vpn),
        };
        gpu1.apply_update(add(0xA1));
        gpu1.apply_update(add(0xA2));
        gpu1.apply_update(del(0xA1));
        gpu1.apply_update(del(0xA2));
        assert_eq!(gpu1.rcf_hit(0, Vpn(0xA1)), None);
        assert_eq!(gpu1.rcf_hit(0, Vpn(0xA2)), None);
    }

    #[test]
    fn rcf_identifies_the_right_peer() {
        let mut gpu0 = bank(0);
        for (peer, vpn) in [(1u8, 0x10u64), (2, 0x20), (3, 0x30)] {
            gpu0.apply_update(FilterUpdate {
                cmd: FilterCmd::Add,
                sender: ChipletId(peer),
                asid: 0,
                vpn: Vpn(vpn),
            });
        }
        assert_eq!(gpu0.rcf_hit(0, Vpn(0x20)), Some(ChipletId(2)));
        assert_eq!(gpu0.rcf_hits(0, Vpn(0x30)), vec![ChipletId(3)]);
    }

    #[test]
    fn self_updates_are_ignored() {
        let mut gpu0 = bank(0);
        gpu0.apply_update(FilterUpdate {
            cmd: FilterCmd::Add,
            sender: ChipletId(0),
            asid: 0,
            vpn: Vpn(0x99),
        });
        assert_eq!(gpu0.rcf_hit(0, Vpn(0x99)), None);
    }

    #[test]
    fn shootdown_clears_everything() {
        let mut gpu0 = bank(0);
        gpu0.lcf_insert(0, Vpn(1));
        gpu0.apply_update(FilterUpdate {
            cmd: FilterCmd::Add,
            sender: ChipletId(1),
            asid: 0,
            vpn: Vpn(2),
        });
        assert!(gpu0.total_entries() > 0);
        gpu0.shootdown();
        assert_eq!(gpu0.total_entries(), 0);
        assert!(!gpu0.lcf_contains(0, Vpn(1)));
    }

    #[test]
    fn asid_separates_key_space() {
        let mut gpu0 = bank(0);
        gpu0.lcf_insert(7, Vpn(0xA1));
        assert!(gpu0.lcf_contains(7, Vpn(0xA1)));
        assert!(!gpu0.lcf_contains(8, Vpn(0xA1)));
    }

    #[test]
    fn cached_and_uncached_probes_agree() {
        let mut gpu0 = bank(0);
        for vpn in 0..64u64 {
            gpu0.apply_update(FilterUpdate {
                cmd: FilterCmd::Add,
                sender: ChipletId((vpn % 3) as u8 + 1),
                asid: 0,
                vpn: Vpn(vpn * 17),
            });
        }
        for vpn in 0..128u64 {
            let fresh = gpu0.rcf_hit(0, Vpn(vpn * 13));
            assert_eq!(gpu0.rcf_hit_cached(0, Vpn(vpn * 13)), fresh);
            assert_eq!(gpu0.rcf_hit_cached(0, Vpn(vpn * 13)), fresh);
        }
    }

    #[test]
    fn batches_match_single_updates() {
        // One bank takes the stream as batches, the other one update at
        // a time; occupancy and probe answers must agree.
        let (mut batched, mut single) = (bank(0), bank(0));
        let mut rng = barre_sim::Rng::new(0xBA7C);
        for round in 0..400u64 {
            let cmd = if rng.next_below(3) == 0 {
                FilterCmd::Delete
            } else {
                FilterCmd::Add
            };
            let sender = ChipletId(rng.next_below(4) as u8);
            let vpns: Vec<Vpn> = (0..=rng.next_below(16))
                .map(|_| Vpn(rng.next_below(700)))
                .collect();
            batched.apply_batch(cmd, sender, 0, &vpns);
            for &vpn in &vpns {
                single.apply_update(FilterUpdate {
                    cmd,
                    sender,
                    asid: 0,
                    vpn,
                });
            }
            assert_eq!(
                batched.total_entries(),
                single.total_entries(),
                "round {round}"
            );
            let probe = Vpn(rng.next_below(700));
            assert_eq!(
                batched.rcf_hit_cached(0, probe),
                single.rcf_hit_cached(0, probe),
                "round {round}"
            );
        }
        for v in 0..700 {
            assert_eq!(batched.rcf_hits(0, Vpn(v)), single.rcf_hits(0, Vpn(v)));
        }
    }

    #[test]
    fn update_message_is_43_bits_plus_asid() {
        // 1 (cmd) + 3 (sender) + 40 (VPN) = 44 bits on the wire; the paper
        // rounds to 43 by folding the command into packet framing.
        const { assert!(FILTER_UPDATE_BITS <= 48) };
    }
}
