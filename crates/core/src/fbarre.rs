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

use crate::group::GroupMember;

/// Bits of one filter-update message (§V-A2: 1-bit command, 3-bit sender
/// chiplet id, 40-bit coalescing VPN).
pub const FILTER_UPDATE_BITS: u64 = 44;

/// Displacement budget of the bank's cuckoo filters. Hardware filter
/// pipelines complete an insert in a fixed number of swap stages; a small
/// budget also bounds the simulation cost of the advertisement stream,
/// which can run the RCFs to saturation (hundreds of futile kicks per
/// insert under the unbounded walk) on irregular workloads.
pub const FILTER_KICK_BUDGET: usize = 8;

/// Fingerprint width of the bank's filters (Table II).
const FP_BITS: u32 = 9;

/// Salt of the RCFs' shared seed.
const RCF_SALT: u64 = 0x2CF_0000;

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

/// Whether an L2 TLB fill (`Add`) or eviction (`Delete`) changes what
/// the chiplet can calculate, so the entry's coalescing group must be
/// advertised to (or retracted from) the peers' RCFs.
///
/// A chiplet can calculate the whole group while it holds any member
/// that advertised it (§V-A2). So a fill advertises only the group's
/// first resident member, and an eviction retracts only its last: the
/// update is due when no member covers the group. `members` is the
/// group, and `bits_of` gives the coalescing bits a member's entry
/// carries when it belongs to the group; an entry with other bits (none,
/// or another group's) never advertised this group and does not count.
/// `resident` answers for the TLB without the change: a fill is judged
/// before its insert, while the set's victim and a refilled key's old
/// entry are still resident, and an eviction after it. So a fill that
/// only swaps one member of a group for another, or refills a member,
/// leaves the group as it was.
pub fn group_update_due(
    members: &[GroupMember],
    bits_of: impl Fn(&GroupMember) -> u16,
    resident: impl Fn(Vpn) -> Option<u16>,
) -> bool {
    !members
        .iter()
        .any(|m| resident(m.vpn).is_some_and(|bits| bits == bits_of(m)))
}

/// One state of an RCF table, as far as the replica memo knows it.
///
/// Two RCFs whose ids match ([`same`](Self::same)) hold the same table:
/// buckets, `len`, drop counts and kick RNG. Fresh ids come from the
/// machine's [`StateIds`]; an RCF's initial id is derived from its
/// geometry, seed and kick budget, so RCFs built alike start out as
/// replicas. [`UNKNOWN`](Self::UNKNOWN) matches nothing, not even
/// itself: it marks a table changed outside the memo path, and it is
/// the default.
#[derive(Debug, Clone, Copy, Default)]
struct StateId(u64);

impl StateId {
    /// A state no memo can vouch for.
    const UNKNOWN: StateId = StateId(0);

    /// The id of a freshly built filter of this shape. The top bit keeps
    /// it apart from every id [`StateIds`] hands out; a hash collision
    /// between two shapes is caught by [`CuckooFilter::replay`], which
    /// refuses filters of different shape.
    fn initial(rows: usize, fp_bits: u32, seed: u64, max_kicks: usize) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for x in [rows as u64, fp_bits as u64, max_kicks as u64] {
            h = (h ^ x).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 31;
        }
        StateId(h | 1 << 63)
    }

    /// Whether both ids name one known table state.
    fn same(self, other: StateId) -> bool {
        self.0 != 0 && self.0 == other.0
    }
}

/// The source of fresh RCF state ids for the replica memo
/// ([`FilterBank::apply_batch`]): one per machine, so ids are unique
/// among the banks that exchange packets.
#[derive(Debug, Default)]
pub struct StateIds {
    issued: u64,
}

impl StateIds {
    /// An id no RCF has held.
    fn fresh(&mut self) -> StateId {
        self.issued += 1;
        StateId(self.issued & !(1 << 63))
    }
}

/// One advertisement packet as a receiver applies it: `sender`'s `cmd`
/// for every VPN of `vpns`, in order.
#[derive(Debug, Clone, Copy)]
pub struct Packet<'a> {
    /// Add or delete.
    pub cmd: FilterCmd,
    /// Chiplet whose TLB changed.
    pub sender: ChipletId,
    /// Address space of the VPNs.
    pub asid: u16,
    /// The advertised VPNs.
    pub vpns: &'a [Vpn],
}

/// What the first full application of one packet left behind for the
/// packet's other receivers: the RCF state it started from (`pre`), the
/// state it produced (`post`), and the chiplet whose RCF holds the
/// record. A fresh (default) memo names no recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct PacketMemo {
    pre: StateId,
    post: StateId,
    recorder: Option<ChipletId>,
}

impl PacketMemo {
    /// The chiplet whose bank applied the packet in full, if any did.
    pub fn recorder(&self) -> Option<ChipletId> {
        self.recorder
    }
}

/// Host-side counters of a bank's RCFs, and of the updates its chiplet
/// did not need to send. They explain the simulator's work and stay out
/// of the run's metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RcfCounters {
    /// Inserts dropped when the kick budget ran out.
    pub insert_drops: u64,
    /// Removes that found no fingerprint to clear.
    pub absent_removes: u64,
    /// Packets applied key by key (and recorded).
    pub packets_applied: u64,
    /// Packets copied from the recorder's result instead.
    pub packets_replayed: u64,
    /// L2 TLB fills that advertised nothing: another resident member
    /// already covered their group ([`group_update_due`]).
    pub fills_absorbed: u64,
    /// L2 TLB evictions that retracted nothing: another resident member
    /// still covers their group.
    pub evictions_absorbed: u64,
}

impl std::ops::AddAssign for RcfCounters {
    fn add_assign(&mut self, o: Self) {
        self.insert_drops += o.insert_drops;
        self.absent_removes += o.absent_removes;
        self.packets_applied += o.packets_applied;
        self.packets_replayed += o.packets_replayed;
        self.fills_absorbed += o.fills_absorbed;
        self.evictions_absorbed += o.evictions_absorbed;
    }
}

/// One RCF and the state the memo knows it by.
#[derive(Debug)]
struct Rcf {
    filter: CuckooFilter,
    state: StateId,
}

/// The filter bank of one chiplet.
#[derive(Debug)]
pub struct FilterBank {
    chiplet: ChipletId,
    lcf: CuckooFilter,
    rcfs: Vec<Option<Rcf>>,
    packets_applied: u64,
    packets_replayed: u64,
    fills_absorbed: u64,
    evictions_absorbed: u64,
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
    /// Banks built with the same `rows` and `seed` hold identical RCFs,
    /// and an RCF's table is a function of its initial state and the
    /// packets it applied. So the RCFs tracking one sender in different
    /// banks stay replicas while they take the same packet stream, which
    /// lets [`apply_batch`](Self::apply_batch) copy a packet's result
    /// instead of recomputing it.
    ///
    /// # Panics
    ///
    /// Panics if `chiplet` is outside `n_chiplets` or `rows` is not a
    /// power of two.
    pub fn new(chiplet: ChipletId, n_chiplets: usize, rows: usize, seed: u64) -> Self {
        assert!(chiplet.index() < n_chiplets, "chiplet outside the MCM");
        let mk = |salt: u64| {
            CuckooFilter::with_max_kicks(rows, 4, FP_BITS, seed ^ salt, FILTER_KICK_BUDGET)
        };
        let initial = StateId::initial(rows, FP_BITS, seed ^ RCF_SALT, FILTER_KICK_BUDGET);
        let rcfs = (0..n_chiplets)
            .map(|p| {
                (p != chiplet.index()).then(|| Rcf {
                    filter: mk(RCF_SALT),
                    state: initial,
                })
            })
            .collect();
        Self {
            chiplet,
            lcf: mk(0x10CA1),
            rcfs,
            packets_applied: 0,
            packets_replayed: 0,
            fills_absorbed: 0,
            evictions_absorbed: 0,
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

    /// Counts an L2 TLB fill (`Add`) or eviction (`Delete`) of this
    /// chiplet that sent no update because its group's advertisement did
    /// not change ([`group_update_due`]).
    pub fn note_absorbed(&mut self, cmd: FilterCmd) {
        match cmd {
            FilterCmd::Add => self.fills_absorbed += 1,
            FilterCmd::Delete => self.evictions_absorbed += 1,
        }
    }

    /// Whether the local TLB may hold `vpn` (subject to false positives).
    pub fn lcf_contains(&self, asid: u16, vpn: Vpn) -> bool {
        self.lcf.contains(filter_key(asid, vpn))
    }

    /// Applies a peer's filter-update message to the matching RCF.
    /// Messages from unknown peers (or from this chiplet itself) are
    /// ignored, as a best-effort receiver would. The update bypasses the
    /// replica memo, so no memo can vouch for the RCF's state afterwards.
    pub fn apply_update(&mut self, upd: FilterUpdate) {
        let Some(Some(rcf)) = self.rcfs.get_mut(upd.sender.index()) else {
            return;
        };
        rcf.filter
            .apply_all(upd.cmd == FilterCmd::Add, [filter_key(upd.asid, upd.vpn)]);
        rcf.state = StateId::UNKNOWN;
    }

    /// Applies one advertisement packet to the sender's RCF, leaving it
    /// as one [`apply_update`](Self::apply_update) per VPN would.
    ///
    /// `memo` travels with the packet to all its receivers, and
    /// `recorder` is the bank it names ([`PacketMemo::recorder`]). When
    /// this RCF holds the memo's `pre` state and the recorder's RCF
    /// still holds `post`, the packet's result is copied from the
    /// recorder ([`CuckooFilter::replay`]). Otherwise the packet is
    /// applied key by key and recorded, and the memo is pointed at this
    /// bank. The RCF then holds `post` if it started from `pre`, and
    /// else a fresh state from `ids`, which becomes the memo's `post`.
    pub fn apply_batch(
        &mut self,
        packet: Packet<'_>,
        memo: &mut PacketMemo,
        recorder: Option<&FilterBank>,
        ids: &mut StateIds,
    ) {
        let Some(Some(rcf)) = self.rcfs.get_mut(packet.sender.index()) else {
            return;
        };
        let source = recorder
            .and_then(|b| b.rcfs.get(packet.sender.index()))
            .and_then(Option::as_ref)
            .filter(|src| rcf.state.same(memo.pre) && src.state.same(memo.post));
        if let Some(src) = source {
            if rcf.filter.replay(&src.filter) {
                rcf.state = memo.post;
                self.packets_replayed += 1;
                return;
            }
        }
        let keys = packet.vpns.iter().map(|&vpn| filter_key(packet.asid, vpn));
        rcf.filter.apply_all(packet.cmd == FilterCmd::Add, keys);
        // A packet applied to the `pre` table always yields the `post`
        // table, so a receiver that had to recompute (its recorder moved
        // on) still joins the replicas at `post`.
        if !rcf.state.same(memo.pre) {
            memo.pre = rcf.state;
            memo.post = ids.fresh();
        }
        memo.recorder = Some(self.chiplet);
        rcf.state = memo.post;
        self.packets_applied += 1;
    }

    /// Probes every RCF with `vpn`; returns the first peer whose filter
    /// hits (the predicted sharer). One key hash serves all RCFs (they
    /// share a seed — see [`new`](Self::new)).
    pub fn rcf_hit(&self, asid: u16, vpn: Vpn) -> Option<ChipletId> {
        let key = filter_key(asid, vpn);
        let mut hash = None;
        self.rcfs.iter().enumerate().find_map(|(p, rcf)| {
            let rcf = &rcf.as_ref()?.filter;
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

    /// The host-side counters of this bank's RCFs.
    pub fn rcf_counters(&self) -> RcfCounters {
        let mut c = RcfCounters {
            packets_applied: self.packets_applied,
            packets_replayed: self.packets_replayed,
            fills_absorbed: self.fills_absorbed,
            evictions_absorbed: self.evictions_absorbed,
            ..RcfCounters::default()
        };
        for rcf in self.rcfs.iter().flatten() {
            c.insert_drops += rcf.filter.dropped();
            c.absent_removes += rcf.filter.absent_removes();
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(c: u8) -> FilterBank {
        FilterBank::new(ChipletId(c), 4, 256, 99)
    }

    /// Every peer whose RCF holds `vpn` (ASID 0).
    fn rcf_hits(bank: &FilterBank, vpn: Vpn) -> Vec<ChipletId> {
        let key = filter_key(0, vpn);
        (0..bank.rcfs.len())
            .filter(|&p| {
                bank.rcfs[p]
                    .as_ref()
                    .is_some_and(|r| r.filter.contains_hashed(r.filter.key_hash(key)))
            })
            .map(|p| ChipletId(p as u8))
            .collect()
    }

    /// Fingerprints across the LCF and the RCFs.
    fn total_entries(bank: &FilterBank) -> usize {
        let rcfs = bank.rcfs.iter().flatten().map(|r| r.filter.len());
        bank.lcf.len() + rcfs.sum::<usize>()
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
        assert_eq!(gpu0.rcf_hit(0, Vpn(0x30)), Some(ChipletId(3)));
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
        let mut ids = StateIds::default();
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
            let packet = Packet {
                cmd,
                sender,
                asid: 0,
                vpns: &vpns,
            };
            batched.apply_batch(packet, &mut PacketMemo::default(), None, &mut ids);
            for &vpn in &vpns {
                single.apply_update(FilterUpdate {
                    cmd,
                    sender,
                    asid: 0,
                    vpn,
                });
            }
            assert_eq!(
                total_entries(&batched),
                total_entries(&single),
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
            assert_eq!(rcf_hits(&batched, Vpn(v)), rcf_hits(&single, Vpn(v)));
        }
    }

    /// Delivers `packet` to `banks[r]`, with the bank its memo names.
    fn deliver(
        banks: &mut [FilterBank],
        r: usize,
        packet: Packet<'_>,
        memo: &mut PacketMemo,
        ids: &mut StateIds,
    ) {
        let at = |c: ChipletId| banks.iter().position(|b| b.chiplet() == c);
        let recorder = memo.recorder().and_then(at).filter(|&i| i != r);
        match recorder.and_then(|i| banks.get_disjoint_mut([r, i]).ok()) {
            Some([receiver, recorder]) => receiver.apply_batch(packet, memo, Some(recorder), ids),
            None => banks[r].apply_batch(packet, memo, None, ids),
        }
    }

    #[test]
    fn replicas_through_the_memo_match_plain_filters() {
        // Sender 0 broadcasts to its RCF replicas in banks 1..=3, and
        // three plain filters of the RCF's shape take the same packets
        // through `apply_all`. Each receiver takes its packets in send
        // order, and one delivery in eight goes to a random receiver, so a
        // recorder may move on before a peer catches up. Some broadcasts reach only
        // part of the peers and receivers now and then take an update
        // outside the memo path; both split the replicas for good, so
        // the banks start over every epoch (one id source throughout).
        // Groups longer than 16 VPNs go out as consecutive chunks, as the
        // machine sends them.
        let sender = ChipletId(0);
        let shape = || CuckooFilter::with_max_kicks(256, 4, FP_BITS, 99 ^ RCF_SALT, 8);
        let mut ids = StateIds::default();
        let mut rng = barre_sim::Rng::new(0x3E9_11CA);
        let (mut chunked, mut partial, mut outside) = (0, 0, 0);
        let mut total = RcfCounters::default();
        for epoch in 0..40 {
            let mut banks: Vec<FilterBank> = (1..4).map(bank).collect();
            let mut plain = [shape(), shape(), shape()];
            let mut packets: Vec<(FilterCmd, Vec<Vpn>, PacketMemo)> = Vec::new();
            let mut inbox: [std::collections::VecDeque<usize>; 3] = Default::default();
            let mut live: Vec<Vpn> = Vec::new();
            for step in 0..1500u32 {
                if rng.next_below(4) == 0 {
                    let delete =
                        live.len() > 40 && rng.next_below(4) < 1 + (live.len() > 800) as u64 * 2;
                    let n = match rng.next_below(8) {
                        0 => 17 + rng.next_below(24),
                        _ => 1 + rng.next_below(16),
                    };
                    let group: Vec<Vpn> = (0..n.min(live.len() as u64 + 40))
                        .map(|_| match delete && !live.is_empty() {
                            true => live.swap_remove(rng.index(live.len())),
                            false => Vpn(rng.next_below(4000)),
                        })
                        .collect();
                    if !delete {
                        live.extend(&group);
                    }
                    let cmd = [FilterCmd::Add, FilterCmd::Delete][delete as usize];
                    let to: Vec<usize> = match rng.next_below(300) {
                        0 => (0..3).filter(|_| rng.next_below(2) == 0).collect(),
                        _ => vec![0, 1, 2],
                    };
                    chunked += (group.len() > 16) as u32;
                    partial += (to.len() < 3) as u32;
                    for chunk in group.chunks(16) {
                        packets.push((cmd, chunk.to_vec(), PacketMemo::default()));
                        for &r in &to {
                            inbox[r].push_back(packets.len() - 1);
                        }
                    }
                    continue;
                }
                // Mostly the oldest packet in flight next, as the
                // machine's FIFO filter channel delivers them.
                let oldest =
                    (0..3).min_by_key(|&r| inbox[r].front().copied().unwrap_or(usize::MAX));
                let r = match rng.next_below(8) {
                    0 => rng.index(3),
                    _ => oldest.unwrap_or(0),
                };
                if rng.next_below(3000) == 0 {
                    let vpn = Vpn(rng.next_below(4000));
                    banks[r].apply_update(FilterUpdate {
                        cmd: FilterCmd::Add,
                        sender,
                        asid: 0,
                        vpn,
                    });
                    plain[r].insert(filter_key(0, vpn));
                    outside += 1;
                } else if let Some(k) = inbox[r].pop_front() {
                    let (cmd, vpns, memo) = &mut packets[k];
                    let packet = Packet {
                        cmd: *cmd,
                        sender,
                        asid: 0,
                        vpns,
                    };
                    deliver(&mut banks, r, packet, memo, &mut ids);
                    let keys = vpns.iter().map(|&v| filter_key(0, v));
                    plain[r].apply_all(*cmd == FilterCmd::Add, keys);
                } else {
                    continue;
                }
                let got = &banks[r].rcfs[sender.index()].as_ref().unwrap().filter;
                let want = &plain[r];
                let ctx = format!("epoch {epoch}, step {step}, receiver {}", r + 1);
                assert_eq!(got.len(), want.len(), "len, {ctx}");
                assert_eq!(got.dropped(), want.dropped(), "dropped, {ctx}");
                assert!(got == want, "bucket words or kick draws differ, {ctx}");
            }
            for b in &banks {
                total += b.rcf_counters();
            }
        }
        assert!(
            chunked > 100 && partial > 20 && outside > 5,
            "{chunked} chunked, {partial} partial, {outside} outside the memo"
        );
        // Both paths run thousands of times.
        assert!(
            total.packets_replayed > 5000 && total.packets_applied > 5000,
            "{total:?}"
        );
        assert!(
            total.insert_drops > 0 && total.absent_removes > 0,
            "{total:?}"
        );
    }

    #[test]
    fn update_message_is_43_bits_plus_asid() {
        // 1 (cmd) + 3 (sender) + 40 (VPN) = 44 bits on the wire; the paper
        // rounds to 43 by folding the command into packet framing.
        const { assert!(FILTER_UPDATE_BITS <= 48) };
    }

    /// Drives [`group_update_due`] the way the machine does (a fill judged
    /// before its insert, an eviction after it), through seeded fills (with
    /// random victims, often of the fill's own group), refills and
    /// shootdowns, with uncoalesced entries mixed in. A reference
    /// count of each group's resident advertising entries must see an
    /// `Add` exactly on 0 → 1 and a `Delete` exactly on 1 → 0, so the
    /// peers hold each group once while it is covered and never after.
    #[test]
    fn group_updates_follow_the_resident_count() {
        type Map<K, V> = std::collections::BTreeMap<K, V>;
        const GROUPS: u64 = 6;
        const SIZE: u64 = 4;
        // Member k of group g is page g * SIZE + k on chiplet k, and its
        // entry carries bits unique to that page. Bits 0 mark an
        // uncoalesced entry, which advertises nothing.
        let group_of = |v: Vpn| v.0 / SIZE;
        let members = |g: u64| -> Vec<GroupMember> {
            (0..SIZE)
                .map(|k| GroupMember {
                    vpn: Vpn(g * SIZE + k),
                    inter_order: k as u8,
                    intra_order: 0,
                    chiplet: ChipletId(k as u8),
                })
                .collect()
        };
        let bits_of = |m: &GroupMember| (m.vpn.0 + 1) as u16;
        // The reference: resident advertising entries per group.
        let census = |tlb: &Map<Vpn, u16>| {
            let mut n = Map::new();
            for (&v, _) in tlb.iter().filter(|(_, &b)| b != 0) {
                *n.entry(group_of(v)).or_insert(0u64) += 1;
            }
            n
        };
        let mut rng = barre_sim::Rng::new(0x6_2023);
        let (mut same_group_victims, mut refills, mut uncoalesced) = (0, 0, 0);
        for _ in 0..200 {
            let capacity = 1 + rng.index(8);
            let mut tlb: Map<Vpn, u16> = Map::new();
            // Copies of each group in the peers: adds minus deletes.
            let mut copies: Map<u64, i64> = Map::new();
            for _ in 0..200 {
                let before = census(&tlb);
                let mut sent = Vec::new();
                // Judges an update against the TLB as it stands.
                let mut judge = |cmd: FilterCmd, vpn: Vpn, tlb: &Map<Vpn, u16>| {
                    let g = group_of(vpn);
                    if group_update_due(&members(g), bits_of, |v| tlb.get(&v).copied()) {
                        sent.push((g, cmd == FilterCmd::Add));
                        *copies.entry(g).or_default() += if cmd == FilterCmd::Add { 1 } else { -1 };
                    }
                };
                if tlb.is_empty() || rng.next_below(4) != 0 {
                    let vpn = Vpn(rng.next_below(GROUPS * SIZE));
                    let bits = if rng.next_below(4) == 0 {
                        0
                    } else {
                        (vpn.0 + 1) as u16
                    };
                    // In the machine's order: the fill before its insert,
                    // the victim's eviction and a refill's replaced entry
                    // after it.
                    if bits != 0 {
                        judge(FilterCmd::Add, vpn, &tlb);
                    }
                    let prior = tlb.get(&vpn).copied();
                    let mut victim = None;
                    if prior.is_none() && tlb.len() == capacity {
                        let v = *tlb.keys().nth(rng.index(tlb.len())).unwrap();
                        victim = tlb.remove_entry(&v);
                        same_group_victims += usize::from(group_of(v) == group_of(vpn));
                    }
                    tlb.insert(vpn, bits);
                    refills += usize::from(prior.is_some());
                    uncoalesced += usize::from(bits == 0);
                    if let Some((v, _)) = victim.filter(|&(_, b)| b != 0) {
                        judge(FilterCmd::Delete, v, &tlb);
                    }
                    if prior.is_some_and(|b| b != 0 && b != bits) {
                        judge(FilterCmd::Delete, vpn, &tlb);
                    }
                } else {
                    let v = *tlb.keys().nth(rng.index(tlb.len())).unwrap();
                    if tlb.remove(&v) != Some(0) {
                        judge(FilterCmd::Delete, v, &tlb);
                    }
                }
                let after = census(&tlb);
                let mut crossed = Vec::new();
                for g in 0..GROUPS {
                    let n = |m: &Map<u64, u64>| m.get(&g).copied().unwrap_or(0);
                    if (n(&before) == 0) != (n(&after) == 0) {
                        crossed.push((g, n(&before) == 0));
                    }
                }
                sent.sort_unstable();
                assert_eq!(sent, crossed, "resident counts {before:?} -> {after:?}");
            }
            for g in 0..GROUPS {
                let covered = census(&tlb).contains_key(&g);
                assert_eq!(
                    copies.get(&g).copied().unwrap_or(0),
                    i64::from(covered),
                    "group {g}"
                );
            }
        }
        assert!(same_group_victims > 100 && refills > 100 && uncoalesced > 1000);
    }
}
