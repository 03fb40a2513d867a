//! Randomized property tests of the Barre Chord core invariants.
//!
//! These are the paper's correctness claims, checked over randomized
//! plans, fragmentation patterns and PTE layouts:
//!
//! 1. **Same-local-PFN invariant**: every member of a coalescing group is
//!    mapped at the same local PFN (modulo intra-run offset).
//! 2. **Calculation soundness**: for any two members of a group, the PEC
//!    calculator derives exactly the frame and coalescing bits the page
//!    table holds.
//! 3. **Encoding roundtrip**: PTE coalescing bits survive encode/decode
//!    under every layout.
//! 4. **No cross-group leakage**: pages outside a group are never
//!    "calculated".
//!
//! Case generation is driven by the workspace's own deterministic
//! [`Rng`] (the external proptest dependency would break the offline,
//! path-only dependency build), so every failure reproduces from the
//! printed case seed.

use std::ops::ControlFlow;

use barre_chord::core::driver::{BarreAllocator, MappingPlan};
use barre_chord::core::{CoalInfo, CoalMode, PecLogic};
use barre_chord::mem::virt_alloc::VpnRange;
use barre_chord::mem::{ChipletId, FrameAllocator, PageTable, Vpn};
use barre_chord::sim::Rng;

fn chiplets(n: u8) -> Vec<ChipletId> {
    (0..n).map(ChipletId).collect()
}

#[test]
fn driver_allocation_is_sound() {
    for case in 0..64u64 {
        let mut g = Rng::new(0xC0A1 ^ case);
        let pages = 1 + g.next_below(199);
        let gran = 1 + g.next_below(11);
        let n_chiplets = 2 + g.next_below(6) as u8;
        let mode = if g.chance(0.5) {
            CoalMode::Base
        } else {
            CoalMode::Expanded
        };
        let max_merged = if mode == CoalMode::Base {
            1
        } else {
            (1 + g.next_below(4) as u8).min(4)
        };
        let frag = g.next_f64() * 0.6;
        let seed = g.next_below(1000);

        let mut frames: Vec<FrameAllocator> = (0..n_chiplets as usize)
            .map(|_| FrameAllocator::new(4096))
            .collect();
        let mut rng = Rng::new(seed);
        for f in frames.iter_mut() {
            f.fragment(&mut rng, frag);
        }
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x100),
                pages,
            },
            gran,
            &chiplets(n_chiplets),
        );
        let mut driver = BarreAllocator::new(mode, max_merged);
        let out = match driver.allocate(&plan, &mut frames) {
            Ok(o) => o,
            Err(_) => continue, // legitimately out of memory under heavy fragmentation
        };

        // Every page mapped exactly once, on its planned chiplet.
        assert_eq!(out.ptes.len() as u64, pages, "case {case}");
        let mut pt = PageTable::new(0);
        for (v, p) in &out.ptes {
            assert_eq!(
                p.pfn().chiplet(),
                plan.chiplet_of(*v).unwrap(),
                "case {case}: page on wrong chiplet"
            );
            assert!(pt.map(*v, *p).is_none(), "case {case}: double mapping");
        }

        let logic = PecLogic::new(mode);
        for (v, p) in &out.ptes {
            let Some(info) = CoalInfo::decode(p.coal_bits(), mode) else {
                continue;
            };
            // 3. encoding roundtrip
            assert_eq!(CoalInfo::decode(info.encode(), mode), Some(info));
            let members = logic.members(*v, &info, &out.pec);
            assert!(
                members.iter().any(|m| m.vpn == *v),
                "case {case}: PTE must be a member of its own group"
            );
            assert!(
                members.len() as u32 >= 2,
                "case {case}: coalesced group of one"
            );
            for m in &members {
                let actual = pt.lookup(m.vpn).expect("member mapped");
                // 1. same local PFN modulo run offset
                let run_base_pte = p.pfn().local().0 - info.intra_order() as u64;
                assert_eq!(
                    actual.pfn().local().0,
                    run_base_pte + m.intra_order as u64,
                    "case {case}: local-PFN invariant broken at {}",
                    m.vpn
                );
                // 2. calculation soundness: the frame and the coalescing
                // bits the member's own PTE holds
                let (calc, bits) = logic
                    .calculate(*v, p.pfn(), &info, &out.pec, m.vpn)
                    .expect("member calculable");
                assert_eq!(calc, actual.pfn(), "case {case}: miscalculated {}", m.vpn);
                assert_eq!(
                    bits,
                    actual.coal_bits(),
                    "case {case}: wrong coalescing bits for {}",
                    m.vpn
                );
            }
            // 4. no leakage: non-members never calculate
            for (w, _) in &out.ptes {
                if members.iter().any(|m| m.vpn == *w) {
                    continue;
                }
                assert!(
                    logic.calc_pfn(*v, p.pfn(), &info, &out.pec, *w).is_none(),
                    "case {case}: cross-group calculation {} from {}",
                    w,
                    v
                );
            }
        }
    }
}

#[test]
fn coalescing_candidates_cover_all_real_groups() {
    // Every VPN that can calculate `target` must appear in `target`'s
    // candidate set — otherwise the F-Barre LCF path would miss real
    // opportunities.
    for case in 0..64u64 {
        let mut g = Rng::new(0xCA4D ^ case);
        let pages = 4 + g.next_below(116);
        let gran = 1 + g.next_below(7);
        let n_chiplets = 2 + g.next_below(3) as u8;
        let max_merged = 1 + g.next_below(2) as u8;
        let mode = if max_merged > 1 {
            CoalMode::Expanded
        } else {
            CoalMode::Base
        };
        let mut frames: Vec<FrameAllocator> = (0..n_chiplets as usize)
            .map(|_| FrameAllocator::new(4096))
            .collect();
        let plan = MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x10),
                pages,
            },
            gran,
            &chiplets(n_chiplets),
        );
        let mut driver = BarreAllocator::new(mode, max_merged);
        let out = driver.allocate(&plan, &mut frames).unwrap();
        let logic = PecLogic::new(mode);
        for (v, p) in &out.ptes {
            let Some(info) = CoalInfo::decode(p.coal_bits(), mode) else {
                continue;
            };
            for m in logic.members(*v, &info, &out.pec) {
                if m.vpn == *v {
                    continue;
                }
                let mut cands = Vec::new();
                logic.for_each_candidate(&out.pec, m.vpn, max_merged, |w| {
                    cands.push(w);
                    ControlFlow::Continue(())
                });
                assert!(
                    cands.contains(v),
                    "case {case}: candidate set of {} misses provider {}",
                    m.vpn,
                    v
                );
            }
        }
    }
}

#[test]
fn pte_coal_bits_roundtrip_all_layouts() {
    // Exhaustive over the full 11-bit space — cheaper than sampling.
    for bits in 0u16..(1 << 11) {
        for mode in [CoalMode::Base, CoalMode::Expanded, CoalMode::Wide] {
            if let Some(info) = CoalInfo::decode(bits, mode) {
                // Decoded info re-encodes to an equivalent decoding.
                let re = CoalInfo::decode(info.encode(), mode);
                assert_eq!(re, Some(info), "bits {bits:#x} under {mode:?}");
            }
        }
    }
}
