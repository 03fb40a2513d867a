//! The paper's Fig 12 walkthrough, executed on the real F-Barre
//! primitives: GPU0 translates 0xA1; GPU1 later needs 0xA2 and resolves
//! it *inside the MCM* — RCF prediction, peer-side LCF + TLB probe, PEC
//! calculation — without touching the IOMMU.
//!
//! ```text
//! cargo run --release --example fbarre_walkthrough
//! ```

use std::ops::ControlFlow;

use barre_chord::core::driver::{BarreAllocator, MappingPlan};
use barre_chord::core::fbarre::{FilterBank, FilterCmd, FilterUpdate};
use barre_chord::core::{CoalInfo, CoalMode, PecLogic};
use barre_chord::mem::virt_alloc::VpnRange;
use barre_chord::mem::{ChipletId, FrameAllocator, Vpn};
use barre_chord::tlb::{Tlb, TlbKey};

fn main() {
    // A data object whose pages 0xA1 (GPU0) and 0xA2 (GPU1) form one
    // coalescing group, as in Fig 12.
    let mut frames: Vec<FrameAllocator> = (0..2).map(|_| FrameAllocator::new(256)).collect();
    let plan = MappingPlan::interleaved(
        VpnRange {
            start: Vpn(0xA1),
            pages: 2,
        },
        1,
        &[ChipletId(0), ChipletId(1)],
    );
    let mut driver = BarreAllocator::new(CoalMode::Base, 1);
    let alloc = driver.allocate(&plan, &mut frames).unwrap();
    let logic = PecLogic::new(CoalMode::Base);

    let mut gpu0_tlb: Tlb<barre_chord::mem::Pte> = Tlb::new(64, 64);
    let mut gpu0 = FilterBank::new(ChipletId(0), 2, 256, 42);
    let mut gpu1 = FilterBank::new(ChipletId(1), 2, 256, 42);

    // [steps 0-1] GPU0 receives the ATS response for 0xA1: TLB fill +
    // LCF update.
    let (vpn_a1, pte_a1) = alloc.ptes[0];
    gpu0_tlb.insert(
        TlbKey {
            asid: 0,
            vpn: vpn_a1,
        },
        pte_a1,
    );
    gpu0.lcf_insert(0, vpn_a1);
    println!(
        "step 0-1: GPU0 fills TLB[{vpn_a1}] = {} and updates its LCF",
        pte_a1.pfn()
    );

    // [step 2] GPU0 advertises the exact VPN and every coalescing VPN in
    // GPU1's RCF0.
    let info = CoalInfo::decode(pte_a1.coal_bits(), CoalMode::Base).unwrap();
    for vpn in logic
        .members(vpn_a1, &info, &alloc.pec)
        .into_iter()
        .map(|m| m.vpn)
    {
        gpu1.apply_update(FilterUpdate {
            cmd: FilterCmd::Add,
            sender: ChipletId(0),
            asid: 0,
            vpn,
        });
        println!("step 2:   GPU0 -> GPU1 filter update: add {vpn} to RCF0");
    }

    // [step 3] GPU1 misses 0xA2 in its TLB and LCF but hits RCF0.
    let vpn_a2 = Vpn(0xA2);
    assert!(!gpu1.lcf_contains(0, vpn_a2));
    let predicted = gpu1.rcf_hit(0, vpn_a2).expect("RCF0 must hit");
    println!("step 3:   GPU1 misses {vpn_a2} locally; RCF predicts sharer {predicted}");

    // [steps 4-5] GPU0 receives the probe, computes the coalescing VPNs
    // of 0xA2, finds 0xA1 in its LCF, and probes its TLB.
    let mut candidates = Vec::new();
    logic.for_each_candidate(&alloc.pec, vpn_a2, 1, |v| {
        candidates.push(v);
        ControlFlow::Continue(())
    });
    println!("step 4:   GPU0 computes coalescing VPNs of {vpn_a2}: {candidates:?}");
    let provider = candidates
        .into_iter()
        .find(|&v| gpu0.lcf_contains(0, v))
        .expect("LCF must hit 0xA1");
    let pte = *gpu0_tlb
        .probe(TlbKey {
            asid: 0,
            vpn: provider,
        })
        .expect("provider resident");
    println!(
        "step 5:   LCF hits {provider}; TLB probe returns {}",
        pte.pfn()
    );

    // [steps 6-8] GPU0 calculates 0xA2's frame and replies; GPU1 fills.
    let info = CoalInfo::decode(pte.coal_bits(), CoalMode::Base).unwrap();
    let calc = logic
        .calc_pfn(provider, pte.pfn(), &info, &alloc.pec, vpn_a2)
        .expect("same group");
    let actual = alloc.ptes[1].1.pfn();
    assert_eq!(calc, actual, "calculated frame must match the page table");
    println!("step 6-8: GPU0 calculates {vpn_a2} -> {calc}; GPU1 fills its TLB.");
    println!("\nremote hit served inside the MCM — no PCIe, no page walk.");
}
