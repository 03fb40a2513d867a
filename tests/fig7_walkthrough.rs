//! The paper's Fig 7 worked example, end to end:
//!
//! Three data objects of 12, 4 and 3 pages are mapped by LASP over four
//! chiplets. "Without Barre, each page needs one translation separately;
//! a total of 19 translations for the three data. With Barre, the pages
//! in the same coalescing group can be served by one translation. […]
//! Thus, a total of five translations can cover the 19 pages."

use barre_chord::core::driver::{BarreAllocator, MappingPlan};
use barre_chord::core::CoalMode;
use barre_chord::iommu::{AtsRequest, Iommu, IommuConfig};
use barre_chord::mem::virt_alloc::VpnRange;
use barre_chord::mem::{ChipletId, FrameAllocator, PageTable, Vpn};

fn chiplets() -> Vec<ChipletId> {
    (0..4).map(ChipletId).collect()
}

/// Builds the Fig 7a address space: data 1 (12 pages, gran 3), data 2
/// (4 pages, gran 1), data 3 (3 pages, gran 1 over three chiplets).
fn build() -> (PageTable, Vec<barre_chord::core::PecEntry>, Vec<Vpn>) {
    let mut frames: Vec<FrameAllocator> = (0..4).map(|_| FrameAllocator::new(1024)).collect();
    let mut driver = BarreAllocator::new(CoalMode::Base, 1);
    let mut pt = PageTable::new(0);
    let mut pecs = Vec::new();
    let mut all_vpns = Vec::new();

    let plans = [
        // Data 1: VPNs 0x1..=0xC, three pages per chiplet.
        MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0x1),
                pages: 12,
            },
            3,
            &chiplets(),
        ),
        // Data 2: VPNs 0xA1..=0xA4, one page per chiplet.
        MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0xA1),
                pages: 4,
            },
            1,
            &chiplets(),
        ),
        // Data 3: VPNs 0xB4..=0xB6, one page on each of three chiplets.
        MappingPlan::interleaved(
            VpnRange {
                start: Vpn(0xB4),
                pages: 3,
            },
            1,
            &chiplets()[..3],
        ),
    ];
    for plan in plans {
        let out = driver.allocate(&plan, &mut frames).unwrap();
        for (v, p) in out.ptes {
            pt.map(v, p);
            all_vpns.push(v);
        }
        pecs.push(out.pec);
    }
    assert_eq!(all_vpns.len(), 19, "Fig 7a maps 19 pages");
    (pt, pecs, all_vpns)
}

#[test]
fn five_translations_cover_nineteen_pages() {
    let (pt, pecs, vpns) = build();
    let mut iommu = Iommu::new(IommuConfig {
        barre: true,
        ptws: Some(1), // serialize walks so pending requests coalesce
        pw_queue_entries: 64,
        ..IommuConfig::default()
    });
    for pec in pecs {
        iommu.register_pec(pec);
    }
    // All 19 translations are requested at (nearly) the same time —
    // the premise of Fig 7b's timeline.
    for (i, &vpn) in vpns.iter().enumerate() {
        let accepted = iommu.enqueue(AtsRequest {
            id: i as u64,
            asid: 0,
            vpn,
            chiplet: ChipletId((i % 4) as u8),
            issued_at: 0,
        });
        assert!(accepted);
    }
    let mut now = 0;
    let mut walks = 0;
    let mut served = 0;
    let (mut started, mut out) = (Vec::new(), Vec::new());
    while !iommu.is_idle() {
        iommu.dispatch(now, &mut started);
        for &(ptw, done) in &started {
            walks += 1;
            now = done;
            iommu.complete_walk(ptw, now, |_, v| pt.lookup(v), &mut out);
            served += out.len();
        }
    }
    assert_eq!(served, 19, "every page translated");
    // Data 1: 3 groups; data 2: 1 group; data 3: 1 group = 5 walks.
    assert_eq!(walks, 5, "five translations cover the 19 pages (Fig 7)");
}

#[test]
fn without_barre_nineteen_walks() {
    let (pt, _, vpns) = build();
    let mut iommu = Iommu::new(IommuConfig {
        barre: false,
        ptws: Some(1),
        pw_queue_entries: 64,
        ..IommuConfig::default()
    });
    for (i, &vpn) in vpns.iter().enumerate() {
        iommu.enqueue(AtsRequest {
            id: i as u64,
            asid: 0,
            vpn,
            chiplet: ChipletId((i % 4) as u8),
            issued_at: 0,
        });
    }
    let mut now = 0;
    let mut walks = 0;
    let (mut started, mut out) = (Vec::new(), Vec::new());
    while !iommu.is_idle() {
        iommu.dispatch(now, &mut started);
        for &(ptw, done) in &started {
            walks += 1;
            now = done;
            iommu.complete_walk(ptw, now, |_, v| pt.lookup(v), &mut out);
        }
    }
    assert_eq!(walks, 19, "one walk per page without Barre");
}

#[test]
fn fig7b_latency_is_cut_by_more_than_half() {
    // Fig 7b: with all requests pending, Barre finishes the batch in
    // well under half the serialized walk time.
    let (pt, pecs, vpns) = build();
    let run = |barre: bool| -> u64 {
        let mut iommu = Iommu::new(IommuConfig {
            barre,
            ptws: Some(1),
            pw_queue_entries: 64,
            ..IommuConfig::default()
        });
        if barre {
            for pec in pecs.clone() {
                iommu.register_pec(pec);
            }
        }
        for (i, &vpn) in vpns.iter().enumerate() {
            iommu.enqueue(AtsRequest {
                id: i as u64,
                asid: 0,
                vpn,
                chiplet: ChipletId((i % 4) as u8),
                issued_at: 0,
            });
        }
        let mut now = 0;
        let mut last_ready = 0;
        let (mut started, mut out) = (Vec::new(), Vec::new());
        while !iommu.is_idle() {
            iommu.dispatch(now, &mut started);
            for &(ptw, done) in &started {
                now = done;
                iommu.complete_walk(ptw, now, |_, v| pt.lookup(v), &mut out);
                for &(ready, _) in &out {
                    last_ready = last_ready.max(ready);
                }
            }
        }
        last_ready
    };
    let base = run(false);
    let barre = run(true);
    assert!(
        barre * 2 < base,
        "Barre cuts the batch latency by over half: {barre} vs {base}"
    );
}
