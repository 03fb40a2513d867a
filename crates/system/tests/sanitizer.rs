//! Conservation-law sanitizer tests (run with `--features sanitizer`).
//!
//! Two directions: a healthy machine passes every epoch check over a
//! full run (the run itself would `debug_assert!` otherwise), and an
//! injected accounting bug trips the sanitizer with a structured report
//! naming the broken law.

#![cfg(feature = "sanitizer")]

use barre_system::{
    build_machine, metrics_digest, smoke_config, FBarreConfig, MigrationConfig, MmuKind, Run,
    TranslationMode,
};
use barre_workloads::AppId;

#[test]
fn clean_run_passes_every_epoch_check() {
    // smoke_config has no IOMMU TLB and no multicast, so every law
    // (including exact translation conservation at drain) are armed.
    // Any epoch violation would debug_assert! inside run().
    let cfg = smoke_config();
    let m = Run::app(AppId::Gemv, cfg, 1)
        .simulate()
        .expect("run failed");
    assert!(m.total_cycles > 0);
}

#[test]
fn clean_pec_runs_pass_every_epoch_check_on_both_mmus() {
    // Barre and F-Barre serve translations by PEC calculation on the
    // IOMMU and on per-chiplet GMMUs alike; every calculated response
    // must still balance the translation-conservation law.
    for mmu in [MmuKind::Iommu, MmuKind::Gmmu] {
        for mode in [
            TranslationMode::Barre,
            TranslationMode::FBarre(Default::default()),
        ] {
            let mut cfg = smoke_config().with_mode(mode);
            cfg.mmu = mmu;
            for app in [AppId::Gups, AppId::Atax] {
                let m = Run::app(app, cfg.clone(), 1)
                    .simulate()
                    .expect("run failed");
                assert!(m.total_cycles > 0, "{mmu:?}/{mode:?}/{app:?}");
            }
        }
    }
}

#[test]
fn fresh_machine_satisfies_all_laws() {
    let cfg = smoke_config();
    let machine = build_machine(&[AppId::Gemv.spec()], &cfg, 1).expect("build failed");
    let violations = machine.conservation_violations(false);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(machine.sanitizer_report().is_clean());
}

#[test]
fn injected_accounting_bug_trips_with_structured_report() {
    let cfg = smoke_config();
    let mut machine = build_machine(&[AppId::Gemv.spec()], &cfg, 1).expect("build failed");
    // A serviced translation that answers no request: serviced (1) now
    // exceeds ats_requests (0).
    machine.sanitizer_inject_accounting_skew();
    let violations = machine.conservation_violations(false);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!(v.law, "translation-conservation");
    assert!(v.detail.contains("serviced 1"), "{}", v.detail);
    assert!(v.detail.contains("0 ats_requests"), "{}", v.detail);

    // The rendered report is structured: summary header + one
    // bracket-tagged line per violation.
    let report = barre_system::SanitizerReport {
        epochs_checked: 1,
        violations,
    };
    let text = report.render();
    assert!(
        text.contains("1 violation(s) over 1 epoch check(s)"),
        "{text}"
    );
    assert!(
        text.contains("[translation-conservation] cycle=0"),
        "{text}"
    );
}

#[test]
fn drain_check_requires_exact_equality() {
    let cfg = smoke_config();
    let mut machine = build_machine(&[AppId::Gemv.spec()], &cfg, 1).expect("build failed");
    // serviced == requests == 0: mid-run AND drain checks both pass...
    assert!(machine.conservation_violations(true).is_empty());
    machine.sanitizer_inject_accounting_skew();
    // ...but any imbalance fails the drain check.
    assert_eq!(machine.conservation_violations(true).len(), 1);
}

#[test]
fn gmmu_overflow_runs_conserve_translations() {
    // A GMMU gets `ptws / chiplets` walkers and `max(48 / chiplets, 4)`
    // queue entries. At `--ptws 4` that is 1 + 12 = 13 slots per
    // chiplet, below its 16 L2 TLB MSHRs, so requests overflow the GMMU
    // queue and `Machine::gmmu_walk_done` refills it from the overflow
    // list. Both runs must drain with every translation conserved, and
    // their metrics are pinned.
    let mut cfg = smoke_config().with_ptws(Some(4));
    cfg.mmu = MmuKind::Gmmu;
    for (mode, want) in [
        (TranslationMode::Baseline, "eb8f7ec81e5a2125"),
        (TranslationMode::Barre, "6ca8e003e89e4f59"),
    ] {
        let m = Run::app(AppId::Gups, cfg.clone().with_mode(mode), 0x15CA_2024)
            .simulate()
            .expect("run failed");
        assert!(m.total_cycles > 0 && m.walks > 0, "{mode:?}");
        assert_eq!(metrics_digest(&m), want, "{mode:?}");
    }
}

#[test]
fn fbarre_group_advertisements_follow_residence() {
    // Each chiplet advertises a coalescing group once, on its first
    // resident member, and retracts it on its last; the group law checks
    // the net updates it sent against its L2 TLB at every epoch. Fills
    // that evict a member of their own group, refills and migration
    // shootdowns all run here; any mismatch would debug_assert! inside
    // run(). Mid-run misses must also have had something to advertise.
    for max_merged in [1, 2, 4] {
        for (app, migration) in [
            (AppId::Gups, None),
            (AppId::Spmv, None),
            (AppId::Gups, Some(MigrationConfig::default())),
        ] {
            let mode = TranslationMode::FBarre(FBarreConfig {
                max_merged,
                ..Default::default()
            });
            let cfg = smoke_config().with_mode(mode).with_migration(migration);
            let m = Run::app(app, cfg, 1).simulate().expect("run failed");
            assert!(m.filter_updates_sent > 0, "{app:?}/{max_merged}");
            if migration.is_some() {
                assert!(m.migrations > 0, "{app:?}/{max_merged}");
            }
        }
    }
}
