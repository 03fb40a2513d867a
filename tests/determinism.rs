//! Reproducibility guarantees: identical seeds give byte-identical
//! metrics; different seeds actually change the stochastic workloads;
//! and configuration knobs change only what they should.

use barre_chord::sim::FaultPlan;
use barre_chord::system::{
    build_machine, metrics_to_json, smoke_config, FBarreConfig, Run, RunMetrics, SystemConfig,
    TranslationMode,
};
use barre_chord::workloads::AppId;

/// These tests exercise well-formed configurations, so any `SimError`
/// is itself a failure worth panicking on.
fn run_app(app: AppId, cfg: &SystemConfig, seed: u64) -> RunMetrics {
    Run::app(app, cfg.clone(), seed)
        .simulate()
        .expect("run failed")
}

fn fingerprint(m: &RunMetrics) -> Vec<u64> {
    vec![
        m.total_cycles,
        m.warp_instructions,
        m.l1_tlb_misses,
        m.l2_tlb_misses,
        m.ats_requests,
        m.walks,
        m.coalesced_translations,
        m.intra_mcm_translations,
        m.pcie_bytes,
        m.mesh_bytes,
        m.remote_data_accesses,
        m.filter_updates_sent,
        m.filter_updates_dropped,
    ]
}

#[test]
fn identical_seeds_are_bit_identical() {
    let cfg = smoke_config().with_mode(TranslationMode::FBarre(FBarreConfig::default()));
    for app in [AppId::Gups, AppId::Jac2d, AppId::Spmv] {
        let a = run_app(app, &cfg, 99);
        let b = run_app(app, &cfg, 99);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{app} diverged");
    }
}

#[test]
fn different_seeds_change_stochastic_apps() {
    let cfg = smoke_config();
    let a = run_app(AppId::Gups, &cfg, 1);
    let b = run_app(AppId::Gups, &cfg, 2);
    assert_ne!(
        a.total_cycles, b.total_cycles,
        "gups must depend on the seed"
    );
}

#[test]
fn deterministic_apps_ignore_seed() {
    // Purely structural streams (no RNG) must not change with the seed
    // beyond filter hashing, which baseline mode does not use.
    let cfg = smoke_config();
    let a = run_app(AppId::Jac2d, &cfg, 1);
    let b = run_app(AppId::Jac2d, &cfg, 2);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses);
}

#[test]
fn mode_changes_translation_but_not_work() {
    // Whatever the translation architecture, the kernel executes the
    // same instructions and data accesses.
    let base = run_app(AppId::St2d, &smoke_config(), 5);
    for mode in [
        TranslationMode::Valkyrie,
        TranslationMode::Least,
        TranslationMode::Barre,
        TranslationMode::FBarre(FBarreConfig::default()),
    ] {
        let m = run_app(AppId::St2d, &smoke_config().with_mode(mode), 5);
        assert_eq!(
            m.warp_instructions,
            base.warp_instructions,
            "{} changed the executed work",
            mode.label()
        );
        assert_eq!(
            m.data_accesses,
            base.data_accesses,
            "{} changed the data accesses",
            mode.label()
        );
    }
}

/// The apps whose smoke machine never reads its seed: their access
/// streams draw no random numbers.
const SEED_FREE: [AppId; 10] = [
    AppId::Gemv,
    AppId::Corr,
    AppId::Adi,
    AppId::Fft,
    AppId::Fwt,
    AppId::Cov,
    AppId::Jac2d,
    AppId::Fdtd2d,
    AppId::Nw,
    AppId::St2d,
];

fn seed_free(app: AppId, cfg: &SystemConfig) -> bool {
    build_machine(&[app.spec()], cfg, 1)
        .expect("build failed")
        .seed_free()
}

#[test]
fn seed_free_machines_compute_the_same_bytes_at_every_seed() {
    let smoke = smoke_config();
    let free: Vec<AppId> = AppId::all()
        .into_iter()
        .filter(|&a| seed_free(a, &smoke))
        .collect();
    assert_eq!(free, SEED_FREE);
    let fbarre = smoke
        .clone()
        .with_mode(TranslationMode::FBarre(FBarreConfig::default()));
    for app in SEED_FREE {
        for cfg in [&smoke, &fbarre] {
            assert!(seed_free(app, cfg), "{app}");
            let a = metrics_to_json(&run_app(app, cfg, 1));
            let b = metrics_to_json(&run_app(app, cfg, 2));
            assert_eq!(a, b, "{app} depends on its seed");
        }
    }
    // A fault plan draws from the seed whatever the app.
    let faulty = smoke.clone().with_fault_plan(FaultPlan {
        pcie_spike_rate: 0.01,
        pcie_spike_cycles: 100,
        ..FaultPlan::default()
    });
    for app in AppId::all() {
        assert!(!seed_free(app, &faulty), "{app} under a fault plan");
    }
    // The seeded apps' answers do move with the seed, so the byte
    // comparison above can fail.
    for app in [AppId::Gups, AppId::Spmv, AppId::Pr] {
        let a = metrics_to_json(&run_app(app, &smoke, 1));
        let b = metrics_to_json(&run_app(app, &smoke, 2));
        assert_ne!(a, b, "{app} ignores its seed");
    }
}
