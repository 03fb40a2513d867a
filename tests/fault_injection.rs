//! Fault-injection invariants: the chaos machinery must be invisible
//! when unused, deterministic when used, and conservation-preserving
//! under message loss.
//!
//! The hardcoded fingerprints pin the key robustness-work guarantee:
//! adding the fault/retry/watchdog plumbing did not move a single cycle
//! of the fault-free simulation.

use barre_chord::sim::FaultPlan;
use barre_chord::system::{smoke_config, Run, RunMetrics, SystemConfig, TranslationMode};
use barre_chord::workloads::AppId;

fn run(app: AppId, cfg: &SystemConfig, seed: u64) -> RunMetrics {
    Run::app(app, cfg.clone(), seed)
        .simulate()
        .expect("run failed")
}

/// (total_cycles, l2_tlb_misses, ats_requests) captured on the pre-fault
/// codebase for `smoke_config()` at seed 1. These exact values must
/// survive any refactoring of the fault path.
const BASELINES: [(AppId, u64, u64, u64); 3] = [
    (AppId::Gemv, 40_454, 128, 128),
    (AppId::St2d, 40_277, 191, 191),
    (AppId::Jac2d, 45_471, 191, 191),
];

#[test]
fn empty_plan_is_cycle_identical_to_pre_fault_baseline() {
    let cfg = smoke_config();
    assert!(cfg.fault_plan.is_empty());
    for (app, cycles, misses, ats) in BASELINES {
        let m = run(app, &cfg, 1);
        assert_eq!(m.total_cycles, cycles, "{app}: cycles moved");
        assert_eq!(m.l2_tlb_misses, misses, "{app}: misses moved");
        assert_eq!(m.ats_requests, ats, "{app}: ATS count moved");
        assert_eq!(m.faults_injected, 0, "{app}");
        assert_eq!(m.ats_retries, 0, "{app}");
        assert_eq!(m.fallback_translations, 0, "{app}");
        assert_eq!(m.watchdog_fired, 0, "{app}");
    }
}

#[test]
fn explicit_zero_rate_plan_matches_no_injector_run() {
    // A plan whose every rate is 0.0 must not consume a single RNG draw
    // or event slot: metrics match the default (injector-free) run
    // field for field on every counter that feeds the figures.
    let plain = smoke_config();
    let zeroed = smoke_config().with_fault_plan(FaultPlan::none());
    for app in [AppId::Gemv, AppId::Gups, AppId::Jac2d] {
        let a = run(app, &plain, 7);
        let b = run(app, &zeroed, 7);
        assert_eq!(a.total_cycles, b.total_cycles, "{app}");
        assert_eq!(a.l1_tlb_misses, b.l1_tlb_misses, "{app}");
        assert_eq!(a.l2_tlb_misses, b.l2_tlb_misses, "{app}");
        assert_eq!(a.ats_requests, b.ats_requests, "{app}");
        assert_eq!(a.walks, b.walks, "{app}");
        assert_eq!(a.pcie_bytes, b.pcie_bytes, "{app}");
        assert_eq!(a.mesh_bytes, b.mesh_bytes, "{app}");
    }
}

fn drop_plan() -> FaultPlan {
    FaultPlan {
        ats_request_drop: 0.05,
        ats_response_drop: 0.05,
        ..FaultPlan::none()
    }
}

#[test]
fn same_seed_and_plan_reproduce_identical_metrics() {
    let cfg = smoke_config().with_fault_plan(drop_plan());
    for app in [AppId::Gemv, AppId::Jac2d] {
        let a = run(app, &cfg, 11);
        let b = run(app, &cfg, 11);
        assert_eq!(a.total_cycles, b.total_cycles, "{app}");
        assert_eq!(a.faults_injected, b.faults_injected, "{app}");
        assert_eq!(a.ats_retries, b.ats_retries, "{app}");
        assert_eq!(a.ats_timeouts, b.ats_timeouts, "{app}");
        assert_eq!(a.fallback_translations, b.fallback_translations, "{app}");
        assert_eq!(a.ats_requests, b.ats_requests, "{app}");
        assert_eq!(a.walks, b.walks, "{app}");
    }
}

#[test]
fn dropped_messages_retry_and_conserve_translations() {
    // Under sustained request+response loss every run must still drain,
    // the retry machinery must actually engage, and every counted ATS
    // request must be answered by exactly one of: a walk, a PEC
    // calculation, or a conventional-walk fallback.
    for mode in [TranslationMode::Baseline, TranslationMode::Barre] {
        let cfg = smoke_config().with_mode(mode).with_fault_plan(drop_plan());
        for app in [AppId::Gemv, AppId::Gups, AppId::Jac2d] {
            let m = run(app, &cfg, 3);
            assert!(m.total_cycles > 0, "{app}: did not run");
            assert!(m.faults_injected > 0, "{app}: no faults landed");
            assert!(m.ats_retries > 0, "{app}: drops never triggered a retry");
            assert_eq!(
                m.walks + m.coalesced_translations + m.fallback_translations,
                m.ats_requests,
                "{app}: translation conservation broken \
                 (walks {} + coalesced {} + fallback {} != ats {})",
                m.walks,
                m.coalesced_translations,
                m.fallback_translations,
                m.ats_requests
            );
            assert_eq!(m.watchdog_fired, 0, "{app}: watchdog fired on a live run");
        }
    }
}

#[test]
fn pcie_spikes_and_walker_stalls_slow_but_complete() {
    let plan = FaultPlan {
        pcie_spike_rate: 0.1,
        pcie_spike_cycles: 400,
        walker_stall_rate: 0.1,
        walker_stall_cycles: 300,
        ..FaultPlan::none()
    };
    let cfg = smoke_config();
    let chaotic = cfg.clone().with_fault_plan(plan);
    for app in [AppId::Gemv, AppId::Jac2d] {
        let clean = run(app, &cfg, 5);
        let m = run(app, &chaotic, 5);
        assert!(m.faults_injected > 0, "{app}: no latency faults landed");
        assert!(
            m.total_cycles >= clean.total_cycles,
            "{app}: latency faults sped the run up ({} < {})",
            m.total_cycles,
            clean.total_cycles
        );
        // Latency-only faults lose nothing: the plain conservation law
        // (no fallbacks needed) still holds.
        assert_eq!(m.fallback_translations, 0, "{app}");
        assert_eq!(m.walks + m.coalesced_translations, m.ats_requests, "{app}");
    }
}

#[test]
fn pec_corruption_is_survivable_under_barre() {
    let plan = FaultPlan {
        pec_corrupt_rate: 0.05,
        ..FaultPlan::none()
    };
    let cfg = smoke_config()
        .with_mode(TranslationMode::Barre)
        .with_fault_plan(plan);
    let m = run(AppId::St2d, &cfg, 9);
    assert!(m.total_cycles > 0);
    assert_eq!(
        m.walks + m.coalesced_translations + m.fallback_translations,
        m.ats_requests
    );
}
