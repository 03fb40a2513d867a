//! Serial vs parallel sweep equivalence.
//!
//! The run-level worker pool (`barre_sim::pool`) must be invisible in
//! results: the same batch of `Run`s has to produce
//! byte-identical `RunMetrics` vectors at any thread count, because each
//! simulation is single-threaded and the pool returns results in input
//! order. These tests pin that property at the `run_batch` layer the
//! CLI and bench harness build on.

use barre_chord::system::{run_batch, smoke_config, Run, RunMetrics, TranslationMode};
use barre_chord::workloads::AppId;

fn batch() -> Vec<Run> {
    let base = smoke_config();
    let modes = [
        base.clone(),
        base.clone().with_mode(TranslationMode::Barre),
        base.with_mode(TranslationMode::FBarre(Default::default())),
    ];
    [AppId::Gemv, AppId::Jac2d]
        .into_iter()
        .flat_map(|app| {
            modes
                .iter()
                .map(move |cfg| Run::app(app, cfg.clone(), 0x15CA_2024))
        })
        .collect()
}

fn unwrap_all(results: Vec<Result<RunMetrics, barre_chord::system::SimError>>) -> Vec<RunMetrics> {
    results
        .into_iter()
        .map(|r| r.expect("smoke runs cannot fail"))
        .collect()
}

#[test]
fn serial_and_parallel_batches_are_byte_identical() {
    let serial = unwrap_all(run_batch(&batch(), 1).expect("serial batch"));
    for threads in [2, 4] {
        let parallel = unwrap_all(run_batch(&batch(), threads).expect("parallel batch"));
        assert_eq!(
            serial, parallel,
            "metrics diverged between 1 and {threads} threads"
        );
    }
    // Sanity: the batch really ran (6 jobs, live results).
    assert_eq!(serial.len(), 6);
    assert!(serial.iter().all(|m| m.total_cycles > 0));
    assert!(serial.iter().all(|m| m.events_processed > 0));
}

#[test]
fn pool_results_preserve_input_order() {
    // Two distinguishable jobs, many threads: results must line up with
    // inputs, not completion order.
    let base = smoke_config();
    let jobs = [
        Run::app(AppId::Gemv, base.clone(), 1),
        Run::app(AppId::Gups, base, 1),
    ];
    let out = unwrap_all(run_batch(&jobs, 4).expect("batch"));
    let gemv = run_batch(&[Run::app(AppId::Gemv, smoke_config(), 1)], 1)
        .expect("single")
        .remove(0)
        .expect("run");
    assert_eq!(out[0], gemv);
    assert_ne!(out[0], out[1]);
}
