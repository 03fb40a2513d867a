//! Chiplet scaling on a stencil workload.
//!
//! Stencil kernels progress in lockstep across chiplets — the best case
//! for coalescing-group translation. This example sweeps the MCM size
//! and shows how F-Barre's benefit grows with translation contention
//! (the paper's Fig 20 effect).
//!
//! ```text
//! cargo run --release --example stencil_scaling
//! ```

use barre_chord::system::{speedup, Run, SystemConfig, TranslationMode};
use barre_chord::workloads::AppId;

fn main() {
    println!("F-Barre on `jac2d` (5-point Jacobi) across MCM sizes\n");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>12}",
        "chiplets", "base cycles", "F-Barre cycles", "speedup", "intra-MCM"
    );
    for n in [2usize, 4, 8] {
        let mut cfg = SystemConfig::scaled();
        cfg.topology = cfg.topology.with_chiplets(n);
        let fbarre = cfg
            .clone()
            .with_mode(TranslationMode::FBarre(Default::default()));
        let base = Run::app(AppId::Jac2d, cfg, 7)
            .simulate()
            .expect("baseline run failed");
        let fb = Run::app(AppId::Jac2d, fbarre, 7)
            .simulate()
            .expect("F-Barre run failed");
        println!(
            "{n:>8} {:>14} {:>14} {:>9.3}x {:>12}",
            base.total_cycles,
            fb.total_cycles,
            speedup(&base, &fb),
            fb.intra_mcm_translations
        );
    }
    println!("\n(larger MCMs put more pressure on PCIe and the PTW pool,");
    println!(" so calculation-based translation buys more — Fig 20's shape)");
}
