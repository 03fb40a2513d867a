//! Where do translations get served? A per-mode traffic anatomy.
//!
//! Runs a TLB-heavy gather workload under every translation architecture
//! and prints where each mode resolves its L2 TLB misses: page table
//! walks, IOMMU-side PEC calculation, or intra-MCM (LCF/RCF) paths.
//!
//! ```text
//! cargo run --release --example translation_traffic
//! ```

use barre_chord::system::{Run, SystemConfig, TranslationMode};
use barre_chord::workloads::AppId;

fn main() {
    let cfg = SystemConfig::scaled();
    let app = AppId::Spmv;
    println!("translation anatomy for `{}`:\n", app.name());
    println!(
        "{:<18} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "mode", "cycles", "ATS", "walks", "IOMMU-calc", "intra-MCM", "mesh KB"
    );
    let modes = [
        TranslationMode::Baseline,
        TranslationMode::Valkyrie,
        TranslationMode::Least,
        TranslationMode::Barre,
        TranslationMode::FBarre(Default::default()),
    ];
    for mode in modes {
        let m = Run::app(app, cfg.clone().with_mode(mode), 11)
            .simulate()
            .expect("run failed");
        println!(
            "{:<18} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            mode.label(),
            m.total_cycles,
            m.ats_requests,
            m.walks,
            m.coalesced_translations,
            m.intra_mcm_translations,
            m.mesh_bytes / 1024,
        );
    }
    println!("\nreading the table:");
    println!("- Barre turns walks into IOMMU-calc (same ATS count, fewer walks)");
    println!("- F-Barre turns ATS itself into intra-MCM translations");
}
