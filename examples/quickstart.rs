//! Quickstart: run one workload on the MCM-GPU model, baseline vs
//! Barre Chord, and print what changed.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use barre_chord::system::{summary_line, Run, SystemConfig, TranslationMode};
use barre_chord::workloads::AppId;

fn main() {
    // The scaled Table II configuration: 4 chiplets, LASP mapping,
    // 16 PTWs behind PCIe.
    let cfg = SystemConfig::scaled();
    let app = AppId::Gups;
    println!(
        "running `{}` ({}) on a {}-chiplet MCM-GPU\n",
        app.name(),
        app.full_name(),
        cfg.topology.n_chiplets
    );

    let simulate = |cfg: &SystemConfig| Run::app(app, cfg.clone(), 42).simulate();
    let base = simulate(&cfg).expect("baseline run failed");
    println!("{}", summary_line("baseline", &base));

    let barre = simulate(&cfg.clone().with_mode(TranslationMode::Barre)).expect("Barre run failed");
    println!("{}", summary_line("Barre", &barre));

    let fbarre = simulate(&cfg.with_mode(TranslationMode::FBarre(Default::default())))
        .expect("F-Barre run failed");
    println!("{}", summary_line("F-Barre-2Merge", &fbarre));

    println!(
        "\nBarre   speedup: {:.3}x  (page table walks cut {:.1}%)",
        barre_chord::system::speedup(&base, &barre),
        (1.0 - barre.walks as f64 / base.walks.max(1) as f64) * 100.0
    );
    println!(
        "F-Barre speedup: {:.3}x  (ATS traffic cut {:.1}%)",
        barre_chord::system::speedup(&base, &fbarre),
        (1.0 - fbarre.ats_requests as f64 / base.ats_requests.max(1) as f64) * 100.0
    );
}
