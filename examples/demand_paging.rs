//! §VI in action: on-demand paging with coalescing-group-granular fetch.
//!
//! The paper's discussion argues Barre integrates with on-demand paging
//! by fetching pages *in units of coalescing groups* — one far fault
//! maps the page on every sharer chiplet at the same local frame. This
//! example compares fault counts and run time for premapped, single-page
//! demand, and group-granular demand paging.
//!
//! ```text
//! cargo run --release --example demand_paging
//! ```

use barre_chord::system::{speedup, DemandPagingConfig, Run, SystemConfig, TranslationMode};
use barre_chord::workloads::AppId;

fn main() {
    let app = AppId::Jac2d;
    let fb = TranslationMode::FBarre(Default::default());
    let premap = SystemConfig::scaled().with_mode(fb);
    let mut single = premap.clone();
    single.demand_paging = Some(DemandPagingConfig {
        fault_latency: 20_000,
        group_fetch: false,
    });
    let mut grouped = premap.clone();
    grouped.demand_paging = Some(DemandPagingConfig {
        fault_latency: 20_000,
        group_fetch: true,
    });

    println!(
        "on-demand paging on `{}` (F-Barre, 20 us faults)\n",
        app.name()
    );
    let simulate = |cfg: SystemConfig| Run::app(app, cfg, 3).simulate();
    let base = simulate(premap).expect("premapped run failed");
    let s = simulate(single).expect("single-page demand run failed");
    let g = simulate(grouped).expect("group demand run failed");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>10}",
        "mode", "faults", "pages mapped", "cycles", "vs premap"
    );
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>9.3}x",
        "premapped", 0, "-", base.total_cycles, 1.0
    );
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>9.3}x",
        "demand (1 page)",
        s.page_faults,
        s.demand_pages_mapped,
        s.total_cycles,
        speedup(&base, &s)
    );
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>9.3}x",
        "demand (group)",
        g.page_faults,
        g.demand_pages_mapped,
        g.total_cycles,
        speedup(&base, &g)
    );
    println!(
        "\ngroup fetch mapped {:.2} pages per fault — one fault covers the",
        g.demand_pages_mapped as f64 / g.page_faults.max(1) as f64
    );
    println!("whole coalescing group, as §VI describes.");
}
