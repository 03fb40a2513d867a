//! Hot-path contracts for the F-Barre sweep: pinned golden metric
//! fingerprints for the full 9-app × 3-mode smoke sweep and for the
//! configuration variants the sweep never reaches, the
//! zero-allocation assertion for the F-Barre probe path, and a budget of
//! heap allocations per simulated event.
//!
//! The fingerprints pin [`barre_system::metrics_digest`] (an FNV-64 of
//! the canonical all-integer metrics JSON), so *any* behavioural drift
//! in the simulator — event order, counter arithmetic, histogram
//! bucketing — fails here with the offending cell named. Re-record by
//! running the test and copying the table it prints, but only after
//! convincing yourself the drift is intended and documenting it in
//! DESIGN.md / CHANGES.md.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use barre_bench::wallclock::{bench_apps, bench_modes};
use barre_bench::SEED;
use barre_system::{
    metrics_digest, run_spec, smoke_config, FBarreConfig, MmuKind, SystemConfig, TranslationMode,
};
use barre_workloads::AppId;

/// Counts heap allocations so [`barre_system::Machine::set_alloc_probe`]
/// can assert the F-Barre probe path never allocates. Lives in this
/// integration-test binary (each Cargo integration test is its own
/// crate), so the simulator crates stay free of process globals and the
/// R001 parallel-readiness audit keeps its READY verdict.
///
/// The count is per thread: the harness runs tests in parallel, and a
/// process-wide counter would also see the sibling tests' allocations.
struct CountingAlloc;

thread_local! {
    // `const` initializer and no destructor: reaching it never
    // allocates, so the allocator can bump it without recursing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump_allocs() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter is a plain
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_allocs();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_allocs();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// `(app, mode, metrics_digest, total_cycles, events_processed)` for
/// every cell of the smoke sweep at the bench seed. The deterministic
/// columns double as a cross-check against the committed
/// `BENCH_sweep.json` and the CI trace-smoke job.
const GOLDEN: &[(&str, &str, &str, u64, u64)] = &[
    ("gemv", "baseline", "076ddc956be1b3b2", 40454, 15792),
    ("gemv", "barre", "076ddc956be1b3b2", 40454, 15792),
    ("gemv", "fbarre", "b3250bdf54984f6b", 39538, 15749),
    ("fft", "baseline", "bdbc19298fab03b4", 63687, 16848),
    ("fft", "barre", "bdbc19298fab03b4", 63687, 16848),
    ("fft", "fbarre", "59252c736afaa891", 51786, 16807),
    ("pr", "baseline", "bcb4b809ac0a117e", 342679, 163504),
    ("pr", "barre", "458c521e5afad505", 360419, 163386),
    ("pr", "fbarre", "c4dcdbdc3a34803a", 335166, 160850),
    ("jac2d", "baseline", "a1d34c0b9081b105", 45471, 15981),
    ("jac2d", "barre", "a1d34c0b9081b105", 45471, 15981),
    ("jac2d", "fbarre", "498b6c7730f83b25", 40244, 16078),
    ("lu", "baseline", "f67a72faa7f35ab4", 53882, 16176),
    ("lu", "barre", "f67a72faa7f35ab4", 53882, 16176),
    ("lu", "fbarre", "b31feba32d21afe9", 46999, 16095),
    ("st2d", "baseline", "37d4f14fd8d05f3b", 40277, 15981),
    ("st2d", "barre", "37d4f14fd8d05f3b", 40277, 15981),
    ("st2d", "fbarre", "8246c69aea187fa9", 39538, 16075),
    ("matr", "baseline", "b628c59d62ccf732", 54526, 16176),
    ("matr", "barre", "b628c59d62ccf732", 54526, 16176),
    ("matr", "fbarre", "ca0beb1a112114b3", 47443, 16092),
    ("gups", "baseline", "8952ce2a68284155", 2571904, 1338213),
    ("gups", "barre", "5dc61b44a69f5360", 2520679, 1299476),
    ("gups", "fbarre", "7d0e5a57ab0352ff", 2020655, 589211),
    ("spmv", "baseline", "acd9bcd30a4fd71f", 1655993, 859414),
    ("spmv", "barre", "42637337bcbfd049", 1641896, 860906),
    ("spmv", "fbarre", "e00c36b7e5277f94", 1306022, 548575),
];

#[test]
fn golden_fingerprints_smoke_sweep() {
    let mut actual = Vec::new();
    for app in bench_apps(false) {
        for (mode, cfg) in bench_modes() {
            let m = run_spec(app.spec(), &cfg, SEED).expect("smoke run");
            actual.push((
                app.name().to_string(),
                mode.to_string(),
                metrics_digest(&m),
                m.total_cycles,
                m.events_processed,
            ));
        }
    }
    let expected: Vec<_> = GOLDEN
        .iter()
        .map(|&(a, mo, d, c, e)| (a.to_string(), mo.to_string(), d.to_string(), c, e))
        .collect();
    if actual != expected {
        // Print the re-pin table before failing so an intended change
        // is a copy-paste, not an archaeology session.
        println!("actual sweep table (for re-pinning GOLDEN):");
        for (a, mo, d, c, e) in &actual {
            println!("    (\"{a}\", \"{mo}\", \"{d}\", {c}, {e}),");
        }
        for (i, (act, exp)) in actual.iter().zip(&expected).enumerate() {
            assert_eq!(act, exp, "sweep cell {i} ({}/{}) drifted", exp.0, exp.1);
        }
        assert_eq!(actual.len(), expected.len(), "sweep shape changed");
    }
}

/// The configuration variants the 27-cell sweep does not exercise: the
/// prior-work modes, the other F-Barre merge limits, speculative
/// multicast, an IOMMU TLB, and Barre / F-Barre on per-chiplet GMMUs.
fn variant_configs() -> Vec<(&'static str, SystemConfig)> {
    let base = smoke_config();
    let fbarre = |max_merged| {
        TranslationMode::FBarre(FBarreConfig {
            max_merged,
            ..FBarreConfig::default()
        })
    };
    let mut multicast = base.clone().with_mode(TranslationMode::Barre);
    multicast.barre_multicast = true;
    let mut iommu_tlb = base.clone().with_mode(fbarre(2));
    iommu_tlb.iommu_tlb = Some((2048, 8, 200));
    let mut gmmu = base.clone();
    gmmu.mmu = MmuKind::Gmmu;
    vec![
        (
            "valkyrie",
            base.clone().with_mode(TranslationMode::Valkyrie),
        ),
        ("least", base.clone().with_mode(TranslationMode::Least)),
        ("fbarre1", base.clone().with_mode(fbarre(1))),
        ("fbarre4", base.clone().with_mode(fbarre(4))),
        ("barre+multicast", multicast),
        ("fbarre+iommu-tlb", iommu_tlb),
        ("gmmu-barre", gmmu.clone().with_mode(TranslationMode::Barre)),
        ("gmmu-fbarre", gmmu.with_mode(fbarre(2))),
    ]
}

/// `(app, variant, metrics_digest, total_cycles, events_processed)` for
/// [`variant_configs`] on gups and atax at the bench seed.
const GOLDEN_VARIANTS: &[(&str, &str, &str, u64, u64)] = &[
    ("gups", "valkyrie", "72a0c1eff85cdf2b", 2570708, 1334072),
    ("gups", "least", "3e6885335010d61b", 2582352, 1070728),
    ("gups", "fbarre1", "f2f30018ad4115ed", 2050104, 845872),
    ("gups", "fbarre4", "ebf28aad4271327e", 1800392, 390378),
    (
        "gups",
        "barre+multicast",
        "63362b79424d61ad",
        2431727,
        1432557,
    ),
    (
        "gups",
        "fbarre+iommu-tlb",
        "7eb369f2737c9097",
        1910461,
        596651,
    ),
    ("gups", "gmmu-barre", "5bd163e7fc992298", 3054083, 1272683),
    ("gups", "gmmu-fbarre", "fd86e6c9465e8f95", 1838580, 582327),
    ("atax", "valkyrie", "f4b1719ad0f9df8a", 153415, 16176),
    ("atax", "least", "dc2e0326a13693ff", 147816, 16176),
    ("atax", "fbarre1", "8bf6595e85f88d22", 145465, 15792),
    ("atax", "fbarre4", "8bf6595e85f88d22", 145465, 15792),
    ("atax", "barre+multicast", "fd66202f5bbd96a9", 157031, 16890),
    (
        "atax",
        "fbarre+iommu-tlb",
        "ad890210229d189a",
        129529,
        15792,
    ),
    ("atax", "gmmu-barre", "2db84eff3510cd6c", 137373, 16176),
    ("atax", "gmmu-fbarre", "b32500bca9e0fb20", 119010, 15792),
];

#[test]
fn golden_fingerprints_config_variants() {
    let mut actual = Vec::new();
    for app in [AppId::Gups, AppId::Atax] {
        for (variant, cfg) in variant_configs() {
            let m = run_spec(app.spec(), &cfg, SEED).expect("smoke run");
            actual.push((
                app.name().to_string(),
                variant.to_string(),
                metrics_digest(&m),
                m.total_cycles,
                m.events_processed,
            ));
        }
    }
    let expected: Vec<_> = GOLDEN_VARIANTS
        .iter()
        .map(|&(a, v, d, c, e)| (a.to_string(), v.to_string(), d.to_string(), c, e))
        .collect();
    if actual != expected {
        println!("actual variant table (for re-pinning GOLDEN_VARIANTS):");
        for (a, v, d, c, e) in &actual {
            println!("    (\"{a}\", \"{v}\", \"{d}\", {c}, {e}),");
        }
        for (i, (act, exp)) in actual.iter().zip(&expected).enumerate() {
            assert_eq!(act, exp, "variant cell {i} ({}/{}) drifted", exp.0, exp.1);
        }
        assert_eq!(actual.len(), expected.len(), "variant table shape changed");
    }
}

/// Runs an F-Barre smoke config with the counting allocator installed
/// as the machine's probe: every local/peer coalescing probe then
/// `debug_assert`s it performed zero heap allocations. Debug builds
/// only — the probe seam compiles out of release binaries.
#[cfg(debug_assertions)]
#[test]
fn fbarre_probe_path_is_allocation_free() {
    use barre_system::{build_machine, smoke_config, TranslationMode};

    let cfg = smoke_config().with_mode(TranslationMode::FBarre(Default::default()));
    for app in [barre_workloads::AppId::Gups, barre_workloads::AppId::Spmv] {
        let mut machine = build_machine(&[app.spec()], &cfg, SEED).expect("assemble");
        machine.set_alloc_probe(alloc_count);
        let m = machine.run().expect("run");
        assert!(m.events_processed > 0);
    }
}

/// Heap allocations per simulated event during [`barre_system::Machine::run`]
/// (after `build_machine`), per app and bench mode (baseline / barre /
/// fbarre, the order of `bench_modes`): the measured rate plus 20 %.
/// Measured: gemv 0.058 / 0.058 / 0.045 and jac2d 0.048 / 0.048 / 0.031
/// when their rows were pinned (0.042 and 0.025 in every mode since
/// IOMMU walks write into reused buffers), gups 0.0019 / 0.0020 / 0.0045,
/// spmv 0.0030 / 0.0030 / 0.0048. F-Barre's gups and spmv runs make
/// about the same 2,640 allocations as the other modes over 22–35 % fewer
/// events (each coalescing group is advertised once per chiplet), so
/// their rate, and only theirs, sits higher.
/// Warp issue, the TLBs, the MSHR files and the walk
/// dispatch and completion allocate nothing; what remains is each
/// tag-cache set's first fill and slab warm-up. A path that starts
/// allocating per warp, per walk or per fill again fails here.
const ALLOCS_PER_EVENT: &[(AppId, [f64; 3])] = &[
    (AppId::Gemv, [0.058 * 1.2; 3]),
    (AppId::Jac2d, [0.048 * 1.2; 3]),
    (AppId::Gups, [0.003 * 1.2, 0.003 * 1.2, 0.0045 * 1.2]),
    (AppId::Spmv, [0.004 * 1.2, 0.004 * 1.2, 0.0048 * 1.2]),
];

#[test]
fn run_allocations_per_event_stay_within_budget() {
    use barre_system::build_machine;

    let modes = bench_modes();
    let names: Vec<&str> = modes.iter().map(|(mode, _)| *mode).collect();
    assert_eq!(names, ["baseline", "barre", "fbarre"]);
    let mut report = Vec::new();
    for &(app, budgets) in ALLOCS_PER_EVENT {
        let name = app.name();
        for ((mode, cfg), budget) in modes.iter().zip(budgets) {
            let machine = build_machine(&[app.spec()], cfg, SEED).expect("assemble");
            let before = alloc_count();
            let m = machine.run().expect("run");
            let allocs = alloc_count() - before;
            let rate = allocs as f64 / m.events_processed as f64;
            report.push(format!(
                "{name}/{mode}: {allocs} allocs / {} events = {rate:.3}",
                m.events_processed
            ));
            assert!(
                rate <= budget,
                "{name}/{mode}: {rate:.3} allocs/event > {budget}\n{}",
                report.join("\n")
            );
        }
    }
    println!("{}", report.join("\n"));
}
