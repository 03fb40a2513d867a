//! Hot-path contracts for the F-Barre sweep: pinned golden metric
//! fingerprints for the full 9-app × 3-mode smoke sweep, and the
//! zero-allocation assertion for the F-Barre probe path.
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
use barre_system::{metrics_digest, run_spec};

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
    ("gemv", "fbarre", "fdcd279318e6ec5a", 39538, 15932),
    ("fft", "baseline", "bdbc19298fab03b4", 63687, 16848),
    ("fft", "barre", "bdbc19298fab03b4", 63687, 16848),
    ("fft", "fbarre", "5e6eae2e7926d460", 51518, 17467),
    ("pr", "baseline", "bcb4b809ac0a117e", 342679, 163504),
    ("pr", "barre", "458c521e5afad505", 360419, 163386),
    ("pr", "fbarre", "6b6bbc32a65d7489", 374556, 163531),
    ("jac2d", "baseline", "a1d34c0b9081b105", 45471, 15981),
    ("jac2d", "barre", "a1d34c0b9081b105", 45471, 15981),
    ("jac2d", "fbarre", "13ef568e99619bde", 40442, 16265),
    ("lu", "baseline", "f67a72faa7f35ab4", 53882, 16176),
    ("lu", "barre", "f67a72faa7f35ab4", 53882, 16176),
    ("lu", "fbarre", "0ebe21b3f25734cb", 46959, 16471),
    ("st2d", "baseline", "37d4f14fd8d05f3b", 40277, 15981),
    ("st2d", "barre", "37d4f14fd8d05f3b", 40277, 15981),
    ("st2d", "fbarre", "409284cf9037e0fd", 39538, 16267),
    ("matr", "baseline", "b628c59d62ccf732", 54526, 16176),
    ("matr", "barre", "b628c59d62ccf732", 54526, 16176),
    ("matr", "fbarre", "ddee5314801cc23c", 47611, 16467),
    ("gups", "baseline", "8952ce2a68284155", 2571904, 1338213),
    ("gups", "barre", "5dc61b44a69f5360", 2520679, 1299476),
    ("gups", "fbarre", "1ea934fc132034b2", 2136215, 906032),
    ("spmv", "baseline", "acd9bcd30a4fd71f", 1655993, 859414),
    ("spmv", "barre", "42637337bcbfd049", 1641896, 860906),
    ("spmv", "fbarre", "893a7578a7ac9603", 1307742, 703927),
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
