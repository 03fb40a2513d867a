//! `barre profile`: where one run's wall time goes, per engine event
//! class.
//!
//! The machine calls a probe after every dispatched event with the
//! event's class, and after every sampled pop (one in
//! [`POP_SAMPLE_PERIOD`]) with [`PROBE_POPPED`]. The probe reads the
//! clock once per call and charges the time since its previous call to
//! the reported index, so the class totals add up to the run's wall time
//! (pop, handler and loop bookkeeping included), and sampled pops show
//! what the queue's pop costs on its own. The probe is passive: the
//! run's `RunMetrics` are byte-identical to `barre run`'s, and the last
//! line printed is their canonical JSON.
//!
//! F-Barre runs also print the RCF counters the machine hands its
//! counter sink when the run ends: packets applied in full versus copied
//! from a peer replica, the inserts dropped and removes that found
//! nothing inside the filters (`RunMetrics` counts only VC drops), and
//! the L2 TLB fills and evictions that sent no update because another
//! resident member of their coalescing group covered it.
//!
//! The probe is not free: each call reads the clock and updates the
//! tally, and every class's ns/event carries one call. After the run the
//! probe is timed over back-to-back calls and that cost is printed per
//! call and in total, so a class's figure can be read net of it. Back to
//! back, the probe's code and data stay hot, so the calibrated cost is a
//! lower bound on what it adds inside the run.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use barre_core::fbarre::RcfCounters;
use barre_system::{
    metrics_to_json, Run, RunMetrics, EVENT_CLASSES, POP_SAMPLE_PERIOD, PROBE_POPPED,
};

/// Probe indexes: the event classes, then the sampled pop.
const SLOTS: usize = EVENT_CLASSES.len() + 1;

/// Back-to-back probe calls timed to calibrate one call's cost.
const CALIBRATION_CALLS: u32 = 200_000;

/// Calls and nanoseconds charged to each probe index since `last`.
struct Tally {
    last: Instant,
    count: [u64; SLOTS],
    ns: [u64; SLOTS],
}

thread_local! {
    static TALLY: RefCell<Option<Tally>> = const { RefCell::new(None) };
    static RCF: RefCell<RcfCounters> = RefCell::new(RcfCounters::default());
}

/// The probe installed on the machine: one clock read per call.
fn probe(index: usize) {
    let now = Instant::now();
    TALLY.with_borrow_mut(|t| {
        if let Some(t) = t {
            let dt = now.duration_since(t.last).as_nanos() as u64;
            t.last = now;
            if let (Some(c), Some(n)) = (t.count.get_mut(index), t.ns.get_mut(index)) {
                *c += 1;
                *n += dt;
            }
        }
    });
}

/// One profiled run: its metrics, wall time, and per-index tallies.
struct Profile {
    metrics: RunMetrics,
    /// The F-Barre RCFs' host-side counters (zero without them).
    rcf: RcfCounters,
    wall_ns: u64,
    count: [u64; SLOTS],
    ns: [u64; SLOTS],
    /// Calibrated wall cost of one probe call.
    probe_ns: f64,
}

/// Installs a fresh tally starting at `start`.
fn start_tally(start: Instant) {
    TALLY.set(Some(Tally {
        last: start,
        count: [0; SLOTS],
        ns: [0; SLOTS],
    }));
}

/// Wall nanoseconds per probe call, timed over [`CALIBRATION_CALLS`]
/// back-to-back calls into a scratch tally.
fn probe_cost_ns() -> f64 {
    let start = Instant::now();
    start_tally(start);
    for _ in 0..CALIBRATION_CALLS {
        probe(std::hint::black_box(0));
    }
    let ns = start.elapsed().as_nanos() as f64;
    TALLY.take();
    ns / f64::from(CALIBRATION_CALLS)
}

/// Simulates `run` with the probe installed. Building the machine is
/// not part of the profile.
fn profile(run: &Run) -> Result<Profile, barre_system::SimError> {
    let mut machine = run.build()?;
    machine.set_event_probe(probe);
    machine.set_rcf_counter_sink(|c| RCF.set(c));
    let start = Instant::now();
    start_tally(start);
    let result = machine.run();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let tally = TALLY.take();
    let metrics = result?;
    let rcf = RCF.take();
    let (count, ns) = tally.map_or(([0; SLOTS], [0; SLOTS]), |t| (t.count, t.ns));
    Ok(Profile {
        metrics,
        rcf,
        wall_ns,
        count,
        ns,
        probe_ns: probe_cost_ns(),
    })
}

/// Renders the per-class table, the totals line and the metrics JSON.
fn render(label: &str, p: &Profile) -> String {
    let mut out = String::new();
    let events: u64 = p.count.iter().take(EVENT_CLASSES.len()).sum();
    let _ = writeln!(
        out,
        "profile {label}: {events} events, wall {:.1} ms",
        p.wall_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>14} {:>10} {:>7}",
        "class", "events", "total_ns", "ns/event", "share"
    );
    let pop_label = format!("pop 1/{POP_SAMPLE_PERIOD}");
    let names = EVENT_CLASSES.iter().copied().chain([pop_label.as_str()]);
    for ((name, &count), &ns) in names.zip(&p.count).zip(&p.ns) {
        if count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{name:<14} {count:>10} {ns:>14} {:>10.1} {:>6.1}%",
            ns as f64 / count as f64,
            100.0 * ns as f64 / p.wall_ns.max(1) as f64
        );
    }
    let sum_ns: u64 = p.ns.iter().sum();
    let _ = writeln!(
        out,
        "sum_ns={sum_ns} wall_ns={} ({:.1}% of wall)",
        p.wall_ns,
        100.0 * sum_ns as f64 / p.wall_ns.max(1) as f64
    );
    let calls: u64 = p.count.iter().sum();
    let probe_total_ns = p.probe_ns * calls as f64;
    let _ = writeln!(
        out,
        "probe overhead: {:.1} ns/call (calibrated over {CALIBRATION_CALLS} back-to-back calls) \
         x {calls} calls = {:.1} ms, {:.1}% of wall; each ns/event above includes one call",
        p.probe_ns,
        probe_total_ns / 1e6,
        100.0 * probe_total_ns / p.wall_ns.max(1) as f64
    );
    let m = &p.metrics;
    let applied = m
        .filter_updates_sent
        .saturating_sub(m.filter_updates_dropped);
    let filter_upd = EVENT_CLASSES.iter().position(|&c| c == "FilterUpd");
    if let (Some(&ns), true) = (filter_upd.and_then(|i| p.ns.get(i)), applied > 0) {
        let _ = writeln!(
            out,
            "FilterUpd per applied update: {:.1} ns ({applied} updates)",
            ns as f64 / applied as f64
        );
    }
    let rcf = &p.rcf;
    let packets = rcf.packets_applied + rcf.packets_replayed;
    if packets > 0 {
        let _ = writeln!(
            out,
            "RCF packets: {} applied in full, {} replayed ({:.1}% replayed)",
            rcf.packets_applied,
            rcf.packets_replayed,
            100.0 * rcf.packets_replayed as f64 / packets as f64
        );
        let _ = writeln!(
            out,
            "RCF updates lost in the filters: {} insert drops, {} absent removes",
            rcf.insert_drops, rcf.absent_removes
        );
    }
    if rcf.fills_absorbed + rcf.evictions_absorbed > 0 {
        let _ = writeln!(
            out,
            "RCF updates absorbed by a resident group member: {} fills, {} evictions",
            rcf.fills_absorbed, rcf.evictions_absorbed
        );
    }
    if let (Some(&ns), Some(&count)) = (p.ns.get(PROBE_POPPED), p.count.get(PROBE_POPPED)) {
        if count > 0 {
            let _ = writeln!(
                out,
                "queue pop: {:.1} ns/pop over {count} sampled pops",
                ns as f64 / count as f64
            );
        }
    }
    let _ = writeln!(out, "{}", metrics_to_json(m));
    out
}

/// `barre profile`: prints the table and the metrics JSON; exit code 0,
/// or the run's [`barre_system::SimError::exit_code`].
pub fn run(run: &Run) -> i32 {
    match profile(run) {
        Ok(p) => {
            let label = format!("{}/{}", run.apps(), run.cfg.mode.label());
            print!("{}", render(&label, &p));
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_passive_and_accounts_for_the_wall() {
        let cfg = barre_system::smoke_config()
            .with_mode(barre_system::TranslationMode::FBarre(Default::default()));
        let run = Run::app(barre_workloads::AppId::Gemv, cfg, 7);
        let p = profile(&run).unwrap();
        let plain = run.simulate().unwrap();
        assert_eq!(metrics_to_json(&p.metrics), metrics_to_json(&plain));
        let events: u64 = p.count.iter().take(EVENT_CLASSES.len()).sum();
        assert_eq!(events, plain.events_processed);
        assert_eq!(
            p.count[PROBE_POPPED],
            plain.events_processed / POP_SAMPLE_PERIOD
        );
        let sum: u64 = p.ns.iter().sum();
        assert!(sum <= p.wall_ns, "classes {sum} ns > wall {} ns", p.wall_ns);
        assert!(p.probe_ns > 0.0);
        let text = render("gemv/fbarre", &p);
        assert!(text.contains("FilterUpd"), "{text}");
        assert!(text.contains("probe overhead: "), "{text}");
        assert!(
            p.rcf.packets_applied > 0 && p.rcf.packets_replayed > 0,
            "{:?}",
            p.rcf
        );
        assert!(text.contains("RCF packets: "), "{text}");
        assert_eq!(text.lines().last(), Some(metrics_to_json(&plain).as_str()));
    }
}
