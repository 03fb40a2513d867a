//! Conservation-law sanitizer (compiled under `--features sanitizer`).
//!
//! The translation pipeline obeys a handful of conservation laws; PR 1
//! pinned the end-of-run one (`walks + coalesced + fallback ==
//! ats_requests`) in integration tests, but a law can be violated
//! mid-run and still balance out by the end. With the `sanitizer`
//! feature on, [`Machine::run`](crate::machine::Machine::run) re-checks
//! every law at every epoch (a fixed event-count stride) and at drain:
//!
//! 1. **Translation conservation** — every serviced translation (walk,
//!    coalesced calculation, or fallback) answers exactly one ATS
//!    request, so `serviced <= requests` at all times, with equality at
//!    drain. Only checked when the IOMMU TLB is off and speculative
//!    multicast is disabled; both decouple services from requests.
//! 2. **Frame accounting** — per chiplet, frames counted allocated in
//!    the bitmap plus the cached free counter equal capacity.
//! 3. **MSHR bounds** — in-flight misses never exceed the register file
//!    capacity.
//! 4. **Link accounting** — serialization takes at least one cycle per
//!    message and at least `bytes / bytes_per_cycle` cycles overall, so
//!    `msgs <= busy_cycles` and `total_bytes <= busy_cycles *
//!    bytes_per_cycle` on every link.
//! 5. **Group advertisement** — under F-Barre, the group updates a
//!    chiplet sent for a coalescing group (adds minus deletes) net to
//!    one while a member covers the group in its L2 TLB and to zero
//!    otherwise: no group is advertised twice or outlives its members.
//!    The law counts what the chiplet decided to send, not what reached
//!    the peers. It leaves out a group whose fill or eviction its
//!    chiplet could not judge because the data's PEC record was not yet
//!    resident: such a group stays unadvertised while any member is.
//!
//! A failed check `debug_assert!`s with the rendered report; in release
//! builds the violations accumulate in the machine's
//! [`SanitizerReport`], retrievable via
//! [`Machine::sanitizer_report`](crate::machine::Machine::sanitizer_report).

use std::fmt::Write as _;

use barre_sim::Cycle;

/// One conservation-law violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which law failed (`"translation-conservation"`, …).
    pub law: &'static str,
    /// Human-readable account of the imbalance.
    pub detail: String,
    /// Simulated cycle at which the check ran.
    pub cycle: Cycle,
}

/// The group updates one chiplet sent for one coalescing group.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupLedger {
    /// Adds minus deletes sent.
    pub(crate) net: i64,
    /// The coalescing bits each member's entry carries when it covers
    /// the group.
    pub(crate) bits: Vec<u16>,
    /// A fill or eviction of the group went unjudged.
    pub(crate) unjudged: bool,
}

/// Accumulated sanitizer state for one run.
#[derive(Debug, Clone, Default)]
pub struct SanitizerReport {
    /// Violations in detection order.
    pub violations: Vec<Violation>,
    /// Epoch checks performed so far.
    pub epochs_checked: u64,
}

impl SanitizerReport {
    /// Whether every epoch check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Structured dump: one `[law] cycle=N detail` line per violation
    /// under a summary header.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "conservation sanitizer: {} violation(s) over {} epoch check(s)",
            self.violations.len(),
            self.epochs_checked
        );
        for v in &self.violations {
            let _ = writeln!(out, "  [{}] cycle={} {}", v.law, v.cycle, v.detail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_structured_lines() {
        let mut r = SanitizerReport {
            epochs_checked: 3,
            ..SanitizerReport::default()
        };
        r.violations.push(Violation {
            law: "frame-accounting",
            detail: "chiplet 1: allocated 5 + free 2 != capacity 8".to_string(),
            cycle: 4096,
        });
        let s = r.render();
        assert!(s.contains("1 violation(s) over 3 epoch check(s)"));
        assert!(s.contains("[frame-accounting] cycle=4096"));
        assert!(!r.is_clean());
    }
}
