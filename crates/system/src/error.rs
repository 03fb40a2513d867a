//! The failure taxonomy of the build/run pipeline.
//!
//! Everything that used to panic on the `build_machine` → `Machine::run`
//! path — frame exhaustion, misconfiguration, unmapped translations,
//! deadlock — now surfaces as a [`SimError`], so harnesses (the CLI, the
//! chaos sweep, property tests) can observe failures instead of dying.

use barre_mem::Vpn;
use barre_sim::Cycle;

use crate::metrics::RunMetrics;

/// Why a simulation could not be built or could not finish.
#[derive(Debug, Clone)]
pub enum SimError {
    /// A chiplet's frame allocator ran dry while mapping a workload (or
    /// serving a demand-paging fault / migration).
    OutOfFrames {
        /// Chiplet whose allocator was exhausted.
        chiplet: u8,
    },
    /// A mapping plan was asked about a VPN outside its range — a driver
    /// or policy bug surfaced at build time.
    VpnOutsidePlan {
        /// Address space of the stray VPN.
        asid: u16,
        /// The VPN that no plan covers.
        vpn: Vpn,
    },
    /// The configuration is internally inconsistent (zero-sized
    /// structure, bad fault plan, impossible TLB geometry…).
    InvalidConfig(String),
    /// A workload touched an unmapped page with demand paging disabled.
    TranslationFault {
        /// Address space of the faulting access.
        asid: u16,
        /// The unmapped VPN.
        vpn: Vpn,
    },
    /// The watchdog saw no forward progress (no warp memory instruction
    /// retired) for the configured window, or the event queue drained
    /// with live state left behind. Carries the metrics collected up to
    /// the abort (with `watchdog_fired` set) and a state dump.
    NoProgress {
        /// Cycle at which the watchdog gave up.
        cycle: Cycle,
        /// Human-readable machine-state summary for diagnosis.
        dump: String,
        /// Metrics up to the abort; `watchdog_fired == 1`.
        metrics: Box<RunMetrics>,
    },
    /// The deadlock-guard event budget was exceeded — a runaway event
    /// loop rather than a quiet hang.
    EventBudgetExceeded {
        /// Events processed when the guard tripped.
        processed: u64,
        /// Simulated cycle at that point.
        cycle: Cycle,
    },
    /// A worker thread died while running a batch of simulations on the
    /// run-level pool — some job panicked, so the whole batch is
    /// discarded rather than returned incomplete.
    WorkerPanicked {
        /// Number of pool workers that panicked.
        workers: usize,
    },
    /// The caller's cancel check ([`Machine::set_cancel_check`]) asked
    /// the run to stop — a deadline passed, not a fault of the model.
    ///
    /// [`Machine::set_cancel_check`]: crate::Machine::set_cancel_check
    Cancelled {
        /// Events processed when the run stopped.
        processed: u64,
        /// Simulated cycle at that point.
        cycle: Cycle,
    },
}

/// Child-process exit code for a *permanent* failure: the same inputs
/// will fail the same way (bad configuration, plan/driver bug,
/// deterministic translation fault), so the sweep supervisor must not
/// burn retries on it.
pub const EXIT_PERMANENT: i32 = 64;

/// Child-process exit code for a *transient-shaped* failure: watchdog
/// aborts, event-budget blowups, frame exhaustion and worker panics are
/// worth the supervisor's bounded retry (they may be environmental, and
/// retrying is how the ISSUE's failure policy treats any nonzero exit).
pub const EXIT_TRANSIENT: i32 = 65;

impl SimError {
    /// Whether retrying the identical simulation is pointless: the error
    /// is a deterministic property of the inputs, not of the run.
    pub fn is_permanent(&self) -> bool {
        match self {
            SimError::InvalidConfig(_)
            | SimError::VpnOutsidePlan { .. }
            | SimError::TranslationFault { .. } => true,
            SimError::OutOfFrames { .. }
            | SimError::NoProgress { .. }
            | SimError::EventBudgetExceeded { .. }
            | SimError::WorkerPanicked { .. }
            | SimError::Cancelled { .. } => false,
        }
    }

    /// The process exit code a supervised sweep child reports this error
    /// with: [`EXIT_PERMANENT`] or [`EXIT_TRANSIENT`]. The supervisor
    /// maps the former to an immediate labeled failure and the latter to
    /// retry-with-backoff.
    pub fn exit_code(&self) -> i32 {
        if self.is_permanent() {
            EXIT_PERMANENT
        } else {
            EXIT_TRANSIENT
        }
    }
}

impl From<barre_sim::PoolError> for SimError {
    fn from(e: barre_sim::PoolError) -> Self {
        SimError::WorkerPanicked {
            workers: e.panicked_workers,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfFrames { chiplet } => {
                write!(f, "chiplet {chiplet} is out of physical frames")
            }
            SimError::VpnOutsidePlan { asid, vpn } => {
                write!(f, "vpn {vpn} (asid {asid}) lies outside every mapping plan")
            }
            SimError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            SimError::TranslationFault { asid, vpn } => write!(
                f,
                "translation fault for {vpn} asid {asid} — workload touched an unmapped page \
                 and demand paging is disabled"
            ),
            SimError::NoProgress { cycle, dump, .. } => {
                write!(f, "no forward progress by cycle {cycle}; {dump}")
            }
            SimError::EventBudgetExceeded { processed, cycle } => write!(
                f,
                "event budget exceeded ({processed} events by cycle {cycle}) — \
                 deadlock or runaway workload"
            ),
            SimError::WorkerPanicked { workers } => write!(
                f,
                "{workers} sweep worker thread(s) panicked; batch discarded"
            ),
            SimError::Cancelled { processed, cycle } => {
                write!(f, "run cancelled after {processed} events at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::OutOfFrames { chiplet: 3 };
        assert!(e.to_string().contains("chiplet 3"));
        let e = SimError::InvalidConfig("l2_tlb_ways = 0".into());
        assert!(e.to_string().contains("l2_tlb_ways"));
        let e = SimError::NoProgress {
            cycle: 99,
            dump: "2 MSHRs pending".into(),
            metrics: Box::default(),
        };
        assert!(e.to_string().contains("cycle 99"));
        assert!(e.to_string().contains("MSHRs"));
    }

    #[test]
    fn permanence_classification_drives_exit_codes() {
        let permanent = SimError::InvalidConfig("bad".into());
        let transient = SimError::NoProgress {
            cycle: 1,
            dump: "stuck".into(),
            metrics: Box::default(),
        };
        assert!(permanent.is_permanent());
        assert!(!transient.is_permanent());
        assert_eq!(permanent.exit_code(), EXIT_PERMANENT);
        assert_eq!(transient.exit_code(), EXIT_TRANSIENT);
        assert_ne!(EXIT_PERMANENT, EXIT_TRANSIENT);
    }
}
