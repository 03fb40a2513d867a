//! Drain-signal handling shared by the daemon and the sweep supervisor.
//!
//! Both SIGINT and SIGTERM request the same thing — a graceful drain —
//! so one handler records which signal arrived and flips one flag. The
//! daemon drains and exits 0; the supervisor drains and exits
//! `128 + signal` (130 for Ctrl-C, 143 for SIGTERM) with a resume hint.

use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::time::{Duration, Instant};

/// Set by the signal handler; checked between job dispatches, during
/// backoff sleeps, and by the daemon's accept/connection loops. Once
/// set, no new work is admitted — in-flight work finishes (or hits its
/// deadline) and is journaled before the process exits.
pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Which signal requested the drain (0 until one arrives).
pub static SIGNAL: AtomicI32 = AtomicI32::new(0);

/// POSIX SIGINT.
pub const SIGINT: i32 = 2;
/// POSIX SIGTERM.
pub const SIGTERM: i32 = 15;

extern "C" fn on_drain_signal(sig: i32) {
    SIGNAL.store(sig, Ordering::SeqCst);
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the drain handler for SIGINT *and* SIGTERM (the first of
/// either drains; the default disposition is not restored, so journals
/// and the cache index always stay consistent).
#[cfg(unix)]
pub fn install_drain_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    // SAFETY: installing a handler that only stores to atomics is
    // async-signal-safe; the previous dispositions are intentionally
    // discarded.
    unsafe {
        let _ = signal(SIGINT, on_drain_signal);
        let _ = signal(SIGTERM, on_drain_signal);
    }
}

/// No-op off unix: everything still works, it just cannot drain on a
/// signal.
#[cfg(not(unix))]
pub fn install_drain_handlers() {}

/// Whether a drain signal has been observed.
pub fn shutting_down() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Sleeps `d` in 20 ms slices, returning early once a drain signal is
/// seen: the backoff and poll waits of the supervisor, the worker, and
/// the dispatch client.
pub fn sleep_interruptible(d: Duration) {
    let until = Instant::now() + d;
    while Instant::now() < until && !shutting_down() {
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Conventional exit code after a signal-initiated drain: `128 + signal`
/// (130 after SIGINT, 143 after SIGTERM). Falls back to SIGINT's code
/// when no signal was recorded.
pub fn drain_exit_code() -> i32 {
    let sig = SIGNAL.load(Ordering::SeqCst);
    128 + if sig <= 0 { SIGINT } else { sig }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_128_plus_signal_convention() {
        // The default (no signal recorded) is the SIGINT code; the
        // mapping itself is pure arithmetic.
        assert_eq!(128 + SIGINT, 130);
        assert_eq!(128 + SIGTERM, 143);
        let sig = SIGNAL.load(Ordering::SeqCst);
        if sig <= 0 {
            assert_eq!(drain_exit_code(), 130);
        } else {
            assert_eq!(drain_exit_code(), 128 + sig);
        }
    }
}
