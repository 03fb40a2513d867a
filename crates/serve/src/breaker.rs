//! The crash circuit breaker: quarantine configs that keep failing.
//!
//! A config fingerprint whose children fail terminally N times in a row
//! (transient or permanent `SimError`, panic, or deadline kill) trips
//! into a quarantined state: further requests for that fingerprint get
//! a `503`-style response without spawning anything. One success resets
//! the streak. Quarantine lasts for the daemon's lifetime — a restart
//! (or a fixed binary) clears it, and that is exactly when retrying is
//! worth it again.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Per-fingerprint consecutive-terminal-failure counter with a trip
/// threshold.
pub struct CircuitBreaker {
    trip_after: u32,
    streaks: Mutex<BTreeMap<String, u32>>,
}

impl CircuitBreaker {
    /// Trips a fingerprint after `trip_after` consecutive terminal
    /// failures; `0` disables the breaker entirely.
    pub fn new(trip_after: u32) -> Self {
        CircuitBreaker {
            trip_after,
            streaks: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether `fp` is quarantined.
    pub fn is_open(&self, fp: &str) -> bool {
        if self.trip_after == 0 {
            return false;
        }
        self.streaks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(fp)
            .is_some_and(|&n| n >= self.trip_after)
    }

    /// Records a terminal failure for `fp`; returns `true` when this
    /// failure tripped the breaker open.
    pub fn record_failure(&self, fp: &str) -> bool {
        if self.trip_after == 0 {
            return false;
        }
        let mut g = self.streaks.lock().unwrap_or_else(PoisonError::into_inner);
        let n = g.entry(fp.to_string()).or_insert(0);
        *n = n.saturating_add(1);
        *n == self.trip_after
    }

    /// Records a success for `fp`, resetting its streak.
    pub fn record_success(&self, fp: &str) {
        self.streaks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(fp);
    }

    /// Number of currently quarantined fingerprints.
    pub fn open_count(&self) -> usize {
        if self.trip_after == 0 {
            return 0;
        }
        self.streaks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|&&n| n >= self.trip_after)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_n_consecutive_failures() {
        let b = CircuitBreaker::new(3);
        assert!(!b.record_failure("f1"));
        assert!(!b.record_failure("f1"));
        assert!(!b.is_open("f1"));
        assert!(b.record_failure("f1"));
        assert!(b.is_open("f1"));
        assert_eq!(b.open_count(), 1);
        // Further failures don't re-report the trip.
        assert!(!b.record_failure("f1"));
        assert!(b.is_open("f1"));
    }

    #[test]
    fn success_resets_the_streak() {
        let b = CircuitBreaker::new(2);
        b.record_failure("f1");
        b.record_success("f1");
        assert!(!b.record_failure("f1"));
        assert!(!b.is_open("f1"));
        assert!(b.record_failure("f1"));
        assert!(b.is_open("f1"));
    }

    #[test]
    fn zero_threshold_disables() {
        let b = CircuitBreaker::new(0);
        for _ in 0..10 {
            b.record_failure("f1");
        }
        assert!(!b.is_open("f1"));
        assert_eq!(b.open_count(), 0);
    }

    #[test]
    fn fingerprints_are_independent() {
        let b = CircuitBreaker::new(1);
        b.record_failure("f1");
        assert!(b.is_open("f1"));
        assert!(!b.is_open("f2"));
    }
}
