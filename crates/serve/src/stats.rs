//! Daemon counters and `barre-trace` histograms behind `GET /stats`.
//!
//! Counters are relaxed atomics (monotonic, saturating); the
//! per-request latency, per-attempt simulate time and
//! admission-queue-depth distributions use the fixed-bucket
//! [`LatencyHistogram`], so `/stats` percentiles are deterministic
//! functions of the samples, byte-stable across hosts. A request's
//! latency minus its simulate time is its admission wait plus its
//! handling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use barre_trace::LatencyHistogram;

/// Saturating relaxed increment — the one way counters move.
pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Point-in-time gauges sampled by the caller at render time — state
/// that lives outside [`ServeStats`] (queue, cache, breaker, drain flag).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Current admission-queue depth.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Entries in the result cache.
    pub cache_entries: usize,
    /// Cache evictions from digest verification failures.
    pub cache_evictions: u64,
    /// Quarantined fingerprints (open breaker circuits).
    pub breaker_open: usize,
    /// Whether a drain is in progress.
    pub draining: bool,
}

/// Every counter the daemon exposes, plus the two histograms.
#[derive(Default)]
pub struct ServeStats {
    /// Request lines received (any outcome).
    pub received: AtomicU64,
    /// Cold successes (simulation actually ran).
    pub ok_cold: AtomicU64,
    /// Requests answered from the verified result cache.
    pub cache_hits: AtomicU64,
    /// Requests rejected by validation (`400`).
    pub invalid: AtomicU64,
    /// Requests shed by the full admission queue (`429`).
    pub shed: AtomicU64,
    /// Requests that hit their wall-clock deadline (`504`).
    pub timeouts: AtomicU64,
    /// Permanent simulation failures (`422`).
    pub failed_permanent: AtomicU64,
    /// Transient failures that exhausted their retries (`500`).
    pub failed_transient: AtomicU64,
    /// Requests refused because their fingerprint is quarantined (`503`).
    pub quarantined: AtomicU64,
    /// Requests refused because a drain was in progress (`503`).
    pub rejected_draining: AtomicU64,
    /// Simulation retry attempts (beyond each request's first attempt).
    pub retries: AtomicU64,
    /// Largest queue depth observed at admission.
    pub max_depth: AtomicU64,
    latency_ms: Mutex<LatencyHistogram>,
    simulate_ms: Mutex<LatencyHistogram>,
    depth_hist: Mutex<LatencyHistogram>,
}

fn lock(h: &Mutex<LatencyHistogram>) -> MutexGuard<'_, LatencyHistogram> {
    h.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServeStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request's wall-clock latency (ms).
    pub fn record_latency_ms(&self, ms: u64) {
        lock(&self.latency_ms).record(ms);
    }

    /// Records one simulation attempt's wall-clock time (ms), from the
    /// machine's build to its result.
    pub fn record_simulate_ms(&self, ms: u64) {
        lock(&self.simulate_ms).record(ms);
    }

    /// Records the queue depth observed after an admission.
    pub fn record_depth(&self, depth: u64) {
        lock(&self.depth_hist).record(depth);
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Mean observed service latency in ms (≥ 1), defaulting to 1000
    /// before any sample exists — the basis of the `retry_after_ms`
    /// load-shed hint.
    pub fn mean_service_ms(&self) -> u64 {
        let g = lock(&self.latency_ms);
        if g.count() == 0 {
            return 1000;
        }
        let mean = g.mean();
        if mean < 1.0 {
            1
        } else if mean >= 3_600_000.0 {
            3_600_000
        } else {
            mean.round() as u64
        }
    }

    /// Renders the `/stats` JSON body (one line).
    pub fn render(&self, g: &Gauges) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (lat, sim, dep) = (
            lock(&self.latency_ms).clone(),
            lock(&self.simulate_ms).clone(),
            lock(&self.depth_hist).clone(),
        );
        format!(
            concat!(
                "{{\"draining\":{drain},",
                "\"requests\":{{\"received\":{rx},\"ok\":{ok},\"cache_hits\":{hits},",
                "\"invalid\":{inv},\"shed\":{shed},\"timeouts\":{to},",
                "\"failed_permanent\":{fp},\"failed_transient\":{ft},",
                "\"quarantined\":{q},\"rejected_draining\":{rd},\"retries\":{rt}}},",
                "\"queue\":{{\"depth\":{qd},\"cap\":{qc},\"workers\":{w},\"max_depth\":{md},",
                "\"depth_p50\":{dp50},\"depth_p95\":{dp95},\"depth_p99\":{dp99}}},",
                "\"cache\":{{\"entries\":{ce},\"evictions\":{ev}}},",
                "\"breaker\":{{\"open\":{bo}}},",
                "\"latency_ms\":{{\"count\":{lc},\"mean\":{lm:.3},\"p50\":{lp50},",
                "\"p95\":{lp95},\"p99\":{lp99},\"max\":{lmax}}},",
                "\"simulate_ms\":{{\"count\":{sc},\"mean\":{sm:.3},\"p50\":{sp50},",
                "\"p95\":{sp95},\"p99\":{sp99},\"max\":{smax}}}}}"
            ),
            drain = g.draining,
            rx = c(&self.received),
            ok = c(&self.ok_cold),
            hits = c(&self.cache_hits),
            inv = c(&self.invalid),
            shed = c(&self.shed),
            to = c(&self.timeouts),
            fp = c(&self.failed_permanent),
            ft = c(&self.failed_transient),
            q = c(&self.quarantined),
            rd = c(&self.rejected_draining),
            rt = c(&self.retries),
            qd = g.queue_depth,
            qc = g.queue_cap,
            w = g.workers,
            md = c(&self.max_depth),
            dp50 = dep.p50(),
            dp95 = dep.p95(),
            dp99 = dep.p99(),
            ce = g.cache_entries,
            ev = g.cache_evictions,
            bo = g.breaker_open,
            lc = lat.count(),
            lm = lat.mean(),
            lp50 = lat.p50(),
            lp95 = lat.p95(),
            lp99 = lat.p99(),
            lmax = lat.max(),
            sc = sim.count(),
            sm = sim.mean(),
            sp50 = sim.p50(),
            sp95 = sim.p95(),
            sp99 = sim.p99(),
            smax = sim.max(),
        )
    }

    /// Renders the `GET /metrics` Prometheus text exposition — the same
    /// counters as [`render`](ServeStats::render), one snapshot, names
    /// under the `barre_serve_` prefix.
    pub fn render_prometheus(&self, g: &Gauges) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (lat, sim, dep) = (
            lock(&self.latency_ms).clone(),
            lock(&self.simulate_ms).clone(),
            lock(&self.depth_hist).clone(),
        );
        let mut p = barre_obs::PromText::new();
        p.counter(
            "barre_serve_requests_received_total",
            "Request lines received (any outcome).",
            c(&self.received),
        );
        p.counter(
            "barre_serve_requests_ok_cold_total",
            "Cold successes (simulation actually ran).",
            c(&self.ok_cold),
        );
        p.counter(
            "barre_serve_cache_hits_total",
            "Requests answered from the verified result cache.",
            c(&self.cache_hits),
        );
        p.counter(
            "barre_serve_requests_invalid_total",
            "Requests rejected by validation (400).",
            c(&self.invalid),
        );
        p.counter(
            "barre_serve_requests_shed_total",
            "Requests shed by the full admission queue (429).",
            c(&self.shed),
        );
        p.counter(
            "barre_serve_requests_timeout_total",
            "Requests that hit their wall-clock deadline (504).",
            c(&self.timeouts),
        );
        p.counter(
            "barre_serve_requests_failed_permanent_total",
            "Permanent simulation failures (422).",
            c(&self.failed_permanent),
        );
        p.counter(
            "barre_serve_requests_failed_transient_total",
            "Transient failures that exhausted their retries (500).",
            c(&self.failed_transient),
        );
        p.counter(
            "barre_serve_requests_quarantined_total",
            "Requests refused by the circuit breaker (503).",
            c(&self.quarantined),
        );
        p.counter(
            "barre_serve_requests_rejected_draining_total",
            "Requests refused because a drain was in progress (503).",
            c(&self.rejected_draining),
        );
        p.counter(
            "barre_serve_child_retries_total",
            "Simulation retry attempts beyond each request's first attempt.",
            c(&self.retries),
        );
        p.counter(
            "barre_serve_cache_evictions_total",
            "Cache evictions from digest verification failures.",
            g.cache_evictions,
        );
        p.gauge(
            "barre_serve_queue_depth",
            "Current admission-queue depth.",
            g.queue_depth as u64,
        );
        p.gauge(
            "barre_serve_queue_cap",
            "Admission-queue capacity.",
            g.queue_cap as u64,
        );
        p.gauge(
            "barre_serve_queue_max_depth",
            "Largest queue depth observed at admission.",
            c(&self.max_depth),
        );
        p.gauge(
            "barre_serve_workers",
            "Simulation worker-pool size.",
            g.workers as u64,
        );
        p.gauge(
            "barre_serve_cache_entries",
            "Entries in the verified result cache.",
            g.cache_entries as u64,
        );
        p.gauge(
            "barre_serve_breaker_open",
            "Quarantined fingerprints (open breaker circuits).",
            g.breaker_open as u64,
        );
        p.gauge_bool(
            "barre_serve_draining",
            "Whether a drain is in progress.",
            g.draining,
        );
        p.histogram(
            "barre_serve_request_latency_ms",
            "Completed-request wall-clock latency in milliseconds.",
            &lat,
        );
        p.histogram(
            "barre_serve_simulate_ms",
            "Wall-clock time of each simulation attempt in milliseconds.",
            &sim,
        );
        p.histogram(
            "barre_serve_queue_depth_observed",
            "Admission-queue depth observed at each admission.",
            &dep,
        );
        p.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_json_and_counts_flow() {
        let s = ServeStats::new();
        bump(&s.received);
        bump(&s.received);
        bump(&s.cache_hits);
        s.record_latency_ms(12);
        s.record_latency_ms(40);
        s.record_simulate_ms(9);
        s.record_depth(3);
        let body = s.render(&Gauges {
            queue_depth: 1,
            queue_cap: 64,
            workers: 2,
            cache_entries: 5,
            ..Gauges::default()
        });
        let v = barre_system::Json::parse(&body).expect("valid JSON");
        assert_eq!(
            v.get("requests")
                .and_then(|r| r.get("received"))
                .and_then(barre_system::Json::as_u64),
            Some(2)
        );
        assert_eq!(
            v.get("queue")
                .and_then(|q| q.get("max_depth"))
                .and_then(barre_system::Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("latency_ms")
                .and_then(|l| l.get("count"))
                .and_then(barre_system::Json::as_u64),
            Some(2)
        );
        let sim = v.get("simulate_ms").expect("simulate_ms");
        assert_eq!(
            sim.get("count").and_then(barre_system::Json::as_u64),
            Some(1)
        );
        assert_eq!(sim.get("max").and_then(barre_system::Json::as_u64), Some(9));
    }

    #[test]
    fn prometheus_snapshot_matches_counters() {
        let s = ServeStats::new();
        bump(&s.received);
        bump(&s.shed);
        s.record_latency_ms(12);
        s.record_simulate_ms(5);
        s.record_simulate_ms(7);
        s.record_depth(3);
        let body = s.render_prometheus(&Gauges {
            queue_depth: 2,
            queue_cap: 64,
            workers: 4,
            cache_entries: 9,
            breaker_open: 1,
            draining: true,
            ..Gauges::default()
        });
        assert!(
            body.contains("barre_serve_requests_received_total 1\n"),
            "{body}"
        );
        assert!(
            body.contains("barre_serve_requests_shed_total 1\n"),
            "{body}"
        );
        assert!(body.contains("barre_serve_queue_depth 2\n"), "{body}");
        assert!(body.contains("barre_serve_breaker_open 1\n"), "{body}");
        assert!(body.contains("barre_serve_draining 1\n"), "{body}");
        assert!(
            body.contains("barre_serve_request_latency_ms_count 1\n"),
            "{body}"
        );
        assert!(
            body.contains("barre_serve_request_latency_ms_bucket{le=\"+Inf\"} 1\n"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE barre_serve_request_latency_ms histogram"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE barre_serve_simulate_ms histogram"),
            "{body}"
        );
        assert!(body.contains("barre_serve_simulate_ms_count 2\n"), "{body}");
    }

    #[test]
    fn mean_service_defaults_then_tracks() {
        let s = ServeStats::new();
        assert_eq!(s.mean_service_ms(), 1000);
        s.record_latency_ms(10);
        s.record_latency_ms(30);
        assert_eq!(s.mean_service_ms(), 20);
    }
}
