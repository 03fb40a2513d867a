//! Daemon counters and `barre-trace` histograms behind `GET /stats`.
//!
//! Counters are relaxed atomics (monotonic, saturating); the
//! per-request latency, per-attempt simulate time and
//! admission-queue-depth distributions use the fixed-bucket
//! [`LatencyHistogram`], so `/stats` percentiles are deterministic
//! functions of the samples, byte-stable across hosts. A request's
//! latency minus its simulate time is its admission wait plus its
//! handling. Both times are kept in whole milliseconds, the series
//! clients have always read, and in microseconds: a cache hit or a
//! small cold cell takes well under a millisecond, and would otherwise
//! record 0.
//!
//! `GET /stats` (JSON) and `GET /metrics` (Prometheus text) expose the
//! same numbers. Each is declared once, in `ROWS`, with its JSON key,
//! Prometheus name and help text; both bodies render from that table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

/// Every counter the daemon exposes, plus the histograms.
#[derive(Default)]
pub struct ServeStats {
    /// Request lines received (any outcome).
    pub received: AtomicU64,
    /// Cold successes (simulation actually ran).
    pub ok_cold: AtomicU64,
    /// Requests answered from the verified result cache.
    pub cache_hits: AtomicU64,
    /// Cache hits served from a seed-free record, one that answers every
    /// seed of its simulation (a subset of `cache_hits`).
    pub seed_free_hits: AtomicU64,
    /// Requests rejected by validation (`400`).
    pub invalid: AtomicU64,
    /// Requests shed by the full admission queue (`429`).
    pub shed: AtomicU64,
    /// Requests that hit their wall-clock deadline (`504`).
    pub timeouts: AtomicU64,
    /// Permanent simulation failures (`422`).
    pub failed_permanent: AtomicU64,
    /// Transient simulation failures and panics (`500`).
    pub failed_transient: AtomicU64,
    /// Requests refused because their fingerprint is quarantined (`503`).
    pub quarantined: AtomicU64,
    /// Requests refused because a drain was in progress (`503`).
    pub rejected_draining: AtomicU64,
    /// Largest queue depth observed at admission.
    pub max_depth: AtomicU64,
    latency_ms: Mutex<LatencyHistogram>,
    simulate_ms: Mutex<LatencyHistogram>,
    depth_hist: Mutex<LatencyHistogram>,
    latency_us: Mutex<LatencyHistogram>,
    simulate_us: Mutex<LatencyHistogram>,
}

fn lock(h: &Mutex<LatencyHistogram>) -> MutexGuard<'_, LatencyHistogram> {
    h.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ServeStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request's wall-clock latency.
    pub fn record_latency(&self, took: Duration) {
        lock(&self.latency_ms).record(millis(took));
        lock(&self.latency_us).record(micros(took));
    }

    /// Records one simulation attempt's wall-clock time, from the
    /// machine's build to its result.
    pub fn record_simulate(&self, took: Duration) {
        lock(&self.simulate_ms).record(millis(took));
        lock(&self.simulate_us).record(micros(took));
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

    /// Renders the `/stats` JSON body (one line): the rows of `ROWS`
    /// laid out by `STATS_LAYOUT`, then the queue-depth percentiles and
    /// the latency summaries, in milliseconds and then microseconds.
    pub fn render(&self, g: &Gauges) -> String {
        let [lat, sim, dep, lat_us, sim_us] = self.histograms();
        let section = |name: &str| -> String {
            let keys = STATS_LAYOUT
                .iter()
                .find(|(s, _)| *s == name)
                .map(|(_, keys)| *keys)
                .unwrap_or_default();
            let fields: Vec<String> = keys
                .iter()
                .filter_map(|&key| ROWS.iter().find(|r| r.stats == (name, key)))
                .map(|r| {
                    let v = (r.read)(self, g);
                    match r.kind {
                        Kind::Flag => format!("\"{}\":{}", r.stats.1, v != 0),
                        Kind::Counter | Kind::Gauge => format!("\"{}\":{v}", r.stats.1),
                    }
                })
                .collect();
            fields.join(",")
        };
        let summary = |h: &LatencyHistogram| {
            format!(
                "{{\"count\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            )
        };
        format!(
            concat!(
                "{{{top},\"requests\":{{{requests}}},",
                "\"queue\":{{{queue},\"depth_p50\":{dp50},\"depth_p95\":{dp95},\"depth_p99\":{dp99}}},",
                "\"cache\":{{{cache}}},\"breaker\":{{{breaker}}},",
                "\"latency_ms\":{lat},\"simulate_ms\":{sim},",
                "\"latency_us\":{lat_us},\"simulate_us\":{sim_us}}}"
            ),
            top = section(""),
            requests = section("requests"),
            queue = section("queue"),
            dp50 = dep.p50(),
            dp95 = dep.p95(),
            dp99 = dep.p99(),
            cache = section("cache"),
            breaker = section("breaker"),
            lat = summary(&lat),
            sim = summary(&sim),
            lat_us = summary(&lat_us),
            sim_us = summary(&sim_us),
        )
    }

    /// Renders the `GET /metrics` Prometheus text exposition — the rows
    /// of `ROWS` in table order, then the histograms, one snapshot,
    /// names under the `barre_serve_` prefix.
    pub fn render_prometheus(&self, g: &Gauges) -> String {
        let [lat, sim, dep, lat_us, sim_us] = self.histograms();
        let mut p = barre_obs::PromText::new();
        for r in &ROWS {
            let v = (r.read)(self, g);
            match r.kind {
                Kind::Counter => p.counter(r.prom, r.help, v),
                Kind::Gauge => p.gauge(r.prom, r.help, v),
                Kind::Flag => p.gauge_bool(r.prom, r.help, v != 0),
            }
        }
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
        p.histogram(
            "barre_serve_request_latency_us",
            "Completed-request wall-clock latency in microseconds.",
            &lat_us,
        );
        p.histogram(
            "barre_serve_simulate_us",
            "Wall-clock time of each simulation attempt in microseconds.",
            &sim_us,
        );
        p.render()
    }

    /// One snapshot of the request-latency (ms), simulate-time (ms),
    /// queue-depth, request-latency (µs) and simulate-time (µs)
    /// histograms.
    fn histograms(&self) -> [LatencyHistogram; 5] {
        [
            &self.latency_ms,
            &self.simulate_ms,
            &self.depth_hist,
            &self.latency_us,
            &self.simulate_us,
        ]
        .map(|h| lock(h).clone())
    }
}

/// `took` in whole milliseconds, saturating.
fn millis(took: Duration) -> u64 {
    u64::try_from(took.as_millis()).unwrap_or(u64::MAX)
}

/// `took` in whole microseconds, saturating.
fn micros(took: Duration) -> u64 {
    u64::try_from(took.as_micros()).unwrap_or(u64::MAX)
}

/// How a row is exposed: a Prometheus counter, a gauge, or a 0/1 gauge
/// that `/stats` renders as a JSON boolean.
enum Kind {
    Counter,
    Gauge,
    Flag,
}

/// One number both bodies expose, declared once.
struct Row {
    /// `/stats` section (`""` for the top level) and key.
    stats: (&'static str, &'static str),
    kind: Kind,
    /// Prometheus name.
    prom: &'static str,
    /// Prometheus `# HELP` text.
    help: &'static str,
    read: fn(&ServeStats, &Gauges) -> u64,
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Every counter and gauge of `/stats` and `/metrics`, in `/metrics`
/// order.
const ROWS: [Row; 19] = [
    Row {
        stats: ("requests", "received"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_received_total",
        help: "Request lines received (any outcome).",
        read: |s, _| load(&s.received),
    },
    Row {
        stats: ("requests", "ok"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_ok_cold_total",
        help: "Cold successes (simulation actually ran).",
        read: |s, _| load(&s.ok_cold),
    },
    Row {
        stats: ("requests", "cache_hits"),
        kind: Kind::Counter,
        prom: "barre_serve_cache_hits_total",
        help: "Requests answered from the verified result cache.",
        read: |s, _| load(&s.cache_hits),
    },
    Row {
        stats: ("requests", "seed_free_hits"),
        kind: Kind::Counter,
        prom: "barre_serve_cache_seed_free_hits_total",
        help: "Cache hits served from a seed-free record (a subset of cache hits).",
        read: |s, _| load(&s.seed_free_hits),
    },
    Row {
        stats: ("requests", "invalid"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_invalid_total",
        help: "Requests rejected by validation (400).",
        read: |s, _| load(&s.invalid),
    },
    Row {
        stats: ("requests", "shed"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_shed_total",
        help: "Requests shed by the full admission queue (429).",
        read: |s, _| load(&s.shed),
    },
    Row {
        stats: ("requests", "timeouts"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_timeout_total",
        help: "Requests that hit their wall-clock deadline (504).",
        read: |s, _| load(&s.timeouts),
    },
    Row {
        stats: ("requests", "failed_permanent"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_failed_permanent_total",
        help: "Permanent simulation failures (422).",
        read: |s, _| load(&s.failed_permanent),
    },
    Row {
        stats: ("requests", "failed_transient"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_failed_transient_total",
        help: "Transient simulation failures and panics (500).",
        read: |s, _| load(&s.failed_transient),
    },
    Row {
        stats: ("requests", "quarantined"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_quarantined_total",
        help: "Requests refused by the circuit breaker (503).",
        read: |s, _| load(&s.quarantined),
    },
    Row {
        stats: ("requests", "rejected_draining"),
        kind: Kind::Counter,
        prom: "barre_serve_requests_rejected_draining_total",
        help: "Requests refused because a drain was in progress (503).",
        read: |s, _| load(&s.rejected_draining),
    },
    Row {
        stats: ("cache", "evictions"),
        kind: Kind::Counter,
        prom: "barre_serve_cache_evictions_total",
        help: "Cache evictions from digest verification failures.",
        read: |_, g| g.cache_evictions,
    },
    Row {
        stats: ("queue", "depth"),
        kind: Kind::Gauge,
        prom: "barre_serve_queue_depth",
        help: "Current admission-queue depth.",
        read: |_, g| g.queue_depth as u64,
    },
    Row {
        stats: ("queue", "cap"),
        kind: Kind::Gauge,
        prom: "barre_serve_queue_cap",
        help: "Admission-queue capacity.",
        read: |_, g| g.queue_cap as u64,
    },
    Row {
        stats: ("queue", "max_depth"),
        kind: Kind::Gauge,
        prom: "barre_serve_queue_max_depth",
        help: "Largest queue depth observed at admission.",
        read: |s, _| load(&s.max_depth),
    },
    Row {
        stats: ("queue", "workers"),
        kind: Kind::Gauge,
        prom: "barre_serve_workers",
        help: "Simulation worker-pool size.",
        read: |_, g| g.workers as u64,
    },
    Row {
        stats: ("cache", "entries"),
        kind: Kind::Gauge,
        prom: "barre_serve_cache_entries",
        help: "Entries in the verified result cache.",
        read: |_, g| g.cache_entries as u64,
    },
    Row {
        stats: ("breaker", "open"),
        kind: Kind::Gauge,
        prom: "barre_serve_breaker_open",
        help: "Quarantined fingerprints (open breaker circuits).",
        read: |_, g| g.breaker_open as u64,
    },
    Row {
        stats: ("", "draining"),
        kind: Kind::Flag,
        prom: "barre_serve_draining",
        help: "Whether a drain is in progress.",
        read: |_, g| u64::from(g.draining),
    },
];

/// Where `/stats` puts the rows: each section (`""` for the top level)
/// with its keys in order. The two documents order some rows
/// differently, so the JSON layout is listed apart from `ROWS`.
const STATS_LAYOUT: [(&str, &[&str]); 5] = [
    ("", &["draining"]),
    (
        "requests",
        &[
            "received",
            "ok",
            "cache_hits",
            "seed_free_hits",
            "invalid",
            "shed",
            "timeouts",
            "failed_permanent",
            "failed_transient",
            "quarantined",
            "rejected_draining",
        ],
    ),
    ("queue", &["depth", "cap", "workers", "max_depth"]),
    ("cache", &["entries", "evictions"]),
    ("breaker", &["open"]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_json_and_counts_flow() {
        let s = ServeStats::new();
        bump(&s.received);
        bump(&s.received);
        bump(&s.cache_hits);
        s.record_latency(Duration::from_millis(12));
        s.record_latency(Duration::from_millis(40));
        s.record_simulate(Duration::from_millis(9));
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
        s.record_latency(Duration::from_millis(12));
        s.record_simulate(Duration::from_millis(5));
        s.record_simulate(Duration::from_millis(7));
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

    /// A state in which every counter, gauge and histogram differs.
    fn busy() -> (ServeStats, Gauges) {
        let s = ServeStats::new();
        for (i, c) in [
            &s.received,
            &s.ok_cold,
            &s.cache_hits,
            &s.invalid,
            &s.shed,
            &s.timeouts,
            &s.failed_permanent,
            &s.failed_transient,
            &s.quarantined,
            &s.rejected_draining,
        ]
        .into_iter()
        .enumerate()
        {
            c.store(101 + i as u64, Ordering::Relaxed);
        }
        s.seed_free_hits.store(55, Ordering::Relaxed);
        s.record_depth(3);
        s.record_depth(7);
        // 12, 40 and 9 ms, as in the fixtures, to the microsecond.
        s.record_latency(Duration::from_micros(12_345));
        s.record_latency(Duration::from_micros(40_250));
        s.record_simulate(Duration::from_micros(9_500));
        let g = Gauges {
            queue_depth: 1,
            queue_cap: 64,
            workers: 2,
            cache_entries: 5,
            cache_evictions: 6,
            breaker_open: 1,
            draining: true,
        };
        (s, g)
    }

    /// Both bodies, rendered from the one table, equal what the two
    /// hand-written renderers produced for the same state before the
    /// table existed (the fixtures), apart from the rows added, changed
    /// and removed since.
    #[test]
    fn table_renders_the_pre_table_bodies() {
        let (s, g) = busy();
        // Since v1 the `seed_free_hits` row and the two microsecond
        // summaries were added, and the `retries` row (serve no longer
        // retries a simulation) removed.
        let stats = s.render(&g);
        let micro = concat!(
            ",\"latency_us\":{\"count\":2,\"mean\":26297.500,\"p50\":13311,",
            "\"p95\":40250,\"p99\":40250,\"max\":40250},",
            "\"simulate_us\":{\"count\":1,\"mean\":9500.000,\"p50\":9500,",
            "\"p95\":9500,\"p99\":9500,\"max\":9500}"
        );
        assert!(stats.contains(micro), "{stats}");
        assert_eq!(
            stats
                .replacen("\"seed_free_hits\":55,", "", 1)
                .replacen(micro, "", 1),
            include_str!("../tests/fixtures/stats-v1.json").replacen(",\"retries\":111", "", 1)
        );
        let metrics = s.render_prometheus(&g);
        let new_lines = [
            "# HELP barre_serve_cache_seed_free_hits_total Cache hits served from a seed-free record (a subset of cache hits).\n",
            "# TYPE barre_serve_cache_seed_free_hits_total counter\n",
            "barre_serve_cache_seed_free_hits_total 55\n",
            "# HELP barre_serve_request_latency_us Completed-request wall-clock latency in microseconds.\n\
             # TYPE barre_serve_request_latency_us histogram\n\
             barre_serve_request_latency_us_bucket{le=\"13311\"} 1\n\
             barre_serve_request_latency_us_bucket{le=\"40959\"} 2\n\
             barre_serve_request_latency_us_bucket{le=\"+Inf\"} 2\n\
             barre_serve_request_latency_us_sum 52595\n\
             barre_serve_request_latency_us_count 2\n\
             # HELP barre_serve_simulate_us Wall-clock time of each simulation attempt in microseconds.\n\
             # TYPE barre_serve_simulate_us histogram\n\
             barre_serve_simulate_us_bucket{le=\"10239\"} 1\n\
             barre_serve_simulate_us_bucket{le=\"+Inf\"} 1\n\
             barre_serve_simulate_us_sum 9500\n\
             barre_serve_simulate_us_count 1\n",
        ];
        let mut old = metrics.clone();
        for line in new_lines {
            assert!(old.contains(line), "{metrics}");
            old = old.replacen(line, "", 1);
        }
        // `failed_transient` counts transient failures and panics; there
        // are no retries to exhaust.
        let changed = (
            "# HELP barre_serve_requests_failed_transient_total Transient failures that exhausted their retries (500).\n",
            "# HELP barre_serve_requests_failed_transient_total Transient simulation failures and panics (500).\n",
        );
        let removed = "# HELP barre_serve_child_retries_total Simulation retry attempts beyond each request's first attempt.\n\
                       # TYPE barre_serve_child_retries_total counter\n\
                       barre_serve_child_retries_total 111\n";
        let v1 = include_str!("../tests/fixtures/metrics-v1.prom");
        assert!(v1.contains(removed) && v1.contains(changed.0));
        assert_eq!(
            old,
            v1.replacen(removed, "", 1)
                .replacen(changed.0, changed.1, 1)
        );
    }

    #[test]
    fn stats_layout_places_every_row_once() {
        let mut placed: Vec<(&str, &str)> = STATS_LAYOUT
            .iter()
            .flat_map(|(section, keys)| keys.iter().map(move |k| (*section, *k)))
            .collect();
        let mut rows: Vec<(&str, &str)> = ROWS.iter().map(|r| r.stats).collect();
        placed.sort_unstable();
        rows.sort_unstable();
        assert_eq!(placed, rows);
        let mut names: Vec<&str> = ROWS.iter().map(|r| r.prom).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ROWS.len());
    }

    #[test]
    fn mean_service_defaults_then_tracks() {
        let s = ServeStats::new();
        assert_eq!(s.mean_service_ms(), 1000);
        s.record_latency(Duration::from_millis(10));
        s.record_latency(Duration::from_millis(30));
        assert_eq!(s.mean_service_ms(), 20);
    }
}
