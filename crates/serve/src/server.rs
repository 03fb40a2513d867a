//! The `barre serve` service: admission, the worker pool, and the
//! graceful-drain sequence, run on the shared [`daemon`] skeleton.
//!
//! The skeleton owns the listener and one thread per connection; each
//! JSONL request line it hands over passes through cache → breaker →
//! admission queue to a fixed pool of worker threads. A worker builds
//! and runs the request's machine itself, under the per-request
//! deadline (a cancel check the machine makes every few thousand
//! events); a panicking simulation is caught and answered like a crashed
//! child. A simulation is a pure function of its [`Run`], so a failed
//! one is not retried: it would fail the same way again. The daemon
//! starts no process. See the crate docs for the full request path.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::breaker::CircuitBreaker;
use crate::cache::{Cached, ResultCache};
use crate::daemon::{self, Daemon, Peer, Service};
use crate::queue::{BoundedQueue, PushError};
use crate::request::{parse_request, render_ok, render_reject, render_shed, ValidRequest};
use crate::signal::shutting_down;
use crate::stats::{bump, Gauges, ServeStats};
use barre_obs::log as olog;
use barre_obs::Field;
use barre_system::{Run, RunMetrics, SimError};

/// How the daemon runs: bind address, worker pool size, queue bound,
/// cache location, default deadline, breaker threshold.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind host (default `127.0.0.1`).
    pub host: String,
    /// Bind port; `0` picks an ephemeral port (printed on stdout).
    pub port: u16,
    /// Worker threads; `None` resolves like the sweep pool
    /// (`BARRE_JOBS`, then all cores).
    pub workers: Option<usize>,
    /// Admission-queue capacity (requests beyond it are shed).
    pub queue_cap: usize,
    /// Directory holding the cache index journal.
    pub cache_dir: PathBuf,
    /// Default per-request wall-clock deadline (queue wait + simulation);
    /// requests may override with `timeout_ms`.
    pub timeout: Duration,
    /// Circuit-breaker threshold: consecutive terminal failures before a
    /// fingerprint is quarantined (0 disables).
    pub breaker_threshold: u32,
    /// Structured-log sink (`--log-file`); `None` keeps stderr.
    pub log_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 7341,
            workers: None,
            queue_cap: 64,
            cache_dir: PathBuf::from("serve-cache"),
            timeout: Duration::from_secs(60),
            breaker_threshold: 3,
            log_file: None,
        }
    }
}

/// One admitted request awaiting a worker.
struct Job {
    req: ValidRequest,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

/// Runs one request's simulation on the calling thread, giving up at
/// the deadline. Once the machine is built, and before it runs, it calls
/// `built` with whether the run is seed-free
/// ([`barre_system::Machine::seed_free`]).
type Simulate = fn(&Run, Instant, &mut dyn FnMut(bool)) -> Result<RunMetrics, SimError>;

/// Builds and runs a request's machine. The machine asks the clock
/// every [`barre_system::CANCEL_CHECK_PERIOD`] events and stops with
/// [`SimError::Cancelled`] once `deadline` has passed.
fn simulate(
    run: &Run,
    deadline: Instant,
    built: &mut dyn FnMut(bool),
) -> Result<RunMetrics, SimError> {
    let mut machine = run.build()?;
    built(machine.seed_free());
    machine.set_cancel_check(Box::new(move || Instant::now() >= deadline));
    machine.run()
}

/// The cache addresses whose simulation is running, so that a job whose
/// answer is already being computed waits for it instead of computing
/// it again.
///
/// A job claims its request's seed-free address before it simulates,
/// since a run's seed-freeness is known only once its machine is built.
/// A run that reads its seed then moves its claim to its exact address,
/// so the other seeds of that run go ahead at once. A job waits while its
/// exact address, or its seed-free one, is claimed, and looks in the
/// cache again each time a claim is released: a claim is released only
/// after its result was inserted.
#[derive(Default)]
struct Flights {
    state: Mutex<FlightState>,
    released: Condvar,
}

#[derive(Default)]
struct FlightState {
    claimed: BTreeSet<String>,
    /// Jobs waiting for a claim to be released.
    waiting: usize,
}

/// A claimed address, released when dropped.
struct Flight<'a> {
    flights: &'a Flights,
    addr: String,
}

impl Flights {
    fn state(&self) -> MutexGuard<'_, FlightState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims `req`'s seed-free address when neither of its addresses is
    /// claimed. Otherwise waits, up to `deadline`, until a claim is
    /// released, and returns `None`.
    fn claim(&self, req: &ValidRequest, deadline: Instant) -> Option<Flight<'_>> {
        let mut st = self.state();
        if !st.claimed.contains(&req.fingerprint)
            && st.claimed.insert(req.seed_free_fingerprint.clone())
        {
            return Some(Flight {
                flights: self,
                addr: req.seed_free_fingerprint.clone(),
            });
        }
        st.waiting += 1;
        let wait = deadline.saturating_duration_since(Instant::now());
        let (mut st, _) = self
            .released
            .wait_timeout(st, wait)
            .unwrap_or_else(PoisonError::into_inner);
        st.waiting -= 1;
        None
    }

    fn release(&self, addr: &str) {
        self.state().claimed.remove(addr);
        self.released.notify_all();
    }
}

impl Flight<'_> {
    /// Moves the claim to `addr`.
    fn move_to(&mut self, addr: &str) {
        self.flights.state().claimed.insert(addr.to_string());
        self.flights
            .release(&std::mem::replace(&mut self.addr, addr.to_string()));
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.flights.release(&self.addr);
    }
}

/// Everything the connection threads and workers share.
struct Shared {
    opts: ServeOptions,
    /// [`simulate`], except where a test injects a failing one.
    simulate: Simulate,
    cache: ResultCache,
    breaker: CircuitBreaker,
    stats: ServeStats,
    queue: BoundedQueue<Job>,
    flights: Flights,
    workers: usize,
}

impl Shared {
    /// Point-in-time state outside [`ServeStats`], sampled per render.
    fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.queue.depth(),
            queue_cap: self.queue.cap(),
            workers: self.workers,
            cache_entries: self.cache.len(),
            cache_evictions: self.cache.evictions(),
            breaker_open: self.breaker.open_count(),
            draining: shutting_down(),
        }
    }

    /// Deterministic-enough shed hint: queue residence estimate from the
    /// observed mean service time, capped at a minute.
    fn retry_after_ms(&self) -> u64 {
        let depth = self.queue.depth() as u64;
        let workers = self.workers.max(1) as u64;
        ((depth / workers) + 1)
            .saturating_mul(self.stats.mean_service_ms())
            .min(60_000)
    }

    /// The cached answer to `req`: under its exact address first (every
    /// record a seeded or older daemon wrote), then under its seed-free
    /// one. Counts the hit.
    fn cached(&self, req: &ValidRequest) -> Option<String> {
        let cached = match self.cache.get(&req.fingerprint) {
            Some(cached) => cached,
            None => {
                let cached = self.cache.get(&req.seed_free_fingerprint)?;
                bump(&self.stats.seed_free_hits);
                cached
            }
        };
        bump(&self.stats.cache_hits);
        Some(render_cached(&cached, req))
    }
}

/// `req`'s `ok` response from a cache record, under the request's own
/// fingerprint and label, so it is byte-identical to a cold answer
/// whichever address the record sits at.
fn render_cached(cached: &Cached, req: &ValidRequest) -> String {
    render_ok(
        req.id.as_deref(),
        &req.fingerprint,
        &req.label,
        &cached.digest,
        &cached.hist_digest,
        &cached.metrics,
    )
}

impl Service for Shared {
    /// Answers one request, recording its wall-clock latency (line
    /// received → response ready) and streaming its trace summary.
    fn handle_line(&self, line: &str, _peer: &Peer<'_>) -> Option<String> {
        let started = Instant::now();
        let resp = handle_request_line(self, line);
        let took = started.elapsed();
        self.stats.record_latency(took);
        log_request_summary(&resp, u64::try_from(took.as_millis()).unwrap_or(u64::MAX));
        Some(resp)
    }

    fn stats_body(&self) -> String {
        self.stats.render(&self.gauges())
    }

    fn metrics_body(&self) -> String {
        self.stats.render_prometheus(&self.gauges())
    }
}

/// Runs one admitted job to a terminal response: cache re-check, breaker
/// re-check, a claim on its cache address (waiting, and looking in the
/// cache again, while another job simulates what may be its answer),
/// then one simulation under the request deadline. Failures answer
/// exactly as a `barre run --metrics-json` child's exit would have: a
/// permanent [`SimError`] is a 422 (`exit:64`), a transient one a 500
/// (`exit:65`), and a panic a 500 (`exit:101`).
fn execute_job(sh: &Shared, job: &Job) -> String {
    let req = &job.req;
    let id = req.id.as_deref();
    let fp = &req.fingerprint;
    // Duplicate requests admitted before the first finished: serve the
    // cached result the moment it exists.
    if let Some(resp) = sh.cached(req) {
        return resp;
    }
    if sh.breaker.is_open(fp) {
        bump(&sh.stats.quarantined);
        return render_reject(
            id,
            "quarantined",
            503,
            "fingerprint quarantined by circuit breaker",
        );
    }
    let budget = req
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(sh.opts.timeout);
    let deadline = job.enqueued + budget;
    let mut flight = loop {
        if Instant::now() >= deadline {
            bump(&sh.stats.timeouts);
            sh.breaker.record_failure(fp);
            return render_reject(id, "timeout", 504, "deadline exceeded");
        }
        if let Some(flight) = sh.flights.claim(req, deadline) {
            break flight;
        }
    };
    // A flight may have landed since the look above, or while this job
    // waited for it.
    if let Some(resp) = sh.cached(req) {
        return resp;
    }
    let started = Instant::now();
    let mut seed_free = false;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        (sh.simulate)(&req.run, deadline, &mut |free| {
            seed_free = free;
            if !free {
                flight.move_to(fp);
            }
        })
    }));
    sh.stats.record_simulate(started.elapsed());
    let why = match outcome {
        Ok(Ok(metrics)) => {
            sh.breaker.record_success(fp);
            bump(&sh.stats.ok_cold);
            // One record per result: a seed-free run serves every seed
            // of its simulation from the seed-free address.
            let key = if seed_free {
                &req.seed_free_fingerprint
            } else {
                fp
            };
            let cached = sh.cache.insert(key, &req.label, metrics);
            return render_cached(&cached, req);
        }
        Ok(Err(SimError::Cancelled { .. })) => {
            bump(&sh.stats.timeouts);
            sh.breaker.record_failure(fp);
            return render_reject(id, "timeout", 504, "deadline exceeded");
        }
        Ok(Err(e)) => {
            let text = e.to_string();
            let detail = text.lines().next().unwrap_or_default();
            let why = format!("{detail} (exit:{})", e.exit_code());
            if e.is_permanent() {
                bump(&sh.stats.failed_permanent);
                sh.breaker.record_failure(fp);
                return render_reject(id, "failed", 422, &why);
            }
            why
        }
        // The default panic hook has printed the message on stderr;
        // answer as the panicking `barre run` child exited.
        Err(_) => "exit:101 (exit:101)".to_string(),
    };
    bump(&sh.stats.failed_transient);
    sh.breaker.record_failure(fp);
    render_reject(id, "failed", 500, &why)
}

fn worker_loop(sh: &Shared) {
    while let Some(job) = sh.queue.pop() {
        let resp = execute_job(sh, &job);
        // A vanished requester (dropped connection) is not an error.
        let _ = job.reply.send(resp);
    }
}

/// Handles one JSONL request line end-to-end, returning the response.
fn handle_request_line(sh: &Shared, line: &str) -> String {
    bump(&sh.stats.received);
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(why) => {
            bump(&sh.stats.invalid);
            return render_reject(None, "error", 400, &why);
        }
    };
    let id = req.id.clone();
    let id = id.as_deref();
    if sh.breaker.is_open(&req.fingerprint) {
        bump(&sh.stats.quarantined);
        return render_reject(
            id,
            "quarantined",
            503,
            "fingerprint quarantined by circuit breaker",
        );
    }
    if let Some(resp) = sh.cached(&req) {
        return resp;
    }
    if shutting_down() {
        bump(&sh.stats.rejected_draining);
        return render_reject(id, "draining", 503, "daemon is draining");
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        req,
        enqueued: Instant::now(),
        reply: tx,
    };
    match sh.queue.push(job) {
        Ok(depth) => sh.stats.record_depth(depth as u64),
        Err(PushError::Full(job)) => {
            bump(&sh.stats.shed);
            return render_shed(job.req.id.as_deref(), sh.retry_after_ms());
        }
        Err(PushError::Closed(job)) => {
            bump(&sh.stats.rejected_draining);
            return render_reject(job.req.id.as_deref(), "draining", 503, "daemon is draining");
        }
    }
    // The worker always sends exactly one response per admitted job; a
    // recv error means the worker pool died, which only happens when the
    // process is being torn down anyway.
    rx.recv()
        .unwrap_or_else(|_| render_reject(id, "error", 500, "worker pool unavailable"))
}

/// Streams one completed request's trace summary as a debug-level
/// structured log event — the fields a fleet dashboard tails: status,
/// fingerprint, and wall-clock latency. The response line is already
/// canonical JSON, so the fields are read back out of it rather than
/// threaded through every return path of [`handle_request_line`].
fn log_request_summary(resp: &str, ms: u64) {
    if !olog::enabled(olog::Level::Debug) {
        return;
    }
    let parsed = barre_system::Json::parse(resp);
    let field = |k: &str| {
        parsed
            .as_ref()
            .ok()
            .and_then(|v| v.get(k))
            .and_then(barre_system::Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let (status, fp) = (field("status"), field("fingerprint"));
    olog::debug(
        "serve",
        "request",
        &[
            ("fp", Field::S(&fp)),
            ("status", Field::S(&status)),
            ("ms", Field::U(ms)),
        ],
        &format!("request {status} in {ms}ms"),
    );
}

/// Runs the daemon until a drain signal, then drains and exits.
/// Returns the process exit code: 0 after a graceful drain, 1 on a
/// startup or flush failure.
pub fn run_serve(opts: &ServeOptions) -> i32 {
    if !daemon::init("serve", opts.log_file.as_deref()) {
        return 1;
    }
    let (cache, warm) = match ResultCache::open(&opts.cache_dir) {
        Ok(c) => c,
        Err(e) => {
            olog::error(
                "serve",
                "cache_open_failed",
                &[],
                &format!(
                    "error: cannot open cache at {}: {e}",
                    opts.cache_dir.display()
                ),
            );
            return 1;
        }
    };
    if warm.loaded > 0 || warm.skipped_lines > 0 || warm.evicted > 0 {
        olog::info(
            "serve",
            "cache_warm_loaded",
            &[
                ("loaded", Field::U(warm.loaded as u64)),
                ("skipped", Field::U(warm.skipped_lines as u64)),
                ("evicted", Field::U(warm.evicted as u64)),
            ],
            &format!(
                "cache: warm-loaded {} entr{} ({} line(s) skipped, {} evicted by digest)",
                warm.loaded,
                if warm.loaded == 1 { "y" } else { "ies" },
                warm.skipped_lines,
                warm.evicted
            ),
        );
    }
    let Some(daemon) = Daemon::bind("serve", &opts.host, opts.port) else {
        return 1;
    };
    let workers = barre_sim::pool::resolve_jobs(opts.workers);
    let sh = Arc::new(Shared {
        opts: opts.clone(),
        simulate,
        cache,
        breaker: CircuitBreaker::new(opts.breaker_threshold),
        stats: ServeStats::new(),
        queue: BoundedQueue::new(opts.queue_cap),
        flights: Flights::default(),
        workers,
    });
    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let sh = Arc::clone(&sh);
        worker_handles.push(std::thread::spawn(move || worker_loop(&sh)));
    }
    let conn_handles = daemon.serve(&sh);

    // Graceful drain: stop admitting (queue.close), let workers finish
    // what was admitted, let connection threads flush their responses,
    // then persist the compacted cache index.
    sh.queue.close();
    for h in worker_handles {
        let _ = h.join();
    }
    for h in conn_handles {
        let _ = h.join();
    }
    match sh.cache.flush_compacted() {
        Ok(n) => {
            olog::info(
                "serve",
                "drain_cache_flushed",
                &[("entries", Field::U(n as u64))],
                &format!(
                    "drain: cache index flushed ({n} entr{})",
                    if n == 1 { "y" } else { "ies" }
                ),
            );
            0
        }
        Err(e) => {
            olog::error(
                "serve",
                "cache_flush_failed",
                &[],
                &format!("error: cache flush failed: {e}"),
            );
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// A simulation that panics on seed 13, fails permanently on seed
    /// 15, and otherwise returns at once.
    fn scripted(
        run: &Run,
        _deadline: Instant,
        _built: &mut dyn FnMut(bool),
    ) -> Result<RunMetrics, SimError> {
        match run.seed {
            13 => panic!("injected simulation panic"),
            15 => Err(SimError::InvalidConfig("injected\nsecond line".into())),
            _ => Ok(RunMetrics::default()),
        }
    }

    /// A daemon's shared state over a fresh cache named `tag`, with
    /// `workers` worker threads running.
    fn daemon(
        tag: &str,
        simulate: Simulate,
        workers: usize,
    ) -> (Arc<Shared>, Vec<std::thread::JoinHandle<()>>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("barre-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cache, _) = ResultCache::open(&dir).expect("cache");
        let sh = Arc::new(Shared {
            opts: ServeOptions::default(),
            simulate,
            cache,
            breaker: CircuitBreaker::new(2),
            stats: ServeStats::new(),
            queue: BoundedQueue::new(4),
            flights: Flights::default(),
            workers,
        });
        let handles = (0..workers)
            .map(|_| {
                let sh = Arc::clone(&sh);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        (sh, handles, dir)
    }

    #[test]
    fn a_panicking_simulation_is_a_500_and_the_worker_survives() {
        let (sh, mut workers, dir) = daemon("panic", scripted, 1);
        let worker = workers.remove(0);
        let bad = r#"{"app":"gemv","smoke":true,"seed":13}"#;
        let fp = parse_request(bad).expect("valid").fingerprint;
        // Each request panics once, unretried, and fails as a child that
        // panicked did; the breaker counts one failure per request.
        let failed = r#"{"status":"failed","code":500,"error":"exit:101 (exit:101)"}"#;
        assert_eq!(handle_request_line(&sh, bad), failed);
        assert_eq!(sh.stats.ok_cold.load(Ordering::Relaxed), 0);
        assert!(!sh.breaker.is_open(&fp));
        assert_eq!(handle_request_line(&sh, bad), failed);
        assert!(sh.breaker.is_open(&fp));
        assert_eq!(sh.stats.failed_transient.load(Ordering::Relaxed), 2);
        let quarantined = handle_request_line(&sh, bad);
        assert!(quarantined.contains("\"code\":503"), "{quarantined}");
        // The one worker is still there to answer the next request.
        let ok = handle_request_line(&sh, r#"{"app":"gemv","smoke":true,"seed":14}"#);
        assert!(ok.starts_with("{\"status\":\"ok\""), "{ok}");
        // A permanent error is a 422 on its first attempt, worded as the
        // child's first `error:` line and its exit status.
        let permanent = handle_request_line(&sh, r#"{"app":"gemv","smoke":true,"seed":15}"#);
        assert_eq!(
            permanent,
            r#"{"status":"failed","code":422,"error":"invalid configuration: injected (exit:64)"}"#
        );
        assert_eq!(sh.stats.failed_permanent.load(Ordering::Relaxed), 1);
        sh.queue.close();
        assert!(worker.join().is_ok(), "the worker thread died");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Simulations [`gated`] has started.
    static GATED_RUNS: AtomicUsize = AtomicUsize::new(0);
    /// Whether a started [`gated`] simulation may finish.
    static GATE_OPEN: AtomicBool = AtomicBool::new(false);

    /// A seed-free simulation (gups reads its seed, every other app does
    /// not) that holds until the gate opens.
    fn gated(
        run: &Run,
        _deadline: Instant,
        built: &mut dyn FnMut(bool),
    ) -> Result<RunMetrics, SimError> {
        let seed_free = run
            .specs
            .iter()
            .all(|s| s.app != barre_workloads::AppId::Gups);
        built(seed_free);
        GATED_RUNS.fetch_add(1, Ordering::SeqCst);
        while !GATE_OPEN.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(RunMetrics {
            total_cycles: if seed_free { 1000 } else { run.seed },
            ..RunMetrics::default()
        })
    }

    /// Polls `done` for up to ten seconds.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let until = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < until, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends `a`, and `b` once `a`'s simulation has started; opens the
    /// gate once `b` either waits for a claim (`b_waits`) or has started
    /// its own simulation. Returns both responses.
    fn race(sh: &Arc<Shared>, a: &'static str, b: &'static str, b_waits: bool) -> (String, String) {
        GATE_OPEN.store(false, Ordering::SeqCst);
        let runs = GATED_RUNS.load(Ordering::SeqCst);
        let send = |line: &'static str| {
            let sh = Arc::clone(sh);
            std::thread::spawn(move || handle_request_line(&sh, line))
        };
        let ta = send(a);
        wait_for("a's simulation", || {
            GATED_RUNS.load(Ordering::SeqCst) == runs + 1
        });
        let tb = send(b);
        if b_waits {
            wait_for("b to wait", || sh.flights.state().waiting == 1);
        } else {
            wait_for("b's simulation", || {
                GATED_RUNS.load(Ordering::SeqCst) == runs + 2
            });
        }
        GATE_OPEN.store(true, Ordering::SeqCst);
        (ta.join().expect("a"), tb.join().expect("b"))
    }

    #[test]
    fn one_simulation_per_cache_address_in_flight() {
        let (sh, workers, dir) = daemon("flight", gated, 2);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // The same request twice: the second waits and answers from the
        // record the first inserted, byte for byte.
        let same = r#"{"app":"gemv","smoke":true,"seed":1}"#;
        let (a, b) = race(&sh, same, same, true);
        assert!(a.starts_with("{\"status\":\"ok\""), "{a}");
        assert_eq!(a, b);
        assert_eq!(GATED_RUNS.load(Ordering::SeqCst), 1);
        // Two seeds of a seed-free run share its one simulation; the
        // second answers as a seed-free hit, as it would had it come
        // after the first.
        let two = r#"{"app":"lu","smoke":true,"seed":2}"#;
        let (a, b) = race(&sh, r#"{"app":"lu","smoke":true,"seed":1}"#, two, true);
        assert_eq!(GATED_RUNS.load(Ordering::SeqCst), 2);
        assert!(a.starts_with("{\"status\":\"ok\""), "{a}");
        assert_eq!(b, handle_request_line(&sh, two));
        // Two cold runs; three hits (the two waiters and the repeat of
        // `two`), all from seed-free records, gemv's included.
        assert_eq!(
            (
                count(&sh.stats.ok_cold),
                count(&sh.stats.cache_hits),
                count(&sh.stats.seed_free_hits)
            ),
            (2, 3, 3)
        );
        // Two seeds of a run that reads its seed simulate side by side:
        // the first moves its claim to its exact address once built.
        let (a, b) = race(
            &sh,
            r#"{"app":"gups","smoke":true,"seed":1}"#,
            r#"{"app":"gups","smoke":true,"seed":2}"#,
            false,
        );
        assert_eq!(GATED_RUNS.load(Ordering::SeqCst), 4);
        assert_ne!(a, b);
        assert_eq!(count(&sh.stats.ok_cold), 4);
        assert!(sh.flights.state().claimed.is_empty());
        sh.queue.close();
        for w in workers {
            assert!(w.join().is_ok(), "a worker thread died");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
