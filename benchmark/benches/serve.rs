//! `serve-mix`: a fresh `barre serve` daemon under closed-loop load.
//!
//! Two persistent connections (one per host core) each send their next
//! request as soon as the previous answer arrives. The request stream is
//! a pure function of the seed, built from shuffled blocks of twenty:
//! nine repeats of eight fixed small configurations (cache hits after one
//! warm-up request each), nine small cells with never-seen seeds
//! (validation → child spawn → simulate → parse → cache insert), and two
//! invalid requests. The 45/45/10 shares are synthetic: no recorded
//! traffic of `barre serve` exists to take them from.
//!
//! A cache hit and a cold cell differ in latency by more than either
//! varies, so the median of single requests would sit at the border of
//! the two classes and jump between them from seed to seed. `op_ms.p50`
//! is instead the median over blocks of their mean request latency:
//! every block holds the mix's exact shares, so it moves with either
//! path in proportion to its share. Each class's own median and tail are
//! in the run's report lines.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use barre_sim::Rng;
use barre_system::{metrics_digest, run_spec, smoke_config, Json};
use barre_workloads::AppId;

use crate::layers;
use crate::metrics::Values;
use crate::procs::{self, http_get, max_rss_mb, prom_value, wait_ready, Daemon, Stdout};
use crate::sim::{run_args, with_mode};
use crate::spans::Spans;
use crate::stats::{median, tail};
use crate::{Outcome, RunOpts};

const APPS: [AppId; 4] = [AppId::Gemv, AppId::Jac2d, AppId::Lu, AppId::St2d];
const MODES: [&str; 2] = ["baseline", "fbarre"];
const INVALID: [&str; 5] = [
    r#"{"app":"nosuch","smoke":true}"#,
    r#"{"app":"gemv","smoke":true,"chiplets":0}"#,
    r#"{"app":"gemv","smoke":true,"bogus":1}"#,
    r#"{"smoke":true}"#,
    "not json at all",
];
/// Daemon starts timed for `setup_s`; the last one serves the window.
const STARTS: usize = 15;
/// Unique responses re-simulated in-process to check their digest.
const SAMPLES: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Repeat(usize),
    Unique,
    Invalid,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Repeat(_) => "repeat",
            Class::Unique => "unique",
            Class::Invalid => "invalid",
        }
    }
}

/// One request of the stream; `cfg` is what a valid one simulates.
#[derive(Debug, Clone)]
struct Req {
    index: u64,
    class: Class,
    line: String,
    cfg: Option<(AppId, &'static str, u64)>,
}

fn cell_line(app: AppId, mode: &str, seed: u64) -> String {
    format!(
        r#"{{"app":"{}","mode":"{mode}","smoke":true,"seed":{seed}}}"#,
        app.name()
    )
}

/// The eight repeated configurations of a run.
fn repeats(seed: u64) -> Vec<(AppId, &'static str, u64)> {
    let s = seed.wrapping_mul(0x9E37_79B9).wrapping_add(17) % 1_000_000;
    APPS.iter()
        .flat_map(|&a| MODES.map(|m| (a, m, s)))
        .collect()
}

/// Requests of each class in one block, before shuffling (`Repeat`'s
/// index is drawn per request).
const MIX: [(Class, usize); 3] = [
    (Class::Repeat(0), 9),
    (Class::Unique, 9),
    (Class::Invalid, 2),
];
/// Requests per block.
const BLOCK: u64 = 20;

/// The request stream: `next()` yields request `i` of the seed's stream.
struct Stream {
    rng: Rng,
    next: u64,
    block: Vec<Class>,
    unique_base: u64,
    repeats: Vec<(AppId, &'static str, u64)>,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: Rng::new(seed ^ 0x005E_4E11),
            next: 0,
            block: Vec::new(),
            unique_base: 1_000_000 + (seed % 1_000_000) * 1_000_000,
            repeats: repeats(seed),
        }
    }

    fn next(&mut self) -> Req {
        let index = self.next;
        self.next += 1;
        if self.block.is_empty() {
            self.block = MIX
                .iter()
                .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
                .collect();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.index(i + 1));
            }
        }
        match self.block.pop().unwrap_or(Class::Invalid) {
            Class::Repeat(_) => {
                let k = self.rng.index(self.repeats.len());
                let (a, m, s) = self.repeats[k];
                Req {
                    index,
                    class: Class::Repeat(k),
                    line: cell_line(a, m, s),
                    cfg: Some((a, m, s)),
                }
            }
            Class::Unique => {
                let a = APPS[self.rng.index(APPS.len())];
                let m = MODES[self.rng.index(MODES.len())];
                let s = self.unique_base + index;
                Req {
                    index,
                    class: Class::Unique,
                    line: cell_line(a, m, s),
                    cfg: Some((a, m, s)),
                }
            }
            Class::Invalid => {
                let line = INVALID[self.rng.index(INVALID.len())].to_string();
                Req {
                    index,
                    class: Class::Invalid,
                    line,
                    cfg: None,
                }
            }
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug)]
struct Done {
    req: Req,
    ms: f64,
    resp: Result<String, String>,
}

/// A persistent JSONL connection.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { w, r })
    }

    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.w
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.r.read_line(&mut resp) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Checks one answer; returns the simulated events of a cold cell.
fn check(d: &Done, warm: &[String]) -> Result<u64, String> {
    let resp = d.resp.as_ref().map_err(Clone::clone)?;
    let v = Json::parse(resp).map_err(|e| format!("unparsable response: {e}"))?;
    let status = v.get("status").and_then(Json::as_str).unwrap_or("");
    match d.req.class {
        Class::Invalid => {
            let code = v.get("code").and_then(Json::as_u64);
            if status == "error" && code == Some(400) {
                Ok(0)
            } else {
                Err(format!("invalid request answered {resp}"))
            }
        }
        Class::Repeat(k) if resp != &warm[k] => Err(format!(
            "repeat {} differs from its first answer",
            d.req.line
        )),
        _ if status != "ok" => Err(format!("{} answered {status}", d.req.line)),
        Class::Repeat(_) => Ok(0),
        Class::Unique => v
            .get("metrics")
            .and_then(|m| m.get("events_processed"))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{}: no events_processed", d.req.line)),
    }
}

fn digest_of(resp: &str) -> Option<String> {
    Json::parse(resp)
        .ok()?
        .get("digest")?
        .as_str()
        .map(str::to_string)
}

/// Runs `serve-mix`.
pub fn run(opts: &RunOpts, spans: &Spans) -> Result<Outcome, String> {
    let bin = procs::barre_binary(&opts.root)?;
    let log = opts.work.join("serve.log");
    let mut setups = Vec::with_capacity(STARTS);
    let mut daemon = None;
    for k in 0..STARTS {
        let cache = opts.work.join(format!("cache-{k}"));
        let args = [
            "serve",
            "--port",
            "0",
            "--cache-dir",
            cache.to_str().ok_or("bad path")?,
        ];
        let d = spans.span("serve", &format!("daemon start {k}"), 0, 0, |_| {
            let t0 = Instant::now();
            let d = Daemon::spawn(&bin, &args, &opts.work, &[], &log, Stdout::Handshake)?;
            wait_ready(&d.addr)?;
            setups.push(t0.elapsed().as_secs_f64());
            Ok::<_, String>(d)
        })?;
        if k + 1 < STARTS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no daemon")?;
    let addr = daemon.addr.clone();

    // Warm-up: one request per repeated configuration.
    let mut warm_conn = Conn::open(&addr)?;
    let warm: Vec<String> = repeats(opts.seed)
        .iter()
        .map(|&(a, m, s)| warm_conn.ask(&cell_line(a, m, s)))
        .collect::<Result<_, _>>()?;
    drop(warm_conn);

    let before = http_get(&addr, "/metrics")?.1;
    let stream = Mutex::new(Stream::new(opts.seed));
    let results = Mutex::new(Vec::new());
    let nconn = barre_sim::pool::default_jobs().max(1);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let quiet = Spans::new(false);
    spans.span("serve", "window", 0, 0, |window| {
        std::thread::scope(|scope| {
            for c in 0..nconn {
                let (stream, results, addr, quiet) = (&stream, &results, &addr, &quiet);
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    while Instant::now() < deadline {
                        let req = stream.lock().expect("request stream poisoned").next();
                        let rec = if req.index % 2 == 0 { spans } else { quiet };
                        let name = format!("request {}", req.class.name());
                        let t0 = Instant::now();
                        let resp = rec.span("serve", &name, c as u32 + 1, window, |_| {
                            match conn.as_mut() {
                                Ok(k) => k.ask(&req.line),
                                Err(e) => Err(e.clone()),
                            }
                        });
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        if resp.is_err() {
                            conn = Conn::open(addr);
                        }
                        results
                            .lock()
                            .expect("results poisoned")
                            .push(Done { req, ms, resp });
                    }
                });
            }
        });
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = http_get(&addr, "/metrics")?.1;
    daemon.stop();
    let peak_rss = max_rss_mb(true);

    let mut done = results.into_inner().expect("results poisoned");
    done.sort_by_key(|d| d.req.index);
    let (mut failed, mut errors, mut events) = (0u64, Vec::new(), 0u64);
    for d in &done {
        match check(d, &warm) {
            Ok(ev) => events += ev,
            Err(e) => {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(e);
                }
            }
        }
    }

    // Re-simulate evenly spaced cold answers in-process; their digests
    // must match what the daemon served.
    let uniques: Vec<&Done> = done
        .iter()
        .filter(|d| d.req.class == Class::Unique && d.resp.is_ok())
        .collect();
    let step = (uniques.len() / SAMPLES).max(1);
    let sampled: Vec<&Done> = uniques
        .iter()
        .step_by(step)
        .take(SAMPLES)
        .copied()
        .collect();
    let mut simulate_ms = Vec::new();
    for d in &sampled {
        let Some((app, mode, seed)) = d.req.cfg else {
            continue;
        };
        let t0 = Instant::now();
        let local = run_spec(app.spec(), &with_mode(&smoke_config(), mode), seed)
            .map(|m| metrics_digest(&m))
            .map_err(|e| e.to_string());
        simulate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let served = d.resp.as_deref().ok().and_then(digest_of);
        if local.as_ref().ok() != served.as_ref() {
            failed += 1;
            errors.push(format!(
                "{}: served digest {served:?} != in-process {local:?}",
                d.req.line
            ));
        }
    }

    let lat = |class: Option<&str>| -> Vec<f64> {
        done.iter()
            .filter(|d| class.is_none_or(|c| d.req.class.name() == c))
            .map(|d| d.ms)
            .collect()
    };
    let all = lat(None);
    // Mean latency of each complete block of the stream.
    let block_ms: Vec<f64> = done
        .chunk_by(|a, b| a.req.index / BLOCK == b.req.index / BLOCK)
        .filter(|b| b.len() as u64 == BLOCK)
        .map(|b| b.iter().map(|d| d.ms).sum::<f64>() / BLOCK as f64)
        .collect();
    let mut detail = vec![format!(
        "requests: {} in {:.3} s ({:.2} req/s) over {nconn} connections, {} complete blocks of {BLOCK}; \
         {} cold answers re-simulated",
        done.len(),
        elapsed,
        done.len() as f64 / elapsed,
        block_ms.len(),
        sampled.len()
    )];
    for name in ["repeat", "unique", "invalid"] {
        let xs = lat(Some(name));
        let mut line = format!("{name}: n={} p50_ms={:.3}", xs.len(), median(&xs));
        if let Some((p, v)) = tail(&xs).filter(|t| t.0 > 50.0) {
            line.push_str(&format!(" p{p}_ms={v:.3}"));
        }
        detail.push(line);
    }

    let mut e2e = Values::new();
    e2e.insert("op_ms.p50", median(&block_ms));
    e2e.insert("events_per_s", events as f64 / elapsed);
    e2e.insert("setup_s", median(&setups));
    e2e.insert("peak_rss_mb", peak_rss);

    let layers = if spans.enabled() {
        let mut v = Values::new();
        let delta =
            |k: &str| prom_value(&after, k).unwrap_or(0.0) - prom_value(&before, k).unwrap_or(0.0);
        let server = delta("barre_serve_request_latency_ms_sum")
            / delta("barre_serve_request_latency_ms_count").max(1.0);
        let client = all.iter().sum::<f64>() / all.len().max(1) as f64;
        v.insert("serve.server_ms_mean", server);
        v.insert("serve.wire_ms_mean", client - server);
        v.insert(
            "serve.cache_hit_ratio",
            delta("barre_serve_cache_hits_total")
                / delta("barre_serve_requests_received_total").max(1.0),
        );
        v.insert(
            "serve.queue_max_depth",
            prom_value(&after, "barre_serve_queue_max_depth").unwrap_or(0.0),
        );
        v.insert("serve.shed", delta("barre_serve_requests_shed_total"));
        v.insert(
            "serve.child_retries",
            delta("barre_serve_child_retries_total"),
        );

        // The daemon's child, spawned exactly as serve spawns it.
        let mut child_ms = Vec::new();
        for d in &sampled {
            let Some((app, mode, seed)) = d.req.cfg else {
                continue;
            };
            let args = run_args(app, mode, seed);
            let (code, out, took) = spans.span("cli", "barre run child", 0, 0, |_| {
                procs::run_to_end(&bin, &args, &opts.work, &log)
            })?;
            child_ms.push(took.as_secs_f64() * 1e3);
            let local = barre_system::metrics_from_json(out.trim()).map(|m| metrics_digest(&m));
            if code != 0 || local.ok() != d.resp.as_deref().ok().and_then(digest_of) {
                failed += 1;
                errors.push(format!(
                    "{}: child output differs from the served answer",
                    d.req.line
                ));
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        v.insert("cli.run_child_ms", mean(&child_ms));
        v.insert("system.simulate_ms", mean(&simulate_ms));
        v.insert(
            "serve.spawn_overhead_ms",
            mean(&child_ms) - mean(&simulate_ms),
        );

        if let Err(e) = layers::in_process(&APPS, repeats(opts.seed)[0].2, spans, &mut v) {
            failed += 1;
            errors.push(e);
        }
        layers::absent(&mut v, &[layers::POOL, layers::JOBQ]);
        // Only even-numbered requests record spans; compare cache hits,
        // the class with the least spread of its own.
        let hits = |parity: u64| -> Vec<f64> {
            done.iter()
                .filter(|d| matches!(d.req.class, Class::Repeat(_)) && d.req.index % 2 == parity)
                .map(|d| d.ms)
                .collect()
        };
        v.insert(
            "trace.overhead_frac",
            median(&hits(0)) / median(&hits(1)) - 1.0,
        );
        Some(v)
    } else {
        None
    };
    Ok(Outcome {
        attempted: done.len() as u64 + sampled.len() as u64,
        failed,
        errors,
        e2e,
        layers,
        detail,
    })
}
