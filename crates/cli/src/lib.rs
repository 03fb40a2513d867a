//! Argument parsing and command dispatch for the `barre` CLI.
//!
//! The binary front end for the Barre Chord model: list the workloads,
//! run one experiment, or sweep every application under a translation
//! mode — without writing any Rust. Kept dependency-free so the
//! workspace stays within its offline crate budget.
//!
//! ```text
//! barre list
//! barre table2 [--paper]
//! barre run   --app gups --mode fbarre [--seed 7] [--ptws 8] [--paper]
//! barre profile --app gups --mode fbarre --smoke
//! barre sweep --mode barre [--apps gups,spmv] [--policy coda]
//! barre pair  --a gemv --b gups --mode fbarre
//! barre chaos --app gups --mode barre [--rates 0.001,0.01,0.05]
//! barre bench [--json] [--quick] [--jobs 8] [--out BENCH_sweep.json]
//! barre repro [fig15 fig16 ...] --out RESULTS.json
//! barre merge --out merged shard-a/ shard-b/ [BENCH_a.json ...]
//! ```
//!
//! Each command's flags are declared once, in `COMMANDS`, from shared
//! lists: `CONFIG_FLAGS` (the machine), `RUNNER_FLAGS` (how `sweep` and
//! `chaos` run their jobs) and `DAEMON_FLAGS` (the `serve` and `queue`
//! listeners). One scanner walks the arguments against that table and
//! rejects any flag the command would ignore. The `--paper`/`--smoke`
//! preset applies first and every override after it, in any order.
//!
//! Sweep-shaped commands (`sweep`, `chaos`, `bench`) fan their
//! independent runs across the `barre_sim::pool` worker pool; `--jobs 1`
//! (or `BARRE_JOBS=1`) forces the serial path and produces identical
//! output.
//!
//! With `--supervise` (or any of `--journal`, `--resume`, `--timeout`,
//! `--retries`), `sweep` and `chaos` instead run every job in a
//! crash-isolated child process — see [`supervisor`] — journaling each
//! transition so an interrupted campaign resumes with byte-identical
//! output.

use barre_obs::log as olog;
use barre_obs::Field;
use barre_system::{
    chaos_jobs, run_batch, speedup, summary_line, sweep_jobs, LabeledJob, Run, RunMetrics,
    SimError, SystemConfig, TranslationMode,
};
use barre_workloads::AppId;

// Request-vocabulary helpers live with the daemon's validator so the CLI
// and `barre serve` resolve names identically; re-exported here for the
// existing callers.
pub use barre_serve::request::{app_by_name, mode_by_name, page_size_by_name, policy_by_name};
use barre_serve::request::{build_config, DEFAULT_SEED};

pub mod lint_cmd;
pub mod profile_cmd;
pub mod supervisor;
pub mod trace_cmd;

/// A parsed CLI invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// `barre list` — print the workload table.
    List,
    /// `barre table2` — print the active configuration.
    Table2 { cfg: Box<SystemConfig> },
    /// `barre run` — run one app under one mode, print a summary line.
    Run {
        run: Box<Run>,
        baseline: bool,
        /// Print only the canonical metrics JSON line (what a `barre
        /// serve` response carries); failures exit with
        /// [`SimError::exit_code`].
        metrics_json: bool,
    },
    /// `barre profile` — run one app with a wall-clock probe on every
    /// event; print the cost per event class, then the metrics JSON.
    Profile { run: Box<Run> },
    /// `barre sweep` — run a set of apps, print speedups vs baseline.
    Sweep {
        apps: Vec<AppId>,
        cfg: Box<SystemConfig>,
        seed: u64,
        jobs: Option<usize>,
        /// Crash-isolated supervision (`--supervise` and friends).
        sup: Option<supervisor::SuperviseOpts>,
        /// Remote dispatch through a `barre queue` coordinator
        /// (`--dispatch host:port`).
        dispatch: Option<DispatchOpts>,
        /// Hidden child mode: run exactly this job of the sweep's job
        /// list and print its metrics as canonical JSON.
        job_index: Option<usize>,
    },
    /// `barre pair` — co-run two apps (§VII-I).
    Pair { run: Box<Run> },
    /// `barre chaos` — sweep ATS fault-injection rates for one app.
    Chaos {
        app: AppId,
        cfg: Box<SystemConfig>,
        seed: u64,
        rates: Vec<f64>,
        jobs: Option<usize>,
        /// Crash-isolated supervision (`--supervise` and friends).
        sup: Option<supervisor::SuperviseOpts>,
        /// Remote dispatch through a `barre queue` coordinator
        /// (`--dispatch host:port`).
        dispatch: Option<DispatchOpts>,
        /// Hidden child mode (see [`Command::Sweep::job_index`]).
        job_index: Option<usize>,
    },
    /// `barre merge` — fold per-shard journals and `BENCH_sweep.json`
    /// fragments into one trajectory, detecting digest conflicts.
    Merge {
        out: std::path::PathBuf,
        inputs: Vec<std::path::PathBuf>,
    },
    /// `barre bench` — timed smoke sweep with serial/parallel cross-check.
    Bench {
        quick: bool,
        json: bool,
        jobs: Option<usize>,
        out: std::path::PathBuf,
        /// `--gate <ratio>`: exit nonzero when any mode is more than
        /// `ratio` times slower than the same app's baseline.
        gate: Option<f64>,
    },
    /// `barre repro` — run registry figures (each distinct cell once),
    /// print their tables and write them as `RESULTS.json`.
    Repro {
        /// Registry names; empty runs every figure.
        figures: Vec<String>,
        out: std::path::PathBuf,
    },
    /// `barre lint` — run the determinism & panic-safety analyzer.
    Lint { opts: lint_cmd::LintOpts },
    /// `barre trace` — run one app with the lifecycle tracer and export
    /// the trace (Chrome-trace JSON, or JSONL when `--out` ends in
    /// `.jsonl`).
    Trace {
        run: Box<Run>,
        out: std::path::PathBuf,
        opts: barre_trace::TraceOptions,
    },
    /// `barre report` — print per-stage latency percentiles and the
    /// slowest journeys of a trace export (or summarize a journal).
    Report {
        input: std::path::PathBuf,
        top: usize,
    },
    /// `barre report --fleet` — stitch per-process fleet-trace files
    /// (`BARRE_FLEET_TRACE`) from a distributed sweep into one
    /// Perfetto/Chrome-trace timeline keyed by correlation id.
    FleetReport {
        dirs: Vec<std::path::PathBuf>,
        out: Option<std::path::PathBuf>,
    },
    /// `barre report --bench-diff` — compare two `BENCH_sweep.json`
    /// documents cell by cell and flag throughput regressions.
    BenchDiff {
        old: std::path::PathBuf,
        new: std::path::PathBuf,
        threshold: f64,
    },
    /// `barre serve` — long-running simulation daemon (JSONL over TCP
    /// plus an HTTP health shim); see [`barre_serve`].
    Serve {
        opts: Box<barre_serve::ServeOptions>,
    },
    /// `barre queue` — lease-based shared job-queue coordinator for
    /// multi-node sweeps; see [`barre_serve::jobq`].
    Queue {
        opts: Box<barre_serve::jobq::QueueOptions>,
    },
    /// `barre worker` — pull jobs from a queue coordinator under
    /// time-bounded leases and execute them in crash-isolated children.
    Worker {
        opts: Box<barre_serve::jobq::WorkerOptions>,
    },
    /// `barre help`.
    Help,
}

/// How a dispatched sweep reaches its coordinator: address, client-side
/// journal location, and the child argument list job fingerprints (and
/// worker re-execution) are derived from — the same derivation the
/// supervisor uses, so serial and dispatched runs of one command line
/// agree on every fingerprint.
#[derive(Debug, Clone)]
pub struct DispatchOpts {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Where to write the terminal records, in job order (same default
    /// as the supervisor's journal).
    pub journal: std::path::PathBuf,
    /// Base argument list for remote children (the command line without
    /// its runner flags); workers append `--job-index <i>`.
    pub child_args: Vec<String>,
}

/// Errors produced while parsing arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Default `--gate` ratio: no mode may run more than this many times
/// slower than the same app's baseline (the ISSUE-8 perf contract).
pub const DEFAULT_BENCH_GATE: f64 = 5.0;

/// Default `--bench-diff` regression threshold. Wall-clock comparisons
/// across CI runs are noisy, so the default is deliberately generous;
/// tighten with `--threshold` on quiet machines.
pub const DEFAULT_BENCH_DIFF_THRESHOLD: f64 = 1.5;

/// A flag list, one flag per word: `--flag` is a switch, `--flag=`
/// takes the next argument as its value whatever it looks like, and
/// `--flag=?` takes it only when it is not itself a flag.
type Flags = &'static str;

/// The simulated machine: a `--paper`/`--smoke` preset, then overrides.
const CONFIG_FLAGS: Flags =
    "--paper --smoke --mode= --policy= --page-size= --ptws= --chiplets= --frames= --gmmu --migration";

/// How `sweep` and `chaos` run their jobs. None of these changes a job's
/// simulation, so a child's argument list, and with it every job
/// fingerprint, is the command line without them: the same across
/// worker counts, resumes, and local or dispatched runs.
const RUNNER_FLAGS: Flags =
    "--supervise --journal= --resume= --timeout= --retries= --job-index= --jobs= --dispatch=";

/// Bind address and log destination of the `serve` and `queue` daemons.
const DAEMON_FLAGS: Flags = "--host= --port= --log-file=";

/// Every command's vocabulary: its name, how many operands it takes,
/// and the flag lists it accepts. Any other flag is a usage error.
const COMMANDS: &[(&str, usize, &[Flags])] = &[
    ("help", 0, &[]),
    ("list", 0, &[]),
    ("table2", 0, &[CONFIG_FLAGS]),
    ("run", 0, &[CONFIG_FLAGS, "--app= --seed= --baseline --metrics-json"]),
    ("profile", 0, &[CONFIG_FLAGS, "--app= --seed="]),
    ("sweep", 0, &[CONFIG_FLAGS, RUNNER_FLAGS, "--apps= --seed="]),
    ("pair", 0, &[CONFIG_FLAGS, "--a= --b= --seed="]),
    ("chaos", 0, &[CONFIG_FLAGS, RUNNER_FLAGS, "--app= --seed= --rates="]),
    ("bench", 0, &["--json --quick --jobs= --out= --gate=?"]),
    ("merge", usize::MAX, &["--out="]),
    ("repro", usize::MAX, &["--out="]),
    ("lint", 0, &["--root= --json --sarif --baseline= --no-baseline --write-baseline --changed-since= --max-waivers= --fix --parallel-readiness"]),
    ("trace", 1, &[CONFIG_FLAGS, "--app= --seed= --out= --window= --filter="]),
    ("report", usize::MAX, &["--top= --bench-diff --threshold= --fleet --out="]),
    ("serve", 0, &[DAEMON_FLAGS, "--workers= --queue-cap= --cache-dir= --timeout= --breaker="]),
    ("queue", 0, &[DAEMON_FLAGS, "--journal= --lease= --max-leases="]),
    ("worker", 0, &["--connect= --name= --jobs= --timeout= --log-file="]),
];

/// The spelling of `flag` in `lists` (`--flag`, `--flag=` or `--flag=?`).
fn flag_spec(lists: &[Flags], flag: &str) -> Option<&'static str> {
    lists
        .iter()
        .flat_map(|list| list.split(' '))
        .find(|spec| spec.trim_end_matches(['=', '?']) == flag)
}

/// A command line scanned against its command's vocabulary.
struct Args<'a> {
    cmd: &'a str,
    /// Every flag given, in order, with its value (`None` for a switch).
    flags: Vec<(&'a str, Option<&'a str>)>,
    operands: Vec<&'a str>,
    /// The command line without its [`RUNNER_FLAGS`]: what a
    /// crash-isolated or dispatched child re-executes (plus
    /// `--job-index <i>`), and what job fingerprints hash.
    child: Vec<String>,
}

/// Walks the argument list once, rejecting any flag the command does not
/// list and any operand beyond the ones it takes.
fn scan(args: &[String]) -> Result<Args<'_>, ParseError> {
    let cmd = match args[0].as_str() {
        "--help" | "-h" => "help",
        cmd => cmd,
    };
    let &(_, max_operands, lists) = COMMANDS
        .iter()
        .find(|(name, ..)| *name == cmd)
        .ok_or_else(|| err(format!("unknown command {cmd}")))?;
    let mut a = Args {
        cmd,
        flags: Vec::new(),
        operands: Vec::new(),
        child: vec![cmd.to_string()],
    };
    let mut rest = args[1..].iter().map(String::as_str).peekable();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            if a.operands.len() == max_operands {
                return Err(err(format!("unexpected operand {arg}")));
            }
            a.operands.push(arg);
            a.child.push(arg.to_string());
            continue;
        }
        let spec =
            flag_spec(lists, arg).ok_or_else(|| err(format!("unknown flag {arg} for {cmd}")))?;
        let value = match &spec[arg.len()..] {
            "" => None,
            "=" => Some(
                rest.next()
                    .ok_or_else(|| err(format!("flag {arg} needs a value")))?,
            ),
            _ => rest.next_if(|v| !v.starts_with("--")),
        };
        if flag_spec(&[RUNNER_FLAGS], arg).is_none() {
            a.child.push(arg.to_string());
            a.child.extend(value.map(str::to_string));
        }
        a.flags.push((arg, value));
    }
    Ok(a)
}

impl Args<'_> {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The last value given for `flag`.
    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, v)| *v)
    }

    fn string(&self, flag: &str) -> Option<String> {
        self.get(flag).map(str::to_string)
    }

    fn path(&self, flag: &str) -> Option<std::path::PathBuf> {
        self.get(flag).map(std::path::PathBuf::from)
    }

    /// The value parsed as `T`; `what` names it in the error.
    fn parse<T: std::str::FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, ParseError> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| err(format!("bad {what} {v}"))))
            .transpose()
    }

    /// A count that must be at least 1.
    fn count(&self, flag: &str, what: &str) -> Result<Option<usize>, ParseError> {
        match self.parse(flag, what)? {
            Some(0) => Err(err(format!("{flag} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// A finite number above zero; `unit` ends the error message.
    fn positive(&self, flag: &str, what: &str, unit: &str) -> Result<Option<f64>, ParseError> {
        match self.parse::<f64>(flag, what)? {
            Some(r) if !r.is_finite() || r <= 0.0 => Err(err(format!(
                "{what} {} must be positive{unit}",
                self.get(flag).unwrap_or_default()
            ))),
            r => Ok(r),
        }
    }

    fn ratio(&self, flag: &str, what: &str) -> Result<Option<f64>, ParseError> {
        self.positive(flag, what, "")
    }

    fn seconds(&self, flag: &str, what: &str) -> Result<Option<std::time::Duration>, ParseError> {
        Ok(self
            .positive(flag, what, " seconds")?
            .map(std::time::Duration::from_secs_f64))
    }

    /// The app named by `flag`, which the command requires.
    fn app(&self, flag: &str) -> Result<AppId, ParseError> {
        let cmd = self.cmd;
        let name = self
            .get(flag)
            .ok_or_else(|| err(format!("{cmd} needs {flag} <name>")))?;
        app_named(name)
    }

    /// The machine: the `--paper`/`--smoke` preset first, then every
    /// override on top of it, whatever order they were given in.
    fn config(&self) -> Result<Box<SystemConfig>, ParseError> {
        build_config(&self.flags).map(Box::new).map_err(err)
    }

    /// The simulation of `apps`, co-running on [`Args::config`]'s
    /// machine at `seed`.
    fn run(&self, apps: &[AppId], seed: u64) -> Result<Box<Run>, ParseError> {
        Ok(Box::new(Run {
            specs: apps.iter().map(|a| a.spec()).collect(),
            cfg: *self.config()?,
            seed,
        }))
    }

    /// Local supervision or remote dispatch for `sweep` and `chaos`, at
    /// most one of them. `--dispatch` hands the jobs to a `barre queue`
    /// coordinator whose workers own supervision, so there
    /// `--journal`/`--resume` name the client-side journal and the other
    /// supervisor flags are rejected. Otherwise any supervisor flag opts
    /// into crash-isolated children; `--resume` doubles as the journal.
    fn runner(
        &self,
    ) -> Result<(Option<supervisor::SuperviseOpts>, Option<DispatchOpts>), ParseError> {
        let (journal, resume) = (self.path("--journal"), self.path("--resume"));
        let timeout = self.seconds("--timeout", "timeout")?;
        let retries: Option<u32> = self.parse("--retries", "retry count")?;
        let journal_file = resume
            .clone()
            .or(journal.clone())
            .unwrap_or_else(|| std::path::PathBuf::from("sweep-journal"));
        if let Some(addr) = self.string("--dispatch") {
            if self.has("--supervise") {
                return Err(err("--supervise and --dispatch are mutually exclusive"));
            }
            if timeout.is_some() || retries.is_some() {
                return Err(err(
                    "--timeout/--retries are supervisor and worker flags; with --dispatch the workers own them",
                ));
            }
            let dispatch = DispatchOpts {
                addr,
                journal: journal_file,
                child_args: self.child.clone(),
            };
            return Ok((None, Some(dispatch)));
        }
        let supervised = self.has("--supervise")
            || journal.is_some()
            || resume.is_some()
            || timeout.is_some()
            || retries.is_some();
        if !supervised {
            return Ok((None, None));
        }
        if journal.is_some() && resume.is_some() && journal != resume {
            return Err(err("--journal and --resume disagree; pass just one"));
        }
        let sup = supervisor::SuperviseOpts {
            journal: journal_file,
            resume: resume.is_some(),
            timeout,
            retries: retries.unwrap_or(2),
            child_args: self.child.clone(),
        };
        Ok((Some(sup), None))
    }
}

/// Parses the full argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first unknown command, flag or
/// value, or a flag the command does not take.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    if args.is_empty() {
        return Ok(Command::Help);
    }
    let a = scan(args)?;
    let seed = a.parse("--seed", "seed")?.unwrap_or(DEFAULT_SEED);
    let out = a.path("--out");
    Ok(match a.cmd {
        "list" => Command::List,
        "table2" => Command::Table2 { cfg: a.config()? },
        "run" => Command::Run {
            run: a.run(&[a.app("--app")?], seed)?,
            baseline: a.has("--baseline"),
            metrics_json: a.has("--metrics-json"),
        },
        "profile" => Command::Profile {
            run: a.run(&[a.app("--app")?], seed)?,
        },
        "sweep" => {
            let (sup, dispatch) = a.runner()?;
            let apps = match a.get("--apps") {
                None | Some("all") => AppId::all().to_vec(),
                Some(list) => list.split(',').map(app_named).collect::<Result<_, _>>()?,
            };
            Command::Sweep {
                apps,
                cfg: a.config()?,
                seed,
                jobs: a.count("--jobs", "job count")?,
                sup,
                dispatch,
                job_index: a.parse("--job-index", "job index")?,
            }
        }
        "pair" => Command::Pair {
            run: a.run(&[a.app("--a")?, a.app("--b")?], seed)?,
        },
        "chaos" => {
            let (sup, dispatch) = a.runner()?;
            let mut rates = vec![0.0, 0.001, 0.01, 0.05];
            if let Some(list) = a.get("--rates") {
                rates.clear();
                for part in list.split(',') {
                    let rate: f64 = part
                        .parse()
                        .map_err(|_| err(format!("bad fault rate {part}")))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(err(format!("fault rate {part} outside [0, 1]")));
                    }
                    rates.push(rate);
                }
            }
            Command::Chaos {
                app: a.app("--app")?,
                cfg: a.config()?,
                seed,
                rates,
                jobs: a.count("--jobs", "job count")?,
                sup,
                dispatch,
                job_index: a.parse("--job-index", "job index")?,
            }
        }
        "bench" => Command::Bench {
            quick: a.has("--quick"),
            json: a.has("--json"),
            jobs: a.count("--jobs", "job count")?,
            out: out.unwrap_or_else(|| std::path::PathBuf::from("BENCH_sweep.json")),
            // `--gate` alone means the default ratio.
            gate: match a.ratio("--gate", "gate ratio")? {
                None => a.has("--gate").then_some(DEFAULT_BENCH_GATE),
                r => r,
            },
        },
        "repro" => {
            let figures: Vec<String> = a.operands.iter().map(|f| f.to_string()).collect();
            barre_bench::figures::select(&figures).map_err(err)?;
            Command::Repro {
                figures,
                out: out.ok_or_else(|| err("repro needs --out <path>"))?,
            }
        }
        "merge" if a.operands.is_empty() => {
            return Err(err(
                "merge needs at least one journal or bench-report input",
            ))
        }
        "merge" => Command::Merge {
            out: out.unwrap_or_else(|| std::path::PathBuf::from("merged")),
            inputs: a.operands.iter().map(std::path::PathBuf::from).collect(),
        },
        "lint" => {
            let defaults = lint_cmd::LintOpts::default();
            let opts = lint_cmd::LintOpts {
                root: a.path("--root").unwrap_or(defaults.root),
                json: a.has("--json"),
                sarif: a.has("--sarif"),
                baseline: a.path("--baseline"),
                no_baseline: a.has("--no-baseline"),
                write_baseline: a.has("--write-baseline"),
                fix: a.has("--fix"),
                max_waivers: a
                    .parse("--max-waivers", "waiver budget")?
                    .unwrap_or(defaults.max_waivers),
                changed_since: a.string("--changed-since"),
                readiness: a.has("--parallel-readiness"),
            };
            if opts.json && opts.sarif {
                return Err(err("--json and --sarif are mutually exclusive"));
            }
            if opts.no_baseline && opts.baseline.is_some() {
                return Err(err("--no-baseline conflicts with --baseline <file>"));
            }
            Command::Lint { opts }
        }
        "trace" => {
            let defaults = barre_trace::TraceOptions::default();
            let filter = match a.get("--filter") {
                // Both `--filter ptw,fill` and the documented
                // `--filter stage=ptw,fill` form.
                Some(v) => barre_trace::StageMask::parse(v.strip_prefix("stage=").unwrap_or(v))
                    .ok_or_else(|| err(format!("unknown stage in filter {v}")))?,
                None => defaults.filter,
            };
            let app = match (a.operands.first().copied(), a.get("--app")) {
                (Some(_), Some(_)) => {
                    return Err(err(
                        "trace takes its app positionally or with --app, not both",
                    ))
                }
                (Some(name), None) | (None, Some(name)) => app_named(name)?,
                (None, None) => return Err(err("trace needs an app (positional or --app <name>)")),
            };
            Command::Trace {
                run: a.run(&[app], seed)?,
                out: out.unwrap_or_else(|| std::path::PathBuf::from("trace.json")),
                opts: barre_trace::TraceOptions {
                    window: a.count("--window", "window")?.unwrap_or(defaults.window),
                    filter,
                },
            }
        }
        "report" => return report_command(&a),
        "serve" => {
            let mut o = barre_serve::ServeOptions::default();
            o.host = a.string("--host").unwrap_or(o.host);
            o.port = a.parse("--port", "port")?.unwrap_or(o.port);
            o.log_file = a.path("--log-file").or(o.log_file);
            o.workers = a.count("--workers", "worker count")?.or(o.workers);
            o.queue_cap = a
                .count("--queue-cap", "queue capacity")?
                .unwrap_or(o.queue_cap);
            o.cache_dir = a.path("--cache-dir").unwrap_or(o.cache_dir);
            o.timeout = a.seconds("--timeout", "timeout")?.unwrap_or(o.timeout);
            o.breaker_threshold = a
                .parse("--breaker", "breaker threshold")?
                .unwrap_or(o.breaker_threshold);
            Command::Serve { opts: Box::new(o) }
        }
        "queue" => {
            let mut o = barre_serve::jobq::QueueOptions::default();
            o.host = a.string("--host").unwrap_or(o.host);
            o.port = a.parse("--port", "port")?.unwrap_or(o.port);
            o.log_file = a.path("--log-file").or(o.log_file);
            o.journal = a.path("--journal").unwrap_or(o.journal);
            o.lease = a.seconds("--lease", "lease")?.unwrap_or(o.lease);
            o.max_leases = a
                .parse("--max-leases", "lease budget")?
                .unwrap_or(o.max_leases);
            Command::Queue { opts: Box::new(o) }
        }
        "worker" => {
            let mut o = barre_serve::jobq::WorkerOptions::default();
            o.connect = a
                .string("--connect")
                .ok_or_else(|| err("worker needs --connect <host:port>"))?;
            o.name = a.string("--name").or(o.name);
            o.slots = a.count("--jobs", "job count")?.unwrap_or(o.slots);
            o.timeout = a.seconds("--timeout", "timeout")?.or(o.timeout);
            o.log_file = a.path("--log-file").or(o.log_file);
            Command::Worker { opts: Box::new(o) }
        }
        // "help"; `scan` has rejected every unknown command.
        _ => Command::Help,
    })
}

fn app_named(name: &str) -> Result<AppId, ParseError> {
    app_by_name(name).ok_or_else(|| err(format!("unknown app {name}")))
}

/// `barre report`: one trace or journal, two bench reports under
/// `--bench-diff`, or fleet-trace directories under `--fleet`.
fn report_command(a: &Args<'_>) -> Result<Command, ParseError> {
    let top = a.parse("--top", "top count")?;
    let threshold = a.ratio("--threshold", "threshold")?;
    let mut paths = a.operands.iter().map(std::path::PathBuf::from);
    let (fleet, bench_diff) = (a.has("--fleet"), a.has("--bench-diff"));
    if fleet && bench_diff {
        return Err(err("--fleet and --bench-diff are mutually exclusive"));
    }
    if top.is_some() && (fleet || bench_diff) {
        let mode = if fleet { "--fleet" } else { "--bench-diff" };
        return Err(err(format!("report {mode} does not take --top")));
    }
    if fleet {
        if threshold.is_some() {
            return Err(err("--threshold only applies to --bench-diff"));
        }
        if a.operands.is_empty() {
            return Err(err("--fleet needs at least one trace directory"));
        }
        return Ok(Command::FleetReport {
            dirs: paths.collect(),
            out: a.path("--out"),
        });
    }
    if a.has("--out") {
        return Err(err("--out only applies to --fleet"));
    }
    if bench_diff {
        let (Some(old), Some(new), None) = (paths.next(), paths.next(), paths.next()) else {
            return Err(err("--bench-diff needs exactly two bench-report paths"));
        };
        return Ok(Command::BenchDiff {
            old,
            new,
            threshold: threshold.unwrap_or(DEFAULT_BENCH_DIFF_THRESHOLD),
        });
    }
    if threshold.is_some() {
        return Err(err("--threshold only applies to --bench-diff"));
    }
    let input = paths
        .next()
        .ok_or_else(|| err("report needs a trace or journal path"))?;
    if let Some(extra) = paths.next() {
        return Err(err(format!("unexpected operand {}", extra.display())));
    }
    Ok(Command::Report {
        input,
        top: top.unwrap_or(trace_cmd::DEFAULT_TOP),
    })
}

/// Usage text.
pub const USAGE: &str = "\
barre — Barre Chord MCM-GPU translation model

USAGE:
  barre list                              list the 19 workloads
  barre table2 [--paper]                  print the configuration
  barre run   --app <name> [flags]        run one app (baseline compare with --baseline)
  barre profile --app <name> [flags]      wall time per engine event class for one run;
                                          the last line is the run's metrics JSON
  barre sweep [--apps a,b,c|all] [flags]  speedups vs baseline per app
  barre pair  --a <name> --b <name>       co-run two apps (multi-programming)
  barre chaos --app <name> [flags]        sweep ATS drop rates (fault injection)
  barre bench [--json] [--quick] [flags]  timed smoke sweep + serial/parallel cross-check
  barre merge --out <dir> <inputs...>     fold shard journals / bench reports into one
  barre repro [FIGURE ...] --out <path>   run paper figures (all when none named; each distinct
                                          simulation once), print their tables, write RESULTS.json
  barre lint  [flags]                     determinism & panic-safety analyzer
                                          (exit 0 clean, 1 violations, 2 usage/budget error)
  barre trace <app> [flags]               run one app traced; write trace.json (Perfetto-loadable)
  barre report <trace|journal> [--top n]  per-stage p50/p95/p99 tables + slowest journeys
  barre report --bench-diff <old> <new>   compare two BENCH_sweep.json files; exit 1 on
                                          regressions beyond --threshold (default 1.5x)
  barre report --fleet <dirs...> [--out p] stitch BARRE_FLEET_TRACE'd per-process trace files
                                          into one Perfetto timeline (default fleet-trace.json)
  barre serve [flags]                     simulation daemon: JSONL requests over TCP, HTTP shim
                                          (/healthz /readyz /stats /metrics), verified result cache
  barre queue [flags]                     lease-based shared job-queue coordinator with a
                                          write-ahead journal (crash-restartable) and an HTTP
                                          shim (/healthz /readyz /stats /metrics)
  barre worker --connect <host:port>      pull jobs from a queue coordinator under leases,
                                          heartbeat to keep them, run them crash-isolated

FLAGS:
  --mode <baseline|valkyrie|least|shared-l2|barre|fbarre|fbarre1|fbarre4>
  --policy <lasp|coda|rr|chunking>     --page-size <4k|64k|2m>
  --ptws <n|inf>                       --chiplets <n>
  --gmmu                               --migration
  --paper | --smoke                    machine preset (Table II | small and fast); other
                                       machine flags override it, in any order
  --seed <n>                           --frames <n> (physical frames per chiplet)
  --rates <r1,r2,...>                  chaos drop-rate sweep (default 0,0.001,0.01,0.05)
  --jobs <n>                           worker threads for sweep/chaos/bench
                                       (default: BARRE_JOBS env, then all cores; 1 = serial)
  --quick                              bench: 3-app subset instead of the balanced 9
  --gate [ratio]                       bench: exit 1 if any mode is more than ratio times
                                       slower than baseline (default 5.0)
  --threshold <ratio>                  report --bench-diff: regression cutoff (default 1.5)
  --out <path>                         bench: report path (default BENCH_sweep.json)
                                       merge: output directory (default merged/)
                                       repro: where RESULTS.json goes (required)
                                       trace: export path (default trace.json; .jsonl = compact)
  --window <n>                         trace: span-ring retention (default 65536 spans)
  --filter stage=<s1,s2,...>           trace: stages kept in the span ring (histograms
                                       always cover every stage); names as in the report
  --top <n>                            report: slowest journeys shown (default 10)
  --out <path>                         report --fleet: timeline path (default fleet-trace.json)

OBSERVABILITY:
  BARRE_LOG=<error|warn|info|debug|trace>  stderr structured-log threshold (default info);
                                       daemon/worker/dispatch diagnostics are one JSON
                                       object per line (ts_ms, level, component, event, msg)
  BARRE_FLEET_TRACE=<dir>              fleet processes append span events to
                                       <dir>/fleet-<role>-<pid>.trace.jsonl; stitch with
                                       `barre report --fleet <dir>`
  --log-file <path>                    serve/queue/worker: append structured logs to <path>
                                       instead of stderr

LINT FLAGS:
  --root <dir>                         workspace to analyze (default .)
  --json | --sarif                     barre-lint/2 JSON or SARIF 2.1.0 (mutually exclusive)
  --baseline <file>                    accepted-findings file (default <root>/lint-baseline.json)
  --no-baseline                        ignore any baseline file
  --write-baseline                     regenerate the baseline from current findings
  --changed-since <rev>                only report findings in files changed since <rev>
  --max-waivers <n>                    inline-waiver budget (default 5; exit 2 on breach)
  --fix                                apply safe autofixes (W001 scaffold, D002 clock rewrite)
  --parallel-readiness                 append the R001 parallel-readiness audit report

SUPERVISOR FLAGS (sweep, chaos):
  --supervise                          run each job in a crash-isolated child process
  --journal <dir|file.jsonl>           write-ahead journal location (default sweep-journal/)
  --resume <dir|file.jsonl>            skip jobs journaled as done, rerun the rest;
                                       output is byte-identical to an uninterrupted run
  --timeout <secs>                     per-job wall-clock budget (kill + retry on expiry)
  --retries <n>                        transient-failure retries per job (default 2);
                                       permanent failures (exit 64) are never retried
  --dispatch <host:port>               run the sweep on a `barre queue` coordinator instead
                                       of locally; workers execute, results and the journal
                                       come back byte-identical to a serial supervised run

SERVE FLAGS:
  --host <addr> --port <n>             bind address (default 127.0.0.1:7341; port 0 = ephemeral,
                                       the chosen address is printed as `listening on ...`)
  --workers <n>                        simulation worker threads (default: BARRE_JOBS, then cores)
  --queue-cap <n>                      admission-queue bound; beyond it requests are shed with a
                                       429-style response and a retry_after_ms hint (default 64)
  --cache-dir <dir>                    verified result-cache location (default serve-cache/)
  --timeout <secs>                     default per-request deadline, queue wait included
                                       (default 60; requests may override with timeout_ms)
  --breaker <n>                        quarantine a config fingerprint after n consecutive
                                       failures (default 3; 0 disables the circuit breaker)

QUEUE FLAGS:
  --host <addr> --port <n>             bind address (default 127.0.0.1:7342; port 0 = ephemeral,
                                       printed as `listening on ...`)
  --journal <dir|file.jsonl>           write-ahead journal location (default queue-journal/);
                                       restart with the same journal to resume
  --lease <secs>                       lease duration before an unheartbeated job is
                                       re-dispatched (default 10)
  --max-leases <n>                     quarantine a job as poison after n burned leases
                                       (default 3; 0 disables quarantine)

WORKER FLAGS:
  --connect <host:port>                queue coordinator to pull jobs from (required)
  --name <id>                          worker identity stamped on journal records
                                       (default worker-<pid>; BARRE_WORKER_ID also works)
  --jobs <n>                           concurrent job slots (default 1)
  --timeout <secs>                     per-job wall-clock budget (kill + report on expiry)
";

/// Reports a simulation failure on stderr and yields the error exit code.
fn report(err: &SimError) -> i32 {
    eprintln!("error: {err}");
    1
}

/// Hidden child mode (`--job-index i`): re-derive the sweep's job list
/// from the same command line, run exactly job `i`, and print its
/// metrics as one line of canonical JSON for the supervisor to journal.
/// Failures exit with [`SimError::exit_code`] so the supervisor can tell
/// permanent configuration bugs from transient-shaped faults.
fn run_child_job(labeled: &[LabeledJob], index: usize) -> i32 {
    let Some(l) = labeled.get(index) else {
        eprintln!(
            "error: --job-index {index} out of range ({} jobs)",
            labeled.len()
        );
        return barre_serve::attempt::EXIT_USAGE;
    };
    child_test_hooks(index);
    match l.run.simulate() {
        Ok(m) => {
            println!("{}", barre_system::metrics_to_json(&m));
            0
        }
        Err(e) => {
            eprintln!("error: {}: {e}", l.label);
            e.exit_code()
        }
    }
}

/// Failure-injection hooks for the supervisor's integration tests.
/// `BARRE_TEST_KILL="<i>:<sentinel>"` SIGKILLs child `i` once (the
/// sentinel file marks the kill as spent, so retries and resumes
/// proceed); `BARRE_TEST_HANG="<i>"` hangs child `i` forever to exercise
/// the watchdog timeout. No-ops unless those variables are set.
fn child_test_hooks(index: usize) {
    if let Ok(spec) = std::env::var("BARRE_TEST_KILL") {
        if let Some((idx, sentinel)) = spec.split_once(':') {
            if idx.parse() == Ok(index) && !std::path::Path::new(sentinel).exists() {
                let _ = std::fs::write(sentinel, b"killed\n");
                supervisor::kill_self();
            }
        }
    }
    if let Ok(v) = std::env::var("BARRE_TEST_HANG") {
        if v.parse() == Ok(index) {
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// Runs a labeled job list either inline on the worker pool or under the
/// crash-isolated supervisor, returning one [`RunMetrics`] per job in
/// input order. `Err` carries the process exit code; failure details
/// have already been printed to stderr, keeping stdout byte-identical
/// across inline, supervised and resumed runs.
fn collect_metrics(
    labeled: &[LabeledJob],
    jobs: Option<usize>,
    sup: Option<&supervisor::SuperviseOpts>,
) -> Result<Vec<RunMetrics>, i32> {
    let threads = barre_sim::pool::resolve_jobs(jobs);
    let Some(sup) = sup else {
        let runs: Vec<Run> = labeled.iter().map(|l| l.run.clone()).collect();
        let results = run_batch(&runs, threads).map_err(|e| report(&e))?;
        let mut out = Vec::with_capacity(labeled.len());
        for (l, res) in labeled.iter().zip(results) {
            match res {
                Ok(m) => out.push(m),
                Err(e) => {
                    eprintln!("error: {}: {e}", l.label);
                    return Err(1);
                }
            }
        }
        return Ok(out);
    };
    let journal = barre_system::journal_file_of(&sup.journal);
    report_sweep(
        "supervisor",
        labeled,
        &sup.child_args,
        supervisor::run_supervised(labeled, threads, sup).map_err(|e| e.to_string()),
        &journal,
        &format!(
            "interrupted: in-flight jobs drained and journaled; rerun with --resume {} to finish",
            journal.display()
        ),
    )
}

/// Runs a labeled job list through a remote `barre queue` coordinator,
/// returning one [`RunMetrics`] per job in input order. The counterpart
/// of [`collect_metrics`]'s supervised path, reported the same way:
/// stdout stays byte-identical to a local run.
fn collect_dispatched(labeled: &[LabeledJob], d: &DispatchOpts) -> Result<Vec<RunMetrics>, i32> {
    barre_serve::signal::install_drain_handlers();
    let jobs: Vec<barre_serve::jobq::JobSpec> = labeled
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut args = d.child_args.clone();
            args.push("--job-index".to_string());
            args.push(i.to_string());
            barre_serve::jobq::JobSpec {
                fingerprint: supervisor::job_fingerprint(&d.child_args, i, l),
                label: l.label.clone(),
                args,
                // One correlation id per job, minted at the dispatch
                // origin — the root of the cross-process trace.
                corr: Some(barre_obs::corr_id()),
            }
        })
        .collect();
    let journal = barre_system::journal_file_of(&d.journal);
    report_sweep(
        "dispatch",
        labeled,
        &d.child_args,
        barre_serve::jobq::dispatch_sweep(&d.addr, &jobs, &journal),
        &journal,
        &format!(
            "dispatch: interrupted; jobs stay queued — rerun with --dispatch {} to resume",
            d.addr
        ),
    )
}

/// Reports a crash-isolated sweep under its log `component`
/// (`supervisor` or `dispatch`): folds the terminal record of each job
/// (`None` for a job that did not finish) and returns the metrics in job
/// order once every job is done. Otherwise each failure, then the
/// `interrupted` hint or a summary naming `journal`, goes to stderr and
/// `Err` carries the exit code: 128 + signal after a drain, else 1.
fn report_sweep(
    component: &str,
    labeled: &[LabeledJob],
    child_args: &[String],
    records: Result<Vec<Option<barre_system::JournalRecord>>, String>,
    journal: &std::path::Path,
    interrupted: &str,
) -> Result<Vec<RunMetrics>, i32> {
    let fps: Vec<String> = labeled
        .iter()
        .enumerate()
        .map(|(i, l)| supervisor::job_fingerprint(child_args, i, l))
        .collect();
    let outcome = records
        .and_then(|r| barre_system::fold_terminal(&fps, r))
        .map_err(|e| {
            olog::error(component, "sweep_failed", &[], &format!("error: {e}"));
            1
        })?;
    for f in &outcome.failures {
        let event = if f.quarantined {
            "job_quarantined"
        } else {
            "job_failed"
        };
        olog::warn(
            component,
            event,
            &[("label", Field::S(&f.label))],
            &f.to_string(),
        );
    }
    if outcome.unfinished > 0 {
        olog::warn(component, "interrupted", &[], interrupted);
        return Err(barre_serve::signal::drain_exit_code());
    }
    if !outcome.failures.is_empty() {
        olog::error(
            component,
            "jobs_failed",
            &[
                ("failed", Field::U(outcome.failures.len() as u64)),
                ("total", Field::U(labeled.len() as u64)),
            ],
            &format!(
                "{} of {} job(s) failed; the rest completed and are journaled in {}",
                outcome.failures.len(),
                labeled.len(),
                journal.display()
            ),
        );
        return Err(1);
    }
    Ok(outcome.results.into_iter().flatten().collect())
}

/// Renders the sweep speedup table. One shared renderer keeps inline,
/// supervised and resumed runs byte-identical on stdout.
fn render_sweep(apps: &[AppId], cfg: &SystemConfig, metrics: &[RunMetrics]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>12} {:>9}",
        "app",
        "base cy",
        format!("{} cy", cfg.mode.label()),
        "speedup"
    );
    let mut ratios = Vec::new();
    for (app, pair) in apps.iter().zip(metrics.chunks_exact(2)) {
        let sp = speedup(&pair[0], &pair[1]);
        ratios.push(sp);
        let _ = writeln!(
            s,
            "{:<8} {:>12} {:>12} {:>8.3}x",
            app.name(),
            pair[0].total_cycles,
            pair[1].total_cycles,
            sp
        );
    }
    let _ = writeln!(
        s,
        "geomean: {:.3}x",
        barre_system::geomean(ratios.iter().copied())
    );
    s
}

/// Renders the chaos fault-injection table (shared renderer, see
/// [`render_sweep`]).
fn render_chaos(rates: &[f64], metrics: &[RunMetrics]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>10} {:>8} {:>8} {:>9} {:>10} {:>12}",
        "drop", "cycles", "faults", "retries", "timeouts", "fallbacks", "ATS"
    );
    for (rate, m) in rates.iter().zip(metrics) {
        let _ = writeln!(
            s,
            "{:<8} {:>10} {:>8} {:>8} {:>9} {:>10} {:>12}",
            format!("{rate}"),
            m.total_cycles,
            m.faults_injected,
            m.ats_retries,
            m.ats_timeouts,
            m.fallback_translations,
            m.ats_requests
        );
    }
    s
}

/// `barre merge`: folds shard journals (directories or `.jsonl` files)
/// and `BENCH_sweep.json` fragments (`.json` files) into one output
/// directory, refusing to merge shards whose completed runs disagree and
/// dropping `done` records that fail [`barre_system::JournalRecord::verified`].
fn run_merge(out: &std::path::Path, inputs: &[std::path::PathBuf]) -> i32 {
    let mut journal_shards: Vec<Vec<barre_system::JournalRecord>> = Vec::new();
    let mut bench_docs: Vec<String> = Vec::new();
    let mut skipped_total = 0usize;
    let mut unverified_total = 0usize;
    let unverified_done = |r: &barre_system::JournalRecord| {
        matches!(r.event, barre_system::JournalEvent::Done { .. }) && !r.verified()
    };
    for p in inputs {
        if p.extension().is_some_and(|e| e == "json") {
            match std::fs::read_to_string(p) {
                Ok(doc) => bench_docs.push(doc),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", p.display());
                    return 1;
                }
            }
        } else {
            let path = barre_system::journal_file_of(p);
            // Lenient read: a shard that survived a crash may carry torn
            // or corrupt lines anywhere, not just at the tail. Skipped
            // lines are surfaced, never silently dropped; so are `done`
            // records whose digests fail to verify.
            match barre_system::read_journal_lenient(&path) {
                Ok((recs, skipped)) => {
                    if skipped > 0 {
                        eprintln!(
                            "warning: {}: skipped {skipped} corrupt line(s)",
                            path.display()
                        );
                        skipped_total = skipped_total.saturating_add(skipped);
                    }
                    let unverified = recs.iter().filter(|r| unverified_done(r)).count();
                    if unverified > 0 {
                        eprintln!(
                            "warning: {}: dropped {unverified} done record(s) that fail digest verification",
                            path.display()
                        );
                        unverified_total += unverified;
                    }
                    journal_shards.push(recs);
                }
                Err(e) => {
                    eprintln!("error: cannot read journal {}: {e}", path.display());
                    return 1;
                }
            }
        }
    }
    let (journal_out, bench_out) = if out.extension().is_some_and(|e| e == "jsonl") {
        let dir = out
            .parent()
            .map(std::path::Path::to_path_buf)
            .unwrap_or_default();
        (out.to_path_buf(), dir.join("BENCH_sweep.json"))
    } else {
        (
            out.join(barre_system::JOURNAL_FILE),
            out.join("BENCH_sweep.json"),
        )
    };
    if let Some(dir) = journal_out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return 1;
        }
    }
    if !journal_shards.is_empty() {
        // Stored digests that disagree are a conflict whether or not
        // they verify; only then are the unverified records dropped.
        let mut merged = barre_system::merge_journals(&journal_shards);
        if unverified_total > 0 && merged.is_ok() {
            for shard in &mut journal_shards {
                shard.retain(|r| !unverified_done(r));
            }
            merged = barre_system::merge_journals(&journal_shards);
        }
        let mut merged = match merged {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        // The merged journal is worker-agnostic: strip the identity
        // stamps so a distributed run's merge is byte-identical to a
        // serial run's, and report the attribution on stderr instead.
        let mut by_worker: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for r in &mut merged {
            if let barre_system::JournalEvent::Done { worker, .. } = &mut r.event {
                if let Some(w) = worker.take() {
                    *by_worker.entry(w).or_insert(0) += 1;
                }
            }
        }
        if !by_worker.is_empty() {
            let attribution: Vec<String> =
                by_worker.iter().map(|(w, n)| format!("{w}: {n}")).collect();
            eprintln!("workers: {}", attribution.join(", "));
        }
        let mut doc = String::with_capacity(merged.len() * 256);
        for r in &merged {
            doc.push_str(&r.to_line());
            doc.push('\n');
        }
        if let Err(e) = std::fs::write(&journal_out, doc) {
            eprintln!("error: cannot write {}: {e}", journal_out.display());
            return 1;
        }
        let done = merged
            .iter()
            .filter(|r| matches!(r.event, barre_system::JournalEvent::Done { .. }))
            .count();
        let skipped_note = if skipped_total > 0 {
            format!(", {skipped_total} line(s) skipped")
        } else {
            String::new()
        };
        println!(
            "merged {} journal shard(s): {} record(s), {} done{} -> {}",
            journal_shards.len(),
            merged.len(),
            done,
            skipped_note,
            journal_out.display()
        );
    }
    if !bench_docs.is_empty() {
        let merged = match barre_bench::wallclock::merge_reports(&bench_docs) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        if let Err(e) = std::fs::write(&bench_out, merged) {
            eprintln!("error: cannot write {}: {e}", bench_out.display());
            return 1;
        }
        println!(
            "merged {} bench report(s) -> {}",
            bench_docs.len(),
            bench_out.display()
        );
    }
    0
}

/// Runs the selected registry figures on the worker pool (`BARRE_JOBS`
/// workers), prints their tables and writes them to `out`.
fn run_repro(figures: &[String], out: &std::path::Path) -> i32 {
    use barre_bench::results;
    let threads = barre_sim::pool::resolve_jobs(None);
    let run = barre_bench::figures::select(figures)
        .and_then(|f| results::run(&f, threads, Run::simulate).map_err(|e| e.to_string()))
        .and_then(|r| {
            std::fs::write(out, results::to_json(&r.tables))
                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
            Ok(r)
        });
    match run {
        Ok(r) => {
            print!("{}", results::render(&r.tables));
            eprintln!(
                "repro: {} figures, {} cells, {} distinct cells simulated; wrote {}",
                r.tables.len(),
                r.cells,
                r.simulated,
                out.display()
            );
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// Executes a parsed command, printing to stdout. Returns the process
/// exit code (0 on success, 1 when the simulation reports a
/// [`SimError`]).
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::List => {
            println!(
                "{:<8} {:<20} {:>12} {:>6} {:>6}",
                "abbr", "name", "paper MPKI", "class", "seeded"
            );
            // Whether a run reads its seed, from the seed tap of the
            // app's smoke machine: a `no` app computes the same metrics
            // at every seed.
            let smoke = barre_system::smoke_config();
            for a in AppId::all() {
                let seeded = match barre_system::build_machine(&[a.spec()], &smoke, DEFAULT_SEED) {
                    Ok(m) if m.seed_free() => "no",
                    Ok(_) => "yes",
                    Err(_) => "?",
                };
                println!(
                    "{:<8} {:<20} {:>12.3} {:>6} {:>6}",
                    a.name(),
                    a.full_name(),
                    a.paper_mpki(),
                    a.category(),
                    seeded
                );
            }
            0
        }
        Command::Table2 { cfg } => {
            print!("{}", cfg.table2());
            0
        }
        Command::Run {
            run,
            baseline,
            metrics_json,
        } => {
            let m = match run.simulate() {
                Ok(m) => m,
                // SimError exit codes tell permanent from transient
                // failures when the metrics are what is asked for.
                Err(e) if metrics_json => {
                    eprintln!("error: {e}");
                    return e.exit_code();
                }
                Err(e) => return report(&e),
            };
            if metrics_json {
                // One line of canonical metrics JSON: the line a `barre
                // serve` response carries.
                println!("{}", barre_system::metrics_to_json(&m));
                return 0;
            }
            let apps = run.apps();
            println!(
                "{}",
                summary_line(&format!("{apps}/{}", run.cfg.mode.label()), &m)
            );
            if baseline {
                let base = Run {
                    cfg: run.cfg.clone().with_mode(TranslationMode::Baseline),
                    ..*run
                };
                let b = match base.simulate() {
                    Ok(b) => b,
                    Err(e) => return report(&e),
                };
                println!("{}", summary_line(&format!("{apps}/baseline"), &b));
                println!("speedup: {:.3}x", speedup(&b, &m));
            }
            0
        }
        Command::Sweep {
            apps,
            cfg,
            seed,
            jobs,
            sup,
            dispatch,
            job_index,
        } => {
            // Every execution path — inline pool, supervised children,
            // remote dispatch, `--job-index` replay — derives its work
            // from this one job list, so a job index means the same
            // simulation everywhere.
            let labeled = sweep_jobs(&apps, &cfg, seed);
            if let Some(index) = job_index {
                return run_child_job(&labeled, index);
            }
            let metrics = match &dispatch {
                Some(d) => collect_dispatched(&labeled, d),
                None => collect_metrics(&labeled, jobs, sup.as_ref()),
            };
            let metrics = match metrics {
                Ok(m) => m,
                Err(code) => return code,
            };
            print!("{}", render_sweep(&apps, &cfg, &metrics));
            0
        }
        Command::Pair { run } => {
            let m: RunMetrics = match run.simulate() {
                Ok(m) => m,
                Err(e) => return report(&e),
            };
            println!("{}", summary_line(&run.apps(), &m));
            0
        }
        Command::Lint { opts } => lint_cmd::run_lint(&opts),
        Command::Chaos {
            app,
            cfg,
            seed,
            rates,
            jobs,
            sup,
            dispatch,
            job_index,
        } => {
            let labeled = chaos_jobs(app, &cfg, seed, &rates);
            if let Some(index) = job_index {
                return run_child_job(&labeled, index);
            }
            let metrics = match &dispatch {
                Some(d) => collect_dispatched(&labeled, d),
                None => collect_metrics(&labeled, jobs, sup.as_ref()),
            };
            let metrics = match metrics {
                Ok(m) => m,
                Err(code) => return code,
            };
            print!("{}", render_chaos(&rates, &metrics));
            0
        }
        Command::Profile { run } => profile_cmd::run(&run),
        Command::Trace { run, out, opts } => trace_cmd::run_trace(&run, &out, &opts),
        Command::Report { input, top } => trace_cmd::run_report(&input, top),
        Command::FleetReport { dirs, out } => trace_cmd::run_fleet_report(&dirs, out.as_deref()),
        Command::BenchDiff {
            old,
            new,
            threshold,
        } => {
            let read = |p: &std::path::Path| match std::fs::read_to_string(p) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", p.display());
                    None
                }
            };
            let (Some(old_doc), Some(new_doc)) = (read(&old), read(&new)) else {
                return 1;
            };
            match barre_bench::wallclock::diff_reports(&old_doc, &new_doc, threshold) {
                Ok(diff) => {
                    print!("{}", diff.render());
                    i32::from(!diff.regressions().is_empty())
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Serve { opts } => barre_serve::run_serve(&opts),
        Command::Queue { opts } => barre_serve::jobq::run_queue(&opts),
        Command::Worker { opts } => barre_serve::jobq::run_worker(&opts),
        Command::Merge { out, inputs } => run_merge(&out, &inputs),
        Command::Repro { figures, out } => run_repro(&figures, &out),
        Command::Bench {
            quick,
            json,
            jobs,
            out,
            gate,
        } => {
            let threads = barre_sim::pool::resolve_jobs(jobs);
            let r = match barre_bench::wallclock::run_bench(quick, threads) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            let doc = r.to_json();
            if let Err(e) = std::fs::write(&out, &doc) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return 1;
            }
            if json {
                print!("{doc}");
            } else {
                print!("{}", r.summary());
                println!("report written to {}", out.display());
            }
            if let Some(ratio) = gate {
                let violations = r.gate_violations(ratio);
                if !violations.is_empty() {
                    for v in &violations {
                        eprintln!("gate: {v}");
                    }
                    eprintln!("gate: {} cell(s) beyond {ratio:.1}x", violations.len());
                    return 1;
                }
                println!("gate: all modes within {ratio:.1}x of baseline");
            }
            // Serial/parallel divergence is a determinism bug — fail.
            i32::from(!r.divergent.is_empty())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ParseError> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_run() {
        let cmd = p(&["run", "--app", "gups", "--mode", "fbarre", "--seed", "7"]).unwrap();
        match cmd {
            Command::Run { run, .. } => {
                assert_eq!(run.specs, [AppId::Gups.spec()]);
                assert_eq!(run.seed, 7);
                assert!(matches!(run.cfg.mode, TranslationMode::FBarre(_)));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_profile() {
        let cmd = p(&["profile", "--smoke", "--app", "gups", "--mode", "fbarre"]).unwrap();
        match cmd {
            Command::Profile { run } => {
                assert_eq!(run.specs, [AppId::Gups.spec()]);
                assert_eq!(run.seed, 0x15CA_2024);
                assert!(matches!(run.cfg.mode, TranslationMode::FBarre(_)));
                assert_eq!(run.cfg.topology, barre_system::smoke_config().topology);
            }
            other => panic!("wrong command {other:?}"),
        }
        // A flag the profile would ignore is a usage error.
        assert!(p(&["profile", "--app", "gups", "--metrics-json"]).is_err());
        assert!(p(&["profile", "--mode", "barre"]).is_err());
    }

    #[test]
    fn parses_sweep_subset() {
        let cmd = p(&["sweep", "--apps", "gemv,gups", "--mode", "barre"]).unwrap();
        match cmd {
            Command::Sweep { apps, cfg, .. } => {
                assert_eq!(apps, vec![AppId::Gemv, AppId::Gups]);
                assert_eq!(cfg.mode, TranslationMode::Barre);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_pair_and_topology() {
        let cmd = p(&["pair", "--a", "gemv", "--b", "gups", "--chiplets", "8"]).unwrap();
        match cmd {
            Command::Pair { run } => {
                assert_eq!(run.specs, [AppId::Gemv.spec(), AppId::Gups.spec()]);
                assert_eq!(run.cfg.topology.n_chiplets, 8);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_chaos_rates() {
        let cmd = p(&["chaos", "--app", "gups", "--rates", "0,0.01"]).unwrap();
        match cmd {
            Command::Chaos { app, rates, .. } => {
                assert_eq!(app, AppId::Gups);
                assert_eq!(rates, vec![0.0, 0.01]);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults kick in without --rates; bad rates are rejected.
        assert!(matches!(
            p(&["chaos", "--app", "gups"]).unwrap(),
            Command::Chaos { .. }
        ));
        assert!(p(&["chaos", "--app", "gups", "--rates", "1.5"]).is_err());
        assert!(p(&["chaos", "--rates", "0.1"]).is_err());
    }

    #[test]
    fn parses_queue_flags() {
        match p(&[
            "queue",
            "--port",
            "0",
            "--journal",
            "/tmp/q",
            "--lease",
            "2.5",
            "--max-leases",
            "5",
        ])
        .unwrap()
        {
            Command::Queue { opts } => {
                assert_eq!(opts.port, 0);
                assert_eq!(opts.journal, std::path::PathBuf::from("/tmp/q"));
                assert_eq!(opts.lease, std::time::Duration::from_secs_f64(2.5));
                assert_eq!(opts.max_leases, 5);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["queue", "--lease", "0"]).is_err());
        assert!(p(&["queue", "--lease", "nope"]).is_err());
        assert!(p(&["queue", "--apps", "gemv"]).is_err());
    }

    #[test]
    fn parses_worker_flags() {
        match p(&[
            "worker",
            "--connect",
            "127.0.0.1:7342",
            "--name",
            "w1",
            "--jobs",
            "3",
            "--timeout",
            "4",
        ])
        .unwrap()
        {
            Command::Worker { opts } => {
                assert_eq!(opts.connect, "127.0.0.1:7342");
                assert_eq!(opts.name.as_deref(), Some("w1"));
                assert_eq!(opts.slots, 3);
                assert_eq!(opts.timeout, Some(std::time::Duration::from_secs(4)));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --connect is mandatory; zero slots and bad budgets are rejected.
        assert!(p(&["worker"]).is_err());
        assert!(p(&["worker", "--connect", "h:1", "--jobs", "0"]).is_err());
        assert!(p(&["worker", "--connect", "h:1", "--timeout", "-1"]).is_err());
    }

    #[test]
    fn parses_dispatch_and_rejects_conflicts() {
        match p(&[
            "sweep",
            "--apps",
            "gemv",
            "--dispatch",
            "127.0.0.1:7342",
            "--journal",
            "/tmp/shard.jsonl",
        ])
        .unwrap()
        {
            Command::Sweep { sup, dispatch, .. } => {
                let d = dispatch.expect("dispatch parsed");
                assert!(sup.is_none(), "dispatch must not also supervise locally");
                assert_eq!(d.addr, "127.0.0.1:7342");
                assert_eq!(d.journal, std::path::PathBuf::from("/tmp/shard.jsonl"));
                // The child args a worker replays must not re-dispatch.
                assert!(!d.child_args.iter().any(|a| a == "--dispatch"));
                assert!(!d.child_args.iter().any(|a| a == "127.0.0.1:7342"));
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["chaos", "--app", "gups", "--dispatch", "h:1"]).unwrap() {
            Command::Chaos { dispatch, .. } => assert!(dispatch.is_some()),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["sweep", "--dispatch", "h:1", "--supervise"]).is_err());
        assert!(p(&["sweep", "--dispatch", "h:1", "--timeout", "5"]).is_err());
        assert!(p(&["sweep", "--dispatch", "h:1", "--retries", "1"]).is_err());
    }

    /// Request lines over every request field: each value of each field
    /// on a bare request, then a deterministic spread of combinations.
    fn request_matrix() -> Vec<String> {
        let apps: Vec<String> = AppId::all()
            .iter()
            .map(|a| format!("{:?}", a.name()))
            .collect();
        let q = |xs: &[&str]| xs.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>();
        let text = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let none = || vec![String::new()];
        let with = |mut v: Vec<String>, rest: Vec<String>| {
            v.extend(rest);
            v
        };
        // (field, values); "" leaves the field out.
        let dims: Vec<(&str, Vec<String>)> = vec![
            ("app", apps),
            ("smoke", with(none(), text(&["false", "true"]))),
            ("paper", with(none(), text(&["true"]))),
            (
                "mode",
                with(
                    none(),
                    q(&[
                        "baseline",
                        "valkyrie",
                        "least",
                        "shared-l2",
                        "barre",
                        "fbarre",
                        "fbarre2",
                        "fbarre1",
                        "fbarre-nomerge",
                        "fbarre4",
                    ]),
                ),
            ),
            (
                "policy",
                with(
                    none(),
                    q(&["lasp", "coda", "rr", "round-robin", "chunking"]),
                ),
            ),
            (
                "page_size",
                with(none(), q(&["4k", "4kb", "64k", "64kb", "2m", "2mb"])),
            ),
            (
                "ptws",
                with(none(), with(text(&["1", "8", "65536"]), q(&["inf"]))),
            ),
            ("chiplets", with(none(), text(&["1", "2", "8", "16"]))),
            ("gmmu", with(none(), text(&["false", "true"]))),
            ("migration", with(none(), text(&["false", "true"]))),
            ("frames", with(none(), text(&["1", "4096"]))),
            (
                "seed",
                with(none(), text(&["0", "7", "18446744073709551615"])),
            ),
        ];
        let line = |pick: &[usize]| {
            let fields: Vec<String> = dims
                .iter()
                .zip(pick)
                .filter(|((_, vals), &i)| !vals[i].is_empty())
                .map(|((k, vals), &i)| format!("{k:?}:{}", vals[i]))
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let mut lines = Vec::new();
        for (d, (_, vals)) in dims.iter().enumerate() {
            for v in 0..vals.len() {
                let mut pick = vec![0; dims.len()];
                pick[d] = v;
                lines.push(line(&pick));
            }
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..400 {
            let pick: Vec<usize> = dims
                .iter()
                .map(|(_, vals)| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % vals.len() as u64) as usize
                })
                .collect();
            lines.push(line(&pick));
        }
        // A request needs an app and takes at most one preset.
        lines.retain(|l| {
            l.contains("\"app\"") && !(l.contains("\"smoke\":true") && l.contains("\"paper\""))
        });
        lines
    }

    #[test]
    fn serve_requests_build_the_machine_of_their_run_argv() {
        let lines = request_matrix();
        let (mut fps, mut revisions) = (Vec::new(), 0);
        for line in &lines {
            let r =
                barre_serve::request::parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let Ok(Command::Run {
                run,
                metrics_json: true,
                baseline: false,
            }) = parse(&r.argv)
            else {
                panic!("{line}: argv {:?} is not a metrics-json run", r.argv);
            };
            assert_eq!(*run, r.run, "{line}");
            // A request's address is the hash of its argv, plus its
            // mode's model revision when it has one (F-Barre).
            let argv: Vec<&str> = r.argv.iter().map(String::as_str).collect();
            let revised = r.run.cfg.mode.model_revision().is_some();
            assert_eq!(
                r.fingerprint != barre_system::fingerprint(&argv),
                revised,
                "{line}"
            );
            revisions += usize::from(revised);
            fps.push(r.fingerprint);
        }
        // Every fingerprint of the matrix, folded into one. The 254
        // requests in a mode without a model revision keep the keys the
        // daemon gave them when it ran each simulation in a child, so
        // their cache records still answer; the 152 F-Barre ones moved.
        let parts: Vec<&str> = fps.iter().map(String::as_str).collect();
        assert_eq!((lines.len(), revisions), (406, 152));
        assert_eq!(barre_system::fingerprint(&parts), "83c6d08f8d612ec7");
    }

    /// A registry cell is the simulation `barre run` describes for its
    /// app, mode and the registry seed: one `Run`, whichever front end
    /// built it.
    #[test]
    fn a_fig15_cell_is_the_run_of_its_run_argv() {
        let fig = barre_bench::figures::select(&["fig15".to_string()]).expect("fig15");
        let cells = &fig[0].cells;
        let seed = barre_bench::SEED.to_string();
        // Each row holds its app's cells in column order: baseline,
        // Valkyrie, Least, Barre, F-Barre with 1, 2 and 4 merged.
        let modes = [(0, "baseline"), (3, "barre"), (5, "fbarre"), (10, "barre")];
        for (i, mode) in modes {
            let cell = &cells[i];
            let app = cell.specs[0].app.name();
            let argv = ["run", "--app", app, "--mode", mode, "--seed", &seed];
            let Ok(Command::Run { run, .. }) = p(&argv) else {
                panic!("{argv:?} is not a run");
            };
            assert_eq!(*run, *cell, "{argv:?}");
        }
    }

    /// The argv a supervised or dispatched child is re-executed with is
    /// the input of every job fingerprint: a resume after a crash and
    /// dispatched ≡ serial both depend on these exact bytes.
    #[test]
    fn child_args_and_fingerprints_are_pinned() {
        // (command line, the child argv derived from it)
        let cases = [
            (
                "sweep --smoke --apps gemv,atax --mode barre --seed 3 --jobs 2 --journal j1",
                "sweep --smoke --apps gemv,atax --mode barre --seed 3",
            ),
            (
                "chaos --app gups --smoke --rates 0,0.01 --retries 1 --journal j2",
                "chaos --app gups --smoke --rates 0,0.01",
            ),
            (
                "sweep --supervise --apps gups --timeout 5 --policy coda --ptws inf",
                "sweep --apps gups --policy coda --ptws inf",
            ),
            (
                "sweep --apps gemv --dispatch h:1 --jobs 2 --journal j --mode fbarre",
                "sweep --apps gemv --mode fbarre",
            ),
            (
                "chaos --resume j --app gups --mode fbarre --gmmu --chiplets 8",
                "chaos --app gups --mode fbarre --gmmu --chiplets 8",
            ),
            (
                "sweep --paper --retries 1 --apps bicg --timeout 5 --resume j --journal j \
                 --page-size 64k --seed 9",
                "sweep --paper --apps bicg --page-size 64k --seed 9",
            ),
            (
                "chaos --app gups --smoke --dispatch h:1 --resume shard --rates 0,0.001",
                "chaos --app gups --smoke --rates 0,0.001",
            ),
        ];
        let words =
            |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
        for (line, want) in cases {
            let child = match parse(&words(line)).unwrap() {
                Command::Sweep { sup, dispatch, .. } | Command::Chaos { sup, dispatch, .. } => {
                    match (sup, dispatch) {
                        (Some(s), None) => s.child_args,
                        (None, Some(d)) => d.child_args,
                        other => panic!("{line}: want exactly one runner, got {other:?}"),
                    }
                }
                other => panic!("wrong command {other:?}"),
            };
            assert_eq!(child, words(want), "{line}");
        }
        let Command::Sweep {
            apps, cfg, seed, ..
        } = parse(&words(cases[0].0)).unwrap()
        else {
            panic!("wrong command");
        };
        let labeled = sweep_jobs(&apps, &cfg, seed);
        assert_eq!(
            supervisor::job_fingerprint(&words(cases[0].1), 1, &labeled[1]),
            "218ea3b2342c3651"
        );
    }

    #[test]
    fn rejects_unknowns() {
        assert!(p(&["run", "--app", "nosuch"]).is_err());
        assert!(p(&["run"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
        assert!(p(&["run", "--app", "gups", "--mode", "warp-drive"]).is_err());
        assert!(p(&["run", "--app"]).is_err());
        // A flag the command would ignore is an error naming both.
        let ignored = |line: &[&str], flag: &str| {
            let e = p(line).unwrap_err().0;
            assert!(e.contains(flag) && e.contains(line[0]), "{line:?}: {e}");
        };
        ignored(&["sweep", "--app", "gups", "--smoke"], "--app");
        ignored(&["run", "--app", "gups", "--dispatch", "h:1"], "--dispatch");
        ignored(&["run", "--app", "gups", "--jobs", "4"], "--jobs");
        ignored(&["run", "--app", "gups", "--supervise"], "--supervise");
        ignored(&["list", "--paper"], "--paper");
        ignored(&["bench", "--paper"], "--paper");
        ignored(&["table2", "--seed", "3"], "--seed");
        ignored(&["trace", "gups", "--apps", "gemv"], "--apps");
        ignored(&["report", "--fleet", "d", "--top", "3"], "--top");
        ignored(&["report", "--bench-diff", "a", "b", "--top", "3"], "--top");
    }

    #[test]
    fn presets_apply_before_overrides_in_any_order() {
        let cfg = |line: &[&str]| match p(line).unwrap() {
            Command::Run { run, .. } => format!("{:?}", run.cfg),
            other => panic!("wrong command {other:?}"),
        };
        let want = cfg(&[
            "run",
            "--app",
            "gups",
            "--paper",
            "--ptws",
            "4",
            "--chiplets",
            "8",
            "--gmmu",
        ]);
        let got = cfg(&[
            "run",
            "--app",
            "gups",
            "--ptws",
            "4",
            "--chiplets",
            "8",
            "--gmmu",
            "--paper",
        ]);
        assert_eq!(got, want);
        assert!(
            want.contains("ptws: Some(4)") && want.contains("n_chiplets: 8"),
            "{want}"
        );
        assert_eq!(
            p(&["table2", "--paper", "--smoke"]).unwrap_err().0,
            "--paper and --smoke are mutually exclusive"
        );
    }

    #[test]
    fn usage_documents_every_flag_and_only_accepted_ones() {
        use std::collections::BTreeSet;
        let accepted: BTreeSet<&str> = COMMANDS
            .iter()
            .flat_map(|(_, _, lists)| lists.iter().flat_map(|list| list.split(' ')))
            .map(|spec| spec.trim_end_matches(['=', '?']))
            .collect();
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.len() > 2 && w.starts_with("--"))
            .collect();
        // Child-protocol flags, spelled only by `barre serve` and the
        // supervisor.
        let hidden = ["--metrics-json", "--job-index"];
        for flag in &accepted {
            assert!(
                documented.contains(flag) != hidden.contains(flag),
                "{flag}: documented in USAGE iff not a child-protocol flag"
            );
        }
        for flag in &documented {
            assert!(
                accepted.contains(flag),
                "USAGE documents {flag}, which no command takes"
            );
        }
    }

    #[test]
    fn flag_helpers_cover_all_labels() {
        for m in [
            "baseline",
            "valkyrie",
            "least",
            "shared-l2",
            "barre",
            "fbarre",
            "fbarre1",
            "fbarre4",
        ] {
            assert!(mode_by_name(m).is_some(), "{m}");
        }
        for pol in ["lasp", "coda", "rr", "chunking"] {
            assert!(policy_by_name(pol).is_some(), "{pol}");
        }
        for ps in ["4k", "64k", "2m"] {
            assert!(page_size_by_name(ps).is_some(), "{ps}");
        }
        assert_eq!(app_by_name("gesm"), Some(AppId::Gesm));
        assert_eq!(app_by_name("zzz"), None);
    }

    #[test]
    fn ptws_inf_parses() {
        let cmd = p(&["run", "--app", "gemv", "--ptws", "inf"]).unwrap();
        match cmd {
            Command::Run { run, .. } => assert_eq!(run.cfg.ptws, None),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn empty_args_is_help() {
        assert!(matches!(p(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn parses_repro_figures_and_out() {
        match p(&["repro", "fig15", "table1", "--out", "r.json"]).unwrap() {
            Command::Repro { figures, out } => {
                assert_eq!(figures, ["fig15", "table1"]);
                assert_eq!(out, std::path::PathBuf::from("r.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["repro", "--out", "r.json"]).unwrap() {
            Command::Repro { figures, .. } => assert!(figures.is_empty()),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["repro", "fig15"]).unwrap_err().0.contains("--out"));
        assert!(p(&["repro", "fig99", "--out", "r.json"])
            .unwrap_err()
            .0
            .contains("unknown figure fig99"));
        assert!(p(&["repro", "--jobs", "2", "--out", "r.json"]).is_err());
    }

    #[test]
    fn parses_bench_and_jobs() {
        match p(&[
            "bench",
            "--json",
            "--quick",
            "--jobs",
            "8",
            "--out",
            "/tmp/b.json",
        ])
        .unwrap()
        {
            Command::Bench {
                quick,
                json,
                jobs,
                out,
                gate,
            } => {
                assert!(quick && json);
                assert_eq!(jobs, Some(8));
                assert_eq!(out, std::path::PathBuf::from("/tmp/b.json"));
                assert_eq!(gate, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["bench"]).unwrap() {
            Command::Bench {
                quick,
                json,
                jobs,
                gate,
                ..
            } => {
                assert!(!quick && !json);
                assert_eq!(jobs, None);
                assert_eq!(gate, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["sweep", "--apps", "gemv", "--jobs", "2"]).unwrap() {
            Command::Sweep { jobs, .. } => assert_eq!(jobs, Some(2)),
            other => panic!("wrong command {other:?}"),
        }
        match p(&["chaos", "--app", "gups", "--jobs", "4"]).unwrap() {
            Command::Chaos { jobs, .. } => assert_eq!(jobs, Some(4)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["bench", "--jobs", "0"]).is_err());
        assert!(p(&["bench", "--jobs", "many"]).is_err());
        assert!(p(&["bench", "--out"]).is_err());
    }

    #[test]
    fn parses_bench_gate() {
        // Bare flag takes the default ratio; a following flag is not a value.
        match p(&["bench", "--gate", "--quick"]).unwrap() {
            Command::Bench { gate, quick, .. } => {
                assert_eq!(gate, Some(DEFAULT_BENCH_GATE));
                assert!(quick);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["bench", "--gate", "3.5"]).unwrap() {
            Command::Bench { gate, .. } => assert_eq!(gate, Some(3.5)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["bench", "--gate", "abc"]).is_err());
        assert!(p(&["bench", "--gate", "0"]).is_err());
        assert!(p(&["bench", "--gate", "-2"]).is_err());
    }

    #[test]
    fn parses_trace() {
        // Positional app, documented `stage=` filter form, window.
        match p(&[
            "trace",
            "gups",
            "--mode",
            "fbarre",
            "--window",
            "128",
            "--filter",
            "stage=ptw,fill",
            "--out",
            "/tmp/t.jsonl",
        ])
        .unwrap()
        {
            Command::Trace { run, out, opts } => {
                assert_eq!(run.specs, [AppId::Gups.spec()]);
                assert!(matches!(run.cfg.mode, TranslationMode::FBarre(_)));
                assert_eq!(out, std::path::PathBuf::from("/tmp/t.jsonl"));
                assert_eq!(opts.window, 128);
                assert!(opts.filter.contains(barre_trace::Stage::Ptw));
                assert!(!opts.filter.contains(barre_trace::Stage::TlbL1));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --app form and defaults.
        match p(&["trace", "--app", "gemv"]).unwrap() {
            Command::Trace { run, out, opts } => {
                assert_eq!(run.specs, [AppId::Gemv.spec()]);
                assert_eq!(out, std::path::PathBuf::from("trace.json"));
                assert_eq!(opts.window, 65_536);
                assert!(opts.filter.contains(barre_trace::Stage::TlbL1));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["trace"]).is_err());
        assert!(p(&["trace", "nosuch"]).is_err());
        assert!(p(&["trace", "gups", "--filter", "warp-core"]).is_err());
        assert!(p(&["trace", "gups", "--window", "0"]).is_err());
        assert!(p(&["trace", "gups", "--app", "gemv"]).is_err());
    }

    #[test]
    fn parses_report() {
        match p(&["report", "trace.json"]).unwrap() {
            Command::Report { input, top } => {
                assert_eq!(input, std::path::PathBuf::from("trace.json"));
                assert_eq!(top, trace_cmd::DEFAULT_TOP);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["report", "--top", "3", "sweep-journal"]).unwrap() {
            Command::Report { input, top } => {
                assert_eq!(input, std::path::PathBuf::from("sweep-journal"));
                assert_eq!(top, 3);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["report"]).is_err());
        assert!(p(&["report", "a", "b"]).is_err());
        assert!(p(&["report", "--top", "many", "t.json"]).is_err());
    }

    #[test]
    fn parses_bench_diff() {
        match p(&["report", "--bench-diff", "old.json", "new.json"]).unwrap() {
            Command::BenchDiff {
                old,
                new,
                threshold,
            } => {
                assert_eq!(old, std::path::PathBuf::from("old.json"));
                assert_eq!(new, std::path::PathBuf::from("new.json"));
                assert_eq!(threshold, DEFAULT_BENCH_DIFF_THRESHOLD);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["report", "--bench-diff", "a", "b", "--threshold", "1.1"]).unwrap() {
            Command::BenchDiff { threshold, .. } => assert_eq!(threshold, 1.1),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["report", "--bench-diff", "only-one"]).is_err());
        assert!(p(&["report", "--bench-diff", "a", "b", "c"]).is_err());
        assert!(p(&["report", "--bench-diff", "a", "b", "--threshold", "0"]).is_err());
        // --threshold without --bench-diff is rejected.
        assert!(p(&["report", "t.json", "--threshold", "1.2"]).is_err());
    }

    #[test]
    fn parses_lint() {
        match p(&["lint"]).unwrap() {
            Command::Lint { opts } => {
                assert_eq!(opts.root, std::path::PathBuf::from("."));
                assert!(!opts.json && !opts.sarif && !opts.fix);
                assert_eq!(opts.max_waivers, 5);
                assert!(opts.baseline.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["lint", "--json", "--root", "/tmp/ws"]).unwrap() {
            Command::Lint { opts } => {
                assert_eq!(opts.root, std::path::PathBuf::from("/tmp/ws"));
                assert!(opts.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["lint", "--root"]).is_err());
    }

    #[test]
    fn parses_lint_analyzer_flags() {
        match p(&[
            "lint",
            "--sarif",
            "--baseline",
            "bl.json",
            "--changed-since",
            "origin/main",
            "--max-waivers",
            "9",
            "--parallel-readiness",
        ])
        .unwrap()
        {
            Command::Lint { opts } => {
                assert!(opts.sarif && opts.readiness);
                assert_eq!(opts.baseline, Some(std::path::PathBuf::from("bl.json")));
                assert_eq!(opts.changed_since.as_deref(), Some("origin/main"));
                assert_eq!(opts.max_waivers, 9);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --json and --sarif are two serializations of the same report.
        assert!(p(&["lint", "--json", "--sarif"]).is_err());
        assert!(p(&["lint", "--no-baseline", "--baseline", "b.json"]).is_err());
        assert!(p(&["lint", "--max-waivers", "lots"]).is_err());
        assert!(p(&["lint", "--frobnicate"]).is_err());
    }
}
