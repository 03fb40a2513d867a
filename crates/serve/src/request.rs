//! Request validation: one JSONL line in, one canonical job out.
//!
//! A request is a single JSON object. Recognized fields (all optional
//! except `app`):
//!
//! | field        | type          | meaning                                     |
//! |--------------|---------------|---------------------------------------------|
//! | `id`         | string ≤128   | opaque client tag, echoed in the response   |
//! | `app`        | string        | workload abbreviation (`barre list`)        |
//! | `mode`       | string        | translation mode label                      |
//! | `policy`     | string        | mapping policy label                        |
//! | `page_size`  | string        | `4k` / `64k` / `2m`                         |
//! | `ptws`       | int or `"inf"`| page-table walkers per chiplet              |
//! | `chiplets`   | int 1..=16    | chiplet count                               |
//! | `seed`       | int (u64)     | simulation seed                             |
//! | `smoke`      | bool          | small fast configuration                    |
//! | `paper`      | bool          | paper-scale configuration                   |
//! | `gmmu`       | bool          | IOMMU → GMMU                                |
//! | `migration`  | bool          | enable page migration                       |
//! | `frames`     | int 1..=65536 | physical frames per chiplet (capacity cap)  |
//! | `timeout_ms` | int           | per-request deadline override               |
//!
//! Unknown fields are rejected — a typo must fail loudly, not silently
//! run the wrong simulation. Numbers are bounded to what the model can
//! build: a GPU map holds at most 16 chiplets (more panics the model),
//! and each chiplet's frame allocator is a `frames`-long array, so an
//! unbounded `frames` could ask the daemon for terabytes, and a failed
//! allocation aborts the process where no panic handler can catch it.
//! Auto-sizing never needs more than 8,960 frames (the largest app at
//! 4 KiB pages on one chiplet).
//!
//! Validation resolves aliases (`fbarre2` → `fbarre`, `round-robin` →
//! `rr`, `4kb` → `4k`) and renders the request as a **canonical argv**
//! in a fixed flag order: the `barre run --metrics-json` command line
//! that computes the same metrics. The journal [`fingerprint`] of that
//! argv is the request's content address, so equal simulations collide
//! in the result cache no matter how the client spelled them. `id` and
//! `timeout_ms` are deliberately excluded from the argv: they change
//! how a request is handled, never what it computes.
//!
//! The machine itself comes from [`build_config`], the one function
//! that turns a preset and its overrides into a [`SystemConfig`] for
//! both `barre run` and `barre serve`.

use barre_system::journal::json_escape;
use barre_system::{fingerprint, FBarreConfig, MmuKind, SystemConfig, TranslationMode};
use barre_workloads::AppId;

/// Seed of a `barre run` without `--seed`, and of a request without
/// `seed`.
pub const DEFAULT_SEED: u64 = 0x15CA_2024;

/// Resolves an application by its Table I abbreviation.
pub fn app_by_name(name: &str) -> Option<AppId> {
    AppId::all().into_iter().find(|a| a.name() == name)
}

/// Resolves a translation mode label.
pub fn mode_by_name(name: &str) -> Option<TranslationMode> {
    Some(match name {
        "baseline" => TranslationMode::Baseline,
        "valkyrie" => TranslationMode::Valkyrie,
        "least" => TranslationMode::Least,
        "shared-l2" => TranslationMode::SharedL2Ideal,
        "barre" => TranslationMode::Barre,
        "fbarre" | "fbarre2" => TranslationMode::FBarre(FBarreConfig::default()),
        "fbarre1" | "fbarre-nomerge" => TranslationMode::FBarre(FBarreConfig {
            max_merged: 1,
            ..FBarreConfig::default()
        }),
        "fbarre4" => TranslationMode::FBarre(FBarreConfig {
            max_merged: 4,
            ..FBarreConfig::default()
        }),
        _ => return None,
    })
}

/// Resolves a mapping policy label.
pub fn policy_by_name(name: &str) -> Option<barre_mapping::PolicyKind> {
    Some(match name {
        "lasp" => barre_mapping::PolicyKind::Lasp,
        "coda" => barre_mapping::PolicyKind::Coda,
        "rr" | "round-robin" => barre_mapping::PolicyKind::RoundRobin,
        "chunking" => barre_mapping::PolicyKind::Chunking,
        _ => return None,
    })
}

/// Resolves a page-size label.
pub fn page_size_by_name(name: &str) -> Option<barre_mem::PageSize> {
    Some(match name {
        "4k" | "4kb" => barre_mem::PageSize::Size4K,
        "64k" | "64kb" => barre_mem::PageSize::Size64K,
        "2m" | "2mb" => barre_mem::PageSize::Size2M,
        _ => return None,
    })
}

/// The machine a command line describes: the `--paper`/`--smoke`
/// preset first, then every override on top of it, whatever order they
/// were given in. `flags` are `(flag, value)` pairs in command-line
/// order, the last value of a repeated flag winning; flags that do not
/// describe the machine (`--app`, `--seed`, …) are ignored.
///
/// # Errors
///
/// Both presets, or the first unknown label or malformed number.
pub fn build_config(flags: &[(&str, Option<&str>)]) -> Result<SystemConfig, String> {
    let has = |flag: &str| flags.iter().any(|(f, _)| *f == flag);
    let last_value = |flag: &str| {
        flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    };
    let number = |flag: &str, what: &str| -> Result<Option<usize>, String> {
        last_value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad {what} {v}")))
            .transpose()
    };
    let mut cfg = match (has("--paper"), has("--smoke")) {
        (true, true) => return Err("--paper and --smoke are mutually exclusive".to_string()),
        (true, false) => SystemConfig::paper(),
        (false, true) => barre_system::smoke_config(),
        (false, false) => SystemConfig::scaled(),
    };
    if let Some(v) = last_value("--mode") {
        cfg.mode = mode_by_name(v).ok_or_else(|| format!("unknown mode {v}"))?;
    }
    if let Some(v) = last_value("--policy") {
        cfg.policy = policy_by_name(v).ok_or_else(|| format!("unknown policy {v}"))?;
    }
    if let Some(v) = last_value("--page-size") {
        cfg.page_size = page_size_by_name(v).ok_or_else(|| format!("unknown page size {v}"))?;
    }
    if last_value("--ptws") == Some("inf") {
        cfg.ptws = None;
    } else if let Some(n) = number("--ptws", "PTW count")? {
        cfg.ptws = Some(n);
    }
    if let Some(n) = number("--chiplets", "chiplet count")? {
        cfg.topology = cfg.topology.with_chiplets(n);
    }
    match number("--frames", "frame count")? {
        Some(0) => return Err("--frames must be at least 1".to_string()),
        n @ Some(_) => cfg.frames_per_chiplet = n,
        None => {}
    }
    if has("--gmmu") {
        cfg.mmu = MmuKind::Gmmu;
    }
    if has("--migration") {
        cfg.migration = Some(Default::default());
    }
    Ok(cfg)
}

/// Canonical mode, policy and page-size spellings, one per value.
const MODES: [&str; 8] = [
    "baseline",
    "valkyrie",
    "least",
    "shared-l2",
    "barre",
    "fbarre",
    "fbarre1",
    "fbarre4",
];
const POLICIES: [&str; 4] = ["lasp", "coda", "rr", "chunking"];
const PAGE_SIZES: [&str; 3] = ["4k", "64k", "2m"];

/// Canonical spelling of a label: the one of `names` that `resolve`
/// maps to the same value, so aliases collapse and equal simulations
/// get equal fingerprints.
fn canonical<T: PartialEq>(
    name: &str,
    names: &[&'static str],
    resolve: fn(&str) -> Option<T>,
) -> Option<&'static str> {
    let value = resolve(name)?;
    names
        .iter()
        .copied()
        .find(|n| resolve(n).as_ref() == Some(&value))
}

/// A validated request, ready to enqueue: the simulation it asks for,
/// its canonical argv and fingerprint (the cache key), and the
/// handling-only fields that stay out of the fingerprint.
#[derive(Debug, Clone)]
pub struct ValidRequest {
    /// Client-supplied tag, echoed in every response to this request.
    pub id: Option<String>,
    /// Human label (`"gups/barre"`; `"gups/default"` without a mode).
    pub label: String,
    /// The `barre run --metrics-json` command line (after the binary
    /// name) that computes the same metrics, in canonical flag order.
    pub argv: Vec<String>,
    /// Journal fingerprint of `argv` — the content address.
    pub fingerprint: String,
    /// Application to simulate.
    pub app: AppId,
    /// Machine to simulate it on ([`build_config`] over `argv`'s flags).
    pub cfg: Box<SystemConfig>,
    /// Simulation seed.
    pub seed: u64,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

#[derive(Default)]
struct Fields {
    id: Option<String>,
    app: Option<AppId>,
    mode: Option<String>,
    policy: Option<String>,
    page_size: Option<String>,
    ptws: Option<String>,
    chiplets: Option<u64>,
    seed: Option<u64>,
    frames: Option<u64>,
    timeout_ms: Option<u64>,
    smoke: bool,
    paper: bool,
    gmmu: bool,
    migration: bool,
}

fn want_str(key: &str, v: &barre_system::Json) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key} must be a string"))
}

fn want_u64(key: &str, v: &barre_system::Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("field {key} must be a non-negative integer"))
}

fn want_bool(key: &str, v: &barre_system::Json) -> Result<bool, String> {
    match v {
        barre_system::Json::Bool(b) => Ok(*b),
        _ => Err(format!("field {key} must be a boolean")),
    }
}

/// The most chiplets a GPU map holds.
const MAX_CHIPLETS: u64 = 16;

/// The most physical frames per chiplet a request may ask for.
const MAX_FRAMES: u64 = 65_536;

/// Parses and validates one request line into a canonical job.
///
/// # Errors
///
/// A human-readable description of the first problem (returned to the
/// client in a `400`-style response).
pub fn parse_request(line: &str) -> Result<ValidRequest, String> {
    let v = barre_system::Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let pairs = v.as_obj().ok_or("request must be a JSON object")?;
    let mut f = Fields::default();
    for (k, val) in pairs {
        match k.as_str() {
            "id" => {
                let id = want_str(k, val)?;
                if id.len() > 128 {
                    return Err("field id longer than 128 bytes".to_string());
                }
                if id.chars().any(|c| (c as u32) < 0x20) {
                    return Err("field id contains control characters".to_string());
                }
                f.id = Some(id);
            }
            "app" => {
                let name = want_str(k, val)?;
                f.app = Some(app_by_name(&name).ok_or_else(|| format!("unknown app {name}"))?);
            }
            "mode" => {
                let name = want_str(k, val)?;
                f.mode = Some(
                    canonical(&name, &MODES, mode_by_name)
                        .ok_or_else(|| format!("unknown mode {name}"))?
                        .to_string(),
                );
            }
            "policy" => {
                let name = want_str(k, val)?;
                f.policy = Some(
                    canonical(&name, &POLICIES, policy_by_name)
                        .ok_or_else(|| format!("unknown policy {name}"))?
                        .to_string(),
                );
            }
            "page_size" => {
                let name = want_str(k, val)?;
                f.page_size = Some(
                    canonical(&name, &PAGE_SIZES, page_size_by_name)
                        .ok_or_else(|| format!("unknown page size {name}"))?
                        .to_string(),
                );
            }
            "ptws" => match val {
                barre_system::Json::Str(s) if s == "inf" => f.ptws = Some("inf".to_string()),
                _ => {
                    let n = val
                        .as_u64()
                        .ok_or("field ptws must be a positive integer or \"inf\"")?;
                    if n == 0 || n > 65_536 {
                        return Err(format!("ptws {n} outside 1..=65536 (or \"inf\")"));
                    }
                    f.ptws = Some(n.to_string());
                }
            },
            "chiplets" => {
                let n = want_u64(k, val)?;
                if !(1..=MAX_CHIPLETS).contains(&n) {
                    return Err(format!("chiplets {n} outside 1..={MAX_CHIPLETS}"));
                }
                f.chiplets = Some(n);
            }
            "seed" => f.seed = Some(want_u64(k, val)?),
            "frames" => {
                let n = want_u64(k, val)?;
                if n == 0 {
                    return Err("frames must be at least 1".to_string());
                }
                if n > MAX_FRAMES {
                    return Err(format!("frames {n} above {MAX_FRAMES}"));
                }
                f.frames = Some(n);
            }
            "timeout_ms" => {
                let n = want_u64(k, val)?;
                if n == 0 || n > 3_600_000 {
                    return Err(format!("timeout_ms {n} outside 1..=3600000"));
                }
                f.timeout_ms = Some(n);
            }
            "smoke" => f.smoke = want_bool(k, val)?,
            "paper" => f.paper = want_bool(k, val)?,
            "gmmu" => f.gmmu = want_bool(k, val)?,
            "migration" => f.migration = want_bool(k, val)?,
            other => return Err(format!("unknown field {other}")),
        }
    }
    let app = f.app.ok_or("missing required field app")?;
    let name = app.name();
    if f.smoke && f.paper {
        return Err("smoke and paper are mutually exclusive".to_string());
    }
    // Canonical flags: fixed order, so fingerprints are a pure function
    // of request *content*.
    let switch = |on: bool, flag: &'static str| on.then_some((flag, None));
    let flags: Vec<(&str, Option<String>)> = [
        Some(("--metrics-json", None)),
        switch(f.smoke, "--smoke"),
        switch(f.paper, "--paper"),
        Some(("--app", Some(name.to_string()))),
        f.mode.clone().map(|m| ("--mode", Some(m))),
        f.policy.map(|p| ("--policy", Some(p))),
        f.page_size.map(|p| ("--page-size", Some(p))),
        f.ptws.map(|p| ("--ptws", Some(p))),
        f.chiplets.map(|c| ("--chiplets", Some(c.to_string()))),
        switch(f.gmmu, "--gmmu"),
        switch(f.migration, "--migration"),
        f.frames.map(|n| ("--frames", Some(n.to_string()))),
        f.seed.map(|s| ("--seed", Some(s.to_string()))),
    ]
    .into_iter()
    .flatten()
    .collect();
    let pairs: Vec<(&str, Option<&str>)> = flags.iter().map(|(k, v)| (*k, v.as_deref())).collect();
    let cfg = build_config(&pairs)?;
    let mut argv = vec!["run".to_string()];
    for (k, v) in flags {
        argv.push(k.to_string());
        argv.extend(v);
    }
    let parts: Vec<&str> = argv.iter().map(String::as_str).collect();
    let fp = fingerprint(&parts);
    let label = format!("{name}/{}", f.mode.as_deref().unwrap_or("default"));
    Ok(ValidRequest {
        id: f.id,
        label,
        argv,
        fingerprint: fp,
        app,
        cfg: Box::new(cfg),
        seed: f.seed.unwrap_or(DEFAULT_SEED),
        timeout_ms: f.timeout_ms,
    })
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn id_field(id: Option<&str>) -> String {
    match id {
        Some(id) => format!(",\"id\":{}", json_escape(id)),
        None => String::new(),
    }
}

/// Success response. `metrics_json` is the canonical [`RunMetrics`]
/// encoding — the whole line is a pure function of the request content,
/// which is what makes cache hits byte-identical to cold runs.
///
/// [`RunMetrics`]: barre_system::RunMetrics
pub fn render_ok(
    id: Option<&str>,
    fp: &str,
    label: &str,
    digest: &str,
    hist_digest: &str,
    metrics_json: &str,
) -> String {
    format!(
        "{{\"status\":\"ok\"{}{},\"label\":{},\"digest\":{},\"hist_digest\":{},\"metrics\":{}}}",
        id_field(id),
        format_args!(",\"fingerprint\":{}", json_escape(fp)),
        json_escape(label),
        json_escape(digest),
        json_escape(hist_digest),
        metrics_json
    )
}

/// Structured non-success response (`status` is one of `error`,
/// `failed`, `timeout`, `quarantined`, `draining`).
pub fn render_reject(id: Option<&str>, status: &str, code: u16, error: &str) -> String {
    format!(
        "{{\"status\":{}{},\"code\":{code},\"error\":{}}}",
        json_escape(status),
        id_field(id),
        json_escape(error)
    )
}

/// Load-shed response: the admission queue is full; retry after the
/// hinted delay.
pub fn render_shed(id: Option<&str>, retry_after_ms: u64) -> String {
    format!(
        "{{\"status\":\"shed\"{},\"code\":429,\"retry_after_ms\":{retry_after_ms}}}",
        id_field(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_parses_and_is_canonical() {
        let r = parse_request(r#"{"app":"gups"}"#).expect("parse");
        assert_eq!(r.label, "gups/default");
        assert_eq!(r.argv[0], "run");
        assert_eq!(r.argv[1], "--metrics-json");
        assert!(r.id.is_none() && r.timeout_ms.is_none());
    }

    #[test]
    fn aliases_collapse_to_one_fingerprint() {
        let a = parse_request(r#"{"app":"gups","mode":"fbarre","page_size":"4k","policy":"rr"}"#)
            .expect("a");
        let b = parse_request(
            r#"{"policy":"round-robin","page_size":"4kb","mode":"fbarre2","app":"gups"}"#,
        )
        .expect("b");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.argv, b.argv);
    }

    #[test]
    fn id_and_timeout_do_not_change_the_fingerprint() {
        let a = parse_request(r#"{"app":"gemv","smoke":true}"#).expect("a");
        let b =
            parse_request(r#"{"id":"x-1","app":"gemv","smoke":true,"timeout_ms":500}"#).expect("b");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(b.id.as_deref(), Some("x-1"));
        assert_eq!(b.timeout_ms, Some(500));
    }

    #[test]
    fn different_content_means_different_fingerprints() {
        let a = parse_request(r#"{"app":"gemv","seed":1}"#).expect("a");
        let b = parse_request(r#"{"app":"gemv","seed":2}"#).expect("b");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"mode":"barre"}"#,
            r#"{"app":"nosuch"}"#,
            r#"{"app":"gups","mode":"warp-drive"}"#,
            r#"{"app":"gups","typo_field":1}"#,
            r#"{"app":"gups","smoke":true,"paper":true}"#,
            r#"{"app":"gups","chiplets":0}"#,
            r#"{"app":"gups","chiplets":17}"#,
            r#"{"app":"gups","chiplets":64}"#,
            r#"{"app":"gups","ptws":0}"#,
            r#"{"app":"gups","frames":0}"#,
            r#"{"app":"gups","frames":65537}"#,
            r#"{"app":"gups","smoke":true,"frames":35184372088832}"#,
            r#"{"app":"gups","timeout_ms":0}"#,
            r#"{"app":"gups","smoke":"yes"}"#,
            r#"{"app":"gups","id":"a\tb"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ptws_inf_and_numbers_parse() {
        let a = parse_request(r#"{"app":"gups","ptws":"inf"}"#).expect("inf");
        assert!(a.argv.contains(&"inf".to_string()));
        let b = parse_request(r#"{"app":"gups","ptws":8}"#).expect("8");
        assert!(b.argv.contains(&"8".to_string()));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn name_helpers_cover_all_labels() {
        for m in MODES {
            assert!(mode_by_name(m).is_some(), "{m}");
            assert_eq!(canonical(m, &MODES, mode_by_name), Some(m));
        }
        for p in POLICIES {
            assert!(policy_by_name(p).is_some(), "{p}");
            assert_eq!(canonical(p, &POLICIES, policy_by_name), Some(p));
        }
        for s in PAGE_SIZES {
            assert!(page_size_by_name(s).is_some(), "{s}");
            assert_eq!(canonical(s, &PAGE_SIZES, page_size_by_name), Some(s));
        }
        for (alias, name) in [("fbarre2", "fbarre"), ("fbarre-nomerge", "fbarre1")] {
            assert_eq!(canonical(alias, &MODES, mode_by_name), Some(name));
        }
        assert_eq!(
            canonical("round-robin", &POLICIES, policy_by_name),
            Some("rr")
        );
        assert_eq!(canonical("2mb", &PAGE_SIZES, page_size_by_name), Some("2m"));
        assert_eq!(canonical("warp", &MODES, mode_by_name), None);
    }

    #[test]
    fn responses_are_single_json_lines() {
        for line in [
            render_ok(Some("i1"), "f", "gups/barre", "d", "h", "{}"),
            render_reject(None, "error", 400, "unknown app zz"),
            render_shed(Some("i2"), 1500),
        ] {
            assert!(!line.contains('\n'));
            assert!(barre_system::Json::parse(&line).is_ok(), "{line}");
        }
    }
}
