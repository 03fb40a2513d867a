//! `barre-analysis`: in-tree determinism & panic-safety analyzer.
//!
//! The paper's headline property is bit-for-bit reproducible simulation;
//! this crate is the static pass that keeps the codebase honest about
//! it. It runs in two layers over a single lex of each file:
//!
//! 1. **Token rules** ([`rules`]): D001–D005, P001, C001/C002, W001,
//!    A001 — pattern matches over the comment/string-stripped token
//!    stream.
//! 2. **Index passes** ([`passes`]): a hand-rolled item-level parser
//!    ([`parser`]) builds a workspace symbol index ([`index`]) and an
//!    approximate call graph ([`callgraph`]), powering P002
//!    (interprocedural panic reachability with printed call paths),
//!    D004 (floats in sim-state structs) and R001 (the
//!    parallel-readiness audit gating ROADMAP item 2).
//!
//! Findings can be silenced three ways, in increasing blast radius:
//! an inline `// barre:allow(RULE) <reason>` waiver, an entry in
//! `lint-baseline.json` ([`baseline`], keyed line-independently), or a
//! rule-level fix via `barre lint --fix` ([`fix`]). Output renders as
//! human text, `barre-lint/2` JSON ([`report`]) or SARIF 2.1.0
//! ([`sarif`]). Zero external dependencies by design — the workspace
//! builds offline.
//!
//! Run it via `barre lint`; see DESIGN.md §4.11 for the architecture
//! and the full rule table.

pub mod baseline;
pub mod callgraph;
pub mod fix;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;
pub mod rules;
pub mod sarif;

pub use baseline::{Baseline, BaselineEntry};
pub use passes::{Readiness, WaivedFinding};
pub use report::{render_human, render_json};
pub use rules::{lint_source, Diagnostic, FileLint};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Options for a workspace analysis run.
#[derive(Default)]
pub struct AnalyzeOptions {
    /// Accepted findings to subtract from the report.
    pub baseline: Option<Baseline>,
}

/// Aggregated result of analyzing a whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Active (unwaived, unbaselined) violations, ordered by
    /// (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Violations silenced by justified waivers.
    pub waived: usize,
    /// Violations matched by the baseline file.
    pub baselined: usize,
    /// Baseline entries that matched nothing (prune candidates).
    pub stale_baseline: Vec<BaselineEntry>,
    /// Waived index-pass findings with their reasons (feeds the
    /// `--parallel-readiness` report).
    pub waived_findings: Vec<WaivedFinding>,
    /// R001 audit summary.
    pub readiness: Readiness,
}

impl LintReport {
    /// Whether the workspace is clean (no active violations).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Directories never descended into: build output, VCS metadata, and the
/// linter's own rule fixtures (which contain violations on purpose).
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures"];

/// Analyzes a set of in-memory sources: token rules per file, then the
/// index passes across all of them, then baseline subtraction. `sources`
/// are `(workspace-relative path, contents)` pairs; callers sort them
/// for deterministic output.
pub fn analyze_sources(sources: &[(String, String)], opts: &AnalyzeOptions) -> LintReport {
    let mut report = LintReport {
        files_scanned: sources.len(),
        ..LintReport::default()
    };

    // One lex + parse per file, shared by both layers.
    let idx = index::SymbolIndex::build(sources);

    let mut all: Vec<Diagnostic> = Vec::new();
    for entry in &idx.files {
        let fl = rules::lint_lexed(&entry.path, &entry.lex, &entry.test_mask);
        report.waived += fl.waived;
        all.extend(fl.diagnostics);
    }

    let passes = passes::run(&idx);
    report.waived += passes.waived.len();
    report.waived_findings = passes.waived;
    report.readiness = passes.readiness;
    all.extend(passes.diagnostics);

    if let Some(bl) = &opts.baseline {
        let (active, baselined, stale) = baseline::apply(all, bl);
        all = active;
        report.baselined = baselined;
        report.stale_baseline = stale;
    }

    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.diagnostics = all;
    report
}

/// Analyzes every `.rs` file under `root` (a workspace checkout).
///
/// Files are visited in sorted path order so the report is deterministic.
///
/// # Errors
///
/// Propagates I/O errors from directory walking or file reads. A file
/// that is not valid UTF-8 is reported as an `InvalidData` error.
pub fn analyze_workspace(root: &Path, opts: &AnalyzeOptions) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_str()
            .map(|s| s.replace('\\', "/"))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 path"))?;
        sources.push((rel_str, src));
    }
    Ok(analyze_sources(&sources, opts))
}

/// Recursively collects `.rs` files below `dir`, storing paths relative
/// to `root`. Directory entries are sorted before descending so the walk
/// order never depends on the filesystem.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_starts_clean() {
        let r = LintReport::default();
        assert!(r.is_clean());
        assert_eq!(r.files_scanned, 0);
    }

    #[test]
    fn analyze_sources_merges_token_and_index_passes() {
        let sources = vec![
            (
                "crates/system/src/machine.rs".to_string(),
                "pub struct Machine { m: HashMap<u64, u64> }\n".to_string(),
            ),
            (
                "crates/sim/src/s.rs".to_string(),
                "pub struct SimStats { rate: f64 }\n".to_string(),
            ),
        ];
        let r = analyze_sources(&sources, &AnalyzeOptions::default());
        let rules: Vec<&str> = r.diagnostics.iter().map(|d| d.rule).collect();
        // D001 (token) + A001 (token, undocumented pub in system) from
        // file 1; D004 (index pass) from file 2.
        assert!(rules.contains(&"D001"), "{rules:?}");
        assert!(rules.contains(&"D004"), "{rules:?}");
        assert_eq!(r.files_scanned, 2);
    }

    #[test]
    fn baseline_subtracts_and_reports_stale() {
        let sources = vec![(
            "crates/sim/src/s.rs".to_string(),
            "pub struct SimStats { rate: f64 }\n".to_string(),
        )];
        let bl = baseline::parse_baseline(&baseline::render_baseline(&[
            BaselineEntry {
                rule: "D004".to_string(),
                file: "crates/sim/src/s.rs".to_string(),
                symbol: "SimStats::rate".to_string(),
                justification: "derived output, never fed back into sim state".to_string(),
            },
            BaselineEntry {
                rule: "D004".to_string(),
                file: "crates/sim/src/gone.rs".to_string(),
                symbol: "Gone::x".to_string(),
                justification: "stale".to_string(),
            },
        ]))
        .expect("baseline parses");
        let r = analyze_sources(&sources, &AnalyzeOptions { baseline: Some(bl) });
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.baselined, 1);
        assert_eq!(r.stale_baseline.len(), 1);
        assert_eq!(r.stale_baseline[0].symbol, "Gone::x");
    }
}
