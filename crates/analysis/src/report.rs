//! Rendering a [`LintReport`](crate::LintReport) for humans and machines.
//!
//! The JSON writer is hand-rolled (the workspace is dependency-free); the
//! output shape is versioned as **`barre-lint/2`** and stable:
//!
//! ```json
//! {
//!   "schema": "barre-lint/2",
//!   "files_scanned": 42,
//!   "waived": 3,
//!   "baselined": 7,
//!   "diagnostics": [
//!     {"file": "crates/x/src/y.rs", "line": 7, "rule": "D001",
//!      "message": "…", "suggestion": "…", "symbol": ""}
//!   ]
//! }
//! ```
//!
//! Schema history: `barre-lint/1` (implicit, PR 2–6) had no `schema`,
//! `baselined`, or `symbol` members; `/2` adds them. Consumers should
//! treat an absent `schema` as `/1`.

use crate::LintReport;
use barre_trace::json::json_escape;
use std::fmt::Write as _;

/// Human-readable report: one `file:line: [RULE] message` block per
/// diagnostic, stale-baseline warnings, then a summary line.
pub fn render_human(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(out, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
        let _ = writeln!(out, "    fix: {}", d.suggestion);
    }
    for e in &report.stale_baseline {
        let _ = writeln!(
            out,
            "warning: stale baseline entry {} {} `{}` matches nothing — prune it",
            e.rule, e.file, e.symbol
        );
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned, {} violation(s), {} waived, {} baselined",
        report.files_scanned,
        report.diagnostics.len(),
        report.waived,
        report.baselined
    );
    out
}

/// Machine-readable report (single JSON object, trailing newline).
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"barre-lint/2\",\n");
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"waived\": {},", report.waived);
    let _ = writeln!(out, "  \"baselined\": {},", report.baselined);
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"suggestion\": {}, \
             \"symbol\": {}",
            json_escape(&d.file),
            d.line,
            json_escape(d.rule),
            json_escape(&d.message),
            json_escape(d.suggestion),
            json_escape(&d.symbol)
        );
        out.push('}');
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// The `--parallel-readiness` section: the R001 audit as a go/no-go
/// artifact for ROADMAP item 2 (deterministic chiplet partitioning).
pub fn render_readiness(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("parallel-readiness audit (R001)\n");
    if report.readiness.roots.is_empty() {
        out.push_str("  roots: none found — is this a workspace checkout?\n");
    }
    for r in &report.readiness.roots {
        let _ = writeln!(out, "  root: {r}");
    }
    let _ = writeln!(out, "  types audited: {}", report.readiness.types_audited);
    let active: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "R001")
        .collect();
    let _ = writeln!(out, "  active findings: {}", active.len());
    for d in &active {
        let _ = writeln!(
            out,
            "    {}:{} {} — {}",
            d.file, d.line, d.symbol, d.message
        );
    }
    let waived: Vec<_> = report
        .waived_findings
        .iter()
        .filter(|w| w.rule == "R001")
        .collect();
    let _ = writeln!(out, "  waived findings: {}", waived.len());
    for w in &waived {
        let _ = writeln!(
            out,
            "    {}:{} {} — waived: {}",
            w.file, w.line, w.symbol, w.reason
        );
    }
    let verdict = if active.is_empty() {
        if waived.is_empty() {
            "READY (no interior mutability reachable from Machine)"
        } else {
            "READY (every finding waived with a justification)"
        }
    } else {
        "NOT READY (active findings above must be fixed or waived)"
    };
    let _ = writeln!(out, "  verdict: {verdict}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::WaivedFinding;
    use crate::rules::Diagnostic;
    use barre_trace::json::Json;

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![Diagnostic {
                file: "crates/x/src/y.rs".to_string(),
                line: 7,
                rule: "D001",
                message: "a \"quoted\" message".to_string(),
                suggestion: "fix it",
                symbol: String::new(),
            }],
            files_scanned: 3,
            waived: 1,
            baselined: 2,
            ..LintReport::default()
        }
    }

    #[test]
    fn human_report_mentions_rule_and_location() {
        let s = render_human(&sample());
        assert!(s.contains("crates/x/src/y.rs:7: [D001]"));
        assert!(s.contains("3 file(s) scanned, 1 violation(s), 1 waived, 2 baselined"));
    }

    #[test]
    fn json_is_schema_v2_and_escapes() {
        let s = render_json(&sample());
        assert!(s.contains("\"schema\": \"barre-lint/2\""));
        assert!(s.contains("\"files_scanned\": 3"));
        assert!(s.contains("\"baselined\": 2"));
        assert!(s.contains("\"rule\": \"D001\""));
        assert!(s.contains("a \\\"quoted\\\" message"));
        // It must parse with the in-tree reader.
        let v = Json::parse(&s).expect("self-parse");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("barre-lint/2"));
    }

    #[test]
    fn json_empty_diagnostics_is_an_empty_array() {
        let r = LintReport::default();
        let s = render_json(&r);
        assert!(s.contains("\"diagnostics\": []"));
    }

    #[test]
    fn readiness_verdicts() {
        let mut r = LintReport::default();
        r.readiness
            .roots
            .push("Machine (crates/system/src/machine.rs)".to_string());
        r.readiness.types_audited = 5;
        assert!(render_readiness(&r).contains("verdict: READY (no interior"));

        r.waived_findings.push(WaivedFinding {
            rule: "R001",
            file: "crates/sim/src/c.rs".to_string(),
            line: 4,
            symbol: "C::cell".to_string(),
            reason: "single-threaded until item 2 lands".to_string(),
        });
        let s = render_readiness(&r);
        assert!(s.contains("verdict: READY (every finding waived"));
        assert!(s.contains("C::cell — waived: single-threaded"));

        r.diagnostics.push(Diagnostic {
            file: "crates/tlb/src/s.rs".to_string(),
            line: 9,
            rule: "R001",
            message: "`RefCell` in `TlbState::cache`".to_string(),
            suggestion: "own it",
            symbol: "TlbState::cache".to_string(),
        });
        assert!(render_readiness(&r).contains("verdict: NOT READY"));
    }

    #[test]
    fn stale_baseline_is_warned_in_human_output() {
        let mut r = LintReport::default();
        r.stale_baseline.push(crate::BaselineEntry {
            rule: "P002".to_string(),
            file: "crates/sim/src/gone.rs".to_string(),
            symbol: "gone".to_string(),
            justification: "x".to_string(),
        });
        let s = render_human(&r);
        assert!(s.contains("stale baseline entry P002"));
    }
}
