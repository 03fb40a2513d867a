//! The lint baseline: known findings accepted with a justification.
//!
//! `lint-baseline.json` lets a new rule land with the workspace's
//! pre-existing findings acknowledged instead of waived inline at every
//! site. Entries are keyed **line-independently** on
//! `(rule, file, symbol)` — `symbol` is the qualified item the
//! diagnostic anchors to (entry fn, `Struct::field`, global), falling
//! back to the message text for token-local rules — so ordinary edits
//! that shift line numbers do not invalidate the baseline, while moving
//! a finding to a new file or symbol surfaces it again.
//!
//! A baseline entry that matches nothing is *stale*: reported as a
//! warning so the file gets pruned, never as an error (deleting code
//! must not fail the lint).

use barre_trace::json::{json_escape, Json};

use crate::rules::Diagnostic;

/// One accepted finding.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Rule ID (`P002`, `D004`, …).
    pub rule: String,
    /// Workspace-relative file the finding anchors to.
    pub file: String,
    /// Qualified symbol (or message text for symbol-less rules).
    pub symbol: String,
    /// Why the finding is accepted.
    pub justification: String,
}

/// The parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Accepted findings, in file order.
    pub entries: Vec<BaselineEntry>,
}

/// The line-independent identity of a diagnostic for baseline matching.
pub fn key_of(d: &Diagnostic) -> (String, String, String) {
    let symbol = if d.symbol.is_empty() {
        d.message.clone()
    } else {
        d.symbol.clone()
    };
    (d.rule.to_string(), d.file.clone(), symbol)
}

/// Parses `lint-baseline.json`. Unknown fields are ignored so the
/// format can grow; missing required fields are an error.
pub fn parse_baseline(src: &str) -> Result<Baseline, String> {
    let doc = Json::parse(src).map_err(|e| format!("baseline: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "barre-lint-baseline/1" {
        return Err(format!(
            "baseline: unsupported schema `{schema}` (want barre-lint-baseline/1)"
        ));
    }
    let Some(items) = doc.get("findings").and_then(Json::as_arr) else {
        return Err("baseline: missing `findings` array".to_string());
    };
    let mut entries = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |k: &str| -> Result<String, String> {
            item.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline: finding {i} missing `{k}`"))
        };
        entries.push(BaselineEntry {
            rule: field("rule")?,
            file: field("file")?,
            symbol: field("symbol")?,
            justification: field("justification")?,
        });
    }
    Ok(Baseline { entries })
}

/// Serialises a baseline (stable order: file, rule, symbol) for
/// `--write-baseline`.
pub fn render_baseline(entries: &[BaselineEntry]) -> String {
    let mut sorted: Vec<&BaselineEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| (&a.file, &a.rule, &a.symbol).cmp(&(&b.file, &b.rule, &b.symbol)));
    sorted.dedup_by(|a, b| (&a.file, &a.rule, &a.symbol) == (&b.file, &b.rule, &b.symbol));
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"barre-lint-baseline/1\",\n  \"findings\": [");
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"symbol\": {}, \"justification\": {}}}",
            json_escape(&e.rule),
            json_escape(&e.file),
            json_escape(&e.symbol),
            json_escape(&e.justification)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Splits diagnostics into (active, baselined) against the baseline and
/// returns the stale entries that matched nothing.
pub fn apply(
    diagnostics: Vec<Diagnostic>,
    baseline: &Baseline,
) -> (Vec<Diagnostic>, usize, Vec<BaselineEntry>) {
    let mut used = vec![false; baseline.entries.len()];
    let mut active = Vec::new();
    let mut baselined = 0usize;
    for d in diagnostics {
        let (rule, file, symbol) = key_of(&d);
        let hit = baseline
            .entries
            .iter()
            .position(|e| e.rule == rule && e.file == file && e.symbol == symbol);
        match hit {
            Some(i) => {
                used[i] = true;
                // Every entry covers all diagnostics with its key, so a
                // fn with two identical-symbol findings needs one entry.
                if let Some(more) = baseline.entries.iter().enumerate().find(|(j, e)| {
                    *j != i && !used[*j] && e.rule == rule && e.file == file && e.symbol == symbol
                }) {
                    used[more.0] = true;
                }
                baselined += 1;
            }
            None => active.push(d),
        }
    }
    let stale = baseline
        .entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.clone())
        .collect();
    (active, baselined, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, symbol: &str, line: u32) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message: format!("finding in {symbol}"),
            suggestion: "",
            symbol: symbol.to_string(),
        }
    }

    #[test]
    fn roundtrip_and_line_independent_matching() {
        let entries = vec![BaselineEntry {
            rule: "P002".to_string(),
            file: "crates/system/src/machine.rs".to_string(),
            symbol: "Machine::step".to_string(),
            justification: "indexing bounded by chiplet count".to_string(),
        }];
        let text = render_baseline(&entries);
        let parsed = parse_baseline(&text).expect("parses");
        assert_eq!(parsed.entries, entries);

        // Line number differs from whatever it was when baselined.
        let diags = vec![
            diag("P002", "crates/system/src/machine.rs", "Machine::step", 991),
            diag("P002", "crates/system/src/machine.rs", "Machine::run", 10),
        ];
        let (active, baselined, stale) = apply(diags, &parsed);
        assert_eq!(baselined, 1);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].symbol, "Machine::run");
        assert!(stale.is_empty());
    }

    #[test]
    fn stale_entries_are_reported_not_fatal() {
        let parsed = parse_baseline(&render_baseline(&[BaselineEntry {
            rule: "D004".to_string(),
            file: "crates/sim/src/gone.rs".to_string(),
            symbol: "Gone::f".to_string(),
            justification: "was removed".to_string(),
        }]))
        .expect("parses");
        let (active, baselined, stale) = apply(Vec::new(), &parsed);
        assert!(active.is_empty());
        assert_eq!(baselined, 0);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].symbol, "Gone::f");
    }

    #[test]
    fn symbol_less_rules_fall_back_to_message() {
        let d = Diagnostic {
            file: "crates/sim/src/x.rs".to_string(),
            line: 7,
            rule: "D001",
            message: "HashMap in a sim-facing crate".to_string(),
            suggestion: "",
            symbol: String::new(),
        };
        let (_, _, sym) = key_of(&d);
        assert_eq!(sym, "HashMap in a sim-facing crate");
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(parse_baseline(r#"{"schema": "nope", "findings": []}"#).is_err());
    }
}
