//! SARIF 2.1.0 export for GitHub code scanning.
//!
//! `barre lint --sarif` emits one run with the full rule table and one
//! result per *active* diagnostic (waived and baselined findings are by
//! definition accepted, so they stay out of code scanning). The
//! structure follows the SARIF 2.1.0 schema's required core: tool
//! driver with rule metadata, results with `ruleId` / `message` /
//! `physicalLocation`. [`validate`] re-parses an export and checks that
//! core structurally — the offline stand-in for a schema validator,
//! exercised by the test suite against a golden file.

use barre_trace::json::{json_escape, Json};

use crate::rules::Diagnostic;

/// The registered rule table: (id, short description). Every rule the
/// engine can emit must appear here — SARIF results whose `ruleId` is
/// missing from the driver table render without metadata in most
/// viewers.
pub const RULES: &[(&str, &str)] = &[
    (
        "D001",
        "Hash-based collection in a sim-facing crate (iteration order is nondeterministic)",
    ),
    ("D002", "Wall-clock read outside bench/cli/serve code"),
    (
        "D003",
        "Ambient entropy source (only the in-tree seeded RNG is reproducible)",
    ),
    (
        "D004",
        "Float field in sim-state (accumulation order changes results across partitionings)",
    ),
    (
        "D005",
        "Relaxed or unsynchronized atomic in sim-state (racy under parallel execution)",
    ),
    ("P001", "Panicking call in non-test library code"),
    ("P002", "Public API whose call closure reaches a panic site"),
    ("C001", "Lossy cast on a cycle/address-typed expression"),
    ("C002", "Unchecked += accumulation on a long-lived counter"),
    ("W001", "Waiver without a justification"),
    ("A001", "Undocumented public item in an API crate"),
    (
        "R001",
        "Interior mutability or thread-affine state reachable from Machine",
    ),
];

/// Renders the diagnostics as a SARIF 2.1.0 document.
pub fn render(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::with_capacity(4096 + diagnostics.len() * 256);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"barre-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/barre\",\n");
    out.push_str(&format!(
        "          \"version\": {},\n",
        json_escape(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"rules\": [");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_escape(id),
            json_escape(desc)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let text = if d.symbol.is_empty() {
            d.message.clone()
        } else {
            format!("{} [{}]", d.message, d.symbol)
        };
        out.push_str(&format!(
            "\n        {{\"ruleId\": {rule}, \"level\": \"warning\", \
             \"message\": {{\"text\": {msg}}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": {uri}, \"uriBaseId\": \"%SRCROOT%\"}}, \
             \"region\": {{\"startLine\": {line}}}}}}}]}}",
            rule = json_escape(d.rule),
            msg = json_escape(&text),
            uri = json_escape(&d.file),
            line = d.line.max(1)
        ));
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

/// Structurally validates a SARIF document against the 2.1.0 core:
/// version string, runs array, driver with named tool and rule ids,
/// results whose `ruleId` is registered and whose locations carry a
/// physical artifact + positive start line. Returns the first problem.
pub fn validate(src: &str) -> Result<(), String> {
    let doc = Json::parse(src).map_err(|e| format!("sarif: not JSON: {e}"))?;
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("sarif: version must be \"2.1.0\"".to_string());
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("sarif: missing runs[]")?;
    if runs.is_empty() {
        return Err("sarif: runs[] is empty".to_string());
    }
    for run in runs {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or("sarif: run missing tool.driver")?;
        if driver.get("name").and_then(Json::as_str).is_none() {
            return Err("sarif: driver missing name".to_string());
        }
        let mut rule_ids = Vec::new();
        if let Some(rules) = driver.get("rules").and_then(Json::as_arr) {
            for r in rules {
                let id = r
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("sarif: rule missing id")?;
                if r.get("shortDescription")
                    .and_then(|s| s.get("text"))
                    .and_then(Json::as_str)
                    .is_none()
                {
                    return Err(format!("sarif: rule {id} missing shortDescription.text"));
                }
                rule_ids.push(id.to_string());
            }
        }
        let results = run
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("sarif: run missing results[]")?;
        for res in results {
            let rule = res
                .get("ruleId")
                .and_then(Json::as_str)
                .ok_or("sarif: result missing ruleId")?;
            if !rule_ids.iter().any(|r| r == rule) {
                return Err(format!("sarif: result ruleId {rule} not in driver rules"));
            }
            if res
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .is_none()
            {
                return Err("sarif: result missing message.text".to_string());
            }
            let locs = res
                .get("locations")
                .and_then(Json::as_arr)
                .ok_or("sarif: result missing locations[]")?;
            for loc in locs {
                let phys = loc
                    .get("physicalLocation")
                    .ok_or("sarif: location missing physicalLocation")?;
                if phys
                    .get("artifactLocation")
                    .and_then(|a| a.get("uri"))
                    .and_then(Json::as_str)
                    .is_none()
                {
                    return Err("sarif: physicalLocation missing artifactLocation.uri".to_string());
                }
                let line = phys
                    .get("region")
                    .and_then(|r| r.get("startLine"))
                    .and_then(Json::as_u64)
                    .ok_or("sarif: region missing startLine")?;
                if line == 0 {
                    return Err("sarif: startLine must be positive".to_string());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                file: "crates/sim/src/x.rs".to_string(),
                line: 12,
                rule: "D001",
                message: "HashMap in a sim-facing crate".to_string(),
                suggestion: "use BTreeMap",
                symbol: String::new(),
            },
            Diagnostic {
                file: "crates/system/src/machine.rs".to_string(),
                line: 40,
                rule: "P002",
                message: "call path: a -> b -> c (indexing at m.rs:9)".to_string(),
                suggestion: "bounds-check",
                symbol: "Machine::step".to_string(),
            },
        ]
    }

    #[test]
    fn render_validates() {
        let doc = render(&sample());
        validate(&doc).expect("structurally valid");
    }

    #[test]
    fn empty_report_validates() {
        validate(&render(&[])).expect("valid with zero results");
    }

    #[test]
    fn every_engine_rule_is_registered() {
        for id in [
            "D001", "D002", "D003", "D004", "D005", "P001", "P002", "C001", "C002", "W001", "A001",
            "R001",
        ] {
            assert!(RULES.iter().any(|(r, _)| *r == id), "missing {id}");
        }
    }

    #[test]
    fn validator_rejects_unregistered_rule_and_bad_line() {
        let doc = render(&[Diagnostic {
            file: "x.rs".to_string(),
            line: 1,
            rule: "Z999",
            message: "m".to_string(),
            suggestion: "",
            symbol: String::new(),
        }]);
        assert!(validate(&doc).is_err(), "Z999 is not a registered rule");
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"version": "2.1.0", "runs": []}"#).is_err());
    }
}
