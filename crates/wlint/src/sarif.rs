//! SARIF 2.1.0 emitter (`--sarif`) for GitHub code-scanning upload.
//!
//! Hand-built JSON against the minimal required surface of the schema:
//! `$schema`/`version`, one run with a tool driver declaring every rule,
//! and one `result` per violation (suppressed occurrences are included
//! with an `inSource` suppression object so the audit trail survives the
//! upload). Everything is emitted from pre-sorted vectors on one thread,
//! so the output is byte-identical run to run and across `WIMI_THREADS`
//! settings — CI diffs two consecutive runs to enforce that.

use crate::json_str;
use crate::rules::Rule;
use crate::LintReport;

/// Renders the report as a SARIF 2.1.0 document.
pub fn render_sarif(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"version\": \"2.1.0\",\n",
    );
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"wimi-lint\",\n");
    out.push_str(&format!(
        "          \"version\": {},\n",
        json_str(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str(
        "          \"informationUri\": \"https://github.com/wimi-rs/wimi\",\n          \"rules\": [\n",
    );
    let rules = rule_ids();
    for (i, rule) in rules.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \"helpUri\": \"https://github.com/wimi-rs/wimi/blob/main/DESIGN.md#14-static-analysis-the-workspace-call-graph\"}}{}\n",
            json_str(rule.name()),
            json_str(rule.description()),
            if i + 1 < rules.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");

    let total = report.violations.len() + report.suppressed.len();
    let mut emitted = 0usize;
    let mut push_result = |rule: Rule,
                           file: &str,
                           line: u32,
                           message: &str,
                           suppression: Option<&str>| {
        emitted += 1;
        let idx = rules
            .iter()
            .position(|r| *r == rule)
            .expect("every rule is declared in the driver");
        out.push_str("        {\n");
        out.push_str(&format!(
            "          \"ruleId\": {}, \"ruleIndex\": {},\n",
            json_str(rule.name()),
            idx
        ));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": {}}},\n",
            json_str(message)
        ));
        out.push_str(&format!(
                "          \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}}}}}}}]{}\n",
                json_str(file),
                line,
                if suppression.is_some() { "," } else { "" }
            ));
        if let Some(reason) = suppression {
            out.push_str(&format!(
                "          \"suppressions\": [{{\"kind\": \"inSource\", \"justification\": {}}}]\n",
                json_str(reason)
            ));
        }
        out.push_str(&format!(
            "        }}{}\n",
            if emitted < total { "," } else { "" }
        ));
    };

    for v in &report.violations {
        push_result(v.rule, &v.file, v.line, &v.message, None);
    }
    for s in &report.suppressed {
        push_result(s.rule, &s.file, s.line, &s.message, Some(&s.reason));
    }

    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// The driver's rule table: every rule, in `Rule::ALL` order.
fn rule_ids() -> Vec<Rule> {
    Rule::ALL.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Suppression, Violation};

    fn sample() -> LintReport {
        let mut r = LintReport::default();
        r.files.push("crates/x/src/lib.rs".to_string());
        r.violations.push(Violation {
            rule: Rule::PanicReach,
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            message: "msg with \"quotes\"".to_string(),
        });
        r.suppressed.push(Suppression {
            rule: Rule::HotPathAlloc,
            file: "crates/x/src/lib.rs".to_string(),
            line: 9,
            reason: "why".to_string(),
            message: "m".to_string(),
        });
        r
    }

    #[test]
    fn sarif_has_required_fields_and_declared_rules() {
        let s = render_sarif(&sample());
        assert!(s.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"wimi-lint\""));
        for rule in Rule::ALL {
            assert!(
                s.contains(&format!("\"id\": \"{}\"", rule.name())),
                "rule {} missing from driver",
                rule.name()
            );
        }
        assert!(s.contains("\"ruleId\": \"panic-reach\""));
        assert!(s.contains("msg with \\\"quotes\\\""));
        assert!(s.contains("\"kind\": \"inSource\""));
        assert!(s.contains("\"startLine\": 3"));
    }

    #[test]
    fn sarif_is_deterministic() {
        let r = sample();
        assert_eq!(render_sarif(&r), render_sarif(&r));
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let s = render_sarif(&LintReport::default());
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
