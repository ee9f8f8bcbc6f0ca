//! The byte-stable `wimi-serve/1` fleet summary.
//!
//! Rendering is hand-rolled with fixed field order, fixed whitespace and
//! fixed number formatting, so two equal [`FleetReport`]s produce
//! byte-identical text — the artifact CI diffs between `WIMI_THREADS`
//! shapes. [`parse_summary`] is the one fail-closed reader: it parses the
//! text back, checks the schema tag plus the accounting invariants
//! (`responses = ok + failed`, `requests = responses + shed`) and returns
//! the per-session rows the fleet report joins. Environment and material
//! names go through [`json::escape`], so any name round-trips.

use wimi_obs::json::{self, Json};

use crate::fleet::FleetReport;
use crate::metrics::SessionRow;

/// Schema tag stamped into every fleet summary.
pub const SUMMARY_SCHEMA: &str = "wimi-serve/1";

/// Renders the fleet summary JSON (`wimi-serve/1`): fleet identity,
/// service totals, fleet-wide counters, and one record per session.
pub fn summary_json(report: &FleetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SUMMARY_SCHEMA}\",");
    out.push_str("  \"fleet\": {\n");
    let _ = writeln!(out, "    \"sessions\": {},", report.sessions);
    let _ = writeln!(out, "    \"measurements\": {},", report.measurements);
    let _ = writeln!(out, "    \"seed\": {}", report.seed);
    out.push_str("  },\n");
    out.push_str("  \"totals\": {\n");
    let _ = writeln!(out, "    \"requests\": {},", report.requests);
    let _ = writeln!(out, "    \"responses\": {},", report.responses);
    let _ = writeln!(out, "    \"ok\": {},", report.ok);
    let _ = writeln!(out, "    \"failed\": {},", report.failed);
    let _ = writeln!(out, "    \"shed\": {},", report.shed);
    let _ = writeln!(out, "    \"correct\": {},", report.correct);
    let accuracy = if report.ok > 0 {
        report.correct as f64 / report.ok as f64
    } else {
        0.0
    };
    let _ = writeln!(out, "    \"accuracy\": {},", json::fixed6(accuracy));
    let _ = writeln!(out, "    \"model_keys\": {},", report.model_keys);
    let _ = writeln!(out, "    \"queue_peak\": {}", report.queue_peak);
    out.push_str("  },\n");
    out.push_str("  \"counters\": {\n");
    for (i, (name, value)) in report.counters.iter().enumerate() {
        let comma = if i + 1 < report.counters.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "    \"{name}\": {value}{comma}");
    }
    out.push_str("  },\n");
    out.push_str("  \"sessions\": [\n");
    for (i, s) in report.per_session.iter().enumerate() {
        let comma = if i + 1 < report.per_session.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"id\": {}, \"truth\": {}, \"environment\": \"{}\", \"material\": \"{}\", \
             \"ok\": {}, \"failed\": {}, \"shed\": {}, \
             \"correct\": {}, \"rejected\": {}, \"salvaged\": {}, \"packets_spent\": {}}}{comma}",
            s.id,
            s.truth,
            json::escape(&s.environment),
            json::escape(&s.material),
            s.ok,
            s.failed,
            s.shed,
            s.correct,
            s.rejected,
            s.salvaged,
            s.packets_spent
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

const ROW_KEYS: [&str; 11] = [
    "id",
    "truth",
    "environment",
    "material",
    "ok",
    "failed",
    "shed",
    "correct",
    "rejected",
    "salvaged",
    "packets_spent",
];

/// Parses and validates a `wimi-serve/1` summary, returning its session
/// rows with every field: well-formed JSON, the right schema tag, exact
/// key order, a session record per reported session, and conserved
/// accounting — fleet-wide (`responses = ok + failed`, `requests =
/// responses + shed`) and per session (every session's `ok + failed +
/// shed` must equal the fleet's `measurements`: every request a session
/// was owed is accounted for as served or shed, so a fold that
/// misattributes responses cannot pass). Fail-closed: anything
/// unexpected is an error, not a skip.
pub fn parse_summary(text: &str) -> Result<Vec<SessionRow>, String> {
    let root = json::parse(text)?;
    match root.get("schema").and_then(Json::as_str) {
        Some(SUMMARY_SCHEMA) => {}
        Some(other) => return Err(format!("schema is \"{other}\", want \"{SUMMARY_SCHEMA}\"")),
        None => return Err("missing schema field".to_owned()),
    }
    root.expect_keys(
        &["schema", "fleet", "totals", "counters", "sessions"],
        "root",
    )?;
    let fleet = root.get("fleet").unwrap_or(&Json::Null);
    fleet.expect_keys(&["sessions", "measurements", "seed"], "fleet")?;
    let sessions = fleet.u64_field("sessions", "fleet")?;
    let measurements = fleet.u64_field("measurements", "fleet")?;
    fleet.u64_field("seed", "fleet")?;
    let totals = root.get("totals").unwrap_or(&Json::Null);
    totals.expect_keys(
        &[
            "requests",
            "responses",
            "ok",
            "failed",
            "shed",
            "correct",
            "accuracy",
            "model_keys",
            "queue_peak",
        ],
        "totals",
    )?;
    let total = |key| totals.u64_field(key, "totals");
    let (requests, responses, ok) = (total("requests")?, total("responses")?, total("ok")?);
    let (failed, shed, correct) = (total("failed")?, total("shed")?, total("correct")?);
    if responses != ok + failed {
        return Err(format!(
            "responses {responses} != ok {ok} + failed {failed}"
        ));
    }
    if requests != responses + shed {
        return Err(format!(
            "requests {requests} != responses {responses} + shed {shed}"
        ));
    }
    if correct > ok {
        return Err(format!("correct {correct} > ok {ok}"));
    }
    match root.get("counters") {
        Some(Json::Obj(counters)) if counters.iter().all(|(_, v)| v.as_u64().is_some()) => {}
        _ => return Err("\"counters\" must be an object of non-negative integers".to_owned()),
    }
    let records = root.arr_field("sessions", "root")?;
    if records.len() as u64 != sessions {
        return Err(format!(
            "{} session records for {} sessions",
            records.len(),
            sessions
        ));
    }
    let mut rows = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        let what = format!("session record {i}");
        record.expect_keys(&ROW_KEYS, &what)?;
        let int = |key| record.u64_field(key, &what);
        let text = |key| record.str_field(key, &what).map(str::to_owned);
        let row = SessionRow {
            id: int("id")?,
            truth: int("truth")?,
            environment: text("environment")?,
            material: text("material")?,
            ok: int("ok")?,
            failed: int("failed")?,
            shed: int("shed")?,
            correct: int("correct")?,
            rejected: int("rejected")?,
            salvaged: int("salvaged")?,
            packets_spent: int("packets_spent")?,
        };
        if row.correct > row.ok {
            return Err(format!(
                "session {}: correct {} > ok {}",
                row.id, row.correct, row.ok
            ));
        }
        if row.ok + row.failed + row.shed != measurements {
            return Err(format!(
                "session {}: ok {} + failed {} + shed {} != measurements {measurements}",
                row.id, row.ok, row.failed, row.shed
            ));
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, FleetConfig};

    fn tiny_report() -> FleetReport {
        run_fleet(&FleetConfig {
            sessions: 4,
            measurements: 2,
            packets: 8,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn summary_round_trips_through_the_validator() {
        let mut report = tiny_report();
        // Names are escaped, so even hostile ones read back.
        report.per_session[1].material = "Sea \"salt\" \\ water".to_owned();
        report.per_session[2].environment = "tab\there\nline".to_owned();
        let summary = summary_json(&report);
        let rows = parse_summary(&summary).unwrap_or_else(|e| panic!("summary must validate: {e}"));
        assert_eq!(rows, report.per_session, "every row field round-trips");
    }

    #[test]
    fn equal_reports_render_byte_identically() {
        let a = summary_json(&tiny_report());
        let b = summary_json(&tiny_report());
        assert_eq!(a, b);
    }

    #[test]
    fn validator_fails_closed() {
        let report = tiny_report();
        let summary = summary_json(&report);
        let wrong_schema = summary.replace("wimi-serve/1", "wimi-serve/0");
        assert!(parse_summary(&wrong_schema).is_err());
        let truncated = &summary[..summary.len() / 2];
        assert!(parse_summary(truncated).is_err());
        // Break conservation: responses ≠ ok + failed.
        let broken = summary.replace(
            &format!("\"responses\": {}", report.responses),
            &format!("\"responses\": {}", report.responses + 1),
        );
        assert!(parse_summary(&broken).is_err());
        // A row missing its environment label, a stray key, an empty
        // document.
        let unlabelled = summary.replacen("\"environment\": ", "\"env\": ", 1);
        assert!(parse_summary(&unlabelled).is_err());
        let stray = summary.replacen("\"seed\": ", "\"junk\": 1, \"seed\": ", 1);
        assert!(parse_summary(&stray).is_err());
        assert!(parse_summary("{}").is_err());
    }
}
