//! Plain-data snapshots, stable-order JSON export, and a std-only JSON
//! validator for CI.
//!
//! The export format is versioned (`"schema": "wimi-obs/1"`) and every
//! field is emitted in a fixed canonical order with integer values only,
//! so two snapshots of the same run are byte-identical — the determinism
//! CI job diffs them across `WIMI_THREADS` settings.

use std::fmt::Write as _;

use crate::json::{parse, Json};
use crate::recorder::{
    CounterId, GaugeId, IssueId, StageId, ATTEMPT_LABELS, DISPERSION_LABELS, GAMMA_LABELS,
};

/// Schema identifier stamped into every export.
pub const SCHEMA: &str = "wimi-obs/1";

/// Per-stage span totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStat {
    /// Stable stage name (see [`StageId::name`]).
    pub stage: &'static str,
    /// Spans closed over this stage.
    pub calls: u64,
    /// Total nanoseconds booked (0 under the `NullClock`).
    pub total_ns: u64,
}

/// A fixed-bucket histogram: parallel label/count slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Bucket labels, canonical order.
    pub labels: &'static [&'static str],
    /// Bucket counts, same order as `labels`.
    pub counts: Vec<u64>,
}

/// A point-in-time read of a `Recorder`: plain integers, no atomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Span totals for all seven stages, pipeline order.
    pub stages: Vec<StageStat>,
    /// All counters, canonical order.
    pub counters: Vec<(&'static str, u64)>,
    /// All last-value gauges, canonical order.
    pub gauges: Vec<(&'static str, u64)>,
    /// All issue tallies, canonical order.
    pub issues: Vec<(&'static str, u64)>,
    /// Resolved-γ distribution.
    pub gamma: Hist,
    /// Ω̄ cross-pair dispersion distribution.
    pub dispersion: Hist,
    /// Attempts consumed per logical measurement.
    pub attempts: Hist,
}

impl Snapshot {
    /// Looks up a counter by its snapshot name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by its snapshot name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serialises to the versioned JSON export. Field order, whitespace
    /// and integer formatting are all fixed, so equal snapshots produce
    /// byte-identical text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let comma = if i + 1 < self.stages.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"stage\": \"{}\", \"calls\": {}, \"total_ns\": {}}}{comma}",
                s.stage, s.calls, s.total_ns
            );
        }
        out.push_str("  ],\n");
        write_int_object(&mut out, "counters", &self.counters, "  ");
        out.push_str(",\n");
        write_int_object(&mut out, "gauges", &self.gauges, "  ");
        out.push_str(",\n");
        write_int_object(&mut out, "issues", &self.issues, "  ");
        out.push_str(",\n  \"histograms\": {\n");
        let hists = [
            ("gamma", &self.gamma),
            ("dispersion", &self.dispersion),
            ("attempts", &self.attempts),
        ];
        for (i, (name, hist)) in hists.iter().enumerate() {
            let comma = if i + 1 < hists.len() { "," } else { "" };
            let labels: Vec<String> = hist.labels.iter().map(|l| format!("\"{l}\"")).collect();
            let counts: Vec<String> = hist.counts.iter().map(|c| c.to_string()).collect();
            let _ = writeln!(
                out,
                "    \"{name}\": {{\"labels\": [{}], \"counts\": [{}]}}{comma}",
                labels.join(", "),
                counts.join(", ")
            );
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Renders a human-readable run summary (the `wimi-report` style used
    /// by the experiments binary). Deterministic for a given snapshot.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("stage                   calls     total_ns\n");
        for s in &self.stages {
            let _ = writeln!(out, "{:<22} {:>7} {:>12}", s.stage, s.calls, s.total_ns);
        }
        out.push_str("counters:\n");
        for &(name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<28} {v:>9}");
        }
        out.push_str("gauges:\n");
        for &(name, v) in &self.gauges {
            let _ = writeln!(out, "  {name:<28} {v:>9}");
        }
        out.push_str("issues:\n");
        for &(name, v) in &self.issues {
            let _ = writeln!(out, "  {name:<28} {v:>9}");
        }
        for (name, hist) in [
            ("gamma", &self.gamma),
            ("dispersion", &self.dispersion),
            ("attempts", &self.attempts),
        ] {
            let _ = write!(out, "{name}:");
            for (label, count) in hist.labels.iter().zip(&hist.counts) {
                let _ = write!(out, " {label}:{count}");
            }
            out.push('\n');
        }
        out
    }
}

fn write_int_object(out: &mut String, name: &str, entries: &[(&str, u64)], indent: &str) {
    let _ = writeln!(out, "{indent}\"{name}\": {{");
    for (i, &(key, v)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "{indent}  \"{key}\": {v}{comma}");
    }
    let _ = write!(out, "{indent}}}");
}

// ---------------------------------------------------------------------------
// Validation: schema checks against the canonical name lists, on top of
// the shared `crate::json` parser.
// ---------------------------------------------------------------------------

/// Validates an exported snapshot: well-formed JSON, the `wimi-obs/1`
/// schema with every key present in canonical order, and all values
/// finite non-negative integers (NaN/Infinity are impossible by
/// construction and rejected by the parser).
///
/// Truncated input and a mismatched schema version each produce a
/// distinct one-line message so `artifact validate` failures are actionable.
pub fn validate_json(text: &str) -> Result<(), String> {
    let value = parse(text)?;
    validate_value(&value)
}

/// Validates an already-parsed snapshot value against the `wimi-obs/1`
/// schema. Used by [`validate_json`] and by `wimi-trace` to check the
/// snapshot embedded in a trace artifact without re-serialising it.
pub fn validate_value(value: &Json) -> Result<(), String> {
    // Check the version stamp before anything else: a snapshot from a
    // newer writer should say "version mismatch", not complain about
    // whatever key happens to differ first.
    match value.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => {
            return Err(format!(
                "schema version mismatch: snapshot declares \"{s}\" but this validator understands \"{SCHEMA}\""
            ))
        }
        _ => return Err(format!("\"schema\" must be the string \"{SCHEMA}\"")),
    }
    value.expect_keys(
        &[
            "schema",
            "stages",
            "counters",
            "gauges",
            "issues",
            "histograms",
        ],
        "root",
    )?;

    let stages = value.arr_field("stages", "root")?;
    if stages.len() != StageId::ALL.len() {
        return Err(format!(
            "\"stages\" must have {} entries, found {}",
            StageId::ALL.len(),
            stages.len()
        ));
    }
    for (stage_id, entry) in StageId::ALL.iter().zip(stages) {
        entry.expect_keys(&["stage", "calls", "total_ns"], "stage entry")?;
        if entry.get("stage").and_then(Json::as_str) != Some(stage_id.name()) {
            return Err(format!(
                "stage entries must appear in pipeline order; expected \"{}\"",
                stage_id.name()
            ));
        }
        entry.u64_field("calls", "stage entry")?;
        entry.u64_field("total_ns", "stage entry")?;
    }

    let counter_names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
    expect_int_object(value, "counters", &counter_names)?;
    let gauge_names: Vec<&str> = GaugeId::ALL.iter().map(|g| g.name()).collect();
    expect_int_object(value, "gauges", &gauge_names)?;
    let issue_names: Vec<&str> = IssueId::ALL.iter().map(|i| i.name()).collect();
    expect_int_object(value, "issues", &issue_names)?;

    let hists = value.get("histograms").unwrap_or(&Json::Null);
    hists.expect_keys(&["gamma", "dispersion", "attempts"], "\"histograms\"")?;
    for (name, labels) in [
        ("gamma", &GAMMA_LABELS[..]),
        ("dispersion", &DISPERSION_LABELS[..]),
        ("attempts", &ATTEMPT_LABELS[..]),
    ] {
        let what = format!("histogram \"{name}\"");
        let hist = hists.get(name).unwrap_or(&Json::Null);
        hist.expect_keys(&["labels", "counts"], &what)?;
        let found_labels = hist.arr_field("labels", &what)?;
        if found_labels.len() != labels.len()
            || found_labels
                .iter()
                .zip(labels)
                .any(|(v, want)| v.as_str() != Some(want))
        {
            return Err(format!(
                "{what} labels differ from the canonical bucket set"
            ));
        }
        let counts = hist.arr_field("counts", &what)?;
        if counts.len() != labels.len() {
            return Err(format!(
                "{what} counts length {} != {} buckets",
                counts.len(),
                labels.len()
            ));
        }
        if counts.iter().any(|c| c.as_u64().is_none()) {
            return Err(format!("{what} counts must be non-negative integers"));
        }
    }
    Ok(())
}

fn expect_int_object(root: &Json, name: &str, want_keys: &[&str]) -> Result<(), String> {
    let what = format!("\"{name}\"");
    let obj = root.get(name).unwrap_or(&Json::Null);
    for (key, v) in obj.expect_keys(want_keys, &what)? {
        if v.as_u64().is_none() {
            return Err(format!("{what}.\"{key}\" must be a non-negative integer"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn fresh_snapshot_roundtrips_through_validator() {
        let snap = Recorder::enabled().snapshot();
        let json = snap.to_json();
        validate_json(&json).unwrap();
    }

    #[test]
    fn populated_snapshot_validates() {
        let rec = Recorder::enabled();
        rec.add(crate::CounterId::PacketsKept, 40);
        rec.record_gamma(-1);
        rec.record_dispersion(0.07);
        rec.record_attempts(3);
        rec.issue(crate::IssueId::DeadAntenna, 1);
        drop(rec.span(crate::StageId::Screening));
        validate_json(&rec.snapshot().to_json()).unwrap();
    }

    #[test]
    fn export_is_reproducible_for_equal_recorders() {
        let make = || {
            let rec = Recorder::enabled();
            rec.add(crate::CounterId::PairsResolved, 3);
            rec.record_gamma(2);
            rec.snapshot().to_json()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("").is_err());
        assert!(validate_json("{} trailing").is_err());
        assert!(validate_json("{\"a\": NaN}").is_err());
        assert!(validate_json("{\"a\": Infinity}").is_err());
        assert!(validate_json("[1, 2,]").is_err());
    }

    #[test]
    fn validator_rejects_wrong_schema() {
        let good = Recorder::enabled().snapshot().to_json();
        let bad = good.replace("wimi-obs/1", "wimi-obs/0");
        assert!(validate_json(&bad).is_err());
    }

    #[test]
    fn validator_names_the_mismatched_schema_version() {
        let good = Recorder::enabled().snapshot().to_json();
        let bad = good.replace("wimi-obs/1", "wimi-obs/2");
        let err = validate_json(&bad).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
        assert!(err.contains("wimi-obs/2"), "{err}");
        assert!(err.contains("wimi-obs/1"), "{err}");
        assert!(!err.contains('\n'), "message must be one line: {err}");
    }

    #[test]
    fn validator_reports_truncated_json() {
        let good = Recorder::enabled().snapshot().to_json();
        // The export is ASCII, so any byte index is a char boundary.
        let half = &good[..good.len() / 2];
        let err = validate_json(half).unwrap_err();
        assert!(err.starts_with("truncated JSON"), "{err}");
        assert!(!err.contains('\n'), "message must be one line: {err}");
    }

    #[test]
    fn validator_rejects_missing_counter() {
        let good = Recorder::enabled().snapshot().to_json();
        let bad = good.replace("\"packets_kept\"", "\"packets_krept\"");
        assert!(validate_json(&bad).is_err());
    }

    #[test]
    fn gauges_round_trip_through_export_and_validator() {
        let rec = Recorder::enabled();
        rec.set_gauge(crate::GaugeId::ServeQueueDepth, 5);
        rec.set_gauge(crate::GaugeId::ServeSessions, 12);
        let json = rec.snapshot().to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"serve_queue_depth\": 5"));
        assert!(json.contains("\"serve_sessions\": 12"));
        // Dropping the gauges section must fail closed.
        let parsed = crate::json::parse(&json).unwrap();
        assert!(parsed.get("gauges").is_some());
        let bad = json.replace("\"serve_queue_depth\"", "\"serve_queue_dept\"");
        assert!(validate_json(&bad).is_err());
    }

    #[test]
    fn validator_rejects_non_integer_values() {
        let good = Recorder::enabled().snapshot().to_json();
        let bad = good.replacen("\"captures_taken\": 0", "\"captures_taken\": 0.5", 1);
        assert!(validate_json(&bad).is_err());
        let neg = good.replacen("\"captures_taken\": 0", "\"captures_taken\": -1", 1);
        assert!(validate_json(&neg).is_err());
    }

    #[test]
    fn validator_rejects_reordered_stages() {
        let good = Recorder::enabled().snapshot().to_json();
        let bad = good.replacen("\"stage\": \"capture\"", "\"stage\": \"screening\"", 1);
        assert!(validate_json(&bad).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        assert!(validate_json("{\"schema\": \"x\"}").is_err()); // wrong keys, but parses
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(validate_json(&deep).is_err()); // depth-limited
    }

    #[test]
    fn summary_lists_every_stage_and_counter() {
        let text = Recorder::enabled().snapshot().summary();
        for stage in StageId::ALL {
            assert!(text.contains(stage.name()), "{}", stage.name());
        }
        for counter in CounterId::ALL {
            assert!(text.contains(counter.name()), "{}", counter.name());
        }
    }
}
