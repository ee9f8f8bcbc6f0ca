//! Artifact analysis: human summaries and deterministic work-counter
//! budget gates.

use std::fmt::Write as _;

use wimi_obs::json::Json;

use crate::artifact::{parse_and_validate, EventLine};
use crate::event::{TaskKey, TraceEvent};

/// Renders a deterministic human-readable summary of an artifact:
/// header totals, event-type mix, per-stage span balance, issue tallies,
/// and — when the run failed — the tail of each failing task's stream so
/// the failing stage/issue is visible at a glance.
pub fn summary(text: &str) -> Result<String, String> {
    let artifact = parse_and_validate(text)?;
    let mut out = String::new();
    let h = artifact.header;
    let _ = writeln!(
        out,
        "wimi-trace/1: {} tasks, {} events ({} emitted), {} failures, {} tasks truncated",
        h.tasks, h.events, h.events_emitted, h.failures, h.tasks_truncated
    );

    let mut by_ev: Vec<(&str, u64)> = Vec::new();
    for line in &artifact.events {
        let name = line.event.name();
        match by_ev.iter_mut().find(|(n, _)| *n == name) {
            Some((_, n)) => *n += 1,
            None => by_ev.push((name, 1)),
        }
    }
    by_ev.sort();
    out.push_str("events by type:\n");
    for (name, n) in &by_ev {
        let _ = writeln!(out, "  {name:<20} {n:>8}");
    }

    let mut issues: Vec<(&str, u64)> = Vec::new();
    for line in &artifact.events {
        if let TraceEvent::Issue { issue, count, .. } = line.event {
            match issues.iter_mut().find(|(n, _)| *n == issue.name()) {
                Some((_, total)) => *total += count,
                None => issues.push((issue.name(), count)),
            }
        }
    }
    issues.sort();
    if !issues.is_empty() {
        out.push_str("issues:\n");
        for (name, n) in &issues {
            let _ = writeln!(out, "  {name:<20} {n:>8}");
        }
    }

    if h.failures > 0 {
        out.push_str("failing tasks (stream tails):\n");
        // A task counts as failing when its *last* outcome event is a
        // failure — a rejected attempt that a later retry recovered from
        // (failed … feature) is not a failing task.
        let mut outcomes: Vec<(TaskKey, bool)> = Vec::new();
        for line in &artifact.events {
            let failing = match line.event {
                TraceEvent::Failed { .. } | TraceEvent::RetriesExhausted { .. } => true,
                TraceEvent::Feature { .. } => false,
                _ => continue,
            };
            match outcomes.iter_mut().find(|(t, _)| *t == line.task) {
                Some((_, f)) => *f = failing,
                None => outcomes.push((line.task, failing)),
            }
        }
        for &(task, _) in outcomes.iter().filter(|(_, f)| *f) {
            let tail: Vec<&EventLine> = artifact.events.iter().filter(|l| l.task == task).collect();
            let start = tail.len().saturating_sub(5);
            let _ = writeln!(out, "  {task}:");
            for line in &tail[start..] {
                let _ = writeln!(out, "    seq {:>4}  {}", line.seq, describe(&line.event));
            }
        }
    }
    Ok(out)
}

fn describe(event: &TraceEvent) -> String {
    match *event {
        TraceEvent::Enter { stage } => format!("enter {}", stage.name()),
        TraceEvent::Exit { stage } => format!("exit {}", stage.name()),
        TraceEvent::Count { counter, delta } => format!("count {} +{delta}", counter.name()),
        TraceEvent::Issue { issue, count, .. } => format!("issue {} x{count}", issue.name()),
        TraceEvent::Salvage { action, count } => format!("salvage {} x{count}", action.name()),
        TraceEvent::Attempt { attempt, max } => format!("attempt {attempt}/{max}"),
        TraceEvent::RetriesExhausted { attempts } => format!("retries exhausted after {attempts}"),
        TraceEvent::Feature { pairs, .. } => format!("feature from {pairs} pairs"),
        TraceEvent::Failed { stage, issue } => {
            format!("FAILED at {} ({})", stage.name(), issue.name())
        }
        TraceEvent::SvmMachine {
            class_a, class_b, ..
        } => format!("svm machine {class_a}x{class_b}"),
    }
}

/// One budget comparison row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetRow {
    /// Gated total's name.
    pub name: String,
    /// Actual value measured from the run.
    pub actual: u64,
    /// Committed ceiling from `BENCH.json`.
    pub budget: u64,
    /// Whether `actual` stayed within `budget`.
    pub ok: bool,
}

/// Checks every ceiling of one `section` object of a committed budget
/// file (`BENCH.json`) against `actual(name)`, the gated run's total of
/// that name. Each row is `ok` when the total stays within its ceiling.
///
/// Fail-closed: a missing or empty section, a ceiling that is not a
/// non-negative integer, and a name `actual` does not know are errors,
/// not skips — a renamed total or section must not silently stop gating.
pub fn check_budgets(
    bench_json: &str,
    section: &str,
    actual: impl Fn(&str) -> Option<u64>,
) -> Result<Vec<BudgetRow>, String> {
    let bench = wimi_obs::json::parse(bench_json).map_err(|e| format!("budget file: {e}"))?;
    let Some(Json::Obj(budgets)) = bench.get(section) else {
        return Err(format!("budget file has no \"{section}\" object"));
    };
    if budgets.is_empty() {
        return Err(format!("\"{section}\" is empty — nothing to gate on"));
    }
    let mut rows = Vec::new();
    for (name, value) in budgets {
        let budget = value.as_u64().ok_or_else(|| {
            format!("{section}: budget \"{name}\" must be a non-negative integer")
        })?;
        let actual = actual(name).ok_or_else(|| {
            format!("{section}: budget \"{name}\" matches no gated total (renamed or removed?)")
        })?;
        rows.push(BudgetRow {
            name: name.clone(),
            actual,
            budget,
            ok: actual <= budget,
        });
    }
    Ok(rows)
}

/// Gates a trace artifact's deterministic work counters against the
/// `trace_budgets` section of `BENCH.json`: `trace_events` is the sink's
/// total emissions, every other name an embedded obs snapshot counter.
pub fn check_trace_budgets(
    bench_json: &str,
    artifact_text: &str,
) -> Result<Vec<BudgetRow>, String> {
    let artifact = parse_and_validate(artifact_text)?;
    check_budgets(bench_json, "trace_budgets", |name| {
        if name == "trace_events" {
            return Some(artifact.header.events_emitted);
        }
        artifact.obs.get("counters")?.get(name)?.as_u64()
    })
}

/// Renders budget rows as a fixed-width table, one row per line. The
/// rows may be work counters, allocation counts or fidelity scores, so
/// the first column is headed by what they share: each is a gated total.
pub fn budget_table(rows: &[BudgetRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12}  status",
        "gated total", "actual", "budget"
    );
    for row in rows {
        let status = if row.ok { "ok" } else { "OVER BUDGET" };
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>12}  {status}",
            row.name, row.actual, row.budget
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::render;
    use crate::event::Ctx;
    use crate::sink::{task_scope, TraceSink};
    use wimi_obs::{CounterId, IssueId, Recorder, StageId};

    fn failing_artifact() -> String {
        let sink = TraceSink::enabled();
        {
            let _scope = task_scope(TaskKey::measurement(3));
            sink.emit(TraceEvent::Attempt { attempt: 1, max: 2 });
            sink.emit(TraceEvent::Issue {
                issue: IssueId::ShortCapture,
                count: 1,
                ctx: Ctx::packet(7),
            });
            sink.emit(TraceEvent::Failed {
                stage: StageId::Screening,
                issue: IssueId::ShortCapture,
            });
            sink.emit(TraceEvent::Attempt { attempt: 2, max: 2 });
            sink.emit(TraceEvent::Failed {
                stage: StageId::Screening,
                issue: IssueId::ShortCapture,
            });
            sink.emit(TraceEvent::RetriesExhausted { attempts: 2 });
        }
        sink.mark_failure();
        let rec = Recorder::enabled();
        rec.incr(CounterId::MeasurementsFailed);
        render(&sink.flush(), Some(&rec.snapshot().to_json()))
    }

    #[test]
    fn summary_localizes_the_failing_stage_and_issue() {
        let text = summary(&failing_artifact()).unwrap();
        assert!(text.contains("1 failures"), "{text}");
        assert!(text.contains("meas:3"), "{text}");
        assert!(
            text.contains("FAILED at screening (short_capture)"),
            "{text}"
        );
        assert!(text.contains("retries exhausted after 2"), "{text}");
    }

    #[test]
    fn budgets_pass_within_and_fail_over() {
        let total = |name: &str| (name == "captures_taken").then_some(7);
        let rows = check_budgets(r#"{"s": {"captures_taken": 7}}"#, "s", total).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ok, "a total equal to its ceiling passes: {rows:?}");
        let rows = check_budgets(r#"{"s": {"captures_taken": 6}}"#, "s", total).unwrap();
        assert_eq!((rows[0].actual, rows[0].budget, rows[0].ok), (7, 6, false));
        let table = budget_table(&rows);
        assert!(table.contains("OVER BUDGET"), "{table}");
    }

    #[test]
    fn budgets_fail_closed() {
        let total = |name: &str| (name == "captures_taken").then_some(7);
        for (bench, why) in [
            ("not json", "unparsable file"),
            ("{}", "missing section"),
            (r#"{"s": {}}"#, "empty section"),
            (r#"{"s": 3}"#, "section that is not an object"),
            (
                r#"{"other": {"captures_taken": 9}}"#,
                "only another section",
            ),
            (r#"{"s": {"captures_taken": -3}}"#, "negative ceiling"),
            (r#"{"s": {"captures_taken": 7.5}}"#, "fractional ceiling"),
            (r#"{"s": {"captures_taken": "9"}}"#, "string ceiling"),
            (
                r#"{"s": {"captures_taken": 9, "warp_cores": 1}}"#,
                "unknown name",
            ),
        ] {
            assert!(
                check_budgets(bench, "s", total).is_err(),
                "{why} must fail closed"
            );
        }
    }

    #[test]
    fn trace_budgets_read_header_and_obs_counters() {
        let artifact = failing_artifact();
        let ok = r#"{"trace_budgets": {"trace_events": 10, "measurements_failed": 1}}"#;
        let rows = check_trace_budgets(ok, &artifact).unwrap();
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");
        let over = r#"{"trace_budgets": {"trace_events": 3}}"#;
        let rows = check_trace_budgets(over, &artifact).unwrap();
        assert!(rows.iter().any(|r| !r.ok), "{rows:?}");
        // A file holding only another gate's section must not gate a
        // trace against that gate's ceilings.
        let matrix_only = r#"{"matrix_budgets": {"trace_events": 68000}}"#;
        assert!(check_trace_budgets(matrix_only, &artifact).is_err());
    }

    #[test]
    fn committed_budget_file_holds_every_gated_section() {
        const BENCH: &str = include_str!("../../../BENCH.json");
        for section in [
            "trace_budgets",
            "matrix_budgets",
            "fleet_budgets",
            "metrics_budgets",
            "alloc_budgets",
            "fidelity_budgets",
        ] {
            if let Err(e) = check_budgets(BENCH, section, |_| Some(0)) {
                panic!("BENCH.json: {e}");
            }
        }
    }
}
