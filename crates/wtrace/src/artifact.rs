//! The `wimi-trace/1` JSONL artifact: rendering a flushed [`TraceLog`]
//! to text and parsing/validating artifacts back.
//!
//! Layout (one JSON object per line):
//!
//! ```text
//! {"schema":"wimi-trace/1","tasks":3,"events":41,"events_emitted":41,"failures":0,"tasks_truncated":0}
//! {"task":"run","seq":0,"ev":"count","counter":"captures_taken","delta":1}
//! ...
//! {"obs":{...embedded wimi-obs/1 snapshot...}}
//! ```
//!
//! Every field is written in a fixed order with fixed formatting, so a
//! deterministic [`TraceLog`] renders to byte-identical text — `diff`
//! between `WIMI_THREADS` settings is a plain string comparison.

use std::fmt::Write as _;

use wimi_obs::json::{self, Json};
use wimi_obs::{CounterId, IssueId, StageId};

use crate::event::{Ctx, TraceEvent};
use crate::sink::TraceLog;

/// Schema identifier stamped into every artifact header.
pub const SCHEMA: &str = "wimi-trace/1";

/// Parsed header line of an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Task streams in the artifact.
    pub tasks: u64,
    /// Event lines in the artifact.
    pub events: u64,
    /// Emissions attempted at the sink (≥ `events` when rings dropped).
    pub events_emitted: u64,
    /// Hard measurement failures marked on the sink.
    pub failures: u64,
    /// Task streams cut by the flush bound.
    pub tasks_truncated: u64,
}

/// One parsed event line.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLine {
    /// 1-based line number in the artifact.
    pub line_no: usize,
    /// Task label (e.g. `"meas:1042"`).
    pub task: String,
    /// Per-task logical clock value.
    pub seq: u64,
    /// Event type name.
    pub ev: String,
    /// The full parsed object, for detail fields.
    pub value: Json,
}

/// Campaign provenance stamped into a per-cell artifact header by the
/// campaign runner, so any cell artifact names the campaign it came from
/// and the derived seed that reproduces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignTag {
    /// Campaign name (as declared in the `.campaign` file).
    pub campaign: String,
    /// Cell index in campaign expansion order.
    pub cell: u64,
    /// The cell's derived root seed.
    pub cell_seed: u64,
}

/// The canonical artifact file name of one campaign cell:
/// `<campaign>-cell-<index, zero-padded to 4>.jsonl`.
pub fn cell_artifact_name(campaign: &str, cell: u64) -> String {
    format!("{campaign}-cell-{cell:04}.jsonl")
}

/// A parsed and semantically validated artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The header line.
    pub header: Header,
    /// Campaign provenance, when the artifact was emitted by a campaign
    /// run (`None` for plain traced experiments).
    pub campaign: Option<CampaignTag>,
    /// All event lines, artifact order.
    pub events: Vec<EventLine>,
    /// The embedded observability snapshot (`Json::Null` when absent).
    pub obs: Json,
}

fn write_ctx(out: &mut String, ctx: &Ctx) {
    if let Some(p) = ctx.packet {
        let _ = write!(out, ",\"packet\":{p}");
    }
    if let Some(s) = ctx.subcarrier {
        let _ = write!(out, ",\"subcarrier\":{s}");
    }
    if let Some(a) = ctx.antenna {
        let _ = write!(out, ",\"antenna\":{a}");
    }
    if let Some((a, b)) = ctx.pair {
        let _ = write!(out, ",\"pair_a\":{a},\"pair_b\":{b}");
    }
}

fn write_event(out: &mut String, task: &str, seq: u64, ev: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"task\":\"{task}\",\"seq\":{seq},\"ev\":\"{}\"",
        ev.name()
    );
    match ev {
        TraceEvent::Enter { stage } | TraceEvent::Exit { stage } => {
            let _ = write!(out, ",\"stage\":\"{}\"", stage.name());
        }
        TraceEvent::Count { counter, delta } => {
            let _ = write!(out, ",\"counter\":\"{}\",\"delta\":{delta}", counter.name());
        }
        TraceEvent::Issue { issue, count, ctx } => {
            let _ = write!(out, ",\"issue\":\"{}\",\"count\":{count}", issue.name());
            write_ctx(out, ctx);
        }
        TraceEvent::Salvage { action, count } => {
            let _ = write!(
                out,
                ",\"action\":\"{}\",\"count\":{count}",
                json::escape(action)
            );
        }
        TraceEvent::Attempt { attempt, max } => {
            let _ = write!(out, ",\"attempt\":{attempt},\"max\":{max}");
        }
        TraceEvent::RetriesExhausted { attempts } => {
            let _ = write!(out, ",\"attempts\":{attempts}");
        }
        TraceEvent::Feature {
            pairs,
            gamma_min,
            gamma_max,
            dispersion,
        } => {
            let _ = write!(
                out,
                ",\"pairs\":{pairs},\"gamma_min\":{gamma_min},\"gamma_max\":{gamma_max}"
            );
            if dispersion.is_finite() {
                let _ = write!(out, ",\"dispersion\":{dispersion:.6}");
            } else {
                out.push_str(",\"dispersion\":null");
            }
        }
        TraceEvent::Failed { stage, issue } => {
            let _ = write!(
                out,
                ",\"stage\":\"{}\",\"issue\":\"{}\"",
                stage.name(),
                issue.name()
            );
        }
        TraceEvent::SvmMachine {
            class_a,
            class_b,
            rounds,
        } => {
            let _ = write!(
                out,
                ",\"class_a\":{class_a},\"class_b\":{class_b},\"rounds\":{rounds}"
            );
        }
    }
    out.push_str("}\n");
}

/// Renders a flushed log to `wimi-trace/1` JSONL text. `obs_json`, when
/// given, must be a `wimi-obs/1` snapshot export; it is compacted onto
/// the final line. Equal logs render to byte-identical text.
// wlint: artifact
pub fn render(log: &TraceLog, obs_json: Option<&str>) -> String {
    render_cell(log, obs_json, None)
}

/// Like [`render`], with campaign provenance appended to the header when
/// `tag` is given. [`render`] is `render_cell(log, obs, None)`.
// wlint: artifact
pub fn render_cell(log: &TraceLog, obs_json: Option<&str>, tag: Option<&CampaignTag>) -> String {
    let total_events: usize = log.tasks.iter().map(|t| t.events.len()).sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"tasks\":{},\"events\":{},\"events_emitted\":{},\"failures\":{},\"tasks_truncated\":{}",
        log.tasks.len(),
        total_events,
        log.events_emitted,
        log.failures,
        log.tasks_truncated
    );
    if let Some(tag) = tag {
        let _ = write!(
            out,
            ",\"campaign\":\"{}\",\"cell\":{},\"cell_seed\":{}",
            json::escape(&tag.campaign),
            tag.cell,
            tag.cell_seed
        );
    }
    out.push_str("}\n");
    for stream in &log.tasks {
        let label = stream.key.to_string();
        for (i, ev) in stream.events.iter().enumerate() {
            write_event(&mut out, &label, stream.first_seq + i as u64, ev);
        }
    }
    match obs_json {
        Some(snapshot) => {
            let _ = writeln!(out, "{{\"obs\":{}}}", json::compact(snapshot));
        }
        None => out.push_str("{\"obs\":null}\n"),
    }
    out
}

/// `line N` for error messages, formatted only when a check fails.
#[derive(Clone, Copy)]
struct Line(usize);

impl std::fmt::Display for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}", self.0)
    }
}

const HEADER_KEYS: [&str; 6] = [
    "schema",
    "tasks",
    "events",
    "events_emitted",
    "failures",
    "tasks_truncated",
];

/// The campaign provenance a cell artifact's header may end with.
const CAMPAIGN_KEYS: [&[&str]; 1] = [&["campaign", "cell", "cell_seed"]];

/// The optional context suffix of an `issue` event, in render order.
const CTX_KEYS: [&[&str]; 4] = [
    &["packet"],
    &["subcarrier"],
    &["antenna"],
    &["pair_a", "pair_b"],
];

/// The exact keys of each event type, `task`/`seq`/`ev` first.
fn event_keys(ev: &str) -> Option<&'static [&'static str]> {
    Some(match ev {
        "enter" | "exit" => &["task", "seq", "ev", "stage"],
        "count" => &["task", "seq", "ev", "counter", "delta"],
        "issue" => &["task", "seq", "ev", "issue", "count"],
        "salvage" => &["task", "seq", "ev", "action", "count"],
        "attempt" => &["task", "seq", "ev", "attempt", "max"],
        "retries_exhausted" => &["task", "seq", "ev", "attempts"],
        "feature" => &[
            "task",
            "seq",
            "ev",
            "pairs",
            "gamma_min",
            "gamma_max",
            "dispersion",
        ],
        "failed" => &["task", "seq", "ev", "stage", "issue"],
        "svm_machine" => &["task", "seq", "ev", "class_a", "class_b", "rounds"],
        _ => return None,
    })
}

/// Whether `v` is the name of one of `all`.
fn named<T: Copy>(v: &Json, all: &[T], name: fn(T) -> &'static str) -> bool {
    v.as_str()
        .is_some_and(|s| all.iter().any(|&x| name(x) == s))
}

/// What an event field's value must be, when `v` is not that.
fn field_error(key: &str, v: &Json) -> Option<&'static str> {
    let (ok, want) = match key {
        "task" | "ev" | "action" => (v.as_str().is_some(), "a string"),
        "stage" => (named(v, &StageId::ALL, StageId::name), "a stage name"),
        "counter" => (named(v, &CounterId::ALL, CounterId::name), "a counter name"),
        "issue" => (named(v, &IssueId::ALL, IssueId::name), "an issue name"),
        "gamma_min" | "gamma_max" => (matches!(v, Json::Num { .. }), "a number"),
        "dispersion" => (
            matches!(v, Json::Num { .. } | Json::Null),
            "a number or null",
        ),
        _ => (v.as_u64().is_some(), "a non-negative integer"),
    };
    (!ok).then_some(want)
}

fn check_event_fields(line: &EventLine) -> Result<(), String> {
    let what = Line(line.line_no);
    let Some(keys) = event_keys(&line.ev) else {
        return Err(format!(
            "{what}: unknown event type \"{}\" (expected one of {:?})",
            line.ev,
            TraceEvent::NAMES
        ));
    };
    let optional: &[&[&str]] = if line.ev == "issue" { &CTX_KEYS } else { &[] };
    for (key, value) in line.value.expect_keys_opt(keys, optional, what)? {
        if let Some(want) = field_error(key, value) {
            return Err(format!("{what}: \"{key}\" must be {want}"));
        }
    }
    Ok(())
}

/// Parses and fully validates a `wimi-trace/1` artifact: header schema
/// and counts, per-line structure, known stage/counter/issue names,
/// per-task logical-clock continuity, and the embedded snapshot.
///
/// Truncated input and a mismatched schema version each produce a
/// distinct one-line message, mirroring the `wimi-obs` validator.
pub fn parse_and_validate(text: &str) -> Result<Artifact, String> {
    let mut lines = text.lines().enumerate();
    let Some((_, header_line)) = lines.next() else {
        return Err("truncated artifact: empty input (no header line)".into());
    };
    let header_val = json::parse(header_line).map_err(|e| format!("header line: {e}"))?;
    match header_val.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => {
            return Err(format!(
                "schema version mismatch: artifact declares \"{s}\" but this tool understands \"{SCHEMA}\""
            ))
        }
        None => return Err(format!("header line: \"schema\" must be the string \"{SCHEMA}\"")),
    }
    header_val.expect_keys_opt(&HEADER_KEYS, &CAMPAIGN_KEYS, "header")?;
    let header = Header {
        tasks: header_val.u64_field("tasks", "header")?,
        events: header_val.u64_field("events", "header")?,
        events_emitted: header_val.u64_field("events_emitted", "header")?,
        failures: header_val.u64_field("failures", "header")?,
        tasks_truncated: header_val.u64_field("tasks_truncated", "header")?,
    };
    let campaign = match header_val.get("campaign") {
        None => None,
        Some(_) => Some(CampaignTag {
            campaign: header_val.str_field("campaign", "header")?.to_string(),
            cell: header_val.u64_field("cell", "header")?,
            cell_seed: header_val.u64_field("cell_seed", "header")?,
        }),
    };

    let mut events: Vec<EventLine> = Vec::new();
    let mut obs: Option<Json> = None;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if obs.is_some() {
            return Err(format!(
                "line {line_no}: data after the final {{\"obs\": ...}} line"
            ));
        }
        let value = json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let what = Line(line_no);
        if let Some(obs_val) = value.get("obs") {
            value.expect_keys(&["obs"], what)?;
            obs = Some(obs_val.clone());
            continue;
        }
        let task = value.str_field("task", what)?.to_string();
        let seq = value.u64_field("seq", what)?;
        let ev = value.str_field("ev", what)?.to_string();
        events.push(EventLine {
            line_no,
            task,
            seq,
            ev,
            value,
        });
    }
    let Some(obs) = obs else {
        return Err("truncated artifact: missing the final {\"obs\": ...} line".into());
    };

    for line in &events {
        check_event_fields(line)?;
    }

    // Logical-clock continuity: within a task's (contiguous) block, seq
    // advances by exactly 1; a task must not reappear after its block.
    let mut closed: Vec<&str> = Vec::new();
    let mut current: Option<(&str, u64)> = None;
    for line in &events {
        match current {
            Some((task, last_seq)) if task == line.task => {
                if line.seq != last_seq + 1 {
                    return Err(format!(
                        "line {}: task \"{}\" seq jumps {} -> {} (logical clock must advance by 1)",
                        line.line_no, line.task, last_seq, line.seq
                    ));
                }
                current = Some((task, line.seq));
            }
            other => {
                if let Some((task, _)) = other {
                    closed.push(task);
                }
                if closed.contains(&line.task.as_str()) {
                    return Err(format!(
                        "line {}: task \"{}\" reappears after its block ended",
                        line.line_no, line.task
                    ));
                }
                current = Some((&line.task, line.seq));
            }
        }
    }
    let task_count = closed.len() + usize::from(current.is_some());
    if events.len() as u64 != header.events {
        return Err(format!(
            "header declares {} events but the artifact has {}",
            header.events,
            events.len()
        ));
    }
    if task_count as u64 != header.tasks {
        return Err(format!(
            "header declares {} tasks but the artifact has {task_count}",
            header.tasks
        ));
    }
    if header.events_emitted < header.events {
        return Err(format!(
            "header events_emitted {} < events {} (rings can only drop, not invent)",
            header.events_emitted, header.events
        ));
    }

    if !matches!(obs, Json::Null) {
        wimi_obs::validate_value(&obs).map_err(|e| format!("embedded obs snapshot: {e}"))?;
    }

    Ok(Artifact {
        header,
        campaign,
        events,
        obs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskKey;
    use crate::sink::TraceSink;
    use wimi_obs::Recorder;

    fn sample_log() -> TraceLog {
        let sink = TraceSink::enabled();
        {
            let _span = sink.span(StageId::Capture);
            sink.emit(TraceEvent::Count {
                counter: CounterId::CapturesTaken,
                delta: 1,
            });
        }
        {
            let _scope = crate::sink::task_scope(TaskKey::measurement(11));
            sink.emit(TraceEvent::Attempt { attempt: 1, max: 4 });
            sink.emit(TraceEvent::Issue {
                issue: IssueId::DeadAntenna,
                count: 1,
                ctx: Ctx::pair(0, 2),
            });
            sink.emit(TraceEvent::Salvage {
                action: "drop_dead_antenna",
                count: 1,
            });
            sink.emit(TraceEvent::Feature {
                pairs: 3,
                gamma_min: -1,
                gamma_max: 0,
                dispersion: 0.034,
            });
        }
        {
            let _scope = crate::sink::task_scope(TaskKey::svm_machine(0, 1));
            sink.emit(TraceEvent::SvmMachine {
                class_a: 0,
                class_b: 1,
                rounds: 12,
            });
        }
        sink.flush()
    }

    #[test]
    fn render_then_validate_roundtrips() {
        let obs = Recorder::enabled().snapshot().to_json();
        let text = render(&sample_log(), Some(&obs));
        let artifact = parse_and_validate(&text).unwrap();
        assert_eq!(artifact.header.tasks, 3);
        assert_eq!(artifact.header.events, 8);
        assert_eq!(artifact.header.events_emitted, 8);
        assert!(!matches!(artifact.obs, Json::Null));
    }

    #[test]
    fn render_without_obs_embeds_null() {
        let text = render(&sample_log(), None);
        let artifact = parse_and_validate(&text).unwrap();
        assert!(matches!(artifact.obs, Json::Null));
    }

    #[test]
    fn equal_logs_render_identically() {
        let obs = Recorder::enabled().snapshot().to_json();
        assert_eq!(
            render(&sample_log(), Some(&obs)),
            render(&sample_log(), Some(&obs))
        );
    }

    #[test]
    fn validator_flags_schema_mismatch_with_one_line_message() {
        let text = render(&sample_log(), None).replace("wimi-trace/1", "wimi-trace/2");
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
        assert!(err.contains("wimi-trace/2"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn validator_flags_truncated_artifact() {
        let full = render(&sample_log(), None);
        // Cut off the trailing obs line entirely.
        let without_obs: String = full
            .lines()
            .filter(|l| !l.starts_with("{\"obs\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = parse_and_validate(&without_obs).unwrap_err();
        assert!(err.starts_with("truncated artifact"), "{err}");
        // Cut mid-line (after `{"obs":`): the JSON parser reports
        // truncation because input ends where a value must start.
        let cut = &full[..full.len() - 6];
        let err = parse_and_validate(cut).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(parse_and_validate("").is_err());
    }

    #[test]
    fn validator_flags_seq_gaps_and_unknown_names() {
        let good = render(&sample_log(), None);
        let gap = good.replacen(
            "\"seq\":1,\"ev\":\"count\"",
            "\"seq\":7,\"ev\":\"count\"",
            1,
        );
        let err = parse_and_validate(&gap).unwrap_err();
        assert!(err.contains("logical clock"), "{err}");
        let bad_stage = good.replacen("\"stage\":\"capture\"", "\"stage\":\"warp\"", 1);
        assert!(parse_and_validate(&bad_stage).is_err());
        let bad_ev = good.replacen("\"ev\":\"attempt\"", "\"ev\":\"attack\"", 1);
        assert!(parse_and_validate(&bad_ev).is_err());
    }

    #[test]
    fn validator_checks_header_counts() {
        let good = render(&sample_log(), None);
        let bad = good.replacen("\"events\":8", "\"events\":9", 1);
        let err = parse_and_validate(&bad).unwrap_err();
        assert!(err.contains("declares 9 events"), "{err}");
        let bad = good.replacen("\"tasks\":3", "\"tasks\":2", 1);
        assert!(parse_and_validate(&bad).is_err());
    }

    #[test]
    fn campaign_tag_roundtrips_through_header() {
        let tag = CampaignTag {
            campaign: "matrix".to_owned(),
            cell: 17,
            cell_seed: 0xDEAD_BEEF,
        };
        let text = render_cell(&sample_log(), None, Some(&tag));
        let artifact = parse_and_validate(&text).unwrap();
        assert_eq!(artifact.campaign, Some(tag));
        // Plain renders carry no tag, and parse as such.
        let plain = parse_and_validate(&render(&sample_log(), None)).unwrap();
        assert_eq!(plain.campaign, None);
        // A tag present without its cell fields is rejected.
        let bad = text.replacen(",\"cell\":17", "", 1);
        let err = parse_and_validate(&bad).unwrap_err();
        assert!(err.contains("cell"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }

    #[test]
    fn validator_rejects_stray_and_duplicate_keys() {
        let obs = Recorder::enabled().snapshot().to_json();
        let good = render(&sample_log(), Some(&obs));
        parse_and_validate(&good).unwrap();
        let attempt = "\"ev\":\"attempt\",\"attempt\":1,\"max\":4";
        for (bad, why) in [
            (
                good.replacen("\"max\":4}", "\"max\":4,\"junk\":5}", 1),
                "stray event key",
            ),
            (
                good.replacen("{\"obs\":", "{\"zzz\":1,\"obs\":", 1),
                "stray obs-line key",
            ),
            (
                good.replacen(attempt, &format!("\"seq\":0,{attempt}"), 1),
                "duplicated seq",
            ),
            (
                good.replacen("\"tasks_truncated\":0", "\"tasks_truncated\":0,\"x\":1", 1),
                "stray header key",
            ),
            (
                good.replacen(
                    ",\"pair_a\":0,\"pair_b\":2",
                    ",\"pair_b\":2,\"pair_a\":0",
                    1,
                ),
                "reordered issue context",
            ),
            (
                good.replacen(",\"pair_b\":2", "", 1),
                "half an antenna pair",
            ),
        ] {
            assert_ne!(bad, good, "{why}: the tamper must change the text");
            let err = parse_and_validate(&bad).expect_err(why);
            assert!(err.contains("keys must be exactly"), "{why}: {err}");
            assert!(!err.contains('\n'), "{why}: {err}");
        }
        // Every context subset the renderer writes is accepted.
        let with_ctx = good.replacen(
            ",\"pair_a\":0,\"pair_b\":2",
            ",\"packet\":3,\"subcarrier\":7,\"antenna\":1,\"pair_a\":0,\"pair_b\":2",
            1,
        );
        parse_and_validate(&with_ctx).unwrap();
        let bad_ctx = with_ctx.replacen("\"packet\":3", "\"packet\":-3", 1);
        assert!(parse_and_validate(&bad_ctx).is_err());
    }

    #[test]
    fn cell_artifact_names_are_zero_padded() {
        assert_eq!(cell_artifact_name("matrix", 7), "matrix-cell-0007.jsonl");
        assert_eq!(cell_artifact_name("m", 12345), "m-cell-12345.jsonl");
    }

    #[test]
    fn validator_checks_embedded_snapshot() {
        let obs = Recorder::enabled().snapshot().to_json();
        let text = render(&sample_log(), Some(&obs)).replace("wimi-obs/1", "wimi-obs/3");
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("embedded obs snapshot"), "{err}");
        assert!(err.contains("wimi-obs/3"), "{err}");
    }
}
