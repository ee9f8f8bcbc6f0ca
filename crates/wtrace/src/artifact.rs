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

use std::collections::BTreeSet;
use std::fmt::Write as _;

use wimi_obs::json::{self, Json};
use wimi_obs::{CounterId, IssueId, StageId};

use crate::event::{Ctx, SalvageAction, TaskKey, TraceEvent};
use crate::sink::{TaskStream, TraceLog};

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

/// One event line, read back into the sink's own typed form.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLine {
    /// The task the event belongs to.
    pub task: TaskKey,
    /// Per-task logical clock value.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
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

impl Artifact {
    /// The event lines regrouped into the flushed log they were rendered
    /// from: `render_cell(&a.to_log(), obs, a.campaign.as_ref())` gives
    /// back the artifact's text, given the obs line's payload.
    pub fn to_log(&self) -> TraceLog {
        let mut tasks: Vec<TaskStream> = Vec::new();
        for line in &self.events {
            match tasks.last_mut() {
                Some(stream) if stream.key == line.task => stream.events.push(line.event.clone()),
                _ => tasks.push(TaskStream {
                    key: line.task,
                    first_seq: line.seq,
                    events: vec![line.event.clone()],
                }),
            }
        }
        TraceLog {
            tasks,
            events_emitted: self.header.events_emitted,
            failures: self.header.failures,
            tasks_truncated: self.header.tasks_truncated,
        }
    }
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
            let _ = write!(out, ",\"action\":\"{}\",\"count\":{count}", action.name());
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

/// `key` of `v` as one of the names `all` carries, or the error naming
/// what it must be.
fn named_field<T: Copy>(
    v: &Json,
    key: &str,
    all: &[T],
    name: fn(T) -> &'static str,
    want: &str,
    what: Line,
) -> Result<T, String> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(|s| all.iter().copied().find(|&x| name(x) == s))
        .ok_or_else(|| format!("{what}: \"{key}\" must be {want}"))
}

/// `key` of `v` as a non-negative integer that fits 32 bits.
fn u32_field(v: &Json, key: &str, what: Line) -> Result<u32, String> {
    let n = v.u64_field(key, what)?;
    u32::try_from(n).map_err(|_| format!("{what}: \"{key}\" must fit in 32 bits"))
}

/// `key` of `v` as a 32-bit signed integer.
fn i32_field(v: &Json, key: &str, what: Line) -> Result<i32, String> {
    match v.get(key) {
        Some(&Json::Num { value, .. })
            if value.fract() == 0.0
                && (f64::from(i32::MIN)..=f64::from(i32::MAX)).contains(&value) =>
        {
            Ok(value as i32)
        }
        _ => Err(format!("{what}: \"{key}\" must be a 32-bit integer")),
    }
}

/// An optional context field of an `issue` line, present or absent.
fn ctx_field(v: &Json, key: &str, what: Line) -> Result<Option<u32>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => u32_field(v, key, what).map(Some),
    }
}

/// Checks one event line against its type's exact key list and reads it
/// into the sink's typed form. Fields are read in key order, so the error
/// names the first field that breaks the schema.
fn decode(v: &Json, task: &str, ev: &str, what: Line) -> Result<(TaskKey, TraceEvent), String> {
    let Some(keys) = event_keys(ev) else {
        return Err(format!(
            "{what}: unknown event type {ev:?} (expected one of {:?})",
            TraceEvent::NAMES
        ));
    };
    let optional: &[&[&str]] = if ev == "issue" { &CTX_KEYS } else { &[] };
    v.expect_keys_opt(keys, optional, what)?;
    let task = TaskKey::from_label(task).ok_or_else(|| {
        format!("{what}: \"task\" must be a task label (run, meas:N, svm:AxB or sess:N), found {task:?}")
    })?;
    let stage = |key: &str| named_field(v, key, &StageId::ALL, StageId::name, "a stage name", what);
    let issue =
        |key: &str| named_field(v, key, &IssueId::ALL, IssueId::name, "an issue name", what);
    let u64_of = |key: &str| v.u64_field(key, what);
    let u32_of = |key: &str| u32_field(v, key, what);
    let event = match ev {
        "enter" => TraceEvent::Enter {
            stage: stage("stage")?,
        },
        "exit" => TraceEvent::Exit {
            stage: stage("stage")?,
        },
        "count" => TraceEvent::Count {
            counter: named_field(
                v,
                "counter",
                &CounterId::ALL,
                CounterId::name,
                "a counter name",
                what,
            )?,
            delta: u64_of("delta")?,
        },
        "issue" => TraceEvent::Issue {
            issue: issue("issue")?,
            count: u64_of("count")?,
            ctx: Ctx {
                packet: ctx_field(v, "packet", what)?,
                subcarrier: ctx_field(v, "subcarrier", what)?,
                antenna: ctx_field(v, "antenna", what)?,
                pair: match ctx_field(v, "pair_a", what)? {
                    Some(a) => Some((a, u32_of("pair_b")?)),
                    None => None,
                },
            },
        },
        "salvage" => TraceEvent::Salvage {
            action: named_field(
                v,
                "action",
                &SalvageAction::ALL,
                SalvageAction::name,
                "a salvage action name",
                what,
            )?,
            count: u64_of("count")?,
        },
        "attempt" => TraceEvent::Attempt {
            attempt: u32_of("attempt")?,
            max: u32_of("max")?,
        },
        "retries_exhausted" => TraceEvent::RetriesExhausted {
            attempts: u32_of("attempts")?,
        },
        "feature" => TraceEvent::Feature {
            pairs: u32_of("pairs")?,
            gamma_min: i32_field(v, "gamma_min", what)?,
            gamma_max: i32_field(v, "gamma_max", what)?,
            dispersion: match v.get("dispersion") {
                Some(&Json::Num { value, .. }) => value,
                Some(Json::Null) => f64::NAN,
                _ => return Err(format!("{what}: \"dispersion\" must be a number or null")),
            },
        },
        "failed" => TraceEvent::Failed {
            stage: stage("stage")?,
            issue: issue("issue")?,
        },
        _ => TraceEvent::SvmMachine {
            class_a: u32_of("class_a")?,
            class_b: u32_of("class_b")?,
            rounds: u64_of("rounds")?,
        },
    };
    Ok((task, event))
}

/// Per-task logical-clock continuity: within a task's (contiguous) block
/// `seq` advances by exactly 1, and a task must not reappear after its
/// block.
#[derive(Default)]
struct Continuity {
    closed: BTreeSet<TaskKey>,
    current: Option<(TaskKey, u64)>,
}

impl Continuity {
    fn advance(&mut self, task: TaskKey, seq: u64, line_no: usize) -> Result<(), String> {
        match self.current {
            Some((open, last)) if open == task => {
                if last.checked_add(1) != Some(seq) {
                    return Err(format!(
                        "line {line_no}: task \"{task}\" seq jumps {last} -> {seq} (logical clock must advance by 1)"
                    ));
                }
            }
            other => {
                if let Some((open, _)) = other {
                    self.closed.insert(open);
                }
                if self.closed.contains(&task) {
                    return Err(format!(
                        "line {line_no}: task \"{task}\" reappears after its block ended"
                    ));
                }
            }
        }
        self.current = Some((task, seq));
        Ok(())
    }

    fn tasks(&self) -> usize {
        self.closed.len() + usize::from(self.current.is_some())
    }
}

/// Parses and fully validates a `wimi-trace/1` artifact: header schema
/// and counts, per-line structure, known stage/counter/issue/action
/// names, per-task logical-clock continuity, and the embedded snapshot.
///
/// The reader holds one line's parsed JSON at a time: each event line is
/// checked and kept only in its typed form ([`EventLine`]), so the
/// retained heap is about the size of the text, not a JSON tree of it.
/// Errors keep the precedence of a whole-artifact pass: a malformed line
/// or a missing obs line anywhere is reported before the first field
/// error, and the first field error before the first clock error.
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

    // Sized once from the header, capped by the lines actually present so
    // a lying header cannot reserve more than the text could fill.
    let lines_left = text.bytes().filter(|&b| b == b'\n').count();
    let mut events: Vec<EventLine> = Vec::with_capacity(
        usize::try_from(header.events).map_or(lines_left, |n| n.min(lines_left)),
    );
    let mut clock = Continuity::default();
    let mut field_err: Option<String> = None;
    let mut clock_err: Option<String> = None;
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
        if value.get("obs").is_some() {
            value.expect_keys(&["obs"], what)?;
            if let Json::Obj(entries) = value {
                obs = entries.into_iter().next().map(|(_, v)| v);
            }
            continue;
        }
        let task = value.str_field("task", what)?;
        let seq = value.u64_field("seq", what)?;
        let ev = value.str_field("ev", what)?;
        if field_err.is_some() {
            continue;
        }
        match decode(&value, task, ev, what) {
            Err(e) => field_err = Some(e),
            Ok(_) if clock_err.is_some() => {}
            Ok((task, event)) => match clock.advance(task, seq, line_no) {
                Ok(()) => events.push(EventLine { task, seq, event }),
                Err(e) => clock_err = Some(e),
            },
        }
    }
    let Some(obs) = obs else {
        return Err("truncated artifact: missing the final {\"obs\": ...} line".into());
    };
    if let Some(e) = field_err.or(clock_err) {
        return Err(e);
    }

    let task_count = clock.tasks();
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
                action: SalvageAction::DropDeadAntenna,
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
