//! Campaign runner: executes a parsed [`Campaign`] cell by cell through
//! the measurement harness, with cells fanned out over
//! [`wimi_core::par`] worker threads, and emits one `wimi-trace/1`
//! artifact per cell plus a `wimi-campaign/1` summary JSON.
//!
//! Determinism: a cell measures through the harness's one train/test
//! protocol — the shared trial-seed schedule and the trial-list routine
//! [`wimi_serve::measure_trials`] — with its own recorder and trace sink.
//! Its trials fan out over worker threads unless the cell is itself
//! nested in [`run_campaign`]'s fan-out, where a nested map runs on its
//! worker's thread. Every measurement seed is a pure function of the
//! cell's derived seed and trace events are keyed by measurement, so
//! per-cell artifacts are byte-identical for any `WIMI_THREADS` setting,
//! and re-running one cell in isolation (`campaign-run --cell N`)
//! reproduces the full run's artifact exactly.
//!
//! Schedule semantics: training always happens under the cell's *base*
//! axis conditions; the schedule perturbs test trials only, segment by
//! segment, which is what lets a scheduled fault ramp inside one cell
//! reproduce the shape of the PR2 degradation curve.

use std::sync::Arc;

use wimi_campaign::{
    cell_count, expand, fault_plan, lower, Campaign, CellPlan, StepState, TargetMode,
};
use wimi_core::{WiMi, WiMiConfig};
use wimi_ml::dataset::Dataset;
use wimi_obs::json::{self, fixed6, Json};
use wimi_obs::Recorder;
use wimi_phy::scenario::{Beaker, LiquidSpec};
use wimi_phy::units::Meters;
use wimi_trace::artifact::{cell_artifact_name, render_cell, CampaignTag};
use wimi_trace::{analyze, Observer, TraceSink};

use crate::harness::{Phase, RunOptions, Tally};

/// Schema identifier of the campaign summary JSON.
pub const SUMMARY_SCHEMA: &str = "wimi-campaign/1";

/// Accuracy over one schedule segment of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentOutcome {
    /// First test trial of the segment.
    pub from: usize,
    /// Fault intensity in effect during the segment.
    pub intensity: f64,
    /// Correct test classifications inside the segment.
    pub correct: usize,
    /// Classified test measurements inside the segment (dropped trials
    /// excluded).
    pub total: usize,
}

impl SegmentOutcome {
    /// Segment accuracy (1.0 for an empty segment, matching an
    /// unfalsified claim).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

/// Everything one cell produced: scores, work accounting, and its
/// rendered (self-validated) trace artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Cell index in campaign expansion order.
    pub index: u64,
    /// The cell's derived seed (recorded in the artifact header).
    pub seed: u64,
    /// Overall test accuracy across all segments.
    pub accuracy: f64,
    /// Per-segment accuracies, schedule order.
    pub segments: Vec<SegmentOutcome>,
    /// Trials whose every measurement attempt failed.
    pub dropped: usize,
    /// Measurement attempts rejected by the pipeline.
    pub rejected: usize,
    /// Successful measurements that needed salvage.
    pub salvaged: usize,
    /// Hard measurement failures marked on the cell's trace sink.
    pub failures: u64,
    /// Trace events emitted by the cell.
    pub trace_events: u64,
    /// The cell's final obs counters (snapshot order).
    pub counters: Vec<(&'static str, u64)>,
    /// Canonical artifact file name for this cell.
    pub artifact_name: String,
    /// The rendered `wimi-trace/1` artifact text.
    pub artifact: String,
}

/// A completed campaign run: the campaign and every cell's outcome, in
/// expansion order.
pub struct CampaignOutcome {
    /// The campaign that ran.
    pub campaign: Campaign,
    /// Per-cell outcomes, expansion order.
    pub cells: Vec<CellOutcome>,
}

fn cell_options(
    c: &Campaign,
    cell: &CellPlan,
    state: &StepState,
    recorder: &Arc<Recorder>,
    sink: &Arc<TraceSink>,
) -> RunOptions {
    let distance_cm = cell.distance_cm;
    let diameter_cm = cell.diameter_cm;
    let container = cell.container;
    RunOptions {
        environment: state.environment,
        packets: cell.packets,
        n_train: c.train,
        n_test: c.test,
        seed: cell.seed,
        modify: Box::new(move |b| {
            b.link_distance(Meters::from_cm(distance_cm));
            b.beaker(
                Beaker::paper_default()
                    .with_diameter(Meters::from_cm(diameter_cm))
                    .with_material(container),
            );
        }),
        fault: fault_plan(state, c.fault_seed),
        recorder: Some(Arc::clone(recorder)),
        trace: Some(Arc::clone(sink)),
        ..RunOptions::default()
    }
}

/// Runs one cell: trains under the cell's base conditions, then measures
/// the test trials segment by segment under the scheduled conditions,
/// and renders the cell's tagged trace artifact. Each phase and segment
/// is one trial list, so its measurements fan out unless the cell runs
/// inside another fan-out.
///
/// A cell whose training set ends up with fewer than two populated
/// classes (every capture for the other classes was rejected or dropped
/// — possible under harsh axis combinations) is *untrainable*: the test
/// phase is skipped and the cell reports accuracy 0 over zero
/// classifications; the skipped trials are not counted as dropped, so
/// `dropped` always equals the recorder's `trials_dropped`. This keeps
/// campaign runs total — a degenerate cell is a result, not a crash — and
/// stays deterministic, since the skip is a pure function of the cell's
/// measurements.
///
/// # Panics
///
/// Panics if the cell's own artifact fails self-validation (a bug, not an
/// environmental failure).
pub fn run_cell(c: &Campaign, cell: &CellPlan) -> CellOutcome {
    let recorder = Arc::new(Recorder::enabled());
    let sink = TraceSink::enabled();
    let refs = cell.materials.resolve();
    let names: Vec<String> = refs.iter().map(|m| m.label()).collect();
    let specs: Vec<LiquidSpec> = refs.iter().map(|m| m.spec()).collect();
    let k = specs.len();

    let obs = Observer::new(Some(Arc::clone(&recorder)), Some(Arc::clone(&sink)));
    let mut extractor = WiMi::new(WiMiConfig::default());
    extractor.set_observer(obs.clone());
    let mut tally = Tally::default();

    // Training always happens under the base axis conditions — even when
    // the schedule perturbs trial 0 — so the classifier models the clean
    // deployment and the schedule measures drift against it.
    let base = StepState {
        from: 0,
        intensity: cell.intensity,
        environment: cell.environment,
        target: TargetMode::Present,
        dropout: None,
    };
    let train_opts = cell_options(c, cell, &base, &recorder, &sink);
    let mut train = Dataset::new(names);
    let present: Vec<_> = specs.iter().map(Some).collect();
    for (label, out) in train_opts.measure_phase(&extractor, Phase::Train, 0..c.train, &present) {
        if let Some(f) = tally.take(out) {
            train.push(f.as_vector(), label);
        }
    }

    let trained = if train.is_trainable() {
        let mut wimi = WiMi::new(WiMiConfig::default());
        wimi.set_observer(obs);
        wimi.train_on_dataset(&train);
        Some(wimi)
    } else {
        None
    };

    // Test phase: one segment of scheduled conditions at a time, each
    // under its own options. An untrainable cell skips it and scores zero
    // over zero trials, without counting the skipped trials as dropped.
    let steps = lower(c, cell);
    let test_trials = if trained.is_some() { c.test } else { 0 };
    let mut segments = Vec::with_capacity(steps.len());
    for (i, state) in steps.iter().enumerate() {
        let end = steps
            .get(i + 1)
            .map_or(test_trials, |next| next.from)
            .min(test_trials);
        let opts = cell_options(c, cell, state, &recorder, &sink);
        let targets: Vec<_> = (0..k)
            .map(|label| match state.target {
                TargetMode::Present => Some(&specs[label]),
                // The operator (or an adversary) swapped in the next
                // catalog entry; the truth label still claims the
                // original, so correct behaviour is a mismatch.
                TargetMode::Swapped => Some(&specs[(label + 1) % k]),
                TargetMode::Removed => None,
            })
            .collect();
        let mut seg = SegmentOutcome {
            from: state.from,
            intensity: state.intensity,
            correct: 0,
            total: 0,
        };
        for (label, out) in opts.measure_phase(&extractor, Phase::Test, state.from..end, &targets) {
            if let (Some(f), Some(wimi)) = (tally.take(out), &trained) {
                let predicted = wimi.classify_feature(&f).expect("trained");
                seg.total += 1;
                seg.correct +=
                    usize::from(predicted == label && state.target == TargetMode::Present);
            }
        }
        segments.push(seg);
    }

    let (correct, total) = segments.iter().fold((0usize, 0usize), |(c0, t0), s| {
        (c0 + s.correct, t0 + s.total)
    });
    let accuracy = if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    };

    let snapshot = recorder.snapshot();
    let log = sink.flush();
    let tag = CampaignTag {
        campaign: c.name.clone(),
        cell: cell.index,
        cell_seed: cell.seed,
    };
    let artifact = render_cell(&log, Some(&snapshot.to_json()), Some(&tag));
    if let Err(e) = wimi_trace::artifact::parse_and_validate(&artifact) {
        panic!("cell {} artifact failed self-validation: {e}", cell.index);
    }
    CellOutcome {
        index: cell.index,
        seed: cell.seed,
        accuracy,
        segments,
        dropped: tally.dropped,
        rejected: tally.rejected,
        salvaged: tally.salvaged,
        failures: log.failures,
        trace_events: log.events_emitted,
        counters: snapshot.counters.clone(),
        artifact_name: cell_artifact_name(&c.name, cell.index),
        artifact,
    }
}

/// Runs every cell of the campaign, fanning cells out over
/// [`wimi_core::par`] worker threads. Outcomes come back in expansion
/// order regardless of thread count.
pub fn run_campaign(c: &Campaign) -> CampaignOutcome {
    let cells = expand(c);
    let outcomes = wimi_core::par::map(&cells, |_, cell| run_cell(c, cell));
    CampaignOutcome {
        campaign: c.clone(),
        cells: outcomes,
    }
}

/// Sums every cell's obs counters plus the per-cell trace emissions into
/// `(name, total)` rows, canonical counter order, with `trace_events`
/// first — the shape the `<name>_budgets` gate reads.
fn work_totals(outcome: &CampaignOutcome) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = vec![(
        "trace_events".to_owned(),
        outcome.cells.iter().map(|c| c.trace_events).sum(),
    )];
    for cell in &outcome.cells {
        for &(name, value) in &cell.counters {
            match rows.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += value,
                None => rows.push((name.to_owned(), value)),
            }
        }
    }
    rows
}

/// Renders the campaign summary JSON (`wimi-campaign/1`): campaign
/// identity, aggregated work totals, and one record per cell with its
/// seed, scores and artifact name. Field order and formatting are fixed,
/// so equal outcomes render byte-identically.
pub fn summary_json(outcome: &CampaignOutcome) -> String {
    use std::fmt::Write as _;
    let c = &outcome.campaign;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SUMMARY_SCHEMA}\",");
    let _ = writeln!(out, "  \"campaign\": \"{}\",", c.name);
    let _ = writeln!(out, "  \"seed\": {},", c.seed);
    let _ = writeln!(out, "  \"fault_seed\": {},", c.fault_seed);
    let _ = writeln!(out, "  \"train\": {},", c.train);
    let _ = writeln!(out, "  \"test\": {},", c.test);
    let _ = writeln!(out, "  \"cells\": {},", outcome.cells.len());
    out.push_str("  \"work_totals\": {\n");
    let totals = work_totals(outcome);
    for (i, (name, value)) in totals.iter().enumerate() {
        let comma = if i + 1 < totals.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{name}\": {value}{comma}");
    }
    out.push_str("  },\n");
    out.push_str("  \"cell_results\": [\n");
    for (i, cell) in outcome.cells.iter().enumerate() {
        let comma = if i + 1 < outcome.cells.len() { "," } else { "" };
        let segs: Vec<String> = cell
            .segments
            .iter()
            .map(|s| {
                format!(
                    "{{\"from\": {}, \"intensity\": {}, \"accuracy\": {}}}",
                    s.from,
                    fixed6(s.intensity),
                    fixed6(s.accuracy())
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "    {{\"cell\": {}, \"seed\": {}, \"accuracy\": {}, \"dropped\": {}, \
             \"rejected\": {}, \"salvaged\": {}, \"failures\": {}, \"artifact\": \"{}\", \
             \"segments\": [{}]}}{comma}",
            cell.index,
            cell.seed,
            fixed6(cell.accuracy),
            cell.dropped,
            cell.rejected,
            cell.salvaged,
            cell.failures,
            cell.artifact_name,
            segs.join(", ")
        );
    }
    out.push_str("  ]\n}\n");
    out
}

const SUMMARY_KEYS: [&str; 9] = [
    "schema",
    "campaign",
    "seed",
    "fault_seed",
    "train",
    "test",
    "cells",
    "work_totals",
    "cell_results",
];

const CELL_KEYS: [&str; 9] = [
    "cell", "seed", "accuracy", "dropped", "rejected", "salvaged", "failures", "artifact",
    "segments",
];

fn unit_interval(v: &Json, key: &str, what: &str) -> Result<(), String> {
    match v.get(key) {
        Some(Json::Num { value, .. }) if (0.0..=1.0).contains(value) => Ok(()),
        _ => Err(format!("{what}: \"{key}\" must be a number in [0, 1]")),
    }
}

/// Validates a `wimi-campaign/1` summary and returns its cell count.
/// Checks exact key order, `cells == cell_results.len()`, cell indices
/// `0..n` in order, each `artifact` equal to [`cell_artifact_name`],
/// accuracies in `[0, 1]`, segment `from`s strictly ascending from 0, and
/// integral `work_totals` with `trace_events` first.
///
/// # Errors
///
/// A one-line message naming the first violated invariant.
pub fn validate_summary(text: &str) -> Result<u64, String> {
    let root = json::parse(text)?;
    match root.get("schema").and_then(Json::as_str) {
        Some(SUMMARY_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "schema version mismatch: summary declares \"{other}\" but this validator understands \"{SUMMARY_SCHEMA}\""
            ))
        }
        None => return Err(format!("\"schema\" must be the string \"{SUMMARY_SCHEMA}\"")),
    }
    root.expect_keys(&SUMMARY_KEYS, "root")?;
    let name = root.str_field("campaign", "root")?;
    for key in ["seed", "fault_seed", "train", "test"] {
        root.u64_field(key, "root")?;
    }
    let cells = root.u64_field("cells", "root")?;
    match root.get("work_totals") {
        Some(Json::Obj(totals)) if totals.first().is_some_and(|(k, _)| k == "trace_events") => {
            if let Some((key, _)) = totals.iter().find(|(_, v)| v.as_u64().is_none()) {
                return Err(format!(
                    "work_totals: \"{key}\" must be a non-negative integer"
                ));
            }
        }
        _ => return Err("\"work_totals\" must be an object led by \"trace_events\"".into()),
    }
    let results = root.arr_field("cell_results", "root")?;
    if results.len() as u64 != cells {
        return Err(format!("{} cell results for {cells} cells", results.len()));
    }
    for (i, result) in results.iter().enumerate() {
        let what = format!("cell result {i}");
        result.expect_keys(&CELL_KEYS, &what)?;
        if result.u64_field("cell", &what)? != i as u64 {
            return Err(format!(
                "{what}: cells must be numbered 0..{cells} in order"
            ));
        }
        for key in ["seed", "dropped", "rejected", "salvaged", "failures"] {
            result.u64_field(key, &what)?;
        }
        unit_interval(result, "accuracy", &what)?;
        let artifact = result.str_field("artifact", &what)?;
        let want = cell_artifact_name(name, i as u64);
        if artifact != want {
            return Err(format!(
                "{what}: artifact \"{artifact}\" should be \"{want}\""
            ));
        }
        let mut next_from = 0;
        for (j, segment) in result.arr_field("segments", &what)?.iter().enumerate() {
            let what = format!("{what} segment {j}");
            segment.expect_keys(&["from", "intensity", "accuracy"], &what)?;
            let from = segment.u64_field("from", &what)?;
            if (j == 0 && from != 0) || from < next_from {
                return Err(format!(
                    "{what}: \"from\" must ascend strictly from 0, found {from}"
                ));
            }
            next_from = from + 1;
            if !matches!(segment.get("intensity"), Some(Json::Num { .. })) {
                return Err(format!("{what}: \"intensity\" must be a number"));
            }
            unit_interval(segment, "accuracy", &what)?;
        }
        if next_from == 0 {
            return Err(format!("{what}: a cell has at least one segment"));
        }
    }
    Ok(cells)
}

/// Gates a campaign's aggregated work totals against the
/// `"<campaign name>_budgets"` section of `BENCH.json` (`matrix_budgets`
/// for `campaigns/matrix.campaign`). The section name comes from the
/// campaign itself, so a campaign with no committed ceilings fails closed
/// instead of borrowing another campaign's.
///
/// # Errors
///
/// [`analyze::check_budgets`]'s one-line message.
fn check_campaign_budgets(
    bench_json: &str,
    outcome: &CampaignOutcome,
) -> Result<Vec<analyze::BudgetRow>, String> {
    let totals = work_totals(outcome);
    let section = format!("{}_budgets", outcome.campaign.name);
    analyze::check_budgets(bench_json, &section, |name| {
        totals.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    })
}

/// Reads and parses a campaign file for the CLI subcommand `cmd`: exit 2
/// when it cannot be read, 1 with the parser's one-line message when it
/// is malformed.
pub(crate) fn read_campaign(cmd: &str, path: &str) -> Campaign {
    wimi_campaign::parse(&crate::read_or_exit(cmd, path)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

/// `campaign-validate PATH`: parses and validates a campaign file,
/// printing its expanded size, or a one-line error on stderr with exit 1
/// (mirroring `artifact validate`).
pub fn campaign_validate(path: &str) {
    let c = read_campaign("campaign-validate", path);
    println!(
        "ok: campaign \"{}\", {} cells, {} train + {} test trials per cell, {} schedule entries",
        c.name,
        cell_count(&c),
        c.train,
        c.test,
        c.schedule.len()
    );
}

fn write_file(path: &std::path::Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("campaign-run: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// `campaign-run PATH [--campaign-out DIR] [--cell N] [--check BENCH]`:
/// runs a campaign end to end, printing the per-cell score table and
/// writing per-cell artifacts plus the summary JSON into `DIR` when
/// given. `--cell N` runs that one cell in isolation (its artifact must
/// reproduce the full run's byte for byte — CI replays cells this way).
/// `--check BENCH` gates the aggregated work totals against the budget
/// file's `<name>_budgets` section and exits 1 when any ceiling is
/// exceeded.
pub fn campaign_run(path: &str, out_dir: Option<&str>, cell: Option<u64>, check: Option<&str>) {
    let c = read_campaign("campaign-run", path);
    let dir = out_dir.map(std::path::Path::new);
    if let Some(dir) = dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("campaign-run: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    if let Some(index) = cell {
        // Single-cell replay: expand deterministically, run one cell.
        let cells = expand(&c);
        let Some(plan) = cells.iter().find(|p| p.index == index) else {
            eprintln!(
                "campaign-run: cell {index} out of range (campaign \"{}\" has {} cells)",
                c.name,
                cells.len()
            );
            std::process::exit(1);
        };
        let outcome = run_cell(&c, plan);
        println!(
            "cell {:>4}  seed {:>20}  accuracy {:.3}  dropped {}  rejected {}",
            outcome.index, outcome.seed, outcome.accuracy, outcome.dropped, outcome.rejected
        );
        if let Some(dir) = dir {
            let path = dir.join(&outcome.artifact_name);
            write_file(&path, &outcome.artifact);
            println!("artifact written to {}", path.display());
        }
        return;
    }

    let outcome = run_campaign(&c);
    println!(
        "campaign \"{}\": {} cells, {} train + {} test trials per cell",
        c.name,
        outcome.cells.len(),
        c.train,
        c.test
    );
    for cell in &outcome.cells {
        println!(
            "cell {:>4}  seed {:>20}  accuracy {:.3}  dropped {}  rejected {}",
            cell.index, cell.seed, cell.accuracy, cell.dropped, cell.rejected
        );
    }
    let mean: f64 = if outcome.cells.is_empty() {
        0.0
    } else {
        outcome.cells.iter().map(|c| c.accuracy).sum::<f64>() / outcome.cells.len() as f64
    };
    println!(
        "mean accuracy {:.3} over {} cells",
        mean,
        outcome.cells.len()
    );

    if let Some(dir) = dir {
        for cell in &outcome.cells {
            write_file(&dir.join(&cell.artifact_name), &cell.artifact);
        }
        let summary_name = format!("{}-summary.json", c.name);
        let summary = summary_json(&outcome);
        // Like the fleet summary: a render its own reader rejects must
        // never reach CI's byte-compare.
        if let Err(e) = validate_summary(&summary) {
            eprintln!("campaign-run: summary failed validation: {e}");
            std::process::exit(1);
        }
        write_file(&dir.join(&summary_name), &summary);
        println!(
            "{} artifacts + {summary_name} written to {}",
            outcome.cells.len(),
            dir.display()
        );
    }

    if let Some(bench_path) = check {
        crate::enforce_budgets(
            "campaign-run",
            bench_path,
            &[&|bench| check_campaign_budgets(bench, &outcome)],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        wimi_campaign::parse(
            "campaign tiny\nseed 77\ntrain 3\ntest 4\n\
             axis materials = PureWater+Honey\n\
             axis packets = 10\n\
             axis intensity = 0, 0.3\n\
             at 2 fault 0.6\n",
        )
        .expect("valid campaign")
    }

    #[test]
    fn cells_run_deterministically_and_tag_artifacts() {
        let c = tiny_campaign();
        let cells = expand(&c);
        assert_eq!(cells.len(), 2);
        let a = run_cell(&c, &cells[0]);
        let b = run_cell(&c, &cells[0]);
        assert_eq!(a.artifact, b.artifact, "cell re-run must be byte-identical");
        assert_eq!(a.accuracy, b.accuracy);
        let parsed = wimi_trace::artifact::parse_and_validate(&a.artifact).expect("validates");
        let tag = parsed.campaign.expect("campaign tag");
        assert_eq!(tag.campaign, "tiny");
        assert_eq!(tag.cell, 0);
        assert_eq!(tag.cell_seed, cells[0].seed);
    }

    #[test]
    fn campaign_outcome_summary_is_stable_and_budgetable() {
        let c = tiny_campaign();
        let outcome = run_campaign(&c);
        assert_eq!(outcome.cells.len(), 2);
        // Each cell carries its own segment table: base + the at-2 ramp.
        assert_eq!(outcome.cells[0].segments.len(), 2);
        let summary = summary_json(&outcome);
        assert_eq!(summary, summary_json(&outcome));
        assert_eq!(validate_summary(&summary), Ok(2));
        // The totals gate reads the section named after the campaign…
        let bench =
            "{\"tiny_budgets\": {\"trace_events\": 99999999, \"captures_taken\": 99999999}}";
        let rows = check_campaign_budgets(bench, &outcome).expect("budgets check");
        assert!(rows.iter().all(|r| r.ok));
        // …so another campaign's ceilings never gate it.
        let other = "{\"matrix_budgets\": {\"trace_events\": 99999999}}";
        assert!(check_campaign_budgets(other, &outcome).is_err());
    }

    #[test]
    fn summary_reader_rejects_each_broken_invariant() {
        let summary = summary_json(&run_campaign(&tiny_campaign()));
        let accuracy = summary.find("\"accuracy\": ").expect("a cell accuracy") + 12;
        let mut too_accurate = summary.clone();
        too_accurate.replace_range(accuracy..accuracy + 8, "1.500000");
        for (bad, why) in [
            (
                summary.replacen("\"cells\": 2", "\"cells\": 3", 1),
                "cell count",
            ),
            (
                summary.replacen("{\"cell\": 1,", "{\"cell\": 0,", 1),
                "cell order",
            ),
            (
                summary.replacen("tiny-cell-0001", "tiny-cell-0007", 1),
                "artifact name",
            ),
            (too_accurate, "accuracy above 1"),
            (
                summary.replacen("{\"from\": 0,", "{\"from\": 1,", 1),
                "first segment",
            ),
            (
                summary.replacen("{\"from\": 2,", "{\"from\": 0,", 1),
                "segment order",
            ),
            (
                summary.replacen("\"trace_events\"", "\"trace_eventz\"", 1),
                "totals lead",
            ),
            (
                summary.replacen(
                    "\"captures_taken\": ",
                    "\"captures_taken\": 0.5, \"x\": ",
                    1,
                ),
                "fractional total",
            ),
            (
                summary.replacen("\"seed\":", "\"junk\": 1, \"seed\":", 1),
                "stray key",
            ),
            (
                summary.replacen("wimi-campaign/1", "wimi-campaign/2", 1),
                "schema",
            ),
            (summary[..summary.len() / 2].to_owned(), "truncation"),
        ] {
            assert_ne!(bad, summary, "{why}: the tamper must change the text");
            let err = validate_summary(&bad).expect_err(why);
            assert!(!err.contains('\n'), "{why}: {err}");
        }
    }
}
