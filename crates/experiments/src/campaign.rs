//! Campaign runner: executes a parsed [`Campaign`] cell by cell through
//! the measurement harness, with cells fanned out over
//! [`wimi_core::par`] worker threads, and emits one `wimi-trace/1`
//! artifact per cell plus a `wimi-campaign/1` summary JSON.
//!
//! Determinism: each cell runs serially inside one worker, with its own
//! recorder and trace sink, and every measurement seed is a pure function
//! of the cell's derived seed — so per-cell artifacts are byte-identical
//! for any `WIMI_THREADS` setting, and re-running one cell in isolation
//! (`campaign-run --cell N`) reproduces the full run's artifact exactly.
//!
//! Schedule semantics: training always happens under the cell's *base*
//! axis conditions; the schedule perturbs test trials only, segment by
//! segment, which is what lets a scheduled fault ramp inside one cell
//! reproduce the shape of the PR2 degradation curve.

use std::sync::Arc;

use wimi_campaign::{
    cell_count, expand, fault_plan, lower, state_at, Campaign, CellPlan, StepState, TargetMode,
};
use wimi_core::{WiMi, WiMiConfig};
use wimi_ml::dataset::Dataset;
use wimi_obs::json::fixed6;
use wimi_obs::Recorder;
use wimi_phy::scenario::{Beaker, LiquidSpec};
use wimi_phy::units::Meters;
use wimi_serve::measure_with_retry;
use wimi_trace::artifact::{cell_artifact_name, render_cell, CampaignTag};
use wimi_trace::{analyze, TaskKey, TraceSink};

use crate::harness::RunOptions;

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

/// Runs one cell serially: trains under the cell's base conditions, then
/// walks the test trials segment by segment under the scheduled
/// conditions, and renders the cell's tagged trace artifact.
///
/// A cell whose training set ends up with fewer than two populated
/// classes (every capture for the other classes was rejected or dropped
/// — possible under harsh axis combinations) is *untrainable*: the test
/// phase is skipped and the cell reports accuracy 0 over zero
/// classifications. This keeps campaign runs total — a degenerate cell
/// is a result, not a crash — and stays deterministic, since the skip is
/// a pure function of the cell's measurements.
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

    let mut extractor = WiMi::new(WiMiConfig::default());
    extractor.set_recorder(Some(Arc::clone(&recorder)));
    extractor.set_trace(Some(Arc::clone(&sink)));

    let mut dropped = 0usize;
    let mut rejected = 0usize;
    let mut salvaged = 0usize;

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
    let mut train = Dataset::new(names.clone());
    for trial in 0..c.train {
        for (label, spec) in specs.iter().enumerate() {
            let seed = cell.seed + 1_000 + trial as u64 * 131 + label as u64;
            let setup = train_opts.trial(Some(spec));
            let out = measure_with_retry(&extractor, &setup, seed, TaskKey::measurement(seed));
            rejected += out.rejected;
            salvaged += out.salvaged as usize;
            match out.feature {
                Some(f) => train.push(f.as_vector(), label),
                None => dropped += 1,
            }
        }
    }

    let populated = train.class_counts().iter().filter(|&&n| n > 0).count();
    let trained = if populated >= 2 {
        let mut wimi = WiMi::new(WiMiConfig::default());
        wimi.set_recorder(Some(Arc::clone(&recorder)));
        wimi.set_trace(Some(Arc::clone(&sink)));
        wimi.train_on_dataset(&train);
        Some(wimi)
    } else {
        None
    };

    // Test phase: one segment of scheduled conditions at a time. An
    // untrainable cell skips it and scores zero over zero trials.
    let steps = lower(c, cell);
    let mut segments: Vec<SegmentOutcome> = steps
        .iter()
        .map(|s| SegmentOutcome {
            from: s.from,
            intensity: s.intensity,
            correct: 0,
            total: 0,
        })
        .collect();
    let test_trials = if trained.is_some() { c.test } else { 0 };
    for trial in 0..test_trials {
        let state = state_at(&steps, trial);
        let seg = segments
            .iter_mut()
            .rfind(|s| s.from <= trial)
            .expect("segment 0 starts at trial 0");
        let opts = cell_options(c, cell, state, &recorder, &sink);
        for label in 0..k {
            let seed = cell.seed + 900_000 + trial as u64 * 137 + label as u64;
            let spec = match state.target {
                TargetMode::Present => Some(&specs[label]),
                // The operator (or an adversary) swapped in the next
                // catalog entry; the truth label still claims the
                // original, so correct behaviour is a mismatch.
                TargetMode::Swapped => Some(&specs[(label + 1) % k]),
                TargetMode::Removed => None,
            };
            let setup = opts.trial(spec);
            let out = measure_with_retry(&extractor, &setup, seed, TaskKey::measurement(seed));
            rejected += out.rejected;
            salvaged += out.salvaged as usize;
            match out.feature {
                Some(f) => {
                    let wimi = trained.as_ref().expect("test phase only runs when trained");
                    let predicted = wimi.classify_feature(&f).expect("trained");
                    seg.total += 1;
                    if predicted == label && state.target == TargetMode::Present {
                        seg.correct += 1;
                    }
                }
                None => dropped += 1,
            }
        }
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
        dropped,
        rejected,
        salvaged,
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
/// first — the shape the `work_budgets` gate reads.
pub fn work_totals(outcome: &CampaignOutcome) -> Vec<(String, u64)> {
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
// wlint: artifact
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

/// Checks a campaign's aggregated work totals against the `work_budgets`
/// object of a committed bench summary (`BENCH_PR7.json`), mirroring the
/// `wimi-trace` budget gate: exceeding any ceiling fails, and so does a
/// budget name with no matching total.
///
/// # Errors
///
/// One-line message for unparsable bench JSON, a missing/empty
/// `work_budgets` object, or an unknown budget name.
pub fn check_campaign_budgets(
    bench_json: &str,
    outcome: &CampaignOutcome,
) -> Result<Vec<analyze::BudgetRow>, String> {
    let bench = wimi_obs::json::parse(bench_json).map_err(|e| format!("bench summary: {e}"))?;
    let Some(wimi_obs::json::Json::Obj(budgets)) = bench.get("work_budgets") else {
        return Err("bench summary has no \"work_budgets\" object".into());
    };
    if budgets.is_empty() {
        return Err("\"work_budgets\" is empty — nothing to gate on".into());
    }
    let totals = work_totals(outcome);
    let mut rows = Vec::new();
    for (name, value) in budgets {
        let budget = value
            .as_u64()
            .ok_or_else(|| format!("budget \"{name}\" must be a non-negative integer"))?;
        let actual = totals
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("budget \"{name}\" does not match any campaign work total"))?;
        rows.push(analyze::BudgetRow {
            name: name.clone(),
            actual,
            budget,
            ok: actual <= budget,
        });
    }
    Ok(rows)
}

fn read_campaign(path: &str) -> Campaign {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaign-run: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match wimi_campaign::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `campaign-validate PATH`: parses and validates a campaign file,
/// printing its expanded size, or a one-line error on stderr with exit 1
/// (mirroring `obs-validate`).
pub fn campaign_validate(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaign-validate: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match wimi_campaign::parse(&text) {
        Ok(c) => {
            println!(
                "ok: campaign \"{}\", {} cells, {} train + {} test trials per cell, {} schedule entries",
                c.name,
                cell_count(&c),
                c.train,
                c.test,
                c.schedule.len()
            );
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
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
/// `--check BENCH` gates the aggregated work totals against the bench
/// file's `work_budgets` and exits 1 when any ceiling is exceeded.
pub fn campaign_run(path: &str, out_dir: Option<&str>, cell: Option<u64>, check: Option<&str>) {
    let c = read_campaign(path);
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
        write_file(&dir.join(&summary_name), &summary_json(&outcome));
        println!(
            "{} artifacts + {summary_name} written to {}",
            outcome.cells.len(),
            dir.display()
        );
    }

    if let Some(bench_path) = check {
        let bench = match std::fs::read_to_string(bench_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("campaign-run: cannot read {bench_path}: {e}");
                std::process::exit(2);
            }
        };
        match check_campaign_budgets(&bench, &outcome) {
            Ok(rows) => {
                print!("{}", analyze::budget_table(&rows));
                if rows.iter().any(|r| !r.ok) {
                    eprintln!("campaign-run: work budget exceeded (see table above)");
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("campaign-run: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `campaign-diff DIR_A DIR_B`: compares the `.jsonl` artifacts of two
/// campaign output directories for byte-identity (the thread-count
/// invariance gate). File sets must match; the first divergence is
/// reported with the `wimi-trace` diff context. Exit 0 iff identical.
pub fn campaign_diff(dir_a: &str, dir_b: &str) {
    let list = |dir: &str| -> Vec<String> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("campaign-diff: cannot read {dir}: {e}");
                std::process::exit(2);
            }
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".jsonl"))
            .collect();
        names.sort();
        names
    };
    let a_names = list(dir_a);
    let b_names = list(dir_b);
    if a_names != b_names {
        eprintln!(
            "campaign-diff: artifact sets differ ({} files in {dir_a}, {} in {dir_b})",
            a_names.len(),
            b_names.len()
        );
        std::process::exit(1);
    }
    if a_names.is_empty() {
        eprintln!("campaign-diff: no .jsonl artifacts in {dir_a}");
        std::process::exit(2);
    }
    for name in &a_names {
        let read = |dir: &str| -> String {
            let path = std::path::Path::new(dir).join(name);
            match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("campaign-diff: cannot read {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        };
        let a = read(dir_a);
        let b = read(dir_b);
        match analyze::diff(&a, &b) {
            analyze::DiffOutcome::Identical => {}
            analyze::DiffOutcome::Diverged { report, .. } => {
                eprintln!("campaign-diff: {name} diverges:");
                eprint!("{report}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "identical: {} artifacts match between {dir_a} and {dir_b}",
        a_names.len()
    );
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
        let parsed = wimi_obs::json::parse(&summary).expect("summary is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(wimi_obs::json::Json::as_str),
            Some(SUMMARY_SCHEMA)
        );
        assert_eq!(
            parsed.get("cells").and_then(wimi_obs::json::Json::as_u64),
            Some(2)
        );
        // The totals gate accepts a bench file with generous ceilings…
        let bench =
            "{\"work_budgets\": {\"trace_events\": 99999999, \"captures_taken\": 99999999}}";
        let rows = check_campaign_budgets(bench, &outcome).expect("budgets check");
        assert!(rows.iter().all(|r| r.ok));
        // …and fails closed on an unknown budget name.
        let bad = "{\"work_budgets\": {\"warp_drives\": 1}}";
        assert!(check_campaign_budgets(bad, &outcome).is_err());
    }
}
