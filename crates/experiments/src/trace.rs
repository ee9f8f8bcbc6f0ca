//! Flight-recorder trace report: runs the observability campaign with a
//! [`wimi_trace::TraceSink`] attached and renders the `wimi-trace/1`
//! JSONL artifact — the ordered, per-task event log that the aggregate
//! `obs-report` snapshot throws away.
//!
//! Traces carry no wall time and order events by `(task, seq)` logical
//! clocks, so the artifact is byte-identical for any `WIMI_THREADS`
//! setting — CI proves it by diffing a 1-thread run against a 4-thread
//! run with `artifact diff`.

use crate::accuracy::Effort;
use crate::harness::{heading, paper_liquids, run_identification, RunOptions, RunResult};
use std::sync::Arc;
use wimi_obs::Recorder;
use wimi_phy::fault::FaultPlan;
use wimi_trace::{analyze, artifact, TraceSink};

/// Outcome of the shared trace campaign: the run result plus the two
/// observability sinks it filled.
pub struct TraceCampaign {
    /// Identification result of the campaign.
    pub result: RunResult,
    /// Aggregate recorder (embedded into the artifact's final line).
    pub recorder: Arc<Recorder>,
    /// Flight-recorder sink holding the ordered event streams.
    pub sink: Arc<TraceSink>,
}

/// Runs the reduced ten-liquid identification campaign with both a
/// recorder and a trace sink attached, optionally under a fault plan.
///
/// Trial counts are clamped exactly like `obs-report`'s, so `--quick`
/// and full runs execute the same campaign and trace identically — which
/// is what lets `BENCH.json` commit exact `trace_budgets` for it.
pub fn trace_campaign_with(effort: Effort, fault: Option<FaultPlan>) -> TraceCampaign {
    let recorder = Arc::new(Recorder::enabled());
    let sink = TraceSink::enabled();
    let opts = RunOptions {
        n_train: effort.n_train.min(4),
        n_test: effort.n_test.min(3),
        packets: 12,
        fault,
        recorder: Some(Arc::clone(&recorder)),
        trace: Some(Arc::clone(&sink)),
        ..RunOptions::default()
    };
    let result = run_identification(&paper_liquids(), &opts);
    TraceCampaign {
        result,
        recorder,
        sink,
    }
}

/// [`trace_campaign_with`] on a healthy (fault-free) deployment.
pub fn trace_campaign(effort: Effort) -> TraceCampaign {
    trace_campaign_with(effort, None)
}

/// Renders the campaign's flushed trace with the final obs snapshot
/// embedded, and self-validates the text before returning it.
///
/// # Errors
///
/// The validator's message when the rendered artifact violates its own
/// schema (a bug, not an environmental failure).
pub fn render_artifact(campaign: &TraceCampaign) -> Result<String, String> {
    let obs = campaign.recorder.snapshot().to_json();
    let text = artifact::render(&campaign.sink.flush(), Some(&obs));
    artifact::parse_and_validate(&text)?;
    Ok(text)
}

/// Writes the campaign's artifact to `path` only when the sink recorded
/// hard failures (a measurement exhausted its retry policy) — the
/// dump-on-failure protocol. Returns the dump size when one was written.
///
/// # Errors
///
/// Render/self-validation errors from [`render_artifact`] and I/O errors
/// writing the dump.
pub fn write_failure_dump(campaign: &TraceCampaign, path: &str) -> Result<Option<usize>, String> {
    if campaign.sink.failures() == 0 {
        return Ok(None);
    }
    let text = render_artifact(campaign)?;
    std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(Some(text.len()))
}

/// Runs the trace campaign, prints the deterministic summary, (with
/// `out_path`) writes the validated artifact, and (with `check`) gates
/// its work counters against the budget file's `trace_budgets`. Exits 1
/// if the artifact fails self-validation or a ceiling is exceeded, 2 if
/// a file cannot be written or read.
pub fn trace_report(effort: Effort, out_path: Option<&str>, check: Option<&str>) {
    heading("trace-report", "flight-recorder trace artifact");
    let campaign = trace_campaign(effort);
    println!(
        "accuracy {:.3} over {} liquids, {} hard measurement failures",
        campaign.result.accuracy(),
        paper_liquids().len(),
        campaign.sink.failures(),
    );
    println!();
    let text = match render_artifact(&campaign) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace-report: artifact FAILED self-validation: {e}");
            std::process::exit(1);
        }
    };
    match analyze::summary(&text) {
        Ok(s) => print!("{s}"),
        Err(e) => {
            eprintln!("trace-report: summary failed on validated artifact: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("trace-report: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("trace written to {path} ({} bytes)", text.len());
    }
    if let Some(bench_path) = check {
        crate::enforce_budgets(
            "trace-report",
            bench_path,
            &[&|bench| analyze::check_trace_budgets(bench, &text)],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_artifact_validates_and_is_reproducible() {
        let a = render_artifact(&trace_campaign(Effort::quick())).expect("valid artifact");
        let b = render_artifact(&trace_campaign(Effort::quick())).expect("valid artifact");
        assert_eq!(a, b, "same campaign must render byte-identical traces");
        let parsed = artifact::parse_and_validate(&a).expect("validates");
        assert!(parsed.header.events > 0, "campaign must emit events");
        assert!(
            parsed.obs != wimi_obs::json::Json::Null,
            "artifact must embed the obs snapshot"
        );
    }

    #[test]
    fn failure_dump_matches_the_sinks_failure_state() {
        let campaign = trace_campaign(Effort::quick());
        let path =
            std::env::temp_dir().join(format!("wimi-trace-dump-test-{}.jsonl", std::process::id()));
        let path_str = path.to_str().expect("utf-8 path");
        let dump = write_failure_dump(&campaign, path_str).expect("dump must not error");
        if campaign.sink.failures() == 0 {
            assert_eq!(dump, None, "no failures must mean no dump");
            assert!(!path.exists());
        } else {
            let bytes = dump.expect("failures must produce a dump");
            let text = std::fs::read_to_string(&path).expect("dump written");
            let _ = std::fs::remove_file(&path);
            assert_eq!(text.len(), bytes);
            let parsed = artifact::parse_and_validate(&text).expect("dump validates");
            assert_eq!(parsed.header.failures, campaign.sink.failures());
        }
    }
}
