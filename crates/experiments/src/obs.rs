//! Observability report: runs a small identification campaign with a
//! [`wimi_obs::Recorder`] attached and prints the pipeline's structured
//! self-accounting — stage spans, counters, quality issues, and the γ /
//! dispersion / retry histograms.
//!
//! The default clock is [`wimi_obs::NullClock`], so the report is
//! bit-identical for any `WIMI_THREADS` and safe to diff in CI. Pass
//! `--obs-wall` on the CLI for real (non-deterministic) span timings.

use crate::accuracy::Effort;
use crate::harness::{heading, paper_liquids, run_identification, RunOptions};
use std::sync::Arc;
use wimi_obs::{validate_json, Clock, Recorder};

/// Wall-clock [`Clock`] for interactive runs: nanoseconds since the clock
/// was created. Opt-in only (`--obs-wall`) because it breaks run-to-run
/// determinism by design.
#[derive(Debug)]
pub struct WallClock {
    start: std::time::Instant,
}

impl WallClock {
    /// Starts the clock at construction time.
    #[allow(clippy::new_without_default)]
    #[expect(
        clippy::disallowed_methods,
        reason = "the opt-in `--obs-wall` clock; deterministic runs use the null clock"
    )]
    pub fn new() -> Self {
        WallClock {
            start: std::time::Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs a reduced identification campaign with a recorder attached and
/// prints the snapshot summary. With `json_path`, also exports the
/// snapshot as JSON (validated against the `wimi-obs/1` schema before it
/// is written). `wall` swaps in [`WallClock`] timings.
pub fn obs_report(effort: Effort, json_path: Option<&str>, wall: bool) {
    heading("obs-report", "pipeline observability snapshot");

    let recorder = if wall {
        Arc::new(Recorder::with_clock(Arc::new(WallClock::new())))
    } else {
        Arc::new(Recorder::enabled())
    };

    // A small but non-trivial campaign: all ten liquids, reduced trials,
    // so every stage (capture → classification) and the retry/salvage
    // paths get exercised.
    let opts = RunOptions {
        n_train: effort.n_train.min(4),
        n_test: effort.n_test.min(3),
        packets: 12,
        recorder: Some(Arc::clone(&recorder)),
        ..RunOptions::default()
    };
    let result = run_identification(&paper_liquids(), &opts);
    println!(
        "accuracy {:.3} over {} liquids ({} train + {} test per material)",
        result.accuracy(),
        paper_liquids().len(),
        opts.n_train,
        opts.n_test,
    );
    println!();

    let snap = recorder.snapshot();
    print!("{}", snap.summary());

    let json = snap.to_json();
    if let Err(e) = validate_json(&json) {
        println!("exported JSON FAILED self-validation: {e}");
        std::process::exit(1);
    }
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("obs-report: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("snapshot written to {path} ({} bytes)", json.len());
    }
}
