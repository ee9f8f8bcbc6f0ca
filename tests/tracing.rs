//! Integration tests for the wimi-trace flight-recorder layer: tracing
//! must never change pipeline output, rendered traces must be
//! byte-identical for any worker thread count, a disabled sink must stay
//! perfectly silent, and a fault-injected run that exhausts its retry
//! policy must produce a valid dump whose last events localize the
//! failing stage and issue.

use std::sync::Arc;
use wimi::core::{WiMi, WiMiConfig};
use wimi::obs::Recorder;
use wimi::phy::csi::{CsiCapture, CsiSource};
use wimi::phy::fault::FaultPlan;
use wimi::phy::material::Liquid;
use wimi::phy::scenario::{Scenario, Simulator};
use wimi::trace::{artifact, Observer, TraceSink};
use wimi_experiments::harness::{run_identification, Material, RunOptions};
use wimi_experiments::trace::{
    render_artifact, trace_campaign, trace_campaign_with, write_failure_dump,
};
use wimi_experiments::Effort;

fn capture_pair(seed: u64, n: usize) -> (CsiCapture, CsiCapture) {
    let mut sim = Simulator::new(Scenario::builder().build(), seed);
    let base = sim.capture(n);
    sim.set_liquid(Some(Liquid::Milk.into()));
    let tar = sim.capture(n);
    (base, tar)
}

#[test]
fn tracing_never_changes_pipeline_output() {
    // Two of the four attach states, sink only and both views; none and
    // the recorder alone are checked in `observability.rs`.
    let states = || {
        [
            ("sink", None, Some(TraceSink::enabled())),
            (
                "both",
                Some(Arc::new(Recorder::enabled())),
                Some(TraceSink::enabled()),
            ),
        ]
    };
    for seed in [11, 23] {
        let (base, tar) = capture_pair(seed, 20);
        let plain = WiMi::new(WiMiConfig::default()).measure(&base, &tar);
        for (state, recorder, trace) in states() {
            let mut observed = WiMi::new(WiMiConfig::default());
            observed.set_observer(Observer::new(recorder, trace));
            assert_eq!(
                plain,
                observed.measure(&base, &tar),
                "seed {seed}, attach state {state}: the observer must be a pure observer"
            );
        }
    }
    // Full runs too: same confusion matrix with and without a sink.
    let materials = vec![
        Material::catalog(Liquid::PureWater),
        Material::catalog(Liquid::Honey),
    ];
    let opts = |recorder, trace| RunOptions {
        n_train: 3,
        n_test: 2,
        packets: 10,
        recorder,
        trace,
        ..RunOptions::default()
    };
    let r_plain = run_identification(&materials, &opts(None, None));
    for (state, recorder, trace) in states() {
        let r = run_identification(&materials, &opts(recorder, trace));
        assert_eq!(r_plain.confusion, r.confusion, "attach state {state}");
        assert_eq!(
            r_plain.dropped_trials, r.dropped_trials,
            "attach state {state}"
        );
        assert_eq!(
            r_plain.rejected_measurements, r.rejected_measurements,
            "attach state {state}"
        );
    }
}

#[test]
fn disabled_sink_adds_zero_events_on_the_hot_path() {
    let sink = TraceSink::disabled();
    let materials = vec![
        Material::catalog(Liquid::PureWater),
        Material::catalog(Liquid::Oil),
    ];
    let opts = RunOptions {
        n_train: 3,
        n_test: 2,
        packets: 10,
        trace: Some(Arc::clone(&sink)),
        ..RunOptions::default()
    };
    let _ = run_identification(&materials, &opts);
    assert_eq!(sink.events_emitted(), 0, "disabled sink must stay silent");
    assert_eq!(sink.failures(), 0);
    let log = sink.flush();
    assert!(
        log.tasks.is_empty(),
        "disabled sink must allocate no streams"
    );
}

#[test]
fn rendered_traces_are_thread_count_invariant() {
    wimi::core::par::set_thread_override(Some(1));
    let serial = render_artifact(&trace_campaign(Effort::quick())).expect("valid artifact");
    wimi::core::par::set_thread_override(Some(4));
    let parallel = render_artifact(&trace_campaign(Effort::quick())).expect("valid artifact");
    wimi::core::par::set_thread_override(None);
    assert_eq!(
        serial, parallel,
        "traces must be byte-identical under any WIMI_THREADS"
    );
}

#[test]
fn faulted_run_dumps_a_valid_artifact_localizing_the_failure() {
    // A hostile fault plan makes some measurements exhaust the retry
    // policy, which is exactly when the dump-on-failure protocol fires.
    let campaign = trace_campaign_with(Effort::quick(), Some(FaultPlan::hostile(0xBAD)));
    assert!(
        campaign.sink.failures() > 0,
        "hostile faults must exhaust at least one retry policy"
    );
    let path = std::env::temp_dir().join(format!(
        "wimi-trace-faulted-dump-{}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_str().expect("utf-8 path");
    let bytes = write_failure_dump(&campaign, path_str)
        .expect("dump must succeed")
        .expect("failures must produce a dump");
    let text = std::fs::read_to_string(&path).expect("dump written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(text.len(), bytes);

    // The dump is schema-valid and embeds the final obs snapshot.
    let parsed = artifact::parse_and_validate(&text).expect("dump validates");
    assert_eq!(parsed.header.failures, campaign.sink.failures());
    assert!(parsed.obs != wimi::obs::json::Json::Null);

    // The last events of some task stream name the exhausted retries and
    // the stage/issue that refused — the failure is localized, not just
    // counted.
    let summary = wimi::trace::analyze::summary(&text).expect("summary renders");
    assert!(
        summary.contains("failing tasks (stream tails):"),
        "summary must single out failing tasks:\n{summary}"
    );
    assert!(
        summary.contains("retries exhausted after"),
        "tails must show the exhausted policy:\n{summary}"
    );
    assert!(
        summary.contains("FAILED at "),
        "tails must name the failing stage and issue:\n{summary}"
    );
}
