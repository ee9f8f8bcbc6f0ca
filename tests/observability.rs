//! Integration tests for the observability layer: observing (a recorder,
//! a trace sink, or both) must never change pipeline output, and
//! enabled-recorder snapshots must be byte-identical for any worker
//! thread count.

use std::sync::Arc;
use wimi::core::{PairSelection, WiMi, WiMiConfig};
use wimi::obs::{validate_json, CounterId, IssueId, Recorder};
use wimi::phy::csi::{CsiCapture, CsiSource};
use wimi::phy::material::Liquid;
use wimi::phy::scenario::{Scenario, Simulator};
use wimi::trace::Observer;
use wimi_experiments::harness::{run_identification, Material, RunOptions};

fn capture_pair(seed: u64, n: usize) -> (CsiCapture, CsiCapture) {
    let mut sim = Simulator::new(Scenario::builder().build(), seed);
    let base = sim.capture(n);
    sim.set_liquid(Some(Liquid::Milk.into()));
    let tar = sim.capture(n);
    (base, tar)
}

/// Zeroes one subcarrier on one antenna in every packet.
fn kill_subcarrier(cap: &CsiCapture, antenna: usize, subcarrier: usize) -> CsiCapture {
    cap.packets()
        .map(|mut p| {
            *p.get_mut(antenna, subcarrier) = wimi::phy::complex::Complex::ZERO;
            p
        })
        .collect()
}

#[test]
fn recording_never_changes_pipeline_output() {
    // Two of the four attach states, none and recorder only; the sink
    // alone and both views together are checked in `tracing.rs`.
    let rec = || Some(Arc::new(Recorder::enabled()));
    for seed in [11, 23] {
        let (base, tar) = capture_pair(seed, 20);
        let plain = WiMi::new(WiMiConfig::default()).measure(&base, &tar);
        for (state, recorder) in [("none", None), ("recorder", rec())] {
            let mut observed = WiMi::new(WiMiConfig::default());
            observed.set_observer(Observer::new(recorder, None));
            assert_eq!(
                plain,
                observed.measure(&base, &tar),
                "seed {seed}, attach state {state}: the observer must be a pure observer"
            );
        }
    }
    // Full runs too: same confusion matrix with and without a recorder.
    let materials = vec![
        Material::catalog(Liquid::PureWater),
        Material::catalog(Liquid::Honey),
    ];
    let opts = |recorder| RunOptions {
        n_train: 3,
        n_test: 2,
        packets: 10,
        recorder,
        ..RunOptions::default()
    };
    let r_plain = run_identification(&materials, &opts(None));
    let r = run_identification(&materials, &opts(rec()));
    assert_eq!(r_plain.confusion, r.confusion);
    assert_eq!(r_plain.dropped_trials, r.dropped_trials);
    assert_eq!(r_plain.rejected_measurements, r.rejected_measurements);
}

#[test]
fn snapshot_json_is_thread_count_invariant() {
    let materials = vec![
        Material::catalog(Liquid::PureWater),
        Material::catalog(Liquid::Oil),
    ];
    let run = || {
        let rec = Arc::new(Recorder::enabled());
        let opts = RunOptions {
            n_train: 3,
            n_test: 2,
            packets: 10,
            recorder: Some(Arc::clone(&rec)),
            ..RunOptions::default()
        };
        let _ = run_identification(&materials, &opts);
        rec.snapshot().to_json()
    };
    wimi::core::par::set_thread_override(Some(1));
    let t1 = run();
    wimi::core::par::set_thread_override(Some(4));
    let t4 = run();
    wimi::core::par::set_thread_override(None);
    assert_eq!(t1, t4, "snapshot must not depend on worker count");
    validate_json(&t1).expect("snapshot validates against wimi-obs/1");
}

#[test]
fn measurement_quality_flows_into_the_recorder() {
    let (base, tar) = capture_pair(1, 40);
    let base = kill_subcarrier(&base, 0, 5);
    let tar = kill_subcarrier(&tar, 0, 5);
    let rec = Arc::new(Recorder::enabled());
    let mut wimi = WiMi::new(WiMiConfig {
        pairs: PairSelection::Best,
        ..WiMiConfig::default()
    });
    wimi.set_observer(Observer::new(Some(Arc::clone(&rec)), None));
    let m = wimi.measure(&base, &tar);
    assert!(m.is_ok(), "dead subcarrier must not sink the measurement");

    let snap = rec.snapshot();
    let get = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("counter {name}"))
    };
    assert_eq!(get("measurements_attempted"), 1);
    assert_eq!(get("measurements_ok"), 1);
    assert_eq!(get("subcarriers_rejected"), 1);
    assert!(get("pairs_attempted") >= 1);
    assert_eq!(
        snap.issues[IssueId::RejectedSubcarriers as usize].1,
        1,
        "triage issue must tally under rejected_subcarriers"
    );
    // The γ and dispersion histograms saw exactly one feature.
    assert_eq!(snap.gamma.counts.iter().sum::<u64>(), 1);
    assert_eq!(snap.dispersion.counts.iter().sum::<u64>(), 1);
}

#[test]
fn simulator_reports_captures_and_packets() {
    let rec = Arc::new(Recorder::enabled());
    let mut sim = Simulator::new(Scenario::builder().build(), 3);
    sim.set_observer(Observer::new(Some(Arc::clone(&rec)), None));
    let a = sim.capture(7);
    let b = sim.capture(5);
    assert_eq!(a.len(), 7);
    assert_eq!(b.len(), 5);
    let snap = rec.snapshot();
    assert_eq!(snap.counters[CounterId::CapturesTaken as usize].1, 2);
    assert_eq!(snap.counters[CounterId::PacketsSimulated as usize].1, 12);
    // With the deterministic null clock, capture spans cost zero ns.
    assert_eq!(snap.stages[0].calls, 2);
    assert_eq!(snap.stages[0].total_ns, 0);
}
